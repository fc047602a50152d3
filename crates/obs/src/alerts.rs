//! Rule-based alerting over the metrics history.
//!
//! The engine evaluates declarative [`AlertRule`]s once per history
//! ingest: [`AlertEngine::evaluate`] takes the snapshot that was just
//! ingested and the [`TimeSeriesStore`] it went into, so anything an
//! operator can scrape, a rule can watch, and every windowed value is
//! one a `/v1/query_range` call reproduces. Three signal shapes cover
//! the rules TTLG needs:
//!
//! * [`Signal::Level`] — the value of one family in the snapshot
//!   (aggregated across its samples by sum or max), e.g. the prediction
//!   geo-mean error;
//! * [`Signal::Ratio`] — one family divided by another in the snapshot,
//!   e.g. the fullest queue's depth over the per-queue bound;
//! * [`Signal::DeltaRatio`] — `sum(increase(num)) / sum(increase(den))`
//!   over the store's trailing window `(last_ingest - window_ms,
//!   last_ingest]`, evaluated by [`eval_range`], e.g. sheds per transpose
//!   request or SLO misses per request. A numerator with no history in
//!   the window counts as zero; a denominator with none abstains, and
//!   one that did not grow reads zero (no requests, so none missed or
//!   shed), which clears the rule: a firing rule resolves once its
//!   window ages past the last breach, traffic or not. A hydrated store
//!   counts a restarted process's counters from zero, so the old
//!   process's lifetime totals never read as one burst.
//!
//! Each rule runs a firing/resolved state machine with hysteresis: a
//! rule must breach `for_evals` consecutive evaluations to fire
//! (`inactive → pending → firing`) and clear `resolve_evals`
//! consecutive evaluations to resolve, so one noisy scrape neither
//! pages nor un-pages. Only an ingest evaluates, so both counts are
//! scrapes, whoever reads the state meanwhile. Firing state exports as
//! `ttlg_alerts_firing{rule}` and critical firing rules gate readiness
//! (the gateway answers 503 on `/healthz`).

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::query::eval_range;
use crate::slo::SloConfig;
use crate::snapshot::{MetricKind, MetricsSnapshot, Sample};
use crate::tsdb::TimeSeriesStore;

/// How to collapse a family's samples into one scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sum over all samples (counters split by label).
    Sum,
    /// Maximum over all samples (worst window / worst schema).
    Max,
}

/// What a rule measures.
#[derive(Debug, Clone, Copy)]
pub enum Signal {
    /// Aggregated value of one family in the ingested snapshot.
    Level { metric: &'static str, agg: Agg },
    /// `num / den` in the ingested snapshot (both aggregated by `agg`);
    /// abstains when the denominator is missing or zero.
    Ratio {
        num: &'static str,
        den: &'static str,
        agg: Agg,
    },
    /// `sum(increase(num)) / sum(increase(den))` over the store's
    /// trailing `window_ms`; abstains when the denominator has no
    /// history in the window and reads `0` when it did not grow. `num`
    /// and `den` are query selectors, so they may carry label matchers.
    DeltaRatio {
        num: &'static str,
        den: &'static str,
        window_ms: u64,
    },
}

/// Comparison direction for the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Breach when `value > threshold`.
    Gt,
    /// Breach when `value < threshold`.
    Lt,
}

/// One declarative alert rule.
#[derive(Debug, Clone, Copy)]
pub struct AlertRule {
    /// Stable rule name, the `rule` label of `ttlg_alerts_firing`.
    pub name: &'static str,
    /// Operator-facing description.
    pub help: &'static str,
    /// What to measure.
    pub signal: Signal,
    /// Breach comparison.
    pub op: Op,
    /// Breach threshold.
    pub threshold: f64,
    /// Consecutive breaching evaluations before firing.
    pub for_evals: u32,
    /// Consecutive clear evaluations before a firing rule resolves.
    pub resolve_evals: u32,
    /// Critical rules gate readiness while firing.
    pub critical: bool,
}

/// Lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlertState {
    /// Not breaching.
    #[default]
    Inactive,
    /// Breaching, but not yet for `for_evals` evaluations.
    Pending,
    /// Breached long enough; the alert is active.
    Firing,
}

impl AlertState {
    /// Label value for JSON/text renderings.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// Point-in-time status of one rule after an evaluation.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    pub name: &'static str,
    pub help: &'static str,
    pub state: AlertState,
    /// Last measured value; `None` when the signal abstained.
    pub value: Option<f64>,
    pub threshold: f64,
    pub critical: bool,
    /// Times this rule has transitioned into `Firing`.
    pub fired_count: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct RuleState {
    state: AlertState,
    breach_streak: u32,
    clear_streak: u32,
    last_value: Option<f64>,
    fired_count: u64,
}

struct EngineState {
    rules: Vec<RuleState>,
    evaluations: u64,
}

/// The engine: rules plus per-rule state under one small mutex
/// (evaluations happen once per history ingest, never on the request
/// path).
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    state: Mutex<EngineState>,
}

impl AlertEngine {
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let n = rules.len();
        AlertEngine {
            rules,
            state: Mutex::new(EngineState {
                rules: vec![RuleState::default(); n],
                evaluations: 0,
            }),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// The state, whatever poisoned the lock: an evaluation updates one
    /// rule at a time, so a panic mid-evaluation leaves every rule in a
    /// valid state (later rules one evaluation behind).
    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Evaluations run so far.
    pub fn evaluations(&self) -> u64 {
        self.lock().evaluations
    }

    /// Evaluate every rule once, after `snap` was ingested into `store`,
    /// advancing the state machines, and return the post-evaluation
    /// status of each rule. `Level` and `Ratio` read `snap`;
    /// `DeltaRatio` reads the store's trailing window.
    pub fn evaluate(&self, snap: &MetricsSnapshot, store: &TimeSeriesStore) -> Vec<AlertStatus> {
        let end_ms = store.last_ingest_ms();
        let values: Vec<Option<f64>> = self
            .rules
            .iter()
            .map(|rule| match rule.signal {
                Signal::Level { metric, agg } => metric_value(snap, metric, agg),
                Signal::Ratio { num, den, agg } => {
                    match (metric_value(snap, num, agg), metric_value(snap, den, agg)) {
                        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
                        _ => None,
                    }
                }
                Signal::DeltaRatio {
                    num,
                    den,
                    window_ms,
                } => {
                    let end_ms = end_ms?;
                    let d = window_increase(store, den, end_ms, window_ms)?;
                    let n = window_increase(store, num, end_ms, window_ms).unwrap_or(0.0);
                    Some(if d > 0.0 { n / d } else { 0.0 })
                }
            })
            .collect();
        let mut st = self.lock();
        st.evaluations += 1;
        for ((rule, rs), value) in self.rules.iter().zip(&mut st.rules).zip(values) {
            // `None` = the signal abstained: leave the state machine
            // untouched (an abstain is neither a breach nor a clear).
            let breach = match value {
                Some(v) if v.is_finite() => Some(match rule.op {
                    Op::Gt => v > rule.threshold,
                    Op::Lt => v < rule.threshold,
                }),
                _ => None,
            };
            rs.last_value = value;
            if breach == Some(true) {
                rs.breach_streak += 1;
                rs.clear_streak = 0;
                match rs.state {
                    AlertState::Firing => {}
                    _ => {
                        rs.state = if rs.breach_streak >= rule.for_evals.max(1) {
                            rs.fired_count += 1;
                            AlertState::Firing
                        } else {
                            AlertState::Pending
                        };
                    }
                }
            } else if breach == Some(false) {
                rs.clear_streak += 1;
                rs.breach_streak = 0;
                match rs.state {
                    AlertState::Firing => {
                        if rs.clear_streak >= rule.resolve_evals.max(1) {
                            rs.state = AlertState::Inactive;
                        }
                    }
                    _ => rs.state = AlertState::Inactive,
                }
            }
        }
        self.statuses(&st)
    }

    /// Current status as of the last evaluation.
    pub fn status(&self) -> Vec<AlertStatus> {
        self.statuses(&self.lock())
    }

    fn statuses(&self, st: &EngineState) -> Vec<AlertStatus> {
        self.rules
            .iter()
            .zip(&st.rules)
            .map(|(rule, rs)| AlertStatus {
                name: rule.name,
                help: rule.help,
                state: rs.state,
                value: rs.last_value,
                threshold: rule.threshold,
                critical: rule.critical,
                fired_count: rs.fired_count,
            })
            .collect()
    }

    /// Whether any critical rule is currently firing (readiness gate).
    pub fn any_critical_firing(&self) -> bool {
        let st = self.lock();
        self.rules
            .iter()
            .zip(st.rules.iter())
            .any(|(rule, rs)| rule.critical && rs.state == AlertState::Firing)
    }

    /// Append `ttlg_alerts_firing{rule}` (1 firing / 0 otherwise) to a
    /// snapshot — one series per rule so absence is distinguishable
    /// from health.
    pub fn export_into(&self, snap: &mut MetricsSnapshot) {
        let st = self.lock();
        let samples = self
            .rules
            .iter()
            .zip(st.rules.iter())
            .map(|(rule, rs)| {
                Sample::labelled(
                    "rule",
                    rule.name,
                    if rs.state == AlertState::Firing {
                        1.0
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        snap.push_metric(
            "ttlg_alerts_firing",
            "Whether each alert rule is currently firing (1 = firing).",
            MetricKind::Gauge,
            samples,
        );
    }
}

/// Aggregate one family's samples to a scalar; `None` when the family
/// is absent or empty.
fn metric_value(snap: &MetricsSnapshot, name: &str, agg: Agg) -> Option<f64> {
    let metric = snap.metrics.iter().find(|m| m.name == name)?;
    let finite = metric
        .samples
        .iter()
        .map(|s| s.value)
        .filter(|v| v.is_finite());
    match agg {
        Agg::Sum => {
            let mut any = false;
            let mut sum = 0.0;
            for v in finite {
                any = true;
                sum += v;
            }
            any.then_some(sum)
        }
        Agg::Max => finite.fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        }),
    }
}

/// `sum(increase(name))` over `(end_ms - window_ms, end_ms]`: the one
/// point of that range query at step `window_ms`. `None` when the
/// family has no counter history in the window.
fn window_increase(
    store: &TimeSeriesStore,
    name: &str,
    end_ms: u64,
    window_ms: u64,
) -> Option<f64> {
    let expr = format!("sum(increase({name}))");
    let result = eval_range(store, &expr, end_ms, window_ms, window_ms).ok()?;
    result.series.first()?.points.last().map(|&(_, v)| v)
}

/// The rules the service evaluates on every history ingest: model
/// drift, SLO burn, queue saturation, and shed spikes. `slo-burn`
/// breaches when more than twice the error budget, `2 × (1 − goal)`,
/// of the last 10 s of requests missed `slo`'s objective.
pub fn default_rules(slo: SloConfig) -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "prediction-drift",
            help: "Prediction geo-mean error drifted past 1.5x: the timing model \
                   no longer matches measured kernels; run the autotuner.",
            signal: Signal::Level {
                metric: "ttlg_prediction_geo_mean_error",
                agg: Agg::Max,
            },
            op: Op::Gt,
            threshold: 1.5,
            for_evals: 2,
            resolve_evals: 2,
            critical: false,
        },
        AlertRule {
            name: "slo-burn",
            help: "More than twice the error budget of the last 10 s of requests \
                   missed the latency objective: it will be missed if this persists.",
            signal: Signal::DeltaRatio {
                num: "ttlg_slo_violations_total",
                den: "ttlg_slo_requests_total",
                window_ms: 10_000,
            },
            op: Op::Gt,
            threshold: 2.0 * (1.0 - slo.goal),
            for_evals: 2,
            resolve_evals: 2,
            critical: true,
        },
        AlertRule {
            name: "queue-saturation",
            help: "The fullest (tenant, class) queue is above 90% of its bound: \
                   that tenant's class is about to shed.",
            signal: Signal::Ratio {
                num: "ttlg_gateway_queue_fullest",
                den: "ttlg_gateway_queue_capacity",
                agg: Agg::Max,
            },
            op: Op::Gt,
            threshold: 0.9,
            for_evals: 2,
            resolve_evals: 2,
            critical: false,
        },
        AlertRule {
            name: "shed-spike",
            help: "More than 20% of the last 30 s of transpose requests were shed.",
            signal: Signal::DeltaRatio {
                num: "ttlg_gateway_shed_total",
                den: r#"ttlg_gateway_requests_total{endpoint="transpose"}"#,
                window_ms: 30_000,
            },
            op: Op::Gt,
            threshold: 0.2,
            for_evals: 2,
            resolve_evals: 2,
            critical: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(values: &[(&str, f64)]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, v) in values {
            snap.push_metric(name, "", MetricKind::Gauge, vec![Sample::plain(*v)]);
        }
        snap
    }

    /// Evaluate rules that read only the snapshot (no history needed).
    fn eval(eng: &AlertEngine, snap: &MetricsSnapshot) -> Vec<AlertStatus> {
        eng.evaluate(snap, &TimeSeriesStore::default())
    }

    fn level_rule(for_evals: u32, resolve_evals: u32, critical: bool) -> AlertRule {
        AlertRule {
            name: "test-level",
            help: "",
            signal: Signal::Level {
                metric: "x",
                agg: Agg::Max,
            },
            op: Op::Gt,
            threshold: 10.0,
            for_evals,
            resolve_evals,
            critical,
        }
    }

    #[test]
    fn fires_after_for_evals_and_resolves_after_resolve_evals() {
        let eng = AlertEngine::new(vec![level_rule(2, 2, true)]);
        let hot = snap_with(&[("x", 50.0)]);
        let cool = snap_with(&[("x", 1.0)]);

        assert_eq!(eval(&eng, &hot)[0].state, AlertState::Pending);
        assert!(!eng.any_critical_firing());
        assert_eq!(eval(&eng, &hot)[0].state, AlertState::Firing);
        assert!(eng.any_critical_firing());
        // One clear evaluation is not enough to resolve.
        assert_eq!(eval(&eng, &cool)[0].state, AlertState::Firing);
        assert_eq!(eval(&eng, &cool)[0].state, AlertState::Inactive);
        assert!(!eng.any_critical_firing());
        assert_eq!(eng.status()[0].fired_count, 1);
    }

    #[test]
    fn pending_resets_on_a_clear_evaluation() {
        let eng = AlertEngine::new(vec![level_rule(3, 1, false)]);
        let hot = snap_with(&[("x", 50.0)]);
        let cool = snap_with(&[("x", 1.0)]);
        assert_eq!(eval(&eng, &hot)[0].state, AlertState::Pending);
        assert_eq!(eval(&eng, &cool)[0].state, AlertState::Inactive);
        // The streak starts over.
        assert_eq!(eval(&eng, &hot)[0].state, AlertState::Pending);
        assert_eq!(eval(&eng, &hot)[0].state, AlertState::Pending);
        assert_eq!(eval(&eng, &hot)[0].state, AlertState::Firing);
    }

    #[test]
    fn missing_metric_abstains_and_never_breaches() {
        let eng = AlertEngine::new(vec![level_rule(1, 1, false)]);
        let empty = MetricsSnapshot::new();
        let status = eval(&eng, &empty);
        assert_eq!(status[0].state, AlertState::Inactive);
        assert_eq!(status[0].value, None);
    }

    #[test]
    fn nan_values_abstain() {
        let eng = AlertEngine::new(vec![level_rule(1, 1, false)]);
        let status = eval(&eng, &snap_with(&[("x", f64::NAN)]));
        assert_eq!(status[0].state, AlertState::Inactive);
        assert_eq!(status[0].value, None);
    }

    #[test]
    fn ratio_rule_breaches_on_saturation() {
        let rule = AlertRule {
            name: "sat",
            help: "",
            signal: Signal::Ratio {
                num: "depth",
                den: "cap",
                agg: Agg::Sum,
            },
            op: Op::Gt,
            threshold: 0.9,
            for_evals: 1,
            resolve_evals: 1,
            critical: false,
        };
        let eng = AlertEngine::new(vec![rule]);
        let s = eval(&eng, &snap_with(&[("depth", 60.0), ("cap", 64.0)]));
        assert_eq!(s[0].state, AlertState::Firing);
        assert!((s[0].value.unwrap() - 60.0 / 64.0).abs() < 1e-12);
        // Zero capacity abstains instead of dividing by zero.
        let s = eval(&eng, &snap_with(&[("depth", 60.0), ("cap", 0.0)]));
        assert_eq!(s[0].value, None);
    }

    /// `queue-saturation` compares the fullest (tenant, class) queue with
    /// the bound of one queue, not the depth summed over every queue.
    #[test]
    fn queue_saturation_reads_the_fullest_queue() {
        let rules = default_rules(SloConfig::default());
        let saturation = |depth: f64, fullest: f64| {
            let eng = AlertEngine::new(rules.clone());
            let snap = snap_with(&[
                ("ttlg_gateway_queue_depth", depth),
                ("ttlg_gateway_queue_fullest", fullest),
                ("ttlg_gateway_queue_capacity", 16.0),
            ]);
            let status = eval(&eng, &snap);
            let s = status.iter().find(|s| s.name == "queue-saturation");
            let s = s.expect("default rule").clone();
            (s.value, s.state)
        };
        // Four tenants with 4 queued each: every queue at a quarter.
        assert_eq!(saturation(16.0, 4.0), (Some(0.25), AlertState::Inactive));
        // One tenant at 15 of 16 breaches.
        assert_eq!(
            saturation(15.0, 15.0),
            (Some(15.0 / 16.0), AlertState::Pending)
        );
    }

    /// Cumulative-counter snapshot (the real exporter shape for the
    /// windowed rules, unlike the gauge-based `snap_with`).
    fn counters(values: &[(&str, f64)]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, v) in values {
            snap.push_metric(name, "", MetricKind::Counter, vec![Sample::plain(*v)]);
        }
        snap
    }

    fn shed_rule(window_ms: u64, for_evals: u32) -> AlertRule {
        AlertRule {
            name: "shed-spike",
            help: "",
            signal: Signal::DeltaRatio {
                num: "shed",
                den: "reqs",
                window_ms,
            },
            op: Op::Gt,
            threshold: 0.2,
            for_evals,
            resolve_evals: for_evals,
            critical: false,
        }
    }

    /// Ingest cumulative `shed`/`reqs` counters at `t_ms`, then evaluate.
    fn scrape(
        eng: &AlertEngine,
        store: &TimeSeriesStore,
        t_ms: u64,
        shed: f64,
        reqs: f64,
    ) -> AlertStatus {
        let snap = counters(&[("shed", shed), ("reqs", reqs)]);
        store.ingest(&snap, t_ms);
        eng.evaluate(&snap, store).remove(0)
    }

    /// With a one-scrape window the signal is the increase since the
    /// previous ingest: a fresh service's first ingest has no growth
    /// and reads 0, and an interval without new requests reads 0 too.
    #[test]
    fn delta_ratio_needs_two_evaluations_and_tracks_increase() {
        let eng = AlertEngine::new(vec![shed_rule(1_000, 1)]);
        let store = TimeSeriesStore::default();
        // First ingest: nothing requested, nothing shed.
        let s = scrape(&eng, &store, 1_000, 0.0, 0.0);
        assert_eq!(s.value, Some(0.0));
        assert_eq!(s.state, AlertState::Inactive);
        // 50 sheds over 100 new requests: 50% > 20%, fires.
        let s = scrape(&eng, &store, 2_000, 50.0, 100.0);
        assert!((s.value.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(s.state, AlertState::Firing);
        // 10 sheds over the next 100 requests: 10%, a clear.
        let s = scrape(&eng, &store, 3_000, 60.0, 200.0);
        assert!((s.value.unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(s.state, AlertState::Inactive);
        // No new requests: 0, still clear.
        let s = scrape(&eng, &store, 4_000, 60.0, 200.0);
        assert_eq!(s.value, Some(0.0));
        assert_eq!(s.state, AlertState::Inactive);
    }

    /// A firing windowed rule resolves without traffic: while the burst
    /// is inside the window it keeps breaching, and once the window
    /// holds only flat intervals the rule reads 0 and clears.
    #[test]
    fn a_firing_windowed_rule_resolves_once_its_window_goes_quiet() {
        let eng = AlertEngine::new(vec![shed_rule(10_000, 2)]);
        let store = TimeSeriesStore::default();
        scrape(&eng, &store, 1_000, 0.0, 0.0);
        // The burst lands in the interval ending at 2 s.
        scrape(&eng, &store, 2_000, 50.0, 100.0);
        assert_eq!(
            scrape(&eng, &store, 3_000, 50.0, 100.0).state,
            AlertState::Firing
        );
        let s = scrape(&eng, &store, 11_000, 50.0, 100.0);
        assert!((s.value.unwrap() - 0.5).abs() < 1e-12, "burst in window");
        assert_eq!(s.state, AlertState::Firing);
        let s = scrape(&eng, &store, 12_000, 50.0, 100.0);
        assert_eq!(s.value, Some(0.0), "window holds no requests");
        assert_eq!(s.state, AlertState::Firing, "one clear of two");
        assert_eq!(
            scrape(&eng, &store, 13_000, 50.0, 100.0).state,
            AlertState::Inactive
        );
    }

    #[test]
    fn max_aggregation_picks_worst_sample() {
        let mut snap = MetricsSnapshot::new();
        snap.push_metric(
            "burn",
            "",
            MetricKind::Gauge,
            vec![
                Sample::labelled("window", "short", 5.0),
                Sample::labelled("window", "long", 0.5),
            ],
        );
        assert_eq!(metric_value(&snap, "burn", Agg::Max), Some(5.0));
        assert_eq!(metric_value(&snap, "burn", Agg::Sum), Some(5.5));
    }

    #[test]
    fn export_emits_one_series_per_rule() {
        let eng = AlertEngine::new(default_rules(SloConfig::default()));
        let mut snap = MetricsSnapshot::new();
        eng.export_into(&mut snap);
        let firing = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_alerts_firing")
            .expect("family present");
        assert_eq!(
            firing.samples.len(),
            default_rules(SloConfig::default()).len()
        );
        assert!(firing.samples.iter().all(|s| s.value == 0.0));
    }

    #[test]
    fn default_drift_rule_fires_on_skewed_geo_error() {
        let eng = AlertEngine::new(default_rules(SloConfig::default()));
        let skewed = snap_with(&[("ttlg_prediction_geo_mean_error", 4.0)]);
        eval(&eng, &skewed);
        let status = eval(&eng, &skewed);
        let drift = status
            .iter()
            .find(|s| s.name == "prediction-drift")
            .unwrap();
        assert_eq!(drift.state, AlertState::Firing);
        assert!(!eng.any_critical_firing(), "drift is not critical");
        let mut out = MetricsSnapshot::new();
        eng.export_into(&mut out);
        let firing = out
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_alerts_firing")
            .unwrap();
        let s = firing
            .samples
            .iter()
            .find(|s| s.labels[0].1 == "prediction-drift")
            .unwrap();
        assert_eq!(s.value, 1.0);
    }

    /// A shed burst lands in a scrape where the request counter is
    /// flat; the 10 s window sees sheds and requests together and fires.
    #[test]
    fn burst_split_across_scrapes_fires_windowed_rule() {
        let store = TimeSeriesStore::default();
        let eng = AlertEngine::new(vec![shed_rule(10_000, 2)]);
        // Cumulative timeline: requests land in scrapes 1 and 3, the
        // entire shed burst in scrape 2.
        let states: Vec<AlertState> = [
            (1_000u64, 0.0, 60.0),
            (2_000, 20.0, 60.0),
            (3_000, 20.0, 70.0),
        ]
        .iter()
        .map(|&(t, shed, reqs)| scrape(&eng, &store, t, shed, reqs).state)
        .collect();
        // eval1: 0/60 clear; eval2: 20/60 ≈ 0.33 pending; eval3: 20/70 ≈
        // 0.29 — second consecutive breach fires.
        assert_eq!(
            states,
            vec![
                AlertState::Inactive,
                AlertState::Pending,
                AlertState::Firing
            ]
        );
        let v = eng.status()[0].value.unwrap();
        assert!((v - 20.0 / 70.0).abs() < 1e-9, "window ratio was {v}");
    }

    /// No history for the denominator abstains; no history for the
    /// numerator counts as zero.
    #[test]
    fn windowed_rule_abstains_without_history() {
        let eng = AlertEngine::new(vec![shed_rule(10_000, 1)]);
        let store = TimeSeriesStore::default();
        let snap = counters(&[("shed", 30.0), ("reqs", 200.0)]);
        // Nothing ingested: no window to read, whatever the snapshot says.
        let s = eng.evaluate(&snap, &store).remove(0);
        assert_eq!(s.value, None, "an empty store abstains");
        store.ingest(&counters(&[("other", 1.0)]), 1_000);
        let s = eng.evaluate(&snap, &store).remove(0);
        assert_eq!(s.value, None, "no denominator history abstains");
        store.ingest(&counters(&[("reqs", 100.0)]), 2_000);
        let s = eng.evaluate(&snap, &store).remove(0);
        assert_eq!(s.value, Some(0.0), "no numerator history counts as zero");
        assert_eq!(s.state, AlertState::Inactive);
    }

    /// A restarted process hydrates the old process's history and builds
    /// a fresh engine: its counters start over, the store's reset rule
    /// turns them into increments, and the old lifetime totals (a shed
    /// ratio past the threshold) never read as one burst.
    #[test]
    fn engine_recreation_seeds_baselines_from_history_and_does_not_spuriously_fire() {
        let old = TimeSeriesStore::default();
        old.ingest(&counters(&[("shed", 300.0), ("reqs", 600.0)]), 1_000);
        old.ingest(&counters(&[("shed", 400.0), ("reqs", 900.0)]), 2_000);
        let store = TimeSeriesStore::default();
        store.hydrate(&old.save()).expect("hydrate");

        let eng = AlertEngine::new(vec![shed_rule(10_000, 1)]);
        let s = scrape(&eng, &store, 20_000, 0.0, 50.0);
        assert_eq!(s.value, Some(0.0));
        assert_eq!(s.state, AlertState::Inactive);
        let s = scrape(&eng, &store, 21_000, 1.0, 60.0);
        assert!(
            (s.value.unwrap() - 1.0 / 60.0).abs() < 1e-12,
            "{:?}",
            s.value
        );
        assert_eq!(s.state, AlertState::Inactive);
    }
}
