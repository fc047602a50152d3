//! Rule-based alerting over a [`MetricsSnapshot`].
//!
//! The engine evaluates declarative [`AlertRule`]s against successive
//! snapshots — the same snapshot the exporters render, so anything an
//! operator can scrape, a rule can watch. Three signal shapes cover the
//! rules TTLG needs:
//!
//! * [`Signal::Level`] — the current value of a gauge/counter family
//!   (aggregated across its samples by sum or max), e.g. the prediction
//!   geo-mean error or the SLO burn rate;
//! * [`Signal::Ratio`] — one family divided by another at this instant,
//!   e.g. queue depth over queue capacity;
//! * [`Signal::DeltaRatio`] — the *increase* of one counter divided by
//!   the increase of another since the previous evaluation, e.g. sheds
//!   per routed request. With no previous snapshot (or no denominator
//!   growth) the signal abstains rather than breaching.
//!
//! A rule may additionally declare a history window (`window_ms > 0`).
//! When the engine is given a [`TimeSeriesStore`]
//! ([`AlertEngine::evaluate_with_history`]), such a rule evaluates over
//! the window instead of the instant: `Level`/`Ratio` aggregate the
//! retained samples in the window, and `DeltaRatio` becomes the ratio of
//! counter *increases over the whole window* — so a burst split across
//! three scrapes (numerator growing in one scrape, denominator in
//! others) still breaches, where the two-scrape delta abstains or sees
//! zero. With no store, or no retained data for the rule's families, the
//! rule falls back to the instantaneous two-scrape path, which is also
//! kept warm as the zero-history baseline.
//!
//! Each rule runs a firing/resolved state machine with hysteresis: a
//! rule must breach `for_evals` consecutive evaluations to fire
//! (`inactive → pending → firing`) and clear `resolve_evals`
//! consecutive evaluations to resolve, so one noisy scrape neither
//! pages nor un-pages. Firing state exports as
//! `ttlg_alerts_firing{rule}` and critical firing rules gate readiness
//! (the gateway answers 503 on `/healthz`).

use std::sync::Mutex;

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
    /// Current aggregated value of one family.
    Level { metric: &'static str, agg: Agg },
    /// `num / den` at this evaluation (both aggregated by `agg`);
    /// abstains when the denominator is missing or zero.
    Ratio {
        num: &'static str,
        den: &'static str,
        agg: Agg,
    },
    /// `Δnum / Δden` since the previous evaluation (sum-aggregated);
    /// abstains on the first evaluation or when `Δden <= 0`.
    DeltaRatio {
        num: &'static str,
        den: &'static str,
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
    /// History window for the signal, in milliseconds. `0` means
    /// instantaneous (the classic two-scrape behaviour). A positive
    /// window takes effect only when a [`TimeSeriesStore`] is supplied
    /// to [`AlertEngine::evaluate_with_history`] and has retained data
    /// for the rule's families; otherwise the rule falls back to the
    /// instantaneous path.
    pub window_ms: u64,
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
    /// `(num, den)` sums from the previous evaluation, per rule —
    /// only populated for `DeltaRatio` signals.
    prev_counters: Vec<Option<(f64, f64)>>,
    evaluations: u64,
}

/// The engine: rules plus per-rule state under one small mutex
/// (evaluations happen at scrape cadence, never on the request path).
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
                prev_counters: vec![None; n],
                evaluations: 0,
            }),
        }
    }

    /// The default rule set the gateway runs.
    pub fn with_default_rules() -> AlertEngine {
        AlertEngine::new(default_rules())
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluations run so far.
    pub fn evaluations(&self) -> u64 {
        self.state.lock().expect("alert state poisoned").evaluations
    }

    /// Evaluate every rule against `snap` with no history store —
    /// windowed rules fall back to their instantaneous path. See
    /// [`Self::evaluate_with_history`].
    pub fn evaluate(&self, snap: &MetricsSnapshot) -> Vec<AlertStatus> {
        self.evaluate_with_history(snap, None)
    }

    /// Evaluate every rule against `snap`, advancing the state
    /// machines, and return the post-evaluation status of each rule.
    ///
    /// Rules with `window_ms > 0` evaluate over `history` when it has
    /// retained data for their families (see the module docs for the
    /// per-signal window semantics); every other case uses the
    /// instantaneous snapshot. The two-scrape `DeltaRatio` baseline is
    /// advanced either way, so losing the store mid-stream degrades
    /// gracefully to the old behaviour.
    pub fn evaluate_with_history(
        &self,
        snap: &MetricsSnapshot,
        history: Option<&TimeSeriesStore>,
    ) -> Vec<AlertStatus> {
        let mut st = self.state.lock().expect("alert state poisoned");
        st.evaluations += 1;
        let mut out = Vec::with_capacity(self.rules.len());
        for (i, rule) in self.rules.iter().enumerate() {
            let windowed = if rule.window_ms > 0 { history } else { None };
            let value = match rule.signal {
                Signal::Level { metric, agg } => windowed
                    .and_then(|h| window_level(h, metric, agg, rule.window_ms))
                    .or_else(|| metric_value(snap, metric, agg)),
                Signal::Ratio { num, den, agg } => windowed
                    .and_then(|h| {
                        let n = window_level(h, num, agg, rule.window_ms)?;
                        let d = window_level(h, den, agg, rule.window_ms)?;
                        (d > 0.0).then_some(n / d)
                    })
                    .or_else(|| {
                        match (metric_value(snap, num, agg), metric_value(snap, den, agg)) {
                            (Some(n), Some(d)) if d > 0.0 => Some(n / d),
                            _ => None,
                        }
                    }),
                Signal::DeltaRatio { num, den } => {
                    // Advance the two-scrape baseline unconditionally so
                    // the fallback stays coherent while the windowed
                    // path is active.
                    let now = (
                        metric_value(snap, num, Agg::Sum),
                        metric_value(snap, den, Agg::Sum),
                    );
                    let prev = st.prev_counters[i];
                    if let (Some(n), Some(d)) = now {
                        st.prev_counters[i] = Some((n, d));
                    }
                    let two_scrape = || match (now, prev) {
                        ((Some(n), Some(d)), Some((pn, pd))) if d - pd > 0.0 => {
                            Some((n - pn).max(0.0) / (d - pd))
                        }
                        _ => None,
                    };
                    match windowed.map(|h| window_increase_ratio(h, num, den, rule.window_ms)) {
                        Some(WindowRatio::Value(v)) => Some(v),
                        // Denominator retained but flat over the window:
                        // abstain, exactly like the two-scrape path.
                        Some(WindowRatio::Abstain) => None,
                        Some(WindowRatio::NoData) | None => two_scrape(),
                    }
                }
            };
            // `None` = the signal abstained: leave the state machine
            // untouched (an abstain is neither a breach nor a clear).
            let breach = match value {
                Some(v) if v.is_finite() => Some(match rule.op {
                    Op::Gt => v > rule.threshold,
                    Op::Lt => v < rule.threshold,
                }),
                _ => None,
            };
            let rs = &mut st.rules[i];
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
            out.push(AlertStatus {
                name: rule.name,
                help: rule.help,
                state: rs.state,
                value: rs.last_value,
                threshold: rule.threshold,
                critical: rule.critical,
                fired_count: rs.fired_count,
            });
        }
        out
    }

    /// Seed the two-scrape `DeltaRatio` baselines from the history
    /// store's last raw cumulative sums. Call this when an engine is
    /// (re)created against a store that already holds history — e.g.
    /// after `ttlg serve --history-file` restores state — so the first
    /// evaluation computes a true small delta instead of abstaining (or,
    /// worse, treating the whole retained history as one giant spike if
    /// a caller pre-filled zeros). Baselines that are already set are
    /// left alone.
    pub fn seed_from_history(&self, history: &TimeSeriesStore) {
        let mut st = self.state.lock().expect("alert state poisoned");
        for (i, rule) in self.rules.iter().enumerate() {
            if let Signal::DeltaRatio { num, den } = rule.signal {
                if st.prev_counters[i].is_none() {
                    if let Some(d) = history.last_raw_sum(den) {
                        let n = history.last_raw_sum(num).unwrap_or(0.0);
                        st.prev_counters[i] = Some((n, d));
                    }
                }
            }
        }
    }

    /// Current status without advancing the state machines.
    pub fn status(&self) -> Vec<AlertStatus> {
        let st = self.state.lock().expect("alert state poisoned");
        self.rules
            .iter()
            .zip(st.rules.iter())
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
        let st = self.state.lock().expect("alert state poisoned");
        self.rules
            .iter()
            .zip(st.rules.iter())
            .any(|(rule, rs)| rule.critical && rs.state == AlertState::Firing)
    }

    /// Append `ttlg_alerts_firing{rule}` (1 firing / 0 otherwise) to a
    /// snapshot — one series per rule so absence is distinguishable
    /// from health.
    pub fn export_into(&self, snap: &mut MetricsSnapshot) {
        let st = self.state.lock().expect("alert state poisoned");
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

/// Outcome of a windowed `DeltaRatio` evaluation.
enum WindowRatio {
    /// Denominator grew over the window; here's the ratio.
    Value(f64),
    /// Denominator retained but flat over the window — abstain.
    Abstain,
    /// No retained counter history for the denominator — fall back to
    /// the two-scrape path.
    NoData,
}

/// Ratio of counter-family increases over the trailing window.
fn window_increase_ratio(
    history: &TimeSeriesStore,
    num: &str,
    den: &str,
    window_ms: u64,
) -> WindowRatio {
    let Some(end) = history.last_ingest_ms() else {
        return WindowRatio::NoData;
    };
    let start = end.saturating_sub(window_ms);
    let Some(d) = window_increase(history, den, start) else {
        return WindowRatio::NoData;
    };
    if d <= 0.0 {
        return WindowRatio::Abstain;
    }
    let n = window_increase(history, num, start).unwrap_or(0.0);
    WindowRatio::Value((n / d).max(0.0))
}

/// Sum of a counter family's increments with timestamps `> start_ms`,
/// across all its series; `None` when nothing is retained in range.
fn window_increase(history: &TimeSeriesStore, name: &str, start_ms: u64) -> Option<f64> {
    let mut sum = 0.0;
    let mut any = false;
    for series in history.scalar_data(name) {
        if series.kind != MetricKind::Counter {
            continue;
        }
        for (t, v) in series.points {
            if t > start_ms && v.is_finite() {
                sum += v;
                any = true;
            }
        }
    }
    any.then_some(sum)
}

/// Aggregate a family's retained samples over the trailing window:
/// `Max` takes the worst sample anywhere in the window; `Sum` sums the
/// per-series time averages (so a saturated gauge isn't multiplied by
/// the scrape count).
fn window_level(history: &TimeSeriesStore, name: &str, agg: Agg, window_ms: u64) -> Option<f64> {
    let end = history.last_ingest_ms()?;
    let start = end.saturating_sub(window_ms);
    let data = history.scalar_data(name);
    match agg {
        Agg::Max => {
            let mut best: Option<f64> = None;
            for series in &data {
                for &(t, v) in &series.points {
                    if t > start && v.is_finite() {
                        best = Some(best.map_or(v, |b| b.max(v)));
                    }
                }
            }
            best
        }
        Agg::Sum => {
            let mut sum = 0.0;
            let mut any = false;
            for series in &data {
                let mut s = 0.0;
                let mut n = 0u64;
                for &(t, v) in &series.points {
                    if t > start && v.is_finite() {
                        s += v;
                        n += 1;
                    }
                }
                if n > 0 {
                    sum += s / n as f64;
                    any = true;
                }
            }
            any.then_some(sum)
        }
    }
}

/// The rules the gateway evaluates on every scrape: model drift, SLO
/// burn, queue saturation, and shed spikes. The burst-shaped
/// `DeltaRatio` rule declares a 30 s window so a spike split across
/// scrapes is still seen when history is available; the level rules
/// stay instantaneous (their inputs — geo-mean error, burn rate — are
/// already windowed by their producers).
pub fn default_rules() -> Vec<AlertRule> {
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
            window_ms: 0,
        },
        AlertRule {
            name: "slo-burn",
            help: "Error-budget burn rate above 2x sustainable in some window: \
                   the latency objective will be missed if this persists.",
            signal: Signal::Level {
                metric: "ttlg_slo_burn_rate",
                agg: Agg::Max,
            },
            op: Op::Gt,
            threshold: 2.0,
            for_evals: 2,
            resolve_evals: 2,
            critical: true,
            window_ms: 0,
        },
        AlertRule {
            name: "queue-saturation",
            help: "Scheduler queue above 90% of capacity: admission is about to \
                   shed.",
            signal: Signal::Ratio {
                num: "ttlg_gateway_queue_depth",
                den: "ttlg_gateway_queue_capacity",
                agg: Agg::Sum,
            },
            op: Op::Gt,
            threshold: 0.9,
            for_evals: 2,
            resolve_evals: 2,
            critical: false,
            window_ms: 0,
        },
        AlertRule {
            name: "shed-spike",
            help: "More than 20% of requests shed since the last evaluation.",
            signal: Signal::DeltaRatio {
                num: "ttlg_gateway_shed_total",
                den: "ttlg_gateway_requests_total",
            },
            op: Op::Gt,
            threshold: 0.2,
            for_evals: 2,
            resolve_evals: 2,
            critical: false,
            window_ms: 30_000,
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
            window_ms: 0,
        }
    }

    #[test]
    fn fires_after_for_evals_and_resolves_after_resolve_evals() {
        let eng = AlertEngine::new(vec![level_rule(2, 2, true)]);
        let hot = snap_with(&[("x", 50.0)]);
        let cool = snap_with(&[("x", 1.0)]);

        assert_eq!(eng.evaluate(&hot)[0].state, AlertState::Pending);
        assert!(!eng.any_critical_firing());
        assert_eq!(eng.evaluate(&hot)[0].state, AlertState::Firing);
        assert!(eng.any_critical_firing());
        // One clear evaluation is not enough to resolve.
        assert_eq!(eng.evaluate(&cool)[0].state, AlertState::Firing);
        assert_eq!(eng.evaluate(&cool)[0].state, AlertState::Inactive);
        assert!(!eng.any_critical_firing());
        assert_eq!(eng.status()[0].fired_count, 1);
    }

    #[test]
    fn pending_resets_on_a_clear_evaluation() {
        let eng = AlertEngine::new(vec![level_rule(3, 1, false)]);
        let hot = snap_with(&[("x", 50.0)]);
        let cool = snap_with(&[("x", 1.0)]);
        assert_eq!(eng.evaluate(&hot)[0].state, AlertState::Pending);
        assert_eq!(eng.evaluate(&cool)[0].state, AlertState::Inactive);
        // The streak starts over.
        assert_eq!(eng.evaluate(&hot)[0].state, AlertState::Pending);
        assert_eq!(eng.evaluate(&hot)[0].state, AlertState::Pending);
        assert_eq!(eng.evaluate(&hot)[0].state, AlertState::Firing);
    }

    #[test]
    fn missing_metric_abstains_and_never_breaches() {
        let eng = AlertEngine::new(vec![level_rule(1, 1, false)]);
        let empty = MetricsSnapshot::new();
        let status = eng.evaluate(&empty);
        assert_eq!(status[0].state, AlertState::Inactive);
        assert_eq!(status[0].value, None);
    }

    #[test]
    fn nan_values_abstain() {
        let eng = AlertEngine::new(vec![level_rule(1, 1, false)]);
        let status = eng.evaluate(&snap_with(&[("x", f64::NAN)]));
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
            window_ms: 0,
        };
        let eng = AlertEngine::new(vec![rule]);
        let s = eng.evaluate(&snap_with(&[("depth", 60.0), ("cap", 64.0)]));
        assert_eq!(s[0].state, AlertState::Firing);
        assert!((s[0].value.unwrap() - 60.0 / 64.0).abs() < 1e-12);
        // Zero capacity abstains instead of dividing by zero.
        let s = eng.evaluate(&snap_with(&[("depth", 60.0), ("cap", 0.0)]));
        assert_eq!(s[0].value, None);
    }

    #[test]
    fn delta_ratio_needs_two_evaluations_and_tracks_increase() {
        let rule = AlertRule {
            name: "shed-spike",
            help: "",
            signal: Signal::DeltaRatio {
                num: "shed",
                den: "reqs",
            },
            op: Op::Gt,
            threshold: 0.2,
            for_evals: 1,
            resolve_evals: 1,
            critical: false,
            window_ms: 0,
        };
        let eng = AlertEngine::new(vec![rule]);
        // First evaluation: no baseline, abstain.
        let s = eng.evaluate(&snap_with(&[("shed", 100.0), ("reqs", 200.0)]));
        assert_eq!(s[0].value, None);
        assert_eq!(s[0].state, AlertState::Inactive);
        // 50 sheds over 100 new requests: 50% > 20%, fires.
        let s = eng.evaluate(&snap_with(&[("shed", 150.0), ("reqs", 300.0)]));
        assert!((s[0].value.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(s[0].state, AlertState::Firing);
        // No new requests: abstain (firing holds until resolve_evals
        // clear evaluations — an abstain is not a clear).
        let s = eng.evaluate(&snap_with(&[("shed", 150.0), ("reqs", 300.0)]));
        assert_eq!(s[0].value, None);
        assert_eq!(s[0].state, AlertState::Firing);
        // Clean window resolves.
        let s = eng.evaluate(&snap_with(&[("shed", 150.0), ("reqs", 400.0)]));
        assert_eq!(s[0].state, AlertState::Inactive);
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
        let eng = AlertEngine::with_default_rules();
        let mut snap = MetricsSnapshot::new();
        eng.export_into(&mut snap);
        let firing = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_alerts_firing")
            .expect("family present");
        assert_eq!(firing.samples.len(), default_rules().len());
        assert!(firing.samples.iter().all(|s| s.value == 0.0));
    }

    #[test]
    fn default_drift_rule_fires_on_skewed_geo_error() {
        let eng = AlertEngine::with_default_rules();
        let skewed = snap_with(&[("ttlg_prediction_geo_mean_error", 4.0)]);
        eng.evaluate(&skewed);
        let status = eng.evaluate(&skewed);
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

    /// Cumulative-counter snapshot (the real exporter shape for the
    /// windowed rules, unlike the gauge-based `snap_with`).
    fn counters(values: &[(&str, f64)]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, v) in values {
            snap.push_metric(name, "", MetricKind::Counter, vec![Sample::plain(*v)]);
        }
        snap
    }

    fn shed_rule(window_ms: u64) -> AlertRule {
        AlertRule {
            name: "shed-spike",
            help: "",
            signal: Signal::DeltaRatio {
                num: "shed",
                den: "reqs",
            },
            op: Op::Gt,
            threshold: 0.2,
            for_evals: 2,
            resolve_evals: 2,
            critical: false,
            window_ms,
        }
    }

    /// The acceptance scenario: a shed burst lands in a scrape where the
    /// request counter is flat, so the two-scrape delta abstains on that
    /// evaluation and sees zero sheds on the next — it never breaches.
    /// The 10 s window sees sheds and requests together and fires.
    #[test]
    fn burst_split_across_scrapes_fires_windowed_rule_but_not_two_scrape_delta() {
        // Cumulative timeline: requests land in scrapes 1 and 3, the
        // entire shed burst in scrape 2.
        let timeline = [
            (1_000u64, 0.0, 60.0),
            (2_000, 20.0, 60.0),
            (3_000, 20.0, 70.0),
        ];

        // Two-scrape path (no window): never breaches.
        let plain = AlertEngine::new(vec![shed_rule(0)]);
        for &(_, shed, reqs) in &timeline {
            let s = plain.evaluate(&counters(&[("shed", shed), ("reqs", reqs)]));
            assert_ne!(s[0].state, AlertState::Pending, "two-scrape path breached");
            assert_ne!(s[0].state, AlertState::Firing, "two-scrape path breached");
        }
        // eval2: Δreqs = 0 → abstain; eval3: Δshed = 0 → ratio 0.
        assert_eq!(plain.status()[0].value, Some(0.0));

        // Windowed path over the same scrapes, fed by the store.
        let store = TimeSeriesStore::default();
        let windowed = AlertEngine::new(vec![shed_rule(10_000)]);
        let mut states = Vec::new();
        for &(t, shed, reqs) in &timeline {
            let snap = counters(&[("shed", shed), ("reqs", reqs)]);
            store.ingest(&snap, t);
            states.push(windowed.evaluate_with_history(&snap, Some(&store))[0].state);
        }
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
        let v = windowed.status()[0].value.unwrap();
        assert!((v - 20.0 / 70.0).abs() < 1e-9, "window ratio was {v}");
    }

    #[test]
    fn windowed_rule_falls_back_to_two_scrape_without_history() {
        let eng = AlertEngine::new(vec![shed_rule(10_000)]);
        // Empty store: no retained data → same semantics as evaluate().
        let store = TimeSeriesStore::default();
        let s =
            eng.evaluate_with_history(&counters(&[("shed", 0.0), ("reqs", 100.0)]), Some(&store));
        assert_eq!(s[0].value, None, "first evaluation abstains");
        let s =
            eng.evaluate_with_history(&counters(&[("shed", 30.0), ("reqs", 200.0)]), Some(&store));
        assert_eq!(
            s[0].value,
            Some(0.3),
            "two-scrape fallback computed the delta"
        );
    }

    #[test]
    fn engine_recreation_seeds_baselines_from_history_and_does_not_spuriously_fire() {
        let store = TimeSeriesStore::default();
        // History already holds a lifetime of traffic (raw sums 40/900).
        store.ingest(&counters(&[("shed", 25.0), ("reqs", 500.0)]), 1_000);
        store.ingest(&counters(&[("shed", 40.0), ("reqs", 900.0)]), 2_000);

        // A recreated engine (e.g. after a gateway restart with
        // --history-file) seeds its baselines from the store...
        let eng = AlertEngine::new(vec![shed_rule(0)]);
        eng.seed_from_history(&store);
        // ...so the very first evaluation computes the true small delta
        // (0 new sheds / 50 new requests) instead of abstaining — and
        // certainly doesn't treat the 40 lifetime sheds as one spike.
        let s = eng.evaluate(&counters(&[("shed", 40.0), ("reqs", 950.0)]));
        assert_eq!(s[0].value, Some(0.0));
        assert_eq!(s[0].state, AlertState::Inactive);

        // Seeding is a no-op on baselines that are already live.
        let s = eng.evaluate(&counters(&[("shed", 41.0), ("reqs", 960.0)]));
        assert_eq!(s[0].value, Some(0.1));
        eng.seed_from_history(&store);
        let s = eng.evaluate(&counters(&[("shed", 41.0), ("reqs", 970.0)]));
        assert_eq!(s[0].value, Some(0.0));
    }

    #[test]
    fn windowed_level_uses_history_max_and_sum_of_averages() {
        let store = TimeSeriesStore::default();
        for (i, v) in [1.0f64, 8.0, 2.0].iter().enumerate() {
            let mut snap = MetricsSnapshot::new();
            snap.push_metric("burn", "", MetricKind::Gauge, vec![Sample::plain(*v)]);
            store.ingest(&snap, (i as u64 + 1) * 1_000);
        }
        assert_eq!(window_level(&store, "burn", Agg::Max, 10_000), Some(8.0));
        // One series: sum-of-averages is just the average.
        let avg = window_level(&store, "burn", Agg::Sum, 10_000).unwrap();
        assert!((avg - 11.0 / 3.0).abs() < 1e-9);
        // A 1 ms window behind the last ingest sees nothing.
        assert_eq!(window_level(&store, "missing", Agg::Max, 10_000), None);

        // A windowed Level rule picks the in-window max even when the
        // instantaneous snapshot has cooled off.
        let rule = AlertRule {
            name: "hot",
            help: "",
            signal: Signal::Level {
                metric: "burn",
                agg: Agg::Max,
            },
            op: Op::Gt,
            threshold: 5.0,
            for_evals: 1,
            resolve_evals: 1,
            critical: false,
            window_ms: 10_000,
        };
        let eng = AlertEngine::new(vec![rule]);
        let cooled = snap_with(&[("burn", 2.0)]);
        let s = eng.evaluate_with_history(&cooled, Some(&store));
        assert_eq!(s[0].value, Some(8.0));
        assert_eq!(s[0].state, AlertState::Firing);
        // Without history the same rule sees only the instant.
        let eng2 = AlertEngine::new(vec![rule]);
        let s = eng2.evaluate(&cooled);
        assert_eq!(s[0].value, Some(2.0));
        assert_eq!(s[0].state, AlertState::Inactive);
    }
}
