//! Latency-objective (SLO) tracking: the one miss decision and the
//! lifetime counters behind it.
//!
//! A request misses the objective when its service total plus the time
//! the network edge spent on it (its envelope's network time) exceeds
//! `target_us`. [`SloTracker::record`] makes that decision once per
//! request; the service feeds the same answer to the counters here
//! and to the trace store's tail forcing, so `ttlg_slo_violations_total`
//! and `ttlg_trace_store_sampled_total{reason="slo_miss"}` agree.
//!
//! The tracker keeps lifetime counters only. How fast the error budget
//! burns *now* is a question about a window, and the metrics history
//! answers it: the `slo-burn` alert rule (see [`crate::alerts`]) reads
//! `increase(ttlg_slo_violations_total) / increase(ttlg_slo_requests_total)`
//! over the store's trailing window, the same numbers a
//! `/v1/query_range` call returns. Recording is a fetch-add or two.

use crate::snapshot::{MetricKind, MetricsSnapshot, Sample};
use crate::tracestore::Envelope;
use crate::RequestTrace;
use std::sync::atomic::{AtomicU64, Ordering};

/// Objective definition. `Copy` so it can ride inside the runtime's
/// `Copy` config.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Per-request latency objective in microseconds (service total =
    /// queue-wait + plan-fetch + execute, plus the edge's network time
    /// when a gateway received the request).
    pub target_us: f64,
    /// Objective hit-rate goal, e.g. `0.99` for "99% of requests under
    /// target". The `slo-burn` rule breaches when the windowed miss
    /// fraction exceeds `2 × (1 − goal)`.
    pub goal: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target_us: 2_000.0,
            goal: 0.99,
        }
    }
}

/// Lock-free SLO tracker. See the module docs.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    total: AtomicU64,
    violations: AtomicU64,
}

/// Point-in-time SLO state.
#[derive(Debug, Clone, Copy)]
pub struct SloSnapshot {
    pub target_us: f64,
    pub goal: f64,
    /// Requests observed over the tracker's lifetime.
    pub total: u64,
    /// Lifetime objective violations.
    pub violations: u64,
    /// Lifetime hit ratio; `1.0` when no requests have been observed
    /// (an empty service has violated nothing).
    pub hit_ratio: f64,
}

impl SloTracker {
    pub fn new(cfg: SloConfig) -> SloTracker {
        SloTracker {
            cfg,
            total: AtomicU64::new(0),
            violations: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Record one finished request and return whether it missed the
    /// objective: its service total plus the envelope's network time
    /// exceeds the target.
    pub fn record(&self, trace: &RequestTrace, envelope: Option<&Envelope>) -> bool {
        let total_ns = trace.total_ns() + envelope.map_or(0, |e| e.network_ns);
        let missed = total_ns as f64 > self.cfg.target_us * 1e3;
        self.total.fetch_add(1, Ordering::Relaxed);
        if missed {
            // Release pairs with the Acquire load in `snapshot`: a
            // snapshot that sees this miss also sees its request.
            self.violations.fetch_add(1, Ordering::Release);
        }
        missed
    }

    /// Both counters only grow, so successive snapshots never report
    /// fewer violations (a counter that went down would read as a
    /// process restart to the history store), and `violations <= total`.
    pub fn snapshot(&self) -> SloSnapshot {
        let violations = self.violations.load(Ordering::Acquire);
        let total = self.total.load(Ordering::Relaxed);
        SloSnapshot {
            target_us: self.cfg.target_us,
            goal: self.cfg.goal,
            total,
            violations,
            hit_ratio: if total == 0 {
                1.0
            } else {
                (total - violations) as f64 / total as f64
            },
        }
    }

    /// Export SLO state as `ttlg_slo_*` metrics.
    pub fn export_into(&self, snap: &mut MetricsSnapshot) {
        let s = self.snapshot();
        snap.push_metric(
            "ttlg_slo_target_us",
            "Per-request latency objective in microseconds",
            MetricKind::Gauge,
            vec![Sample::plain(s.target_us)],
        );
        snap.push_metric(
            "ttlg_slo_goal",
            "Objective hit-rate goal",
            MetricKind::Gauge,
            vec![Sample::plain(s.goal)],
        );
        snap.push_metric(
            "ttlg_slo_requests_total",
            "Requests observed by the SLO tracker",
            MetricKind::Counter,
            vec![Sample::plain(s.total as f64)],
        );
        snap.push_metric(
            "ttlg_slo_violations_total",
            "Requests that missed the latency objective",
            MetricKind::Counter,
            vec![Sample::plain(s.violations as f64)],
        );
        snap.push_metric(
            "ttlg_slo_hit_ratio",
            "Lifetime fraction of requests meeting the objective (1.0 when empty)",
            MetricKind::Gauge,
            vec![Sample::plain(s.hit_ratio)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::{default_rules, AlertEngine, AlertState};
    use crate::query::eval_range;
    use crate::tsdb::TimeSeriesStore;

    fn tracker(target_us: f64) -> SloTracker {
        SloTracker::new(SloConfig {
            target_us,
            goal: 0.9,
        })
    }

    /// A service trace of `total_ns`.
    fn took(total_ns: u64) -> RequestTrace {
        RequestTrace {
            execute_ns: total_ns,
            ..Default::default()
        }
    }

    /// `sum(increase(name))` over `(end - window, end]`, as a one-step
    /// range query.
    fn increase(store: &TimeSeriesStore, name: &str, end: u64, window: u64) -> f64 {
        let r = eval_range(
            store,
            &format!("sum(increase({name}))"),
            end,
            window,
            window,
        )
        .unwrap();
        r.series[0].points.last().map_or(0.0, |&(_, v)| v)
    }

    #[test]
    fn empty_tracker_is_healthy() {
        let t = tracker(100.0);
        let s = t.snapshot();
        assert_eq!(s.total, 0);
        assert_eq!(s.violations, 0);
        assert_eq!(s.hit_ratio, 1.0);
    }

    /// Lifetime hit ratio from the counters; the burn rate is the
    /// windowed miss fraction the history store holds for them, over
    /// the error budget.
    #[test]
    fn hit_ratio_and_burn_rate() {
        let t = tracker(100.0); // 100 us objective
        for _ in 0..8 {
            assert!(!t.record(&took(50_000), None)); // 50 us: within
        }
        for _ in 0..2 {
            assert!(t.record(&took(500_000), None)); // 500 us: violation
        }
        let s = t.snapshot();
        assert_eq!(s.total, 10);
        assert_eq!(s.violations, 2);
        assert!((s.hit_ratio - 0.8).abs() < 1e-12);
        let store = TimeSeriesStore::default();
        let mut snap = MetricsSnapshot::new();
        t.export_into(&mut snap);
        store.ingest(&snap, 1_000);
        let missed = increase(&store, "ttlg_slo_violations_total", 1_000, 10_000)
            / increase(&store, "ttlg_slo_requests_total", 1_000, 10_000);
        // 20% violations against a 10% budget: burn rate 2.0.
        let burn = missed / (1.0 - s.goal);
        assert!((burn - 2.0).abs() < 1e-9, "{burn}");
    }

    /// The miss decision counts the edge's network time.
    #[test]
    fn edge_time_counts_toward_a_miss() {
        let t = tracker(100.0);
        let edge = |network_ns| Envelope {
            ctx: crate::TraceContext::generate(),
            request_id: "r".into(),
            tenant: "t".into(),
            priority: crate::Priority::Interactive,
            network_ns,
            shed: None,
        };
        assert!(!t.record(&took(60_000), Some(&edge(40_000))));
        assert!(t.record(&took(60_000), Some(&edge(40_001))));
        assert_eq!(t.snapshot().violations, 1);
    }

    /// Lifetime counters keep old violations; the `slo-burn` rule reads
    /// the store's window, so violations older than it do not breach.
    #[test]
    fn violations_older_than_the_window_do_not_breach_slo_burn() {
        let t = tracker(100.0);
        let store = TimeSeriesStore::default();
        let engine = AlertEngine::new(default_rules(t.config()));
        let scrape = |now_ms: u64| {
            let mut snap = MetricsSnapshot::new();
            t.export_into(&mut snap);
            store.ingest(&snap, now_ms);
            let status = engine.evaluate(&snap, &store);
            status.into_iter().find(|s| s.name == "slo-burn").unwrap()
        };
        t.record(&took(500_000), None);
        t.record(&took(500_000), None);
        assert_eq!(scrape(1_000).state, AlertState::Pending);
        // Clean traffic much later: the window holds only it.
        t.record(&took(50_000), None);
        let burn = scrape(100_000);
        assert_eq!(burn.value, Some(0.0));
        assert_eq!(
            burn.state,
            AlertState::Inactive,
            "old violations still burning"
        );
        let s = t.snapshot();
        assert_eq!(s.violations, 2);
        assert!(s.hit_ratio < 1.0);
    }

    #[test]
    fn concurrent_records_count_exactly() {
        use std::sync::Arc;
        let t = Arc::new(tracker(1.0)); // everything violates
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.record(&took(2_000_000), None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.total, 4000);
        assert_eq!(s.violations, 4000);
        assert_eq!(s.hit_ratio, 0.0);
    }

    /// Snapshots taken while several threads record never see the
    /// violation counter go down, nor more violations than requests.
    #[test]
    fn violations_never_decrease_between_concurrent_snapshots() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let t = Arc::new(tracker(100.0));
        let done = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        // Alternate a miss (500 us) and a hit (50 us).
                        t.record(&took(if i % 2 == 0 { 500_000 } else { 50_000 }), None);
                    }
                })
            })
            .collect();
        let watcher = {
            let (t, done) = (Arc::clone(&t), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut last = 0;
                let mut snapshots = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let s = t.snapshot();
                    assert!(s.violations >= last, "{} after {last}", s.violations);
                    assert!(s.violations <= s.total, "{s:?}");
                    last = s.violations;
                    snapshots += 1;
                }
                snapshots
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(watcher.join().unwrap() > 0);
        let s = t.snapshot();
        assert_eq!((s.total, s.violations), (60_000, 30_000));
        assert!((s.hit_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn export_emits_slo_family() {
        let t = tracker(100.0);
        t.record(&took(500_000), None);
        let mut snap = MetricsSnapshot::new();
        t.export_into(&mut snap);
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ttlg_slo_target_us",
                "ttlg_slo_goal",
                "ttlg_slo_requests_total",
                "ttlg_slo_violations_total",
                "ttlg_slo_hit_ratio",
            ]
        );
    }
}
