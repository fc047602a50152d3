//! Hierarchical phase profiles of the trace store's recent records.
//!
//! The service decomposes every request into queue-wait / plan-fetch /
//! execute and records the result as a [`RequestTrace`] in the
//! [`crate::TraceStore`]. Each of the store's `(schema, shape-class)`
//! buckets keeps a **phase profile** of its key's records in the recent
//! window ([`crate::TraceStore::profiles`]):
//!
//! * a *shape class* ([`ShapeClass`]) collapses concrete extents into
//!   `r<rank>v<log2 volume>` so the label set stays bounded while still
//!   separating "rank-4, ~4k elements" from "rank-3, ~64k elements";
//! * per key, the profile keeps phase-time totals **and** per
//!   log2-total-latency-bucket phase accumulators, so it can answer not
//!   just "where does the *mean* go" but "which phase dominates at p99"
//!   ([`PhaseProfile::shares_at`]) — the question a tail-latency study
//!   actually asks.
//!
//! A record's phases are added when it enters the window and taken out
//! when it leaves, so reading the profiles folds nothing.

use crate::quantile::{log2_bucket, log2_bucket_quantile_us};
use crate::snapshot::{MetricKind, MetricsSnapshot, Sample};
use crate::RequestTrace;
use std::fmt::Write as _;
use std::ops::{Add, Sub};

/// Number of log2 total-latency buckets a profile keeps per key.
/// Bucket 0 = `[0, 2)` µs, bucket `i` = `[2^i, 2^{i+1})` µs, the last
/// bucket is the overflow — the same scheme as the runtime histograms
/// ([`log2_bucket`]), so quantiles agree across surfaces.
pub const PROFILE_BUCKETS: usize = 20;

/// The phase names, in trace order.
pub const PHASES: [&str; 3] = ["queue-wait", "plan-fetch", "execute"];

/// A bounded-cardinality shape class: the rank and `floor(log2 volume)`
/// of a request's extents. Displays as `r<rank>v<log2 volume>`, e.g.
/// `[6, 5, 4, 3]` (360 elements) is `r4v8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Number of extents.
    pub rank: u32,
    /// `floor(log2(product of extents))`, 0 for a volume of 0 or 1.
    pub log2_volume: u32,
}

impl ShapeClass {
    /// The class of `extents`.
    pub fn of(extents: &[usize]) -> ShapeClass {
        let volume = extents
            .iter()
            .fold(1u128, |acc, &e| acc.saturating_mul(e as u128));
        ShapeClass {
            rank: extents.len() as u32,
            log2_volume: 127 - volume.max(1).leading_zeros(),
        }
    }
}

impl std::fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}v{}", self.rank, self.log2_volume)
    }
}

/// Per-phase shares of total time, each in `[0, 1]` (all zero when
/// there is no data).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseShares {
    pub queue_wait: f64,
    pub plan_fetch: f64,
    pub execute: f64,
}

impl PhaseShares {
    fn from_ns(queue: u64, plan: u64, exec: u64) -> PhaseShares {
        let total = (queue + plan + exec) as f64;
        if total <= 0.0 {
            return PhaseShares::default();
        }
        PhaseShares {
            queue_wait: queue as f64 / total,
            plan_fetch: plan as f64 / total,
            execute: exec as f64 / total,
        }
    }

    /// Name of the phase with the largest share (`execute` wins ties,
    /// matching the intuition that compute is the default suspect).
    pub fn dominant(&self) -> &'static str {
        if self.queue_wait > self.execute && self.queue_wait >= self.plan_fetch {
            PHASES[0]
        } else if self.plan_fetch > self.execute && self.plan_fetch > self.queue_wait {
            PHASES[1]
        } else {
            PHASES[2]
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BucketAccum {
    count: u64,
    queue_ns: u64,
    plan_ns: u64,
    exec_ns: u64,
}

/// Aggregated phase timings for one `(schema, shape-class)` key.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    pub schema: String,
    pub shape_class: String,
    /// Requests of this key in the recent window.
    pub requests: u64,
    /// Requests that ran on an autotuner-warmed (measured) plan.
    pub warmed_requests: u64,
    pub queue_wait_ns: u64,
    pub plan_fetch_ns: u64,
    pub execute_ns: u64,
    buckets: [BucketAccum; PROFILE_BUCKETS],
}

impl PhaseProfile {
    /// An empty profile under the given labels.
    pub(crate) fn new(schema: String, shape_class: String) -> PhaseProfile {
        PhaseProfile {
            schema,
            shape_class,
            requests: 0,
            warmed_requests: 0,
            queue_wait_ns: 0,
            plan_fetch_ns: 0,
            execute_ns: 0,
            buckets: Default::default(),
        }
    }

    /// Fold one request in.
    pub(crate) fn observe(&mut self, t: &RequestTrace) {
        self.apply(t, u64::add);
    }

    /// Take back a request [`Self::observe`] folded in.
    pub(crate) fn forget(&mut self, t: &RequestTrace) {
        self.apply(t, u64::sub);
    }

    fn apply(&mut self, t: &RequestTrace, op: fn(u64, u64) -> u64) {
        self.requests = op(self.requests, 1);
        self.warmed_requests = op(self.warmed_requests, t.warmed as u64);
        self.queue_wait_ns = op(self.queue_wait_ns, t.queue_wait_ns);
        self.plan_fetch_ns = op(self.plan_fetch_ns, t.plan_fetch_ns);
        self.execute_ns = op(self.execute_ns, t.execute_ns);
        let acc = &mut self.buckets[log2_bucket(t.total_ns(), PROFILE_BUCKETS)];
        acc.count = op(acc.count, 1);
        acc.queue_ns = op(acc.queue_ns, t.queue_wait_ns);
        acc.plan_ns = op(acc.plan_ns, t.plan_fetch_ns);
        acc.exec_ns = op(acc.exec_ns, t.execute_ns);
    }

    /// Total attributed time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns + self.plan_fetch_ns + self.execute_ns
    }

    /// Overall phase shares (across all requests).
    pub fn shares(&self) -> PhaseShares {
        PhaseShares::from_ns(self.queue_wait_ns, self.plan_fetch_ns, self.execute_ns)
    }

    /// Estimated total-latency quantile in µs (NaN when empty, per the
    /// [`log2_bucket_quantile_us`] contract).
    pub fn quantile_us(&self, q: f64) -> f64 {
        log2_bucket_quantile_us(&self.buckets.map(|b| b.count), q)
    }

    /// Phase shares *within the bucket covering quantile `q`* — i.e.
    /// which phase dominates requests around (say) p99, not on average.
    /// `None` when the profile is empty.
    pub fn shares_at(&self, q: f64) -> Option<PhaseShares> {
        let total: u64 = self.buckets.iter().map(|b| b.count).sum();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for acc in &self.buckets {
            if acc.count == 0 {
                continue;
            }
            cum += acc.count;
            if (cum as f64) >= rank {
                return Some(PhaseShares::from_ns(acc.queue_ns, acc.plan_ns, acc.exec_ns));
            }
        }
        let last = self.buckets.iter().rev().find(|b| b.count > 0)?;
        Some(PhaseShares::from_ns(
            last.queue_ns,
            last.plan_ns,
            last.exec_ns,
        ))
    }
}

/// Render profiles as a flame-style text tree: one node per
/// `(schema, shape-class)` key sized by total attributed time, with
/// phase children sized by their share.
pub fn render_flame(profiles: &[PhaseProfile]) -> String {
    let mut out = String::new();
    let grand_total: u64 = profiles.iter().map(|p| p.total_ns()).sum();
    let _ = writeln!(
        out,
        "phase profile ({} keys, {:.1} ms attributed)",
        profiles.len(),
        grand_total as f64 / 1e6
    );
    for (i, p) in profiles.iter().enumerate() {
        let last = i + 1 == profiles.len();
        let branch = if last { "└─" } else { "├─" };
        let stem = if last { "  " } else { "│ " };
        let pct = if grand_total > 0 {
            100.0 * p.total_ns() as f64 / grand_total as f64
        } else {
            0.0
        };
        let p99 = p.quantile_us(0.99);
        let p99s = if p99.is_nan() {
            "-".to_string()
        } else {
            format!("{p99:.0}us")
        };
        let _ = writeln!(
            out,
            "{branch} {}/{} {} {:5.1}%  n={} warmed={} p99~{}",
            p.schema,
            p.shape_class,
            bar(pct),
            pct,
            p.requests,
            p.warmed_requests,
            p99s
        );
        let shares = p.shares();
        let tail = p.shares_at(0.99).unwrap_or_default();
        let rows = [
            (PHASES[0], shares.queue_wait, tail.queue_wait),
            (PHASES[1], shares.plan_fetch, tail.plan_fetch),
            (PHASES[2], shares.execute, tail.execute),
        ];
        for (j, (name, mean, at_tail)) in rows.iter().enumerate() {
            let leaf = if j + 1 == rows.len() {
                "└─"
            } else {
                "├─"
            };
            let _ = writeln!(
                out,
                "{stem} {leaf} {:<10} {} {:5.1}%  (p99 bucket {:5.1}%)",
                name,
                bar(mean * 100.0),
                mean * 100.0,
                at_tail * 100.0
            );
        }
    }
    out
}

fn bar(pct: f64) -> String {
    let filled = ((pct / 10.0).round() as usize).min(10);
    let mut s = String::with_capacity(10);
    for i in 0..10 {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Export profiles into a [`MetricsSnapshot`] (the trace store's bucket
/// cap, [`crate::tracestore::MAX_BUCKETS`], bounds their cardinality).
pub fn export_into(snap: &mut MetricsSnapshot, profiles: &[PhaseProfile]) {
    let mut requests = Vec::new();
    let mut phase_ns = Vec::new();
    let mut p99 = Vec::new();
    for p in profiles {
        let key_labels = vec![
            ("schema".to_string(), p.schema.clone()),
            ("shape_class".to_string(), p.shape_class.clone()),
        ];
        requests.push(Sample {
            labels: key_labels.clone(),
            value: p.requests as f64,
        });
        for (phase, ns) in [
            (PHASES[0], p.queue_wait_ns),
            (PHASES[1], p.plan_fetch_ns),
            (PHASES[2], p.execute_ns),
        ] {
            let mut labels = key_labels.clone();
            labels.push(("phase".to_string(), phase.to_string()));
            phase_ns.push(Sample {
                labels,
                value: ns as f64,
            });
        }
        p99.push(Sample {
            labels: key_labels,
            value: p.quantile_us(0.99),
        });
    }
    snap.push_metric(
        "ttlg_profile_requests",
        "Requests aggregated per (schema, shape_class) profile key",
        MetricKind::Gauge,
        requests,
    );
    snap.push_metric(
        "ttlg_profile_phase_ns",
        "Attributed time per profile key and phase, in nanoseconds",
        MetricKind::Gauge,
        phase_ns,
    );
    snap.push_metric(
        "ttlg_profile_p99_us",
        "Estimated p99 total latency per profile key, in microseconds (NaN when empty)",
        MetricKind::Gauge,
        p99,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(queue: u64, plan: u64, exec: u64) -> RequestTrace {
        RequestTrace {
            schema: "Naive",
            ok: true,
            queue_wait_ns: queue,
            plan_fetch_ns: plan,
            execute_ns: exec,
            ..Default::default()
        }
    }

    /// A `Naive/r3v12` profile of `traces`.
    fn profile(traces: &[RequestTrace]) -> PhaseProfile {
        let mut p = PhaseProfile::new("Naive".into(), "r3v12".into());
        for t in traces {
            p.observe(t);
        }
        p
    }

    #[test]
    fn shape_class_is_rank_and_log2_volume() {
        let class = |extents: &[usize]| ShapeClass::of(extents).to_string();
        assert_eq!(class(&[6, 5, 4, 3]), "r4v8"); // 360 elements
        assert_eq!(class(&[16, 16, 16]), "r3v12"); // 4096 elements
        assert_eq!(class(&[1]), "r1v0");
        assert_eq!(class(&[]), "r0v0");
        assert_eq!(
            ShapeClass::of(&[16, 16, 16]),
            ShapeClass {
                rank: 3,
                log2_volume: 12
            }
        );
    }

    #[test]
    fn forget_takes_back_what_observe_folded_in() {
        let slow = RequestTrace {
            warmed: true,
            ..trace(40_000_000, 1_000, 50_000)
        };
        let mut p = profile(&[trace(10, 20, 70)]);
        let before = p.clone();
        p.observe(&slow);
        assert_eq!((p.requests, p.warmed_requests), (2, 1));
        p.forget(&slow);
        assert_eq!(p, before);
    }

    #[test]
    fn tail_attribution_differs_from_mean() {
        // 99 fast execute-dominated requests plus one slow queue-wait
        // dominated outlier: the mean says "execute", the p99 bucket
        // says "queue-wait".
        let mut traces: Vec<RequestTrace> = (0..99).map(|_| trace(1_000, 1_000, 50_000)).collect();
        traces.push(trace(40_000_000, 1_000, 50_000));
        let p = profile(&traces);
        assert_eq!(p.shares().dominant(), "queue-wait"); // outlier dominates the sum
        let tail = p.shares_at(0.999).unwrap();
        assert_eq!(tail.dominant(), "queue-wait");
        let body = p.shares_at(0.5).unwrap();
        assert_eq!(body.dominant(), "execute");
        assert!(p.quantile_us(0.99) > p.quantile_us(0.5));
    }

    #[test]
    fn empty_profile_has_nan_quantile_and_no_tail_shares() {
        let p = profile(&[]);
        assert!(p.quantile_us(0.99).is_nan());
        assert!(p.shares_at(0.99).is_none());
        assert_eq!(p.shares(), PhaseShares::default());
    }

    #[test]
    fn flame_tree_renders_keys_and_phases() {
        let tree = render_flame(&[profile(&[trace(10, 20, 70)])]);
        assert!(tree.contains("Naive/r3v12"), "{tree}");
        for phase in PHASES {
            assert!(tree.contains(phase), "{tree}");
        }
    }

    #[test]
    fn export_emits_bounded_label_sets() {
        let mut snap = MetricsSnapshot::default();
        export_into(&mut snap, &[profile(&[trace(10, 20, 70)])]);
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"ttlg_profile_requests"));
        assert!(names.contains(&"ttlg_profile_phase_ns"));
        assert!(names.contains(&"ttlg_profile_p99_us"));
        let phase = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_profile_phase_ns")
            .unwrap();
        assert_eq!(phase.samples.len(), 3);
        assert!(phase.samples.iter().all(|s| s.labels.len() == 3));
    }
}
