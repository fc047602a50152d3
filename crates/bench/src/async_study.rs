//! Async-submission coalescing study (`BENCH_async.json`).
//!
//! Drives the service's non-blocking [`submit_async`] path with a
//! **duplicate-heavy closed-loop workload at an overload factor** of
//! [`OVERLOAD`]: `ceil(workers * overload)` client threads hammer a small set of
//! identical problems, far more concurrency than the executor's worker
//! pool can drain. The study runs the same workload twice: once
//! with every request on its own copy of the input, so no two requests
//! share a coalescing key and each executes its own kernel, and once on
//! shared inputs, so identical in-flight problems single-flight onto
//! one execution. It reports what coalescing buys: throughput,
//! executions-per-request, the coalesced ratio, and the interactive
//! (client-observed) p50/p95/p99 both ways.
//!
//! [`submit_async`]: ttlg_runtime::TransposeService::submit_async

use crate::study::{gate, p50_p95_p99, Gates, JsonObject, Study};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttlg::Transposer;
use ttlg_runtime::{RuntimeConfig, TransposeRequest, TransposeService};
use ttlg_tensor::{DenseTensor, Permutation, Shape};

/// Executor worker threads for both phases (small on purpose: the
/// overload factor is defined relative to this pool).
const WORKERS: usize = 2;

/// Unique problems in the duplicate-heavy mix. Fewer unique problems
/// than client threads guarantees concurrent duplicates.
const UNIQUE_PROBLEMS: usize = 2;

/// One phase of the study (private or shared inputs).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseOutcome {
    /// Whether requests shared their inputs, and so could coalesce.
    pub coalesce: bool,
    /// Requests submitted (and completed — the loop is closed).
    pub requests: u64,
    /// Kernels actually executed.
    pub executed: u64,
    /// Requests that shared another request's execution.
    pub coalesced: u64,
    /// Submissions rejected at a full queue (0 for closed-loop clients).
    pub rejected: u64,
    /// Wall-clock of the drive loop, seconds.
    pub wall_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// `executed / requests` — 1.0 means no sharing.
    pub executions_per_request: f64,
    /// `coalesced / requests`.
    pub coalesced_ratio: f64,
    /// Client-observed latency quantiles, us.
    pub p50_us: f64,
    /// 95th percentile, us.
    pub p95_us: f64,
    /// 99th percentile, us.
    pub p99_us: f64,
}

/// The full study result.
#[derive(Debug, Clone)]
pub struct AsyncStudy {
    /// Executor worker threads per phase.
    pub workers: usize,
    /// Closed-loop client threads per phase.
    pub clients: usize,
    /// Unique problems in the duplicate-heavy mix.
    pub unique_problems: usize,
    /// Every request on its own input copy: nothing coalesces.
    pub baseline: PhaseOutcome,
    /// Shared inputs: identical in-flight requests coalesce.
    pub coalesced: PhaseOutcome,
    /// Fractional cut in executions-per-request from coalescing
    /// (`1 - coalesced.epr / baseline.epr`; 0.5 = half the kernels).
    pub execution_cut: f64,
    /// `coalesced.p99 / baseline.p99` — <= 1 means the tail improved.
    pub p99_ratio: f64,
}

/// Run one phase: a fresh service, `clients` closed-loop threads
/// cycling through the duplicate-heavy problem list for `seconds` of
/// wall clock. Without `coalesce`, each request carries its own copy of
/// the input.
fn run_phase(seconds: f64, clients: usize, coalesce: bool) -> PhaseOutcome {
    let cfg = RuntimeConfig {
        workers: WORKERS,
        queue_capacity: 4096,
        ..RuntimeConfig::default()
    };
    let svc: Arc<TransposeService<f64>> =
        Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));

    // The duplicate-heavy mix: every client cycles the same problems.
    // On the shared input tensors, concurrent iterations collide on
    // identical in-flight keys.
    let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[32, 16, 8]).unwrap()));
    let perms = [[2usize, 0, 1], [1, 2, 0], [2, 1, 0], [0, 2, 1]];
    let problems: Vec<TransposeRequest<f64>> = perms
        .iter()
        .take(UNIQUE_PROBLEMS)
        .map(|p| TransposeRequest::new(Arc::clone(&input), Permutation::new(p).unwrap()))
        .collect();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let problems = &problems;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let mut req = problems[i % problems.len()].clone();
                        if !coalesce {
                            req.input = Arc::new((*req.input).clone());
                        }
                        let sent = Instant::now();
                        let ticket = svc.submit_async(req);
                        let out = ticket.wait();
                        assert!(out.result.is_ok(), "async study request failed");
                        lat.push(sent.elapsed().as_secs_f64() * 1e6);
                        i += 1;
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let stats = svc.pipeline_stats();
    let mut all: Vec<f64> = latencies.into_iter().flatten().collect();
    let requests = stats.submitted;
    let (p50_us, p95_us, p99_us) = p50_p95_p99(&mut all);
    PhaseOutcome {
        coalesce,
        requests,
        executed: stats.executed,
        coalesced: stats.coalesced,
        rejected: stats.rejected,
        wall_s,
        throughput_rps: requests as f64 / wall_s.max(1e-9),
        executions_per_request: stats.executed as f64 / requests.max(1) as f64,
        coalesced_ratio: stats.coalesced as f64 / requests.max(1) as f64,
        p50_us,
        p95_us,
        p99_us,
    }
}

/// Offered concurrency as a multiple of the executor's workers.
pub const OVERLOAD: f64 = 2.0;

/// Run the study: `seconds` of drive time per phase at [`OVERLOAD`]
/// times the executor's worker count.
pub fn run(seconds: f64) -> AsyncStudy {
    let clients = ((WORKERS as f64 * OVERLOAD).ceil() as usize).max(WORKERS + 1);
    let baseline = run_phase(seconds, clients, false);
    let coalesced = run_phase(seconds, clients, true);
    AsyncStudy {
        workers: WORKERS,
        clients,
        unique_problems: UNIQUE_PROBLEMS,
        execution_cut: 1.0
            - coalesced.executions_per_request / baseline.executions_per_request.max(1e-9),
        p99_ratio: coalesced.p99_us / baseline.p99_us.max(1e-9),
        baseline,
        coalesced,
    }
}

impl Study for AsyncStudy {
    fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "== async submission coalescing study ==").unwrap();
        writeln!(
            s,
            "{} clients over {} workers ({}x overload), {} unique problems",
            self.clients, self.workers, OVERLOAD, self.unique_problems
        )
        .unwrap();
        for ph in [&self.baseline, &self.coalesced] {
            writeln!(
                s,
                "coalesce={:<5} requests {:>7}  executed {:>7}  coalesced {:>7} ({:>5.1}%)  \
                 {:>8.0} req/s  p50 {:>8.0} us  p95 {:>8.0} us  p99 {:>8.0} us",
                ph.coalesce,
                ph.requests,
                ph.executed,
                ph.coalesced,
                ph.coalesced_ratio * 100.0,
                ph.throughput_rps,
                ph.p50_us,
                ph.p95_us,
                ph.p99_us
            )
            .unwrap();
        }
        writeln!(
            s,
            "executions per request {:.3} -> {:.3} ({:.1}% fewer kernels)  p99 ratio {:.2}",
            self.baseline.executions_per_request,
            self.coalesced.executions_per_request,
            self.execution_cut * 100.0,
            self.p99_ratio
        )
        .unwrap();
        s
    }

    fn to_json(&self) -> String {
        let phase = |ph: &PhaseOutcome| {
            JsonObject::default()
                .val("coalesce", ph.coalesce)
                .val("requests", ph.requests)
                .val("executed", ph.executed)
                .val("coalesced", ph.coalesced)
                .val("rejected", ph.rejected)
                .num("wall_s", ph.wall_s)
                .num("throughput_rps", ph.throughput_rps)
                .num("executions_per_request", ph.executions_per_request)
                .num("coalesced_ratio", ph.coalesced_ratio)
                .num("p50_us", ph.p50_us)
                .num("p95_us", ph.p95_us)
                .num("p99_us", ph.p99_us)
        };
        JsonObject::study("async")
            .num("overload", OVERLOAD)
            .val("workers", self.workers)
            .val("clients", self.clients)
            .val("unique_problems", self.unique_problems)
            .obj("baseline", phase(&self.baseline))
            .obj("coalesced", phase(&self.coalesced))
            .num("execution_cut", self.execution_cut)
            .num("p99_ratio", self.p99_ratio)
            .document()
    }

    /// Accounting gates on both phases, then the coalescing gate: the
    /// duplicate-heavy phase coalesces more than 20% of requests and
    /// cuts executions per request by at least 30% without raising the
    /// interactive p99 more than 10%.
    fn check(&self) -> Result<(), String> {
        let (base, coal) = (&self.baseline, &self.coalesced);
        let mut g = Gates::default();
        for ph in [base, coal] {
            let name = if ph.coalesce { "coalesced" } else { "baseline" };
            gate!(g, ph.requests > 0, "{name}");
            gate!(g, ph.rejected == 0, "{name}");
            gate!(g, ph.executed + ph.coalesced == ph.requests, "{name}");
            gate!(g, ph.executed <= ph.requests, "{name}");
            gate!(
                g,
                ph.p50_us <= ph.p95_us && ph.p95_us <= ph.p99_us,
                "{name}"
            );
            gate!(g, ph.throughput_rps > 0.0, "{name}");
        }
        gate!(g, base.coalesced == 0);
        gate!(g, base.executions_per_request == 1.0);
        gate!(g, coal.coalesced_ratio > 0.2, "{:.3}", coal.coalesced_ratio);
        gate!(g, self.execution_cut >= 0.3, "{:.3}", self.execution_cut);
        gate!(
            g,
            coal.p99_us <= base.p99_us * 1.10,
            "{:.2}x",
            self.p99_ratio
        );
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(p50_p95_p99(&mut v), (3.0, 5.0, 5.0));
        assert_eq!(
            v,
            [1.0, 2.0, 3.0, 4.0, 5.0],
            "the samples are sorted in place"
        );
        assert!(p50_p95_p99(&mut []).0.is_nan());
    }

    #[test]
    fn duplicate_heavy_overload_coalesces_and_accounts() {
        // A fraction of a second per phase is enough: thousands of
        // closed-loop round trips on the simulator.
        let study = run(0.25);
        for ph in [&study.baseline, &study.coalesced] {
            assert!(ph.requests > 0);
            assert_eq!(ph.rejected, 0, "closed-loop clients never overflow");
            assert_eq!(
                ph.executed + ph.coalesced,
                ph.requests,
                "every request either executed or coalesced"
            );
            assert!(ph.p50_us <= ph.p95_us && ph.p95_us <= ph.p99_us);
        }
        assert_eq!(
            study.baseline.coalesced, 0,
            "baseline requests never share an input"
        );
        assert!(
            (study.baseline.executions_per_request - 1.0).abs() < 1e-9,
            "without coalescing every request executes"
        );
        // More clients than workers over a tiny problem set: duplicates
        // must overlap in flight and share executions.
        assert!(
            study.coalesced.coalesced_ratio > 0.2,
            "duplicate-heavy overload should coalesce >20%, got {}",
            study.coalesced.coalesced_ratio
        );
        assert!(
            study.execution_cut > 0.2,
            "coalescing should cut executions, got {}",
            study.execution_cut
        );
        let json = study.to_json();
        assert!(json.contains("\"study\": \"async\""));
        assert!(json.contains("\"executions_per_request\""));
        assert!(json.contains("\"coalesced_ratio\""));
        assert!(json.contains("\"p99_ratio\""));
        assert!(study.render().contains("fewer kernels"));
        let mut broken = study.clone();
        broken.coalesced.coalesced_ratio = 0.1;
        broken.coalesced.p99_us = broken.baseline.p99_us * 2.0;
        let err = broken.check().unwrap_err();
        assert!(err.contains("coal.coalesced_ratio > 0.2 (0.100)"), "{err}");
        assert!(err.contains("coal.p99_us <= base.p99_us * 1.10"), "{err}");
    }
}
