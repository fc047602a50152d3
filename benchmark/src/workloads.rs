//! The four workloads: set-up with its fixed warm-up pass, the timed
//! window, and the correctness checks that run after it.

use crate::gen::{self, ChurnStream, Problem, ZipfStream};
use crate::host::{Probe, WindowClock};
use crate::ladder::gateway_config;
use crate::stats::{geo_mean, OpSample};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttlg::{Backend, CacheStats, Plan, TransposeOptions, Transposer};
use ttlg_gpu_sim::timing::bandwidth_gbps;
use ttlg_runtime::{TransposeRequest, TransposeService};
use ttlg_serve::json::{self, Json};
use ttlg_serve::{ClientResponse, Gateway, HttpClient, ServerHandle};
use ttlg_tensor::reference::{transpose_reference, transpose_reference_into};
use ttlg_tensor::DenseTensor;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GatewaySmall,
    GatewayChurn,
    SimSweep,
    CpuBulk,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::GatewaySmall,
        Kind::GatewayChurn,
        Kind::SimSweep,
        Kind::CpuBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GatewaySmall => "gateway-small",
            Kind::GatewayChurn => "gateway-churn",
            Kind::SimSweep => "sim-sweep-720",
            Kind::CpuBulk => "cpu-bulk",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload runs pinned to one CPU. A gateway request
    /// passes through five threads (client, connection, scheduler, async
    /// worker, completion dispatcher). Spread over the host's vCPUs, each
    /// hand-off can wake an idle vCPU, and on a shared host how long that
    /// takes depends on the other tenants: 1 s slices of one unpinned run
    /// swung by 2-3x while the process sat mostly idle. On one CPU a
    /// thread of the chain is always runnable, so a request costs CPU
    /// time only, and the gpu-sim executor and the planner run their loops
    /// on that one thread. The sweep and cpu-bulk keep every CPU: their
    /// loops are the work being measured.
    pub fn pinned(self) -> bool {
        matches!(self, Kind::GatewaySmall | Kind::GatewayChurn)
    }

    /// The host probe whose rate scales the workload's wall-clock
    /// metrics: the one that followed the workload's speed best across
    /// runs (README, Host-speed scaling). A gateway request spends its
    /// time in syscalls and thread hand-offs, the sweep in user-space
    /// compute, and cpu-bulk in streaming 512 MiB tensors through
    /// memory.
    pub fn probe(self) -> Probe {
        match self {
            Kind::GatewaySmall | Kind::GatewayChurn => Probe::Loopback,
            Kind::SimSweep => Probe::Compute,
            Kind::CpuBulk => Probe::Memory,
        }
    }

    /// The percentile `latency_tail_us` reports: the highest with at
    /// least ten samples beyond it in a default-length run (the sweep
    /// makes ~650 ops, cpu-bulk ~120 calls).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Kind::GatewaySmall | Kind::GatewayChurn => 0.99,
            Kind::SimSweep => 0.95,
            Kind::CpuBulk => 0.90,
        }
    }
}

/// What one timed window measured.
pub struct Window {
    /// Every operation that succeeded.
    pub samples: Vec<OpSample>,
    /// Wall time of the window without its probe slices.
    pub wall_s: f64,
    /// The host probe that ran in the window, and its rate.
    pub probe: Probe,
    pub probe_rate: f64,
    /// Operations that failed (non-200, transport error, wrong body,
    /// library error).
    pub failed: u64,
    /// Time spent recording spans, ns (0 without a tracer).
    pub record_ns: f64,
}

impl Window {
    fn new(clock: WindowClock, samples: Vec<OpSample>, failed: u64, record_ns: f64) -> Window {
        let (wall_s, probe, probe_rate) = clock.finish();
        Window {
            samples,
            wall_s,
            probe,
            probe_rate,
            failed,
            record_ns,
        }
    }

    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }

    /// `1 - traced / untraced throughput`, where the untraced window is
    /// this one without the time its span recording took. Timing the
    /// recording inside one window, rather than comparing two windows,
    /// keeps host drift between windows out of the number.
    pub fn trace_overhead(&self) -> f64 {
        self.record_ns / (self.wall_s * 1e9)
    }
}

/// Run `f` on the tracer, if there is one, and return how long it took
/// in ns.
fn recording(tracer: &mut Option<&mut Tracer>, f: impl FnOnce(&mut Tracer)) -> f64 {
    match tracer {
        Some(t) => {
            let t0 = Instant::now();
            f(t);
            nanos(t0, Instant::now())
        }
        None => 0.0,
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

pub trait Workload {
    /// Run the workload for about `seconds` of `clock`'s time,
    /// recording spans when a tracer is given.
    fn measure(&mut self, clock: WindowClock, seconds: f64, tracer: Option<&mut Tracer>) -> Window;
    /// Correctness checks, outside any timed window.
    fn check(&mut self) -> Checks;
    /// Geo-mean simulated K40c GB/s of the workload's problems:
    /// (repeated use, single use with modeled plan time).
    fn sim_gbps(&self) -> (f64, f64);
    /// The problem mix the per-layer ladder drives.
    fn ladder_mix(&self) -> Vec<Problem>;
    /// Plan-cache counters of the service that served the workload.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// Build a workload from nothing and run its warm-up pass.
pub fn setup(kind: Kind, seed: u64) -> Box<dyn Workload> {
    match kind {
        Kind::GatewaySmall | Kind::GatewayChurn => Box::new(GatewayLoad::start(kind, seed)),
        Kind::SimSweep => Box::new(Sweep::start(seed)),
        Kind::CpuBulk => Box::new(CpuBulk::start(seed)),
    }
}

fn sim_gbps(problems: &[Problem]) -> (f64, f64) {
    let t = Transposer::new_k40c();
    let (rep, single): (Vec<f64>, Vec<f64>) = problems.iter().map(|p| sim_point(&t, p)).unzip();
    (geo_mean(rep), geo_mean(single))
}

/// Simulated K40c GB/s of one problem planned without a cache, as the
/// paper's figures do: (repeated use, single use).
fn sim_point(t: &Transposer, p: &Problem) -> (f64, f64) {
    let plan = t
        .plan::<f64>(&p.shape(), &p.permutation(), &TransposeOptions::default())
        .expect("every workload problem plans");
    let r = t.time_plan(&plan).expect("every plan simulates");
    paper_gbps(p, r.kernel_time_ns, r.plan_time_ns)
}

/// The paper's bandwidth of one problem: kernel time only (repeated use)
/// and kernel plus modeled plan time (single use).
fn paper_gbps(p: &Problem, kernel_ns: f64, plan_ns: f64) -> (f64, f64) {
    (
        bandwidth_gbps(p.volume(), 8, kernel_ns),
        bandwidth_gbps(p.volume(), 8, kernel_ns + plan_ns),
    )
}

/// A seeded input tensor for `p`.
fn seeded_input(p: &Problem, seed: u64) -> DenseTensor<f64> {
    let mut data = vec![0.0; p.volume()];
    gen::fill(&mut data, seed);
    DenseTensor::from_data(p.shape(), data).expect("sized to the volume")
}

fn nanos(a: Instant, b: Instant) -> f64 {
    (b - a).as_nanos() as f64
}

// ---- gateway-small / gateway-churn --------------------------------------

/// Churn problems checked against the reference after the window.
const CHURN_CHECKED: usize = 256;
/// Churn problems sent by the warm-up pass.
const CHURN_WARMUP: usize = 64;

const HEADERS: [(&str, &str); 1] = [("x-ttlg-tenant", "bench")];

enum Requests {
    /// Zipf draws over the catalog's (volume, body) pairs.
    Small {
        stream: ZipfStream,
        bodies: Vec<(usize, String)>,
    },
    Churn {
        stream: ChurnStream,
        issued: Vec<Problem>,
    },
}

impl Requests {
    /// The next request: (sample key, volume, body).
    fn next(&mut self, op: u64) -> (u64, usize, String) {
        match self {
            Requests::Small { stream, bodies } => {
                let i = stream.next().expect("endless stream");
                let (volume, body) = &bodies[i];
                (i as u64, *volume, body.clone())
            }
            Requests::Churn { stream, issued } => {
                let p = stream.next().expect("endless stream");
                let out = (op, p.volume(), p.body());
                if issued.len() < CHURN_CHECKED {
                    issued.push(p);
                }
                out
            }
        }
    }
}

/// A 200 whose body reports success on every element of the problem.
fn response_ok(r: &ClientResponse, volume: usize) -> bool {
    r.status == 200
        && json::parse(&r.body).is_ok_and(|j| {
            j.get("ok") == Some(&Json::Bool(true))
                && j.get("elements").and_then(Json::as_usize) == Some(volume)
        })
}

/// One closed-loop keep-alive client. The workload runs on one CPU
/// (`Kind::pinned`), where a second client would only queue its
/// requests behind the first one's.
struct GatewayLoad {
    // Fields drop in order: the client closes, then the server stops,
    // then `_last` releases the gateway.
    client: HttpClient,
    server: ServerHandle,
    requests: Requests,
    /// The problems the simulated-bandwidth metrics and the ladder use.
    reference: Vec<Problem>,
    seed: u64,
    warmup: Checks,
    _last: LastRef,
}

/// A reference to the gateway that is dropped last, on the benchmark's
/// thread. The completion hook of a request holds a reference until the
/// service's dispatcher thread drops the hook, which can be after the
/// client has read the response. Were that the last reference, the
/// dispatcher would drop the service, whose executor would then join
/// the dispatcher from itself and panic. So this waits, for a bounded
/// time, until it holds the only reference.
struct LastRef(Arc<Gateway>);

impl Drop for LastRef {
    fn drop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Arc::strong_count(&self.0) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl GatewayLoad {
    fn start(kind: Kind, seed: u64) -> GatewayLoad {
        let service = Arc::new(TransposeService::<f64>::new_k40c());
        let server = ttlg_serve::spawn(Gateway::start(service, gateway_config()), "127.0.0.1:0")
            .expect("bind a loopback port");
        let mut client = HttpClient::connect(server.addr()).expect("connect to the gateway");
        let (requests, reference, warm) = if kind == Kind::GatewaySmall {
            let catalog = gen::catalog();
            let bodies: Vec<(usize, String)> =
                catalog.iter().map(|p| (p.volume(), p.body())).collect();
            // Every catalog problem once: plans cached, inputs built.
            let warm = bodies.clone();
            let requests = Requests::Small {
                stream: ZipfStream::new(seed),
                bodies,
            };
            (requests, catalog, warm)
        } else {
            let mut requests = Requests::Churn {
                stream: ChurnStream::new(seed),
                issued: Vec::new(),
            };
            let warm = (0..CHURN_WARMUP as u64)
                .map(|op| {
                    let (_, volume, body) = requests.next(op);
                    (volume, body)
                })
                .collect();
            (requests, gen::churn_reference(), warm)
        };
        let mut warmup = Checks::default();
        for (volume, body) in warm {
            warmup.attempted += 1;
            let ok = client
                .post_json("/v1/transpose", &HEADERS, &body)
                .is_ok_and(|r| response_ok(&r, volume));
            warmup.failed += u64::from(!ok);
        }
        GatewayLoad {
            _last: LastRef(Arc::clone(server.gateway())),
            client,
            server,
            requests,
            reference,
            seed,
            warmup,
        }
    }
}

impl Workload for GatewayLoad {
    fn measure(
        &mut self,
        mut clock: WindowClock,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let (mut samples, mut failed, mut op, mut record_ns) = (Vec::new(), 0u64, 0u64, 0.0);
        while clock.tick() < seconds {
            op += 1;
            let (key, volume, body) = self.requests.next(op);
            let t0 = Instant::now();
            let res = self.client.post_json("/v1/transpose", &HEADERS, &body);
            let t1 = Instant::now();
            record_ns += recording(&mut tracer, |t| {
                t.record(0, op, "post", t0, t1);
            });
            match res {
                Ok(r) if response_ok(&r, volume) => samples.push(OpSample {
                    key,
                    volume,
                    ns: nanos(t0, t1),
                }),
                Ok(_) => failed += 1,
                Err(_) => {
                    failed += 1;
                    if let Ok(c) = HttpClient::connect(self.server.addr()) {
                        self.client = c;
                    }
                }
            }
        }
        Window::new(clock, samples, failed, record_ns)
    }

    /// Every distinct problem served (the whole catalog, or the first
    /// churn problems) goes through the gateway's own service with seeded
    /// data and is compared with the reference transposition.
    fn check(&mut self) -> Checks {
        let problems = match &self.requests {
            Requests::Small { .. } => &self.reference,
            Requests::Churn { issued, .. } => issued,
        };
        let service = self.server.gateway().service();
        let mut checks = self.warmup;
        for (i, p) in problems.iter().enumerate() {
            let input = seeded_input(p, self.seed ^ i as u64);
            let expect = transpose_reference(&input, &p.permutation()).expect("valid problem");
            let got = service.submit(&TransposeRequest::new(Arc::new(input), p.permutation()));
            checks.attempted += 1;
            let ok = got.is_ok_and(|r| {
                r.output.shape() == expect.shape() && r.output.data() == expect.data()
            });
            checks.failed += u64::from(!ok);
        }
        checks
    }

    fn sim_gbps(&self) -> (f64, f64) {
        sim_gbps(&self.reference)
    }

    fn ladder_mix(&self) -> Vec<Problem> {
        self.reference.clone()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.server.gateway().service().cache_stats())
    }
}

// ---- sim-sweep-720 -------------------------------------------------------

struct Sweep {
    t: Transposer,
    ops: Vec<Problem>,
    order: Vec<usize>,
    seed: u64,
    /// (kernel ns, plan ns) of every op in the first repeat; later
    /// repeats must reproduce them bit for bit.
    first: Option<Vec<(f64, f64)>>,
    compared: u64,
    mismatched: u64,
}

impl Sweep {
    fn start(seed: u64) -> Sweep {
        let t = Transposer::new_k40c();
        // Warm-up: the sweep's permutations once at extent 16 (the cheap
        // extent to simulate).
        for p in &gen::sim_problems(16) {
            let plan = t
                .plan::<f64>(&p.shape(), &p.permutation(), &TransposeOptions::default())
                .expect("sweep problems plan");
            t.time_plan(&plan).expect("sweep plans simulate");
        }
        let ops = gen::sim_ops();
        Sweep {
            order: gen::sim_order(seed, ops.len()),
            ops,
            t,
            seed,
            first: None,
            compared: 0,
            mismatched: 0,
        }
    }
}

impl Workload for Sweep {
    /// Whole repeats of the sweep (single use: plan without a cache,
    /// then simulate) until `seconds` have passed.
    fn measure(
        &mut self,
        mut clock: WindowClock,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let (mut samples, mut failed, mut op, mut record_ns) = (Vec::new(), 0u64, 0u64, 0.0);
        loop {
            let mut results = vec![(f64::NAN, f64::NAN); self.ops.len()];
            for &i in &self.order {
                clock.tick();
                let p = &self.ops[i];
                op += 1;
                let t0 = Instant::now();
                let plan =
                    self.t
                        .plan::<f64>(&p.shape(), &p.permutation(), &TransposeOptions::default());
                let t1 = Instant::now();
                let report = plan.and_then(|plan| self.t.time_plan(&plan));
                let t2 = Instant::now();
                record_ns += recording(&mut tracer, |t| {
                    let root = t.record(0, op, "op", t0, t2);
                    t.record(root, op, "plan", t0, t1);
                    t.record(root, op, "analyze", t1, t2);
                });
                match report {
                    Ok(r) => {
                        results[i] = (r.kernel_time_ns, r.plan_time_ns);
                        samples.push(OpSample {
                            key: i as u64,
                            volume: p.volume(),
                            ns: nanos(t0, t2),
                        });
                    }
                    Err(_) => failed += 1,
                }
            }
            match &self.first {
                None => self.first = Some(results),
                Some(first) => {
                    self.compared += results.len() as u64;
                    self.mismatched += first
                        .iter()
                        .zip(&results)
                        .filter(|(a, b)| {
                            a.0.to_bits() != b.0.to_bits() || a.1.to_bits() != b.1.to_bits()
                        })
                        .count() as u64;
                }
            }
            if clock.tick() >= seconds {
                break;
            }
        }
        Window::new(clock, samples, failed, record_ns)
    }

    /// Repeats reproduced the first one exactly, and the sweep's
    /// permutations, executed at extent 8, match the reference.
    fn check(&mut self) -> Checks {
        let mut checks = Checks {
            attempted: self.compared,
            failed: self.mismatched,
        };
        for (i, p) in gen::sim_problems(gen::SIM_CHECK_EXTENT).iter().enumerate() {
            let input = seeded_input(p, self.seed ^ i as u64);
            let expect = transpose_reference(&input, &p.permutation()).expect("valid problem");
            let got = self
                .t
                .plan::<f64>(&p.shape(), &p.permutation(), &TransposeOptions::default())
                .and_then(|plan| self.t.execute(&plan, &input));
            checks.attempted += 1;
            checks.failed += u64::from(!got.is_ok_and(|(out, _)| out.data() == expect.data()));
        }
        checks
    }

    fn sim_gbps(&self) -> (f64, f64) {
        let first = self.first.as_ref().expect("measured at least one repeat");
        let (rep, single): (Vec<f64>, Vec<f64>) = self
            .ops
            .iter()
            .zip(first)
            .map(|(p, &(kernel, plan))| paper_gbps(p, kernel, plan))
            .unzip();
        (geo_mean(rep), geo_mean(single))
    }

    fn ladder_mix(&self) -> Vec<Problem> {
        self.ops.clone()
    }
}

// ---- cpu-bulk -------------------------------------------------------------

struct CpuBulk {
    t: Transposer,
    problems: Vec<Problem>,
    plans: Vec<Plan<f64>>,
    /// One input and one output buffer, reshaped for each problem (all
    /// have the same volume).
    input: Option<DenseTensor<f64>>,
    output: Option<DenseTensor<f64>>,
    /// Wall time of the last warm-up round (one call per shape), seconds.
    round_s: f64,
}

impl CpuBulk {
    fn start(seed: u64) -> CpuBulk {
        let t = Transposer::new_k40c();
        let problems = gen::cpu_bulk();
        let plans = problems
            .iter()
            .map(|p| {
                t.plan::<f64>(
                    &p.shape(),
                    &p.permutation(),
                    &TransposeOptions::for_backend(Backend::Cpu),
                )
                .expect("bulk shapes plan on the CPU")
            })
            .collect();
        let mut load = CpuBulk {
            input: Some(seeded_input(&problems[0], seed)),
            output: Some(DenseTensor::zeros(problems[0].shape())),
            t,
            problems,
            plans,
            round_s: 0.0,
        };
        // Two warm-up rounds; the first pays the output's page faults, the
        // second's time sizes the timed window.
        for _ in 0..2 {
            let t0 = Instant::now();
            for k in 0..load.problems.len() {
                load.execute(k).expect("warm-up execute");
            }
            load.round_s = t0.elapsed().as_secs_f64();
        }
        load
    }

    /// Reshape the buffers for problem `k` and run its cached plan.
    fn execute(&mut self, k: usize) -> Result<(), ttlg::PlanError> {
        let p = &self.problems[k];
        let input = self.input.take().expect("buffer present");
        let output = self.output.take().expect("buffer present");
        let input = input.reshape(p.shape()).expect("same volume");
        let mut output = output
            .reshape(self.plans[k].out_shape())
            .expect("same volume");
        let r = self.t.execute_into(&self.plans[k], &input, &mut output);
        self.input = Some(input);
        self.output = Some(output);
        r.map(drop)
    }
}

impl Workload for CpuBulk {
    /// Rounds of one `execute_into` per shape, as many as the warm-up
    /// round says fit in `seconds`. Every shape gets the same number of
    /// calls, so the latency percentiles fall on the same shapes in
    /// every run.
    fn measure(
        &mut self,
        mut clock: WindowClock,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let rounds = (seconds / self.round_s).round().max(1.0) as usize;
        let (mut samples, mut failed, mut op, mut record_ns) = (Vec::new(), 0u64, 0u64, 0.0);
        for _ in 0..rounds {
            for k in 0..self.problems.len() {
                clock.tick();
                op += 1;
                let t0 = Instant::now();
                let r = self.execute(k);
                let t1 = Instant::now();
                record_ns += recording(&mut tracer, |t| {
                    t.record(0, op, "execute", t0, t1);
                });
                match r {
                    Ok(()) => samples.push(OpSample {
                        key: k as u64,
                        volume: self.problems[k].volume(),
                        ns: nanos(t0, t1),
                    }),
                    Err(_) => failed += 1,
                }
            }
        }
        Window::new(clock, samples, failed, record_ns)
    }

    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        let mut expect = DenseTensor::<f64>::zeros(self.problems[0].shape());
        for k in 0..self.problems.len() {
            checks.attempted += 1;
            let ok = self.execute(k).is_ok() && {
                let input = self.input.as_ref().expect("buffer present");
                let perm = self.problems[k].permutation();
                expect = expect
                    .reshape(self.plans[k].out_shape())
                    .expect("same volume");
                transpose_reference_into(input, &perm, &mut expect).expect("valid problem");
                self.output.as_ref().expect("buffer present").data() == expect.data()
            };
            checks.failed += u64::from(!ok);
        }
        checks
    }

    fn sim_gbps(&self) -> (f64, f64) {
        sim_gbps(&self.problems)
    }

    fn ladder_mix(&self) -> Vec<Problem> {
        self.problems.clone()
    }
}
