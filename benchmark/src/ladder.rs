//! The per-layer ladder: the workload's problem mix driven through each
//! layer's public entry point in isolation, from a plain memcpy up to a
//! loopback `POST /v1/transpose`.
//!
//! Every layer runs whole rounds over its problem list until its time
//! budget is spent, so each problem weighs the same in every statistic. Host
//! layers move the mix at full size; the gpu-sim executor and every layer
//! above it run a twin of each problem shrunk to at most [`SERVE_CAP`]
//! elements, because simulating every warp of a 512 MiB tensor takes
//! tens of seconds.

use crate::gen::{self, Problem};
use crate::stats::{quantile, transpose_bytes};
use crate::trace::Tracer;
use crate::Metric;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttlg::features::KernelChoice;
use ttlg::{Backend, CacheStats, Plan, Schema, ShardedPlanCache, TransposeOptions, Transposer};
use ttlg_runtime::{TransposeRequest, TransposeService};
use ttlg_serve::{Gateway, GatewayConfig, HttpClient, QuotaConfig};
use ttlg_tensor::rng::StdRng;
use ttlg_tensor::DenseTensor;

/// Largest problem (elements) the gpu-sim executor and the layers above
/// it are driven with.
const SERVE_CAP: usize = 1 << 18;

/// Most problems of the workload mix the ladder drives.
const MIX_MAX: usize = 32;

/// The layers, bottom up. Each reports `<layer>.count` and
/// `<layer>.busy_s`.
const LAYERS: [&str; 12] = [
    "l0.memcpy",
    "cpu.execute",
    "core.execute",
    "gpu_sim.execute",
    "gpu_sim.analyze",
    "core.plan",
    "core.cache_hit",
    "core.cache_miss",
    "runtime.submit",
    "runtime.async",
    "serve.post",
    "obs.scrape",
];

/// The four schema classes of the CPU kernel, with the CPU study's probe
/// shape for each: a class the workload mix lacks is measured on its
/// probe.
const CLASSES: [(Schema, &str, &[usize], &[usize]); 4] = [
    (
        Schema::FviMatchLarge,
        "fvi-large",
        &[128, 64, 64],
        &[0, 2, 1],
    ),
    (
        Schema::FviMatchSmall,
        "fvi-small",
        &[16, 128, 128],
        &[0, 2, 1],
    ),
    (
        Schema::OrthogonalDistinct,
        "orthogonal-distinct",
        &[512, 512],
        &[1, 0],
    ),
    (
        Schema::OrthogonalArbitrary,
        "orthogonal-arbitrary",
        &[16, 64, 8, 32],
        &[2, 0, 3, 1],
    ),
];

/// Timed calls of one layer.
struct Layer {
    ns: Vec<f64>,
    bytes: f64,
}

impl Layer {
    fn p50(&self) -> f64 {
        quantile(&mut self.ns.clone(), 0.5)
    }

    /// What this layer adds over the layers it calls through: the median,
    /// over paired calls (same problem, same round), of this call's time
    /// minus theirs. All layers must come from one interleaved group.
    fn added_over(&self, below: &[&Layer]) -> f64 {
        let mut diffs: Vec<f64> = (0..self.ns.len())
            .map(|k| self.ns[k] - below.iter().map(|l| l.ns[k]).sum::<f64>())
            .collect();
        quantile(&mut diffs, 0.5)
    }

    fn busy_ns(&self) -> f64 {
        self.ns.iter().sum()
    }

    fn gbps(&self) -> f64 {
        self.bytes / self.busy_ns()
    }
}

/// Run `call(layer, i)` for every layer of a group on problem `i`
/// before moving on to `i + 1`, in whole rounds over `0..n`, until the
/// group has spent `budget` per layer (at least one round). Layer `l`'s
/// calls land in `layers[l]` in problem order. Interleaving
/// puts every layer of a group under the same conditions, so the
/// differences between them (the `added_ns` metrics) are not skewed by
/// drift between separate windows. `call` times its own measured section
/// and returns `(ns, bytes)`, so untimed preparation stays out.
fn rounds<const L: usize>(
    group: &'static str,
    budget: Duration,
    n: usize,
    tracer: &mut Tracer,
    mut call: impl FnMut(usize, usize) -> (f64, f64),
) -> [Layer; L] {
    let mut layers: [Layer; L] = std::array::from_fn(|_| Layer {
        ns: Vec::new(),
        bytes: 0.0,
    });
    // A fresh order of the group's layers for every problem, so each
    // layer meets the problem first (with cold caches) and follows every
    // other layer equally often: a call made straight after a loopback
    // POST shares the CPUs with the gateway threads still finishing it.
    let mut rng = StdRng::seed_from_u64(0x1add_e400);
    let mut order: [usize; L] = std::array::from_fn(|l| l);
    let started = Instant::now();
    let mut round = 0;
    while round == 0 || started.elapsed() < budget * L as u32 {
        for i in 0..n {
            rng.shuffle(&mut order);
            for &l in &order {
                let (ns, bytes) = call(l, i);
                layers[l].ns.push(ns);
                layers[l].bytes += bytes;
            }
        }
        round += 1;
    }
    tracer.record(0, 0, group, started, Instant::now());
    layers
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (t0.elapsed().as_nanos() as f64, r)
}

/// Run `f` on tensors of `p`'s input and output shape backed by the
/// reusable buffers (resized, not reallocated, between problems).
fn with_tensors<R>(
    src: &mut Vec<f64>,
    dst: &mut Vec<f64>,
    p: &Problem,
    f: impl FnOnce(&DenseTensor<f64>, &mut DenseTensor<f64>) -> R,
) -> R {
    let v = p.volume();
    let (mut a, mut b) = (std::mem::take(src), std::mem::take(dst));
    a.resize(v, 0.5);
    b.resize(v, 0.5);
    let input = DenseTensor::from_data(p.shape(), a).expect("buffer sized to the volume");
    let out_shape = p
        .permutation()
        .apply_to_shape(&p.shape())
        .expect("valid perm");
    let mut out = DenseTensor::from_data(out_shape, b).expect("buffer sized to the volume");
    let r = f(&input, &mut out);
    *src = input.into_data();
    *dst = out.into_data();
    r
}

/// The CPU kernel plan the transposer would run for `plan`, built
/// directly so `ttlg_cpu::execute` can be timed without the dispatch.
fn raw_cpu_plan(plan: &Plan<f64>) -> ttlg_cpu::CpuPlan {
    let KernelChoice::CpuTiled { tile, threads, .. } = plan.candidate().choice else {
        panic!("a CPU-backend plan carries a CPU candidate");
    };
    let fused = plan.problem();
    ttlg_cpu::CpuPlan::new(fused.shape.extents(), fused.perm.as_slice(), tile, threads)
}

/// Run the ladder over `mix` with `budget` per layer. `workload_cache`
/// carries the plan-cache counters of the service that served the
/// workload, where there is one; otherwise the ladder's own service's
/// counters are reported.
pub fn run(
    mix: &[Problem],
    budget: Duration,
    seed: u64,
    tracer: &mut Tracer,
    workload_cache: Option<CacheStats>,
) -> Vec<Metric> {
    let t = Transposer::new_k40c();
    let cpu_opts = TransposeOptions::for_backend(Backend::Cpu);
    let gpu_opts = TransposeOptions::default();
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

    // Host layers: the mix at full size, largest first so the reusable
    // buffers only grow once per round.
    let mut host = gen::subset(mix, MIX_MAX);
    host.sort_by_key(|p| std::cmp::Reverse(p.volume()));
    let max_volume = host.iter().map(Problem::volume).max().unwrap_or(0);
    let mut src = vec![0.0f64; max_volume];
    gen::fill(&mut src, seed);
    let mut dst = vec![1.0f64; max_volume];
    let cpu_plans: Vec<Plan<f64>> = host
        .iter()
        .map(|p| {
            t.plan::<f64>(&p.shape(), &p.permutation(), &cpu_opts)
                .expect("cpu plan")
        })
        .collect();
    let raw: Vec<ttlg_cpu::CpuPlan> = cpu_plans.iter().map(raw_cpu_plan).collect();
    let [memcpy, cpu, core] = rounds("ladder.host", budget, host.len(), tracer, |l, i| {
        let v = host[i].volume();
        if src.len() != v {
            src.resize(v, 0.5);
            dst.resize(v, 0.5);
        }
        let ns = match l {
            0 => time(|| dst.copy_from_slice(&src)).0,
            1 => time(|| ttlg_cpu::execute(&raw[i], &src, &mut dst)).0,
            _ => with_tensors(&mut src, &mut dst, &host[i], |input, output| {
                let (ns, r) = time(|| t.execute_into(&cpu_plans[i], input, output));
                r.expect("cpu execute");
                ns
            }),
        };
        (ns, transpose_bytes(v))
    });

    // Per-class CPU bandwidth: the mix's problems of the class, or the
    // class's probe shape when the mix has none.
    let mut class_gbps = Vec::new();
    for (schema, label, extents, perm) in CLASSES {
        let idx: Vec<usize> = (0..host.len())
            .filter(|&i| cpu_plans[i].schema() == schema)
            .collect();
        let gbps = if idx.is_empty() {
            let probe = Problem::new(extents, perm);
            let plan = t
                .plan::<f64>(&probe.shape(), &probe.permutation(), &cpu_opts)
                .expect("probe plan");
            let cp = raw_cpu_plan(&plan);
            let v = probe.volume();
            let a = vec![0.25f64; v];
            let mut b = vec![0.75f64; v];
            let [layer] = rounds("ladder.cpu_probe", budget / 4, 1, tracer, |_, _| {
                let (ns, _) = time(|| ttlg_cpu::execute(&cp, &a, &mut b));
                (ns, transpose_bytes(v))
            });
            layer.gbps()
        } else {
            let per_round = host.len();
            let (bytes, ns) = cpu
                .ns
                .iter()
                .enumerate()
                .filter(|(k, _)| idx.contains(&(k % per_round)))
                .fold((0.0, 0.0), |(b, n), (k, &x)| {
                    (b + transpose_bytes(host[k % per_round].volume()), n + x)
                });
            bytes / ns
        };
        class_gbps.push((label, gbps));
    }
    drop((src, dst));

    // Planning and analysis need no data, so they see the mix at full
    // size. The simulator's counts are exact: the first round defines
    // them.
    let full = gen::subset(mix, MIX_MAX);
    let full_plans: Vec<Plan<f64>> = full
        .iter()
        .map(|p| {
            t.plan::<f64>(&p.shape(), &p.permutation(), &gpu_opts)
                .expect("gpu plan")
        })
        .collect();
    let (mut tx, mut min_tx, mut replays, mut smem) = (0u64, 0u64, 0u64, 0u64);
    let mut calls = 0usize;
    let [analyze] = rounds("ladder.analyze", budget, full.len(), tracer, |_, i| {
        let (ns, r) = time(|| t.time_plan(&full_plans[i]));
        let stats = r.expect("gpu-sim analysis").stats;
        if calls < full.len() {
            tx += stats.dram_total_tx();
            min_tx += stats.minimal_dram_tx(8);
            replays += stats.smem_conflict_replays;
            smem += stats.smem_load_acc + stats.smem_store_acc;
        }
        calls += 1;
        (ns, 0.0)
    });
    let (mut candidates, mut calls) = (0usize, 0usize);
    let [plan] = rounds("ladder.plan", budget, full.len(), tracer, |_, i| {
        let p = &full[i];
        let (ns, r) = time(|| t.plan::<f64>(&p.shape(), &p.permutation(), &gpu_opts));
        if calls < full.len() {
            candidates += r.expect("plan").candidates_evaluated();
        }
        calls += 1;
        (ns, 0.0)
    });

    // The serving stack, on the twins: each layer of the group runs the
    // same problem back to back, from the bare executor up to HTTP.
    let serve: Vec<Problem> = full.iter().map(|p| p.shrunk(SERVE_CAP)).collect();
    let mut inputs: HashMap<Vec<usize>, Arc<DenseTensor<f64>>> = HashMap::new();
    let serve_inputs: Vec<Arc<DenseTensor<f64>>> = serve
        .iter()
        .map(|p| {
            Arc::clone(inputs.entry(p.extents.clone()).or_insert_with(|| {
                let mut data = vec![0.0; p.volume()];
                gen::fill(&mut data, seed);
                Arc::new(DenseTensor::from_data(p.shape(), data).expect("sized"))
            }))
        })
        .collect();
    let cache: ShardedPlanCache<f64> = ShardedPlanCache::new();
    let get = |p: &Problem| {
        cache
            .get_or_plan(&t, &p.shape(), &p.permutation(), &gpu_opts)
            .expect("cached plan")
    };
    let service = Arc::new(TransposeService::<f64>::new_k40c());
    // The plans the service caches and executes: planned by its own
    // transposer with the requests' (default) options.
    let exec = service.transposer();
    let serve_plans: Vec<Plan<f64>> = serve
        .iter()
        .map(|p| {
            exec.plan::<f64>(&p.shape(), &p.permutation(), &gpu_opts)
                .expect("gpu plan")
        })
        .collect();
    let requests: Vec<TransposeRequest<f64>> = serve
        .iter()
        .zip(&serve_inputs)
        .map(|(p, input)| TransposeRequest::new(Arc::clone(input), p.permutation()))
        .collect();
    let gateway = Gateway::start(Arc::clone(&service), gateway_config());
    let mut server = ttlg_serve::spawn(gateway, "127.0.0.1:0").expect("bind loopback");
    let mut client = HttpClient::connect(server.addr()).expect("connect loopback");
    let bodies: Vec<String> = serve.iter().map(Problem::body).collect();
    let mut post = |i: usize| {
        let r = client
            .post_json("/v1/transpose", &[("x-ttlg-tenant", "ladder")], &bodies[i])
            .expect("loopback post");
        assert_eq!(r.status, 200, "{}", r.body_text());
    };
    // Warm every cache on the way: plans, the gateway's inputs, the
    // async executor's threads.
    for (i, r) in requests.iter().enumerate() {
        get(&serve[i]);
        service.submit(r).expect("warm submit");
        service.submit_async(r.clone()).wait();
        post(i);
    }
    let [gpu_exec, hit, submit, async_, http] =
        rounds("ladder.serve", budget, serve.len(), tracer, |l, i| {
            let ns = match l {
                // The call `submit` makes once it has the plan.
                0 => {
                    let (ns, r) = time(|| exec.execute(&serve_plans[i], &serve_inputs[i]));
                    r.expect("gpu-sim execute");
                    ns
                }
                1 => time(|| get(&serve[i])).0,
                2 => {
                    let (ns, r) = time(|| service.submit(&requests[i]));
                    r.expect("submit");
                    ns
                }
                3 => {
                    let (ns, r) = time(|| service.submit_async(requests[i].clone()).wait());
                    assert!(r.result.is_ok(), "async submit failed");
                    ns
                }
                _ => time(|| post(i)).0,
            };
            (ns, transpose_bytes(serve[i].volume()))
        });
    let [miss] = rounds("ladder.cache_miss", budget, serve.len(), tracer, |_, i| {
        cache.clear();
        (time(|| get(&serve[i])).0, 0.0)
    });
    let [scrape] = rounds("ladder.scrape", budget, 1, tracer, |_, _| {
        let (ns, text) = time(|| server.gateway().export_prometheus());
        (ns, text.len() as f64)
    });
    drop(client);
    server.stop();
    let ladder_cache = service.cache_stats();

    let layers = [
        &memcpy, &cpu, &core, &gpu_exec, &analyze, &plan, &hit, &miss, &submit, &async_, &http,
        &scrape,
    ];
    for (name, layer) in LAYERS.iter().zip(layers) {
        put(format!("{name}.count"), layer.ns.len() as f64, "count");
        put(format!("{name}.busy_s"), layer.busy_ns() / 1e9, "s");
    }
    put("l0.memcpy.gbps".into(), memcpy.gbps(), "GB/s");
    put("cpu.execute.p50_ns".into(), cpu.p50(), "ns");
    put("cpu.execute.gbps".into(), cpu.gbps(), "GB/s");
    for (label, gbps) in class_gbps {
        put(format!("cpu.execute.gbps.{label}"), gbps, "GB/s");
    }
    put(
        "cpu.roofline_frac".into(),
        cpu.gbps() / memcpy.gbps(),
        "ratio",
    );
    put(
        "core.execute.added_ns".into(),
        core.added_over(&[&cpu]),
        "ns",
    );
    put("gpu_sim.execute.p50_ns".into(), gpu_exec.p50(), "ns");
    put("gpu_sim.analyze.p50_ns".into(), analyze.p50(), "ns");
    put("gpu_sim.dram_transactions".into(), tx as f64, "count");
    put(
        "gpu_sim.dram_efficiency".into(),
        min_tx as f64 / tx.max(1) as f64,
        "ratio",
    );
    put(
        "gpu_sim.smem_replay_rate".into(),
        replays as f64 / smem.max(1) as f64,
        "ratio",
    );
    put("core.plan.p50_ns".into(), plan.p50(), "ns");
    put("core.plan.candidates".into(), candidates as f64, "count");
    put("core.cache_hit.p50_ns".into(), hit.p50(), "ns");
    put("core.cache_miss.p50_ns".into(), miss.p50(), "ns");
    let stats = workload_cache.unwrap_or(ladder_cache);
    put(
        "core.cache.hit_ratio".into(),
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    put(
        "core.cache.evictions".into(),
        stats.evictions as f64,
        "count",
    );
    put(
        "runtime.submit.added_ns".into(),
        submit.added_over(&[&gpu_exec]),
        "ns",
    );
    put(
        "runtime.async.added_ns".into(),
        async_.added_over(&[&submit]),
        "ns",
    );
    put(
        "serve.post.added_ns".into(),
        http.added_over(&[&async_]),
        "ns",
    );
    put("obs.scrape.p50_ns".into(), scrape.p50(), "ns");
    out
}

/// The gateway the workloads and the ladder run: default settings with
/// an admission quota far above what one host can drive, so the quota
/// check runs but never sheds.
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        quota: QuotaConfig {
            rate_per_sec: 1e9,
            burst: 1e9,
            max_tenants: 64,
        },
        ..GatewayConfig::default()
    }
}
