//! Implementation of the `ttlg` command-line tool. The logic lives here
//! (testable); `main.rs` is a thin shell.
//!
//! ```text
//! ttlg plan    16,16,16,16,16,16 4,1,2,5,3,0
//! ttlg run     32,32,32 2,1,0 --verify
//! ttlg predict 27,27,27,27,27 4,1,2,0,3
//! ttlg compare 16,16,16,16,16,16 4,1,2,5,3,0
//! ttlg contract "kil,ljk->ij" 8,24,12 12,20,8
//! ttlg devices
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use ttlg::{TransposeOptions, Transposer};
use ttlg_baselines::cutt::{CuttLibrary, CuttMode};
use ttlg_baselines::naive::NaiveTranspose;
use ttlg_baselines::ttc::TtcGenerator;
use ttlg_contract::{ContractionEngine, ContractionSpec};
use ttlg_gpu_sim::DeviceConfig;
use ttlg_runtime::{RuntimeConfig, TraceStoreConfig, TransposeRequest, TransposeService};
use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

/// CLI errors (also carry usage problems).
#[derive(Debug)]
pub enum CliError {
    /// Malformed arguments, with an explanation.
    Usage(String),
    /// Anything the libraries rejected.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}\n\n{USAGE}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
pub const USAGE: &str = "\
ttlg — tensor transposition on the simulated K40c

USAGE:
  ttlg plan     <extents> <perm> [--no-sweep]   show the planner's choice
  ttlg explain  <extents> <perm> [--no-sweep]   full decision trace: every
                                                candidate slice size, its
                                                predicted time, and why the
                                                rest were rejected
  ttlg run      <extents> <perm> [--verify]     execute and report bandwidth
  ttlg predict  <extents> <perm>                queryable-model estimate
  ttlg compare  <extents> <perm>                TTLG vs cuTT vs TTC vs naive
  ttlg profile  <extents> <perm>                nvprof-style kernel counters
  ttlg profile  --tail [--rounds=N]             replay the skewed tail workload
                                                and render the trace ring as a
                                                flame-style phase profile with
                                                the slowest retained exemplars
  ttlg contract <spec> <extentsA> <extentsB>    TTGT contraction (f64)
  ttlg trace    <extents> <perm>                serve one request through a
                                                loopback gateway and render
                                                its span tree as a flame-style
                                                trace (network/queue/plan/
                                                execute and children) with the
                                                planner decision trace
  ttlg bench-serve [--perms=N] [--rounds=N] [--extents=E]
                   [--metrics-format=text|json|prom] [--json-out=PATH]
                                                replay a mixed-permutation
                                                workload through ttlg-runtime;
                                                text mode also writes a
                                                BENCH_serve.json artifact
  ttlg bench-serve --autotune [--perms=N] [--rounds=N] [--json-out=PATH]
                                                compare model-only vs
                                                measure-mode autotuned serving
                                                and write BENCH_autotune.json
  ttlg bench-serve --tail [--rounds=N] [--json-out=PATH]
                                                tail-latency attribution study:
                                                per-schema p50/p95/p99, the
                                                dominant phase at p99, slowest
                                                exemplars, SLO hit ratio;
                                                writes BENCH_tail.json
  ttlg bench-serve --trace [--perms=N] [--rounds=N] [--json-out=PATH]
                                                tracing/alerting study: serve a
                                                skewed model over loopback
                                                HTTP, watch the prediction-
                                                drift alert fire and resolve
                                                after autotune, and account for
                                                trace sampling/drops; writes
                                                BENCH_trace.json
  ttlg bench-serve --cpu [--seconds=F] [--json-out=PATH]
                                                CPU-backend study: real
                                                wall-clock GB/s of the tiled
                                                multithreaded CPU executor vs
                                                the naive odometer across the
                                                schema taxonomy, with thread
                                                scaling and per-backend
                                                prediction accuracy; writes
                                                BENCH_cpu.json
  ttlg bench-serve --gateway [--seconds=F] [--overload=F] [--json-out=PATH]
                                                loopback gateway study: drive a
                                                real ttlg-serve endpoint past
                                                its per-tenant quotas, report
                                                fairness, shed rate and
                                                per-class p50/p95/p99; writes
                                                BENCH_gateway.json
  ttlg bench-serve --async [--seconds=F] [--overload=F] [--json-out=PATH]
                                                async-submission study: hammer
                                                submit_async with a duplicate-
                                                heavy overload workload, on
                                                private vs shared inputs (no
                                                coalescing vs coalescing);
                                                reports throughput, executions
                                                per request and p99 both ways;
                                                writes BENCH_async.json
  ttlg serve [--addr=H:P] [--workers=N] [--queue-capacity=N]
             [--interactive-weight=N] [--rate=F] [--burst=F]
             [--max-connections=N] [--port-file=PATH] [--check]
             [--history-file=PATH]
                                                serve transposes over HTTP:
                                                POST /v1/transpose,
                                                GET /v1/explain, /metrics,
                                                /v1/query_range, /healthz.
                                                Tenancy via the x-ttlg-tenant
                                                header, priority via
                                                x-ttlg-priority
                                                (interactive|batch); overload
                                                answers 429 + Retry-After.
                                                --history-file persists the
                                                metrics history across
                                                restarts
  ttlg top [--addr=H:P] [--once] [--interval=F] [--window=N]
                                                live dashboard over a running
                                                ttlg serve: throughput, exec
                                                p99, shed/coalesced rates and
                                                firing alerts, rendered as
                                                sparklines polled from
                                                GET /v1/query_range
  ttlg devices                                  list device presets

  <extents>  comma-separated, dim 0 fastest-varying (e.g. 16,16,16)
  <perm>     comma-separated, out dim i = in dim perm[i] (e.g. 2,1,0)";

fn parse_usize_list(s: &str, what: &str) -> Result<Vec<usize>, CliError> {
    s.split(',')
        .map(|x| x.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| CliError::Usage(format!("could not parse {what}: {s:?}")))
}

fn parse_problem(extents: &str, perm: &str) -> Result<(Shape, Permutation), CliError> {
    let shape = Shape::new(&parse_usize_list(extents, "extents")?)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let perm = Permutation::new(&parse_usize_list(perm, "permutation")?)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    if perm.rank() != shape.rank() {
        return Err(CliError::Usage(format!(
            "rank mismatch: {} extents vs {} permutation entries",
            shape.rank(),
            perm.rank()
        )));
    }
    Ok((shape, perm))
}

/// Dispatch a full argument vector (without the program name). Returns
/// the text to print.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let cmd = it
        .next()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "plan" => cmd_plan(&rest),
        "explain" => cmd_explain(&rest),
        "run" => cmd_run(&rest),
        "predict" => cmd_predict(&rest),
        "compare" => cmd_compare(&rest),
        "profile" => cmd_profile(&rest),
        "contract" => cmd_contract(&rest),
        "trace" => cmd_trace(&rest),
        "bench-serve" => cmd_bench_serve(&rest),
        "serve" => cmd_serve(&rest),
        "top" => cmd_top(&rest),
        "devices" => Ok(cmd_devices()),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn two_positional<'a>(rest: &'a [&String], cmd: &str) -> Result<(&'a str, &'a str), CliError> {
    let pos: Vec<&&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
    if pos.len() != 2 {
        return Err(CliError::Usage(format!("{cmd} needs <extents> <perm>")));
    }
    Ok((pos[0].as_str(), pos[1].as_str()))
}

fn cmd_plan(rest: &[&String]) -> Result<String, CliError> {
    let (e, p) = two_positional(rest, "plan")?;
    let (shape, perm) = parse_problem(e, p)?;
    let sweep = !rest.iter().any(|a| a.as_str() == "--no-sweep");
    let t = Transposer::new_k40c();
    let opts = TransposeOptions {
        model_sweep: sweep,
        ..Default::default()
    };
    let plan = t
        .plan::<f64>(&shape, &perm, &opts)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let launch = plan.launch();
    let mut s = String::new();
    writeln!(s, "problem    : {shape} perm {perm}").unwrap();
    writeln!(s, "fused rank : {}", plan.problem().rank()).unwrap();
    writeln!(s, "schema     : {}", plan.schema()).unwrap();
    writeln!(
        s,
        "launch     : {} blocks x {} threads, {} B smem",
        launch.grid_blocks, launch.threads_per_block, launch.smem_bytes_per_block
    )
    .unwrap();
    writeln!(s, "candidates : {}", plan.candidates_evaluated()).unwrap();
    writeln!(
        s,
        "predicted  : {:.2} us kernel, {:.2} us plan",
        plan.predicted_ns() / 1e3,
        plan.plan_time_ns() / 1e3
    )
    .unwrap();
    Ok(s)
}

fn cmd_explain(rest: &[&String]) -> Result<String, CliError> {
    let (e, p) = two_positional(rest, "explain")?;
    let (shape, perm) = parse_problem(e, p)?;
    let sweep = !rest.iter().any(|a| a.as_str() == "--no-sweep");
    let t = Transposer::new_k40c();
    let opts = TransposeOptions {
        model_sweep: sweep,
        ..Default::default()
    };
    let (_, trace) = t
        .plan_traced::<f64>(&shape, &perm, &opts)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(trace.render())
}

fn cmd_run(rest: &[&String]) -> Result<String, CliError> {
    let (e, p) = two_positional(rest, "run")?;
    let (shape, perm) = parse_problem(e, p)?;
    let verify = rest.iter().any(|a| a.as_str() == "--verify");
    let t = Transposer::new_k40c();
    let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
    let (out, report) = t
        .transpose(&input, &perm)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut s = String::new();
    writeln!(s, "schema    : {}", report.schema).unwrap();
    writeln!(s, "kernel    : {:.2} us", report.kernel_time_ns / 1e3).unwrap();
    writeln!(
        s,
        "bandwidth : {:.1} GB/s (paper metric 2*V*8/t)",
        report.bandwidth_gbps
    )
    .unwrap();
    writeln!(
        s,
        "DRAM tx   : {} loads, {} stores ({} B)",
        report.stats.dram_load_tx,
        report.stats.dram_store_tx,
        report.stats.dram_bytes()
    )
    .unwrap();
    if verify {
        let expect = reference::transpose_reference(&input, &perm)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        if out.data() == expect.data() {
            writeln!(s, "verify    : OK ({} elements)", out.volume()).unwrap();
        } else {
            return Err(CliError::Failed("verification FAILED".into()));
        }
    }
    Ok(s)
}

fn cmd_predict(rest: &[&String]) -> Result<String, CliError> {
    let (e, p) = two_positional(rest, "predict")?;
    let (shape, perm) = parse_problem(e, p)?;
    let t = Transposer::new_k40c();
    let ns = t
        .predict_transpose_ns::<f64>(&shape, &perm)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let bw = 2.0 * shape.volume() as f64 * 8.0 / ns;
    Ok(format!(
        "predicted: {:.2} us (~{:.1} GB/s) for {shape} perm {perm}\n",
        ns / 1e3,
        bw
    ))
}

fn cmd_compare(rest: &[&String]) -> Result<String, CliError> {
    let (e, p) = two_positional(rest, "compare")?;
    let (shape, perm) = parse_problem(e, p)?;
    let vol = shape.volume();
    let bw = |ns: f64| 2.0 * vol as f64 * 8.0 / ns;
    let device = DeviceConfig::k40c();
    let mut s = String::new();
    writeln!(
        s,
        "{:<16} {:>12} {:>12} {:>14}",
        "system", "kernel us", "GB/s", "plan us"
    )
    .unwrap();

    let t = Transposer::new_k40c();
    let plan = t
        .plan::<f64>(&shape, &perm, &TransposeOptions::default())
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let r = t
        .time_plan(&plan)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(
        s,
        "{:<16} {:>12.2} {:>12.1} {:>14.2}",
        format!("TTLG ({})", r.schema),
        r.kernel_time_ns / 1e3,
        bw(r.kernel_time_ns),
        r.plan_time_ns / 1e3
    )
    .unwrap();

    let cutt = CuttLibrary::new(device.clone());
    for (label, mode) in [
        ("cuTT-heuristic", CuttMode::Heuristic),
        ("cuTT-measure", CuttMode::Measure),
    ] {
        let plan = cutt.plan::<f64>(&shape, &perm, mode);
        let r = cutt.time_plan(&plan);
        writeln!(
            s,
            "{:<16} {:>12.2} {:>12.1} {:>14.2}",
            label,
            r.kernel_time_ns / 1e3,
            bw(r.kernel_time_ns),
            r.plan_time_ns / 1e3
        )
        .unwrap();
    }
    let ttc = TtcGenerator::new(device.clone());
    let exe = ttc.generate::<f64>(&shape, &perm);
    let r = ttc.time(&exe);
    writeln!(
        s,
        "{:<16} {:>12.2} {:>12.1} {:>14}",
        "TTC (offline)",
        r.kernel_time_ns / 1e3,
        bw(r.kernel_time_ns),
        "8s codegen"
    )
    .unwrap();
    let nv = NaiveTranspose::new(device);
    let r = nv.time::<f64>(&shape, &perm);
    writeln!(
        s,
        "{:<16} {:>12.2} {:>12.1} {:>14.2}",
        "naive",
        r.kernel_time_ns / 1e3,
        bw(r.kernel_time_ns),
        0.0
    )
    .unwrap();
    Ok(s)
}

fn cmd_profile(rest: &[&String]) -> Result<String, CliError> {
    if rest.iter().any(|a| a.as_str() == "--tail") {
        return cmd_profile_tail(rest);
    }
    let (e, p) = two_positional(rest, "profile")?;
    let (shape, perm) = parse_problem(e, p)?;
    let t = Transposer::new_k40c();
    let plan = t
        .plan::<f64>(&shape, &perm, &TransposeOptions::default())
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let prof = t
        .profile_plan(&plan)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(prof.render())
}

/// `profile --tail`: replay the tail-study workload through a service
/// whose trace window holds the whole run, then render the window as a
/// flame-style phase profile plus the slowest retained exemplars.
fn cmd_profile_tail(rest: &[&String]) -> Result<String, CliError> {
    let mut rounds = 4usize;
    for a in rest {
        if a.as_str() == "--tail" {
            continue;
        } else if let Some(v) = a.strip_prefix("--rounds=") {
            rounds = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --rounds value {v:?}")))?;
        } else {
            return Err(CliError::Usage(format!(
                "profile --tail does not understand {a:?}"
            )));
        }
    }
    if rounds == 0 {
        return Err(CliError::Usage("--rounds must be positive".into()));
    }
    let reqs = ttlg_bench::tail_study::workload(rounds);
    let service = TransposeService::<f64>::with_config(
        Transposer::new_k40c(),
        RuntimeConfig {
            traces: TraceStoreConfig {
                capacity: reqs.len().next_power_of_two(),
                ..TraceStoreConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    for r in service.submit_batch(&reqs) {
        r.map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let mut s = String::new();
    writeln!(
        s,
        "{} requests replayed; phase profile of the trace ring:\n",
        reqs.len()
    )
    .unwrap();
    s.push_str(&service.render_profile());
    writeln!(s, "\nslowest retained exemplars:").unwrap();
    for ((schema, class), entries) in service.exemplars().into_iter().take(5) {
        if let Some(e) = entries.first() {
            writeln!(s, "  [{schema} {class}] {}", e.trace.render()).unwrap();
        }
    }
    Ok(s)
}

fn cmd_contract(rest: &[&String]) -> Result<String, CliError> {
    let pos: Vec<&&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
    if pos.len() != 3 {
        return Err(CliError::Usage(
            "contract needs <spec> <extentsA> <extentsB>".into(),
        ));
    }
    let spec = ContractionSpec::parse(pos[0]).map_err(|e| CliError::Usage(e.to_string()))?;
    let sa = Shape::new(&parse_usize_list(pos[1], "extentsA")?)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let sb = Shape::new(&parse_usize_list(pos[2], "extentsB")?)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let engine = ContractionEngine::new_k40c();
    let plan = engine
        .plan(&spec, &sa, &sb)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let a: DenseTensor<f64> = DenseTensor::iota(sa);
    let b: DenseTensor<f64> = DenseTensor::iota(sb);
    let (c, report) = engine
        .execute(&plan, &a, &b)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut s = String::new();
    writeln!(s, "spec       : {}", pos[0]).unwrap();
    writeln!(
        s,
        "GEMM       : m={} n={} k={}",
        report.gemm.0, report.gemm.1, report.gemm.2
    )
    .unwrap();
    writeln!(
        s,
        "layout     : k-order {:?}{}",
        plan.layout.k_order,
        if plan.layout.swapped {
            " (swapped)"
        } else {
            ""
        }
    )
    .unwrap();
    writeln!(s, "candidates : {}", report.candidates_priced).unwrap();
    for (label, r) in &report.transposes {
        writeln!(
            s,
            "transpose {label}: {} at {:.1} GB/s",
            r.schema, r.bandwidth_gbps
        )
        .unwrap();
    }
    writeln!(s, "output     : {}", c.shape()).unwrap();
    Ok(s)
}

/// The first `take` permutations of `0..rank` in lexicographic order.
fn perms_lex(rank: usize, take: usize) -> Vec<Permutation> {
    fn rec(
        rank: usize,
        take: usize,
        cur: &mut Vec<usize>,
        used: &mut [bool],
        out: &mut Vec<Permutation>,
    ) {
        if out.len() == take {
            return;
        }
        if cur.len() == rank {
            out.push(Permutation::new(cur).expect("valid by construction"));
            return;
        }
        for i in 0..rank {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(rank, take, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(
        rank,
        take,
        &mut Vec::new(),
        &mut vec![false; rank],
        &mut out,
    );
    out
}

/// Output format of `bench-serve`'s metrics block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Text,
    Json,
    Prom,
}

/// `ttlg serve`: run the network gateway until killed. With `--check`,
/// bind, report, and exit immediately (used by tests; CI keeps the
/// long-running form and kills it when done).
fn cmd_serve(rest: &[&String]) -> Result<String, CliError> {
    use ttlg_serve::{Gateway, GatewayConfig};
    let mut addr = "127.0.0.1:8424".to_string();
    let mut cfg = GatewayConfig::default();
    let mut port_file: Option<String> = None;
    let mut history_file: Option<String> = None;
    let mut check = false;
    for a in rest {
        if let Some(v) = a.strip_prefix("--addr=") {
            addr = v.to_string();
        } else if let Some(v) = a.strip_prefix("--workers=") {
            cfg.workers = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --workers value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--queue-capacity=") {
            cfg.queue_capacity = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --queue-capacity value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--interactive-weight=") {
            cfg.interactive_weight = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --interactive-weight value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--rate=") {
            cfg.quota.rate_per_sec = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --rate value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--burst=") {
            cfg.quota.burst = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --burst value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--max-connections=") {
            cfg.max_connections = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --max-connections value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--port-file=") {
            port_file = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--history-file=") {
            history_file = Some(v.to_string());
        } else if a.as_str() == "--check" {
            check = true;
        } else {
            return Err(CliError::Usage(format!("serve does not understand {a:?}")));
        }
    }
    if cfg.workers == 0 || cfg.queue_capacity == 0 {
        return Err(CliError::Usage(
            "--workers and --queue-capacity must be positive".into(),
        ));
    }
    let service = Arc::new(TransposeService::new_k40c());
    let mut history_note = String::new();
    if let Some(path) = &history_file {
        let restored = service
            .set_history_file(path.clone())
            .map_err(CliError::Failed)?;
        history_note = format!("history file {path}: {restored} series restored");
    }
    let gw = Gateway::start(service, cfg);
    let mut server = ttlg_serve::server::spawn(gw, &addr)
        .map_err(|e| CliError::Failed(format!("could not bind {addr}: {e}")))?;
    let bound = server.addr();
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}\n", bound.port()))
            .map_err(|e| CliError::Failed(format!("could not write {path}: {e}")))?;
    }
    if check {
        server.stop();
        let mut out = format!("ttlg-serve bound {bound}, config OK\n");
        if !history_note.is_empty() {
            out.push_str(&history_note);
            out.push('\n');
        }
        return Ok(out);
    }
    // The long-running path: announce on stdout (flushed immediately so
    // supervisors can watch for it) and serve until the process dies.
    println!("ttlg-serve listening on http://{bound}");
    println!("  POST /v1/transpose   GET /v1/explain   GET /v1/query_range   GET /metrics   GET /healthz");
    if !history_note.is_empty() {
        println!("  {history_note}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Render values as a unicode sparkline, scaled to the finite min/max.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    finite
        .iter()
        .map(|v| {
            let idx = if max > min {
                ((v - min) / (max - min) * 7.0).round() as usize
            } else {
                0
            };
            BARS[idx.min(7)]
        })
        .collect()
}

/// One dashboard frame: poll `/v1/query_range` for each row and
/// `/v1/alerts` for the footer, and render the whole thing as text.
fn top_frame(addr: std::net::SocketAddr, window_s: u64) -> Result<String, CliError> {
    use ttlg_serve::client::HttpClient;
    let mut client = HttpClient::connect(addr).map_err(|e| {
        CliError::Failed(format!(
            "could not connect to {addr}: {e} (is `ttlg serve` running?)"
        ))
    })?;
    // No spaces inside the expressions so the paths need no encoding.
    let rows = [
        ("throughput", "sum(rate(ttlg_requests_total))", "req/s"),
        (
            "exec p99",
            "quantile_over_time(0.99,ttlg_exec_latency_us)",
            "us",
        ),
        ("shed rate", "sum(rate(ttlg_gateway_shed_total))", "req/s"),
        (
            "coalesced",
            "sum(rate(ttlg_coalesced_requests_total))",
            "req/s",
        ),
        ("uptime", "max_over_time(ttlg_uptime_seconds)", "s"),
    ];
    let mut s = String::new();
    writeln!(s, "ttlg top — {addr} — last {window_s}s").unwrap();
    for (label, query, unit) in rows {
        let path = format!("/v1/query_range?series={query}&window={window_s}s");
        let resp = client
            .get(&path)
            .map_err(|e| CliError::Failed(format!("query failed: {e}")))?;
        if resp.status != 200 {
            writeln!(s, "  {label:<11} ! {}", resp.body_text().trim()).unwrap();
            continue;
        }
        let doc = ttlg_serve::json::parse(&resp.body)
            .map_err(|e| CliError::Failed(format!("bad query_range body: {e}")))?;
        let values: Vec<f64> = match doc.get("series") {
            Some(ttlg_serve::json::Json::Arr(series)) if !series.is_empty() => {
                match series[0].get("points") {
                    Some(ttlg_serve::json::Json::Arr(pts)) => pts
                        .iter()
                        .filter_map(|p| match p {
                            ttlg_serve::json::Json::Arr(tv) if tv.len() == 2 => tv[1].as_f64(),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                }
            }
            _ => Vec::new(),
        };
        let latest = values.iter().rev().copied().find(|v| v.is_finite());
        // Keep the frame narrow: the most recent 40 points suffice.
        let tail = &values[values.len().saturating_sub(40)..];
        match latest {
            Some(v) => {
                writeln!(s, "  {label:<11} {v:>10.2} {unit:<5} {}", sparkline(tail)).unwrap()
            }
            None => writeln!(s, "  {label:<11} {:>10} {unit:<5}", "-").unwrap(),
        }
    }
    let resp = client
        .get("/v1/alerts")
        .map_err(|e| CliError::Failed(format!("alerts fetch failed: {e}")))?;
    let mut firing: Vec<String> = Vec::new();
    let mut pending = 0usize;
    if resp.status == 200 {
        if let Ok(doc) = ttlg_serve::json::parse(&resp.body) {
            if let Some(ttlg_serve::json::Json::Arr(rules)) = doc.get("rules") {
                for r in rules {
                    match r.get("state").and_then(|v| v.as_str()) {
                        Some("firing") => {
                            if let Some(name) = r.get("rule").and_then(|v| v.as_str()) {
                                firing.push(name.to_string());
                            }
                        }
                        Some("pending") => pending += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    if firing.is_empty() {
        writeln!(s, "  alerts      none firing ({pending} pending)").unwrap();
    } else {
        writeln!(s, "  alerts      FIRING: {}", firing.join(", ")).unwrap();
    }
    Ok(s)
}

/// `ttlg top`: live dashboard over a running `ttlg serve`, polling its
/// `/v1/query_range` endpoint. `--once` renders a single frame and
/// returns (used by tests and CI); the default loops until killed.
fn cmd_top(rest: &[&String]) -> Result<String, CliError> {
    let mut addr = "127.0.0.1:8424".to_string();
    let mut once = false;
    let mut interval = 2.0f64;
    let mut window_s = 60u64;
    for a in rest {
        if let Some(v) = a.strip_prefix("--addr=") {
            addr = v.to_string();
        } else if a.as_str() == "--once" {
            once = true;
        } else if let Some(v) = a.strip_prefix("--interval=") {
            interval = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --interval value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--window=") {
            window_s = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --window value {v:?}")))?;
        } else {
            return Err(CliError::Usage(format!("top does not understand {a:?}")));
        }
    }
    if !(interval.is_finite() && interval > 0.0) || window_s == 0 {
        return Err(CliError::Usage(
            "--interval and --window must be positive".into(),
        ));
    }
    use std::net::ToSocketAddrs as _;
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| CliError::Usage(format!("could not resolve --addr={addr}")))?;
    if once {
        return top_frame(sock, window_s);
    }
    loop {
        let frame = top_frame(sock, window_s)?;
        // Clear screen + home, then the frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// `ttlg trace`: serve one request through a loopback gateway over
/// real TCP — the same path production traffic takes — and render the
/// sampled span tree as a flame-style trace.
fn cmd_trace(rest: &[&String]) -> Result<String, CliError> {
    use ttlg_serve::{client::HttpClient, Gateway, GatewayConfig};
    let (e, p) = two_positional(rest, "trace")?;
    let (shape, perm) = parse_problem(e, p)?;
    let join = |v: &[usize]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let body = format!(
        "{{\"extents\":[{}],\"perm\":[{}]}}",
        join(shape.extents()),
        join(perm.as_slice())
    );
    let gw = Gateway::start(
        Arc::new(TransposeService::new_k40c()),
        GatewayConfig::default(),
    );
    let mut server = ttlg_serve::server::spawn(gw, "127.0.0.1:0")
        .map_err(|e| CliError::Failed(format!("could not bind loopback: {e}")))?;
    let result = (|| {
        let mut client = HttpClient::connect(server.addr())
            .map_err(|e| CliError::Failed(format!("could not connect: {e}")))?;
        let r = client
            .post_json("/v1/transpose", &[("x-ttlg-tenant", "cli")], &body)
            .map_err(|e| CliError::Failed(format!("request failed: {e}")))?;
        if r.status != 200 {
            return Err(CliError::Failed(format!(
                "transpose failed ({}): {}",
                r.status,
                r.body_text()
            )));
        }
        let doc = ttlg_serve::json::parse(&r.body)
            .map_err(|e| CliError::Failed(format!("bad response body: {e}")))?;
        let trace_id = doc
            .get("trace_id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| CliError::Failed("response carried no trace_id".into()))?
            .to_string();
        let flame = client
            .get(&format!("/v1/trace/{trace_id}?format=flame"))
            .map_err(|e| CliError::Failed(format!("trace fetch failed: {e}")))?;
        if flame.status != 200 {
            return Err(CliError::Failed(format!(
                "trace fetch failed ({}): {}",
                flame.status,
                flame.body_text()
            )));
        }
        Ok(flame.body_text())
    })();
    server.stop();
    result
}

/// Layout version stamped into every `BENCH_*.json` artifact. Bump when
/// a study changes its document shape, so downstream tooling can reject
/// artifacts written by an incompatible binary.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Prefix a study document with its provenance: schema version, the
/// writer's thread count, and the study name derived from the default
/// filename. The stamp rides inside the same JSON object, so existing
/// consumers keep parsing unchanged.
fn stamp_provenance(json: &str, default_path: &str) -> String {
    let study = default_path
        .trim_start_matches("BENCH_")
        .trim_end_matches(".json");
    let Some(body) = json.strip_prefix('{') else {
        return json.to_string();
    };
    format!(
        "{{\n  \"schema_version\": {ARTIFACT_SCHEMA_VERSION},\n  \
         \"host_threads\": {},\n  \"artifact\": \"{study}\",{body}",
        ttlg_tensor::parallel::default_threads()
    )
}

/// Write a study artifact: `--json-out=PATH` wins, otherwise the
/// study's default filename. Every bench-serve mode funnels through
/// this one path so the flag behaves identically everywhere — and every
/// artifact gets the same provenance stamp.
fn write_artifact(
    json_out: Option<String>,
    default_path: &str,
    json: &str,
) -> Result<String, CliError> {
    let path = json_out.unwrap_or_else(|| default_path.to_string());
    std::fs::write(&path, stamp_provenance(json, default_path))
        .map_err(|e| CliError::Failed(format!("could not write {path}: {e}")))?;
    Ok(path)
}

/// Parse a prior `BENCH_serve.json` into a regression baseline:
/// `(requests_per_s, exec_p99_us)`. Only artifacts carrying the
/// matching provenance stamp (schema version + `"artifact": "serve"`)
/// qualify; anything else — other studies, hand-edited files, older
/// layouts — is silently ignored. `exec_p99_us` is `None` for
/// artifacts written before the field existed.
fn parse_serve_baseline(text: &str) -> Option<(f64, Option<f64>)> {
    let doc = ttlg_serve::json::parse(text.as_bytes()).ok()?;
    let version = doc.get("schema_version")?.as_usize()?;
    if version != ARTIFACT_SCHEMA_VERSION as usize {
        return None;
    }
    if doc.get("artifact")?.as_str()? != "serve" {
        return None;
    }
    let rps = doc.get("requests_per_s")?.as_f64()?;
    let p99 = doc.get("exec_p99_us").and_then(|v| v.as_f64());
    Some((rps, p99))
}

fn cmd_bench_serve(rest: &[&String]) -> Result<String, CliError> {
    let mut distinct = 16usize;
    let mut rounds = 4usize;
    let mut extents = vec![8usize, 6, 5, 4];
    let mut extents_given = false;
    let mut format = MetricsFormat::Text;
    let mut autotune = false;
    let mut tail = false;
    let mut gateway = false;
    let mut trace = false;
    let mut cpu = false;
    let mut r#async = false;
    let mut seconds = 1.0f64;
    let mut overload = 2.0f64;
    let mut seconds_given = false;
    let mut overload_given = false;
    let mut json_out: Option<String> = None;
    for a in rest {
        if let Some(v) = a.strip_prefix("--perms=") {
            distinct = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --perms value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--rounds=") {
            rounds = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --rounds value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--extents=") {
            extents = parse_usize_list(v, "extents")?;
            extents_given = true;
        } else if let Some(v) = a.strip_prefix("--json-out=") {
            json_out = Some(v.to_string());
        } else if a.as_str() == "--autotune" {
            autotune = true;
        } else if a.as_str() == "--tail" {
            tail = true;
        } else if a.as_str() == "--gateway" {
            gateway = true;
        } else if a.as_str() == "--trace" {
            trace = true;
        } else if a.as_str() == "--cpu" {
            cpu = true;
        } else if a.as_str() == "--async" {
            r#async = true;
        } else if let Some(v) = a.strip_prefix("--seconds=") {
            seconds = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --seconds value {v:?}")))?;
            seconds_given = true;
        } else if let Some(v) = a.strip_prefix("--overload=") {
            overload = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --overload value {v:?}")))?;
            overload_given = true;
        } else if let Some(v) = a.strip_prefix("--metrics-format=") {
            format = match v {
                "text" => MetricsFormat::Text,
                "json" => MetricsFormat::Json,
                "prom" => MetricsFormat::Prom,
                other => {
                    return Err(CliError::Usage(format!(
                        "bad --metrics-format value {other:?} (text|json|prom)"
                    )))
                }
            };
        } else {
            return Err(CliError::Usage(format!(
                "bench-serve does not understand {a:?}"
            )));
        }
    }
    if distinct == 0 || rounds == 0 {
        return Err(CliError::Usage(
            "--perms and --rounds must be positive".into(),
        ));
    }
    if overload_given && !gateway && !r#async {
        return Err(CliError::Usage(
            "--overload only applies with --gateway or --async".into(),
        ));
    }
    if seconds_given && !gateway && !cpu && !r#async {
        return Err(CliError::Usage(
            "--seconds only applies with --gateway, --cpu, or --async".into(),
        ));
    }
    if r#async {
        if cpu || gateway || tail || autotune || trace || extents_given {
            return Err(CliError::Usage(
                "--async runs the fixed duplicate-heavy workload; \
                 --cpu/--gateway/--tail/--autotune/--trace/--extents do not apply"
                    .into(),
            ));
        }
        if !(seconds.is_finite() && seconds > 0.0 && overload.is_finite() && overload > 0.0) {
            return Err(CliError::Usage(
                "--seconds and --overload must be positive".into(),
            ));
        }
        let study = ttlg_bench::async_study::run(seconds, overload);
        let path = write_artifact(json_out, "BENCH_async.json", &study.to_json())?;
        let mut s = study.render();
        writeln!(s, "wrote {path}").unwrap();
        return Ok(s);
    }
    if cpu {
        if gateway || tail || autotune || trace || extents_given {
            return Err(CliError::Usage(
                "--cpu runs the fixed taxonomy sweep; --gateway/--tail/--autotune/--trace/--extents do not apply"
                    .into(),
            ));
        }
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(CliError::Usage("--seconds must be positive".into()));
        }
        let study = ttlg_bench::cpu_study::run(seconds);
        let path = write_artifact(json_out, "BENCH_cpu.json", &study.to_json())?;
        let mut s = study.render();
        writeln!(s, "wrote {path}").unwrap();
        return Ok(s);
    }
    if trace {
        if gateway || tail || autotune || extents_given {
            return Err(CliError::Usage(
                "--trace runs its own loopback workload; --gateway/--tail/--autotune/--extents do not apply"
                    .into(),
            ));
        }
        if distinct > 24 {
            return Err(CliError::Usage(format!(
                "the trace study uses rank-4 permutations (max 24), --perms={distinct} asked for more"
            )));
        }
        let study = ttlg_bench::trace_study::run(distinct, rounds);
        let path = write_artifact(json_out, "BENCH_trace.json", &study.to_json())?;
        let mut s = study.render();
        writeln!(s, "wrote {path}").unwrap();
        return Ok(s);
    }
    if gateway {
        if tail || autotune || extents_given {
            return Err(CliError::Usage(
                "--gateway runs its own loopback workload; --tail/--autotune/--extents do not apply"
                    .into(),
            ));
        }
        if !(seconds.is_finite() && seconds > 0.0 && overload.is_finite() && overload > 0.0) {
            return Err(CliError::Usage(
                "--seconds and --overload must be positive".into(),
            ));
        }
        let study = ttlg_bench::gateway_study::run(seconds, overload);
        let path = write_artifact(json_out, "BENCH_gateway.json", &study.to_json())?;
        let mut s = study.render();
        writeln!(s, "wrote {path}").unwrap();
        return Ok(s);
    }
    if tail {
        if autotune || extents_given {
            return Err(CliError::Usage(
                "--tail runs the fixed skewed workload; --autotune and --extents do not apply"
                    .into(),
            ));
        }
        let study = ttlg_bench::tail_study::run(rounds);
        let path = write_artifact(json_out, "BENCH_tail.json", &study.to_json())?;
        let mut s = study.render();
        writeln!(s, "wrote {path}").unwrap();
        return Ok(s);
    }
    if autotune {
        if extents_given {
            return Err(CliError::Usage(
                "--autotune runs the fixed rank-4 study workload; --extents does not apply".into(),
            ));
        }
        if distinct > 24 {
            return Err(CliError::Usage(format!(
                "the autotune study uses rank-4 permutations (max 24), --perms={distinct} asked for more"
            )));
        }
        let study = ttlg_bench::autotune_study::run(distinct, rounds);
        let path = write_artifact(json_out, "BENCH_autotune.json", &study.to_json())?;
        let mut s = study.render();
        writeln!(s, "wrote {path}").unwrap();
        return Ok(s);
    }
    let shape = Shape::new(&extents).map_err(|e| CliError::Usage(e.to_string()))?;
    let perms = perms_lex(shape.rank(), distinct);
    if perms.len() < distinct {
        return Err(CliError::Usage(format!(
            "rank {} has only {} permutations, --perms={distinct} asked for more",
            shape.rank(),
            perms.len()
        )));
    }

    // One batch per round: the first round populates the plan cache,
    // later rounds replay the same keys and should be pure hits.
    let input = Arc::new(DenseTensor::<f64>::iota(shape.clone()));
    let reqs: Vec<TransposeRequest<f64>> = perms
        .iter()
        .map(|p| TransposeRequest::new(Arc::clone(&input), p.clone()))
        .collect();
    let service = TransposeService::<f64>::new_k40c();
    let t0 = Instant::now();
    let mut failures = 0usize;
    for _ in 0..rounds {
        failures += service
            .submit_batch(&reqs)
            .iter()
            .filter(|r| r.is_err())
            .count();
    }
    let elapsed = t0.elapsed();

    let total = distinct * rounds;
    let stats = service.cache_stats();

    // The perf-trajectory artifact: written in text mode (the default
    // invocation) or whenever a destination is named explicitly. A
    // prior artifact at the same destination becomes the regression
    // baseline: its throughput and exec p99 are folded into a
    // `baseline_delta` section before it is overwritten.
    let mut baseline_note = String::new();
    let artifact = if json_out.is_some() || format == MetricsFormat::Text {
        let wall_ms = elapsed.as_secs_f64() * 1e3;
        let rps = total as f64 / elapsed.as_secs_f64();
        let prediction = service.metrics().prediction();
        let p99 = service.metrics().exec_latency.quantile_us(0.99);
        let exec_p99_us = if p99.is_finite() { p99 } else { 0.0 };
        let dest = json_out
            .clone()
            .unwrap_or_else(|| "BENCH_serve.json".to_string());
        let baseline = std::fs::read_to_string(&dest)
            .ok()
            .and_then(|text| parse_serve_baseline(&text));
        let mut json = format!(
            "{{\n  \"study\": \"serve\",\n  \"requests\": {total},\n  \
             \"distinct_perms\": {distinct},\n  \"rounds\": {rounds},\n  \
             \"wall_ms\": {wall_ms},\n  \"requests_per_s\": {rps},\n  \
             \"exec_p99_us\": {exec_p99_us},\n  \
             \"failures\": {failures},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"cache_evictions\": {},\n  \
             \"prediction_samples\": {},\n  \"geo_mean_error\": {}",
            stats.hits,
            stats.misses,
            stats.evictions,
            prediction.total_count(),
            prediction.overall_geo_mean_error(),
        );
        if let Some((base_rps, base_p99)) = baseline {
            let throughput_ratio = if base_rps > 0.0 { rps / base_rps } else { 1.0 };
            let p99_ratio = base_p99
                .filter(|b| *b > 0.0 && exec_p99_us > 0.0)
                .map(|b| exec_p99_us / b);
            write!(
                json,
                ",\n  \"baseline_delta\": {{\n    \
                 \"baseline_requests_per_s\": {base_rps},\n    \
                 \"throughput_ratio\": {throughput_ratio},\n    \
                 \"baseline_exec_p99_us\": {},\n    \
                 \"p99_ratio\": {}\n  }}",
                base_p99.map_or("null".to_string(), |b| b.to_string()),
                p99_ratio.map_or("null".to_string(), |r| r.to_string()),
            )
            .unwrap();
            writeln!(
                baseline_note,
                "baseline  : throughput x{throughput_ratio:.2}{} vs prior artifact",
                p99_ratio.map_or(String::new(), |r| format!(", exec p99 x{r:.2}")),
            )
            .unwrap();
            if throughput_ratio < 0.9 {
                writeln!(
                    baseline_note,
                    "WARNING: throughput regressed {:.0}% vs baseline ({:.0} -> {:.0} req/s)",
                    (1.0 - throughput_ratio) * 100.0,
                    base_rps,
                    rps
                )
                .unwrap();
            }
            if let Some(r) = p99_ratio {
                if r > 1.1 {
                    writeln!(
                        baseline_note,
                        "WARNING: exec p99 regressed {:.0}% vs baseline ({:.1} -> {:.1} us)",
                        (r - 1.0) * 100.0,
                        base_p99.unwrap_or(0.0),
                        exec_p99_us
                    )
                    .unwrap();
                }
            }
        }
        json.push_str("\n}\n");
        Some(write_artifact(json_out, "BENCH_serve.json", &json)?)
    } else {
        None
    };

    // The machine-readable formats are emitted bare so the output can be
    // piped straight into a scraper or parser.
    match format {
        MetricsFormat::Json => return Ok(service.export_json()),
        MetricsFormat::Prom => return Ok(service.export_prometheus()),
        MetricsFormat::Text => {}
    }
    let mut s = String::new();
    writeln!(
        s,
        "workload  : {total} requests = {rounds} rounds x {distinct} permutations of {shape}"
    )
    .unwrap();
    writeln!(
        s,
        "wall-clock: {:.2} ms ({:.0} requests/s)",
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64()
    )
    .unwrap();
    writeln!(s, "failures  : {failures}").unwrap();
    writeln!(
        s,
        "plan cache: {} hits, {} misses, {} evictions",
        stats.hits, stats.misses, stats.evictions
    )
    .unwrap();
    if !baseline_note.is_empty() {
        s.push_str(&baseline_note);
    }
    s.push('\n');
    s.push_str(&service.metrics_report());
    if let Some(path) = artifact {
        writeln!(s, "\nwrote {path}").unwrap();
    }
    Ok(s)
}

fn cmd_devices() -> String {
    let mut s = String::new();
    for d in [DeviceConfig::k40c(), DeviceConfig::test_tiny()] {
        writeln!(
            s,
            "{:<24} {:>3} SMs  {:>6.0} MHz  {:>6.0} GB/s peak  {:>3} KiB smem/SM",
            d.name,
            d.num_sms,
            d.clock_ghz * 1000.0,
            d.dram_peak_gbps,
            d.smem_per_sm / 1024
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        run_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn plan_command() {
        let out = run(&["plan", "16,16,16", "2,1,0"]).unwrap();
        assert!(out.contains("schema"));
        assert!(out.contains("Orthogonal"));
    }

    #[test]
    fn explain_command_prints_full_decision_trace() {
        // A 6D Orthogonal-Distinct problem: the trace must show every
        // candidate's slice sizes with predicted times and mark the
        // chosen one.
        let out = run(&["explain", "16,16,16,16,16,16", "5,4,3,2,1,0"]).unwrap();
        assert!(out.contains("decision trace"), "{out}");
        assert!(out.contains("admissible"), "{out}");
        assert!(out.contains("Orthogonal-Distinct"), "{out}");
        assert!(out.contains("slice in="), "{out}");
        assert!(out.contains("pred"), "{out}");
        assert!(out.contains("chosen:"), "{out}");
        assert!(out.contains('*'), "chosen candidate marker: {out}");
        assert!(out.contains("sweep rejections"), "{out}");
    }

    #[test]
    fn run_command_with_verify() {
        let out = run(&["run", "16,8,4", "2,0,1", "--verify"]).unwrap();
        assert!(out.contains("verify    : OK"));
    }

    #[test]
    fn predict_command() {
        let out = run(&["predict", "32,32", "1,0"]).unwrap();
        assert!(out.contains("predicted:"));
    }

    #[test]
    fn compare_command_lists_all_systems() {
        let out = run(&["compare", "16,16,16", "2,1,0"]).unwrap();
        assert!(out.contains("TTLG"));
        assert!(out.contains("cuTT-heuristic"));
        assert!(out.contains("cuTT-measure"));
        assert!(out.contains("TTC"));
        assert!(out.contains("naive"));
    }

    #[test]
    fn profile_command() {
        let out = run(&["profile", "32,32,32", "2,1,0"]).unwrap();
        assert!(out.contains("bottleneck"));
        assert!(out.contains("dram"));
    }

    #[test]
    fn contract_command() {
        let out = run(&["contract", "kil,ljk->ij", "4,6,5", "5,7,4"]).unwrap();
        assert!(out.contains("GEMM"));
        assert!(out.contains("output"));
    }

    #[test]
    fn bench_serve_command() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json");
        let out = run(&[
            "bench-serve",
            "--perms=4",
            "--rounds=2",
            "--extents=6,5,4",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("8 requests = 2 rounds x 4 permutations"));
        assert!(out.contains("plan cache: 4 hits, 4 misses"));
        assert!(out.contains("ttlg-runtime metrics"));
        assert!(out.contains("failures  : 0"));
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"study\": \"serve\""));
        assert!(json.contains("\"requests\": 8"));
        assert!(json.contains("\"geo_mean_error\""));
    }

    #[test]
    fn bench_serve_autotune_writes_artifact() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("autotune.json");
        let out = run(&[
            "bench-serve",
            "--autotune",
            "--perms=3",
            "--rounds=2",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("model-only"), "{out}");
        assert!(out.contains("autotuned"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"geo_error_before\""));
        assert!(json.contains("\"geo_error_after\""));
        assert!(json.contains("\"plans_warmed\": 3"));
    }

    #[test]
    fn bench_serve_cpu_writes_artifact_with_provenance() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cpu.json");
        let out = run(&[
            "bench-serve",
            "--cpu",
            "--seconds=1",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("tiled CPU backend vs naive odometer"), "{out}");
        assert!(out.contains("geo-mean speedup"), "{out}");
        assert!(out.contains("thread scaling"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        // The provenance stamp leads every artifact.
        assert!(json.starts_with("{\n  \"schema_version\": 1,"), "{json}");
        assert!(json.contains("\"host_threads\":"));
        assert!(json.contains("\"artifact\": \"cpu\""));
        assert!(json.contains("\"study\": \"cpu\""));
        assert!(json.contains("\"geo_mean_speedup\""));
        assert!(json.contains("\"classes\""));
        assert!(json.contains("\"scaling\""));
        assert!(json.contains("\"cpu_pred_geo_err\""));
        assert!(json.contains("\"backend_requests_cpu\""));
        // --seconds gates on --gateway or --cpu; --overload stays
        // gateway-only; --cpu rejects the other studies' knobs.
        assert!(matches!(
            run(&["bench-serve", "--seconds=1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--cpu", "--overload=2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--cpu", "--tail"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--cpu", "--seconds=0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn profile_tail_renders_flame_tree() {
        let out = run(&["profile", "--tail", "--rounds=2"]).unwrap();
        assert!(out.contains("phase profile of the trace ring"), "{out}");
        assert!(out.contains("execute"), "{out}");
        assert!(out.contains("p99~"), "{out}");
        assert!(out.contains("slowest retained exemplars:"), "{out}");
        assert!(matches!(
            run(&["profile", "--tail", "--bogus"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["profile", "--tail", "--rounds=0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_tail_writes_artifact() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.json");
        let out = run(&[
            "bench-serve",
            "--tail",
            "--rounds=2",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("tail-latency attribution"), "{out}");
        assert!(out.contains("dominant @p99"), "{out}");
        assert!(out.contains("slo:"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"study\": \"tail\""));
        assert!(json.contains("\"dominant_phase_at_p99\""));
        assert!(json.contains("\"phase_at_p99\""));
        assert!(json.contains("\"exemplars\": [{"));
        assert!(json.contains("\"slo\""));
    }

    #[test]
    fn bench_serve_gateway_writes_artifact() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gateway.json");
        let out = run(&[
            "bench-serve",
            "--gateway",
            "--seconds=0.2",
            "--overload=2.0",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("gateway loopback study"), "{out}");
        assert!(out.contains("shed rate"), "{out}");
        assert!(out.contains("fairness"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"study\": \"gateway\""));
        assert!(json.contains("\"shed_rate\""));
        assert!(json.contains("\"classes\""));
        assert!(json.contains("\"tenants\""));
        // Conflicts and misuse are usage errors, not silent ignores.
        assert!(matches!(
            run(&["bench-serve", "--gateway", "--tail"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--seconds=1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--gateway", "--seconds=0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_async_writes_artifact_with_provenance() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async.json");
        let out = run(&[
            "bench-serve",
            "--async",
            "--seconds=0.2",
            "--overload=2.0",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("async submission coalescing study"), "{out}");
        assert!(out.contains("fewer kernels"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        // The provenance stamp leads every artifact.
        assert!(json.starts_with("{\n  \"schema_version\": 1,"), "{json}");
        assert!(json.contains("\"host_threads\":"));
        assert!(json.contains("\"artifact\": \"async\""));
        assert!(json.contains("\"study\": \"async\""));
        assert!(json.contains("\"baseline\""));
        assert!(json.contains("\"coalesced\""));
        assert!(json.contains("\"executions_per_request\""));
        assert!(json.contains("\"p99_ratio\""));
        // --async is exclusive with the other studies and validates its
        // knobs like --gateway does.
        assert!(matches!(
            run(&["bench-serve", "--async", "--cpu"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--async", "--tail"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--async", "--extents=4,4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--async", "--seconds=0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--overload=2"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_check_binds_and_writes_port_file() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.port");
        let out = run(&[
            "serve",
            "--addr=127.0.0.1:0",
            "--workers=2",
            "--check",
            &format!("--port-file={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("config OK"), "{out}");
        let port: u16 = std::fs::read_to_string(&path)
            .unwrap()
            .trim()
            .parse()
            .expect("port file holds the bound port");
        assert!(port > 0);
        assert!(matches!(
            run(&["serve", "--workers=banana"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "--workers=0", "--check"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "--bogus"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_command_renders_flame_tree() {
        let out = run(&["trace", "16,8,4", "2,0,1"]).unwrap();
        assert!(out.contains("request"), "{out}");
        assert!(out.contains("plan"), "{out}");
        assert!(out.contains("execute"), "{out}");
        assert!(out.contains("kernel"), "{out}");
        assert!(out.contains("decision trace"), "{out}");
        assert!(matches!(run(&["trace", "16,8,4"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["trace", "16,8,4", "1,0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_trace_writes_artifact() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = run(&[
            "bench-serve",
            "--trace",
            "--perms=4",
            "--rounds=2",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("tracing & drift-alert study"), "{out}");
        assert!(out.contains("prediction-drift rule"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"study\": \"trace\""));
        assert!(json.contains("\"drift_fired\": true"));
        assert!(json.contains("\"drift_resolved\": true"));
        assert!(json.contains("\"sampled_traces\""));
        assert!(json.contains("\"dropped_traces\""));
        // Conflicts are usage errors, not silent ignores.
        assert!(matches!(
            run(&["bench-serve", "--trace", "--gateway"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--trace", "--tail"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--trace", "--extents=6,5,4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--trace", "--perms=25"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_tail_rejects_bad_flags() {
        assert!(matches!(
            run(&["bench-serve", "--tail", "--extents=6,5,4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--tail", "--autotune"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_autotune_rejects_bad_flags() {
        assert!(matches!(
            run(&["bench-serve", "--autotune", "--extents=6,5,4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--autotune", "--perms=25"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_prometheus_format() {
        let out = run(&[
            "bench-serve",
            "--perms=4",
            "--rounds=2",
            "--extents=6,5,4",
            "--metrics-format=prom",
        ])
        .unwrap();
        assert!(!out.trim().is_empty(), "metrics must be non-empty");
        assert!(out.contains("# TYPE ttlg_requests_total counter"), "{out}");
        assert!(out.contains("ttlg_requests_total{schema="), "{out}");
        assert!(
            out.contains("ttlg_exec_latency_us_quantile{quantile=\"0.5\"}"),
            "{out}"
        );
        assert!(out.contains("quantile=\"0.95\""), "{out}");
        assert!(out.contains("quantile=\"0.99\""), "{out}");
        assert!(out.contains("ttlg_prediction_samples_total"), "{out}");
        assert!(out.contains("ttlg_prediction_geo_mean_error"), "{out}");
        // Every non-comment line parses as `name{labels} value`.
        for line in out.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }

    #[test]
    fn bench_serve_json_format() {
        let out = run(&[
            "bench-serve",
            "--perms=2",
            "--rounds=1",
            "--extents=6,5,4",
            "--metrics-format=json",
        ])
        .unwrap();
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
        assert!(out.contains("\"ttlg_requests_total\""), "{out}");
        assert!(out.contains("\"histograms\""), "{out}");
        assert!(matches!(
            run(&["bench-serve", "--metrics-format=xml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_rejects_impossible_perm_count() {
        assert!(matches!(
            run(&["bench-serve", "--perms=9", "--extents=4,4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["bench-serve", "--bogus"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn devices_command() {
        let out = run(&["devices"]).unwrap();
        assert!(out.contains("K40c"));
    }

    #[test]
    fn serve_check_accepts_history_file() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve-check.history");
        let _ = std::fs::remove_file(&path);
        let out = run(&[
            "serve",
            "--addr=127.0.0.1:0",
            "--check",
            &format!("--history-file={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("config OK"), "{out}");
        assert!(out.contains("0 series restored"), "{out}");
        // A corrupt history file is a hard error, not a silent reset.
        std::fs::write(&path, "not a history file\n").unwrap();
        let err = run(&[
            "serve",
            "--addr=127.0.0.1:0",
            "--check",
            &format!("--history-file={}", path.display()),
        ]);
        assert!(matches!(err, Err(CliError::Failed(_))), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// `ttlg top --once` renders one dashboard frame from a live serve
    /// endpoint: every row resolves through /v1/query_range and the
    /// alerts footer through /v1/alerts.
    #[test]
    fn top_once_renders_dashboard_frame() {
        use ttlg_serve::{client::HttpClient, Gateway, GatewayConfig};
        let gw = Gateway::start(
            Arc::new(TransposeService::new_k40c()),
            GatewayConfig::default(),
        );
        let mut server =
            ttlg_serve::server::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("bind loopback");
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        for _ in 0..2 {
            let r = client
                .post_json("/v1/transpose", &[], r#"{"extents":[8,8],"perm":[1,0]}"#)
                .expect("transpose");
            assert_eq!(r.status, 200, "{}", r.body_text());
            gw.service().scrape_history_once();
        }
        let out = run(&["top", "--once", &format!("--addr={}", server.addr())]).unwrap();
        assert!(out.contains("ttlg top"), "{out}");
        for row in ["throughput", "exec p99", "shed rate", "uptime", "alerts"] {
            assert!(out.contains(row), "{row} missing from:\n{out}");
        }
        assert!(!out.contains('!'), "no row may error:\n{out}");
        server.stop();
        gw.stop();
        // Flag validation.
        assert!(matches!(run(&["top", "--bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["top", "--interval=0", "--once"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["top", "--addr=not-an-addr", "--once"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn sparkline_scales_and_skips_nonfinite() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁", "flat series stays low");
        let line = sparkline(&[0.0, f64::NAN, 7.0]);
        assert_eq!(line, "▁█", "non-finite skipped, extremes span the bars");
    }

    /// A prior serve artifact at the destination becomes the regression
    /// baseline: the new artifact carries a `baseline_delta` section
    /// and the text output warns when throughput or p99 regress >10%.
    #[test]
    fn bench_serve_reports_baseline_delta_and_warns_on_regression() {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve-baseline.json");
        // An impossibly fast baseline: any real run regresses >10%.
        std::fs::write(
            &path,
            "{\n  \"schema_version\": 1,\n  \"host_threads\": 8,\n  \
             \"artifact\": \"serve\",\n  \"study\": \"serve\",\n  \
             \"requests_per_s\": 1e12,\n  \"exec_p99_us\": 1e-6\n}\n",
        )
        .unwrap();
        let out = run(&[
            "bench-serve",
            "--perms=4",
            "--rounds=2",
            "--extents=6,5,4",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("baseline  : throughput x"), "{out}");
        assert!(out.contains("WARNING: throughput regressed"), "{out}");
        assert!(out.contains("WARNING: exec p99 regressed"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"exec_p99_us\""), "{json}");
        assert!(json.contains("\"baseline_delta\""), "{json}");
        assert!(json.contains("\"throughput_ratio\""), "{json}");
        assert!(json.contains("\"p99_ratio\""), "{json}");
        // A non-serve artifact at the destination is not a baseline.
        let other = dir.join("serve-baseline-other.json");
        std::fs::write(
            &other,
            "{\n  \"schema_version\": 1,\n  \"artifact\": \"cpu\",\n  \
             \"requests_per_s\": 1e12\n}\n",
        )
        .unwrap();
        let out = run(&[
            "bench-serve",
            "--perms=2",
            "--rounds=1",
            "--extents=6,5,4",
            &format!("--json-out={}", other.display()),
        ])
        .unwrap();
        assert!(!out.contains("baseline  :"), "{out}");
        let json = std::fs::read_to_string(&other).unwrap();
        assert!(!json.contains("baseline_delta"), "{json}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&other);
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["plan", "16,16"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["plan", "16,x", "1,0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["plan", "16,16", "0,1,2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["contract", "bad", "1", "2"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
    }
}
