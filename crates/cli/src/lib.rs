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
use ttlg::{TransposeOptions, Transposer};
use ttlg_baselines::cutt::{CuttLibrary, CuttMode};
use ttlg_baselines::naive::NaiveTranspose;
use ttlg_baselines::ttc::TtcGenerator;
use ttlg_contract::{ContractionEngine, ContractionSpec};
use ttlg_gpu_sim::DeviceConfig;
use ttlg_runtime::{RuntimeConfig, TraceStoreConfig, TransposeService};
use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

/// CLI errors (also carry usage problems).
#[derive(Debug)]
pub enum CliError {
    /// Malformed arguments, with an explanation.
    Usage(String),
    /// Anything the libraries rejected.
    Failed(String),
}

/// A library error as [`CliError::Failed`].
fn failed(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
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
                                                and render the trace store's
                                                recent window as a flame-style
                                                phase profile with the slowest
                                                records per bucket
  ttlg contract <spec> <extentsA> <extentsB>    TTGT contraction (f64)
  ttlg trace    <extents> <perm>                serve one request through a
                                                loopback gateway and render
                                                its span tree as a flame-style
                                                trace (network/queue/plan/
                                                execute and children) with the
                                                planner decision trace
  ttlg bench-serve <study> [--perms=N] [--rounds=N] [--seconds=S]
                   [--json-out=PATH]
                                                run a serving study, write its
                                                BENCH_<study>.json artifact
                                                (or PATH) and check its gates;
                                                a failed gate exits non-zero.
                                                A study takes only its own
                                                settings:
     serve    [--perms] [--rounds]              cached service vs
                                                plan-per-call
     tail     [--rounds]                        per-schema p50/p95/p99 and the
                                                dominant phase at p99 over a
                                                loopback gateway
     trace    [--perms] [--rounds]              the prediction-drift alert
                                                fires under a skewed model and
                                                resolves after one autotune
                                                pass: model-only vs autotuned
                                                serving
     gateway  [--seconds]                       shed rate, fairness and
                                                per-class tails at 2x overload
     cpu      [--seconds]                       tiled CPU kernel vs the naive
                                                loop per schema class
     async    [--seconds]                       coalescing of duplicate async
                                                submissions at 2x overload
  ttlg serve [--addr=H:P] [--workers=N] [--queue-capacity=N]
             [--rate=F] [--burst=F] [--max-connections=N]
             [--port-file=PATH] [--check] [--history-file=PATH]
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
    let plan = t.plan::<f64>(&shape, &perm, &opts).map_err(failed)?;
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
    let (_, trace) = t.plan_traced::<f64>(&shape, &perm, &opts).map_err(failed)?;
    Ok(trace.render())
}

fn cmd_run(rest: &[&String]) -> Result<String, CliError> {
    let (e, p) = two_positional(rest, "run")?;
    let (shape, perm) = parse_problem(e, p)?;
    let verify = rest.iter().any(|a| a.as_str() == "--verify");
    let t = Transposer::new_k40c();
    let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
    // Verifying runs the plan's simulated kernel, not the host kernel
    // that serves its bytes otherwise.
    let opts = TransposeOptions {
        check_disjoint_writes: verify,
        ..TransposeOptions::default()
    };
    let (out, report) = t
        .plan::<f64>(&shape, &perm, &opts)
        .and_then(|plan| t.execute(&plan, &input))
        .map_err(failed)?;
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
        let expect = reference::transpose_reference(&input, &perm).map_err(failed)?;
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
        .map_err(failed)?;
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
        .map_err(failed)?;
    let r = t.time_plan(&plan).map_err(failed)?;
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
        .map_err(failed)?;
    let prof = t.profile_plan(&plan).map_err(failed)?;
    Ok(prof.render())
}

/// `profile --tail`: replay the tail-study workload through a service
/// whose trace window holds the whole run, then render the window as a
/// flame-style phase profile plus the slowest records per bucket.
fn cmd_profile_tail(rest: &[&String]) -> Result<String, CliError> {
    let args: Vec<&str> = rest
        .iter()
        .map(|a| a.as_str())
        .filter(|a| *a != "--tail")
        .collect();
    let tail = ttlg_bench::study::find("tail").expect("the tail study is in the table");
    let rounds = tail.settings(&args).map_err(CliError::Usage)?.rounds;
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
    for req in &reqs {
        service.submit(req).map_err(failed)?;
    }
    let mut s = String::new();
    writeln!(
        s,
        "{} requests replayed; phase profile of the trace store's recent window:\n",
        reqs.len()
    )
    .unwrap();
    s.push_str(&service.render_profile());
    writeln!(s, "\nslowest records per bucket:").unwrap();
    for ((schema, class), entries) in service.trace_store().buckets().into_iter().take(5) {
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
    let plan = engine.plan(&spec, &sa, &sb).map_err(failed)?;
    let a: DenseTensor<f64> = DenseTensor::iota(sa);
    let b: DenseTensor<f64> = DenseTensor::iota(sb);
    let (c, report) = engine.execute(&plan, &a, &b).map_err(failed)?;
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

/// `ttlg serve`: run the network gateway until killed. With `--check`,
/// bind, report, and exit immediately (used by tests; CI keeps the
/// long-running form and kills it when done).
fn cmd_serve(rest: &[&String]) -> Result<String, CliError> {
    use ttlg_serve::{Gateway, GatewayConfig};
    let mut addr = "127.0.0.1:8424".to_string();
    let mut rt = RuntimeConfig::default();
    let mut cfg = GatewayConfig::default();
    let mut port_file: Option<String> = None;
    let mut history_file: Option<String> = None;
    let mut check = false;
    for a in rest {
        if let Some(v) = a.strip_prefix("--addr=") {
            addr = v.to_string();
        } else if let Some(v) = a.strip_prefix("--workers=") {
            rt.workers = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --workers value {v:?}")))?;
        } else if let Some(v) = a.strip_prefix("--queue-capacity=") {
            rt.queue_capacity = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --queue-capacity value {v:?}")))?;
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
    if rt.workers == 0 || rt.queue_capacity == 0 {
        return Err(CliError::Usage(
            "--workers and --queue-capacity must be positive".into(),
        ));
    }
    let service = Arc::new(TransposeService::with_config(Transposer::new_k40c(), rt));
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

/// Write study `name`'s artifact to `--json-out=PATH`, or else to
/// `BENCH_<name>.json`, prefixed with its provenance: schema version,
/// the writer's thread count, and the study name. The stamp rides inside
/// the same JSON object, so consumers parse it unchanged.
fn write_artifact(json_out: Option<String>, name: &str, json: &str) -> Result<String, CliError> {
    let path = json_out.unwrap_or_else(|| format!("BENCH_{name}.json"));
    let body = json
        .strip_prefix('{')
        .expect("study artifacts are JSON objects");
    let stamped = format!(
        "{{\n  \"schema_version\": {ARTIFACT_SCHEMA_VERSION},\n  \
         \"host_threads\": {},\n  \"artifact\": \"{name}\",{body}",
        ttlg_tensor::parallel::default_threads()
    );
    std::fs::write(&path, stamped)
        .map_err(|e| CliError::Failed(format!("could not write {path}: {e}")))?;
    Ok(path)
}

/// `bench-serve <study>`: run the study named in the table with the
/// settings it takes, write its artifact, then check its gates.
fn cmd_bench_serve(rest: &[&String]) -> Result<String, CliError> {
    let names: Vec<&str> = ttlg_bench::study::STUDIES.iter().map(|e| e.name).collect();
    let Some((name, flags)) = rest.split_first() else {
        return Err(CliError::Usage(format!(
            "bench-serve needs a study: {}",
            names.join("|")
        )));
    };
    let entry = ttlg_bench::study::find(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown study {name:?} (one of {})",
            names.join("|")
        ))
    })?;
    let mut json_out = None;
    let mut settings = Vec::new();
    for a in flags {
        match a.strip_prefix("--json-out=") {
            Some(path) => json_out = Some(path.to_string()),
            None => settings.push(a.as_str()),
        }
    }
    let settings = entry.settings(&settings).map_err(CliError::Usage)?;
    finish_study(entry.name, (entry.run)(&settings).as_ref(), json_out)
}

/// Write a finished study's artifact, then check it: a failed gate is an
/// error carrying the report, the artifact's path and the failed gates.
fn finish_study(
    name: &str,
    study: &dyn ttlg_bench::study::Study,
    json_out: Option<String>,
) -> Result<String, CliError> {
    let path = write_artifact(json_out, name, &study.to_json())?;
    let mut s = study.render();
    writeln!(s, "wrote {path}").unwrap();
    match study.check() {
        Ok(()) => Ok(s),
        Err(gates) => Err(CliError::Failed(format!(
            "{s}{name} study check failed:\n{gates}"
        ))),
    }
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

    /// A study's artifact path in the shared test directory.
    fn artifact_path(file: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ttlg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(file)
    }

    /// Read an artifact and check the provenance stamp that leads it.
    fn read_artifact(path: &std::path::Path, study: &str) -> String {
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.starts_with("{\n  \"schema_version\": 1,"), "{json}");
        let doc = ttlg_serve::json::parse(json.as_bytes()).unwrap();
        let threads = doc.get("host_threads").and_then(|v| v.as_usize());
        assert!(threads.is_some_and(|t| t >= 1), "{json}");
        for key in ["artifact", "study"] {
            assert_eq!(doc.get(key).and_then(|v| v.as_str()), Some(study), "{json}");
        }
        json
    }

    /// Run a study whose gates read wall-clock timing: a debug build on
    /// a loaded host can miss them, and a failed check still carries the
    /// report and writes the artifact.
    fn timed_study(args: &[&str]) -> String {
        match run(args) {
            Ok(out) => out,
            Err(CliError::Failed(out)) if out.contains("study check failed") => out,
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn bench_serve_command() {
        let path = artifact_path("serve.json");
        let out = run(&[
            "bench-serve",
            "serve",
            "--perms=4",
            "--rounds=2",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(
            out.contains("8 requests over 4 distinct permutations"),
            "{out}"
        );
        assert!(out.contains(" / 4 misses"), "{out}");
        assert!(out.contains("cached service vs plan-per-call"), "{out}");
        assert!(out.contains("prediction accuracy (8 samples)"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = read_artifact(&path, "serve");
        assert!(json.contains("\"requests\": 8"));
        assert!(json.contains("\"geo_mean_error\""));
    }

    #[test]
    fn bench_serve_cpu_writes_artifact_with_provenance() {
        let path = artifact_path("cpu.json");
        let out = run(&[
            "bench-serve",
            "cpu",
            "--seconds=1",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("tiled CPU backend vs naive odometer"), "{out}");
        assert!(out.contains("geo-mean speedup"), "{out}");
        assert!(out.contains("thread scaling"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = read_artifact(&path, "cpu");
        assert!(json.contains("\"geo_mean_speedup\""));
        assert!(json.contains("\"classes\""));
        assert!(json.contains("\"scaling\""));
        assert!(json.contains("\"cpu_pred_geo_err\""));
        assert!(json.contains("\"backend_requests_cpu\""));
        // The table says which settings a study takes; the rest, and
        // values out of range, are usage errors.
        for args in [
            &["bench-serve", "--seconds=1"][..],
            &["bench-serve", "cpu", "--overload=2"],
            &["bench-serve", "cpu", "--perms=4"],
            &["bench-serve", "cpu", "--seconds=0"],
        ] {
            assert!(matches!(run(args), Err(CliError::Usage(_))), "{args:?}");
        }
    }

    #[test]
    fn profile_tail_renders_flame_tree() {
        let out = run(&["profile", "--tail", "--rounds=2"]).unwrap();
        assert!(
            out.contains("phase profile of the trace store's recent window"),
            "{out}"
        );
        assert!(out.contains("execute"), "{out}");
        assert!(out.contains("p99~"), "{out}");
        assert!(out.contains("slowest records per bucket:"), "{out}");
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
        let path = artifact_path("tail.json");
        let out = run(&[
            "bench-serve",
            "tail",
            "--rounds=2",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("tail-latency attribution"), "{out}");
        assert!(out.contains("dominant @p99"), "{out}");
        assert!(out.contains("slo:"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = read_artifact(&path, "tail");
        assert!(json.contains("\"dominant_phase_at_p99\""));
        assert!(json.contains("\"phase_at_p99\""));
        assert!(json.contains("\"slowest\": [{"));
        assert!(json.contains("\"coalesced_requests\""));
        assert!(json.contains("\"slo\""));
    }

    #[test]
    fn bench_serve_gateway_writes_artifact() {
        let path = artifact_path("gateway.json");
        let out = timed_study(&[
            "bench-serve",
            "gateway",
            "--seconds=0.2",
            &format!("--json-out={}", path.display()),
        ]);
        assert!(out.contains("gateway loopback study"), "{out}");
        assert!(out.contains("shed rate"), "{out}");
        assert!(out.contains("fairness"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = read_artifact(&path, "gateway");
        assert!(json.contains("\"overload\": 2"));
        assert!(json.contains("\"shed_rate\""));
        assert!(json.contains("\"classes\""));
        assert!(json.contains("\"tenants\""));
        assert!(matches!(
            run(&["bench-serve", "gateway", "--rounds=2"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_serve_async_writes_artifact_with_provenance() {
        let path = artifact_path("async.json");
        let out = timed_study(&[
            "bench-serve",
            "async",
            "--seconds=0.2",
            &format!("--json-out={}", path.display()),
        ]);
        assert!(out.contains("async submission coalescing study"), "{out}");
        assert!(out.contains("fewer kernels"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = read_artifact(&path, "async");
        assert!(json.contains("\"overload\": 2"));
        assert!(json.contains("\"baseline\""));
        assert!(json.contains("\"coalesced\""));
        assert!(json.contains("\"executions_per_request\""));
        assert!(json.contains("\"p99_ratio\""));
        for args in [
            &["bench-serve", "async", "--perms=4"][..],
            &["bench-serve", "async", "--seconds=0"],
            &["bench-serve", "async", "--overload=2"],
        ] {
            assert!(matches!(run(args), Err(CliError::Usage(_))), "{args:?}");
        }
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
        let path = artifact_path("trace.json");
        let out = run(&[
            "bench-serve",
            "trace",
            "--perms=4",
            "--rounds=2",
            &format!("--json-out={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("tracing & drift-alert study"), "{out}");
        assert!(out.contains("prediction-drift rule"), "{out}");
        assert!(out.contains("autotuned"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = read_artifact(&path, "trace");
        assert!(json.contains("\"drift_fired\": true"));
        assert!(json.contains("\"drift_resolved\": true"));
        assert!(json.contains("\"plans_warmed\": 4"), "{json}");
        assert!(json.contains("\"sampled_traces\""));
        assert!(json.contains("\"evicted_traces\""));
        for args in [
            &["bench-serve", "trace", "--seconds=1"][..],
            &["bench-serve", "trace", "--perms=25"],
        ] {
            assert!(matches!(run(args), Err(CliError::Usage(_))), "{args:?}");
        }
    }

    #[test]
    fn bench_serve_tail_rejects_bad_flags() {
        for args in [
            &["bench-serve", "tail", "--extents=6,5,4"][..],
            &["bench-serve", "tail", "--perms=4"],
            &["bench-serve", "tail", "--rounds=0"],
            &["bench-serve", "tail", "--autotune"],
        ] {
            assert!(matches!(run(args), Err(CliError::Usage(_))), "{args:?}");
        }
    }

    #[test]
    fn bench_serve_rejects_impossible_perm_count() {
        for args in [
            &["bench-serve", "serve", "--perms=25"][..],
            &["bench-serve", "serve", "--bogus"],
            &["bench-serve", "--perms=4"],
            &["bench-serve"],
            &["bench-serve", "bogus"],
            &["bench-serve", "autotune"],
        ] {
            assert!(matches!(run(args), Err(CliError::Usage(_))), "{args:?}");
        }
    }

    /// A study that fails its check still writes its artifact; the
    /// command's error carries the report and names the failed gate.
    #[test]
    fn failed_study_check_writes_the_artifact_and_names_the_gate() {
        struct Broken;
        impl ttlg_bench::study::Study for Broken {
            fn render(&self) -> String {
                "broken report\n".into()
            }
            fn to_json(&self) -> String {
                "{\n  \"study\": \"serve\"\n}\n".into()
            }
            fn check(&self) -> Result<(), String> {
                Err("failed gate: requests > 0".into())
            }
        }
        let path = artifact_path("broken.json");
        let _ = std::fs::remove_file(&path);
        let err = finish_study("serve", &Broken, Some(path.display().to_string()));
        let Err(CliError::Failed(msg)) = err else {
            panic!("a failed gate must fail the command: {err:?}");
        };
        assert!(msg.starts_with("broken report\nwrote "), "{msg}");
        assert!(msg.contains("serve study check failed"), "{msg}");
        assert!(msg.contains("failed gate: requests > 0"), "{msg}");
        read_artifact(&path, "serve");
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

    /// USAGE lists every study of the table with exactly the settings
    /// it takes.
    #[test]
    fn usage_lists_every_study_with_its_settings() {
        for entry in &ttlg_bench::study::STUDIES {
            let takes: Vec<String> = entry
                .takes
                .iter()
                .map(|t| format!("[{}]", t.flag()))
                .collect();
            let line = format!("     {:<8} {}", entry.name, takes.join(" "));
            assert!(
                USAGE.contains(&format!("{line} ")),
                "{line:?} missing from USAGE"
            );
        }
    }
}
