//! The TTLG-rs benchmark.
//!
//! ```text
//! ttlg-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! With `--workload` it runs that one workload in this process and
//! prints one `workload metric value unit` line per metric, then a JSON
//! summary as the last line. Without it, it runs every workload in a
//! child process of its own (so set-up time and memory are per workload)
//! and also writes `out/results.json`. `--trace` reruns the workload with
//! spans around every call and then drives the per-layer ladder; it
//! reports the per-layer metrics instead of the end-to-end ones and
//! writes the spans to `out/trace-<workload>.json`.

mod affinity;
mod gen;
mod host;
mod ladder;
mod stats;
mod trace;
mod workloads;

use host::{HostProbe, WindowClock};
use stats::{peak_rss_mib, quantile};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Kind, Window, Workload};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Default length of a timed window, seconds.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Probe time after each set-up.
const SETUP_PROBE: Duration = Duration::from_millis(20);

const USAGE: &str =
    "usage: ttlg-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
     workloads: gateway-small gateway-churn sim-sweep-720 cpu-bulk";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(format!("{name} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value("--workload")?;
                args.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                let v = match inline {
                    Some(v) => Some(v),
                    None if it.peek().is_some_and(|n| *n == "0" || *n == "1") => it.next().cloned(),
                    None => None,
                };
                args.trace = match v.as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("bad --trace {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(name: &str, text: &str) {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(name), text))
    {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    quantile(&mut xs, 0.5)
}

type Note = (&'static str, f64, &'static str);

/// Set-up times of one run, each scaled by a probe slice run right
/// after it: (median as measured, median scaled).
fn setup_times(kind: Kind, seed: u64) -> (Box<dyn Workload>, (f64, f64)) {
    let mut probe = HostProbe::new(kind.probe());
    let (mut measured, mut scaled) = (Vec::new(), Vec::new());
    let mut load = None;
    for _ in 0..SETUP_REPEATS {
        drop(load.take());
        let t0 = Instant::now();
        load = Some(workloads::setup(kind, seed));
        let s = t0.elapsed().as_secs_f64();
        measured.push(s);
        scaled.push(s * kind.probe().factor(probe.rate(SETUP_PROBE)));
    }
    let load = load.expect("at least one set-up");
    (load, (median(measured), median(scaled)))
}

/// The end-to-end metrics of one untraced run. The wall-clock ones are
/// scaled to the nominal host by the probe run alongside them
/// (`Probe::factor`); `measured` gets them unscaled.
fn end_to_end(
    kind: Kind,
    w: &Window,
    setup_s: (f64, f64),
    rss: f64,
    sim: (f64, f64),
    measured: &mut Vec<Note>,
) -> Vec<Metric> {
    let mut ns: Vec<f64> = w.samples.iter().map(|s| s.ns).collect();
    let f = w.probe.factor(w.probe_rate);
    let throughput = w.throughput();
    let p50 = quantile(&mut ns, 0.5) / 1e3;
    let tail = quantile(&mut ns, kind.tail_quantile()) / 1e3;
    let bandwidth = stats::bandwidth_gbps(&w.samples);
    // (name, as measured, scaled, unit)
    let wall = [
        ("throughput_rps", throughput, throughput / f, "ops/s"),
        ("latency_p50_us", p50, p50 * f, "us"),
        ("latency_tail_us", tail, tail * f, "us"),
        ("bandwidth_gbps", bandwidth, bandwidth / f, "GB/s"),
        ("setup_s", setup_s.0, setup_s.1, "s"),
    ];
    let mut metrics = Vec::new();
    for (name, value, scaled, unit) in wall {
        measured.push((name, value, unit));
        metrics.push(Metric {
            name: name.to_string(),
            value: scaled,
            unit,
        });
    }
    for (name, value, unit) in [
        ("sim_gbps_repeated", sim.0, "GB/s"),
        ("sim_gbps_single_use", sim.1, "GB/s"),
        ("peak_rss_mb", rss, "MiB"),
    ] {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    metrics
}

struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Lines printed before the metrics.
    notes: Vec<Note>,
    /// Unscaled values of the wall-clock metrics, printed as
    /// `measured.<metric>` lines.
    measured: Vec<Note>,
}

fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> RunResult {
    let (mut load, setups) = setup_times(kind, seed);
    let window = load.measure(WindowClock::start(kind.probe()), seconds, None);
    let rss = peak_rss_mib();
    let checks = load.check();
    let sim = load.sim_gbps();
    drop(load);
    let attempted = window.samples.len() as u64 + window.failed + checks.attempted;
    let failed = window.failed + checks.failed;
    let mut measured = Vec::new();
    RunResult {
        metrics: end_to_end(kind, &window, setups, rss, sim, &mut measured),
        attempted,
        failed,
        notes: vec![
            ("host.probe_rate", window.probe_rate, "rounds/s"),
            (
                "host.factor",
                window.probe.factor(window.probe_rate),
                "ratio",
            ),
            ("latency_samples", window.samples.len() as f64, "count"),
            ("latency_tail_quantile", kind.tail_quantile(), "q"),
            (
                "error_rate",
                failed as f64 / attempted.max(1) as f64,
                "failed/attempted",
            ),
        ],
        measured,
    }
}

fn run_traced(kind: Kind, seed: u64, seconds: f64) -> RunResult {
    let mut load = workloads::setup(kind, seed);
    let mut tracer = Tracer::default();
    let traced = load.measure(
        WindowClock::start(kind.probe()),
        seconds / 2.0,
        Some(&mut tracer),
    );
    let cache = load.cache_stats();
    let checks = load.check();
    let mix = load.ladder_mix();
    drop(load);
    let budget = Duration::from_secs_f64((seconds / 20.0).clamp(0.05, 1.0));
    let mut metrics = ladder::run(&mix, budget, seed, &mut tracer, cache);
    metrics.push(Metric {
        name: "trace.overhead_frac".into(),
        value: traced.trace_overhead(),
        unit: "ratio",
    });
    write_out(
        &format!("trace-{}.json", kind.name()),
        &trace::render(kind.name(), seed, &tracer),
    );
    RunResult {
        metrics,
        attempted: traced.samples.len() as u64 + traced.failed + checks.attempted,
        failed: traced.failed + checks.failed,
        notes: vec![("spans_dropped", tracer.dropped() as f64, "count")],
        measured: Vec::new(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The summary object printed as the last line.
fn summary_json(r: &RunResult) -> String {
    let bad_values = r.metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    let failed = r.failed + bad_values;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        r.attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

/// Panics on any thread, the library's included. A panic there does not
/// stop the run, so it is counted as a failure instead.
static PANICS: AtomicU64 = AtomicU64::new(0);

fn count_panics() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        report(info);
    }));
}

fn run_workload(kind: Kind, args: &Args) -> ExitCode {
    count_panics();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before set-up, so every thread the workload starts inherits it.
    let pinned_cpu = if kind.pinned() {
        let cpu = affinity::pin_to_one_cpu();
        if cpu.is_none() {
            eprintln!("warning: could not pin {} to one CPU", kind.name());
        }
        cpu
    } else {
        None
    };
    let mut result = if args.trace {
        run_traced(kind, args.seed, args.seconds)
    } else {
        run_untraced(kind, args.seed, args.seconds)
    };
    let panics = PANICS.load(Ordering::Relaxed);
    result.attempted += panics;
    result.failed += panics;
    let w = kind.name();
    println!("{w} host.nproc {nproc} count");
    println!("{w} panics {panics} count");
    println!(
        "{w} host.pinned_cpu {} index",
        pinned_cpu.map_or(-1, |c| c as i64)
    );
    for (name, value, unit) in &result.notes {
        println!("{w} {name} {value} {unit}");
    }
    for (name, value, unit) in &result.measured {
        println!("{w} measured.{name} {value} {unit}");
    }
    for m in &result.metrics {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    let summary = summary_json(&result);
    let suffix = if args.trace { "-traced" } else { "" };
    write_out(&format!("results-{w}{suffix}.json"), &summary);
    println!("{summary}");
    ExitCode::SUCCESS
}

/// Every workload, each in a child process of this executable.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut entries = Vec::new();
    for kind in Kind::ALL {
        let child = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot start: {e}", kind.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let summary = lines.pop().unwrap_or("null").to_string();
        for line in lines {
            println!("{line}");
        }
        ok &= output.status.success() && summary.starts_with("{\"correct\": true");
        entries.push(format!("\"{}\": {summary}", kind.name()));
    }
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        args.seconds,
        args.trace,
        entries.join(", ")
    );
    write_out("results.json", &doc);
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(kind) => run_workload(kind, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn both_flag_spellings_parse() {
        let a = parse("--workload cpu-bulk --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Kind::CpuBulk));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let a = parse("--seed=3 --trace").unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (None, 3, true));
        let a = parse("--trace --seed 4").unwrap();
        assert!(a.trace && a.seed == 4);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--trace 2").is_err());
    }
}
