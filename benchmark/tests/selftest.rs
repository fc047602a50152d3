//! Runs every workload of `BENCHMARK.json` at a tiny duration, untraced
//! and traced, and checks the output against the metric lists there.

use std::collections::BTreeMap;
use std::process::Command;
use ttlg_serve::json::{self, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {doc:?}"))
}

/// name -> unit of one metric list.
fn metric_units(doc: &Json, key: &str) -> BTreeMap<String, String> {
    array(doc, key)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

/// Run one workload and return its printed lines and parsed summary.
fn run(workload: &str, trace: bool) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_ttlg-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.4"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let mut lines: Vec<String> = stdout.lines().map(String::from).collect();
    let summary = json::parse(lines.pop().expect("a summary line").as_bytes())
        .expect("the last line is JSON");
    (lines, summary)
}

fn check_summary(
    workload: &str,
    lines: &[String],
    summary: &Json,
    want: &BTreeMap<String, String>,
) {
    assert_eq!(
        summary.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        summary.get("failed").and_then(Json::as_usize),
        Some(0),
        "{workload}"
    );
    assert!(summary.get("attempted").and_then(Json::as_usize) >= Some(1));
    let Some(Json::Obj(metrics)) = summary.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: Vec<&String> = metrics.keys().collect();
    assert_eq!(
        got,
        want.keys().collect::<Vec<_>>(),
        "{workload}: metric names"
    );
    for (name, unit) in want {
        let m = &metrics[name];
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {m:?}"
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let prefix = format!("{workload} {name} ");
        let line = lines
            .iter()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no line for {workload} {name}"));
        assert!(line.ends_with(&format!(" {unit}")), "{line}");
    }
}

fn check_trace(workload: &str) {
    let path = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let doc = json::parse(&std::fs::read(&path).expect("trace written")).expect("trace parses");
    let spans = array(&doc, "spans");
    assert!(!spans.is_empty(), "{workload}: no spans");
    for s in spans {
        let self_ns = s.get("self_ns").and_then(Json::as_f64).expect("self_ns");
        let start = s.get("start_ns").and_then(Json::as_f64).expect("start_ns");
        let end = s.get("end_ns").and_then(Json::as_f64).expect("end_ns");
        assert!(
            self_ns >= 0.0 && self_ns <= end - start,
            "{workload}: {s:?}"
        );
    }
    for entry in array(&doc, "summary") {
        assert!(entry.get("self_ns").and_then(Json::as_f64) >= Some(0.0));
    }
}

/// One test, so the workloads (up to 1.5 GiB for cpu-bulk) run one at a
/// time.
#[test]
fn every_workload_reports_every_metric_and_a_valid_trace() {
    let doc = manifest();
    let end_to_end = metric_units(&doc, "end_to_end");
    let per_layer = metric_units(&doc, "per_layer");
    let workloads: Vec<&str> = array(&doc, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    assert_eq!(
        workloads,
        [
            "gateway-small",
            "gateway-churn",
            "sim-sweep-720",
            "cpu-bulk"
        ]
    );
    for w in workloads {
        let (lines, summary) = run(w, false);
        check_summary(w, &lines, &summary, &end_to_end);
        let (lines, summary) = run(w, true);
        check_summary(w, &lines, &summary, &per_layer);
        check_trace(w);
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_ttlg-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
