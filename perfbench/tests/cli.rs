//! End-to-end tests of the benchmark binary: every workload at tiny scale
//! prints every metric `BENCHMARK.json` names, with its unit; malformed
//! arguments exit nonzero with a message instead of panicking.

use serde::Value;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hytlb-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

/// Runs `workload` at tiny scale and checks the result line against the
/// `section` (`end_to_end` or `per_layer`) of `BENCHMARK.json`.
fn prints_every_metric(workload: &str, trace: &str, section: &str) {
    let out =
        bench(&["--workload", workload, "--scale", "tiny", "--seconds", "1", "--trace", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).unwrap();
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}\n{stderr}");
    assert!(matches!(result.get("attempted"), Some(Value::UInt(n)) if *n >= 1), "{stdout}");
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{stdout}");
    let Some(Value::Object(metrics)) = result.get("metrics") else { panic!("{stdout}") };
    let expected = list(&benchmark_json(), section).to_vec();
    assert_eq!(metrics.len(), expected.len(), "exactly the {section} metrics: {stdout}");
    for metric in &expected {
        let name = text(metric, "name");
        let printed = result.get("metrics").and_then(|m| m.get(name));
        let printed = printed.unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(text(printed, "unit"), text(metric, "unit"), "{workload}: unit of {name}");
        assert!(
            matches!(printed.get("value"), Some(Value::Float(_) | Value::UInt(_) | Value::Int(_))),
            "{workload}: {name} is not a number: {printed:?}"
        );
    }
}

#[test]
fn fig9_quick_metrics() {
    prints_every_metric("fig9-quick", "0", "end_to_end");
    prints_every_metric("fig9-quick", "1", "per_layer");
}

#[test]
fn tlb_hot_metrics() {
    prints_every_metric("tlb-hot", "0", "end_to_end");
    prints_every_metric("tlb-hot", "1", "per_layer");
}

#[test]
fn walk_heavy_metrics() {
    prints_every_metric("walk-heavy", "0", "end_to_end");
    prints_every_metric("walk-heavy", "1", "per_layer");
}

#[test]
fn corpus_replay_metrics() {
    prints_every_metric("corpus-replay", "0", "end_to_end");
    prints_every_metric("corpus-replay", "1", "per_layer");
}

#[test]
fn benchmark_json_names_the_workloads() {
    let benchmark = benchmark_json();
    let names: Vec<&str> = list(&benchmark, "workloads").iter().map(|w| text(w, "name")).collect();
    // corpus-replay stays runnable but is left out of BENCHMARK.json; see
    // README.md.
    assert_eq!(names, ["fig9-quick", "tlb-hot", "walk-heavy"]);
}

#[test]
fn malformed_arguments_exit_nonzero_without_panicking() {
    for args in [
        &["--workload", "tlb-hot", "--seed", "x"][..],
        &["--workload", "no-such-workload"],
        &["--seed", "1"],
        &["--workload", "tlb-hot", "--trace"],
    ] {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
