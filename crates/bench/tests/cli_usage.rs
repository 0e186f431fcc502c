//! Bad command-line input to `regenerate` is a usage error (exit status
//! 2), never a panic.

use std::process::Command;

fn assert_usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_regenerate"))
        .args(args)
        .output()
        .expect("spawn regenerate");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains(hytlb_bench::USAGE), "{args:?} printed no usage: {stderr}");
    stderr
}

#[test]
fn malformed_flags_are_usage_errors() {
    assert_usage_error(&["--seed", "x"]);
    assert_usage_error(&["--seed"]);
    assert_usage_error(&["--accesses", "-5"]);
    assert_usage_error(&["--quick", "--frobnicate"]);
    assert_usage_error(&["--accesses", &(hytlb_sim::MAX_ACCESSES + 1).to_string()]);
    assert_usage_error(&["--accesses", "100000000000"]);
}

#[test]
fn unknown_artifact_names_are_usage_errors() {
    let stderr = assert_usage_error(&["--quick", "fig07_demand", "fig99_nonexistent"]);
    assert!(stderr.contains("fig99_nonexistent"), "{stderr}");
    for valid in ["fig01_contiguity_cdf", "fig09_all_scenarios", "table6_distances", "ablations"] {
        assert!(stderr.contains(valid), "valid name {valid} not listed: {stderr}");
    }
}
