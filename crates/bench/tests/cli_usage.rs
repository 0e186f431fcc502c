//! Bad command-line input to a regenerator binary is a usage error (exit
//! status 2), never a panic. Every regenerator parses its flags through
//! `hytlb_bench::config_from_args`, so one binary stands for all of them.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig01_contiguity_cdf"))
        .args(args)
        .output()
        .expect("spawn regenerator");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains(hytlb_bench::USAGE), "{args:?} printed no usage: {stderr}");
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
