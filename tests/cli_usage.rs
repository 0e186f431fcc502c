//! Bad command-line input to the `hytlb` binary is a usage error (exit
//! status 2), never a panic.

use std::process::Command;

/// Runs `hytlb` with `args` and asserts a clean usage-error exit.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_hytlb")).args(args).output().expect("spawn hytlb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?} printed no usage: {stderr}");
}

#[test]
fn invalid_anchor_distances_are_usage_errors() {
    for scheme in ["anchor-d3", "anchor-d0", "anchor-d1", "anchor-d131072", "anchor-dx"] {
        assert_usage_error(&["--scheme", scheme]);
    }
}

#[test]
fn out_of_range_shift_is_a_usage_error() {
    for shift in ["64", "1000", "-1", "x"] {
        assert_usage_error(&["--shift", shift]);
    }
}

#[test]
fn malformed_flags_are_usage_errors() {
    assert_usage_error(&["--seed", "x"]);
    assert_usage_error(&["--accesses"]);
    assert_usage_error(&["--workload", "nope"]);
    assert_usage_error(&["--frobnicate"]);
}
