//! `compare_results` rejects suites whose workload rows differ, and counts
//! a cell whose walks rise from zero as a regression.

use hytlb_mem::Scenario;
use hytlb_sim::experiment::{run_suite_serial, SuiteResult};
use hytlb_sim::{PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::path::PathBuf;
use std::process::{Command, Output};

fn suite() -> SuiteResult {
    let config = PaperConfig { accesses: 8_000, footprint_shift: 5, ..PaperConfig::default() };
    run_suite_serial(
        Scenario::LowContiguity,
        &[WorkloadKind::Gups, WorkloadKind::Mcf],
        &[SchemeKind::Baseline, SchemeKind::AnchorDynamic],
        &config,
    )
    .unwrap()
}

/// Writes both suites to temp files and runs `compare_results new old`.
fn compare(test: &str, new: &SuiteResult, old: &SuiteResult) -> Output {
    let path = |side: &str| -> PathBuf {
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}_{side}.json"))
    };
    for (side, suite) in [("new", new), ("old", old)] {
        std::fs::write(path(side), serde_json::to_string(suite).unwrap()).unwrap();
    }
    Command::new(env!("CARGO_BIN_EXE_compare_results"))
        .args([path("new"), path("old")])
        .output()
        .expect("spawn compare_results")
}

#[test]
fn identical_suites_pass() {
    let s = suite();
    let out = compare("identical", &s, &s);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn row_and_workload_mismatches_are_rejected() {
    let old = suite();
    let mut fewer_rows = old.clone();
    fewer_rows.rows.pop();
    let mut other_workload = old.clone();
    other_workload.rows[1].workload = WorkloadKind::Canneal;
    for (case, new) in [("fewer_rows", fewer_rows), ("other_workload", other_workload)] {
        let out = compare(case, &new, &old);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
        assert!(stderr.contains("differ"), "{case}: {stderr}");
    }
}

#[test]
fn walks_rising_from_zero_are_a_regression() {
    let new = suite();
    assert!(new.rows[0].runs[0].tlb_misses() > 0, "gups walks on the baseline");
    let mut old = new.clone();
    old.rows[0].runs[0].stats.walks = 0;
    let out = compare("from_zero", &new, &old);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("1 cell(s) regressed"), "{stdout}");
}
