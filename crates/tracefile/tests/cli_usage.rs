//! Bad command-line input to `hytlb-tracectl` is a usage error (exit
//! status 2) that prints the usage text, never a panic, and writes no
//! file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tracectl(args: &[&str]) -> Output {
    tracectl_in(Path::new("."), args)
}

/// Runs `hytlb-tracectl` with `dir` as its working directory.
fn tracectl_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hytlb-tracectl"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn hytlb-tracectl")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("tracectl-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_usage_error(args: &[&str], must_not_exist: &Path) -> String {
    let out = tracectl(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains("USAGE:\n  hytlb-tracectl record"),
        "{args:?} printed no usage: {stderr}"
    );
    assert!(!must_not_exist.exists(), "{args:?} created {}", must_not_exist.display());
    stderr
}

#[test]
fn record_rejects_flags_it_does_not_take() {
    let dir = scratch("record");
    let out = dir.join("x.htr2");
    let out = out.to_str().expect("utf-8 path");
    let base = ["record", "--workload", "gups", "--accesses", "10", "--out", out];

    let stderr =
        assert_usage_error(&[&base[..], &["--block-accesses", "4"]].concat(), out.as_ref());
    assert!(stderr.contains("--block-accesses"), "{stderr}");
    let stderr = assert_usage_error(&[&base[..], &["--sed", "1"]].concat(), out.as_ref());
    assert!(stderr.contains("--sed"), "{stderr}");
    let stderr =
        assert_usage_error(&[&base[..], &["--seed", "1", "--seed", "2"]].concat(), out.as_ref());
    assert!(stderr.contains("--seed"), "{stderr}");

    let valid = tracectl(&base);
    assert_eq!(valid.status.code(), Some(0), "{}", String::from_utf8_lossy(&valid.stderr));
    assert!(Path::new(out).exists());
}

#[test]
fn a_flag_is_not_taken_as_a_value() {
    let dir = scratch("flag-value");
    let out =
        tracectl_in(&dir, &["record", "--workload", "gups", "--accesses", "10", "--out", "--seed"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr}");
    assert!(stderr.contains("--out needs a value"), "{stderr}");
    assert!(stderr.contains("USAGE:\n  hytlb-tracectl record"), "printed no usage: {stderr}");
    assert!(!dir.join("--seed").exists(), "created a file named --seed");
}

#[test]
fn info_and_verify_take_no_flags() {
    let dir = scratch("read");
    let trace = dir.join("t.htr2");
    let trace = trace.to_str().expect("utf-8 path");
    let recorded = tracectl(&["record", "--workload", "mcf", "--accesses", "10", "--out", trace]);
    assert_eq!(recorded.status.code(), Some(0), "{}", String::from_utf8_lossy(&recorded.stderr));

    let x = dir.join("x");
    let stderr = assert_usage_error(&["verify", trace, "--limit", "3"], &x);
    assert!(stderr.contains("--limit"), "{stderr}");
    let stderr = assert_usage_error(&["info", trace, "--out", x.to_str().expect("utf-8")], &x);
    assert!(stderr.contains("--out"), "{stderr}");
}
