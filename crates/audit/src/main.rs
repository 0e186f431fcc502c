//! Command-line entry point: `hytlb-audit <check|invariants> [root]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hytlb_audit::{invariants, workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_default();
    let root = args.next().map_or_else(workspace::default_root, PathBuf::from);
    match mode.as_str() {
        "check" => run_check(&root),
        "invariants" => run_invariants(),
        _ => {
            eprintln!(
                "usage: hytlb-audit <check|invariants> [workspace-root]\n\
                 \n\
                 check       lint every workspace .rs file against rules R1-R7\n\
                 invariants  verify architectural constants of the live types"
            );
            ExitCode::from(2)
        }
    }
}

fn run_check(root: &std::path::Path) -> ExitCode {
    let findings = workspace::check_workspace(root);
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("audit: clean ({} files)", workspace::rust_files(root).len());
        ExitCode::SUCCESS
    } else {
        println!("audit: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn run_invariants() -> ExitCode {
    let violations = invariants::check_all();
    for violation in &violations {
        println!("{violation}");
    }
    if violations.is_empty() {
        println!("invariants: all hold");
        ExitCode::SUCCESS
    } else {
        println!("invariants: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
