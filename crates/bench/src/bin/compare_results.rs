//! Compares two archived suite-result JSON files (as written by
//! `regenerate` into `results/`), printing per-cell TLB-miss deltas — the
//! regression-checking tool for simulator changes. It exits 1 if the files
//! differ in scenarios, schemes or workload rows, or if any cell's walks
//! rise by more than 5% (any rise from zero counts).
//!
//! ```sh
//! cargo run --release -p hytlb-bench --bin compare_results -- \
//!     results/fig08_medium.json /tmp/before/fig08_medium.json
//! ```

use hytlb_sim::experiment::SuiteResult;
use hytlb_sim::report::render_table;
use std::fs;
use std::process::exit;

/// The figure JSONs are either one suite or a list of suites.
fn load(path: &str) -> Vec<SuiteResult> {
    let data = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(2);
    });
    serde_json::from_str::<Vec<SuiteResult>>(&data)
        .or_else(|_| serde_json::from_str::<SuiteResult>(&data).map(|s| vec![s]))
        .unwrap_or_else(|e| {
            eprintln!("{path} is not a suite-result JSON: {e}");
            exit(2);
        })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(a_path), Some(b_path)) = (args.next(), args.next()) else {
        eprintln!("usage: compare_results <new.json> <old.json>");
        exit(2);
    };
    let new = load(&a_path);
    let old = load(&b_path);
    if new.len() != old.len() {
        eprintln!("suite counts differ: {} vs {}", new.len(), old.len());
        exit(1);
    }
    // Cells are compared only between suites of one shape: scenario,
    // columns, and workload rows with their run counts.
    let rows =
        |s: &SuiteResult| s.rows.iter().map(|r| (r.workload, r.runs.len())).collect::<Vec<_>>();
    let mut regressions = 0u32;
    for (n, o) in new.iter().zip(&old) {
        if n.scenario != o.scenario || n.schemes != o.schemes || rows(n) != rows(o) {
            eprintln!("suite shapes differ for {}", n.scenario);
            exit(1);
        }
        let mut rows = Vec::new();
        for (nr, or) in n.rows.iter().zip(&o.rows) {
            let cells: Vec<String> = nr
                .runs
                .iter()
                .zip(&or.runs)
                .map(|(a, b)| {
                    let delta = a.tlb_misses() as i64 - b.tlb_misses() as i64;
                    if delta as f64 > 0.05 * b.tlb_misses() as f64 {
                        regressions += 1;
                    }
                    format!("{delta:+}")
                })
                .collect();
            rows.push((nr.workload.label().to_owned(), cells));
        }
        println!(
            "{}",
            render_table(&format!("walk delta [{}]", n.scenario.label()), &n.schemes, &rows)
        );
    }
    if regressions > 0 {
        println!("{regressions} cell(s) regressed by more than 5% — exit 1");
        exit(1);
    }
    println!("no cell regressed by more than 5%");
}
