//! A full shootout on one workload: every scheme, every scenario, with L2
//! access breakdowns — a compact tour of the whole library surface.
//!
//! ```sh
//! cargo run --release --example scheme_shootout -- graph500
//! ```
//!
//! Pass any paper benchmark label (default: `graph500`).

use hytlb::prelude::*;
use hytlb::sim::experiment::run_suite;
use hytlb::sim::report::{l2_breakdown_table, relative_miss_table};
use hytlb::sim::SimError;
use hytlb::trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let label = std::env::args().nth(1).unwrap_or_else(|| "graph500".to_owned());
    let workload = WorkloadKind::from_label(&label).unwrap_or_else(|| {
        let names: Vec<_> = WorkloadKind::all().iter().map(|w| w.label()).collect();
        eprintln!("unknown workload {label}; choose one of {names:?}");
        std::process::exit(2)
    });
    let config = PaperConfig { accesses: 300_000, footprint_shift: 3, ..PaperConfig::default() };
    let kinds = SchemeKind::paper_set();
    for scenario in [Scenario::DemandPaging, Scenario::MediumContiguity, Scenario::MaxContiguity] {
        let suite = run_suite(scenario, &[workload], &kinds, &config)?;
        println!("{}", relative_miss_table(&suite));
        // The Dynamic column is last in the paper set.
        println!("{}", l2_breakdown_table(&suite, kinds.len() - 1));
    }
    println!("Columns: R.hit = regular (4KB/2MB) L2 hits, A.hit = anchor hits,");
    println!("L2 miss = page walks — the Table 5 metrics of the paper.");
    Ok(())
}
