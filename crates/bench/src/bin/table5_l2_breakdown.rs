//! Table 5: L2 TLB hit/miss breakdown of the anchor (Dynamic) scheme —
//! regular hit rate, anchor hit rate and L2 miss rate — for the demand and
//! medium-contiguity mappings.

use hytlb_bench::{banner, config_from_args, emit, exit_usage};
use hytlb_mem::Scenario;
use hytlb_sim::experiment::run_suite;
use hytlb_sim::report::{l2_breakdown_table, to_json};
use hytlb_sim::{SchemeKind, SimError};
use hytlb_trace::WorkloadKind;

fn main() -> Result<(), SimError> {
    let config = config_from_args().unwrap_or_else(|e| exit_usage(&e));
    banner("Table 5: L2 TLB access breakdown (Dynamic)", &config);

    let mut text = String::new();
    let mut suites = Vec::new();
    for scenario in [Scenario::DemandPaging, Scenario::MediumContiguity] {
        let suite =
            run_suite(scenario, &WorkloadKind::all(), &[SchemeKind::AnchorDynamic], &config)?;
        text.push_str(&l2_breakdown_table(&suite, 0));
        text.push('\n');
        suites.push(suite);
    }
    text.push_str(
        "Shape check (paper Table 5): under demand paging regular (2MB) hits\n\
         dominate; under medium contiguity anchor hits take over; gups/graph500\n\
         keep high L2 miss rates at medium contiguity.\n",
    );
    emit("table5_l2_breakdown", &text, &to_json(&suites));
    Ok(())
}
