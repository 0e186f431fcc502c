//! Figure 11: translation-CPI breakdown (L2 hit / coalesced hit / page
//! walk) per benchmark and scheme under the medium-contiguity mapping.

use hytlb_bench::{banner, config_from_args, emit, exit_usage, per_benchmark_suite};
use hytlb_mem::Scenario;
use hytlb_sim::report::{cpi_table, to_json};

fn main() {
    let config = config_from_args().unwrap_or_else(|e| exit_usage(&e));
    banner("Figure 11: translation CPI breakdown, medium contiguity", &config);
    let suite = per_benchmark_suite(Scenario::MediumContiguity, &config);
    let text = format!(
        "{}\nShape check (paper Fig. 11): THP/RMM columns stay close to Base; the\n\
         coalesced-hit component carries Cluster and Dynamic; graph500's CPI\n\
         drops by several cycles per instruction under Dynamic.\n",
        cpi_table(&suite)
    );
    emit("fig11_cpi_medium", &text, &to_json(&suite));
}
