//! Figure 8: relative TLB misses per benchmark under the medium-contiguity
//! synthetic mapping (chunks of 1–512 pages, Table 4).

use hytlb_bench::{banner, config_from_args, emit, exit_usage, per_benchmark_suite};
use hytlb_mem::Scenario;
use hytlb_sim::report::{relative_miss_table, to_json};

fn main() {
    let config = config_from_args().unwrap_or_else(|e| exit_usage(&e));
    banner("Figure 8: relative TLB misses, medium contiguity", &config);
    let suite = per_benchmark_suite(Scenario::MediumContiguity, &config);
    let text = format!(
        "{}\nShape check (paper Fig. 8): THP and RMM are nearly ineffective (few 2MB+\n\
         chunks exist); Cluster helps but is capacity-limited; Dynamic exploits\n\
         the sub-2MB contiguity and wins broadly; gups is barely helped by anyone.\n",
        relative_miss_table(&suite)
    );
    emit("fig08_medium", &text, &to_json(&suite));
}
