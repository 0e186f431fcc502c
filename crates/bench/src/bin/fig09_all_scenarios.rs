//! Figure 9: mean relative TLB misses of every scheme under all six
//! mapping scenarios.

use hytlb_bench::{banner, config_from_args, emit, exit_usage, per_benchmark_suites};
use hytlb_mem::Scenario;
use hytlb_sim::report::{render_table, suite_bars, to_json};

fn main() {
    let config = config_from_args().unwrap_or_else(|e| exit_usage(&e));
    banner("Figure 9: mean relative TLB misses, all mapping scenarios", &config);

    // One matrix call: all six scenarios share the worker pool, and each
    // workload's trace is generated once for the whole figure.
    eprintln!("running all {} scenarios ...", Scenario::all().len());
    let suites = per_benchmark_suites(&Scenario::all(), &config);
    let cols: Vec<String> = suites[0].schemes.clone();
    let rows: Vec<(String, Vec<String>)> = suites
        .iter()
        .map(|suite| {
            let means = suite.mean_relative_misses();
            (suite.scenario.label().to_owned(), means.iter().map(|m| format!("{m:.1}")).collect())
        })
        .collect();
    let mut text = render_table("mean rel. misses %", &cols, &rows);
    text.push('\n');
    for suite in &suites {
        text.push_str(&suite_bars(suite));
        text.push('\n');
    }
    text.push_str(
        "Shape check (paper Fig. 9): Cluster-2MB is the best prior scheme on\n\
         demand/eager; only coalescing schemes help on low/medium; RMM nearly\n\
         eliminates misses on high/max and Dynamic matches it; Dynamic achieves\n\
         the best (lowest) mean in every scenario among practical schemes.\n",
    );
    emit("fig09_all_scenarios", &text, &to_json(&suites));
}
