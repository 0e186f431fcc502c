//! Figure 9: mean relative TLB misses of every scheme under all six
//! mapping scenarios.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_sim::report::{render_table, suite_bars, to_json};
use hytlb_sim::PaperConfig;

pub(crate) const BANNER: &str = "Figure 9: mean relative TLB misses, all mapping scenarios";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let suites: Vec<_> = Scenario::all().into_iter().map(|s| &matrix[&s]).collect();
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
    Ok((text, to_json(&suites)))
}
