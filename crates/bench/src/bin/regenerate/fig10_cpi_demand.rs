//! Figure 10: translation-CPI breakdown (L2 hit / coalesced hit / page
//! walk) per benchmark and scheme under demand paging.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_sim::report::{cpi_table, to_json};
use hytlb_sim::PaperConfig;

pub(crate) const BANNER: &str = "Figure 10: translation CPI breakdown, demand paging";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let suite = &matrix[&Scenario::DemandPaging];
    let text = format!(
        "{}\nShape check (paper Fig. 10): CPI tracks the miss reductions of Fig. 7;\n\
         the walk component dominates Base for graph500/gups/tigr and Dynamic\n\
         removes most of it.\n",
        cpi_table(suite)
    );
    Ok((text, to_json(suite)))
}
