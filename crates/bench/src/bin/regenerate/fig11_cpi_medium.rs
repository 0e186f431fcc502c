//! Figure 11: translation-CPI breakdown (L2 hit / coalesced hit / page
//! walk) per benchmark and scheme under the medium-contiguity mapping.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_sim::report::{cpi_table, to_json};
use hytlb_sim::PaperConfig;

pub(crate) const BANNER: &str = "Figure 11: translation CPI breakdown, medium contiguity";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let suite = &matrix[&Scenario::MediumContiguity];
    let text = format!(
        "{}\nShape check (paper Fig. 11): THP/RMM columns stay close to Base; the\n\
         coalesced-hit component carries Cluster and Dynamic; graph500's CPI\n\
         drops by several cycles per instruction under Dynamic.\n",
        cpi_table(suite)
    );
    Ok((text, to_json(suite)))
}
