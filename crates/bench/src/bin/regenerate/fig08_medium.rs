//! Figure 8: relative TLB misses per benchmark under the medium-contiguity
//! synthetic mapping (chunks of 1–512 pages, Table 4).

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_sim::report::{relative_miss_table, to_json};
use hytlb_sim::PaperConfig;

pub(crate) const BANNER: &str = "Figure 8: relative TLB misses, medium contiguity";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let suite = &matrix[&Scenario::MediumContiguity];
    let text = format!(
        "{}\nShape check (paper Fig. 8): THP and RMM are nearly ineffective (few 2MB+\n\
         chunks exist); Cluster helps but is capacity-limited; Dynamic exploits\n\
         the sub-2MB contiguity and wins broadly; gups is barely helped by anyone.\n",
        relative_miss_table(suite)
    );
    Ok((text, to_json(suite)))
}
