//! Figure 7: relative TLB misses per benchmark under the demand-paging
//! mapping (THP enabled), across all seven schemes.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_sim::report::{relative_miss_table, to_json};
use hytlb_sim::PaperConfig;

pub(crate) const BANNER: &str = "Figure 7: relative TLB misses, demand paging";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let suite = &matrix[&Scenario::DemandPaging];
    let text = format!(
        "{}\nShape check (paper Fig. 7): THP cuts ~60% of misses for most apps but\n\
         not omnetpp/xalancbmk; Cluster-2MB beats plain Cluster; Dynamic matches\n\
         or beats the best prior scheme per app.\n",
        relative_miss_table(suite)
    );
    Ok((text, to_json(suite)))
}
