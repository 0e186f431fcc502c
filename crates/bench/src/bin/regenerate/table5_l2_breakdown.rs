//! Table 5: L2 TLB hit/miss breakdown of the anchor (Dynamic) scheme —
//! regular hit rate, anchor hit rate and L2 miss rate — for the demand and
//! medium-contiguity mappings.

use crate::{Matrix, Output};
use hytlb_bench::select_columns;
use hytlb_mem::Scenario;
use hytlb_sim::report::{l2_breakdown_table, to_json};
use hytlb_sim::{PaperConfig, SchemeKind};

pub(crate) const BANNER: &str = "Table 5: L2 TLB access breakdown (Dynamic)";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let mut text = String::new();
    let mut suites = Vec::new();
    for scenario in [Scenario::DemandPaging, Scenario::MediumContiguity] {
        let suite = select_columns(&matrix[&scenario], &[SchemeKind::AnchorDynamic]);
        text.push_str(&l2_breakdown_table(&suite, 0));
        text.push('\n');
        suites.push(suite);
    }
    text.push_str(
        "Shape check (paper Table 5): under demand paging regular (2MB) hits\n\
         dominate; under medium contiguity anchor hits take over; gups/graph500\n\
         keep high L2 miss rates at medium contiguity.\n",
    );
    Ok((text, to_json(&suites)))
}
