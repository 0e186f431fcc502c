//! Figure 2: relative TLB misses of prior techniques under three mapping
//! scenarios (the motivation experiment).
//!
//! Base, cluster and RMM run the full workload suite under small-, medium-
//! and large-chunk mappings. The paper's shape: cluster helps at small
//! chunks but plateaus; RMM is ineffective at small chunks and nearly
//! eliminates misses at large ones.

use crate::{Matrix, Output};
use hytlb_bench::select_columns;
use hytlb_mem::Scenario;
use hytlb_sim::report::{render_table, to_json};
use hytlb_sim::{PaperConfig, SchemeKind};

pub(crate) const BANNER: &str = "Figure 2: motivation — prior schemes vs. mapping contiguity";
pub(crate) fn format(_: &PaperConfig, matrix: &Matrix) -> Output {
    let kinds = [SchemeKind::Baseline, SchemeKind::Cluster, SchemeKind::Rmm];
    let scenarios = [
        ("Small contig.", Scenario::LowContiguity),
        ("Medium contig.", Scenario::MediumContiguity),
        ("Large contig.", Scenario::HighContiguity),
    ];
    let cols: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let mut rows = Vec::new();
    let mut suites = Vec::new();
    for (label, scenario) in scenarios {
        let suite = select_columns(&matrix[&scenario], &kinds);
        let means = suite.mean_relative_misses();
        rows.push((label.to_owned(), means.iter().map(|m| format!("{m:.1}")).collect()));
        suites.push(suite);
    }
    let text = format!(
        "{}\nShape check (paper Fig. 2): cluster < base everywhere and roughly flat;\n\
         RMM ~ base at small contiguity, near zero at large contiguity.\n",
        render_table("mean rel. misses %", &cols, &rows)
    );
    Ok((text, to_json(&suites)))
}
