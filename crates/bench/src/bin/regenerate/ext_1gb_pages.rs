//! Extension experiment: how far do fixed page sizes scale? (§2.1)
//!
//! The paper argues that fixed page sizes have limited coverage
//! scalability even with 1 GB pages, because the OS must hand out 1 GB
//! *aligned, fully contiguous* units — which fragmented memory never
//! provides. This experiment compares THP, THP-1G, RMM and the anchor TLB
//! on the scenario spectrum: at max contiguity the giant pages shine
//! (16 entries cover the footprint); a single 2 MB notch of fragmentation
//! (high contiguity) already locks them out, while anchors keep scaling.

use crate::{Matrix, Output};
use hytlb_mem::Scenario;
use hytlb_sim::report::render_table;
use hytlb_sim::{try_run_matrix_with, MatrixCache, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;

pub(crate) const BANNER: &str = "Extension: 1 GB pages and the limits of fixed sizes (§2.1)";
pub(crate) fn format(config: &PaperConfig, _: &Matrix) -> Output {
    let mut config = *config;
    // Fixed-size coverage limits only bind beyond the L2's 2 MB reach
    // (1024 entries x 2 MB = 2 GB), so this experiment runs gups at its
    // full 8 GB footprint by default; --quick still shrinks it.
    config.footprint_shift = config.footprint_shift.saturating_sub(2);

    let workload = WorkloadKind::Gups; // the giant-footprint stress case
                                       // Column 0 (Base) is the reference the others are reported against.
    let kinds = [
        SchemeKind::Baseline,
        SchemeKind::Thp,
        SchemeKind::Thp1G,
        SchemeKind::Rmm,
        SchemeKind::AnchorDynamic,
    ];
    let cols: Vec<String> = kinds[1..].iter().map(|k| k.label()).collect();
    let scenarios = [Scenario::MaxContiguity, Scenario::HighContiguity, Scenario::MediumContiguity];
    let suites =
        try_run_matrix_with(&MatrixCache::new(), &scenarios, &[workload], &kinds, &config)?;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for suite in &suites {
        let row = &suite.rows[0];
        let base = &row.runs[0];
        let cells: Vec<String> = row.runs[1..]
            .iter()
            .map(|run| {
                json.push(serde_json::json!({
                    "scenario": suite.scenario.label(),
                    "scheme": &run.scheme,
                    "relative_misses_pct": run.relative_misses_pct(base),
                }));
                format!("{:.1}", run.relative_misses_pct(base))
            })
            .collect();
        rows.push((suite.scenario.label().to_owned(), cells));
    }
    let text = format!(
        "{}\nRelative misses (%) for gups. 1 GB pages only engage when the mapping\n\
         offers 1 GB-aligned contiguous units (max); at high contiguity (chunks\n\
         up to 256 MB) THP-1G degenerates to THP while anchors keep scaling —\n\
         §2.1's point that fixed sizes' \"scalability of coverage will be\n\
         eventually limited\".\n",
        render_table("scenario", &cols, &rows)
    );
    Ok((text, serde_json::to_string_pretty(&json).expect("serializable")))
}
