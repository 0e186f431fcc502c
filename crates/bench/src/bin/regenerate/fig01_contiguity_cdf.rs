//! Figure 1: cumulative distributions of contiguous-chunk sizes under
//! varying co-runner interference.
//!
//! The paper captures pagemaps of `canneal` (4-socket) and `raytrace`
//! (2-socket) while background PARSEC jobs pressure the allocator. Here the
//! OS model reproduces the setup: demand paging with THP under each
//! fragmentation level plays the role of one captured execution. The series
//! are the CDF values at chunk sizes 2^0 .. 2^10 pages — the x-axis of the
//! paper's figure.

use crate::{Matrix, Output};
use hytlb_mem::{ContiguityHistogram, FragmentationLevel, Scenario};
use hytlb_sim::report::render_table;
use hytlb_sim::PaperConfig;

pub(crate) const BANNER: &str = "Figure 1: contiguity CDFs under fragmentation pressure";
pub(crate) fn format(config: &PaperConfig, _: &Matrix) -> Output {
    // canneal's ~1 GB working set and raytrace's ~1.3 GB, scaled.
    let subjects =
        [("canneal_4socket", 1u64 << 18), ("raytrace_2socket", (1u64 << 18) + (1 << 16))];
    let sizes: Vec<u64> = (0..=10).map(|i| 1u64 << i).collect();
    let cols: Vec<String> = sizes.iter().map(|s| format!("<=2^{}", s.ilog2())).collect();

    let mut text = String::new();
    let mut json_rows = Vec::new();
    for (label, footprint) in subjects {
        let footprint = (footprint >> config.footprint_shift).max(1 << 13);
        let mut rows = Vec::new();
        for (i, level) in FragmentationLevel::all().into_iter().enumerate() {
            let map = Scenario::DemandPaging.generate_with_pressure(
                footprint,
                config.seed + i as u64,
                level,
            );
            let hist = ContiguityHistogram::from_map(&map);
            let cells: Vec<String> =
                sizes.iter().map(|&s| format!("{:.2}", hist.fraction_in_chunks_up_to(s))).collect();
            json_rows.push(serde_json::json!({
                "subject": label,
                "pressure": format!("{level:?}"),
                "cdf": sizes.iter().map(|&s| hist.fraction_in_chunks_up_to(s)).collect::<Vec<_>>(),
                "mean_contiguity": hist.mean_contiguity(),
            }));
            rows.push((format!("{level:?}"), cells));
        }
        text.push_str(&render_table(&format!("{label} CDF"), &cols, &rows));
        text.push('\n');
    }
    text.push_str(
        "Reading: each row is one 'execution' under a different co-runner load.\n\
         As in the paper, contiguity varies widely run-to-run: unpressured runs\n\
         keep most memory in >=2^9-page chunks, heavy pressure pushes the CDF\n\
         toward small chunks.\n",
    );
    Ok((text, serde_json::to_string_pretty(&json_rows).expect("serializable")))
}
