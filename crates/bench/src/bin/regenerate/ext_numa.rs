//! Extension experiment: the §2.2 NUMA tension, quantified.
//!
//! On a multi-node machine the OS must choose between contiguity
//! (node-local giant allocations) and balance (fine-grained interleaving).
//! This experiment allocates the same footprint under both policies,
//! reports the contiguity each produces, and shows which translation
//! scheme copes: THP collapses under interleaving while the anchor TLB
//! adapts its distance to the interleave granularity.

use crate::{Matrix, Output};
use hytlb_mem::{ContiguityHistogram, FragmentationLevel, NumaPolicy, NumaTopology};
use hytlb_sim::report::render_table;
use hytlb_sim::{Machine, PaperConfig, SchemeKind};
use hytlb_trace::WorkloadKind;
use std::sync::Arc;

pub(crate) const BANNER: &str = "Extension: NUMA placement vs translation coverage (§2.2)";
pub(crate) fn format(config: &PaperConfig, _: &Matrix) -> Output {
    let footprint = config.footprint_for(WorkloadKind::Canneal);
    let policies = [
        ("local (1 node)", NumaPolicy::LocalOnly { node: 0 }),
        ("interleave 4K pages", NumaPolicy::Interleave { granularity_pages: 1 }),
        ("interleave 64KB", NumaPolicy::Interleave { granularity_pages: 16 }),
        ("interleave 2MB", NumaPolicy::Interleave { granularity_pages: 512 }),
    ];
    let kinds = [SchemeKind::Baseline, SchemeKind::Thp, SchemeKind::AnchorDynamic];
    let cols = vec![
        "mean chunk".to_owned(),
        "Base walks".to_owned(),
        "THP walks".to_owned(),
        "Dynamic walks".to_owned(),
        "anchor d".to_owned(),
    ];
    let trace: Vec<u64> = WorkloadKind::Canneal
        .generator(footprint, config.seed)
        .take(config.accesses as usize)
        .collect();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, policy) in policies {
        let mut numa = NumaTopology::new(4, footprint * 2);
        numa.shatter_all(FragmentationLevel::Light, config.seed);
        let map = Arc::new(numa.allocate_map(footprint, policy).expect("capacity"));
        let index = Arc::new(map.page_index());
        let resolved = index.resolve(&trace);
        let hist = ContiguityHistogram::from_map(&map);
        let mut cells = vec![format!("{:.0}", hist.mean_contiguity())];
        let mut distance = None;
        for &kind in &kinds {
            let run = Machine::for_scheme_indexed(kind, &map, &index, config)
                .try_run_resolved(&resolved)?;
            distance = distance.or(run.anchor_distance);
            json.push(serde_json::json!({
                "policy": label,
                "scheme": run.scheme,
                "walks": run.tlb_misses(),
                "mean_chunk": hist.mean_contiguity(),
            }));
            cells.push(run.tlb_misses().to_string());
        }
        cells.push(distance.map_or_else(|| "-".to_owned(), hytlb_sim::report::format_distance));
        rows.push((label.to_owned(), cells));
    }
    let text = format!(
        "{}\ncanneal footprint, 4 NUMA nodes, light pressure. Local placement keeps\n\
         giant chunks (every scheme is happy); page-granular interleaving kills\n\
         THP entirely while the anchor TLB tracks the interleave granularity\n\
         with its distance — the §2.2 case for allocation-flexible coalescing.\n",
        render_table("NUMA policy", &cols, &rows)
    );
    Ok((text, serde_json::to_string_pretty(&json).expect("serializable")))
}
