//! Ablation studies for the design choices called out in DESIGN.md §4:
//!
//! 1. Figure 6 anchor indexing vs. naive low-VPN-bit indexing.
//! 2. Table 2 fill policy (prefer-anchor) vs. always-regular.
//! 3. Algorithm 1 inverse-coverage cost weights vs. flat entry counting.
//! 4. Multi-region anchors (§4.2) vs. a single process-wide distance, on a
//!    deliberately bimodal mapping.

use crate::{Matrix, Output};
use hytlb_core::{AnchorConfig, AnchorScheme, CostModel, DistanceMode, FillPolicy};
use hytlb_mem::{AddressSpaceMap, ContiguityHistogram, Scenario};
use hytlb_schemes::AnchorIndexing;
use hytlb_sim::experiment::{mapping_for, trace_for};
use hytlb_sim::report::render_table;
use hytlb_sim::{AnyLevel, Machine, PaperConfig, RunStats, SchemeDispatch, SimError};
use hytlb_trace::WorkloadKind;
use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum};
use std::sync::Arc;

fn run_anchor(
    map: &Arc<AddressSpaceMap>,
    cfg: AnchorConfig,
    trace: &[u64],
    config: &PaperConfig,
) -> Result<RunStats, SimError> {
    let scheme = SchemeDispatch::new(AnchorScheme::new(Arc::clone(map), cfg), AnyLevel::Anchor);
    Machine::new(scheme, config).try_run_resolved(&map.page_index().resolve(trace))
}

pub(crate) const BANNER: &str = "Ablations: indexing / fill policy / cost model / regions";
pub(crate) fn format(config: &PaperConfig, _: &Matrix) -> Output {
    let mut text = String::new();
    let mut json = Vec::new();

    // 1. Anchor indexing, at a fixed distance of 32 on medium contiguity
    // — the L2 working set is then ~1000 anchors, which Fig. 6 indexing
    // spreads over all 128 sets while naive low-bit indexing crams into
    // the sets whose low index bits are zero.
    {
        let map = mapping_for(WorkloadKind::Canneal, Scenario::MediumContiguity, config);
        let trace = trace_for(WorkloadKind::Canneal, config);
        let mut rows = Vec::new();
        for (label, indexing) in [
            ("Fig6 [d, d+N)", AnchorIndexing::Fig6),
            ("naive low bits", AnchorIndexing::NaiveLowBits),
        ] {
            let cfg = AnchorConfig { indexing, ..AnchorConfig::static_distance(32) };
            let run = run_anchor(&map, cfg, &trace, config)?;
            json.push(serde_json::json!({"ablation": "indexing", "variant": label, "walks": run.tlb_misses()}));
            rows.push((
                label.to_owned(),
                vec![run.tlb_misses().to_string(), format!("{:.3}", run.translation_cpi())],
            ));
        }
        text.push_str(&render_table(
            "1. anchor indexing (canneal, medium contig, d=32)",
            &["walks".to_owned(), "CPI".to_owned()],
            &rows,
        ));
        text.push_str("Fig6 indexing must show far fewer walks: naive indexing piles anchors\ninto the low sets and thrashes them.\n\n");
    }

    // 2. Fill policy, on medium contiguity.
    {
        let map = mapping_for(WorkloadKind::Canneal, Scenario::MediumContiguity, config);
        let trace = trace_for(WorkloadKind::Canneal, config);
        let mut rows = Vec::new();
        for (label, fill) in [
            ("prefer anchor (paper)", FillPolicy::PreferAnchor),
            ("always regular", FillPolicy::AlwaysRegular),
        ] {
            let cfg = AnchorConfig { fill, ..AnchorConfig::dynamic() };
            let run = run_anchor(&map, cfg, &trace, config)?;
            json.push(serde_json::json!({"ablation": "fill", "variant": label, "walks": run.tlb_misses()}));
            rows.push((
                label.to_owned(),
                vec![run.tlb_misses().to_string(), run.stats.coalesced_hits.to_string()],
            ));
        }
        text.push_str(&render_table(
            "2. fill policy (canneal, medium contig)",
            &["walks".to_owned(), "anchor hits".to_owned()],
            &rows,
        ));
        text.push_str("Filling only the anchor on covered misses (Table 2 row 4) converts the\nL2 into anchor entries with large reach; always-regular degrades to\nnear-baseline behaviour.\n\n");
    }

    // 3. Cost model: which distances get picked, and the miss consequence,
    // on canneal's bimodal demand mapping (80% of memory in huge chunks,
    // thousands of tiny ones). The literal Algorithm 1 weights pick a tiny
    // distance there; flat counting picks the default's distance and
    // matches its walks, so this case separates only the literal weights.
    {
        let map = mapping_for(WorkloadKind::Canneal, Scenario::DemandPaging, config);
        let trace = trace_for(WorkloadKind::Canneal, config);
        let hist = ContiguityHistogram::from_map(&map);
        let mut rows = Vec::new();
        for (label, cost_model) in [
            ("capacity-aware (default)", CostModel::CapacityAware),
            ("Algorithm 1 literal", CostModel::InverseCoverage),
            ("flat entry count", CostModel::FlatCount),
        ] {
            let d = hytlb_core::DistanceSelector::paper(cost_model).select(&hist);
            let cfg = AnchorConfig { cost_model, ..AnchorConfig::dynamic() };
            let run = run_anchor(&map, cfg, &trace, config)?;
            json.push(serde_json::json!({"ablation": "cost_model", "variant": label, "distance": d, "walks": run.tlb_misses()}));
            rows.push((
                label.to_owned(),
                vec![hytlb_sim::report::format_distance(d), run.tlb_misses().to_string()],
            ));
        }
        text.push_str(&render_table(
            "3. selector cost model (canneal, demand)",
            &["distance".to_owned(), "walks".to_owned()],
            &rows,
        ));
        text.push_str("On bimodal real mappings the literal Algorithm 1 weights select a tiny\ndistance and forfeit the huge chunks; the capacity-aware default follows\nthe paper's stated aim and its Table 6 selections.\n\n");
    }

    // 4. Multi-region vs single distance on a bimodal mapping: a
    // fine-grained arena plus a huge contiguous heap.
    {
        let mut map = AddressSpaceMap::new();
        let mut vpn = 1u64 << 20;
        let mut pfn = 1u64 << 20;
        let arena_pages = 1u64 << 14;
        let mut placed = 0u64;
        while placed < arena_pages {
            let len = 2 + (placed % 7); // 2..8-page chunks
            map.map_range(
                VirtPageNum::new(vpn),
                PhysFrameNum::new(pfn),
                len,
                Permissions::READ_WRITE,
            );
            vpn += len;
            pfn += len + 3;
            placed += len;
        }
        let heap_base = 1u64 << 24;
        let heap_pages = 1u64 << 16;
        map.map_range(
            VirtPageNum::new(heap_base),
            PhysFrameNum::new(1 << 25),
            heap_pages,
            Permissions::READ_WRITE,
        );
        let map = Arc::new(map);
        let footprint = map.mapped_pages();
        let trace: Vec<u64> = WorkloadKind::Canneal
            .generator(footprint, config.seed)
            .take(config.accesses as usize)
            .collect();
        let mut rows = Vec::new();
        for (label, mode) in [
            ("single distance", DistanceMode::Dynamic),
            ("regions (<=8)", DistanceMode::MultiRegion(8)),
        ] {
            let cfg = AnchorConfig { mode, ..AnchorConfig::dynamic() };
            let run = run_anchor(&map, cfg, &trace, config)?;
            json.push(serde_json::json!({"ablation": "regions", "variant": label, "walks": run.tlb_misses()}));
            rows.push((
                label.to_owned(),
                vec![run.tlb_misses().to_string(), run.stats.coalesced_hits.to_string()],
            ));
        }
        text.push_str(&render_table(
            "4. multi-region anchors (bimodal mapping)",
            &["walks".to_owned(), "anchor hits".to_owned()],
            &rows,
        ));
        text.push_str("Per-region distances serve both the fine-grained arena and the huge\nheap; a single compromise distance wastes one of them (paper §4.2).\n");
    }

    Ok((text, serde_json::to_string_pretty(&json).expect("serializable")))
}
