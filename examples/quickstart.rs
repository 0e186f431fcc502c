//! Quickstart: build a fragmented mapping, run the anchor TLB over it, and
//! compare against the 4 KB baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hytlb::prelude::*;
use hytlb::sim::SimError;
use std::sync::Arc;

fn main() -> Result<(), SimError> {
    // 1. An OS mapping: 256 MB allocated with medium fragmentation
    //    (contiguous chunks of 1-512 pages, Table 4 of the paper).
    let footprint_pages = 64 * 1024;
    let mapping = Arc::new(Scenario::MediumContiguity.generate(footprint_pages, 42));
    println!(
        "mapping: {} pages in {} contiguous chunks (mean {:.1} pages/chunk)",
        mapping.mapped_pages(),
        mapping.chunk_count(),
        ContiguityHistogram::from_map(&mapping).mean_contiguity()
    );

    // 2. A workload: canneal-style hot/cold accesses over that footprint.
    let config = PaperConfig::default();
    let trace: Vec<u64> =
        WorkloadKind::Canneal.generator(footprint_pages, config.seed).take(500_000).collect();

    // 3. Place the trace onto the mapping once, then run the paper's hybrid
    //    coalescing (dynamic anchor distance) and the baseline over the
    //    identical resolved trace.
    let index = Arc::new(mapping.page_index());
    let resolved = index.resolve(&trace);
    let run = |kind| {
        Machine::for_scheme_indexed(kind, &mapping, &index, &config).try_run_resolved(&resolved)
    };
    let base = run(SchemeKind::Baseline)?;
    let anchor = run(SchemeKind::AnchorDynamic)?;

    println!("\n              walks (TLB misses)   translation CPI");
    for run in [&base, &anchor] {
        println!("{:<12}  {:>20}   {:>15.4}", run.scheme, run.tlb_misses(), run.translation_cpi());
    }
    println!(
        "\nanchor distance selected by Algorithm 1: {} pages",
        anchor.anchor_distance.expect("anchor scheme reports a distance")
    );
    println!("misses relative to baseline: {:.1}%", anchor.relative_misses_pct(&base));
    Ok(())
}
