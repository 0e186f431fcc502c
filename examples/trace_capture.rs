//! Capture-then-replay workflow, mirroring the paper's Pin methodology:
//! stream a workload trace to a compressed `HYTLBTR2` file once, then
//! replay the identical trace from disk against several mapping
//! scenarios.
//!
//! Capture streams: each address goes into the block writer as the
//! generator produces it, so the writer never holds the whole trace.
//! Replay decodes the file once and places the trace onto each mapping
//! with `PageIndex::resolve`, the form the simulator's hot loop consumes.
//!
//! ```sh
//! cargo run --release --example trace_capture
//! ```

use hytlb::prelude::*;
use hytlb::trace::WorkloadKind;
use hytlb::tracefile::{TraceMeta, TraceReader, TraceWriter};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadKind::Mcf;
    let footprint = 32 * 1024;
    let seed = 7;
    let accesses = 200_000;

    // 1. "Pin capture": stream the access trace straight to disk.
    let path = std::env::temp_dir().join("hytlb_mcf.htr2");
    let meta = TraceMeta::new(workload.label(), footprint, seed);
    let mut writer = TraceWriter::new(std::fs::File::create(&path)?, &meta)?;
    writer.extend(workload.generator(footprint, seed).take(accesses))?;
    let summary = writer.finish()?;
    println!(
        "captured {} accesses of {} to {} ({} bytes, {:.2}x smaller than raw u64s)",
        summary.accesses,
        workload,
        path.display(),
        summary.bytes,
        summary.compression_ratio(),
    );

    // 2. Replay the stored trace against three different mappings.
    let reader = TraceReader::new(std::fs::File::open(&path)?)?;
    let trace = reader.addresses().collect::<Result<Vec<u64>, _>>()?;
    let config = PaperConfig::default();
    println!("\nreplaying {workload}:");
    println!("{:<10} {:>12} {:>12}", "scenario", "base walks", "anchor walks");
    for scenario in [Scenario::LowContiguity, Scenario::MediumContiguity, Scenario::MaxContiguity] {
        let map = Arc::new(scenario.generate(footprint, 3));
        let index = Arc::new(map.page_index());
        let resolved = index.resolve(&trace);
        let run = |kind| {
            Machine::for_scheme_indexed(kind, &map, &index, &config).try_run_resolved(&resolved)
        };
        let base = run(SchemeKind::Baseline)?;
        let anchor = run(SchemeKind::AnchorDynamic)?;
        println!(
            "{:<10} {:>12} {:>12}   (d = {})",
            scenario.label(),
            base.tlb_misses(),
            anchor.tlb_misses(),
            anchor.anchor_distance.expect("anchor distance")
        );
    }
    std::fs::remove_file(&path)?;
    Ok(())
}
