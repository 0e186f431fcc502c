//! The anchor architecture's individual components — the counterparts of
//! Table 2 (lookup flow), Table 6 (Algorithm 1) and the §3.3
//! distance-change sweep.

use hytlb_bench::Bench;
use hytlb_core::DistanceSelector;
use hytlb_mem::{ContiguityHistogram, Scenario};
use hytlb_pagetable::{AnchoredPageTable, PageTable};
use hytlb_schemes::{AnchorIndexing, SharedL2};
use hytlb_types::{PhysFrameNum, VirtPageNum};
use std::hint::black_box;

/// Lookups per timed run of the Table 2 critical path.
const LOOKUPS: u64 = 100_000;

fn main() {
    let mut bench = Bench::new("anchor_components", 10);

    // Table 2 critical path: a shared-L2 anchor lookup + contiguity check.
    let mut l2 = SharedL2::paper_default();
    let d_log = 6u32;
    for i in 0..1024u64 {
        l2.insert_anchor(
            VirtPageNum::new(i << d_log),
            PhysFrameNum::new(i << d_log),
            1 << d_log,
            d_log,
            AnchorIndexing::Fig6,
        );
    }
    bench.run("table2_anchor_lookup_hit", LOOKUPS, || {
        let mut i = 0u64;
        for _ in 0..LOOKUPS {
            i = (i + 37) % (1024 << d_log);
            let vpn = VirtPageNum::new(i);
            black_box(
                l2.lookup_anchor(vpn, d_log, AnchorIndexing::Fig6)
                    .filter(|h| h.covers(vpn))
                    .map(|h| h.translate(vpn)),
            );
        }
    });

    // Algorithm 1: full candidate sweep over a realistic histogram.
    let selector = DistanceSelector::paper_default();
    for scenario in [Scenario::DemandPaging, Scenario::LowContiguity, Scenario::MaxContiguity] {
        let hist = ContiguityHistogram::from_map(&scenario.generate(1 << 16, 7));
        bench.run(&format!("table6_algorithm1_select/{}", scenario.label()), 1, || {
            selector.select(&hist)
        });
    }

    // §3.3: re-anchoring sweeps at the paper's three distances over 1 GB.
    let map = Scenario::MaxContiguity.generate(1 << 18, 7);
    for d in [8u64, 64, 512] {
        let mut apt = AnchoredPageTable::new(PageTable::from_map(&map, false), 8);
        bench.run(&format!("sec3_3_distance_change_sweep/{d}"), 1, || {
            apt.reanchor(&map, d).anchors_written
        });
    }
    bench.finish();
}
