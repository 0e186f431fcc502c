//! The OS-model substrate behind Figure 1 and Table 4 — scenario
//! generation, histogram construction and CDF extraction.

use hytlb_bench::Bench;
use hytlb_mem::{BuddyAllocator, ContiguityHistogram, FragmentationLevel, Fragmenter, Scenario};

/// Allocate/free pairs per timed run of the buddy hot path.
const BUDDY_OPS: u64 = 100_000;

fn main() {
    let mut bench = Bench::new("mapping_generation", 10);

    // Table 4 substrate: generating each mapping scenario.
    for scenario in Scenario::all() {
        bench.run(&format!("table4_scenario_generate/{}", scenario.label()), 1 << 15, || {
            scenario.generate(1 << 15, 3).mapped_pages()
        });
    }

    // Figure 1 substrate: fragmentation pressure + CDF extraction.
    bench.run("fig1_pressure_and_cdf", 1 << 14, || {
        let mut buddy = BuddyAllocator::new(1 << 16);
        let mut frag = Fragmenter::new(5);
        frag.shatter(&mut buddy, FragmentationLevel::Moderate);
        let map =
            Scenario::DemandPaging.generate_with_pressure(1 << 14, 5, FragmentationLevel::Moderate);
        ContiguityHistogram::from_map(&map).page_weighted_cdf().len()
    });

    // Buddy allocator hot path.
    let mut buddy = BuddyAllocator::new(1 << 16);
    bench.run("buddy_alloc_free_order0", BUDDY_OPS, || {
        for _ in 0..BUDDY_OPS {
            let f = buddy.allocate(0).expect("space");
            buddy.free(f, 0).expect("valid");
        }
    });
    bench.finish();
}
