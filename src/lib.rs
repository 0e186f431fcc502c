//! # hytlb — Hybrid TLB Coalescing, reproduced in Rust
//!
//! Facade crate for the reproduction of *Hybrid TLB Coalescing: Improving
//! TLB Translation Coverage under Diverse Fragmented Memory Allocations*
//! (Park, Heo, Jeong, Huh — ISCA 2017).
//!
//! The workspace is organised bottom-up; this crate re-exports every layer so
//! downstream users (and the examples under `examples/`) need a single
//! dependency:
//!
//! * [`types`] — addresses, page sizes, permissions, cycles.
//! * [`mem`] — buddy allocator, fragmentation driver, address-space maps,
//!   contiguity histograms and the six mapping scenarios of the paper.
//! * [`pagetable`] — x86-64 4-level page table with anchor PTEs and a page
//!   walker.
//! * [`tlb`] — set-associative and fully-associative TLB hardware models.
//! * [`core`] — the paper's contribution: the anchor TLB level and the
//!   dynamic anchor-distance selection algorithm.
//! * [`schemes`] — the one translation cascade every design runs
//!   ([`schemes::Mmu`]), Table 3's cost of each translation path, and
//!   the competing designs (baseline, THP, cluster, cluster-2MB, CoLT,
//!   RMM) as its coalesced levels.
//! * [`trace`] — synthetic workload trace generators for the 14 benchmarks.
//! * [`tracefile`] — the compressed, streaming `HYTLBTR3` trace-file
//!   format, the on-disk trace corpus ([`tracefile::TraceStore`]) and the
//!   `hytlb-tracectl` tool.
//! * [`sim`] — the trace-driven simulation engine, experiment definitions
//!   and report renderers.
//!
//! # Quickstart
//!
//! ```
//! use hytlb::prelude::*;
//!
//! // Map 64 MB with medium fragmentation, then run a small random workload
//! // through the anchor scheme.
//! let mapping = std::sync::Arc::new(Scenario::MediumContiguity.generate(16 * 1024, 42));
//! let index = std::sync::Arc::new(mapping.page_index());
//! let config = PaperConfig::default();
//! let trace: Vec<u64> = WorkloadKind::Gups.generator(16 * 1024, 7).take(10_000).collect();
//! let mut machine =
//!     Machine::for_scheme_indexed(SchemeKind::AnchorDynamic, &mapping, &index, &config);
//! let stats = machine.try_run_resolved(&index.resolve(&trace))?;
//! assert!(stats.accesses > 0);
//! # Ok::<(), hytlb::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hytlb_core as core;
pub use hytlb_mem as mem;
pub use hytlb_pagetable as pagetable;
pub use hytlb_schemes as schemes;
pub use hytlb_sim as sim;
pub use hytlb_tlb as tlb;
pub use hytlb_trace as trace;
pub use hytlb_tracefile as tracefile;
pub use hytlb_types as types;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use hytlb_core::{AnchorConfig, AnchorScheme, DistanceSelector};
    pub use hytlb_mem::{AddressSpaceMap, ContiguityHistogram, Scenario};
    pub use hytlb_sim::{Machine, PaperConfig, RunStats, SchemeKind};
    pub use hytlb_trace::WorkloadKind;
    pub use hytlb_types::{Cycles, PageSize, PhysFrameNum, VirtAddr, VirtPageNum};
}
