//! Hybrid TLB coalescing — the paper's contribution.
//!
//! This crate assembles the anchor-based translation architecture on top of
//! the substrates (`hytlb-mem`, `hytlb-pagetable`, `hytlb-tlb`,
//! `hytlb-schemes`):
//!
//! * [`DistanceSelector`] — the dynamic anchor-distance selection heuristic
//!   of §4 (Algorithm 1): from the OS contiguity histogram it estimates,
//!   for every candidate distance, how many TLB entries (anchor + 2 MB +
//!   4 KB) covering the footprint would cost, weighted by inverse coverage,
//!   and picks the cheapest.
//! * [`OsKernel`] — the operating-system model: owns the mapping, the
//!   anchored page table and the per-process anchor distance; performs the
//!   periodic epoch check (§3.3/§4.1) with hysteresis, and pays the
//!   re-anchoring sweep plus full TLB shootdown when the distance changes.
//! * [`AnchorLevel`] — the hardware lookup flow of Figure 5 / Table 2 as
//!   the coalesced level of the shared cascade
//!   ([`CoalescedLevel`](hytlb_schemes::CoalescedLevel)): after the
//!   regular L2 (4 KB, 2 MB) misses, the anchor probe (Figure 6 indexing,
//!   extra contiguity comparator), then a page walk with anchor-aware fill.
//!   [`AnchorScheme`] is the whole MMU built around it.
//! * [`RegionTable`] — the §4.2 multi-region extension (the paper's future
//!   work): partitions the address space into up to `N` regions with
//!   per-region anchor distances.
//!
//! # Examples
//!
//! ```
//! use hytlb_core::{AnchorConfig, AnchorScheme};
//! use hytlb_mem::Scenario;
//! use hytlb_schemes::TranslationScheme;
//! use std::sync::Arc;
//!
//! let map = Arc::new(Scenario::MediumContiguity.generate(2048, 1));
//! let mut anchor = AnchorScheme::new(Arc::clone(&map), AnchorConfig::dynamic());
//! for (vpn, pfn) in map.iter_pages() {
//!     assert_eq!(anchor.access(vpn.base_addr()).pfn, Some(pfn));
//! }
//! assert!(anchor.stats().coalesced_hits > 0); // anchors served hits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchor_scheme;
mod distance;
mod os;
mod region;

pub use anchor_scheme::{
    AnchorConfig, AnchorLevel, AnchorMiss, AnchorScheme, DistanceMode, FillPolicy,
};
pub use distance::{CostModel, DistanceSelector, L2_ENTRY_BUDGET};
pub use os::{EpochOutcome, OsKernel};
pub use region::{Region, RegionTable};
