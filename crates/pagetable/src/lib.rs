//! x86-64-style page tables with anchor entries.
//!
//! This crate implements the software half of the paper's hybrid coalescing
//! design:
//!
//! * [`PageTableEntry`] — the 64-bit PTE with the paper's Figure 4 layout:
//!   the 11 ignored bits `[52, 63)` of an anchor entry store (part of) its
//!   contiguity field, and fields wider than 11 bits are distributed over
//!   the following PTEs of the same 64-byte cache block (§3.1).
//! * [`PageTable`] — a real 4-level radix table (PML4→PDPT→PD→PT) with 2 MB
//!   leaf entries at the PD level, built from an
//!   [`AddressSpaceMap`](hytlb_mem::AddressSpaceMap).
//! * [`PageWalker`] — walks the radix table, charging the paper's fixed
//!   50-cycle walk latency (Table 3) or an optional per-level model.
//! * [`AnchoredPageTable`] — maintains anchor contiguity fields for a given
//!   anchor distance, answers anchor probes, and models the cost of
//!   re-anchoring the table when the OS changes the distance (§3.3).
//!
//! # Examples
//!
//! ```
//! use hytlb_mem::Scenario;
//! use hytlb_pagetable::{AnchoredPageTable, PageTable};
//! use hytlb_types::VirtPageNum;
//!
//! let map = Scenario::MediumContiguity.generate(1024, 7);
//! let mut table = AnchoredPageTable::new(PageTable::from_map(&map, true), 8);
//! table.reanchor(&map, 8);
//! let vpn = map.chunks().next().unwrap().vpn;
//! let probe = table.anchor_probe(vpn).expect("anchor PTE exists");
//! assert!(probe.contiguity >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchored;
mod pte;
mod pwc;
mod table;
mod walker;

pub use anchored::{is_valid_anchor_distance, AnchorProbe, AnchoredPageTable, ReanchorCost};
pub use pte::{
    read_distributed_contiguity, write_distributed_contiguity, PageTableEntry, ANCHOR_BITS_PER_PTE,
    FLAG_MASKS, MAX_CONTIGUITY,
};
pub use pwc::{CachedWalkResult, CachedWalker};
pub use table::{LeafEntry, PageTable};
pub use walker::{PageWalker, WalkLatency, WalkResult};
