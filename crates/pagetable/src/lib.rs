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
//! * [`PageWalker`] — walks the radix table and reports the leaf and the
//!   nodes it touched. The paper charges every walk a fixed 50 cycles
//!   (Table 3); that cost lives with the other Table 3 costs in
//!   `hytlb_schemes::TranslationPath::cycles`.
//! * Anchor maintenance on [`PageTable`] itself:
//!   [`PageTable::reanchor`] writes the anchor contiguity fields for a
//!   distance over a VPN range and returns the sweep's [`ReanchorCost`],
//!   calibrated to the paper's distance-change measurements (§3.3);
//!   [`PageTable::anchor_probe`] reads an anchor back as an
//!   [`AnchorProbe`]. The table holds no distance: the OS model
//!   (`hytlb_core::OsKernel`) owns it and passes it to every call.
//!
//! # Examples
//!
//! ```
//! use hytlb_mem::Scenario;
//! use hytlb_pagetable::PageTable;
//!
//! let map = Scenario::MediumContiguity.generate(1024, 7);
//! let mut table = PageTable::from_map(&map, true);
//! table.reanchor(&map, .., 8);
//! let vpn = map.chunks().next().unwrap().vpn;
//! let probe = table.anchor_probe(vpn, 8).expect("anchor PTE exists");
//! assert!(probe.contiguity >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchored;
mod pte;
mod pwc;
mod table;
mod walker;

pub use anchored::{is_valid_anchor_distance, AnchorProbe, ReanchorCost};
pub use pte::{
    read_distributed_contiguity, write_distributed_contiguity, PageTableEntry, ANCHOR_BITS_PER_PTE,
    FLAG_MASKS, MAX_CONTIGUITY,
};
pub use pwc::{CachedWalkResult, CachedWalker};
pub use table::{LeafEntry, PageTable};
pub use walker::{PageWalker, WalkResult};
