//! TLB hardware models.
//!
//! The crate provides the building blocks every translation scheme in the
//! paper's evaluation is assembled from (Table 3):
//!
//! * [`SetAssocTlb`] — a generic set-associative array with true-LRU
//!   replacement. Schemes choose the payload type and compute set indices
//!   and tags themselves, because that is exactly the part the paper
//!   modifies (Figure 6 changes the *index bits* for anchor entries while
//!   reusing the same physical array).
//! * [`L1Tlb`] — the split per-size L1 (64-entry 4-way for 4 KB pages,
//!   32-entry 4-way for 2 MB pages), shared by every scheme.
//! * [`RangeTlb`] — the 32-entry fully-associative range TLB of RMM.
//!
//! # Examples
//!
//! ```
//! use hytlb_tlb::SetAssocTlb;
//!
//! // A 1024-entry, 8-way L2 TLB: 128 sets.
//! let mut l2: SetAssocTlb<u64> = SetAssocTlb::new(128, 8);
//! let vpn = hytlb_types::VirtPageNum::new(0xabcdef);
//! let set = vpn.index_bits(0, l2.geometry("L2").index_mask);
//! l2.insert(set, vpn.as_u64(), 42);
//! assert_eq!(l2.lookup(set, vpn.as_u64()), Some(&42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geometry;
mod l1;
mod range_tlb;
mod set_assoc;

pub use geometry::TlbGeometry;
pub use l1::L1Tlb;
pub use range_tlb::{RangeEntry, RangeTlb};
pub use set_assoc::SetAssocTlb;
