//! The competing translation schemes of the paper's evaluation, as levels
//! of one MMU.
//!
//! Every design translates an access through the same [`Cascade`]: L1 →
//! the shared L2's 4 KB then 2 MB entries → one coalesced structure →
//! page walk → fill. A design is a [`CoalescedLevel`] — the coalesced
//! structure and its fill rule — and its [`Mmu`] is the cascade plus that
//! level, implementing [`TranslationScheme`]: feed it a stream of virtual
//! addresses and it reports, per access, which structure resolved the
//! translation and how many cycles it cost under the paper's Table 3
//! latency model.
//!
//! Levels provided here (the anchor level is `hytlb-core`'s):
//!
//! * [`PagedLevel`] — no coalesced structure: [`Mmu::baseline`] (4 KB
//!   pages only, 1024-entry 8-way shared L2) and [`Mmu::thp`]
//!   (transparent huge pages: 4 KB + 2 MB entries share the L2 array).
//! * [`GiantTlb`] — [`Mmu::thp_1g`]: THP plus 1 GB pages in a separate
//!   16-entry L2 TLB.
//! * [`ClusterTlb`] — cluster TLB (Pham et al. HPCA'14): the L2 is
//!   partitioned into a 768-entry 6-way regular array and a 320-entry
//!   5-way cluster-8 array; [`Mmu::cluster_2mb`] also holds 2 MB entries
//!   in the regular array.
//! * [`ColtTlb`] — CoLT-SA (Pham et al. MICRO'12), optionally with the
//!   CoLT-FA array ([`Mmu::colt_fa`]).
//! * [`RangeLevel`] — redundant memory mapping (Karakostas et al.
//!   ISCA'15): THP plus a 32-entry fully-associative range TLB.
//!
//! The [`SharedL2`] helper implements the mixed-entry L2 array with the
//! paper's indexing rules (Figure 6), shared with `hytlb-core`'s anchor
//! level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod colt;
mod mmu;
mod paged;
mod rmm;
mod scheme;
mod shared_l2;
mod thp1g;

pub use cluster::{ClusterTlb, CLUSTER_SPAN};
pub use colt::ColtTlb;
pub use mmu::{BuildMmu, Cascade, CoalescedLevel, Mmu, Probe, PteBlock};
pub use paged::PagedLevel;
pub use rmm::RangeLevel;
pub use scheme::{
    AccessResult, BatchFault, LatencyModel, SchemeStats, TranslationPath, TranslationScheme,
};
pub use shared_l2::{AnchorHit, AnchorIndexing, SharedL2};
pub use thp1g::GiantTlb;
