//! The competing translation schemes of the paper's evaluation.
//!
//! Every scheme (including the hybrid-coalescing scheme in `hytlb-core`)
//! implements [`TranslationScheme`]: feed it a stream of virtual addresses
//! and it reports, per access, which structure resolved the translation and
//! how many cycles it cost under the paper's Table 3 latency model.
//!
//! Schemes provided here:
//!
//! * [`BaselineScheme`] — 4 KB pages only, 1024-entry 8-way shared L2.
//! * [`ThpScheme`] — transparent huge pages: 4 KB + 2 MB entries share the
//!   L2 array.
//! * [`ClusterScheme`] — cluster TLB (Pham et al. HPCA'14): the L2 is
//!   partitioned into a 768-entry 6-way regular array and a 320-entry 5-way
//!   cluster-8 array; optionally (`cluster-2MB`) the regular array also
//!   holds 2 MB entries.
//! * [`RmmScheme`] — redundant memory mapping (Karakostas et al. ISCA'15):
//!   baseline L2 plus a 32-entry fully-associative range TLB.
//!
//! The [`SharedL2`] helper implements the mixed-entry L2 array with the
//! paper's indexing rules (Figure 6), shared with `hytlb-core`'s anchor
//! scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cluster;
mod colt;
mod rmm;
mod scheme;
mod shared_l2;
mod thp;
mod thp1g;

pub use baseline::BaselineScheme;
pub use cluster::{ClusterScheme, CLUSTER_SPAN};
pub use colt::ColtScheme;
pub use rmm::RmmScheme;
pub use scheme::{
    AccessResult, BatchFault, LatencyModel, SchemeStats, TranslationPath, TranslationScheme,
};
pub use shared_l2::{AnchorHit, AnchorIndexing, SharedL2};
pub use thp::ThpScheme;
pub use thp1g::Thp1GScheme;
