//! Physical-memory and OS-allocation substrate for the `hytlb` simulator.
//!
//! The paper's evaluation depends on *memory mappings with controlled
//! contiguity*: two captured from real Linux machines (demand paging with
//! transparent huge pages, and eager paging) and four synthetic scenarios
//! (Table 4). This crate builds everything needed to produce such mappings
//! from scratch:
//!
//! * [`BuddyAllocator`] — a binary buddy physical-frame allocator, the same
//!   family of allocator Linux uses, so allocation contiguity emerges the
//!   same way it does on a real system.
//! * [`Fragmenter`] — applies "background job" allocation pressure to an
//!   allocator, reproducing the fragmentation diversity of Figure 1.
//! * [`AddressSpaceMap`] — a process's virtual→physical mapping stored as
//!   maximally-merged contiguous chunks.
//! * [`ContiguityHistogram`] — the (contiguity, frequency) histogram the OS
//!   feeds to the anchor-distance selection algorithm (paper §4.1), plus the
//!   CDF view used by Figure 1.
//! * [`Scenario`] — generators for all six mapping scenarios of §5.1.
//! * [`DemandPager`] — an online first-touch pager (with THP promotion) used
//!   by the simulation engine when the mapping must grow *during* a run.
//!
//! # Examples
//!
//! ```
//! use hytlb_mem::{Scenario, ContiguityHistogram};
//!
//! let map = Scenario::MediumContiguity.generate(4096, 1);
//! assert_eq!(map.mapped_pages(), 4096);
//! let hist = ContiguityHistogram::from_map(&map);
//! // Table 4: medium contiguity draws chunks uniformly from 1..=512 pages.
//! assert!(hist.max_contiguity() <= 512);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr_space;
mod buddy;
mod contiguity;
mod demand;
mod fragmenter;
mod numa;
mod scenario;

pub use addr_space::{AddressSpaceMap, ChunkCursor, ChunkTable, MapChunk, PageIndex};
pub use buddy::{BuddyAllocator, BuddyError, MAX_ORDER};
pub use contiguity::ContiguityHistogram;
pub use demand::DemandPager;
pub use fragmenter::{FragmentationLevel, Fragmenter};
pub use numa::{NumaPolicy, NumaTopology};
pub use scenario::{AllocationProfile, Scenario};
