//! Synthetic workload trace generators.
//!
//! The paper drives its simulator with Pin-captured memory traces of 12 B
//! instructions from SPEC CPU2006, BioBench, graph500 and gups. Those traces
//! are not redistributable, so this crate implements deterministic, seeded
//! generators that reproduce each benchmark's *TLB-relevant* behaviour: the
//! footprint, the reuse distance distribution and the degree of spatial
//! locality of the virtual-page stream. That is the only property the
//! evaluation depends on — the simulator never executes instructions.
//!
//! Generators emit **logical addresses**: byte offsets into a footprint of
//! `footprint_pages × 4 KB`. The simulation engine places them onto the
//! mapping under test via `hytlb_mem::PageIndex` — so the same trace runs
//! unchanged against every mapping scenario, exactly like the paper re-runs
//! one Pin trace against different pagemap snapshots.
//!
//! # Examples
//!
//! ```
//! use hytlb_trace::WorkloadKind;
//!
//! let mut gen = WorkloadKind::Gups.generator(1024, 42);
//! let a: Vec<u64> = (&mut gen).take(3).collect();
//! let b: Vec<u64> = WorkloadKind::Gups.generator(1024, 42).take(3).collect();
//! assert_eq!(a, b); // seeded => reproducible
//! assert!(a.iter().all(|&x| x < 1024 * 4096));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod patterns;
mod workloads;

pub use analysis::TraceProfile;
pub use patterns::{AccessPattern, TraceGenerator};
pub use workloads::WorkloadKind;
