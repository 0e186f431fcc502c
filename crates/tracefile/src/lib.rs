//! Compressed, seekable, streaming trace files: the `HYTLBTR2` format.
//!
//! The paper's methodology is capture-then-replay: memory traces are
//! recorded once and re-run against many mapping scenarios. Raw traces
//! are 8 bytes per access; at the paper's billions of accesses that is
//! tens of gigabytes per workload. This crate stores them compressed
//! and verifiable:
//!
//! * **Block codec** ([`block`]) — addresses are split into a page
//!   number and a 12-bit page offset. Page *deltas* are zig-zag mapped
//!   and bit-packed with two per-block-optimized widths (a flag bit
//!   marks same-page runs); offsets, which are uniformly random for
//!   every generator, are stored as raw 12-bit fields — they are
//!   incompressible, and pretending otherwise only adds overhead. A
//!   byte-aligned LEB128 varint encoding is kept as a per-block
//!   fallback for streams the bit-packer handles poorly.
//! * **Blocks are independent** — each carries its first address
//!   absolutely plus a CRC-32, so one block decodes without its
//!   predecessors and corruption is localized.
//! * **Seek index + footer** — a trailing index maps access ranges to
//!   block offsets; the fixed-size footer at EOF finds it in two
//!   seeks. `info` never decodes a block; `read_range` touches only
//!   the blocks that overlap.
//! * **Streaming both ways** — [`TraceWriter`] buffers one block;
//!   [`TraceReader`] decodes one block at a time. Memory is bounded by
//!   the block size (64 Ki accesses by default), not the trace.
//! * **Corpus store** ([`store`]) — a directory keyed by
//!   (workload, footprint, seed) with a JSON manifest, which
//!   `hytlb_sim::MatrixCache` can replay from instead of regenerating.
//!
//! `HYTLBTR2` is the only trace format; the reader rejects anything else
//! (including the retired raw-`u64` `HYTLBTR1` format) with a typed error.
//!
//! # Examples
//!
//! ```
//! use hytlb_tracefile::{TraceMeta, TraceReader, TraceWriter};
//!
//! let mut bytes = Vec::new();
//! let mut writer = TraceWriter::new(&mut bytes, &TraceMeta::new("gups", 1024, 42)).unwrap();
//! writer.extend((0..1000u64).map(|i| (i % 64) * 4096 + i)).unwrap();
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.accesses, 1000);
//! assert!(summary.compression_ratio() > 1.0);
//!
//! let reader = TraceReader::new(&bytes[..]).unwrap();
//! let replayed: Result<Vec<u64>, _> = reader.addresses().collect();
//! assert_eq!(replayed.unwrap().len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod crc32;
pub mod error;
pub mod format;
pub mod reader;
pub mod store;
pub mod varint;
pub mod writer;

pub use error::{Result, TraceFileError};
pub use format::{TraceInfo, TraceMeta, FILE_MAGIC, FORMAT_VERSION};
pub use reader::{verify, DecodedBlock, TraceFile, TraceReader, VerifyReport};
pub use store::{CorpusEntry, TraceStore};
pub use writer::{TraceWriter, WriteSummary};
