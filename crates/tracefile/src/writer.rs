//! Streaming `HYTLBTR3` writer with bounded memory.
//!
//! [`TraceWriter`] buffers at most one block of addresses (64 Ki by
//! default); each full block is delta-encoded, CRC-stamped and written
//! as a single `write_all`, so a raw `File` sink performs fine without
//! an extra `BufWriter`. [`TraceWriter::finish`] appends the footer — a
//! file missing it is one whose writer died, and
//! [`crate::reader::TraceReader`] reports it as truncated.

use std::io::Write;

use crate::block::{encode_block, MAX_BLOCK_ACCESSES};
use crate::error::{Result, TraceFileError};
use crate::format::{encode_footer, encode_header, Footer, TraceMeta};

/// Totals reported by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Addresses written.
    pub accesses: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Total file size in bytes, header and footer included.
    pub bytes: u64,
}

impl WriteSummary {
    /// The size the same trace occupies as raw little-endian u64s
    /// (8 bytes per access).
    #[must_use]
    fn raw_bytes(&self) -> u64 {
        self.accesses * 8
    }

    /// How much smaller the file is than raw u64s (`> 1` is smaller).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes == 0 {
            return 0.0;
        }
        self.raw_bytes() as f64 / self.bytes as f64
    }
}

/// Streaming writer: push addresses, get a finished `HYTLBTR3` file.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    pending: Vec<u64>,
    block_accesses: usize,
    blocks: u64,
    written: u64,
    accesses: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace file on `sink`, writing the magic and header
    /// immediately. `meta.block_accesses` controls the block size and
    /// must be in `1..=MAX_BLOCK_ACCESSES`.
    pub fn new(mut sink: W, meta: &TraceMeta) -> Result<Self> {
        if meta.block_accesses == 0 || meta.block_accesses > MAX_BLOCK_ACCESSES {
            return Err(TraceFileError::Store {
                detail: format!(
                    "block_accesses {} out of range 1..={MAX_BLOCK_ACCESSES}",
                    meta.block_accesses
                ),
            });
        }
        let prelude = encode_header(meta)?;
        sink.write_all(&prelude)?;
        Ok(TraceWriter {
            sink,
            pending: Vec::with_capacity(meta.block_accesses as usize),
            block_accesses: meta.block_accesses as usize,
            blocks: 0,
            written: prelude.len() as u64,
            accesses: 0,
        })
    }

    /// Appends one address, flushing a block when the buffer fills.
    pub fn push(&mut self, address: u64) -> Result<()> {
        self.pending.push(address);
        if self.pending.len() >= self.block_accesses {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every address from `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = u64>) -> Result<()> {
        for address in iter {
            self.push(address)?;
        }
        Ok(())
    }

    /// Addresses accepted so far (flushed or pending).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses + self.pending.len() as u64
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let record = encode_block(&self.pending);
        self.sink.write_all(&record)?;
        self.written += record.len() as u64;
        self.blocks += 1;
        self.accesses += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial block, writes the footer, flushes the
    /// sink and reports totals. An empty trace (zero pushes) is legal:
    /// it has no blocks and a footer counting zero accesses.
    pub fn finish(mut self) -> Result<WriteSummary> {
        self.flush_block()?;
        let footer_bytes = encode_footer(&Footer { accesses: self.accesses, blocks: self.blocks });
        self.sink.write_all(&footer_bytes)?;
        self.written += footer_bytes.len() as u64;
        self.sink.flush()?;
        Ok(WriteSummary { accesses: self.accesses, blocks: self.blocks, bytes: self.written })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FILE_MAGIC, FOOTER_BYTES};

    fn meta_with_block(block_accesses: u32) -> TraceMeta {
        let mut m = TraceMeta::new("gups", 1 << 12, 7);
        m.block_accesses = block_accesses;
        m
    }

    #[test]
    fn empty_trace_is_header_and_footer_only() {
        let mut out = Vec::new();
        let writer = TraceWriter::new(&mut out, &TraceMeta::new("gups", 64, 1)).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.accesses, 0);
        assert_eq!(summary.blocks, 0);
        assert_eq!(summary.bytes, out.len() as u64);
        assert_eq!(out[0..8], FILE_MAGIC);
        assert_eq!(&out[out.len() - 8..], b"HYTLBEND");
        // magic + len + header + footer
        let header_len = u32::from_le_bytes(out[8..12].try_into().unwrap()) as u64;
        assert_eq!(out.len() as u64, 12 + header_len + FOOTER_BYTES);
    }

    #[test]
    fn blocks_split_at_the_configured_size() {
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, &meta_with_block(10)).unwrap();
        writer.extend((0..25u64).map(|i| i * 4096)).unwrap();
        assert_eq!(writer.accesses(), 25);
        let summary = writer.finish().unwrap();
        assert_eq!(summary.accesses, 25);
        assert_eq!(summary.blocks, 3, "25 accesses at 10/block → 10+10+5");
    }

    #[test]
    fn zero_block_size_is_rejected() {
        let err = TraceWriter::new(Vec::new(), &meta_with_block(0)).unwrap_err();
        assert!(matches!(err, TraceFileError::Store { .. }), "{err}");
    }

    #[test]
    fn summary_ratio_counts_whole_file() {
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, &meta_with_block(64)).unwrap();
        // A same-page run compresses far below 8 bytes/access.
        writer.extend(std::iter::repeat_n(4096, 640)).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.raw_bytes(), 640 * 8);
        assert!(summary.compression_ratio() > 3.0, "ratio {}", summary.compression_ratio());
    }
}
