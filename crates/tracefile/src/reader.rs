//! Reading `HYTLBTR3` files: [`TraceReader`] streams the blocks one at a
//! time and checks the footer when they end; [`verify`] drains it.
//!
//! The reader holds one decoded block at a time, so replaying a
//! multi-gigabyte trace needs memory proportional to the block size,
//! not the trace.

use std::io::Read;

use crate::block::{RawBlock, BLOCK_FIXED_BYTES, BLOCK_MAGIC};
use crate::error::{Result, TraceFileError};
use crate::format::{read_footer_body, read_header, TraceMeta, FOOTER_BYTES, FOOTER_MAGIC};

/// One decoded block and where it sits in the access stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBlock {
    /// Global index of the first access in this block.
    pub first_access: u64,
    /// The decoded addresses.
    pub addresses: Vec<u64>,
}

/// The totals of a fully read file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Blocks decoded and CRC-checked.
    pub blocks: u64,
    /// Accesses across all blocks.
    pub accesses: u64,
    /// Total bytes of the file.
    pub bytes: u64,
}

/// Streaming reader: yields blocks in file order with bounded memory,
/// then checks the footer.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    /// Blocks, accesses and bytes consumed so far.
    read: VerifyReport,
    state: State,
}

/// Where a [`TraceReader`] stands in its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// More blocks or the footer may follow.
    Blocks,
    /// The footer was read and checked out.
    Finished,
    /// A read failed; the stream cannot be trusted past it.
    Failed,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stream, consuming and validating the magic and header.
    pub fn new(mut src: R) -> Result<Self> {
        let (meta, bytes) = read_header(&mut src)?;
        Ok(TraceReader {
            src,
            meta,
            read: VerifyReport { blocks: 0, accesses: 0, bytes },
            state: State::Blocks,
        })
    }

    /// Header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Decodes the next block, or `None` once the blocks end at a
    /// footer whose CRC checks out, whose totals match the blocks read
    /// and which nothing follows. A stream that ends without a footer
    /// is [`TraceFileError::Corrupt`], and so is every call after an
    /// error.
    pub fn next_block(&mut self) -> Result<Option<DecodedBlock>> {
        match self.state {
            State::Blocks => {}
            State::Finished => return Ok(None),
            State::Failed => {
                return Err(TraceFileError::corrupt("stream", "read past an earlier error"));
            }
        }
        let block = self.read_record().inspect_err(|_| self.state = State::Failed)?;
        if block.is_none() {
            self.state = State::Finished;
        }
        Ok(block)
    }

    /// Reads the remaining blocks and the footer, and reports the
    /// file's totals.
    pub fn finish(mut self) -> Result<VerifyReport> {
        while self.next_block()?.is_some() {}
        Ok(self.read)
    }

    fn read_record(&mut self) -> Result<Option<DecodedBlock>> {
        let ordinal = self.read.blocks;
        let Some(magic) = read_record_magic(&mut self.src)? else {
            return Err(TraceFileError::corrupt(
                "file",
                "ends before the footer (truncated or writer never finished)",
            ));
        };
        if magic == FOOTER_MAGIC {
            let footer = read_footer_body(&mut self.src)?;
            if footer.blocks != ordinal || footer.accesses != self.read.accesses {
                return Err(TraceFileError::corrupt("footer", "totals disagree with the blocks"));
            }
            if self.src.read(&mut [0u8; 1])? != 0 {
                return Err(TraceFileError::corrupt("file", "trailing bytes after the footer"));
            }
            self.read.bytes += FOOTER_BYTES;
            return Ok(None);
        }
        if magic != BLOCK_MAGIC {
            return Err(TraceFileError::corrupt(
                format!("block {ordinal}"),
                format!("bad record magic {magic:02x?}"),
            ));
        }
        let raw = RawBlock::parse(&mut self.src, ordinal)?;
        let addresses = raw.decode()?;
        let first_access = self.read.accesses;
        self.read.blocks += 1;
        self.read.accesses += addresses.len() as u64;
        self.read.bytes += BLOCK_FIXED_BYTES + raw.payload.len() as u64;
        Ok(Some(DecodedBlock { first_access, addresses }))
    }

    /// Consumes the reader into an iterator over individual addresses.
    /// The iterator yields `Err` once on the first corrupt block (or a
    /// missing or bad footer), then ends.
    #[must_use]
    pub fn addresses(self) -> Addresses<R> {
        Addresses { reader: self, current: Vec::new().into_iter(), failed: false }
    }
}

/// Iterator over every address of a streamed trace file.
#[derive(Debug)]
pub struct Addresses<R: Read> {
    reader: TraceReader<R>,
    current: std::vec::IntoIter<u64>,
    failed: bool,
}

impl<R: Read> Iterator for Addresses<R> {
    type Item = Result<u64>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(address) = self.current.next() {
                return Some(Ok(address));
            }
            match self.reader.next_block() {
                Ok(Some(block)) => self.current = block.addresses.into_iter(),
                Ok(None) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Reads a 4-byte record magic, distinguishing clean EOF (no bytes at
/// all → `None`) from truncation inside the magic (an error).
fn read_record_magic<R: Read>(src: &mut R) -> Result<Option<[u8; 4]>> {
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = src.read(&mut magic[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(TraceFileError::corrupt("stream", "truncated record magic"));
        }
        got += n;
    }
    Ok(Some(magic))
}

/// Fully checks a trace file stream: every block's CRC and payload
/// decode, and the footer's CRC and totals. Detects truncation, bit
/// flips anywhere after the header and trailing garbage.
pub fn verify<R: Read>(src: R) -> Result<VerifyReport> {
    TraceReader::new(src)?.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;

    fn sample_file(block_accesses: u32, addresses: &[u64]) -> Vec<u8> {
        let mut meta = TraceMeta::new("mcf", 1 << 10, 3);
        meta.block_accesses = block_accesses;
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, &meta).unwrap();
        writer.extend(addresses.iter().copied()).unwrap();
        writer.finish().unwrap();
        out
    }

    fn sample_addresses(n: u64) -> Vec<u64> {
        // A mix of same-page runs, short jumps and a long jump.
        (0..n)
            .map(|i| (i / 3) * 4096 + (i * 97) % 4096 + if i % 11 == 0 { 1 << 30 } else { 0 })
            .collect()
    }

    #[test]
    fn streaming_reader_replays_exactly() {
        let addresses = sample_addresses(100);
        let bytes = sample_file(16, &addresses);
        let reader = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.meta().workload, "mcf");
        let replayed: Result<Vec<u64>> = reader.addresses().collect();
        assert_eq!(replayed.unwrap(), addresses);
    }

    #[test]
    fn streaming_reader_reports_block_positions() {
        let addresses = sample_addresses(40);
        let bytes = sample_file(16, &addresses);
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let mut firsts = Vec::new();
        while let Some(block) = reader.next_block().unwrap() {
            firsts.push((block.first_access, block.addresses.len()));
        }
        assert_eq!(firsts, vec![(0, 16), (16, 16), (32, 8)]);
    }

    #[test]
    fn verify_accepts_clean_files_and_counts() {
        let addresses = sample_addresses(50);
        let bytes = sample_file(8, &addresses);
        let report = verify(&bytes[..]).unwrap();
        assert_eq!(report.accesses, 50);
        assert_eq!(report.blocks, 7);
        assert_eq!(report.bytes, bytes.len() as u64);
    }

    #[test]
    fn verify_rejects_truncation_at_every_length() {
        let bytes = sample_file(8, &sample_addresses(20));
        // Chop the file at a spread of lengths; none may verify.
        for cut in [bytes.len() - 1, bytes.len() - FOOTER_BYTES as usize, bytes.len() / 2, 13] {
            let err = verify(&bytes[..cut]).unwrap_err();
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn verify_rejects_any_flipped_bit_region() {
        let bytes = sample_file(8, &sample_addresses(30));
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let blocks_start = 12 + header_len as usize;
        // One flip in the block region, one in the footer magic, one in
        // its totals and one in its trailer.
        let footer = bytes.len() - FOOTER_BYTES as usize;
        for pos in [blocks_start + 30, footer, footer + 6, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x04;
            assert!(verify(&bad[..]).is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn verify_rejects_trailing_bytes() {
        let mut bytes = sample_file(8, &sample_addresses(10));
        bytes.push(0);
        let err = verify(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn reads_after_an_error_keep_failing() {
        let bytes = sample_file(8, &sample_addresses(20));
        let mut reader = TraceReader::new(&bytes[..bytes.len() - 1]).unwrap();
        while reader.next_block().is_ok_and(|b| b.is_some()) {}
        assert!(reader.next_block().unwrap_err().is_corrupt());
        assert!(reader.finish().unwrap_err().is_corrupt());
    }

    #[test]
    fn tracefile_rejects_missing_footer() {
        let addresses = sample_addresses(20);
        let bytes = sample_file(16, &addresses);
        for cut in [8, FOOTER_BYTES as usize] {
            let reader = TraceReader::new(&bytes[..bytes.len() - cut]).unwrap();
            let replayed: Vec<Result<u64>> = reader.addresses().collect();
            assert_eq!(replayed.len(), addresses.len() + 1, "every address, then the error");
            let err = replayed.last().unwrap().as_ref().unwrap_err();
            assert!(err.is_corrupt(), "{err}");
        }
    }
}
