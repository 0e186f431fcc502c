//! File-level structures of the `HYTLBTR3` format: magic, JSON header
//! and footer.
//!
//! A trace file looks like:
//!
//! ```text
//! "HYTLBTR3"  (8 bytes)
//! header_len  (u32 LE, ≤ 1 MiB)
//! header      (JSON-encoded TraceMeta, header_len bytes)
//! block record …                 ── see crate::block
//! block record …
//! "END3" accesses blocks crc "HYTLBEND"   ── 32-byte footer
//! ```
//!
//! Blocks are self-delimiting and the footer opens with its own record
//! magic, so a reader streams the blocks until it meets `"END3"`, then
//! checks the footer's totals against what it decoded.

use std::io::Read;

use crate::crc32::crc32;
use crate::error::{Result, TraceFileError};

/// Leading magic of a version-3 trace file.
pub const FILE_MAGIC: [u8; 8] = *b"HYTLBTR3";

/// Trailing magic closing the footer; its presence at EOF marks a file
/// whose writer ran to completion.
pub const END_MAGIC: [u8; 8] = *b"HYTLBEND";

/// Magic opening the footer, in the position a block magic would
/// occupy, so the reader knows the blocks ended.
pub const FOOTER_MAGIC: [u8; 4] = *b"END3";

/// The version this build reads and writes.
pub const FORMAT_VERSION: u32 = 3;

/// Upper bound on the JSON header, so a corrupt length prefix cannot
/// drive a giant allocation.
pub const MAX_HEADER_BYTES: u32 = 1 << 20;

/// Encoded size of the footer, its magic included.
pub const FOOTER_BYTES: u64 = 4 + 8 + 8 + 4 + 8;

/// Descriptive metadata stored in the JSON header of every trace file.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceMeta {
    /// Format version (always [`FORMAT_VERSION`] for files this build
    /// writes).
    pub version: u32,
    /// Workload label (`"gups"`, `"mcf"`, …) as printed by
    /// `WorkloadKind::label`.
    pub workload: String,
    /// Footprint in 4 KiB pages the trace was generated against.
    pub footprint_pages: u64,
    /// Generator seed.
    pub seed: u64,
    /// Accesses per block the writer targets (the last block may be
    /// shorter).
    pub block_accesses: u32,
}

impl TraceMeta {
    /// Metadata for a new recording with the default block size.
    #[must_use]
    pub fn new(workload: impl Into<String>, footprint_pages: u64, seed: u64) -> Self {
        TraceMeta {
            version: FORMAT_VERSION,
            workload: workload.into(),
            footprint_pages,
            seed,
            block_accesses: crate::block::DEFAULT_BLOCK_ACCESSES,
        }
    }
}

/// The footer closing every finished file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Total accesses across all blocks.
    pub accesses: u64,
    /// Total number of blocks.
    pub blocks: u64,
}

/// Serializes `meta` and returns the complete file prelude: magic,
/// length prefix and JSON header.
pub fn encode_header(meta: &TraceMeta) -> Result<Vec<u8>> {
    let json = serde_json::to_vec(meta)
        .map_err(|e| TraceFileError::Store { detail: format!("header serialize: {e}") })?;
    if json.len() as u64 > u64::from(MAX_HEADER_BYTES) {
        return Err(TraceFileError::Store { detail: "header exceeds 1 MiB".into() });
    }
    let mut out = Vec::with_capacity(8 + 4 + json.len());
    out.extend_from_slice(&FILE_MAGIC);
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(&json);
    Ok(out)
}

/// Reads and validates the file prelude, returning the metadata and the
/// number of bytes consumed.
pub fn read_header<R: Read>(reader: &mut R) -> Result<(TraceMeta, u64)> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if magic != FILE_MAGIC {
        // Retired versions (`HYTLBTR1`, `HYTLBTR2`) differ only in the
        // last magic byte.
        if magic[..7] == FILE_MAGIC[..7] && magic[7].is_ascii_digit() {
            return Err(TraceFileError::UnsupportedVersion { found: u32::from(magic[7] - b'0') });
        }
        return Err(TraceFileError::corrupt("file magic", "not a HYTLBTR3 trace file"));
    }
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let header_len = u32::from_le_bytes(len_bytes);
    if header_len > MAX_HEADER_BYTES {
        return Err(TraceFileError::corrupt(
            "header",
            format!("declared length {header_len} exceeds the 1 MiB bound"),
        ));
    }
    let mut json = vec![0u8; header_len as usize];
    reader.read_exact(&mut json)?;
    let text = std::str::from_utf8(&json)
        .map_err(|_| TraceFileError::corrupt("header", "header is not UTF-8"))?;
    let meta: TraceMeta = serde_json::from_str(text)
        .map_err(|e| TraceFileError::corrupt("header", format!("bad JSON: {e}")))?;
    if meta.version != FORMAT_VERSION {
        return Err(TraceFileError::UnsupportedVersion { found: meta.version });
    }
    if meta.block_accesses == 0 || meta.block_accesses > crate::block::MAX_BLOCK_ACCESSES {
        return Err(TraceFileError::corrupt(
            "header",
            format!("block_accesses {} out of range", meta.block_accesses),
        ));
    }
    Ok((meta, 8 + 4 + u64::from(header_len)))
}

/// Encodes the 32-byte footer.
#[must_use]
pub fn encode_footer(footer: &Footer) -> Vec<u8> {
    let mut out = Vec::with_capacity(FOOTER_BYTES as usize);
    out.extend_from_slice(&FOOTER_MAGIC);
    out.extend_from_slice(&footer.accesses.to_le_bytes());
    out.extend_from_slice(&footer.blocks.to_le_bytes());
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
    out
}

/// Reads and validates the footer *after* its record magic has been
/// consumed (the streaming reader peeks the magic to know the blocks
/// ended).
pub fn read_footer_body<R: Read>(reader: &mut R) -> Result<Footer> {
    let mut body = [0u8; FOOTER_BYTES as usize - FOOTER_MAGIC.len()];
    reader.read_exact(&mut body)?;
    if body[20..28] != END_MAGIC {
        return Err(TraceFileError::corrupt(
            "footer",
            "missing HYTLBEND trailer (file truncated or writer never finished)",
        ));
    }
    let crc = u32::from_le_bytes(body[16..20].try_into().expect("4-byte slice"));
    if crc32(&body[..16]) != crc {
        return Err(TraceFileError::corrupt("footer", "CRC mismatch"));
    }
    Ok(Footer {
        accesses: u64::from_le_bytes(body[0..8].try_into().expect("8-byte slice")),
        blocks: u64::from_le_bytes(body[8..16].try_into().expect("8-byte slice")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let meta = TraceMeta::new("gups", 1 << 21, 42);
        let bytes = encode_header(&meta).unwrap();
        let mut cursor = &bytes[..];
        let (back, consumed) = read_header(&mut cursor).unwrap();
        assert_eq!(back, meta);
        assert_eq!(consumed, bytes.len() as u64);
    }

    #[test]
    fn legacy_magic_reports_version_1() {
        let mut cursor = &b"HYTLBTR1xxxx"[..];
        match read_header(&mut cursor) {
            Err(TraceFileError::UnsupportedVersion { found: 1 }) => {}
            other => panic!("expected UnsupportedVersion {{ 1 }}, got {other:?}"),
        }
    }

    #[test]
    fn version_2_magic_reports_version_2() {
        let mut cursor = &b"HYTLBTR2xxxx"[..];
        match read_header(&mut cursor) {
            Err(TraceFileError::UnsupportedVersion { found: 2 }) => {}
            other => panic!("expected UnsupportedVersion {{ 2 }}, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FILE_MAGIC);
        bytes.extend_from_slice(&(MAX_HEADER_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let mut cursor = &bytes[..];
        let err = read_header(&mut cursor).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn footer_roundtrips_and_detects_truncation() {
        let footer = Footer { accesses: 12_345, blocks: 4 };
        let bytes = encode_footer(&footer);
        assert_eq!(bytes.len() as u64, FOOTER_BYTES);
        assert_eq!(bytes[..4], FOOTER_MAGIC);
        assert_eq!(read_footer_body(&mut &bytes[4..]).unwrap(), footer);
        assert!(read_footer_body(&mut &bytes[4..31]).unwrap_err().is_corrupt());
        let mut flipped = bytes.clone();
        flipped[7] ^= 1;
        assert!(read_footer_body(&mut &flipped[4..]).unwrap_err().is_corrupt());
    }
}
