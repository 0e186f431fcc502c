//! The `HYTLBTR3` block codec: zig-zag delta coding of address streams.
//!
//! A block is a self-contained run of up to [`MAX_BLOCK_ACCESSES`]
//! addresses: its first address is stored absolutely, every later one as
//! a delta, so blocks decode independently of each other and a damaged
//! block cannot corrupt its successors.
//!
//! The payload is one bit-packed stream. Addresses are split into a page
//! part (`address >> 12`) and a 12-bit page offset. Per access the
//! bitstream holds one same-page flag bit, a zig-zag page delta for page
//! changes, and the 12 offset bits. Page deltas are bit-packed at one of
//! two per-block widths (`w_small`/`w_big`, chosen to minimize total
//! bits, one selector bit per delta when they differ) instead of
//! byte-aligned varints: trace offsets are uniformly random, so the
//! payload floor is ~13 bits/access and whole bytes per delta would
//! squander most of the headroom below the 64-bit raw encoding. Any
//! `u64` stream round-trips: a page delta never needs more than 53 bits.
//!
//! The header's encoding byte is always 0, the packed stream. A reader
//! rejects any other value as [`TraceFileError::Corrupt`]; that includes
//! code 1, a byte-aligned varint payload for word-strided streams that
//! no generator here produces.
//!
//! Every block record carries a CRC-32 over its header fields and
//! payload, so a flipped bit or truncation surfaces as
//! [`TraceFileError::Corrupt`] at the block that took the damage.

use crate::error::{Result, TraceFileError};
use std::io::Read;

/// Magic opening every block record.
pub const BLOCK_MAGIC: [u8; 4] = *b"BLK2";

/// Bits of the in-page offset (4 KB pages).
pub const OFFSET_BITS: u32 = 12;

/// Default accesses per block (64 Ki): big enough that per-block
/// overhead (header, CRC, width selection) is noise, small
/// enough that a block decodes well inside L2.
pub const DEFAULT_BLOCK_ACCESSES: u32 = 1 << 16;

/// Hard upper bound on the per-block access count a reader will accept.
/// Bounds allocation when parsing untrusted bytes.
pub const MAX_BLOCK_ACCESSES: u32 = 1 << 22;

/// Hard upper bound on an encoded payload a reader will accept.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 26;

/// A parsed (but not yet decoded) block record.
#[derive(Debug, Clone)]
pub struct RawBlock {
    /// Number of addresses in the block (≥ 1).
    pub count: u32,
    /// Small packed width for page deltas (0 when unused).
    pub w_small: u8,
    /// Large packed width for page deltas (0 when the block never
    /// changes page).
    pub w_big: u8,
    /// The first address, stored absolutely.
    pub first: u64,
    /// The encoded delta payload.
    pub payload: Vec<u8>,
}

/// Fixed bytes of a block record: magic, count, payload_len, encoding
/// (always 0), w_small, w_big, reserved, first, …payload…, crc.
pub const BLOCK_FIXED_BYTES: u64 = 4 + 4 + 4 + 1 + 1 + 1 + 1 + 8 + 4;

// ---------------------------------------------------------------------
// Bit-level packing (LSB-first).

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { out: Vec::new(), acc: 0, nbits: 0 }
    }

    /// Appends the low `bits` bits of `value`. `bits` must be ≤ 56 so
    /// the accumulator never overflows (callers pass ≤ 53).
    #[inline]
    fn put(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 56 && (bits == 64 || value < (1u64 << bits)));
        self.acc |= value << self.nbits;
        self.nbits += bits;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0, acc: 0, nbits: 0 }
    }

    /// Tops the accumulator up toward 56+ buffered bits — one unaligned
    /// word load in the hot path, byte-at-a-time over the payload tail.
    /// After this, `nbits` is the total bits left whenever that total is
    /// below 56.
    #[inline]
    fn refill(&mut self) {
        if self.nbits >= 56 {
            return;
        }
        if self.pos + 8 <= self.bytes.len() {
            let word = u64::from_le_bytes(
                self.bytes[self.pos..self.pos + 8].try_into().expect("8-byte window"),
            );
            self.acc |= word << self.nbits;
            // Cap at 63 buffered bits so a later `consume` never shifts
            // by 64.
            let loaded = (63 - self.nbits) >> 3;
            self.pos += loaded as usize;
            self.nbits += loaded * 8;
        } else {
            while self.nbits < 56 {
                let Some(&byte) = self.bytes.get(self.pos) else { break };
                self.pos += 1;
                self.acc |= u64::from(byte) << self.nbits;
                self.nbits += 8;
            }
        }
    }

    /// Drops `bits` already-buffered bits; `bits` must be ≤ `nbits`.
    #[inline]
    fn consume(&mut self, bits: u32) {
        debug_assert!(bits <= self.nbits);
        self.acc >>= bits;
        self.nbits -= bits;
    }

    /// Reads `bits` bits (≤ 56); `None` once the payload is exhausted.
    ///
    /// The refill is word-at-a-time while at least 8 payload bytes
    /// remain (the decode hot path), falling back to byte-at-a-time for
    /// the tail. Callers never ask for more than 56 bits, so after a
    /// refill the accumulator always holds enough.
    #[inline]
    fn get(&mut self, bits: u32) -> Option<u64> {
        debug_assert!(bits <= 56);
        if self.nbits < bits {
            if self.pos + 8 <= self.bytes.len() {
                let word = u64::from_le_bytes(
                    self.bytes[self.pos..self.pos + 8].try_into().expect("8-byte window"),
                );
                // `nbits < 56`, so at least one whole byte fits below
                // bit 64 of the accumulator.
                self.acc |= word << self.nbits;
                let loaded = (64 - self.nbits) >> 3;
                self.pos += loaded as usize;
                self.nbits += loaded * 8;
            } else {
                while self.nbits < bits {
                    let byte = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    self.acc |= u64::from(byte) << self.nbits;
                    self.nbits += 8;
                }
            }
        }
        let value = self.acc & ((1u64 << bits) - 1);
        self.acc >>= bits;
        self.nbits -= bits;
        Some(value)
    }
}

// ---------------------------------------------------------------------
// Encoding.

/// Maps a signed delta to an unsigned value with small magnitudes first:
/// `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[inline]
fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Per access after the first: its zig-zag page delta (`None` when it
/// stays on the previous page) and its 12-bit page offset.
fn deltas(addresses: &[u64]) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
    addresses.windows(2).map(|pair| {
        let (upper_prev, upper_cur) = (pair[0] >> OFFSET_BITS, pair[1] >> OFFSET_BITS);
        let page_delta = (upper_cur != upper_prev)
            .then(|| zigzag_encode(upper_cur.wrapping_sub(upper_prev) as i64));
        (page_delta, pair[1] & ((1 << OFFSET_BITS) - 1))
    })
}

fn width_of(value: u64) -> u32 {
    64 - value.leading_zeros()
}

/// Chooses the `(w_small, w_big)` pair minimizing the packed payload
/// bits, from the histogram of page-delta widths. Returns `(0, 0)` when
/// the block never changes page.
fn choose_widths(page_deltas: impl Iterator<Item = u64>) -> (u8, u8) {
    let mut hist = [0u64; 54];
    for zz in page_deltas {
        hist[width_of(zz) as usize] += 1;
    }
    let w_big = match hist.iter().rposition(|&n| n > 0) {
        Some(w) => w as u32,
        None => return (0, 0),
    };
    // Cost of encoding every delta at w_big with no selector bit:
    let total: u64 = hist.iter().sum();
    let mut best_w = w_big;
    let mut best_cost = total * u64::from(w_big);
    // Versus one selector bit per delta and a second, smaller width:
    let mut below = 0u64; // deltas with width ≤ candidate
    for w1 in 1..w_big {
        below += hist[w1 as usize];
        let cost = below * u64::from(1 + w1) + (total - below) * u64::from(1 + w_big);
        if cost < best_cost {
            best_cost = cost;
            best_w = w1;
        }
    }
    (best_w as u8, w_big as u8)
}

/// Encodes `addresses` (non-empty) into a complete block record,
/// including magic and CRC.
///
/// # Panics
///
/// Panics if `addresses` is empty or longer than
/// [`MAX_BLOCK_ACCESSES`]; the writer never lets either happen.
#[must_use]
pub fn encode_block(addresses: &[u64]) -> Vec<u8> {
    assert!(!addresses.is_empty(), "a block holds at least one access");
    assert!(addresses.len() <= MAX_BLOCK_ACCESSES as usize, "block too large");
    let (w_small, w_big) =
        choose_widths(deltas(addresses).filter_map(|(page_delta, _)| page_delta));
    let dual = w_small < w_big;
    let mut bits = BitWriter::new();
    for (page_delta, offset) in deltas(addresses) {
        match page_delta {
            None => bits.put(1, 1),
            Some(zz) => {
                bits.put(0, 1);
                if dual {
                    if width_of(zz) <= u32::from(w_small) {
                        bits.put(0, 1);
                        bits.put(zz, u32::from(w_small));
                    } else {
                        bits.put(1, 1);
                        bits.put(zz, u32::from(w_big));
                    }
                } else {
                    bits.put(zz, u32::from(w_big));
                }
            }
        }
        bits.put(offset, OFFSET_BITS);
    }
    let payload = bits.finish();

    let mut record = Vec::with_capacity(payload.len() + BLOCK_FIXED_BYTES as usize);
    record.extend_from_slice(&BLOCK_MAGIC);
    record.extend_from_slice(&(addresses.len() as u32).to_le_bytes());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.push(0); // encoding: the packed stream
    record.push(w_small);
    record.push(w_big);
    record.push(0); // reserved
    record.extend_from_slice(&addresses[0].to_le_bytes());
    record.extend_from_slice(&payload);
    let crc = crate::crc32::crc32(&record[4..]);
    record.extend_from_slice(&crc.to_le_bytes());
    record
}

// ---------------------------------------------------------------------
// Parsing and decoding.

impl RawBlock {
    /// Parses one block record from `reader`, the 4-byte magic already
    /// consumed, verifying the CRC against the header fields and
    /// payload. Allocation is bounded by [`MAX_BLOCK_ACCESSES`] and
    /// [`MAX_PAYLOAD_BYTES`] before anything is sized from the (possibly
    /// corrupt) header.
    pub fn parse<R: Read>(reader: &mut R, ordinal: u64) -> Result<RawBlock> {
        let what = || format!("block {ordinal}");
        // Header after the magic: count, payload_len, encoding, w_small,
        // w_big, reserved, first — 20 bytes.
        let mut head = [0u8; 20];
        reader.read_exact(&mut head)?;
        let count = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if count == 0 || count > MAX_BLOCK_ACCESSES {
            return Err(TraceFileError::corrupt(
                what(),
                format!("access count {count} out of range"),
            ));
        }
        if payload_len > MAX_PAYLOAD_BYTES {
            return Err(TraceFileError::corrupt(
                what(),
                format!("payload length {payload_len} exceeds the {MAX_PAYLOAD_BYTES}-byte cap"),
            ));
        }
        if head[8] != 0 {
            return Err(TraceFileError::corrupt(
                what(),
                format!("unknown payload encoding {}", head[8]),
            ));
        }
        let (w_small, w_big) = (head[9], head[10]);
        if w_small > w_big || w_big > 53 {
            return Err(TraceFileError::corrupt(
                what(),
                format!("invalid packed widths ({w_small}, {w_big})"),
            ));
        }
        let first = u64::from_le_bytes(head[12..20].try_into().expect("8 bytes"));
        let mut payload = vec![0u8; payload_len as usize];
        reader.read_exact(&mut payload)?;
        let mut crc_bytes = [0u8; 4];
        reader.read_exact(&mut crc_bytes)?;
        let stored = u32::from_le_bytes(crc_bytes);
        let mut crc = crate::crc32::Crc32::new();
        crc.update(&head);
        crc.update(&payload);
        let computed = crc.finish();
        if stored != computed {
            return Err(TraceFileError::corrupt(
                what(),
                format!("CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"),
            ));
        }
        Ok(RawBlock { count, w_small, w_big, first, payload })
    }

    /// Decodes the payload back into addresses.
    pub fn decode(&self) -> Result<Vec<u64>> {
        let mut out = Vec::with_capacity(self.count as usize);
        out.push(self.first);
        let mut bits = BitReader::new(&self.payload);
        let dual = self.w_small < self.w_big;
        let (w_small, w_big) = (u32::from(self.w_small), u32::from(self.w_big));
        let offset_mask = (1u64 << OFFSET_BITS) - 1;
        let truncated = || TraceFileError::corrupt("block payload", "packed stream ran short");
        // Four same-page flag bits at 13-bit stride: a run of four
        // same-page accesses decodes from one refill.
        const SAME4: u64 = 1 | 1 << 13 | 1 << 26 | 1 << 39;
        let mut upper_prev = self.first >> OFFSET_BITS;
        let mut left = u64::from(self.count) - 1;
        while left > 0 {
            // One refill covers the whole access in the common case, so
            // the fields below peel straight off the accumulator without
            // per-field bounds checks.
            bits.refill();
            let avail = bits.nbits;
            if left >= 4 && avail >= 4 * (1 + OFFSET_BITS) && bits.acc & SAME4 == SAME4 {
                let base = upper_prev << OFFSET_BITS;
                out.push(base | ((bits.acc >> 1) & offset_mask));
                out.push(base | ((bits.acc >> 14) & offset_mask));
                out.push(base | ((bits.acc >> 27) & offset_mask));
                out.push(base | ((bits.acc >> 40) & offset_mask));
                bits.consume(4 * (1 + OFFSET_BITS));
                left -= 4;
                continue;
            }
            const SAME2: u64 = 1 | 1 << 13;
            if left >= 2 && avail >= 2 * (1 + OFFSET_BITS) && bits.acc & SAME2 == SAME2 {
                let base = upper_prev << OFFSET_BITS;
                out.push(base | ((bits.acc >> 1) & offset_mask));
                out.push(base | ((bits.acc >> 14) & offset_mask));
                bits.consume(2 * (1 + OFFSET_BITS));
                left -= 2;
                continue;
            }
            if avail < 1 + OFFSET_BITS {
                return Err(truncated());
            }
            left -= 1;
            if bits.acc & 1 == 1 {
                // Same page: flag + offset, always buffered.
                let offset = (bits.acc >> 1) & offset_mask;
                bits.consume(1 + OFFSET_BITS);
                out.push((upper_prev << OFFSET_BITS) | offset);
                continue;
            }
            // Page change: flag (+ selector) + delta + offset.
            let (head_bits, width) = if dual {
                (2, if bits.acc & 2 == 0 { w_small } else { w_big })
            } else {
                (1, w_big)
            };
            if width == 0 {
                return Err(TraceFileError::corrupt(
                    "block payload",
                    "page change encoded with zero-width delta",
                ));
            }
            let needed = head_bits + width + OFFSET_BITS;
            let offset = if needed <= avail {
                let zz = (bits.acc >> head_bits) & ((1u64 << width) - 1);
                let offset = (bits.acc >> (head_bits + width)) & offset_mask;
                bits.consume(needed);
                upper_prev = upper_prev.wrapping_add(zigzag_decode(zz) as u64);
                offset
            } else {
                // A delta too wide for one refill window (or a short
                // tail): piecewise reads.
                bits.consume(head_bits);
                let zz = bits.get(width).ok_or_else(truncated)?;
                upper_prev = upper_prev.wrapping_add(zigzag_decode(zz) as u64);
                bits.get(OFFSET_BITS).ok_or_else(truncated)?
            };
            out.push((upper_prev << OFFSET_BITS) | offset);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zigzag_orders_by_magnitude() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v, "{v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn zigzag_roundtrips_any(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    fn roundtrip(addresses: &[u64]) -> RawBlock {
        let record = encode_block(addresses);
        assert_eq!(&record[0..4], &BLOCK_MAGIC);
        let mut cursor = &record[4..];
        let block = RawBlock::parse(&mut cursor, 0).expect("parses");
        assert!(cursor.is_empty(), "parse must consume the whole record");
        assert_eq!(block.decode().expect("decodes"), addresses);
        block
    }

    #[test]
    fn single_access_block() {
        let b = roundtrip(&[0x1234_5678]);
        assert_eq!(b.count, 1);
        assert!(b.payload.is_empty());
    }

    #[test]
    fn same_page_run_is_cheap() {
        // 1000 accesses on one page with *random* offsets (the
        // generator case): 13 bits each → well under 2 bytes.
        let addresses: Vec<u64> = (0..1000u64)
            .map(|i| 0xabc000 + ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) & 0xfff))
            .collect();
        let b = roundtrip(&addresses);
        assert!(b.payload.len() < 2 * addresses.len(), "payload {}", b.payload.len());
    }

    #[test]
    fn word_strided_stream_roundtrips() {
        // +8-byte stride: mostly same-page accesses at 13 bits each, one
        // +1-page hop every 512 accesses.
        let addresses: Vec<u64> = (0..5000u64).map(|i| 0x10_0000 + i * 8).collect();
        let b = roundtrip(&addresses);
        assert!(b.payload.len() <= 2 * addresses.len(), "payload {}", b.payload.len());
    }

    #[test]
    fn non_monotone_and_wrapping_streams_roundtrip() {
        roundtrip(&[u64::MAX, 0, u64::MAX - 4096, 4096, 1, u64::MAX]);
        roundtrip(&[5, 4, 3, 2, 1, 0]);
        roundtrip(&[0, u64::MAX / 2, 0, u64::MAX, 0]);
    }

    #[test]
    fn dual_width_beats_single_width_on_mixed_deltas() {
        // Mostly ±1-page hops with occasional huge jumps: w_small should
        // be chosen near the hop width, not the jump width.
        let mut addresses = vec![0x100_0000u64];
        for i in 1..4096u64 {
            let prev = *addresses.last().expect("nonempty");
            if i % 64 == 0 {
                addresses.push(prev.wrapping_add(0x4000_0000));
            } else {
                addresses.push(prev + 4096);
            }
        }
        let b = roundtrip(&addresses);
        assert!(b.w_small > 0 && b.w_small < b.w_big, "({}, {})", b.w_small, b.w_big);
        // ~2 bits page delta + 12 offset + 2 flags ≈ 2 bytes/access.
        assert!(b.payload.len() < addresses.len() * 5 / 2);
    }

    #[test]
    fn corrupt_count_is_rejected_without_huge_allocation() {
        let mut record = encode_block(&[1, 2, 3]);
        record[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // count
        let err = RawBlock::parse(&mut &record[4..], 7).expect_err("must reject");
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("block 7"), "{err}");
    }

    #[test]
    fn unknown_encoding_is_rejected() {
        // Encoding byte 1, CRC re-stamped: only the encoding check can
        // catch it.
        let mut record = encode_block(&[1, 2, 3]);
        record[12] = 1;
        let body = record.len() - 4;
        let crc = crate::crc32::crc32(&record[4..body]);
        record[body..].copy_from_slice(&crc.to_le_bytes());
        let err = RawBlock::parse(&mut &record[4..], 7).expect_err("must reject");
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("unknown payload encoding 1"), "{err}");
    }

    #[test]
    fn flipped_payload_bit_fails_crc() {
        let addresses: Vec<u64> = (0..500u64).map(|i| i * 777 % (1 << 30)).collect();
        let mut record = encode_block(&addresses);
        let mid = record.len() / 2;
        record[mid] ^= 0x10;
        let err = RawBlock::parse(&mut &record[4..], 0).expect_err("must reject");
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn truncated_record_is_corrupt_not_garbage() {
        let record = encode_block(&(0..500u64).map(|i| i * 4096).collect::<Vec<_>>());
        for cut in [5, 12, 20, record.len() - 2] {
            let err = RawBlock::parse(&mut &record[4..cut], 0).expect_err("must reject");
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
    }
}
