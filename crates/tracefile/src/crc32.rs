//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! Every block payload and the footer of a `HYTLBTR3` file carry a CRC
//! so corruption is detected at the granularity it occurred, instead of
//! surfacing as garbage addresses downstream. The implementation is self-contained (the workspace builds offline, so no
//! `crc32fast`) and uses the slicing-by-8 technique — eight 256-entry
//! tables generated at first use, folding 8 input bytes per step — so
//! checksumming never dominates trace replay.

use std::sync::OnceLock;

/// Reflected polynomial of CRC-32/IEEE (the zlib / gzip / PNG CRC).
const POLY: u32 = 0xedb8_8320;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (n, slot) in t[0].iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        // table[k][i] extends table[k-1][i] by one zero byte, so the
        // eight lookups in `update` each cover one lane of a u64.
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][usize::from(prev as u8)] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Incremental CRC-32 state.
///
/// ```
/// use hytlb_tracefile::crc32::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xcbf4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh CRC over nothing.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ c;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
            c = t[7][usize::from(lo as u8)]
                ^ t[6][usize::from((lo >> 8) as u8)]
                ^ t[5][usize::from((lo >> 16) as u8)]
                ^ t[4][usize::from((lo >> 24) as u8)]
                ^ t[3][usize::from(hi as u8)]
                ^ t[2][usize::from((hi >> 8) as u8)]
                ^ t[1][usize::from((hi >> 16) as u8)]
                ^ t[0][usize::from((hi >> 24) as u8)];
        }
        for &b in chunks.remainder() {
            c = t[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"hybrid tlb coalescing";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 257];
        data[100] = 0x55;
        let clean = crc32(&data);
        for bit in 0..8 {
            data[100] ^= 1 << bit;
            assert_ne!(crc32(&data), clean, "bit {bit} flip went undetected");
            data[100] ^= 1 << bit;
        }
    }
}
