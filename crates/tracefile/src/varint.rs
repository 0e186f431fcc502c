//! LEB128 varints and zig-zag signed↔unsigned mapping.
//!
//! The `HYTLBTR3` block codec stores address deltas zig-zag-mapped so
//! that small negative and positive jumps both become small unsigned
//! values, then either bit-packs them (see [`crate::block`]) or, for
//! blocks where byte-aligned codes win, writes them as LEB128 varints.

/// Maximum encoded length of a `u64` varint (⌈64 / 7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Maps a signed delta to an unsigned value with small magnitudes first:
/// `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[must_use]
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[must_use]
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends `value` to `out` as a LEB128 varint (7 bits per byte, high
/// bit = continuation). Returns the number of bytes written.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// The encoded length of `value` as a varint, without encoding it.
#[must_use]
#[inline]
pub fn varint_len(value: u64) -> usize {
    // 1 byte per started 7-bit group; `value == 0` still takes one byte.
    ((64 - (value | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Reads one varint from `bytes` starting at `*pos`, advancing `*pos`.
/// Returns `None` on truncation or on an overlong encoding (more than
/// [`MAX_VARINT_LEN`] bytes, or bits beyond the 64th).
#[must_use]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return None; // would overflow 64 bits
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn varint_roundtrips_and_lengths() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            let written = write_varint(&mut buf, v);
            assert_eq!(written, buf.len());
            assert_eq!(varint_len(v), buf.len(), "{v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80, 0x80], &mut pos), None); // truncated
        let overlong = [0xffu8; 11];
        pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None); // > 64 bits
    }

    #[test]
    fn boundary_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len((1 << 7) - 1), 1);
        assert_eq!(varint_len(1 << 7), 2);
        assert_eq!(varint_len((1 << 63) - 1), 9);
        assert_eq!(varint_len(1 << 63), 10);
        assert_eq!(varint_len(u64::MAX), MAX_VARINT_LEN);
    }
}
