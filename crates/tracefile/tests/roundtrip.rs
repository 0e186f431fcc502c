//! Property-based round-trips and corruption tests for the `HYTLBTR3`
//! format.
//!
//! The round-trip properties cover empty traces, single accesses,
//! non-monotone and adversarial u64 streams, and every block size from
//! one access up. The corruption half asserts the *detection* story:
//! truncation anywhere, a flipped bit anywhere after the header, and a
//! footer whose totals disagree with the blocks all surface as
//! corruption errors — never as wrong addresses.

use hytlb_tracefile::block::{encode_block, RawBlock, BLOCK_MAGIC};
use hytlb_tracefile::format::FOOTER_BYTES;
use hytlb_tracefile::{verify, TraceFileError, TraceMeta, TraceReader, TraceWriter};
use proptest::prelude::*;

fn write_to_vec(addresses: &[u64], block_accesses: u32) -> Vec<u8> {
    let mut meta = TraceMeta::new("proptest", 1 << 16, 1);
    meta.block_accesses = block_accesses;
    let mut out = Vec::new();
    let mut writer = TraceWriter::new(&mut out, &meta).unwrap();
    writer.extend(addresses.iter().copied()).unwrap();
    writer.finish().unwrap();
    out
}

fn read_from_slice(bytes: &[u8]) -> Result<Vec<u64>, hytlb_tracefile::TraceFileError> {
    TraceReader::new(bytes).unwrap().addresses().collect()
}

/// Strategy: address streams of different shapes — uniformly random
/// u64s (non-monotone, huge deltas), page-local walks, and strided
/// scans.
fn arb_addresses() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        proptest::collection::vec(any::<u64>(), 0..300),
        proptest::collection::vec((0u64..64, 0u64..4096), 0..300)
            .prop_map(|ps| ps.into_iter().map(|(p, o)| p * 4096 + o).collect()),
        (0u64..1 << 40, 1u64..512, 0usize..300)
            .prop_map(|(base, stride, n)| (0..n as u64).map(|i| base + i * stride).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A lone block record round-trips any non-empty address list.
    #[test]
    fn block_roundtrips(addresses in proptest::collection::vec(any::<u64>(), 1..200)) {
        let record = encode_block(&addresses);
        prop_assert_eq!(&record[0..4], &BLOCK_MAGIC);
        let mut cursor = &record[4..];
        let raw = RawBlock::parse(&mut cursor, 0).unwrap();
        prop_assert_eq!(raw.decode().unwrap(), addresses);
    }

    /// A whole file round-trips through the streaming writer and reader
    /// for every block size, including pathological size 1.
    #[test]
    fn file_roundtrips(addresses in arb_addresses(), block in 1u32..64) {
        let bytes = write_to_vec(&addresses, block);
        prop_assert_eq!(read_from_slice(&bytes).unwrap(), addresses.clone());
        let report = verify(&bytes[..]).unwrap();
        prop_assert_eq!(report.accesses, addresses.len() as u64);
        prop_assert_eq!(report.bytes, bytes.len() as u64);
    }

    /// Truncating anywhere fails verification, and streaming replay of
    /// the truncated file yields a prefix of the original and then an
    /// error — never a short trace that looks complete.
    #[test]
    fn truncation_is_detected(
        addresses in proptest::collection::vec(any::<u64>(), 1..200),
        block in 1u32..32,
        cut_permille in 0u64..1000,
    ) {
        let bytes = write_to_vec(&addresses, block);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        let truncated = &bytes[..cut];
        prop_assert!(verify(truncated).is_err(), "verify accepted a {cut}-byte truncation");
        if let Ok(reader) = TraceReader::new(truncated) {
            let mut replayed = Vec::new();
            let mut failed = false;
            for item in reader.addresses() {
                match item {
                    Ok(a) => replayed.push(a),
                    Err(_) => failed = true,
                }
            }
            prop_assert!(failed, "replay of a {cut}-byte truncation ended without an error");
            prop_assert!(
                replayed.len() <= addresses.len() && replayed == addresses[..replayed.len()],
                "truncated replay is not a prefix"
            );
        }
    }

    /// A single flipped bit anywhere from the first block onward fails
    /// verification.
    #[test]
    fn bit_flips_are_detected(
        addresses in proptest::collection::vec(any::<u64>(), 1..150),
        block in 1u32..32,
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let bytes = write_to_vec(&addresses, block);
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let blocks_start = 12 + header_len;
        let pos = blocks_start + (pos_seed as usize) % (bytes.len() - blocks_start);
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(verify(&bad[..]).is_err(), "flip of bit {bit} at {pos} went undetected");
    }
}

/// Byte surgery: rewrite the footer's access total and re-stamp its CRC
/// so the footer parses cleanly — only the cross-check against the
/// blocks can catch it, and the streaming reader must.
#[test]
fn footer_totals_disagreeing_with_the_blocks_are_detected() {
    let addresses: Vec<u64> = (0..100u64).map(|i| i * 4096 + i).collect();
    let mut bytes = write_to_vec(&addresses, 16);

    let footer = bytes.len() - FOOTER_BYTES as usize;
    assert_eq!(&bytes[footer..footer + 4], b"END3");
    assert_eq!(u64::from_le_bytes(bytes[footer + 4..footer + 12].try_into().unwrap()), 100);
    bytes[footer + 4..footer + 12].copy_from_slice(&99u64.to_le_bytes());
    let crc = hytlb_tracefile::crc32::crc32(&bytes[footer + 4..footer + 20]);
    bytes[footer + 20..footer + 24].copy_from_slice(&crc.to_le_bytes());

    let err = verify(&bytes[..]).unwrap_err();
    assert!(matches!(err, TraceFileError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("totals"), "{err}");
    let err = read_from_slice(&bytes).unwrap_err();
    assert!(matches!(err, TraceFileError::Corrupt { .. }), "{err}");
}

#[test]
fn empty_trace_roundtrips_and_verifies() {
    let bytes = write_to_vec(&[], 16);
    assert_eq!(read_from_slice(&bytes).unwrap(), Vec::<u64>::new());
    let report = verify(&bytes[..]).unwrap();
    assert_eq!(report.accesses, 0);
    assert_eq!(report.blocks, 0);
}

#[test]
fn single_access_trace_roundtrips() {
    for address in [0u64, 1, 0xfff, 0x1000, u64::MAX] {
        let bytes = write_to_vec(&[address], 16);
        assert_eq!(read_from_slice(&bytes).unwrap(), vec![address]);
        assert_eq!(verify(&bytes[..]).unwrap().accesses, 1);
    }
}

#[test]
fn non_monotone_wrapping_stream_roundtrips() {
    let addresses = vec![u64::MAX, 0, u64::MAX - 4095, 4096, 1 << 63, (1 << 63) - 1];
    let bytes = write_to_vec(&addresses, 4);
    assert_eq!(read_from_slice(&bytes).unwrap(), addresses);
}
