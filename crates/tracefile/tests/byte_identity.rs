//! The bytes `TraceWriter` records for in-repo workloads are pinned.
//!
//! No results digest reads a trace file, so this test is what shows a
//! codec change left the on-disk bytes alone. Each case records a
//! fixed-seed trace from one generator family — uniform (gups), streams
//! (milc) and pointer chase (mcf) — at a small footprint with the
//! default block size, and checks the file's length and whole-file
//! CRC-32 against constants taken from a known-good build.

use hytlb_trace::WorkloadKind;
use hytlb_tracefile::crc32::crc32;
use hytlb_tracefile::{TraceMeta, TraceWriter};

const ACCESSES: usize = 200_000;
const SEED: u64 = 42;

/// Records `ACCESSES` accesses of `label` into memory and returns the
/// file's `(length, CRC-32)`.
fn record(label: &str, footprint_pages: u64) -> (usize, u32) {
    let workload = WorkloadKind::from_label(label).expect("known workload");
    let meta = TraceMeta::new(workload.label(), footprint_pages, SEED);
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes, &meta).expect("header");
    writer.extend(workload.generator(footprint_pages, SEED).take(ACCESSES)).expect("blocks");
    let summary = writer.finish().expect("footer");
    assert_eq!(summary.bytes, bytes.len() as u64);
    (bytes.len(), crc32(&bytes))
}

#[test]
fn uniform_trace_bytes_are_pinned() {
    assert_eq!(record("gups", 1 << 16), (750_227, 0x30ca_89e9));
}

#[test]
fn streams_trace_bytes_are_pinned() {
    assert_eq!(record("milc", 1 << 12), (404_170, 0xdc4d_423e));
}

#[test]
fn chase_trace_bytes_are_pinned() {
    assert_eq!(record("mcf", 1 << 14), (461_355, 0x5788_d529));
}
