//! The bytes `TraceWriter` records for in-repo workloads are pinned.
//!
//! No results digest reads a trace file, so this test is what shows a
//! codec change left the on-disk bytes alone. Each case records a
//! fixed-seed trace from one generator family — uniform (gups), streams
//! (milc), pointer chase (mcf) and hot set (omnetpp) — at a small
//! footprint with the default block size, and checks the file's length
//! and whole-file CRC-32 against constants taken from a known-good build.
//!
//! The three locality-rich traces must also be at least 3× smaller than
//! raw 8-byte addresses. gups is not held to that: its pages are uniform
//! over the footprint and every generator draws page offsets uniformly,
//! so about 2.1× is its entropy floor, not a codec shortfall.

use hytlb_trace::WorkloadKind;
use hytlb_tracefile::crc32::crc32;
use hytlb_tracefile::{TraceMeta, TraceWriter, WriteSummary};

const ACCESSES: usize = 200_000;
const SEED: u64 = 42;

/// Records `ACCESSES` accesses of `label` into memory and returns the
/// file's `(length, CRC-32)` and the writer's summary.
fn record(label: &str, footprint_pages: u64) -> ((usize, u32), WriteSummary) {
    let workload = WorkloadKind::from_label(label).expect("known workload");
    let meta = TraceMeta::new(workload.label(), footprint_pages, SEED);
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes, &meta).expect("header");
    writer.extend(workload.generator(footprint_pages, SEED).take(ACCESSES)).expect("blocks");
    let summary = writer.finish().expect("footer");
    assert_eq!(summary.bytes, bytes.len() as u64);
    ((bytes.len(), crc32(&bytes)), summary)
}

/// Records a locality-rich trace, checks its pinned bytes and that it
/// compresses at least 3× against raw addresses.
fn record_compressible(label: &str, footprint_pages: u64, pinned: (usize, u32)) {
    let (file, summary) = record(label, footprint_pages);
    assert_eq!(file, pinned);
    let ratio = summary.compression_ratio();
    assert!(ratio >= 3.0, "{label}: {ratio:.2}x vs raw, want >= 3x");
}

#[test]
fn uniform_trace_bytes_are_pinned() {
    assert_eq!(record("gups", 1 << 16).0, (750_227, 0x30ca_89e9));
}

#[test]
fn streams_trace_bytes_are_pinned() {
    record_compressible("milc", 1 << 12, (404_170, 0xdc4d_423e));
}

#[test]
fn chase_trace_bytes_are_pinned() {
    record_compressible("mcf", 1 << 14, (461_355, 0x5788_d529));
}

#[test]
fn hot_set_trace_bytes_are_pinned() {
    record_compressible("omnetpp", 1 << 12, (394_592, 0x89ef_d27c));
}
