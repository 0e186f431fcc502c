//! Trace-file subsystem benchmark: compression ratio and streaming
//! throughput of the `HYTLBTR3` format against raw 8-byte addresses and
//! against regenerating traces from scratch.
//!
//! For each workload this measures (min of 3 runs each, via
//! [`hytlb_bench::min_of`]):
//!
//! * **regenerate** — running the trace generator, the baseline that
//!   disk-backed replay competes with;
//! * **encode** — writing the compressed block format;
//! * **decode** — streaming replay, asserted bit-identical to the
//!   generated trace.
//!
//! Compression is reported against raw 8 B/access. Note the entropy floor:
//! every generator draws page *offsets* uniformly at random (12
//! incompressible bits/access), and gups also draws its *pages*
//! uniformly over the whole footprint, so gups caps out near 2.3x no
//! matter the codec — the bench reports it honestly rather than
//! cherry-picking. Locality-rich workloads (mcf, graph500, milc,
//! omnetpp) clear 3x.
//!
//! Results go to `results/BENCH_tracefile.{txt,json}`.
//!
//! ```sh
//! cargo bench -p hytlb-bench --bench tracefile
//! cargo bench -p hytlb-bench --bench tracefile -- --quick
//! ```

use hytlb_bench::{emit, min_of};
use hytlb_sim::PaperConfig;
use hytlb_trace::WorkloadKind;
use hytlb_tracefile::{TraceMeta, TraceReader, TraceWriter};

struct Row {
    label: &'static str,
    accesses: u64,
    regen_s: f64,
    v2_encode_s: f64,
    v2_decode_s: f64,
    v2_bytes: u64,
}

impl Row {
    fn raw_bytes(&self) -> u64 {
        self.accesses * 8
    }

    fn ratio_vs_raw(&self) -> f64 {
        self.raw_bytes() as f64 / self.v2_bytes as f64
    }
}

/// Timed runs per measurement; the minimum is reported.
const ROUNDS: usize = 3;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        PaperConfig { accesses: 150_000, footprint_shift: 4, ..PaperConfig::default() }
    } else {
        PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..PaperConfig::default() }
    };
    let workloads = [
        WorkloadKind::Gups,
        WorkloadKind::Mcf,
        WorkloadKind::Graph500,
        WorkloadKind::Milc,
        WorkloadKind::Omnetpp,
    ];

    println!("== BENCH: trace-file encode/decode ({} accesses per workload) ==\n", config.accesses);

    let mut rows = Vec::new();
    for workload in workloads {
        let footprint = config.footprint_for(workload);
        let take = config.accesses as usize;

        let (trace, regen_s) = min_of(ROUNDS, || {
            workload.generator(footprint, config.seed).take(take).collect::<Vec<u64>>()
        });

        let meta = TraceMeta::new(workload.label(), footprint, config.seed);
        let (v2, v2_encode_s) = min_of(ROUNDS, || {
            let mut out = Vec::new();
            let mut writer = TraceWriter::new(&mut out, &meta).expect("vec write");
            writer.extend(trace.iter().copied()).expect("vec write");
            writer.finish().expect("vec write");
            out
        });

        // Block-at-a-time streaming replay — the same path `TraceStore`
        // replay takes, and the fair comparison against regeneration.
        let (decoded, v2_decode_s) = min_of(ROUNDS, || {
            let mut reader = TraceReader::new(&v2[..]).expect("own file parses");
            let mut out = Vec::with_capacity(take);
            while let Some(block) = reader.next_block().expect("own file decodes") {
                out.extend_from_slice(&block.addresses);
            }
            out
        });
        assert_eq!(decoded, trace, "{workload}: decode must be bit-identical");

        rows.push(Row {
            label: workload.label(),
            accesses: trace.len() as u64,
            regen_s,
            v2_encode_s,
            v2_decode_s,
            v2_bytes: v2.len() as u64,
        });
    }

    let mut text = format!(
        "{:<10} {:>9} {:>9} {:>8} {:>11} {:>11} {:>11} {:>12}\n",
        "workload", "raw MiB", "v2 MiB", "ratio", "regen Ma/s", "enc Ma/s", "dec Ma/s", "dec/regen"
    );
    let mut workloads_json = Vec::new();
    let mut ge_3x = 0usize;
    let mut decode_beats_regen = 0usize;
    for row in &rows {
        let accesses = row.accesses as f64;
        let regen_aps = accesses / row.regen_s.max(1e-9);
        let encode_aps = accesses / row.v2_encode_s.max(1e-9);
        let decode_aps = accesses / row.v2_decode_s.max(1e-9);
        let ratio = row.ratio_vs_raw();
        if ratio >= 3.0 {
            ge_3x += 1;
        }
        if decode_aps >= regen_aps {
            decode_beats_regen += 1;
        }
        text.push_str(&format!(
            "{:<10} {:>9.2} {:>9.2} {:>7.2}x {:>11.1} {:>11.1} {:>11.1} {:>11.2}x\n",
            row.label,
            row.raw_bytes() as f64 / (1 << 20) as f64,
            row.v2_bytes as f64 / (1 << 20) as f64,
            ratio,
            regen_aps / 1e6,
            encode_aps / 1e6,
            decode_aps / 1e6,
            decode_aps / regen_aps.max(1e-9),
        ));
        workloads_json.push(serde_json::json!({
            "workload": row.label,
            "accesses": row.accesses,
            "raw_bytes": row.raw_bytes(),
            "v2_bytes": row.v2_bytes,
            "compression_ratio_vs_raw": ratio,
            "regenerate_accesses_per_sec": regen_aps,
            "encode_accesses_per_sec": encode_aps,
            "decode_accesses_per_sec": decode_aps,
            "encode_mib_per_sec": row.raw_bytes() as f64 / (1 << 20) as f64 / row.v2_encode_s.max(1e-9),
            "decode_mib_per_sec": row.raw_bytes() as f64 / (1 << 20) as f64 / row.v2_decode_s.max(1e-9),
            "decode_vs_regenerate": decode_aps / regen_aps.max(1e-9),
        }));
    }
    text.push_str(&format!(
        "\n{} of {} workloads at >=3x vs raw; decode outpaces regeneration on {} of {}\n\
         (gups pages are uniform random over the footprint — its ~2.3x is the entropy floor,\n\
         not a codec shortfall; throughput columns count trace accesses, MiB/s is of raw bytes)\n\
         decode bit-identical to generator output: yes\n",
        ge_3x,
        rows.len(),
        decode_beats_regen,
        rows.len(),
    ));
    let json = serde_json::json!({
        "accesses_per_workload": config.accesses,
        "quick": quick,
        "workloads": workloads_json,
        "summary": serde_json::json!({
            "workloads_ge_3x_vs_raw": ge_3x,
            "decode_beats_regenerate": decode_beats_regen,
            "workload_count": rows.len(),
            "bit_identical": true,
        }),
    });
    emit("BENCH_tracefile", &text, &serde_json::to_string_pretty(&json).expect("serializable"));

    assert!(ge_3x >= 3, "expected >=3 workloads at >=3x compression vs raw, got {ge_3x}");
    assert!(
        decode_beats_regen >= 3,
        "expected decode to outpace regeneration on >=3 workloads, got {decode_beats_regen}"
    );
}
