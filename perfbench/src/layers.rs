//! The traced run's per-layer measurements. Each one times batched calls
//! into one crate's public functions, inside a span, over the inputs and
//! recorded probe streams of the workload itself.

use crate::bench::{key, timed_cell, CellTiming, Inputs, TempDir};
use crate::cascade::{self, bit, l1op, l2op, Cascade, ALL};
use crate::golden::{self, CellOut};
use crate::plan::Plan;
use crate::spans::Tracer;
use hytlb_core::{AnchorConfig, AnchorScheme, DistanceSelector, OsKernel};
use hytlb_mem::{ChunkCursor, ContiguityHistogram};
use hytlb_pagetable::{PageTable, PageWalker};
use hytlb_sim::experiment::mapping_for;
use hytlb_sim::{Machine, SchemeKind};
use hytlb_tracefile::TraceStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Timed repetitions of each log replay; the median is kept.
const REPS: usize = 3;

/// The `sim.*` scheme labels: the paper's six, plus `Static` for every
/// candidate of the static-ideal sweep together.
pub const SIM_LABELS: [&str; 7] =
    ["Base", "THP", "Cluster", "Cluster-2MB", "RMM", "Dynamic", "Static"];

/// The per-layer metrics plus how many cross-checks ran and failed.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Cross-checks made.
    pub checks: u64,
    /// Cross-checks that failed.
    pub failed: u64,
}

impl Layers {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Time over a count of operations. Time is signed: a lookup cost is the
/// difference of two replays.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    secs: f64,
    n: u64,
}

impl Acc {
    fn add(&mut self, time: Duration, n: u64) {
        self.secs += time.as_secs_f64();
        self.n += n;
    }

    fn add_secs(&mut self, secs: f64, n: u64) {
        self.secs += secs;
        self.n += n;
    }

    fn ns(&self) -> f64 {
        ratio(self.secs * 1e9, self.n)
    }

    fn secs(&self) -> f64 {
        ratio(self.secs, self.n)
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Runs `f` `REPS` times in spans named `name`; returns the last result and
/// the median duration.
fn median_of<T>(t: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(REPS);
    let mut out = None;
    for _ in 0..REPS {
        let (value, d) = t.span(name, |_| f());
        times.push(d);
        out = Some(value);
    }
    times.sort();
    (out.expect("REPS > 0"), times[REPS / 2])
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Every per-layer measurement of the plan.
pub fn measure(
    plan: &Plan,
    inputs: &Inputs,
    cells: &[CellOut],
    timings: &[CellTiming],
    t: &mut Tracer,
) -> Result<Layers, String> {
    let mut out = Layers::default();
    t.span("layers.inputs", |t| input_layers(plan, inputs, &mut out, t)).0?;
    t.span("layers.tracefile", |t| tracefile_layer(plan, inputs, &mut out, t)).0?;
    t.span("layers.probes", |t| probe_layers(plan, inputs, cells, &mut out, t)).0?;
    t.span("layers.schemes", |t| scheme_layers(plan, inputs, timings, &mut out, t)).0?;
    Ok(out)
}

/// Trace generation, mapping generation, page index, resolve, page-table
/// build, OS boot, distance selection and the epoch check, once per input
/// the workload builds.
fn input_layers(
    plan: &Plan,
    inputs: &Inputs,
    out: &mut Layers,
    t: &mut Tracer,
) -> Result<(), String> {
    let config = &plan.config;
    let [mut gen, mut mapping, mut index_build, mut resolve, mut table, mut boot, mut select, mut epoch] =
        [Acc::default(); 8];
    for &workload in &plan.workloads {
        let footprint = config.footprint_for(workload);
        let (trace, d) = t.span("trace.generate", |_| {
            workload
                .generator(footprint, config.seed)
                .take(config.accesses as usize)
                .collect::<Vec<u64>>()
        });
        gen.add(d, trace.len() as u64);
        let cached = inputs.cache.try_trace(workload, config).map_err(err)?;
        out.check(*cached == trace, || format!("{workload}: regenerated trace differs"));
        for &scenario in &plan.scenarios {
            let (map, d) = t.span("mem.mapping", |_| mapping_for(workload, scenario, config));
            mapping.add(d, 1);
            let (index, d) = t.span("mem.page_index", |_| map.page_index());
            index_build.add(d, 1);
            let (resolved, d) = t.span("mem.resolve", |_| index.resolve(&trace));
            resolve.add(d, trace.len() as u64);
            let cached =
                inputs.cache.try_resolved_trace(workload, scenario, config).map_err(err)?;
            out.check(*cached == resolved, || format!("{workload}/{scenario}: resolve differs"));
            drop(resolved);
            let (_, d) = t.span("pagetable.build", |_| black_box(PageTable::from_map(&map, false)));
            table.add(d, 1);
            let (_, d) = t.span("core.os_boot", |_| {
                black_box(AnchorScheme::new(Arc::clone(&map), AnchorConfig::dynamic()))
            });
            boot.add(d, 1);
            let histogram = ContiguityHistogram::from_map(&map);
            let selector = DistanceSelector::paper_default();
            let (_, d) = t.span("core.select", |_| black_box(selector.select(&histogram)));
            select.add(d, 1);
            let mut os = OsKernel::new(Arc::clone(&map), selector);
            let (_, d) = t.span("core.epoch", |_| black_box(os.check_epoch()));
            epoch.add(d, 1);
        }
    }
    out.push("trace.gen_ns_per_access", gen.ns(), "ns/access");
    out.push("mem.mapping_s", mapping.secs(), "s");
    out.push("mem.page_index_s", index_build.secs(), "s");
    out.push("mem.resolve_ns_per_access", resolve.ns(), "ns/access");
    out.push("pagetable.build_s", table.secs(), "s");
    out.push("core.os_boot_s", boot.secs(), "s");
    out.push("core.select_s", select.secs(), "s");
    out.push("core.epoch_s", epoch.secs(), "s");
    Ok(())
}

/// Encoding (`TraceStore::record`) and decoding (`TraceStore::load_prefix`)
/// of every trace of the workload, in a fresh store.
fn tracefile_layer(
    plan: &Plan,
    inputs: &Inputs,
    out: &mut Layers,
    t: &mut Tracer,
) -> Result<(), String> {
    let config = &plan.config;
    let dir = TempDir::new("tracefile")?;
    let mut store = TraceStore::open_or_create(&dir.0).map_err(err)?;
    let (mut encode, mut decode) = (Acc::default(), Acc::default());
    let mut bytes = 0;
    for &workload in &plan.workloads {
        let trace = inputs.cache.try_trace(workload, config).map_err(err)?;
        let footprint = config.footprint_for(workload);
        let (summary, d) = t.span("tracefile.record", |_| {
            store.record(workload.label(), footprint, config.seed, trace.iter().copied())
        });
        encode.add(d, trace.len() as u64);
        bytes += summary.map_err(err)?.bytes;
        let (loaded, d) = t.span("tracefile.load", |_| {
            store.load_prefix(workload.label(), footprint, config.seed, config.accesses)
        });
        decode.add(d, trace.len() as u64);
        let same = loaded.map_err(err)?.as_deref() == Some(trace.as_slice());
        out.check(same, || format!("{workload}: decoded trace differs"));
    }
    out.push("tracefile.encode_ns_per_access", encode.ns(), "ns/access");
    out.push("tracefile.decode_ns_per_access", decode.ns(), "ns/access");
    out.push("tracefile.bytes_per_access", ratio(bytes as f64, encode.n), "bytes/access");
    Ok(())
}

/// Replays each probe cell through the rebuilt Baseline and Dynamic
/// cascades, checks their counters against `Machine`'s, and times each
/// layer over the stream it recorded.
fn probe_layers(
    plan: &Plan,
    inputs: &Inputs,
    cells: &[CellOut],
    out: &mut Layers,
    t: &mut Tracer,
) -> Result<(), String> {
    let config = &plan.config;
    let walker = PageWalker::default();
    let [mut l1_lookup, mut l1_insert, mut l1_hit] = [Acc::default(); 3];
    let [mut l2_4k, mut l2_2m, mut l2_anchor, mut l2_insert, mut l2_hit] = [Acc::default(); 5];
    let [mut walk, mut probe, mut chunk] = [Acc::default(); 3];
    for &(workload, scenario) in &plan.probes {
        let shared = inputs.cache.mapping(workload, scenario, config);
        let resolved = inputs.cache.try_resolved_trace(workload, scenario, config).map_err(err)?;
        for (cascade, kind) in [
            (Cascade::Baseline, SchemeKind::Baseline),
            (Cascade::Dynamic, SchemeKind::AnchorDynamic),
        ] {
            let cell_key = key(scenario.label(), workload.label(), cascade.label());
            let machine = match cells.iter().find(|c| c.key == cell_key) {
                Some(cell) => cell.stats.stats,
                None => {
                    t.span("crosscheck.machine", |_| {
                        Machine::for_scheme_indexed(kind, &shared.map, &shared.index, config)
                            .try_run_resolved(&resolved)
                    })
                    .0
                    .map_err(err)?
                    .stats
                }
            };
            let (replay, _) = t.span(format!("replay.{}", cascade.label()), |_| {
                cascade::replay(cascade, &shared.map, &resolved, config.epoch_accesses())
            });
            let agrees = replay.as_ref().is_some_and(|r| {
                let s = &r.stats;
                (s.l1_hits, s.l2_regular_hits, s.coalesced_hits, s.walks)
                    == (
                        machine.l1_hits,
                        machine.l2_regular_hits,
                        machine.coalesced_hits,
                        machine.walks,
                    )
            });
            out.check(agrees, || {
                format!(
                    "{cell_key}: rebuilt cascade {:?} != Machine {machine:?}; its layer numbers are dropped",
                    replay.as_ref().map(|r| r.stats)
                )
            });
            let Some(r) = replay.filter(|_| agrees) else { continue };
            let s = &r.streams;

            let ((lookups, hits), full) =
                median_of(t, "tlb.l1.replay", || cascade::play_l1(&s.l1, ALL));
            let inserts_only = bit(l1op::INSERT_4K) | bit(l1op::INSERT_2M) | bit(l1op::FLUSH);
            let (_, ins) =
                median_of(t, "tlb.l1.replay_inserts", || cascade::play_l1(&s.l1, inserts_only));
            l1_lookup.add_secs(full.as_secs_f64() - ins.as_secs_f64(), lookups);
            l1_insert.add(
                ins,
                cascade::count(&s.l1, l1op::INSERT_4K, true)
                    + cascade::count(&s.l1, l1op::INSERT_2M, true),
            );
            l1_hit.add_secs(hits as f64, lookups);

            let ((lookups, hits), full) =
                median_of(t, "schemes.l2.replay", || cascade::play_l2(&s.l2, ALL));
            l2_hit.add_secs(hits as f64, lookups);
            for (op, acc, name) in [
                (l2op::LOOKUP_4K, &mut l2_4k, "schemes.l2.replay_without_4k"),
                (l2op::LOOKUP_2M, &mut l2_2m, "schemes.l2.replay_without_2m"),
                (l2op::LOOKUP_ANCHOR, &mut l2_anchor, "schemes.l2.replay_without_anchor"),
            ] {
                let n = cascade::count(&s.l2, op, false);
                if n > 0 {
                    let (_, without) =
                        median_of(t, name, || cascade::play_l2(&s.l2, ALL & !bit(op)));
                    acc.add_secs(full.as_secs_f64() - without.as_secs_f64(), n);
                }
            }
            let inserts_only = bit(l2op::INSERT_4K)
                | bit(l2op::INSERT_2M)
                | bit(l2op::INSERT_ANCHOR)
                | bit(l2op::FLUSH);
            let (_, ins) =
                median_of(t, "schemes.l2.replay_inserts", || cascade::play_l2(&s.l2, inserts_only));
            let n_ins = [l2op::INSERT_4K, l2op::INSERT_2M, l2op::INSERT_ANCHOR]
                .iter()
                .map(|&op| cascade::count(&s.l2, op, false))
                .sum();
            l2_insert.add(ins, n_ins);

            let table = r.walk_table();
            let (_, d) = median_of(t, "pagetable.walk", || {
                s.walks.iter().for_each(|&v| {
                    black_box(walker.walk(table, v));
                });
            });
            walk.add(d, s.walks.len() as u64);
            if let Some(os) = &r.os {
                let (_, d) = median_of(t, "pagetable.anchor_probe", || {
                    s.anchor_probes.iter().for_each(|&v| {
                        black_box(os.anchor_probe(v));
                    });
                });
                probe.add(d, s.anchor_probes.len() as u64);
                let (_, d) = median_of(t, "mem.chunk_lookup", || {
                    let mut cursor = ChunkCursor::default();
                    s.walks.iter().for_each(|&v| {
                        black_box(shared.map.chunk_containing_with(v, &mut cursor));
                    });
                });
                chunk.add(d, s.walks.len() as u64);
            }
        }
    }
    out.push("mem.chunk_lookup_ns", chunk.ns(), "ns");
    out.push("tlb.l1.lookup_ns", l1_lookup.ns(), "ns");
    out.push("tlb.l1.insert_ns", l1_insert.ns(), "ns");
    out.push("tlb.l1.hit_ratio", ratio(l1_hit.secs, l1_hit.n), "ratio");
    out.push("schemes.l2.lookup_4k_ns", l2_4k.ns(), "ns");
    out.push("schemes.l2.lookup_2m_ns", l2_2m.ns(), "ns");
    out.push("schemes.l2.lookup_anchor_ns", l2_anchor.ns(), "ns");
    out.push("schemes.l2.insert_ns", l2_insert.ns(), "ns");
    out.push("schemes.l2.hit_ratio", ratio(l2_hit.secs, l2_hit.n), "ratio");
    out.push("pagetable.walk_ns", walk.ns(), "ns");
    out.push("pagetable.anchor_probe_ns", probe.ns(), "ns");
    Ok(())
}

/// Host time per scheme: build and access loop, from the traced pass's
/// cells, plus the workload's probe cells for a scheme the workload does
/// not run.
fn scheme_layers(
    plan: &Plan,
    inputs: &Inputs,
    timings: &[CellTiming],
    out: &mut Layers,
    t: &mut Tracer,
) -> Result<(), String> {
    let label = |kind: SchemeKind| match kind {
        SchemeKind::AnchorStatic(_) => "Static".to_owned(),
        other => other.label(),
    };
    let mut by_label: BTreeMap<String, Vec<CellTiming>> = BTreeMap::new();
    for timing in timings {
        by_label.entry(label(timing.kind)).or_default().push(timing.clone());
    }
    let sweep: Vec<SchemeKind> = hytlb_bench::figure_static_sweep()
        .into_iter()
        .map(SchemeKind::AnchorStatic)
        .chain(SchemeKind::paper_set())
        .collect();
    for name in SIM_LABELS {
        if by_label.contains_key(name) {
            continue;
        }
        for &cell in &plan.probes {
            for &kind in sweep.iter().filter(|&&k| label(k) == name) {
                let timing = timed_cell(kind, cell, &inputs.cache, &plan.config, t)?;
                let cell_out = CellOut { key: String::new(), stats: timing.stats.clone() };
                let sane = golden::broken_invariants(&[cell_out], &plan.config) == 0;
                out.check(sane, || format!("{cell:?} under {kind} broke a counter invariant"));
                by_label.entry(name.to_owned()).or_default().push(timing);
            }
        }
    }
    for name in SIM_LABELS {
        let runs = &by_label[name];
        let mut build = Acc::default();
        let mut run = Acc::default();
        let (mut walks, mut coalesced, mut l2) = (0, 0, 0);
        for r in runs {
            build.add(r.build, 1);
            run.add(r.run, r.stats.accesses);
            walks += r.stats.stats.walks;
            coalesced += r.stats.stats.coalesced_hits;
            l2 += r.stats.stats.l2_accesses();
        }
        out.push(&format!("sim.build_s.{name}"), build.secs(), "s");
        out.push(&format!("sim.ns_per_access.{name}"), run.ns(), "ns/access");
        out.push(
            &format!("sim.walks_per_kaccess.{name}"),
            ratio(walks as f64 * 1e3, run.n),
            "walks/kaccess",
        );
        out.push(&format!("sim.coalesced_ratio.{name}"), ratio(coalesced as f64, l2), "ratio");
    }
    Ok(())
}
