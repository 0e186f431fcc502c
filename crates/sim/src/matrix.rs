//! Parallel, zero-copy evaluation-matrix driver.
//!
//! The paper's figures are all slices of one big matrix: *scenario ×
//! workload × scheme* (plus a static-distance sweep for the `Static
//! Ideal` column). The serial harness regenerated the mapping and the
//! trace for every slice; this module generates each exactly once, shares
//! them by reference count, and fans the rows out over a bounded worker
//! pool.
//!
//! Guarantees:
//!
//! * **Bit-identical to serial.** Every cell is a pure function of
//!   `(workload, scenario, scheme, config)`; the pool only changes *when*
//!   a row runs, never its inputs. [`try_run_matrix_with`] equals
//!   [`run_suite_serial`](crate::experiment::run_suite_serial)
//!   cell-for-cell, and the static-ideal fold replicates
//!   [`static_ideal`](crate::experiment::static_ideal)'s first-minimum
//!   tie-breaking.
//! * **Mappings and traces once per cache; resolved traces once per row
//!   per matrix.** Mappings are keyed by `(workload, scenario, config
//!   fingerprint)` and traces by `(workload, fingerprint)` — traces are
//!   scenario-independent, like the paper's Pin traces — and concurrent
//!   requests for one key block on one [`OnceLock`]. A worker claims a
//!   `(scenario, workload)` row, resolves its trace, runs the row's
//!   schemes on it and drops it. [`MatrixCache::stats`] counts builds.
//! * **Zero per-scheme copies.** Each cell hands `Arc` clones of the
//!   mapping and its [`PageIndex`] to the machine; no `AddressSpaceMap`
//!   is ever deep-cloned.
//!
//! Worker count comes from [`PaperConfig::threads`], else the
//! `HYTLB_THREADS` environment variable, else the machine's available
//! parallelism.

use crate::config::{PaperConfig, SchemeKind};
use crate::engine::{Machine, RunStats};
use crate::error::SimError;
use crate::experiment::{mapping_for, trace_for, SuiteResult, WorkloadRow};
use hytlb_mem::{AddressSpaceMap, PageIndex, Scenario};
use hytlb_trace::WorkloadKind;
use hytlb_tracefile::TraceStore;
use hytlb_types::VirtAddr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A mapping plus its placement index, shared across every scheme of a
/// cell.
#[derive(Debug, Clone)]
pub struct SharedMapping {
    /// The address-space map, shared with each scheme.
    pub map: Arc<AddressSpaceMap>,
    /// The logical-page placement index, shared with each machine.
    pub index: Arc<PageIndex>,
}

/// Build counters for the memoization layer (see [`MatrixCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Mappings generated (one per distinct `(workload, scenario,
    /// fingerprint)` requested).
    pub mapping_builds: usize,
    /// Traces generated (one per distinct `(workload, fingerprint)`
    /// requested that the corpus could not serve).
    pub trace_builds: usize,
    /// Traces replayed from the corpus store instead of generated.
    pub trace_loads: usize,
    /// Resolved virtual-address traces computed: one per row of every
    /// matrix run, plus one per [`MatrixCache::try_resolved_trace`] call
    /// that missed the one-trace slot.
    pub resolved_builds: usize,
}

type MappingKey = (WorkloadKind, Scenario, u64);
type TraceKey = (WorkloadKind, u64);
type MemoTable<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Memoizes mapping and trace generation across matrix cells.
///
/// Cheap to create; hold one across several [`try_run_matrix_with`] calls to
/// share inputs between figures that cover the same cells.
#[derive(Debug, Default)]
pub struct MatrixCache {
    mappings: MemoTable<MappingKey, SharedMapping>,
    traces: MemoTable<TraceKey, Result<Arc<Vec<u64>>, SimError>>,
    resolved: Mutex<Option<(MappingKey, Arc<Vec<VirtAddr>>)>>,
    corpus: Option<Arc<TraceStore>>,
    mapping_builds: AtomicUsize,
    trace_builds: AtomicUsize,
    trace_loads: AtomicUsize,
    resolved_builds: AtomicUsize,
}

impl MatrixCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that replays traces from a recorded corpus.
    ///
    /// When a trace is first requested, the corpus is consulted for a
    /// recording keyed `(workload label, footprint, seed)` with at least
    /// `config.accesses` accesses; its prefix is loaded instead of
    /// running the generator (generators are deterministic streams, so
    /// the prefix of a longer recording is bit-identical to a fresh
    /// generation). Keys the corpus lacks fall back to generation, so a
    /// partial corpus accelerates what it has without limiting the
    /// matrix. A corrupt recording is *not* silently regenerated — it
    /// surfaces as [`SimError::Corpus`], because bad bytes on disk
    /// should be noticed, not papered over.
    #[must_use]
    pub fn with_corpus(store: Arc<TraceStore>) -> Self {
        MatrixCache { corpus: Some(store), ..Self::default() }
    }

    /// The mapping (and its page index) for a cell, generating it if this
    /// is the first request for the key. Blocks if another worker is
    /// already generating the same key, so generation happens exactly
    /// once.
    pub fn mapping(
        &self,
        workload: WorkloadKind,
        scenario: Scenario,
        config: &PaperConfig,
    ) -> SharedMapping {
        let key = (workload, scenario, config.fingerprint());
        let slot = Arc::clone(
            self.mappings.lock().expect("mapping table poisoned").entry(key).or_default(),
        );
        slot.get_or_init(|| {
            self.mapping_builds.fetch_add(1, Ordering::Relaxed);
            let map = mapping_for(workload, scenario, config);
            let index = Arc::new(map.page_index());
            SharedMapping { map, index }
        })
        .clone()
    }

    /// The trace a workload replays, generated (or loaded) on first
    /// request. Scenario-independent, exactly like the paper's
    /// per-benchmark Pin traces. Serves from the corpus store when one is
    /// attached and has a long-enough recording, generating otherwise.
    /// The outcome (including a corpus failure) is memoized, so the store
    /// is consulted at most once per key.
    pub fn try_trace(
        &self,
        workload: WorkloadKind,
        config: &PaperConfig,
    ) -> Result<Arc<Vec<u64>>, SimError> {
        let key = (workload, config.fingerprint());
        let slot =
            Arc::clone(self.traces.lock().expect("trace table poisoned").entry(key).or_default());
        slot.get_or_init(|| {
            if let Some(store) = &self.corpus {
                match store.load_prefix(
                    workload.label(),
                    config.footprint_for(workload),
                    config.seed,
                    config.accesses,
                ) {
                    Ok(Some(addresses)) => {
                        self.trace_loads.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::new(addresses));
                    }
                    Ok(None) => {} // not recorded (or too short): generate
                    Err(e) => return Err(SimError::Corpus { detail: e.to_string() }),
                }
            }
            self.trace_builds.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(trace_for(workload, config)))
        })
        .clone()
    }

    /// Records every trace of `workloads` under `config` into `store`,
    /// so later runs can attach it via [`MatrixCache::with_corpus`] and
    /// replay instead of regenerate. Traces already cached in memory are
    /// spilled as-is; missing ones are generated first. Keys the store
    /// already holds with enough accesses are skipped. Returns how many
    /// traces were written.
    pub fn spill_traces(
        &self,
        store: &mut TraceStore,
        workloads: &[WorkloadKind],
        config: &PaperConfig,
    ) -> Result<usize, SimError> {
        let mut written = 0;
        for &workload in workloads {
            let footprint_pages = config.footprint_for(workload);
            if store
                .find(workload.label(), footprint_pages, config.seed)
                .is_some_and(|e| e.accesses >= config.accesses)
            {
                continue;
            }
            let trace = self.try_trace(workload, config)?;
            store
                .record(workload.label(), footprint_pages, config.seed, trace.iter().copied())
                .map_err(|e| SimError::Corpus { detail: e.to_string() })?;
            written += 1;
        }
        Ok(written)
    }

    /// The fully-resolved virtual-address trace for a cell: the logical
    /// trace placed onto the cell's mapping (see
    /// [`PageIndex::resolve`](hytlb_mem::PageIndex::resolve)). The cache
    /// keeps the last one in a single slot: a call for the same
    /// `(workload, scenario)` returns the same `Arc`, a call for another
    /// one drops it and resolves afresh. Errors are not kept. A trace that
    /// addresses a page past the mapping (possible only from a corpus)
    /// surfaces as [`SimError::TraceOutOfRange`].
    pub fn try_resolved_trace(
        &self,
        workload: WorkloadKind,
        scenario: Scenario,
        config: &PaperConfig,
    ) -> Result<Arc<Vec<VirtAddr>>, SimError> {
        let key = (workload, scenario, config.fingerprint());
        let mut slot = self.resolved.lock().expect("resolved slot poisoned");
        if let Some((_, resolved)) = slot.as_ref().filter(|(k, _)| *k == key) {
            return Ok(Arc::clone(resolved));
        }
        // Release the old trace before placing the new one.
        *slot = None;
        let resolved = Arc::new(self.resolve(workload, scenario, config)?.1);
        *slot = Some((key, Arc::clone(&resolved)));
        Ok(resolved)
    }

    /// The mapping for a cell and its trace placed onto it, freshly
    /// resolved (counted in [`CacheStats::resolved_builds`]).
    fn resolve(
        &self,
        workload: WorkloadKind,
        scenario: Scenario,
        config: &PaperConfig,
    ) -> Result<(SharedMapping, Vec<VirtAddr>), SimError> {
        self.resolved_builds.fetch_add(1, Ordering::Relaxed);
        let shared = self.mapping(workload, scenario, config);
        let trace = self.try_trace(workload, config)?;
        let resolved = shared
            .index
            .try_resolve(&trace)
            .map_err(|page| SimError::TraceOutOfRange { page, pages: shared.index.len() })?;
        Ok((shared, resolved))
    }

    /// How many mappings, traces and resolved traces this cache has
    /// generated so far, and how many traces were replayed from the
    /// corpus instead.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mapping_builds: self.mapping_builds.load(Ordering::Relaxed),
            trace_builds: self.trace_builds.load(Ordering::Relaxed),
            trace_loads: self.trace_loads.load(Ordering::Relaxed),
            resolved_builds: self.resolved_builds.load(Ordering::Relaxed),
        }
    }
}

/// Resolves the worker-pool size: `config.threads`, else `HYTLB_THREADS`,
/// else available parallelism. Always at least 1.
#[must_use]
fn worker_count(config: &PaperConfig) -> usize {
    config
        .threads
        .or_else(|| std::env::var("HYTLB_THREADS").ok().and_then(|v| v.parse().ok()))
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Runs every `(scenario, workload, scheme)` cell of the matrix on a
/// bounded worker pool that claims `(scenario, workload)` rows in
/// scenario-major order, one suite per scenario in input order. Mappings
/// and traces are generated once per `cache`; hold one cache across
/// consecutive matrices (e.g. several figures in one process) to reuse
/// them. A failing cell surfaces as [`SimError::Cell`] naming its
/// `(scenario, workload, scheme)`.
pub fn try_run_matrix_with(
    cache: &MatrixCache,
    scenarios: &[Scenario],
    workloads: &[WorkloadKind],
    kinds: &[SchemeKind],
    config: &PaperConfig,
) -> Result<Vec<SuiteResult>, SimError> {
    let rows: Vec<(Scenario, WorkloadKind)> =
        scenarios.iter().flat_map(|&s| workloads.iter().map(move |&w| (s, w))).collect();
    // A row's first failing cell ends it; a resolve failure is charged to
    // the row's first scheme.
    let run_row = |(scenario, workload): (Scenario, WorkloadKind)| {
        let in_cell = |kind: SchemeKind| {
            move |e: SimError| e.in_cell(scenario.label(), workload.label(), &kind.label())
        };
        let Some(&first) = kinds.first() else { return Ok(WorkloadRow { workload, runs: vec![] }) };
        let (shared, resolved) =
            cache.resolve(workload, scenario, config).map_err(in_cell(first))?;
        let runs = kinds
            .iter()
            .map(|&kind| {
                Machine::for_scheme_indexed(kind, &shared.map, &shared.index, config)
                    .try_run_resolved(&resolved)
                    .map_err(in_cell(kind))
            })
            .collect::<Result<_, _>>()?;
        Ok(WorkloadRow { workload, runs })
    };
    let slots: Vec<OnceLock<Result<WorkloadRow, SimError>>> =
        rows.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let threads = worker_count(config).min(rows.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&row) = rows.get(i) else { break };
                slots[i].set(run_row(row)).expect("each row claimed once");
            });
        }
    });
    let mut rows = slots.into_iter().map(|slot| slot.into_inner().expect("pool ran every row"));
    scenarios
        .iter()
        .map(|&scenario| {
            Ok(SuiteResult {
                scenario,
                schemes: kinds.iter().map(|k| k.label()).collect(),
                rows: rows.by_ref().take(workloads.len()).collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

/// [`try_run_matrix_with`] plus a trailing `Static Ideal` column: the sweep's
/// `AnchorStatic` candidates join each row's schemes, and each cell's
/// winner is folded out afterwards with the same
/// first-minimum tie-breaking as
/// [`static_ideal`](crate::experiment::static_ideal).
///
/// # Panics
///
/// Panics if `sweep` is empty, or if a cell fails (the message names the
/// cell).
#[must_use]
pub fn run_matrix_with_static_ideal(
    cache: &MatrixCache,
    scenarios: &[Scenario],
    workloads: &[WorkloadKind],
    kinds: &[SchemeKind],
    sweep: &[u64],
    config: &PaperConfig,
) -> Vec<SuiteResult> {
    assert!(!sweep.is_empty(), "need at least one candidate distance");
    let mut all_kinds: Vec<SchemeKind> = kinds.to_vec();
    all_kinds.extend(sweep.iter().map(|&d| SchemeKind::AnchorStatic(d)));
    let mut suites = try_run_matrix_with(cache, scenarios, workloads, &all_kinds, config)
        .unwrap_or_else(|e| panic!("{e}"));
    for suite in &mut suites {
        suite.schemes.truncate(kinds.len());
        suite.schemes.push("Static Ideal".to_owned());
        for row in &mut suite.rows {
            let candidates = row.runs.split_off(kinds.len());
            let best =
                candidates.into_iter().min_by_key(RunStats::tlb_misses).expect("sweep nonempty");
            row.runs.push(best);
        }
    }
    suites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_suite_serial;

    fn tiny() -> PaperConfig {
        PaperConfig { accesses: 8_000, footprint_shift: 5, ..PaperConfig::default() }
    }

    #[test]
    fn matrix_matches_serial_reference() {
        let config = PaperConfig { threads: Some(4), ..tiny() };
        let scenarios = [Scenario::LowContiguity, Scenario::MaxContiguity];
        let workloads = [WorkloadKind::Gups, WorkloadKind::Omnetpp];
        let kinds = [SchemeKind::Baseline, SchemeKind::Thp, SchemeKind::AnchorDynamic];
        let parallel =
            try_run_matrix_with(&MatrixCache::new(), &scenarios, &workloads, &kinds, &config);
        let serial: Result<Vec<SuiteResult>, SimError> =
            scenarios.iter().map(|&s| run_suite_serial(s, &workloads, &kinds, &config)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn cache_generates_inputs_exactly_once() {
        let config = PaperConfig { threads: Some(8), ..tiny() };
        let cache = MatrixCache::new();
        let scenarios = [Scenario::LowContiguity, Scenario::HighContiguity];
        let workloads = [WorkloadKind::Gups, WorkloadKind::Mcf];
        let kinds = [SchemeKind::Baseline, SchemeKind::Rmm];
        try_run_matrix_with(&cache, &scenarios, &workloads, &kinds, &config).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.mapping_builds, scenarios.len() * workloads.len());
        assert_eq!(stats.trace_builds, workloads.len());
        let rows = scenarios.len() * workloads.len();
        assert_eq!(stats.resolved_builds, rows);
        // A second matrix over the same cells generates no mapping or
        // trace, and resolves each row once more.
        try_run_matrix_with(&cache, &scenarios, &workloads, &kinds, &config).unwrap();
        assert_eq!(cache.stats(), CacheStats { resolved_builds: 2 * rows, ..stats });
    }

    #[test]
    fn resolved_slot_holds_one_trace() {
        let config = tiny();
        let cache = MatrixCache::new();
        let (gups, low) = (WorkloadKind::Gups, Scenario::LowContiguity);
        let first = cache.try_resolved_trace(gups, low, &config).unwrap();
        let again = cache.try_resolved_trace(gups, low, &config).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.stats().resolved_builds, 1);
        drop(again);
        cache.try_resolved_trace(WorkloadKind::Mcf, low, &config).unwrap();
        assert_eq!(Arc::strong_count(&first), 1, "the slot still holds the replaced trace");
        assert_eq!(cache.stats().resolved_builds, 2);
    }

    #[test]
    fn static_ideal_column_matches_serial_fold() {
        let config = PaperConfig { threads: Some(4), ..tiny() };
        let sweep = [4u64, 64, 4096];
        let kinds = [SchemeKind::Baseline, SchemeKind::AnchorDynamic];
        let suites = run_matrix_with_static_ideal(
            &MatrixCache::new(),
            &[Scenario::MediumContiguity],
            &[WorkloadKind::Canneal],
            &kinds,
            &sweep,
            &config,
        );
        assert_eq!(suites.len(), 1);
        let suite = &suites[0];
        assert_eq!(suite.schemes, ["Base", "Dynamic", "Static Ideal"]);
        let best = crate::experiment::static_ideal(
            WorkloadKind::Canneal,
            Scenario::MediumContiguity,
            &sweep,
            &config,
        )
        .unwrap();
        assert_eq!(suite.rows[0].runs[2], best);
    }

    #[test]
    fn corpus_replay_is_bit_identical_and_skips_generation() {
        let config = PaperConfig { threads: Some(2), ..tiny() };
        let workloads = [WorkloadKind::Gups, WorkloadKind::Mcf];
        let root = std::env::temp_dir().join(format!("hytlb_matrix_corpus_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();

        // Generate once, spill to the store.
        let fresh = MatrixCache::new();
        let mut store = TraceStore::open_or_create(&root).unwrap();
        let written = fresh.spill_traces(&mut store, &workloads, &config).unwrap();
        assert_eq!(written, 2);
        assert_eq!(fresh.spill_traces(&mut store, &workloads, &config).unwrap(), 0, "idempotent");

        // Replay from the store: same bytes, zero generator runs.
        let replay = MatrixCache::with_corpus(Arc::new(store));
        for &w in &workloads {
            assert_eq!(
                replay.try_trace(w, &config).unwrap(),
                fresh.try_trace(w, &config).unwrap(),
                "{w:?}"
            );
        }
        let stats = replay.stats();
        assert_eq!(stats.trace_loads, 2);
        assert_eq!(stats.trace_builds, 0);

        // A workload the corpus lacks falls back to generation.
        replay.try_trace(WorkloadKind::Milc, &config).unwrap();
        assert_eq!(replay.stats().trace_builds, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_corpus_surfaces_as_corpus_error() {
        let config = PaperConfig { threads: Some(1), ..tiny() };
        let root =
            std::env::temp_dir().join(format!("hytlb_matrix_badcorpus_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut store = TraceStore::open_or_create(&root).unwrap();
        MatrixCache::new().spill_traces(&mut store, &[WorkloadKind::Gups], &config).unwrap();
        // Flip a byte in the middle of the recorded file.
        let path = root.join(store.entries()[0].path.clone());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let replay = MatrixCache::with_corpus(Arc::new(store));
        let err = replay.try_trace(WorkloadKind::Gups, &config).unwrap_err();
        assert!(matches!(err, SimError::Corpus { .. }), "{err}");
        // The failure is memoized and also reaches matrix cells as a
        // named Cell error.
        let cell_err = try_run_matrix_with(
            &replay,
            &[Scenario::LowContiguity],
            &[WorkloadKind::Gups],
            &[SchemeKind::Baseline],
            &config,
        )
        .unwrap_err();
        assert!(matches!(cell_err, SimError::Cell { .. }), "{cell_err}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// A corpus whose gups trace is CRC-valid but addresses page `pages`,
    /// one past the `scenario` mapping, behind an in-range access. Returns
    /// the cache replaying it and `pages`.
    fn far_gups_corpus(
        root: &std::path::Path,
        scenario: Scenario,
        config: &PaperConfig,
    ) -> (MatrixCache, u64) {
        std::fs::remove_dir_all(root).ok();
        let pages = MatrixCache::new().mapping(WorkloadKind::Gups, scenario, config).index.len();
        let far = pages * hytlb_types::PAGE_SIZE_U64 + 7;
        let addresses = (0..config.accesses).map(|i| if i == 1 { far } else { 0 });
        let footprint = config.footprint_for(WorkloadKind::Gups);
        let mut store = TraceStore::open_or_create(root).unwrap();
        store.record(WorkloadKind::Gups.label(), footprint, config.seed, addresses).unwrap();
        (MatrixCache::with_corpus(Arc::new(store)), pages)
    }

    #[test]
    fn out_of_range_corpus_trace_is_an_error_not_a_panic() {
        let config = PaperConfig { threads: Some(1), ..tiny() };
        let root =
            std::env::temp_dir().join(format!("hytlb_matrix_farcorpus_{}", std::process::id()));
        let scenario = Scenario::LowContiguity;
        let (replay, pages) = far_gups_corpus(&root, scenario, &config);
        let err = replay.try_resolved_trace(WorkloadKind::Gups, scenario, &config).unwrap_err();
        assert_eq!(err, SimError::TraceOutOfRange { page: pages, pages }, "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn out_of_range_row_fails_its_cell_on_a_parallel_pool() {
        let config = PaperConfig { threads: Some(2), ..tiny() };
        let root = std::env::temp_dir().join(format!("hytlb_matrix_farrow_{}", std::process::id()));
        let scenario = Scenario::LowContiguity;
        let (replay, pages) = far_gups_corpus(&root, scenario, &config);
        let workloads = [WorkloadKind::Mcf, WorkloadKind::Gups, WorkloadKind::Milc];
        let kinds = [SchemeKind::Thp, SchemeKind::Baseline];
        let err =
            try_run_matrix_with(&replay, &[scenario], &workloads, &kinds, &config).unwrap_err();
        let expected = SimError::TraceOutOfRange { page: pages, pages }.in_cell(
            scenario.label(),
            WorkloadKind::Gups.label(),
            &SchemeKind::Thp.label(),
        );
        assert_eq!(err, expected, "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn worker_count_resolution_order() {
        let mut config = tiny();
        config.threads = Some(3);
        assert_eq!(worker_count(&config), 3);
        config.threads = Some(0); // nonsense values fall through
        assert!(worker_count(&config) >= 1);
        config.threads = None;
        assert!(worker_count(&config) >= 1);
    }

    #[test]
    fn single_thread_pool_still_covers_all_cells() {
        let config = PaperConfig { threads: Some(1), ..tiny() };
        let suites = try_run_matrix_with(
            &MatrixCache::new(),
            &[Scenario::EagerPaging],
            &[WorkloadKind::Milc],
            &[SchemeKind::Baseline, SchemeKind::Cluster],
            &config,
        )
        .unwrap();
        assert_eq!(suites[0].rows[0].runs.len(), 2);
        assert_eq!(suites[0].rows[0].runs[0].accesses, config.accesses);
    }
}
