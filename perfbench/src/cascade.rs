//! The Baseline and Dynamic translation cascades, rebuilt from the crates'
//! public parts (`L1Tlb`, `SharedL2`, `PageTable`, `PageWalker`, `OsKernel`)
//! so that each layer's input stream can be recorded and later replayed
//! through that layer alone.
//!
//! A rebuilt cascade must reproduce `Machine`'s hit and walk counters
//! exactly; the caller checks that before any layer number is reported.

use hytlb_core::{DistanceSelector, OsKernel};
use hytlb_mem::{AddressSpaceMap, ChunkCursor};
use hytlb_pagetable::{PageTable, PageWalker};
use hytlb_schemes::{AnchorIndexing, SchemeStats, SharedL2};
use hytlb_tlb::L1Tlb;
use hytlb_types::{PageSize, PhysFrameNum, VirtAddr, VirtPageNum, HUGE_PAGE_PAGES};
use std::hint::black_box;
use std::sync::Arc;

/// The two cascades whose layers are all public.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cascade {
    /// `Base`: L1, then 4 KB L2 entries, then a walk.
    Baseline,
    /// `Dynamic`: L1, 4 KB / 2 MB / anchor L2 entries, walk, anchor fill.
    Dynamic,
}

impl Cascade {
    /// The `Machine` scheme label this cascade rebuilds.
    pub fn label(self) -> &'static str {
        match self {
            Cascade::Baseline => "Base",
            Cascade::Dynamic => "Dynamic",
        }
    }
}

// Log words: an operation tag in the top byte, for anchor operations the
// anchor distance's log2 in the next byte, and a VPN below. Frames and
// contiguities follow as extra words.
const TAG_SHIFT: u32 = 56;
const DLOG_SHIFT: u32 = 48;
const LOW: u64 = (1 << DLOG_SHIFT) - 1;

/// L1 operations.
pub mod l1op {
    /// `lookup(vpn)`.
    pub const LOOKUP: u8 = 1;
    /// `insert(vpn, pfn, 4 KB)`, then the frame word.
    pub const INSERT_4K: u8 = 2;
    /// `insert(vpn, pfn, 2 MB)`, then the frame word.
    pub const INSERT_2M: u8 = 3;
    /// `flush()`.
    pub const FLUSH: u8 = 4;
}

/// Shared-L2 operations.
pub mod l2op {
    /// `lookup_4k(vpn)`.
    pub const LOOKUP_4K: u8 = 1;
    /// `lookup_2m(vpn)`.
    pub const LOOKUP_2M: u8 = 2;
    /// `lookup_anchor(vpn, dlog)`.
    pub const LOOKUP_ANCHOR: u8 = 3;
    /// `insert_4k(vpn, pfn)`, then the frame word.
    pub const INSERT_4K: u8 = 4;
    /// `insert_2m(head, pfn)`, then the frame word.
    pub const INSERT_2M: u8 = 5;
    /// `insert_anchor(avpn, appn, contiguity, dlog)`, then two words.
    pub const INSERT_ANCHOR: u8 = 6;
    /// `flush()`.
    pub const FLUSH: u8 = 7;
}

fn word(tag: u8, dlog: u32, vpn: VirtPageNum) -> u64 {
    debug_assert!(vpn.as_u64() <= LOW);
    (u64::from(tag) << TAG_SHIFT) | (u64::from(dlog) << DLOG_SHIFT) | vpn.as_u64()
}

fn tag(word: u64) -> u8 {
    (word >> TAG_SHIFT) as u8
}

fn vpn(word: u64) -> VirtPageNum {
    VirtPageNum::new(word & LOW)
}

fn dlog(word: u64) -> u32 {
    ((word >> DLOG_SHIFT) & 0xff) as u32
}

/// What each layer saw during one cascade replay.
#[derive(Debug, Default)]
pub struct Streams {
    /// L1 operations in order.
    pub l1: Vec<u64>,
    /// Shared-L2 operations in order.
    pub l2: Vec<u64>,
    /// VPNs that reached the page walker.
    pub walks: Vec<VirtPageNum>,
    /// VPNs the walker probed for an anchor entry (Dynamic only).
    pub anchor_probes: Vec<VirtPageNum>,
}

/// The counters a replay produced plus the recorded streams.
#[derive(Debug)]
pub struct Replay {
    /// Same meaning as `Machine`'s `SchemeStats`.
    pub stats: SchemeStats,
    /// The per-layer input streams.
    pub streams: Streams,
    /// The Baseline's page table (Dynamic walks the OS's table).
    table: Option<PageTable>,
    /// The OS model after the run (Dynamic only).
    pub os: Option<OsKernel>,
}

struct Recorder {
    l1: L1Tlb,
    l2: SharedL2,
    s: Streams,
    stats: SchemeStats,
}

impl Recorder {
    fn l1_lookup(&mut self, v: VirtPageNum) -> bool {
        self.s.l1.push(word(l1op::LOOKUP, 0, v));
        self.l1.lookup(v).is_some()
    }

    fn l1_insert(&mut self, v: VirtPageNum, pfn: PhysFrameNum, size: PageSize) {
        let op = if size == PageSize::Huge2M { l1op::INSERT_2M } else { l1op::INSERT_4K };
        self.s.l1.extend([word(op, 0, v), pfn.as_u64()]);
        self.l1.insert(v, pfn, size);
    }

    fn flush(&mut self) {
        self.s.l1.push(word(l1op::FLUSH, 0, VirtPageNum::new(0)));
        self.s.l2.push(word(l2op::FLUSH, 0, VirtPageNum::new(0)));
        self.l1.flush();
        self.l2.flush();
    }

    fn l2_insert_4k(&mut self, v: VirtPageNum, pfn: PhysFrameNum) {
        self.s.l2.extend([word(l2op::INSERT_4K, 0, v), pfn.as_u64()]);
        self.l2.insert_4k(v, pfn);
    }
}

/// Replays `resolved` through the rebuilt `cascade` over `map`, firing the
/// epoch check every `epoch_accesses` accesses as `Machine` does. Returns
/// `None` on a fault (which `Machine` would report as an error).
pub fn replay(
    cascade: Cascade,
    map: &Arc<AddressSpaceMap>,
    resolved: &[VirtAddr],
    epoch_accesses: u64,
) -> Option<Replay> {
    let mut r = Recorder {
        l1: L1Tlb::paper_default(),
        l2: SharedL2::paper_default(),
        s: Streams::default(),
        stats: SchemeStats::default(),
    };
    let walker = PageWalker::default();
    let fig6 = AnchorIndexing::Fig6;
    let (table, mut os) = match cascade {
        Cascade::Baseline => (Some(PageTable::from_map(map, false)), None),
        // `AnchorScheme::new` boots its kernel with the paper's selector.
        Cascade::Dynamic => {
            (None, Some(OsKernel::new(Arc::clone(map), DistanceSelector::paper_default())))
        }
    };
    let mut cursor = ChunkCursor::default();
    for (i, va) in resolved.iter().enumerate() {
        let v = va.page_number();
        r.stats.accesses += 1;
        if r.l1_lookup(v) {
            r.stats.l1_hits += 1;
        } else {
            r.s.l2.push(word(l2op::LOOKUP_4K, 0, v));
            if let Some(pfn) = r.l2.lookup_4k(v) {
                r.l1_insert(v, pfn, PageSize::Base4K);
                r.stats.l2_regular_hits += 1;
            } else if let Some(os) = os.as_ref() {
                r.s.l2.push(word(l2op::LOOKUP_2M, 0, v));
                if let Some(pfn) = r.l2.lookup_2m(v) {
                    r.l1_insert(v, pfn, PageSize::Huge2M);
                    r.stats.l2_regular_hits += 1;
                } else {
                    let d_log = os.distance_for(v).trailing_zeros();
                    r.s.l2.push(word(l2op::LOOKUP_ANCHOR, d_log, v));
                    let anchor = r.l2.lookup_anchor(v, d_log, fig6);
                    if let Some(hit) = anchor.filter(|h| h.covers(v)) {
                        r.l1_insert(v, hit.translate(v), PageSize::Base4K);
                        r.stats.coalesced_hits += 1;
                    } else {
                        r.s.walks.push(v);
                        let pfn = walker.walk(os.table(), v).leaf?.pfn_for(v);
                        let probe = if anchor.is_some() {
                            None
                        } else {
                            r.s.anchor_probes.push(v);
                            os.anchor_probe(v).filter(|p| p.covers(v))
                        };
                        if let Some(p) = probe {
                            r.s.l2.extend([
                                word(l2op::INSERT_ANCHOR, d_log, p.avpn),
                                p.pfn.as_u64(),
                                p.contiguity,
                            ]);
                            r.l2.insert_anchor(p.avpn, p.pfn, p.contiguity, d_log, fig6);
                        } else {
                            // Regular fill: a 2 MB entry where the mapping
                            // is huge-page shaped, else a 4 KB one.
                            let huge =
                                os.map().huge_page_at_with(v, &mut cursor).and_then(|head| {
                                    let head_pfn = PhysFrameNum::new(pfn.as_u64() - (v - head));
                                    head_pfn.is_aligned(HUGE_PAGE_PAGES).then_some((head, head_pfn))
                                });
                            match huge {
                                Some((head, head_pfn)) => {
                                    r.s.l2.extend([
                                        word(l2op::INSERT_2M, 0, head),
                                        head_pfn.as_u64(),
                                    ]);
                                    r.l2.insert_2m(head, head_pfn);
                                }
                                None => r.l2_insert_4k(v, pfn),
                            }
                        }
                        r.l1_insert(v, pfn, PageSize::Base4K);
                        r.stats.walks += 1;
                    }
                }
            } else {
                let table = table.as_ref().expect("Baseline owns its table");
                r.s.walks.push(v);
                let pfn = walker.walk(table, v).leaf?.pfn_for(v);
                r.l2_insert_4k(v, pfn);
                r.l1_insert(v, pfn, PageSize::Base4K);
                r.stats.walks += 1;
            }
        }
        if (i as u64 + 1).is_multiple_of(epoch_accesses) {
            if let Some(os) = os.as_mut() {
                if os.check_epoch().requires_shootdown() {
                    r.flush();
                }
            }
        }
    }
    Some(Replay { stats: r.stats, streams: r.s, table, os })
}

impl Replay {
    /// The page table the walks went to.
    pub fn walk_table(&self) -> &PageTable {
        match (&self.table, &self.os) {
            (Some(table), _) => table,
            (None, Some(os)) => os.table(),
            (None, None) => unreachable!("every cascade owns a table or an OS"),
        }
    }
}

/// Which operation kinds [`play_l1`] / [`play_l2`] execute; the rest of the
/// log is skipped.
pub type Mask = u16;

/// Every operation kind.
pub const ALL: Mask = Mask::MAX;

/// The mask bit of operation `op`.
pub const fn bit(op: u8) -> Mask {
    1 << op
}

/// Replays an L1 log on a fresh paper-default L1; returns the lookups run
/// and how many hit.
pub fn play_l1(log: &[u64], mask: Mask) -> (u64, u64) {
    let mut l1 = L1Tlb::paper_default();
    let (mut lookups, mut hits) = (0, 0);
    let mut i = 0;
    while i < log.len() {
        let w = log[i];
        let op = tag(w);
        let on = mask & bit(op) != 0;
        match op {
            l1op::LOOKUP => {
                if on {
                    lookups += 1;
                    hits += u64::from(black_box(l1.lookup(vpn(w))).is_some());
                }
            }
            l1op::INSERT_4K | l1op::INSERT_2M => {
                i += 1;
                if on {
                    let size =
                        if op == l1op::INSERT_2M { PageSize::Huge2M } else { PageSize::Base4K };
                    l1.insert(vpn(w), PhysFrameNum::new(log[i]), size);
                }
            }
            _ => {
                if on {
                    l1.flush();
                }
            }
        }
        i += 1;
    }
    (lookups, hits)
}

/// Replays a shared-L2 log on a fresh paper-default array; returns the
/// lookups run and how many hit (an anchor hit counts only when it covers
/// the page).
pub fn play_l2(log: &[u64], mask: Mask) -> (u64, u64) {
    let mut l2 = SharedL2::paper_default();
    let fig6 = AnchorIndexing::Fig6;
    let (mut lookups, mut hits) = (0, 0);
    let mut i = 0;
    while i < log.len() {
        let w = log[i];
        let op = tag(w);
        let on = mask & bit(op) != 0;
        let v = vpn(w);
        match op {
            l2op::LOOKUP_4K | l2op::LOOKUP_2M | l2op::LOOKUP_ANCHOR if on => {
                lookups += 1;
                let hit = match op {
                    l2op::LOOKUP_4K => black_box(l2.lookup_4k(v)).is_some(),
                    l2op::LOOKUP_2M => black_box(l2.lookup_2m(v)).is_some(),
                    _ => black_box(l2.lookup_anchor(v, dlog(w), fig6)).is_some_and(|h| h.covers(v)),
                };
                hits += u64::from(hit);
            }
            l2op::INSERT_4K | l2op::INSERT_2M => {
                i += 1;
                if on {
                    let pfn = PhysFrameNum::new(log[i]);
                    if op == l2op::INSERT_4K {
                        l2.insert_4k(v, pfn);
                    } else {
                        l2.insert_2m(v, pfn);
                    }
                }
            }
            l2op::INSERT_ANCHOR => {
                i += 2;
                if on {
                    l2.insert_anchor(v, PhysFrameNum::new(log[i - 1]), log[i], dlog(w), fig6);
                }
            }
            l2op::FLUSH if on => l2.flush(),
            _ => {}
        }
        i += 1;
    }
    (lookups, hits)
}

/// Counts the operations of kind `op` in an L1 (`l1 = true`) or L2 log.
pub fn count(log: &[u64], op: u8, l1: bool) -> u64 {
    let mut n = 0;
    let mut i = 0;
    while i < log.len() {
        let t = tag(log[i]);
        n += u64::from(t == op);
        i += 1 + match (l1, t) {
            (true, l1op::INSERT_4K | l1op::INSERT_2M) => 1,
            (false, l2op::INSERT_4K | l2op::INSERT_2M) => 1,
            (false, l2op::INSERT_ANCHOR) => 2,
            _ => 0,
        };
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_sim::{Machine, PaperConfig, SchemeKind};
    use hytlb_trace::WorkloadKind;

    #[test]
    fn rebuilt_cascades_match_machine_with_epochs() {
        // A short epoch so the Dynamic replay crosses many epoch checks.
        let config = PaperConfig {
            accesses: 20_000,
            footprint_shift: 8,
            epoch_instructions: 9_000,
            ..PaperConfig::default()
        };
        for (workload, scenario) in [
            (WorkloadKind::Gups, Scenario::LowContiguity),
            (WorkloadKind::Omnetpp, Scenario::MediumContiguity),
            (WorkloadKind::Mcf, Scenario::MaxContiguity),
        ] {
            let map = hytlb_sim::experiment::mapping_for(workload, scenario, &config);
            let index = Arc::new(map.page_index());
            let resolved = index.resolve(&hytlb_sim::experiment::trace_for(workload, &config));
            for (cascade, kind) in [
                (Cascade::Baseline, SchemeKind::Baseline),
                (Cascade::Dynamic, SchemeKind::AnchorDynamic),
            ] {
                let machine = Machine::for_scheme_indexed(kind, &map, &index, &config)
                    .try_run_resolved(&resolved)
                    .unwrap();
                let r = replay(cascade, &map, &resolved, config.epoch_accesses()).unwrap();
                let mut expected = machine.stats;
                expected.cycles = r.stats.cycles;
                assert_eq!(r.stats, expected, "{workload:?}/{scenario:?}/{cascade:?}");

                // Replaying the recorded logs reproduces the hit counts.
                let (lookups, hits) = play_l1(&r.streams.l1, ALL);
                assert_eq!((lookups, hits), (machine.stats.accesses, machine.stats.l1_hits));
                let (_, l2_hits) = play_l2(&r.streams.l2, ALL);
                assert_eq!(l2_hits, machine.stats.l2_regular_hits + machine.stats.coalesced_hits);
                assert_eq!(r.streams.walks.len() as u64, machine.stats.walks);
                assert_eq!(count(&r.streams.l1, l1op::LOOKUP, true), lookups);
            }
        }
    }

    #[test]
    fn masked_replays_skip_operations() {
        let map = Arc::new(Scenario::MediumContiguity.generate(4096, 3));
        let index = map.page_index();
        let trace: Vec<u64> = WorkloadKind::Canneal.generator(4096, 3).take(5_000).collect();
        let r = replay(Cascade::Dynamic, &map, &index.resolve(&trace), u64::MAX).unwrap();
        let inserts = bit(l1op::INSERT_4K) | bit(l1op::INSERT_2M) | bit(l1op::FLUSH);
        assert_eq!(play_l1(&r.streams.l1, inserts), (0, 0));
        let (lookups, _) = play_l2(&r.streams.l2, bit(l2op::LOOKUP_ANCHOR));
        assert_eq!(lookups, count(&r.streams.l2, l2op::LOOKUP_ANCHOR, false));
    }
}
