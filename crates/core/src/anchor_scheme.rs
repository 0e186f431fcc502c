//! The anchor TLB — hardware lookup flow of Figures 5–6 and Table 2.
//!
//! On an L1 miss the shared L2 array is probed for a regular entry (4 KB,
//! then 2 MB). On a regular miss the *anchor* entry for the VPN is probed:
//! `AVPN = VPN & !(N−1)`, indexed with bits `[d, d+set_bits)` of the VPN so
//! anchors spread over all sets (Figure 6). An anchor hit whose contiguity
//! covers the VPN completes the translation as `APPN + (VPN − AVPN)` for
//! one extra cycle (8 vs 7). Otherwise the page walk runs; the regular
//! translation returns to the core on the critical path, and the walker's
//! off-critical-path anchor fetch decides what to fill (Table 2):
//!
//! | regular | anchor | contiguity | fill |
//! |---------|--------|------------|------|
//! | hit     | —      | —          | done |
//! | miss    | hit    | yes        | done (anchor translation) |
//! | miss    | hit    | no         | walk; fill **regular** entry |
//! | miss    | miss   | yes        | walk; fill **only the anchor** entry |
//! | miss    | miss   | no         | walk; fill **only the regular** entry |

use crate::distance::{CostModel, DistanceSelector};
use crate::os::{DistanceMode, OsKernel};
use hytlb_mem::{AddressSpaceMap, ChunkTable};
use hytlb_pagetable::{LeafEntry, PageTable};
use hytlb_schemes::{
    AnchorIndexing, BuildMmu, Cascade, CoalescedLevel, Mmu, Probe, PteBlock, SharedL2,
    TranslationPath,
};
use hytlb_types::{PageSize, PhysFrameNum, VirtPageNum, HUGE_PAGE_PAGES};
use std::sync::Arc;

/// What the walker fills after a double miss when the anchor covers the
/// page (Table 2 row 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum FillPolicy {
    /// The paper's policy: fill only the anchor entry, so one entry serves
    /// the whole contiguous block and regular entries don't pollute the L2.
    #[default]
    PreferAnchor,
    /// Ablation: always fill the regular entry, never anchors-on-miss.
    AlwaysRegular,
}

/// Configuration of the anchor scheme.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnchorConfig {
    /// Distance management policy.
    pub mode: DistanceMode,
    /// Set-index derivation for anchor entries.
    pub indexing: AnchorIndexing,
    /// Fill policy on double misses.
    pub fill: FillPolicy,
    /// Cost model for the distance selector.
    pub cost_model: CostModel,
}

impl AnchorConfig {
    /// The paper's `Dynamic` configuration.
    #[must_use]
    pub fn dynamic() -> Self {
        AnchorConfig {
            mode: DistanceMode::Dynamic,
            indexing: AnchorIndexing::Fig6,
            fill: FillPolicy::PreferAnchor,
            cost_model: CostModel::default(),
        }
    }

    /// A fixed-distance configuration (one point of a `Static Ideal`
    /// sweep).
    #[must_use]
    pub fn static_distance(distance: u64) -> Self {
        AnchorConfig { mode: DistanceMode::Static(distance), ..Self::dynamic() }
    }

    /// The multi-region extension with the given region budget.
    #[must_use]
    pub fn multi_region(max_regions: usize) -> Self {
        AnchorConfig { mode: DistanceMode::MultiRegion(max_regions), ..Self::dynamic() }
    }
}

impl Default for AnchorConfig {
    fn default() -> Self {
        Self::dynamic()
    }
}

/// The hybrid-coalescing MMU: the shared cascade with an [`AnchorLevel`].
/// `AnchorScheme::new(map, config)` builds it.
pub type AnchorScheme = Mmu<AnchorLevel>;

/// The anchor level: anchor entries in the shared L2, the OS that owns the
/// page table and the anchor distance, and the Table 2 fill rule.
#[derive(Debug)]
pub struct AnchorLevel {
    os: OsKernel,
    indexing: AnchorIndexing,
    fill: FillPolicy,
    /// The mapping's chunks long enough to hold a 2 MB page, for the
    /// walker's huge-page-shape check; the OS never remaps pages after
    /// construction (epoch checks only re-anchor), so it never goes stale.
    huge_chunks: ChunkTable,
}

/// What an anchor probe that did not translate tells the fill.
#[derive(Debug, Clone, Copy)]
pub struct AnchorMiss {
    /// The anchor tag hit but its contiguity did not cover the page
    /// (Table 2 row 3); otherwise the anchor missed outright (rows 4–5).
    tag_hit: bool,
    /// Log2 of the anchor distance the probe used.
    distance_log2: u32,
}

impl BuildMmu for AnchorLevel {
    type Config = AnchorConfig;

    /// Builds the scheme over a mapping.
    ///
    /// # Panics
    ///
    /// Panics if a static distance in the config is invalid.
    fn build(map: Arc<AddressSpaceMap>, config: AnchorConfig) -> Mmu<AnchorLevel> {
        let huge_chunks = ChunkTable::with_min_len(&map, HUGE_PAGE_PAGES);
        let name = match config.mode {
            DistanceMode::Dynamic => "Dynamic".to_owned(),
            DistanceMode::Static(d) => format!("Anchor-d{d}"),
            DistanceMode::MultiRegion(n) => format!("Anchor-region{n}"),
        };
        let os = OsKernel::boot(map, DistanceSelector::paper(config.cost_model), config.mode);
        Mmu {
            cascade: Cascade::new(name, SharedL2::paper_default()),
            level: AnchorLevel { os, indexing: config.indexing, fill: config.fill, huge_chunks },
        }
    }
}

impl AnchorLevel {
    /// The anchor distance currently in effect process-wide (or the default
    /// distance for multi-region kernels).
    #[must_use]
    pub fn distance(&self) -> u64 {
        self.os.distance()
    }

    /// The OS model (distance, region table).
    #[must_use]
    pub fn os(&self) -> &OsKernel {
        &self.os
    }

    fn fill_regular(&self, l2: &mut SharedL2, vpn: VirtPageNum, pfn: PhysFrameNum) {
        // The walker knows from the PD entry whether the region is
        // huge-page shaped; the anchor scheme's L2 stores 4 KB, 2 MB and
        // anchor entries side by side (Table 3).
        if let Some(head) = self.huge_chunks.huge_page_at(vpn) {
            let head_pfn = PhysFrameNum::new(pfn.as_u64() - (vpn - head));
            if head_pfn.is_aligned(HUGE_PAGE_PAGES) {
                l2.insert_2m(head, head_pfn);
                return;
            }
        }
        l2.insert_4k(vpn, pfn);
    }
}

impl CoalescedLevel for AnchorLevel {
    type Miss = AnchorMiss;

    /// Table 2 row 2: an anchor hit whose contiguity covers the page
    /// translates it as `APPN + (VPN − AVPN)`.
    #[inline]
    fn probe(&mut self, l2: &mut SharedL2, vpn: VirtPageNum) -> Probe<AnchorMiss> {
        let distance_log2 = self.os.distance_for(vpn).trailing_zeros();
        match l2.lookup_anchor(vpn, distance_log2, self.indexing) {
            Some(hit) if hit.covers(vpn) => Probe::Hit {
                pfn: hit.translate(vpn),
                size: PageSize::Base4K,
                path: TranslationPath::CoalescedHit,
            },
            hit => Probe::Miss(AnchorMiss { tag_hit: hit.is_some(), distance_log2 }),
        }
    }

    fn table(&self) -> &PageTable {
        self.os.table()
    }

    /// Rows 3–5: the regular translation went to the core first; the
    /// walker's off-critical-path anchor fetch decides what to fill.
    #[inline]
    fn fill(
        &mut self,
        l2: &mut SharedL2,
        vpn: VirtPageNum,
        leaf: LeafEntry,
        _: Option<PteBlock>,
        miss: AnchorMiss,
    ) {
        // Row 3 (`tag_hit`): the anchor was present but did not cover the
        // page — only the page's own entry can translate it.
        let probe = if miss.tag_hit { None } else { self.os.anchor_probe(vpn) };
        match probe.filter(|p| p.covers(vpn)) {
            // Row 4: fill only the anchor entry.
            Some(p) if self.fill == FillPolicy::PreferAnchor => {
                l2.insert_anchor(p.avpn, p.pfn, p.contiguity, miss.distance_log2, self.indexing);
            }
            // Rows 3 and 5, or row 4 under the ablation policy.
            Some(_) | None => self.fill_regular(l2, vpn, leaf.pfn_for(vpn)),
        }
    }

    fn on_epoch(&mut self) -> bool {
        self.os.check_epoch().requires_shootdown()
    }

    fn anchor_distance(&self) -> Option<u64> {
        Some(self.os.distance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;
    use hytlb_types::VirtAddr;

    fn va(vpn: VirtPageNum) -> VirtAddr {
        vpn.base_addr()
    }

    fn touch_all<L: CoalescedLevel>(s: &mut Mmu<L>, map: &AddressSpaceMap, rounds: usize) {
        for _ in 0..rounds {
            for (vpn, pfn) in map.iter_pages() {
                assert_eq!(s.access(va(vpn)).pfn, Some(pfn), "at {vpn}");
            }
        }
    }

    #[test]
    fn table2_row2_anchor_hit_contiguity_match() {
        // One 8-page chunk, distance 8: the first walk fills the anchor;
        // every other page of the chunk is then an anchor hit at 8 cycles.
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(96),
            8,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::static_distance(8));
        assert_eq!(s.access(va(VirtPageNum::new(3))).path, TranslationPath::Walk);
        let r = s.access(va(VirtPageNum::new(6)));
        assert_eq!(r.path, TranslationPath::CoalescedHit);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(102)));
    }

    #[test]
    fn table2_row3_anchor_hit_contiguity_miss_fills_regular() {
        // Chunk covers pages 0..4 of an 8-page anchor block; pages 4..8 are
        // mapped elsewhere (discontiguous).
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(96),
            4,
            hytlb_types::Permissions::READ_WRITE,
        );
        m.map_range(
            VirtPageNum::new(4),
            PhysFrameNum::new(200),
            4,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::static_distance(8));
        s.access(va(VirtPageNum::new(0))); // walk; fills anchor (contiguity 4)
        assert_eq!(s.access(va(VirtPageNum::new(2))).path, TranslationPath::CoalescedHit);
        // Page 5: anchor 0 is present but contiguity(4) does not cover it →
        // walk, regular fill.
        let r = s.access(va(VirtPageNum::new(5)));
        assert_eq!(r.path, TranslationPath::Walk);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(201)));
        // Re-access: regular L2 hit at 7 cycles (not coalesced).
        s.cascade.l1_mut().flush(); // bypass L1 so the L2 path is visible
        let r2 = s.access(va(VirtPageNum::new(5)));
        assert_eq!(r2.path, TranslationPath::L2RegularHit);
    }

    #[test]
    fn table2_row4_double_miss_fills_only_anchor() {
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(96),
            8,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::static_distance(8));
        s.access(va(VirtPageNum::new(3)));
        // The regular 4K entry must NOT be in the L2: flush L1, re-access,
        // and observe an anchor (coalesced) hit rather than a regular hit.
        s.cascade.l1_mut().flush();
        let r = s.access(va(VirtPageNum::new(3)));
        assert_eq!(r.path, TranslationPath::CoalescedHit);
    }

    #[test]
    fn table2_row5_double_miss_no_coverage_fills_regular() {
        // Anchor page exists but the accessed page is beyond contiguity:
        // pages 0..2 contiguous, page 2..8 unmapped... use a singleton far
        // from its anchor: anchor 0 unmapped entirely.
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(5),
            PhysFrameNum::new(300),
            1,
            hytlb_types::Permissions::READ_WRITE,
        );
        let map = Arc::new(m);
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::static_distance(8));
        let r = s.access(va(VirtPageNum::new(5)));
        assert_eq!(r.path, TranslationPath::Walk);
        s.cascade.l1_mut().flush();
        let r2 = s.access(va(VirtPageNum::new(5)));
        assert_eq!(r2.path, TranslationPath::L2RegularHit);
    }

    #[test]
    fn ablation_always_regular_never_fills_anchors() {
        let map = Arc::new(Scenario::MediumContiguity.generate(2048, 7));
        let cfg = AnchorConfig { fill: FillPolicy::AlwaysRegular, ..AnchorConfig::dynamic() };
        let mut s = AnchorScheme::new(Arc::clone(&map), cfg);
        touch_all(&mut s, &map, 2);
        assert_eq!(s.stats().coalesced_hits, 0);
    }

    #[test]
    fn dynamic_beats_baseline_on_medium_contiguity() {
        let map = Arc::new(Scenario::MediumContiguity.generate(8192, 8));
        let mut anchor = AnchorScheme::new(Arc::clone(&map), AnchorConfig::dynamic());
        let mut base = Mmu::baseline(&map);
        touch_all(&mut anchor, &map, 2);
        touch_all(&mut base, &map, 2);
        assert!(
            (anchor.stats().walks as f64) < 0.6 * base.stats().walks as f64,
            "anchor {} vs base {}",
            anchor.stats().walks,
            base.stats().walks
        );
    }

    #[test]
    fn translations_match_map_across_modes() {
        let map = Arc::new(Scenario::DemandPaging.generate(4096, 9));
        for cfg in [
            AnchorConfig::dynamic(),
            AnchorConfig::static_distance(64),
            AnchorConfig::multi_region(4),
        ] {
            let mut s = AnchorScheme::new(Arc::clone(&map), cfg);
            touch_all(&mut s, &map, 2);
        }
    }

    #[test]
    fn permission_boundary_breaks_anchor_coverage() {
        // §3.3 "Permission and Page Sharing": physically contiguous pages
        // with different permissions must not be translated through one
        // anchor. The map keeps them as separate chunks, so the anchor's
        // contiguity stops at the boundary and the RO page is served by
        // its own entry.
        let mut m = AddressSpaceMap::new();
        m.map_range(
            VirtPageNum::new(0),
            PhysFrameNum::new(96),
            4,
            hytlb_types::Permissions::READ_WRITE,
        );
        m.map_range(VirtPageNum::new(4), PhysFrameNum::new(100), 4, hytlb_types::Permissions::READ);
        let map = Arc::new(m);
        assert_eq!(map.chunk_count(), 2, "permissions split the chunks");
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::static_distance(8));
        s.access(va(VirtPageNum::new(0))); // anchor fill, contiguity 4
                                           // Page 5 is beyond the anchor's contiguity: anchor hit but
                                           // contiguity miss -> page walk (Table 2 row 3), correct frame.
        let r = s.access(va(VirtPageNum::new(5)));
        assert_eq!(r.path, TranslationPath::Walk);
        assert_eq!(r.pfn, Some(PhysFrameNum::new(101)));
        // The RW side is still anchor-covered.
        assert_eq!(s.access(va(VirtPageNum::new(2))).path, TranslationPath::CoalescedHit);
    }

    #[test]
    fn anchor_distance_register_is_per_process() {
        // Two "processes" (schemes) over different mappings select
        // different distances independently — the per-process anchor
        // distance register of §3.1.
        let fine = Arc::new(Scenario::LowContiguity.generate(2048, 3));
        let huge = Arc::new(Scenario::MaxContiguity.generate(16_384, 3));
        let a = AnchorScheme::new(Arc::clone(&fine), AnchorConfig::dynamic());
        let b = AnchorScheme::new(Arc::clone(&huge), AnchorConfig::dynamic());
        assert!(
            a.level.distance() < b.level.distance(),
            "{} vs {}",
            a.level.distance(),
            b.level.distance()
        );
    }

    #[test]
    fn epoch_on_stable_map_is_quiet() {
        let map = Arc::new(Scenario::LowContiguity.generate(1024, 10));
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::dynamic());
        touch_all(&mut s, &map, 1);
        let d = s.level.distance();
        for _ in 0..5 {
            s.on_epoch();
        }
        assert_eq!(s.level.distance(), d);
    }

    #[test]
    fn static_mode_ignores_epochs() {
        let map = Arc::new(Scenario::LowContiguity.generate(512, 11));
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::static_distance(4096));
        s.on_epoch();
        assert_eq!(s.level.distance(), 4096);
    }

    #[test]
    fn max_contiguity_with_dynamic_anchor_nearly_eliminates_walks() {
        let map = Arc::new(Scenario::MaxContiguity.generate(32_768, 12));
        let mut s = AnchorScheme::new(Arc::clone(&map), AnchorConfig::dynamic());
        touch_all(&mut s, &map, 2);
        let st = s.stats();
        // A few cold walks per anchor region; everything else coalesced.
        assert!(
            (st.walks as f64) < 0.01 * st.accesses as f64,
            "walks {} of {}",
            st.walks,
            st.accesses
        );
    }

    #[test]
    fn huge_shaped_regions_can_fill_2mb_entries() {
        // Force regular fills (ablation policy) on a huge-page-shaped
        // mapping: the walker installs 2 MB entries, and a far page of the
        // same huge page hits them.
        let map = Arc::new(Scenario::MaxContiguity.generate(4096, 13));
        let cfg =
            AnchorConfig { fill: FillPolicy::AlwaysRegular, ..AnchorConfig::static_distance(2) };
        let mut s = AnchorScheme::new(Arc::clone(&map), cfg);
        let head = map.chunks().next().unwrap().vpn;
        assert_eq!(s.access(va(head)).path, TranslationPath::Walk);
        s.cascade.l1_mut().flush(); // bypass L1 so the L2 2MB entry is observable
        let r = s.access(va(head + 300));
        assert_eq!(r.path, TranslationPath::L2RegularHit);
    }
}
