//! The six mapping scenarios of the paper's evaluation (§5.1, Table 4).
//!
//! Two "real" mappings are produced by running the OS model (buddy
//! allocator plus fragmentation pressure and demand/eager paging); four
//! synthetic mappings draw chunk sizes from the uniform ranges of Table 4:
//!
//! | scenario           | contiguity                        |
//! |--------------------|-----------------------------------|
//! | low contiguity     | 1 – 16 pages (4 KB – 64 KB)       |
//! | medium contiguity  | 1 – 512 pages (4 KB – 2 MB)       |
//! | high contiguity    | 512 – 65 536 pages (2 MB – 256 MB)|
//! | max contiguity     | maximum (fully contiguous regions)|

use crate::{AddressSpaceMap, BuddyAllocator, DemandPager, FragmentationLevel, Fragmenter};
use hytlb_types::{Permissions, PhysFrameNum, VirtPageNum, HUGE_PAGE_PAGES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Virtual page number where generated mappings begin. 2 MB-aligned so THP
/// regions line up exactly as on a real system.
pub(crate) const VA_BASE: u64 = 0x0000_7f40_0000_0000 >> 12;

/// How an application asks the OS for memory: the sizes of its VMAs.
///
/// The paper's real mappings differ strongly per application: `omnetpp` and
/// `xalancbmk` allocate many small objects and "do not exhibit large chunk
/// contiguity" even with THP on, while `gups`/`graph500`/`mcf` back their
/// footprint with a few giant allocations. The profile bounds the VMA sizes
/// the demand/eager OS models create; THP can only map 2 MB regions that
/// fit inside one VMA, so fine-grained profiles naturally suppress huge
/// pages and cap contiguity — exactly the per-application diversity of the
/// paper's Table 6 demand/eager columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct AllocationProfile {
    max_unit_pages: u64,
}

impl AllocationProfile {
    /// A few giant allocations (arrays, big heaps): VMAs as large as the
    /// footprint allows.
    #[must_use]
    pub fn contiguous() -> Self {
        AllocationProfile { max_unit_pages: u64::MAX }
    }

    /// Allocations of at most `max_unit_pages` pages each.
    ///
    /// # Panics
    ///
    /// Panics if `max_unit_pages` is zero.
    #[must_use]
    pub fn units(max_unit_pages: u64) -> Self {
        assert!(max_unit_pages > 0, "allocation units have at least one page");
        AllocationProfile { max_unit_pages }
    }

    /// Upper bound on one VMA's size, in pages.
    #[must_use]
    pub fn max_unit_pages(&self) -> u64 {
        self.max_unit_pages
    }

    /// `true` when VMAs are unbounded.
    #[must_use]
    pub fn is_contiguous(&self) -> bool {
        self.max_unit_pages == u64::MAX
    }
}

impl Default for AllocationProfile {
    fn default() -> Self {
        Self::contiguous()
    }
}

/// One of the paper's six memory-mapping scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Scenario {
    /// Vanilla-Linux demand paging with THP, under moderate background
    /// fragmentation pressure.
    DemandPaging,
    /// Eager paging: the whole footprint allocated up front through the
    /// buddy allocator.
    EagerPaging,
    /// Synthetic: chunks of 1–16 pages.
    LowContiguity,
    /// Synthetic: chunks of 1–512 pages.
    MediumContiguity,
    /// Synthetic: chunks of 512–65 536 pages.
    HighContiguity,
    /// Synthetic: every region fully contiguous (ideal for RMM).
    MaxContiguity,
}

impl Scenario {
    /// All six scenarios in the order the paper reports them (Figure 9).
    #[must_use]
    pub const fn all() -> [Scenario; 6] {
        [
            Scenario::DemandPaging,
            Scenario::EagerPaging,
            Scenario::LowContiguity,
            Scenario::MediumContiguity,
            Scenario::HighContiguity,
            Scenario::MaxContiguity,
        ]
    }

    /// Short label used in tables and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scenario::DemandPaging => "demand",
            Scenario::EagerPaging => "eager",
            Scenario::LowContiguity => "low",
            Scenario::MediumContiguity => "medium",
            Scenario::HighContiguity => "high",
            Scenario::MaxContiguity => "max",
        }
    }

    /// Chunk-size range `(min, max)` in pages for the synthetic scenarios.
    #[must_use]
    pub fn synthetic_range(self) -> Option<(u64, u64)> {
        match self {
            Scenario::LowContiguity => Some((1, 16)),
            Scenario::MediumContiguity => Some((1, 512)),
            Scenario::HighContiguity => Some((512, 65_536)),
            _ => None,
        }
    }

    /// Generates a mapping of `footprint_pages` pages with the scenario's
    /// contiguity profile, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages` is zero.
    #[must_use]
    pub fn generate(self, footprint_pages: u64, seed: u64) -> AddressSpaceMap {
        self.generate_with_pressure(footprint_pages, seed, FragmentationLevel::Moderate)
    }

    /// Like [`Scenario::generate`] but with explicit background pressure for
    /// the demand/eager OS models (the synthetic scenarios ignore it).
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages` is zero.
    #[must_use]
    pub fn generate_with_pressure(
        self,
        footprint_pages: u64,
        seed: u64,
        pressure: FragmentationLevel,
    ) -> AddressSpaceMap {
        self.generate_profiled(footprint_pages, seed, pressure, AllocationProfile::contiguous())
    }

    /// Like [`Scenario::generate_with_pressure`] with an explicit
    /// application allocation profile. The profile shapes the real-OS
    /// scenarios (demand/eager); the synthetic scenarios are controlled
    /// mappings per Table 4 and ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages` is zero.
    #[must_use]
    pub fn generate_profiled(
        self,
        footprint_pages: u64,
        seed: u64,
        pressure: FragmentationLevel,
        profile: AllocationProfile,
    ) -> AddressSpaceMap {
        assert!(footprint_pages > 0, "footprint must be non-empty");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0000);
        match self {
            Scenario::DemandPaging => demand_mapping(footprint_pages, &mut rng, pressure, profile),
            Scenario::EagerPaging => eager_mapping(footprint_pages, &mut rng, pressure, profile),
            Scenario::LowContiguity => synthetic(footprint_pages, &mut rng, 1, 16),
            Scenario::MediumContiguity => synthetic(footprint_pages, &mut rng, 1, 512),
            Scenario::HighContiguity => synthetic(footprint_pages, &mut rng, 512, 65_536),
            Scenario::MaxContiguity => max_contiguity(footprint_pages),
        }
    }
}

impl core::fmt::Display for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds a fragmented buddy allocator big enough for `footprint` pages plus
/// slack for the background jobs.
fn pressured_buddy(
    footprint: u64,
    rng: &mut SmallRng,
    pressure: FragmentationLevel,
) -> BuddyAllocator {
    // Physical memory = 4x the footprint, with a floor so tiny footprints
    // still see realistic block-size diversity.
    let phys = (footprint * 4).max(1 << 14);
    let mut buddy = BuddyAllocator::new(phys);
    let mut frag = Fragmenter::new(rng.gen());
    frag.shatter(&mut buddy, pressure);
    // Keep at least the footprint free (plus slack): evict background jobs
    // one at a time, which relieves capacity without healing fragmentation.
    while buddy.free_frames() < footprint + footprint / 8 && frag.release_one(&mut buddy) {}
    buddy
}

/// The VMAs an application with `profile` creates for `footprint` pages:
/// `(start_vpn, len)` pairs. Contiguous profiles make a handful of big
/// regions; fine profiles make many small VMAs separated by one-page holes
/// (so neither THP nor chunk merging can bridge them, as on a real heap of
/// scattered mmaps).
fn vma_layout(
    footprint: u64,
    rng: &mut SmallRng,
    profile: AllocationProfile,
) -> Vec<(VirtPageNum, u64)> {
    if profile.is_contiguous() {
        let regions = region_split(footprint, rng.gen_range(3..=6), rng);
        let mut out = Vec::new();
        let mut vpn = VirtPageNum::new(VA_BASE);
        for len in regions {
            out.push((vpn, len));
            vpn += len;
        }
        return out;
    }
    let max_unit = profile.max_unit_pages();
    let min_unit = (max_unit / 4).max(1);
    let mut out = Vec::new();
    let mut vpn = VirtPageNum::new(VA_BASE);
    let mut remaining = footprint;
    while remaining > 0 {
        let len = rng.gen_range(min_unit..=max_unit).min(remaining);
        out.push((vpn, len));
        vpn += len + 1; // one-page VA hole between VMAs
        remaining -= len;
    }
    out
}

/// Demand paging with THP: fault pages in first-touch order within each
/// VMA. Real first touches are mostly sequential per data structure with
/// occasional jumps between structures; we model that as sequential sweeps
/// over interleaved VMAs.
fn demand_mapping(
    footprint: u64,
    rng: &mut SmallRng,
    pressure: FragmentationLevel,
    profile: AllocationProfile,
) -> AddressSpaceMap {
    let buddy = pressured_buddy(footprint, rng, pressure);
    let mut pager = DemandPager::new(buddy, true);
    let vmas = vma_layout(footprint, rng, profile);
    let mut cursors: Vec<(u64, usize)> = vmas.iter().enumerate().map(|(i, _)| (0u64, i)).collect();
    // Interleave touches VMA by VMA in random bursts, as concurrent
    // initialisation of several structures would. Fine profiles interleave
    // across many VMAs, scattering their physical allocations.
    while !cursors.is_empty() {
        let slot = rng.gen_range(0..cursors.len());
        let (cur, vma_idx) = cursors[slot];
        let (vma_start, vma_len) = vmas[vma_idx];
        let burst = rng.gen_range(1..=HUGE_PAGE_PAGES * 2).min(vma_len - cur);
        for off in cur..cur + burst {
            let _ = pager.touch_in_vma(vma_start + off, vma_start, vma_len);
        }
        if cur + burst >= vma_len {
            cursors.swap_remove(slot);
        } else {
            cursors[slot].0 += burst;
        }
    }
    pager.into_map()
}

/// Eager paging: each VMA is backed up front through the buddy allocator,
/// largest blocks first (paper §5.1: "requests pages through the buddy
/// allocator system sequentially").
fn eager_mapping(
    footprint: u64,
    rng: &mut SmallRng,
    pressure: FragmentationLevel,
    profile: AllocationProfile,
) -> AddressSpaceMap {
    let mut buddy = pressured_buddy(footprint, rng, pressure);
    let mut map = AddressSpaceMap::new();
    for (vma_start, vma_len) in vma_layout(footprint, rng, profile) {
        let runs = buddy.allocate_run(vma_len).expect("pressured_buddy guarantees headroom");
        let mut vpn = vma_start;
        for (pfn, len) in runs {
            map.map_range(vpn, pfn, len, Permissions::READ_WRITE);
            vpn += len;
        }
    }
    map
}

/// Synthetic mapping per Table 4: consecutive VA chunks with sizes drawn
/// uniformly from `[lo, hi]`, each placed at a scattered physical location
/// so no two chunks merge.
///
/// Chunks of at least 2 MB are quantized and aligned to 2 MB in both
/// address spaces: on a real system such chunks come out of the buddy
/// allocator as naturally-aligned power-of-two blocks, so huge-page-sized
/// contiguity always arrives huge-page-aligned.
fn synthetic(footprint: u64, rng: &mut SmallRng, lo: u64, hi: u64) -> AddressSpaceMap {
    let mut map = AddressSpaceMap::new();
    let mut vpn = VirtPageNum::new(VA_BASE);
    let mut remaining = footprint;
    // Physical cursor advances with a random gap after each chunk, which
    // guarantees physical discontiguity between virtually-adjacent chunks.
    let mut pfn = 1u64 << 20;
    let huge_scenario = lo >= HUGE_PAGE_PAGES;
    while remaining > 0 {
        let mut len = rng.gen_range(lo..=hi).min(remaining);
        if huge_scenario {
            len = (len / HUGE_PAGE_PAGES * HUGE_PAGE_PAGES).max(HUGE_PAGE_PAGES).min(remaining);
            pfn = pfn.next_multiple_of(HUGE_PAGE_PAGES);
        }
        map.map_range(vpn, PhysFrameNum::new(pfn), len, Permissions::READ_WRITE);
        vpn += len;
        remaining -= len;
        pfn += len + rng.gen_range(1..=8);
    }
    map
}

/// Maximum contiguity: a few semantic regions (code/heap/mmap/stack), each
/// mapped as one fully contiguous chunk — the ideal case for RMM. Regions
/// are 2 MB-aligned in both address spaces and sized in 2 MB multiples
/// (when the footprint allows), so THP also sees them as huge pages.
fn max_contiguity(footprint: u64) -> AddressSpaceMap {
    let mut map = AddressSpaceMap::new();
    // At most 4 regions, each a multiple of 2 MB; remainder goes to the
    // last region. Small footprints collapse to a single region.
    let huge_units = footprint / HUGE_PAGE_PAGES;
    let n = (huge_units / 2).clamp(1, 4);
    let per_region = huge_units / n * HUGE_PAGE_PAGES;
    let mut lens = vec![per_region; n as usize];
    let assigned: u64 = lens.iter().sum();
    *lens.last_mut().expect("n >= 1") += footprint - assigned;
    let mut vpn = VirtPageNum::new(VA_BASE);
    let mut pfn = 1u64 << 20;
    for len in lens {
        map.map_range(vpn, PhysFrameNum::new(pfn), len, Permissions::READ_WRITE);
        // A hole between regions keeps them distinct ranges. Regions stay
        // aligned at the largest page size they could be mapped with:
        // gigabyte-scale regions of this *ideal* mapping are 1 GB-aligned
        // (so x86 giant pages engage), smaller ones 2 MB-aligned.
        let align = if len >= hytlb_types::GIANT_PAGE_PAGES {
            hytlb_types::GIANT_PAGE_PAGES
        } else {
            HUGE_PAGE_PAGES
        };
        let stride = len.div_ceil(align) * align + align;
        vpn += stride;
        pfn += stride;
    }
    map
}

/// Splits `total` pages into `n` region lengths summing to `total`.
fn region_split(total: u64, n: usize, rng: &mut SmallRng) -> Vec<u64> {
    assert!(n >= 1);
    if total < n as u64 * 2 {
        return vec![total];
    }
    let mut lens = Vec::with_capacity(n);
    let mut remaining = total;
    for i in 0..n - 1 {
        let left = (n - 1 - i) as u64;
        let max = remaining - left; // leave >= 1 page per remaining region
        let share = (remaining / (n - i) as u64).max(1);
        let len = rng.gen_range(share / 2..=share.max(share / 2 + 1)).min(max).max(1);
        lens.push(len);
        remaining -= len;
    }
    lens.push(remaining);
    lens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContiguityHistogram;

    const FOOTPRINT: u64 = 16 * 1024; // 64 MB

    #[test]
    fn all_scenarios_map_exact_footprint() {
        for s in Scenario::all() {
            let m = s.generate(FOOTPRINT, 1);
            assert_eq!(m.mapped_pages(), FOOTPRINT, "{s}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for s in Scenario::all() {
            assert_eq!(s.generate(2048, 5), s.generate(2048, 5), "{s}");
        }
    }

    #[test]
    fn synthetic_ranges_respect_table4() {
        for (s, lo, hi) in [
            (Scenario::LowContiguity, 1, 16),
            (Scenario::MediumContiguity, 1, 512),
            (Scenario::HighContiguity, 512, 65_536),
        ] {
            let m = s.generate(FOOTPRINT * 4, 3);
            let h = ContiguityHistogram::from_map(&m);
            assert!(h.max_contiguity() <= hi, "{s}: max {}", h.max_contiguity());
            // Every chunk except possibly the final remainder is >= lo.
            let below_lo: u64 = h.iter().filter(|&(c, _)| c < lo).map(|(_, f)| f).sum();
            assert!(below_lo <= 1, "{s}: {below_lo} chunks below {lo}");
        }
    }

    #[test]
    fn max_contiguity_is_a_handful_of_chunks() {
        let m = Scenario::MaxContiguity.generate(FOOTPRINT, 1);
        assert!(m.chunk_count() <= 4, "{}", m.chunk_count());
    }

    #[test]
    fn demand_paging_produces_huge_pages() {
        let m = Scenario::DemandPaging.generate(FOOTPRINT, 2);
        let h = ContiguityHistogram::from_map(&m);
        // With THP on and moderate pressure a large share of memory should
        // sit in chunks of >= 512 pages.
        let huge_fraction = 1.0 - h.fraction_in_chunks_up_to(511);
        assert!(huge_fraction > 0.3, "huge fraction {huge_fraction}");
    }

    #[test]
    fn eager_beats_demand_on_mean_contiguity() {
        let d = ContiguityHistogram::from_map(&Scenario::DemandPaging.generate(FOOTPRINT, 4));
        let e = ContiguityHistogram::from_map(&Scenario::EagerPaging.generate(FOOTPRINT, 4));
        assert!(
            e.mean_contiguity() >= d.mean_contiguity(),
            "eager {} vs demand {}",
            e.mean_contiguity(),
            d.mean_contiguity()
        );
    }

    #[test]
    fn pressure_reduces_contiguity() {
        let calm =
            Scenario::DemandPaging.generate_with_pressure(FOOTPRINT, 6, FragmentationLevel::None);
        let stressed =
            Scenario::DemandPaging.generate_with_pressure(FOOTPRINT, 6, FragmentationLevel::Heavy);
        let hc = ContiguityHistogram::from_map(&calm);
        let hs = ContiguityHistogram::from_map(&stressed);
        assert!(hc.mean_contiguity() > hs.mean_contiguity());
    }

    #[test]
    fn fine_profile_caps_contiguity_under_demand_paging() {
        let profile = AllocationProfile::units(16);
        let m = Scenario::DemandPaging.generate_profiled(
            FOOTPRINT,
            7,
            FragmentationLevel::Moderate,
            profile,
        );
        assert_eq!(m.mapped_pages(), FOOTPRINT);
        let h = ContiguityHistogram::from_map(&m);
        assert!(h.max_contiguity() <= 16, "max chunk {}", h.max_contiguity());
        // No VMA can host a huge page.
        assert!(m.iter_pages().take(2048).all(|(v, _)| m.huge_page_at(v).is_none()));
    }

    #[test]
    fn fine_profile_caps_contiguity_under_eager_paging() {
        let profile = AllocationProfile::units(32);
        let m = Scenario::EagerPaging.generate_profiled(
            FOOTPRINT,
            8,
            FragmentationLevel::Light,
            profile,
        );
        assert_eq!(m.mapped_pages(), FOOTPRINT);
        assert!(ContiguityHistogram::from_map(&m).max_contiguity() <= 32);
    }

    #[test]
    fn contiguous_profile_matches_default_generation() {
        let a =
            Scenario::DemandPaging.generate_with_pressure(4096, 9, FragmentationLevel::Moderate);
        let b = Scenario::DemandPaging.generate_profiled(
            4096,
            9,
            FragmentationLevel::Moderate,
            AllocationProfile::contiguous(),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_unit_profile_panics() {
        let _ = AllocationProfile::units(0);
    }

    #[test]
    fn region_split_sums_to_total() {
        let mut rng = SmallRng::seed_from_u64(1);
        for n in 1..6 {
            let lens = region_split(1000, n, &mut rng);
            assert_eq!(lens.iter().sum::<u64>(), 1000);
            assert!(lens.iter().all(|&l| l >= 1));
        }
        assert_eq!(region_split(3, 4, &mut rng), vec![3]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Scenario::DemandPaging.to_string(), "demand");
        assert_eq!(Scenario::MaxContiguity.label(), "max");
    }
}
