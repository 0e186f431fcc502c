//! The scheme registry: one cascade over an enum of coalesced levels.
//!
//! [`SchemeDispatch`] holds the shared [`Cascade`] and one [`AnyLevel`] by
//! value. The engine's batched inner loop matches on the level *once per
//! chunk*, and within the selected arm the whole chunk runs through the
//! cascade monomorphized for that level — there is no per-access vtable
//! call or enum match. [`SchemeDispatch::build`] is the one place a
//! [`SchemeKind`] turns into a scheme; callers that need a custom-config
//! design (ablations) build its [`Mmu`] themselves and wrap it with
//! [`SchemeDispatch::new`].

use crate::config::SchemeKind;
use hytlb_core::{AnchorConfig, AnchorLevel, AnchorScheme};
use hytlb_mem::AddressSpaceMap;
use hytlb_schemes::{
    AccessResult, BatchFault, Cascade, ClusterTlb, CoalescedLevel, ColtTlb, GiantTlb, Mmu,
    PagedLevel, RangeLevel, SchemeStats,
};
use hytlb_tlb::TlbGeometry;
use hytlb_types::VirtAddr;
use std::sync::Arc;

/// The coalesced level of a [`SchemeDispatch`]: one variant per level
/// type.
#[derive(Debug)]
pub enum AnyLevel {
    /// No coalesced structure (Base, THP).
    Paged(PagedLevel),
    /// The separate 1 GB TLB (THP-1G).
    Giant(GiantTlb),
    /// The cluster TLB (Cluster, Cluster-2MB).
    Cluster(ClusterTlb),
    /// CoLT-SA, optionally with CoLT-FA.
    Colt(ColtTlb),
    /// RMM's range TLB.
    Range(RangeLevel),
    /// Anchor entries, in any distance mode.
    Anchor(AnchorLevel),
}

/// Evaluates `$body` with `$l` bound to the level inside `$level`,
/// whatever its variant.
macro_rules! with_level {
    ($level:expr, $l:ident => $body:expr) => {
        match $level {
            AnyLevel::Paged($l) => $body,
            AnyLevel::Giant($l) => $body,
            AnyLevel::Cluster($l) => $body,
            AnyLevel::Colt($l) => $body,
            AnyLevel::Range($l) => $body,
            AnyLevel::Anchor($l) => $body,
        }
    };
}

/// A translation scheme held by value, dispatched with one `match` per
/// batch instead of a per-access vtable call. See the module docs.
#[derive(Debug)]
pub struct SchemeDispatch {
    cascade: Cascade,
    level: AnyLevel,
}

impl SchemeDispatch {
    /// Wraps a design's MMU, given the variant that holds its level.
    pub fn new<L>(mmu: Mmu<L>, variant: fn(L) -> AnyLevel) -> Self {
        SchemeDispatch { cascade: mmu.cascade, level: variant(mmu.level) }
    }

    /// Builds the scheme for `kind` over a mapping. The map is shared by
    /// reference count, never copied.
    #[must_use]
    pub fn build(kind: SchemeKind, map: &Arc<AddressSpaceMap>) -> Self {
        let anchor = |cfg| Self::new(AnchorScheme::new(Arc::clone(map), cfg), AnyLevel::Anchor);
        match kind {
            SchemeKind::Baseline => Self::new(Mmu::baseline(map), AnyLevel::Paged),
            SchemeKind::Thp => Self::new(Mmu::thp(map), AnyLevel::Paged),
            SchemeKind::Thp1G => Self::new(Mmu::thp_1g(map), AnyLevel::Giant),
            SchemeKind::Cluster => Self::new(Mmu::cluster(map), AnyLevel::Cluster),
            SchemeKind::Cluster2Mb => Self::new(Mmu::cluster_2mb(map), AnyLevel::Cluster),
            SchemeKind::Colt => Self::new(Mmu::colt(map), AnyLevel::Colt),
            SchemeKind::Rmm => Self::new(Mmu::rmm(map), AnyLevel::Range),
            SchemeKind::AnchorDynamic => anchor(AnchorConfig::dynamic()),
            SchemeKind::AnchorStatic(d) => anchor(AnchorConfig::static_distance(d)),
            SchemeKind::AnchorMultiRegion(n) => anchor(AnchorConfig::multi_region(n)),
        }
    }

    /// The design's label, as in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &str {
        self.cascade.name()
    }

    /// Translates one virtual address ([`Cascade::access`]).
    pub fn access(&mut self, vaddr: VirtAddr) -> AccessResult {
        with_level!(&mut self.level, l => self.cascade.access(l, vaddr))
    }

    /// Translates a batch, stopping at the first unmapped address. This is
    /// the engine's hot call: a single `match` selects the level, then the
    /// whole chunk runs through [`Cascade::access_batch`] monomorphized for
    /// it.
    ///
    /// # Errors
    ///
    /// [`BatchFault`] naming the first address that did not translate.
    pub fn access_batch(&mut self, vaddrs: &[VirtAddr]) -> Result<(), BatchFault> {
        with_level!(&mut self.level, l => self.cascade.access_batch(l, vaddrs))
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SchemeStats {
        self.cascade.stats()
    }

    /// Passes an epoch boundary; only the dynamic anchor level reacts.
    pub fn on_epoch(&mut self) {
        with_level!(&mut self.level, l => self.cascade.on_epoch(l));
    }

    /// Flushes all TLB state (context switch / shootdown).
    pub fn flush(&mut self) {
        with_level!(&mut self.level, l => self.cascade.flush(l));
    }

    /// The anchor distance in effect, for anchor designs; `None` otherwise.
    #[must_use]
    pub fn anchor_distance(&self) -> Option<u64> {
        with_level!(&self.level, l => l.anchor_distance())
    }

    /// Geometries of every TLB structure the design instantiates.
    #[must_use]
    pub fn geometries(&self) -> Vec<TlbGeometry> {
        with_level!(&self.level, l => self.cascade.geometries(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;

    #[test]
    fn batch_equals_scalar_through_dispatch() {
        let map = Arc::new(Scenario::LowContiguity.generate(2048, 3));
        let vaddrs: Vec<VirtAddr> =
            map.iter_pages().take(500).map(|(vpn, _)| vpn.base_addr()).collect();
        for kind in SchemeKind::paper_set() {
            let mut batched = SchemeDispatch::build(kind, &map);
            let mut scalar = SchemeDispatch::build(kind, &map);
            batched.access_batch(&vaddrs).expect("mapped addresses");
            for &va in &vaddrs {
                scalar.access(va);
            }
            assert_eq!(batched.stats(), scalar.stats(), "{kind}");
        }
    }
}
