//! The scheme registry: enum dispatch over the concrete translation schemes.
//!
//! [`SchemeDispatch`] holds one concrete scheme by value. The engine's
//! batched inner loop matches *once per chunk*, and within the selected arm
//! every `access` call is statically dispatched (and inlinable) through the
//! scheme's monomorphized `access_batch` — there is no per-access vtable
//! call. [`SchemeDispatch::build`] is the one place a [`SchemeKind`] turns
//! into a scheme; callers that need a custom-config scheme (ablations) build
//! it themselves and wrap it in its variant.

use crate::config::{PaperConfig, SchemeKind};
use hytlb_core::{AnchorConfig, AnchorScheme};
use hytlb_mem::AddressSpaceMap;
use hytlb_schemes::{
    AccessResult, BaselineScheme, BatchFault, ClusterScheme, ColtScheme, RmmScheme, SchemeStats,
    Thp1GScheme, ThpScheme, TranslationScheme,
};
use hytlb_tlb::TlbGeometry;
use hytlb_types::VirtAddr;
use std::sync::Arc;

/// A translation scheme held by value, dispatched with one `match` instead
/// of a per-access vtable call. See the module docs.
#[derive(Debug)]
pub enum SchemeDispatch {
    /// [`BaselineScheme`] (4 KB only).
    Baseline(BaselineScheme),
    /// [`ThpScheme`] (4 KB + 2 MB).
    Thp(ThpScheme),
    /// [`Thp1GScheme`] (4 KB + 2 MB + 1 GB).
    Thp1G(Thp1GScheme),
    /// [`ClusterScheme`], with or without 2 MB pages.
    Cluster(ClusterScheme),
    /// [`ColtScheme`].
    Colt(ColtScheme),
    /// [`RmmScheme`].
    Rmm(RmmScheme),
    /// [`AnchorScheme`] in any distance mode.
    Anchor(AnchorScheme),
}

impl SchemeDispatch {
    /// Builds the scheme for `kind` over a mapping. The map is shared by
    /// reference count, never copied.
    #[must_use]
    pub fn build(kind: SchemeKind, map: &Arc<AddressSpaceMap>, config: &PaperConfig) -> Self {
        let latency = config.latency;
        match kind {
            SchemeKind::Baseline => {
                SchemeDispatch::Baseline(BaselineScheme::new(Arc::clone(map), latency))
            }
            SchemeKind::Thp => SchemeDispatch::Thp(ThpScheme::new(Arc::clone(map), latency)),
            SchemeKind::Thp1G => SchemeDispatch::Thp1G(Thp1GScheme::new(Arc::clone(map), latency)),
            SchemeKind::Cluster => {
                SchemeDispatch::Cluster(ClusterScheme::new(Arc::clone(map), latency, false))
            }
            SchemeKind::Cluster2Mb => {
                SchemeDispatch::Cluster(ClusterScheme::new(Arc::clone(map), latency, true))
            }
            SchemeKind::Colt => SchemeDispatch::Colt(ColtScheme::new(Arc::clone(map), latency)),
            SchemeKind::Rmm => SchemeDispatch::Rmm(RmmScheme::new(Arc::clone(map), latency)),
            SchemeKind::AnchorDynamic => {
                let cfg = AnchorConfig { latency, ..AnchorConfig::dynamic() };
                SchemeDispatch::Anchor(AnchorScheme::new(Arc::clone(map), cfg))
            }
            SchemeKind::AnchorStatic(d) => {
                let cfg = AnchorConfig { latency, ..AnchorConfig::static_distance(d) };
                SchemeDispatch::Anchor(AnchorScheme::new(Arc::clone(map), cfg))
            }
            SchemeKind::AnchorMultiRegion(n) => {
                let cfg = AnchorConfig { latency, ..AnchorConfig::multi_region(n) };
                SchemeDispatch::Anchor(AnchorScheme::new(Arc::clone(map), cfg))
            }
        }
    }
}

/// Forwards every trait method to the concrete scheme. `access_batch` is the
/// hot one: a single `match` selects the arm, then the whole chunk runs
/// through the scheme's own monomorphized batch loop.
impl TranslationScheme for SchemeDispatch {
    fn name(&self) -> &str {
        match self {
            SchemeDispatch::Baseline(s) => s.name(),
            SchemeDispatch::Thp(s) => s.name(),
            SchemeDispatch::Thp1G(s) => s.name(),
            SchemeDispatch::Cluster(s) => s.name(),
            SchemeDispatch::Colt(s) => s.name(),
            SchemeDispatch::Rmm(s) => s.name(),
            SchemeDispatch::Anchor(s) => s.name(),
        }
    }

    fn access(&mut self, vaddr: VirtAddr) -> AccessResult {
        match self {
            SchemeDispatch::Baseline(s) => s.access(vaddr),
            SchemeDispatch::Thp(s) => s.access(vaddr),
            SchemeDispatch::Thp1G(s) => s.access(vaddr),
            SchemeDispatch::Cluster(s) => s.access(vaddr),
            SchemeDispatch::Colt(s) => s.access(vaddr),
            SchemeDispatch::Rmm(s) => s.access(vaddr),
            SchemeDispatch::Anchor(s) => s.access(vaddr),
        }
    }

    fn access_batch(&mut self, vaddrs: &[VirtAddr]) -> Result<(), BatchFault> {
        match self {
            SchemeDispatch::Baseline(s) => s.access_batch(vaddrs),
            SchemeDispatch::Thp(s) => s.access_batch(vaddrs),
            SchemeDispatch::Thp1G(s) => s.access_batch(vaddrs),
            SchemeDispatch::Cluster(s) => s.access_batch(vaddrs),
            SchemeDispatch::Colt(s) => s.access_batch(vaddrs),
            SchemeDispatch::Rmm(s) => s.access_batch(vaddrs),
            SchemeDispatch::Anchor(s) => s.access_batch(vaddrs),
        }
    }

    fn stats(&self) -> &SchemeStats {
        match self {
            SchemeDispatch::Baseline(s) => s.stats(),
            SchemeDispatch::Thp(s) => s.stats(),
            SchemeDispatch::Thp1G(s) => s.stats(),
            SchemeDispatch::Cluster(s) => s.stats(),
            SchemeDispatch::Colt(s) => s.stats(),
            SchemeDispatch::Rmm(s) => s.stats(),
            SchemeDispatch::Anchor(s) => s.stats(),
        }
    }

    fn on_epoch(&mut self) {
        match self {
            SchemeDispatch::Baseline(s) => s.on_epoch(),
            SchemeDispatch::Thp(s) => s.on_epoch(),
            SchemeDispatch::Thp1G(s) => s.on_epoch(),
            SchemeDispatch::Cluster(s) => s.on_epoch(),
            SchemeDispatch::Colt(s) => s.on_epoch(),
            SchemeDispatch::Rmm(s) => s.on_epoch(),
            SchemeDispatch::Anchor(s) => s.on_epoch(),
        }
    }

    fn flush(&mut self) {
        match self {
            SchemeDispatch::Baseline(s) => s.flush(),
            SchemeDispatch::Thp(s) => s.flush(),
            SchemeDispatch::Thp1G(s) => s.flush(),
            SchemeDispatch::Cluster(s) => s.flush(),
            SchemeDispatch::Colt(s) => s.flush(),
            SchemeDispatch::Rmm(s) => s.flush(),
            SchemeDispatch::Anchor(s) => s.flush(),
        }
    }

    fn anchor_distance(&self) -> Option<u64> {
        match self {
            SchemeDispatch::Baseline(s) => s.anchor_distance(),
            SchemeDispatch::Thp(s) => s.anchor_distance(),
            SchemeDispatch::Thp1G(s) => s.anchor_distance(),
            SchemeDispatch::Cluster(s) => s.anchor_distance(),
            SchemeDispatch::Colt(s) => s.anchor_distance(),
            SchemeDispatch::Rmm(s) => s.anchor_distance(),
            SchemeDispatch::Anchor(s) => s.anchor_distance(),
        }
    }

    fn geometries(&self) -> Vec<TlbGeometry> {
        match self {
            SchemeDispatch::Baseline(s) => s.geometries(),
            SchemeDispatch::Thp(s) => s.geometries(),
            SchemeDispatch::Thp1G(s) => s.geometries(),
            SchemeDispatch::Cluster(s) => s.geometries(),
            SchemeDispatch::Colt(s) => s.geometries(),
            SchemeDispatch::Rmm(s) => s.geometries(),
            SchemeDispatch::Anchor(s) => s.geometries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hytlb_mem::Scenario;

    #[test]
    fn batch_equals_scalar_through_dispatch() {
        let config = PaperConfig::quick();
        let map = Arc::new(Scenario::LowContiguity.generate(2048, 3));
        let vaddrs: Vec<VirtAddr> =
            map.iter_pages().take(500).map(|(vpn, _)| vpn.base_addr()).collect();
        for kind in SchemeKind::paper_set() {
            let mut batched = SchemeDispatch::build(kind, &map, &config);
            let mut scalar = SchemeDispatch::build(kind, &map, &config);
            batched.access_batch(&vaddrs).expect("mapped addresses");
            for &va in &vaddrs {
                scalar.access(va);
            }
            assert_eq!(batched.stats(), scalar.stats(), "{kind}");
        }
    }
}
