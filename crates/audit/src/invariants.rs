//! Architectural invariant checks over the live simulator types.
//!
//! Unlike the lint rules, these checks link against the actual crates and
//! interrogate the constants and configurations the simulator runs with:
//!
//! * PTE bit fields (paper Figure 4) are pairwise disjoint and contiguous.
//! * Anchor-distance candidates are nonempty, strictly increasing powers
//!   of two (the distance is stored as a log2 in anchor PTE ignored bits,
//!   so a non-power-of-two would silently round).
//! * Every scheme's TLB arrays have power-of-two set counts with index
//!   masks covering exactly the VPN index bits (`mask == sets - 1`).

use hytlb_core::DistanceSelector;
use hytlb_mem::Scenario;
use hytlb_pagetable::FLAG_MASKS;
use hytlb_schemes::TranslationScheme;
use hytlb_sim::{PaperConfig, SchemeDispatch, SchemeKind};
use std::sync::Arc;

/// Runs every invariant check and returns the violations, each a
/// standalone human-readable sentence. Empty means the architecture
/// constants are consistent.
#[must_use]
pub fn check_all() -> Vec<String> {
    let mut violations = check_pte_masks();
    violations.extend(check_anchor_distances());
    violations.extend(check_tlb_geometries());
    violations
}

/// PTE bit fields must be nonempty, pairwise disjoint, and contiguous.
#[must_use]
pub fn check_pte_masks() -> Vec<String> {
    let mut violations = Vec::new();
    for (i, &(name_a, mask_a)) in FLAG_MASKS.iter().enumerate() {
        if mask_a == 0 {
            violations.push(format!("PTE field `{name_a}` has an empty mask"));
            continue;
        }
        let shifted = mask_a >> mask_a.trailing_zeros();
        if shifted & (shifted + 1) != 0 {
            violations.push(format!("PTE field `{name_a}` mask {mask_a:#x} is not contiguous"));
        }
        for &(name_b, mask_b) in &FLAG_MASKS[i + 1..] {
            if mask_a & mask_b != 0 {
                violations.push(format!(
                    "PTE fields `{name_a}` ({mask_a:#x}) and `{name_b}` \
                     ({mask_b:#x}) overlap"
                ));
            }
        }
    }
    violations
}

/// Anchor-distance candidates must be strictly increasing powers of two.
#[must_use]
pub fn check_anchor_distances() -> Vec<String> {
    let mut violations = Vec::new();
    let candidates = DistanceSelector::paper_default().candidates().to_vec();
    if candidates.is_empty() {
        violations.push("anchor-distance candidate list is empty".to_owned());
    }
    for &d in &candidates {
        if !d.is_power_of_two() {
            violations.push(format!("anchor distance {d} is not a power of two"));
        }
    }
    for pair in candidates.windows(2) {
        if pair[0] >= pair[1] {
            violations.push(format!(
                "anchor distances are not strictly increasing: {} then {}",
                pair[0], pair[1]
            ));
        }
    }
    violations
}

/// The scheme kinds whose TLB arrays the geometry check instantiates: the
/// paper's figure set plus every extension scheme.
fn audited_kinds() -> Vec<SchemeKind> {
    let mut kinds = SchemeKind::paper_set().to_vec();
    kinds.extend([
        SchemeKind::Thp1G,
        SchemeKind::Colt,
        SchemeKind::AnchorStatic(32),
        SchemeKind::AnchorMultiRegion(4),
    ]);
    kinds
}

/// Builds every audited scheme against a small deterministic mapping and
/// verifies each reported TLB array: nonzero ways, power-of-two set
/// count, and an index mask of exactly `sets - 1` (so the index covers
/// the low VPN bits with no gap and no aliasing).
#[must_use]
pub fn check_tlb_geometries() -> Vec<String> {
    let config = PaperConfig::default();
    let map = Arc::new(Scenario::MediumContiguity.generate(4096, config.seed));
    let mut violations = Vec::new();
    for kind in audited_kinds() {
        let scheme = SchemeDispatch::build(kind, &map, &config);
        let geometries = scheme.geometries();
        if geometries.is_empty() {
            violations.push(format!("scheme {} reports no TLB geometries to audit", kind.label()));
        }
        for g in geometries {
            if !g.is_well_formed() {
                violations.push(format!(
                    "scheme {}: TLB array {g} is malformed (want power-of-two \
                     sets, nonzero ways, index mask == sets - 1)",
                    kind.label()
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_invariants_hold() {
        assert_eq!(check_all(), Vec::<String>::new());
    }

    #[test]
    fn every_audited_scheme_reports_geometries() {
        // The geometry check is vacuous for a scheme that returns no
        // arrays, so the check itself must flag that case — proven by the
        // violation text above; here we pin that all audited kinds do
        // report at least one array today.
        assert!(check_tlb_geometries().is_empty());
    }
}
