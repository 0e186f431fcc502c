//! Fixture tests: for each audit rule, a minimal snippet that must trip
//! it, one that must pass, and one proving `// audit:allow(rule)`
//! suppresses it. These are the tripwires the acceptance criteria ask
//! for — a rule that silently stops firing fails here, not in review.

use hytlb_audit::rules::{check_crate_root, check_file, Finding, Rule};

/// A path inside the scheme crate: in scope for R1, R2, and R5.
const SCHEME_PATH: &str = "crates/schemes/src/fixture.rs";

fn rules_hit(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- R1 cast

#[test]
fn cast_rule_trips_on_address_domain_cast() {
    let src = "fn f(vpn: VirtPageNum) -> usize { vpn.as_u64() as usize }\n";
    let findings = check_file(SCHEME_PATH, src);
    assert_eq!(rules_hit(&findings), vec![Rule::Cast], "{findings:?}");
    assert_eq!(findings[0].line, 1);
    assert!(findings[0].message.contains("as usize"), "{}", findings[0].message);
}

#[test]
fn cast_rule_sees_through_parenthesized_operands() {
    let src = "fn f() -> usize { (pfn.as_u64() / per_node) as usize }\n";
    assert_eq!(rules_hit(&check_file(SCHEME_PATH, src)), vec![Rule::Cast]);
}

#[test]
fn cast_rule_passes_plain_arithmetic_and_float_casts() {
    let src = "fn f(off: u64, n: usize) -> u64 {\n\
               let a = (off + 1) as u64;\n\
               let b = n as u64;\n\
               let c = cycles as f64;\n\
               a + b + c as u64\n\
               }\n";
    assert_eq!(rules_hit(&check_file(SCHEME_PATH, src)), Vec::<Rule>::new());
}

#[test]
fn cast_rule_exempts_types_crate_and_cfg_test() {
    let src = "fn f(vpn: u64) -> usize { vpn as usize }\n";
    assert!(check_file("crates/types/src/addr.rs", src).is_empty());
    let tested = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
    assert!(check_file(SCHEME_PATH, &tested).is_empty());
}

#[test]
fn cast_rule_honors_allow_comment() {
    let trailing = "fn f(vpn: u64) -> usize { vpn as usize } // audit:allow(cast): ffi\n";
    assert!(check_file(SCHEME_PATH, trailing).is_empty());
    let above = "// audit:allow(cast): fixture — the cast below is deliberate\n\
                 // and the justification spans two comment lines.\n\
                 fn f(vpn: u64) -> usize { vpn as usize }\n";
    assert!(check_file(SCHEME_PATH, above).is_empty());
}

#[test]
fn cast_rule_ignores_casts_inside_strings_and_comments() {
    let src = "fn f() -> &'static str { \"vpn as usize\" } // vpn as usize\n";
    assert!(check_file(SCHEME_PATH, src).is_empty());
}

// --------------------------------------------------------------- R2 panic

#[test]
fn panic_rule_trips_on_each_panicking_form() {
    for snippet in [
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }",
        "fn f() { panic!(\"boom\") }",
        "fn f() { unreachable!() }",
    ] {
        let findings = check_file(SCHEME_PATH, snippet);
        assert_eq!(rules_hit(&findings), vec![Rule::Panic], "snippet: {snippet}");
    }
}

#[test]
fn panic_rule_only_covers_hot_paths() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_hit(&check_file("crates/sim/src/engine.rs", src)), vec![Rule::Panic]);
    assert_eq!(rules_hit(&check_file("crates/tlb/src/l1.rs", src)), vec![Rule::Panic]);
    // The anchor level and the scheme registry are part of the cascade.
    assert_eq!(rules_hit(&check_file("crates/core/src/anchor_scheme.rs", src)), vec![Rule::Panic]);
    assert_eq!(rules_hit(&check_file("crates/sim/src/dispatch.rs", src)), vec![Rule::Panic]);
    // Cold paths (reporting, config) may panic on programmer error.
    assert!(check_file("crates/sim/src/report.rs", src).is_empty());
    assert!(check_file("crates/mem/src/numa.rs", src).is_empty());
}

#[test]
fn panic_rule_honors_allow_with_stated_invariant() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // audit:allow(panic): invariant — `x` was inserted above.\n\
               x.expect(\"inserted\")\n\
               }\n";
    assert!(check_file(SCHEME_PATH, src).is_empty());
}

#[test]
fn panic_rule_does_not_misread_related_idents() {
    // `unwrap_or_else` and `#[should_panic]` are fine.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
    assert!(check_file(SCHEME_PATH, src).is_empty());
}

// --------------------------------------------------------- R3 crate-attrs

#[test]
fn crate_attrs_rule_trips_when_either_attribute_is_missing() {
    let missing_both = "//! Docs.\npub fn f() {}\n";
    let findings = check_crate_root("crates/x/src/lib.rs", missing_both);
    assert_eq!(rules_hit(&findings), vec![Rule::CrateAttrs, Rule::CrateAttrs]);
    let missing_docs = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    let findings = check_crate_root("crates/x/src/lib.rs", missing_docs);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("missing_docs"), "{}", findings[0].message);
}

#[test]
fn crate_attrs_rule_passes_a_conforming_root() {
    let src = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    assert!(check_crate_root("crates/x/src/lib.rs", src).is_empty());
}

// -------------------------------------------------------- R4 determinism

#[test]
fn determinism_rule_trips_on_clock_and_entropy_sources() {
    for (snippet, what) in [
        ("fn f() { let _ = SystemTime::now(); }", "SystemTime::now"),
        ("fn f() { let _ = Instant::now(); }", "Instant::now"),
        ("fn f() { let mut r = rand::thread_rng(); }", "thread_rng"),
        ("fn f() { let r = SmallRng::from_entropy(); }", "from_entropy"),
        ("fn f() -> u64 { rand::random() }", "rand::random"),
    ] {
        let findings = check_file("crates/mem/src/fixture.rs", snippet);
        assert_eq!(rules_hit(&findings), vec![Rule::Determinism], "snippet: {snippet}");
        assert!(findings[0].message.contains(what), "{}", findings[0].message);
    }
}

#[test]
fn determinism_rule_passes_seeded_rng_and_bench_wall_clock() {
    let seeded = "fn f(seed: u64) { let r = SmallRng::seed_from_u64(seed); }\n";
    assert!(check_file("crates/mem/src/fixture.rs", seeded).is_empty());
    // Wall-clock timing of the harness itself is fine in crates/bench and
    // in the perfbench package.
    let timed = "fn f() { let t = Instant::now(); }\n";
    assert!(check_file("crates/bench/src/bin/fixture.rs", timed).is_empty());
    assert!(check_file("perfbench/src/fixture.rs", timed).is_empty());
    assert!(!check_file("crates/sim/src/fixture.rs", timed).is_empty());
}

#[test]
fn determinism_rule_honors_allow_comment() {
    let src = "// audit:allow(determinism): host-only diagnostic timestamp.\n\
               fn f() { let _ = SystemTime::now(); }\n";
    assert!(check_file("crates/mem/src/fixture.rs", src).is_empty());
}

// ----------------------------------------------------- R5 wildcard-match

#[test]
fn wildcard_rule_trips_on_wildcard_arm_in_schemes() {
    let src = "fn f(k: Kind) -> u32 { match k { Kind::A => 1, _ => 0 } }\n";
    let findings = check_file(SCHEME_PATH, src);
    assert_eq!(rules_hit(&findings), vec![Rule::WildcardMatch]);
}

#[test]
fn wildcard_rule_passes_exhaustive_and_binding_patterns() {
    // `Some(_)` and closure `|_|` are not wildcard *arms*.
    let src = "fn f(k: Option<u32>) -> u32 {\n\
               match k { Some(_) | None => 0 }\n\
               }\n\
               fn g(v: &[u32]) -> usize { v.iter().map(|_| 1).sum() }\n";
    assert!(check_file(SCHEME_PATH, src).is_empty());
}

#[test]
fn wildcard_rule_is_scoped_to_the_cascade() {
    let src = "fn f(k: Kind) -> u32 { match k { Kind::A => 1, _ => 0 } }\n";
    for path in ["crates/core/src/anchor_scheme.rs", "crates/sim/src/dispatch.rs"] {
        assert_eq!(rules_hit(&check_file(path, src)), vec![Rule::WildcardMatch], "{path}");
    }
    assert!(check_file("crates/mem/src/fixture.rs", src).is_empty());
    assert!(check_file("crates/core/src/os.rs", src).is_empty());
}

#[test]
fn wildcard_rule_honors_allow_comment() {
    let src = "fn f(k: Kind) -> u32 {\n\
               match k {\n\
               Kind::A => 1,\n\
               _ => 0, // audit:allow(wildcard-match): external enum.\n\
               }\n\
               }\n";
    assert!(check_file(SCHEME_PATH, src).is_empty());
}

// ------------------------------------------------------------ allowlist

#[test]
fn allow_comment_for_one_rule_does_not_blanket_others() {
    // The allow names `cast`, but the line also panics: the panic must
    // still be reported.
    let src = "fn f(vpn: u64) -> usize {\n\
               // audit:allow(cast): fixture.\n\
               let x = vpn as usize; x.checked_add(1).unwrap()\n\
               }\n";
    let findings = check_file(SCHEME_PATH, src);
    assert_eq!(rules_hit(&findings), vec![Rule::Panic], "{findings:?}");
}

#[test]
fn allow_comment_with_unknown_rule_is_inert() {
    let src = "// audit:allow(everything): nope.\n\
               fn f(vpn: u64) -> usize { vpn as usize }\n";
    assert_eq!(rules_hit(&check_file(SCHEME_PATH, src)), vec![Rule::Cast]);
}
