//! The repo-specific lint rules (R1–R5) and the allowlist machinery.
//!
//! Every rule works on the token stream of one file plus the file's
//! workspace-relative path, which decides which rules apply:
//!
//! * **`cast` (R1)** — no raw `as` casts to integer types on
//!   address-domain values outside `crates/types`; go through the newtype
//!   accessors (`VirtAddr::as_u64`, `usize_from`, `index_bits`, …).
//! * **`panic` (R2)** — no `.unwrap()` / `.expect()` / `panic!` /
//!   `unreachable!` in simulator hot paths (`crates/sim/src/engine.rs`,
//!   `crates/sim/src/dispatch.rs`, `crates/tlb`, `crates/schemes` and the
//!   anchor level in `crates/core/src/anchor_scheme.rs`) unless
//!   allowlisted with the invariant stated.
//! * **`crate-attrs` (R3)** — every crate root carries
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
//! * **`determinism` (R4)** — no `SystemTime::now`, `thread_rng`,
//!   `from_entropy`, or `rand::random` anywhere; `Instant::now` only in
//!   `crates/bench` and `perfbench` (wall-clock reporting, never simulated
//!   state).
//! * **`wildcard-match` (R5)** — no `_ =>` match arms in
//!   `crates/schemes`, the anchor level or the scheme registry
//!   (`crates/sim/src/dispatch.rs`): adding a scheme, level or page size
//!   must be a compile error at every dispatch site, not a silent
//!   fall-through.
//!
//! A finding is suppressed by `// audit:allow(<rule>): <why>` on the same
//! line, or on its own comment line (possibly the first of several
//! comment lines) directly above the offending code line.

use crate::lexer::{tokenize, Token, TokenKind};
use std::collections::HashSet;
use std::fmt;

/// The five audit rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: raw integer `as` cast on an address-domain value.
    Cast,
    /// R2: panic path in simulator hot code.
    Panic,
    /// R3: crate root missing the required inner attributes.
    CrateAttrs,
    /// R4: nondeterministic time or RNG source.
    Determinism,
    /// R5: `_` wildcard match arm in the translation cascade.
    WildcardMatch,
}

impl Rule {
    /// The rule's name as written in `audit:allow(...)` comments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::Cast => "cast",
            Rule::Panic => "panic",
            Rule::CrateAttrs => "crate-attrs",
            Rule::Determinism => "determinism",
            Rule::WildcardMatch => "wildcard-match",
        }
    }
}

/// One rule violation, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
    }
}

/// Ident fragments that mark a value as address-domain for R1. An
/// identifier is flagged when any `_`-separated component, lowercased,
/// appears here: `vpn`, `head_vpn`, `PAGE_SIZE`, `pte_bits` all match.
const ADDRESS_FRAGMENTS: [&str; 14] = [
    "va", "pa", "vpn", "pfn", "vcn", "pcn", "avpn", "appn", "wdw", "vaddr", "paddr", "addr", "pte",
    "page",
];

/// Integer target types whose `as` casts R1 inspects (`as f64` for
/// statistics is always fine — floats never feed back into translation).
const INT_TYPES: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Runs every path-applicable rule on one file and returns the surviving
/// findings (allowlist already applied). `rel_path` must use `/`
/// separators and be relative to the workspace root.
#[must_use]
pub fn check_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let scope = Scope::of(rel_path);
    let test_ranges = test_mod_ranges(&tokens);
    let in_test = |i: usize| test_ranges.iter().any(|&(lo, hi)| lo <= i && i <= hi);

    let mut findings = Vec::new();
    if scope.check_casts {
        rule_cast(rel_path, &tokens, &in_test, &mut findings);
    }
    if scope.check_panics {
        rule_panic(rel_path, &tokens, &in_test, &mut findings);
    }
    rule_determinism(rel_path, &tokens, scope.allow_instant, &mut findings);
    if scope.check_wildcards {
        rule_wildcard(rel_path, &tokens, &in_test, &mut findings);
    }

    let allows = allowed_lines(&tokens);
    findings.retain(|f| !allows.contains(&(f.rule, f.line)));
    findings
}

/// R3, run only on crate roots (`src/lib.rs` files): both required inner
/// attributes must be present.
#[must_use]
pub fn check_crate_root(rel_path: &str, source: &str) -> Vec<Finding> {
    let tokens = tokenize(source);
    let attrs = inner_attributes(&tokens);
    let mut findings = Vec::new();
    for required in ["forbid(unsafe_code)", "warn(missing_docs)"] {
        if !attrs.iter().any(|a| a == required) {
            findings.push(Finding {
                rule: Rule::CrateAttrs,
                file: rel_path.to_owned(),
                line: 1,
                message: format!("crate root is missing `#![{required}]`"),
            });
        }
    }
    findings
}

/// Which rules apply to a file, derived from its workspace-relative path.
struct Scope {
    check_casts: bool,
    check_panics: bool,
    check_wildcards: bool,
    allow_instant: bool,
}

impl Scope {
    fn of(rel_path: &str) -> Scope {
        let is_test_file = rel_path.contains("/tests/")
            || rel_path.starts_with("tests/")
            || rel_path.contains("/benches/")
            || rel_path.starts_with("examples/");
        let in_src = |cr: &str| rel_path.starts_with(&format!("crates/{cr}/src/"));
        // The translation cascade's files outside the scheme crate: the
        // anchor level and the registry that dispatches to the levels.
        let cascade = rel_path == "crates/core/src/anchor_scheme.rs"
            || rel_path == "crates/sim/src/dispatch.rs";
        Scope {
            check_casts: !is_test_file && !in_src("types") && !in_src("audit"),
            check_panics: !is_test_file
                && (rel_path == "crates/sim/src/engine.rs"
                    || cascade
                    || in_src("tlb")
                    || in_src("schemes")),
            check_wildcards: !is_test_file && (cascade || in_src("schemes")),
            allow_instant: rel_path.starts_with("crates/bench/")
                || rel_path.starts_with("perfbench/"),
        }
    }
}

/// Token index ranges (inclusive) covered by `#[cfg(test)] mod … { … }`.
fn test_mod_ranges(tokens: &[Token<'_>]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Walk to the `{` of the annotated item (skipping further
        // attributes and the item header), then brace-match to its end.
        let mut j = i + 7;
        while j < tokens.len() && !tokens[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 0i32;
        let mut end = j;
        while end < tokens.len() {
            if tokens[end].is_punct('{') {
                depth += 1;
            } else if tokens[end].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        ranges.push((i, end));
        i = end + 1;
    }
    ranges
}

/// Lines whose findings are suppressed, as `(rule, line)` pairs.
///
/// A trailing `// audit:allow(rule)` suppresses its own line. A comment
/// line containing only the allow (possibly followed by more comment
/// lines continuing the justification) suppresses the next line that
/// holds code.
fn allowed_lines(tokens: &[Token<'_>]) -> HashSet<(Rule, u32)> {
    let code_lines: HashSet<u32> =
        tokens.iter().filter(|t| t.kind != TokenKind::Comment).map(|t| t.line).collect();
    let mut allows = HashSet::new();
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let Some(rule) = parse_allow(t.text) else { continue };
        let target = if code_lines.contains(&t.line) {
            // Trailing comment: applies to its own line.
            t.line
        } else {
            // Comment-only line: applies to the first code line below,
            // skipping over the rest of the comment block.
            match (t.line + 1..t.line + 64).find(|l| code_lines.contains(l)) {
                Some(l) => l,
                None => continue,
            }
        };
        allows.insert((rule, target));
    }
    allows
}

/// Extracts the rule from a `// audit:allow(rule)` comment, if this is
/// one.
fn parse_allow(comment: &str) -> Option<Rule> {
    let body = comment.trim_start_matches('/').trim_start();
    let rest = body.strip_prefix("audit:allow(")?;
    let name = rest.split(')').next()?;
    [Rule::Cast, Rule::Panic, Rule::CrateAttrs, Rule::Determinism, Rule::WildcardMatch]
        .into_iter()
        .find(|r| r.name() == name)
}

/// Inner attribute bodies (`forbid(unsafe_code)`, …) at the top of a
/// file, reconstructed from the tokens between `#![` and `]`.
fn inner_attributes(tokens: &[Token<'_>]) -> Vec<String> {
    let mut attrs = Vec::new();
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect();
    let mut i = 0;
    while i + 2 < code.len() {
        if code[i].is_punct('#') && code[i + 1].is_punct('!') && code[i + 2].is_punct('[') {
            let mut body = String::new();
            let mut j = i + 3;
            while j < code.len() && !code[j].is_punct(']') {
                body.push_str(code[j].text);
                j += 1;
            }
            attrs.push(body);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    attrs
}

/// True when any `_`-separated component of `ident` names an
/// address-domain quantity, or the ident is a bit-width accessor whose
/// result is already the canonical integer form.
fn is_address_ident(ident: &str) -> bool {
    if ident == "as_u64" || ident == "as_usize" {
        return true;
    }
    ident.split('_').any(|part| ADDRESS_FRAGMENTS.contains(&part.to_ascii_lowercase().as_str()))
}

/// R1: `as <int-type>` casts whose operand mentions an address-domain
/// identifier.
fn rule_cast(
    rel_path: &str,
    tokens: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let open_of = matching_opens(tokens);
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("as") || in_test(i) {
            continue;
        }
        let Some(ty) = tokens.get(i + 1) else { continue };
        if ty.kind != TokenKind::Ident || !INT_TYPES.contains(&ty.text) {
            continue;
        }
        if let Some(ident) = operand_address_ident(tokens, i, &open_of) {
            findings.push(Finding {
                rule: Rule::Cast,
                file: rel_path.to_owned(),
                line: tokens[i].line,
                message: format!(
                    "raw `as {}` cast on address-domain value `{ident}`; use the \
                     newtype accessors in crates/types instead",
                    ty.text
                ),
            });
        }
    }
}

/// For each closing bracket token index, the index of its opener.
fn matching_opens(tokens: &[Token<'_>]) -> Vec<Option<usize>> {
    let mut open_of = vec![None; tokens.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.chars().next() {
            Some(c @ ('(' | '[' | '{')) => stack.push((c, i)),
            Some(c @ (')' | ']' | '}')) => {
                let want = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                if let Some(&(got, j)) = stack.last() {
                    if got == want {
                        stack.pop();
                        open_of[i] = Some(j);
                    }
                }
            }
            _ => {}
        }
    }
    open_of
}

/// Walks backwards over the operand of the `as` at `as_idx` and returns
/// the first address-domain identifier it mentions, if any.
///
/// `as` binds tighter than every binary operator, so the operand extends
/// left through identifiers, field/path separators, literals, and
/// bracketed groups, and stops at the first operator, comma, or brace.
/// Identifiers inside bracketed groups count: `(pfn.as_u64() / n) as
/// usize` is still an address cast.
fn operand_address_ident<'a>(
    tokens: &'a [Token<'a>],
    as_idx: usize,
    open_of: &[Option<usize>],
) -> Option<&'a str> {
    let mut hit: Option<&str> = None;
    let mut i = as_idx;
    while i > 0 {
        i -= 1;
        let t = &tokens[i];
        match t.kind {
            TokenKind::Comment => continue,
            TokenKind::Ident => {
                if t.text == "as" {
                    // Chained cast `x as u32 as u64`: keep walking left
                    // past the inner cast's type and keyword.
                    continue;
                }
                if hit.is_none() && is_address_ident(t.text) {
                    hit = Some(t.text);
                }
            }
            TokenKind::Number | TokenKind::Literal | TokenKind::Lifetime => {}
            TokenKind::Punct => match t.text.chars().next() {
                Some(')' | ']') => {
                    // Scan the group's interior for address idents, then
                    // jump to the opener and continue from before it.
                    let Some(open) = open_of[i] else { return hit };
                    if hit.is_none() {
                        hit = tokens[open + 1..i]
                            .iter()
                            .filter(|t| t.kind == TokenKind::Ident)
                            .map(|t| t.text)
                            .find(|s| is_address_ident(s));
                    }
                    i = open;
                }
                Some('.' | ':') => {}
                _ => break,
            },
        }
    }
    hit
}

/// R2: `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!` in hot paths.
fn rule_panic(
    rel_path: &str,
    tokens: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        if in_test(i) {
            continue;
        }
        let t = &tokens[i];
        let what = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && tokens[i - 1].is_punct('.')
        {
            format!(".{}()", t.text)
        } else if (t.is_ident("panic") || t.is_ident("unreachable"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            format!("{}!", t.text)
        } else {
            continue;
        };
        findings.push(Finding {
            rule: Rule::Panic,
            file: rel_path.to_owned(),
            line: t.line,
            message: format!(
                "`{what}` in a simulator hot path; return a typed error or \
                 allowlist it with the invariant stated"
            ),
        });
    }
}

/// R4: nondeterministic clock/RNG sources.
fn rule_determinism(
    rel_path: &str,
    tokens: &[Token<'_>],
    allow_instant: bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let followed_by_now = || {
            tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && tokens.get(i + 3).is_some_and(|a| a.is_ident("now"))
        };
        let banned = match t.text {
            "SystemTime" => followed_by_now().then_some("SystemTime::now"),
            "Instant" if !allow_instant => followed_by_now().then_some("Instant::now"),
            "thread_rng" => Some("thread_rng"),
            "from_entropy" => Some("from_entropy"),
            "random" => (i >= 2
                && tokens[i - 1].is_punct(':')
                && tokens[i - 2].is_punct(':')
                && i >= 3
                && tokens[i - 3].is_ident("rand"))
            .then_some("rand::random"),
            _ => None,
        };
        if let Some(what) = banned {
            findings.push(Finding {
                rule: Rule::Determinism,
                file: rel_path.to_owned(),
                line: t.line,
                message: format!(
                    "`{what}` breaks bit-identical replay; thread a seeded RNG \
                     or pass timestamps in from the caller"
                ),
            });
        }
    }
}

/// R5: `_ =>` wildcard arms in the scheme crate.
fn rule_wildcard(
    rel_path: &str,
    tokens: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        if in_test(i) || !tokens[i].is_ident("_") {
            continue;
        }
        if tokens.get(i + 1).is_some_and(|a| a.is_punct('='))
            && tokens.get(i + 2).is_some_and(|a| a.is_punct('>'))
        {
            findings.push(Finding {
                rule: Rule::WildcardMatch,
                file: rel_path.to_owned(),
                line: tokens[i].line,
                message: "`_ =>` wildcard arm; spell out the remaining variants \
                          so new schemes fail to compile here instead of \
                          falling through"
                    .to_owned(),
            });
        }
    }
}
