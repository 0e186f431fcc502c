//! `hytlb-audit` — self-hosted static analysis for the hytlb workspace.
//!
//! The simulator's figures are only as trustworthy as the bit-exact rules
//! every translation path follows, so this crate enforces them
//! mechanically instead of by review:
//!
//! * [`lexer`] — a minimal hand-rolled Rust tokenizer (comments kept,
//!   lines tracked) in the spirit of the vendored crates: zero external
//!   dependencies.
//! * [`rules`] — the seven repo-specific lint rules R1–R7 (address-domain
//!   casts, hot-path panics, crate attributes, determinism, wildcard
//!   match arms, cross-crate inlining of the per-access path, public
//!   functions no non-test code calls) plus the `// audit:allow(rule)`
//!   suppression syntax.
//! * [`invariants`] — checks that link against the live simulator types
//!   and verify architectural constants (PTE field disjointness, anchor
//!   distance powers of two, TLB geometry well-formedness).
//! * [`workspace`] — the `.rs` file walker (skips `vendor/` and
//!   `target/`) and the driver that applies the rules to every file (R7
//!   to all of them at once).
//!
//! Run it as `cargo run -p hytlb-audit -- check` (lint pass) or
//! `cargo run -p hytlb-audit -- invariants` (constant checks). Both exit
//! nonzero on any finding; CI runs both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;
pub mod lexer;
pub mod rules;
pub mod workspace;
