//! Trace-driven simulation engine and experiment harness.
//!
//! This crate ties everything together:
//!
//! * [`PaperConfig`] — the evaluation configuration (epoch length, trace
//!   length, seeds); Table 3's latencies are
//!   [`TranslationPath::cycles`](hytlb_schemes::TranslationPath::cycles).
//! * [`SchemeKind`] — the translation schemes compared in the paper, and
//!   [`SchemeDispatch`] — the registry that builds one over any mapping.
//! * [`Machine`] — a scheme driven by a resolved-address trace (logical
//!   traces are placed with [`hytlb_mem::PageIndex::resolve`]); collects
//!   [`RunStats`].
//! * [`experiment`] — the evaluation matrix building blocks (mapping and
//!   trace generation, suites, static-ideal sweeps) plus the serial
//!   reference driver.
//! * [`matrix`] — the parallel, zero-copy matrix driver: memoized
//!   mapping/trace generation and a bounded worker pool over every
//!   (scenario, workload, scheme) cell, bit-identical to the serial
//!   reference.
//! * [`report`] — text renderers that print the same rows/series as the
//!   paper's figures and tables, plus JSON output.
//!
//! # Examples
//!
//! ```
//! use hytlb_sim::{Machine, PaperConfig, SchemeKind};
//! use hytlb_mem::Scenario;
//! use hytlb_trace::WorkloadKind;
//! use std::sync::Arc;
//!
//! let config = PaperConfig::default();
//! let map = Arc::new(Scenario::MediumContiguity.generate(4096, config.seed));
//! let index = Arc::new(map.page_index());
//! let trace: Vec<u64> = WorkloadKind::Canneal.generator(4096, config.seed).take(50_000).collect();
//! let mut machine = Machine::for_scheme_indexed(SchemeKind::AnchorDynamic, &map, &index, &config);
//! let stats = machine.try_run_resolved(&index.resolve(&trace))?;
//! assert_eq!(stats.accesses, 50_000);
//! assert!(stats.translation_cpi() >= 0.0);
//! # Ok::<(), hytlb_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dispatch;
mod engine;
mod error;
pub mod experiment;
pub mod matrix;
pub mod report;

pub use config::{PaperConfig, SchemeKind, MAX_ACCESSES};
pub use dispatch::{AnyLevel, SchemeDispatch};
pub use engine::{CpiBreakdown, Machine, RunStats};
pub use error::SimError;
pub use matrix::{try_run_matrix_with, MatrixCache};
