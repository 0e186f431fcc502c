//! Typed simulation errors.
//!
//! The paper harness used to `panic!` from deep inside a worker thread,
//! which on a malformed configuration reported a bare assertion with no
//! hint of *which* (scenario, workload, scheme) cell died. Every fallible
//! path now returns a [`SimError`]; the matrix driver wraps worker
//! failures in [`SimError::Cell`] so the failing cell is named in the
//! error itself.

use hytlb_types::VirtAddr;

/// Everything that can go wrong while driving a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A trace address faulted. Traces only ever touch mapped pages, so
    /// this means the placement layer or a scheme's walk path is broken.
    TraceFault {
        /// Label of the scheme that faulted.
        scheme: String,
        /// The virtual address that failed to translate.
        vaddr: VirtAddr,
    },
    /// Loading a recorded trace from a corpus store failed (corrupt
    /// file, unreadable manifest, I/O failure).
    Corpus {
        /// The trace-file layer's error message.
        detail: String,
    },
    /// A trace addresses a logical page its mapping does not have (a
    /// corpus recording whose addresses exceed its footprint).
    TraceOutOfRange {
        /// The first logical page index past the mapping.
        page: u64,
        /// Pages the mapping holds (valid indices are `0..pages`).
        pages: u64,
    },
    /// A matrix cell failed; names the cell and carries the underlying
    /// error.
    Cell {
        /// Scenario label of the failing cell.
        scenario: String,
        /// Workload label of the failing cell.
        workload: String,
        /// Scheme label of the failing cell.
        scheme: String,
        /// What actually went wrong inside the cell.
        source: Box<SimError>,
    },
}

impl SimError {
    /// Wraps this error with the identity of the matrix cell it occurred
    /// in.
    #[must_use]
    pub fn in_cell(self, scenario: &str, workload: &str, scheme: &str) -> Self {
        SimError::Cell {
            scenario: scenario.to_owned(),
            workload: workload.to_owned(),
            scheme: scheme.to_owned(),
            source: Box::new(self),
        }
    }
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::TraceFault { scheme, vaddr } => {
                write!(f, "scheme {scheme} faulted on a mapped-only trace at {vaddr}")
            }
            SimError::Corpus { detail } => write!(f, "trace corpus replay failed: {detail}"),
            SimError::TraceOutOfRange { page, pages } => {
                write!(f, "trace addresses logical page {page} of a {pages}-page mapping")
            }
            SimError::Cell { scenario, workload, scheme, source } => {
                write!(f, "cell ({scenario}, {workload}, {scheme}) failed: {source}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Cell { source, .. } => Some(source.as_ref()),
            SimError::TraceFault { .. }
            | SimError::Corpus { .. }
            | SimError::TraceOutOfRange { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_wrapper_names_the_cell() {
        let inner =
            SimError::TraceFault { scheme: "Base".to_owned(), vaddr: VirtAddr::new(0x1000) };
        let wrapped = inner.clone().in_cell("low", "gups", "Base");
        let msg = wrapped.to_string();
        assert!(msg.contains("(low, gups, Base)"), "{msg}");
        assert!(msg.contains("0x1000"), "{msg}");
        let source = std::error::Error::source(&wrapped).expect("cell has a source");
        assert_eq!(source.to_string(), inner.to_string());
    }

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<SimError> = vec![
            SimError::Corpus { detail: "manifest.json is unreadable".into() },
            SimError::TraceOutOfRange { page: 9, pages: 8 },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_none());
        }
    }
}
