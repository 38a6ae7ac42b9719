//! Typed errors for the on-disk store.
//!
//! Every failure mode a corrupt or truncated file can produce maps to a
//! distinct variant — readers never panic on bad bytes.

use std::error::Error as StdError;
use std::fmt;
use std::io;
use tlp_graph::GraphError;

/// Errors produced while reading or writing store files.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An underlying I/O failure (excluding unexpected EOF, which is
    /// reported as [`StoreError::Truncated`]).
    Io(io::Error),
    /// The file does not start with the store magic.
    BadMagic {
        /// The first bytes actually found.
        found: [u8; 8],
    },
    /// The file is a store file of a version this build cannot read.
    UnsupportedVersion {
        /// The version field found in the header.
        found: u32,
    },
    /// The file ended before a declared section/record was complete.
    Truncated {
        /// What was being read when the file ran out.
        what: &'static str,
    },
    /// A section's stored checksum disagrees with the bytes on disk.
    ChecksumMismatch {
        /// Which section failed its check.
        section: &'static str,
        /// The checksum declared in the file.
        expected: u64,
        /// The checksum computed over the bytes actually read.
        actual: u64,
    },
    /// Structurally invalid content (bad section tag, unsorted edge block,
    /// impossible counts, ...).
    Corrupt(String),
    /// A manifest line failed to parse.
    Manifest {
        /// 1-based line number in the manifest file.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// Reconstructing the in-memory graph from stored blocks failed.
    Graph(GraphError),
    /// A partition store held segment data but no readable commit record
    /// (its writer crashed mid-write); the directory has been renamed
    /// aside so the torn data is preserved for inspection but can never be
    /// read as a valid store.
    TornStore {
        /// Where the torn store directory was moved.
        quarantined: std::path::PathBuf,
        /// Why the store was judged torn.
        cause: Box<StoreError>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a tlp-store file (magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store version {found}")
            }
            StoreError::Truncated { what } => write!(f, "file truncated while reading {what}"),
            StoreError::ChecksumMismatch {
                section,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {expected:#018x}, computed {actual:#018x}"
            ),
            StoreError::Corrupt(message) => write!(f, "corrupt store file: {message}"),
            StoreError::Manifest { line, message } => {
                write!(f, "manifest parse error at line {line}: {message}")
            }
            StoreError::Graph(e) => write!(f, "graph reconstruction failed: {e}"),
            StoreError::TornStore { quarantined, cause } => write!(
                f,
                "torn partition store quarantined to {}: {cause}",
                quarantined.display()
            ),
        }
    }
}

impl StdError for StoreError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            StoreError::TornStore { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { what: "data" }
        } else {
            StoreError::Io(e)
        }
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<StoreError> = vec![
            StoreError::BadMagic {
                found: *b"notastor",
            },
            StoreError::UnsupportedVersion { found: 9 },
            StoreError::Truncated { what: "edge block" },
            StoreError::ChecksumMismatch {
                section: "edges",
                expected: 1,
                actual: 2,
            },
            StoreError::Corrupt("x".into()),
            StoreError::Manifest {
                line: 3,
                message: "bad field".into(),
            },
            StoreError::TornStore {
                quarantined: "store.quarantine".into(),
                cause: Box::new(StoreError::Truncated { what: "manifest" }),
            },
        ];
        for e in cases {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn unexpected_eof_becomes_truncated() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(
            StoreError::from(eof),
            StoreError::Truncated { .. }
        ));
        let other = io::Error::new(io::ErrorKind::PermissionDenied, "no");
        assert!(matches!(StoreError::from(other), StoreError::Io(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
