//! Error type shared by all partitioners in the workspace.

use std::error::Error as StdError;
use std::fmt;

/// Errors returned by [`crate::EdgePartitioner::partition`] and partition
/// constructors.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// The requested number of partitions was zero.
    ZeroPartitions,
    /// A configuration ratio/factor was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint, e.g. `"must be in [0, 1]"`.
        constraint: &'static str,
    },
    /// An assignment vector did not form a valid partition of the graph.
    InvalidAssignment(String),
    /// A checkpoint could not be applied to (or emitted during) a run:
    /// wrong graph/config fingerprint, inconsistent state, or a sink
    /// failure while persisting.
    Checkpoint(String),
    /// Every trial of a best-of-t run panicked, so there is no partition
    /// to return. The message lists each failure.
    AllTrialsFailed(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroPartitions => {
                write!(f, "number of partitions must be at least 1")
            }
            PartitionError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "parameter {name} = {value} is invalid: {constraint}"),
            PartitionError::InvalidAssignment(message) => {
                write!(f, "invalid edge assignment: {message}")
            }
            PartitionError::Checkpoint(message) => {
                write!(f, "checkpoint error: {message}")
            }
            PartitionError::AllTrialsFailed(message) => {
                write!(f, "all trials failed: {message}")
            }
        }
    }
}

impl StdError for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            format!("{}", PartitionError::ZeroPartitions),
            "number of partitions must be at least 1"
        );
        let e = PartitionError::InvalidParameter {
            name: "ratio",
            value: 1.5,
            constraint: "must be in [0, 1]",
        };
        assert!(format!("{e}").contains("ratio"));
        assert!(format!("{e}").contains("1.5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PartitionError>();
    }
}
