//! The typed error of machine checkpoints.
//!
//! A machine checkpoint (`dspatch_sim::snapshot::MachineState`) is a plain
//! in-memory copy of a warmed machine. Capturing one and restoring it can
//! still be refused, and [`SnapshotError`] says why.

use std::fmt;

/// Why a machine cannot be captured, or a checkpoint cannot be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The machine cannot be checkpointed in its current shape (in-flight
    /// work, or an L2 prefetcher other than the null one).
    Unsupported(String),
    /// The checkpoint does not fit the machine it is restored into
    /// (another configuration or core count, or a shorter trace).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported(what) => write!(f, "cannot snapshot {what}"),
            SnapshotError::Invalid(message) => write!(f, "invalid snapshot: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}
