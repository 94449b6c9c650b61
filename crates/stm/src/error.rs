//! Transaction abort reasons and the `StmResult` alias used by all
//! transactional closures.

use std::fmt;

/// Why a transaction attempt cannot proceed.
///
/// User closures normally only *originate* [`StmError::Retry`] (condition
/// synchronization, paper §2) and propagate everything else with `?`. The
/// other variants are produced by the runtime when it detects a conflict or,
/// in simulated-HTM mode, a hardware-style abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmError {
    /// The closure observed a state from which it cannot make progress and
    /// asks to be re-executed once some location in its read set changes
    /// (Harris et al.'s `retry`). The runner spins, then yields, until one
    /// of the read versions moves (paper §4.2).
    Retry,
    /// The speculative snapshot is no longer consistent: another transaction
    /// committed a conflicting update. The runtime backs off and re-executes.
    Conflict,
    /// Simulated-HTM only: the transaction's tracked footprint exceeded the
    /// configured hardware capacity. Repeated capacity aborts escalate to the
    /// serial fallback path.
    Capacity,
    /// The closure requested an operation the current execution mode cannot
    /// perform speculatively (e.g. irrevocable I/O inside a hardware
    /// transaction). The runtime escalates to serial/irrevocable execution.
    Unsupported,
}

impl StmError {
    /// True for aborts that should count against the contention manager's
    /// `serialize_after` threshold (paper §2: GCC serializes STM after 100
    /// failed attempts, HTM after 2).
    pub fn counts_as_failure(self) -> bool {
        !matches!(self, StmError::Retry)
    }
}

impl fmt::Display for StmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmError::Retry => write!(f, "retry: blocked on condition"),
            StmError::Conflict => write!(f, "conflict: snapshot invalidated"),
            StmError::Capacity => write!(f, "capacity: simulated HTM footprint exceeded"),
            StmError::Unsupported => write!(f, "unsupported: operation requires serial mode"),
        }
    }
}

impl std::error::Error for StmError {}

/// Result type returned by transactional closures.
pub type StmResult<T> = Result<T, StmError>;

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn retry_is_not_a_failure() {
        assert!(!StmError::Retry.counts_as_failure());
        assert!(StmError::Conflict.counts_as_failure());
        assert!(StmError::Capacity.counts_as_failure());
        assert!(StmError::Unsupported.counts_as_failure());
    }

    #[test]
    fn display_is_informative() {
        assert!(StmError::Retry.to_string().contains("retry"));
        assert!(StmError::Conflict.to_string().contains("conflict"));
        assert!(StmError::Capacity.to_string().contains("capacity"));
        assert!(StmError::Unsupported.to_string().contains("serial"));
    }
}
