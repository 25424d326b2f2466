//! Scheduler errors.

use perforad_core::CoreError;
use perforad_exec::ExecError;
use std::fmt;

/// Why a schedule could not be compiled or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// Lowering to the execution engine failed.
    Exec(ExecError),
    /// Extracting access metadata from the IR failed.
    Core(CoreError),
    /// A bound symbol had no integer binding when resolving footprints.
    UnboundSize(String),
    /// Invalid tile specification (wrong rank, non-positive edge).
    BadTile(String),
    /// The nest list cannot be scheduled as given (empty, or nests of
    /// different ranks in one list).
    BadInput(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Exec(e) => write!(f, "execution engine: {e}"),
            SchedError::Core(e) => write!(f, "core IR: {e}"),
            SchedError::UnboundSize(s) => {
                write!(f, "no integer binding for size symbol `{s}`")
            }
            SchedError::BadTile(s) => write!(f, "bad tile specification: {s}"),
            SchedError::BadInput(s) => write!(f, "unschedulable nest list: {s}"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<ExecError> for SchedError {
    fn from(e: ExecError) -> Self {
        SchedError::Exec(e)
    }
}

impl From<CoreError> for SchedError {
    fn from(e: CoreError) -> Self {
        SchedError::Core(e)
    }
}
