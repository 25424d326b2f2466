//! Execution-engine errors.

use perforad_symbolic::Symbol;
use std::fmt;

/// Why a loop nest could not be compiled or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An array referenced by the nest is not in the workspace.
    UnknownArray(String),
    /// Array rank differs from the nest depth.
    RankMismatch {
        array: String,
        rank: usize,
        nest: usize,
    },
    /// Arrays in one kernel must share their extents.
    DimsMismatch {
        array: String,
        expected: Vec<usize>,
        got: Vec<usize>,
    },
    /// A bound or index symbol had no integer binding.
    UnboundSize(String),
    /// A scalar parameter had no binding.
    UnboundParam(String),
    /// A write array is also read — executing would be racy/ill-defined.
    AliasedWrite(String),
    /// An access would leave the physical array for some iteration.
    OutOfRange {
        array: String,
        dim: usize,
        index_range: (i64, i64),
        extent: usize,
    },
    /// The per-dimension extent is too small for the disjoint decomposition
    /// ("n sufficiently large", §3.2).
    ExtentTooSmall {
        dim: usize,
        extent: i64,
        required: i64,
    },
    /// A plan the executor cannot run: an expression no lowering supports
    /// (an uninterpreted function — use the codegen back-ends — or a
    /// non-stencil access), or a statement layout it refuses (a
    /// non-constant write index, an accumulate-mode conflict).
    Unsupported(String),
    /// Parallel scatter execution requested without atomics.
    ScatterNeedsAtomics,
    /// The plan writes an array the workspace binds shared, read-only.
    SharedWrite(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownArray(a) => write!(f, "array `{a}` is not in the workspace"),
            ExecError::RankMismatch { array, rank, nest } => {
                write!(f, "array `{array}` has rank {rank}, nest is {nest}-deep")
            }
            ExecError::DimsMismatch {
                array,
                expected,
                got,
            } => write!(
                f,
                "array `{array}` has dims {got:?}, kernel requires {expected:?}"
            ),
            ExecError::UnboundSize(s) => write!(f, "no integer binding for size symbol `{s}`"),
            ExecError::UnboundParam(s) => write!(f, "no value bound for parameter `{s}`"),
            ExecError::AliasedWrite(a) => {
                write!(f, "array `{a}` is both read and written by the kernel")
            }
            ExecError::OutOfRange {
                array,
                dim,
                index_range,
                extent,
            } => write!(
                f,
                "access to `{array}` dim {dim} spans [{}, {}] outside extent {extent}",
                index_range.0, index_range.1
            ),
            ExecError::ExtentTooSmall {
                dim,
                extent,
                required,
            } => write!(
                f,
                "iteration extent {extent} in dim {dim} below the stencil spread {required}; \
                 boundary regions would overlap"
            ),
            ExecError::Unsupported(s) => write!(f, "unsupported plan: {s}"),
            ExecError::ScatterNeedsAtomics => write!(
                f,
                "parallel execution of a scatter nest requires the atomic executor"
            ),
            ExecError::SharedWrite(a) => write!(
                f,
                "array `{a}` is bound shared and read-only, but the kernel writes it"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

pub(crate) fn unknown(s: &Symbol) -> ExecError {
    ExecError::UnknownArray(s.name().to_string())
}
