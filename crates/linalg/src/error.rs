//! Error types for the linear-algebra layer.

use std::fmt;

/// Errors raised by linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// A matrix that must be square is not (`rows`, `cols`).
    NotSquare { rows: usize, cols: usize },
    /// Dimensions of two operands do not agree.
    DimensionMismatch {
        expected: usize,
        found: usize,
        context: &'static str,
    },
    /// Cholesky factorization hit a non-positive pivot: the matrix is not
    /// (numerically) positive definite. Carries the offending pivot index.
    NotPositiveDefinite { pivot: usize },
    /// An operation required a non-empty matrix or vector.
    Empty(&'static str),
}

impl LinalgError {
    /// `Ok` when `found == expected`, else a [`LinalgError::DimensionMismatch`]
    /// in `context`.
    pub(crate) fn check_dim(
        expected: usize,
        found: usize,
        context: &'static str,
    ) -> Result<(), Self> {
        if found == expected {
            return Ok(());
        }
        Err(LinalgError::DimensionMismatch {
            expected,
            found,
            context,
        })
    }
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::DimensionMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::Empty(what) => write!(f, "operation requires non-empty {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}
