//! A minimal relational executor over uncertain tuples.
//!
//! The paper's motivating queries (§1) invoke UDFs inside SELECT lists and
//! WHERE clauses over relations whose attributes carry distributions:
//!
//! ```sql
//! Q1: SELECT G.objID, GalAge(G.redshift) FROM Galaxy G
//! Q2: SELECT ..., ComoveVol(G1.redshift, G2.redshift, AREA)
//!     FROM Galaxy G1, Galaxy G2
//!     WHERE Distance(G1.pos, G2.pos) IN [l, u]
//! ```
//!
//! This crate provides the substrate to run such queries end-to-end:
//! relations with per-attribute marginals ([`Value`]), a nested-loop join,
//! UDF projection, and UDF selection with tuple-existence-probability
//! filtering, all parameterized by evaluation strategy (MC or OLGAPRO).

pub(crate) mod executor;
pub(crate) mod relation;

pub use executor::{EvalStrategy, Executor, ProjectedTuple};
pub use relation::{Relation, Schema, Tuple, UdfCall};
pub use udf_prob::Value;

use std::fmt;

/// Errors raised by query execution.
#[derive(Debug)]
pub enum QueryError {
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A join would produce two columns with the same qualified name
    /// (equal prefixes, or a prefix colliding with an existing qualified
    /// column).
    DuplicateColumn(String),
    /// A join's cross product exceeds the supported pair count.
    JoinTooLarge {
        /// Left-side row count.
        left: usize,
        /// Right-side row count.
        right: usize,
    },
    /// Evaluation-framework failure.
    Core(udf_core::CoreError),
    /// Probability-layer failure.
    Prob(udf_prob::ProbError),
    /// Schema arity and tuple arity disagree.
    ArityMismatch { expected: usize, found: usize },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            QueryError::DuplicateColumn(c) => {
                write!(
                    f,
                    "join would produce duplicate column {c:?}; use distinct prefixes"
                )
            }
            QueryError::JoinTooLarge { left, right } => write!(
                f,
                "join of {left} x {right} rows exceeds the {} supported pairs",
                u32::MAX
            ),
            QueryError::Core(e) => write!(f, "evaluation error: {e}"),
            QueryError::Prob(e) => write!(f, "probability error: {e}"),
            QueryError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "tuple arity {found} does not match schema arity {expected}"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<udf_core::CoreError> for QueryError {
    fn from(e: udf_core::CoreError) -> Self {
        QueryError::Core(e)
    }
}

impl From<udf_prob::ProbError> for QueryError {
    fn from(e: udf_prob::ProbError) -> Self {
        QueryError::Prob(e)
    }
}

/// Result alias for query operations.
pub(crate) type Result<T> = std::result::Result<T, QueryError>;
