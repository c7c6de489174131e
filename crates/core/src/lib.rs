//! # udf-core — Supporting User-Defined Functions on Uncertain Data
//!
//! The primary contribution of Tran, Diao, Sutton & Liu (VLDB 2013),
//! implemented in full:
//!
//! * [`udf`] — black-box UDFs with call accounting and a pluggable
//!   evaluation-cost model;
//! * [`config`] — user accuracy requirements `(ε, δ, λ)` and algorithm
//!   parameters;
//! * [`output`] — result distributions with attached error bounds and
//!   envelope CDFs;
//! * [`error_bound`] — Algorithm 3 (the O(m log m) λ-discrepancy bound over
//!   the three empirical CDFs) and the Proposition 4.2 KS bound;
//! * [`olgapro`] — **OLGAPRO** (Algorithm 5): the optimized online
//!   algorithm with local inference, online tuning, and thresholded
//!   retraining;
//! * [`filtering`] — the Monte Carlo baseline (Algorithm 1) with DKW
//!   sample counts, and online filtering against selection predicates
//!   (Remark 2.1 for MC, §5.5 for GP);
//! * [`hybrid`] — the §5.4 hybrid's §6.3 rules that pick MC or GP per UDF
//!   from its dimensionality and nominal cost;
//! * [`sched`] — the two-phase batch scheduler (a §8 future-work item):
//!   chunk-stealing scoped workers plus the fast/slow scheduling pattern;
//! * [`batch`] — the batch operator on top of it: how one tuple of a batch
//!   is ruled, emitted and counted, written once for the relational
//!   executor, the join and the stream engine.

pub mod batch;
pub mod config;
pub mod error_bound;
pub mod filtering;
pub mod hybrid;
pub mod olgapro;
pub mod output;
pub mod sched;
pub mod udf;

pub use config::AccuracyRequirement;

use std::fmt;

/// The engine's error type: evaluation, and the relation, join and stream
/// operators built on it.
#[derive(Debug)]
pub enum CoreError {
    /// Probability-layer failure.
    Prob(udf_prob::ProbError),
    /// GP-layer failure.
    Gp(udf_gp::GpError),
    /// A UDF returned a non-finite value at the given input.
    NonFiniteUdfOutput { input: Vec<f64>, value: f64 },
    /// A count of inputs disagrees with what receives them: an input
    /// distribution's dimensionality with its UDF's, or a tuple's arity
    /// with its relation schema's.
    DimensionMismatch { expected: usize, found: usize },
    /// Invalid configuration value.
    InvalidConfig { what: &'static str, value: f64 },
    /// A UDF panicked on one of a batch's workers, or a stream's source
    /// panicked while the session pulled a batch from it. Carries the
    /// panic message when one was available.
    WorkerPanicked { message: String },
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
    /// A join spec is inconsistent (bad argument binding, `prune(true)`, …).
    InvalidJoin(String),
    /// A stream subscription's UDF dimensionality disagrees with the source.
    SourceDimension {
        /// Subscription name.
        query: String,
        /// The UDF's input dimensionality.
        udf_dim: usize,
        /// The source's tuple dimensionality.
        source_dim: usize,
    },
    /// The referenced stream query id does not exist in its session.
    UnknownQuery(usize),
    /// A stream session was run with no subscriptions registered.
    NoSubscriptions,
}

impl CoreError {
    /// `Ok` when `ok`, else [`CoreError::InvalidConfig`] for `what` = `value`.
    pub(crate) fn check(ok: bool, what: &'static str, value: f64) -> Result<()> {
        ok.then_some(())
            .ok_or(CoreError::InvalidConfig { what, value })
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Prob(e) => write!(f, "probability error: {e}"),
            CoreError::Gp(e) => write!(f, "GP error: {e}"),
            CoreError::NonFiniteUdfOutput { input, value } => {
                write!(f, "UDF returned non-finite value {value} at {input:?}")
            }
            CoreError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            CoreError::InvalidConfig { what, value } => {
                write!(f, "invalid configuration: {what} = {value}")
            }
            CoreError::WorkerPanicked { message } => {
                write!(f, "a worker thread panicked: {message}")
            }
            CoreError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            CoreError::DuplicateColumn(c) => {
                write!(
                    f,
                    "join would produce duplicate column {c:?}; use distinct prefixes"
                )
            }
            CoreError::JoinTooLarge { left, right } => write!(
                f,
                "join of {left} x {right} rows exceeds the {} supported pairs",
                u32::MAX
            ),
            CoreError::InvalidJoin(m) => write!(f, "invalid join spec: {m}"),
            CoreError::SourceDimension {
                query,
                udf_dim,
                source_dim,
            } => write!(
                f,
                "query {query:?} expects {udf_dim}-dimensional tuples but the source yields {source_dim}-dimensional ones"
            ),
            CoreError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            CoreError::NoSubscriptions => write!(f, "no subscriptions registered"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<udf_prob::ProbError> for CoreError {
    fn from(e: udf_prob::ProbError) -> Self {
        CoreError::Prob(e)
    }
}

impl From<udf_gp::GpError> for CoreError {
    fn from(e: udf_gp::GpError) -> Self {
        CoreError::Gp(e)
    }
}

/// Result alias for framework operations.
pub type Result<T> = std::result::Result<T, CoreError>;
