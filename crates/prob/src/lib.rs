//! Probability and statistics substrate.
//!
//! Implements everything §2 of the paper ("An Approximation Framework")
//! relies on, from scratch:
//!
//! * the standard normal `Φ`, `Φ̄` and `Φ⁻¹`, and the Hermite polynomials
//!   of the band's Euler-characteristic densities — [`special`];
//! * the input marginal [`Value`] (Gaussian or point mass, sampled only) —
//!   [`dist`];
//! * multivariate uncertain inputs (independent marginals, one per
//!   attribute) — [`InputDistribution`];
//! * empirical CDFs — [`Ecdf`] — and the one linear walk over the merged
//!   support of several of them that every metric and bound sweeps —
//!   [`MergedSupport`];
//! * the **discrepancy**, **λ-discrepancy** and **KS** distance metrics
//!   (Definitions 1–3) — [`metrics`];
//! * DKW / Hoeffding sample-size and confidence-interval helpers
//!   (Algorithm 1's `m = ln(2/δ)/(2ε²)` and Remark 2.1) — [`bounds`].

pub mod bounds;
pub mod dist;
pub(crate) mod ecdf;
pub(crate) mod input;
pub(crate) mod merged;
pub mod metrics;
pub mod special;

pub use dist::Value;
pub use ecdf::Ecdf;
pub use input::InputDistribution;
pub use merged::MergedSupport;

use std::fmt;

/// Errors raised by probability-layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbError {
    /// A distribution parameter was out of its valid domain.
    InvalidParameter { what: &'static str, value: f64 },
    /// An operation needed at least one sample / component.
    Empty(&'static str),
}

impl fmt::Display for ProbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbError::InvalidParameter { what, value } => {
                write!(f, "invalid parameter {what} = {value}")
            }
            ProbError::Empty(what) => write!(f, "operation requires non-empty {what}"),
        }
    }
}

impl std::error::Error for ProbError {}

/// Result alias for probability operations.
pub type Result<T> = std::result::Result<T, ProbError>;
