//! Gaussian-process emulation substrate (§3–§5 of Tran et al., VLDB 2013).
//!
//! A GP models the black-box UDF: after `n` evaluations `(x*, f(x*))` the
//! posterior mean `f̂` serves as a cheap emulator and the posterior variance
//! `σ²(x)` quantifies modeling error. This crate provides:
//!
//! * [`kernel`] — isotropic covariance functions (squared-exponential,
//!   Matérn 3/2 and 5/2) with analytic first and second
//!   derivatives w.r.t. log-hyperparameters (needed for MLE training, §3.4,
//!   and the Newton retraining heuristic, §5.3);
//! * [`model`] — exact GP regression with Cholesky factors and
//!   **incremental training-point addition** (§5.2);
//! * [`train`] — maximum-likelihood hyperparameter fitting by adaptive
//!   gradient ascent, plus the Newton first-step size used to decide
//!   *whether* to retrain (§5.3);
//! * [`local`] — local inference with the bounding-box γ error bound
//!   (§5.1), selecting points by the box distances the bound measures;
//! * [`band`] — simultaneous confidence bands `f̂ ± z_α σ` via the expected
//!   Euler characteristic approximation (§4.2, Eq. 5, after Adler \[3\]).

pub mod band;
pub mod batch;
pub mod kernel;
pub mod local;
pub mod model;
pub mod train;

pub use batch::{FactorOrigin, LocalPredictorCache, PredictScratch};
pub use kernel::{Kernel, Matern32, Matern52, SquaredExponential};
pub use local::SelectScratch;
pub use model::GpModel;

use std::fmt;
use udf_linalg::LinalgError;

/// Errors raised by GP operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// The underlying linear algebra failed (usually: covariance not SPD).
    Linalg(LinalgError),
    /// Operation requires a trained (non-empty) model.
    EmptyModel,
    /// A point has the wrong dimensionality.
    DimensionMismatch { expected: usize, found: usize },
    /// Invalid hyperparameter or configuration value.
    InvalidParameter { what: &'static str, value: f64 },
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            GpError::EmptyModel => write!(f, "GP model has no training data"),
            GpError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            GpError::InvalidParameter { what, value } => {
                write!(f, "invalid parameter {what} = {value}")
            }
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

/// Result alias for GP operations.
pub type Result<T> = std::result::Result<T, GpError>;
