//! Dense linear algebra substrate for the GP emulator.
//!
//! The paper's GP techniques (§3.3, §5.2 of Tran et al., VLDB 2013) need a
//! small, predictable set of operations on symmetric positive-definite
//! matrices: Cholesky factorization, triangular solves, log-determinants, and
//! an *incremental* factor update used by online tuning when a training point
//! is appended. This crate implements exactly that set from scratch — no
//! external linear-algebra dependency — with `f64` storage in row-major order.
//!
//! Numerical conventions:
//! * All factorizations work on the lower-triangular factor `L` with
//!   `A = L Lᵀ`.
//! * Fallible operations return [`LinalgError`] instead of panicking; panics
//!   are reserved for violated internal invariants (e.g. an out-of-bounds
//!   index, which indicates a bug in the caller).

mod cholesky;
mod error;
pub mod lanes;
mod matrix;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use vector::dot;

/// Result alias for linear-algebra operations.
pub(crate) type Result<T> = std::result::Result<T, LinalgError>;
