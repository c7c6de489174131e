//! Black-box UDFs with call accounting and a cost model.
//!
//! The paper treats UDFs as opaque external code whose evaluation may be
//! expensive (§1); the GP/MC trade-off is governed by the per-call time `T`
//! (§6, Expt 5). Sweeping `T` from 1 µs to 1 s with real sleeps would be
//! prohibitively slow, so [`CostModel::Simulated`] *accounts* the nominal
//! cost per call (`tests/evaluator_comparison.rs` checks the accounting
//! against a UDF that really spins). See PAPER.md, "Fidelity caveats".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic scalar function of a fixed-dimension input vector.
pub trait UdfFunction: Send + Sync {
    /// Input dimensionality.
    fn dim(&self) -> usize;
    /// Evaluate at `x` (`x.len() == dim()` guaranteed by callers).
    fn eval(&self, x: &[f64]) -> f64;
    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "udf"
    }
}

/// Type-erased UDF body.
type UdfBody = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// A [`UdfFunction`] built from a closure.
pub struct FnUdf {
    dim: usize,
    name: String,
    f: UdfBody,
}

impl FnUdf {
    /// Wrap a closure as a `dim`-dimensional UDF.
    pub(crate) fn new(
        name: impl Into<String>,
        dim: usize,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        FnUdf {
            dim,
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl UdfFunction for FnUdf {
    fn dim(&self) -> usize {
        self.dim
    }
    fn eval(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for FnUdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnUdf({}, dim={})", self.name, self.dim)
    }
}

/// How a UDF call is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// No extra cost (pure-accuracy experiments).
    Free,
    /// Charge the nominal duration to the accounting counters without
    /// actually waiting (the default for T-sweep experiments).
    Simulated(Duration),
}

impl CostModel {
    /// Nominal per-call cost.
    pub fn per_call(&self) -> Duration {
        match self {
            CostModel::Free => Duration::ZERO,
            CostModel::Simulated(d) => *d,
        }
    }
}

/// A black-box UDF with shared call accounting.
///
/// Cloning is cheap (the function and counters are shared through `Arc`), so
/// the same accounting is observed by every evaluator holding a handle.
#[derive(Clone)]
pub struct BlackBoxUdf {
    inner: Arc<dyn UdfFunction>,
    cost: CostModel,
    calls: Arc<AtomicU64>,
}

impl BlackBoxUdf {
    /// Wrap a function with a cost model.
    pub fn new(inner: Arc<dyn UdfFunction>, cost: CostModel) -> Self {
        BlackBoxUdf {
            inner,
            cost,
            calls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Convenience constructor from a closure with no evaluation cost.
    pub fn from_fn(
        name: impl Into<String>,
        dim: usize,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        BlackBoxUdf::new(Arc::new(FnUdf::new(name, dim, f)), CostModel::Free)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// Reject an input whose dimension is not the UDF's.
    pub(crate) fn check_input(&self, input: &udf_prob::InputDistribution) -> crate::Result<()> {
        let (expected, found) = (self.dim(), input.dim());
        if expected == found {
            Ok(())
        } else {
            Err(crate::CoreError::DimensionMismatch { expected, found })
        }
    }

    /// Name of the wrapped function.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Replace the cost model (keeps function and counters).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Evaluate the UDF, recording the call.
    ///
    /// # Panics
    /// Panics if `x.len() != dim()` (caller bug).
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "UDF input dimension mismatch");
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(x)
    }

    /// Total calls so far (shared across clones).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nominal evaluation time charged so far under the cost model.
    pub fn charged_cost(&self) -> Duration {
        self.cost.per_call() * self.calls() as u32
    }

    /// Reset the call counter (between experiment runs).
    pub fn reset_calls(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Clone with an independent, zeroed call counter — for comparing two
    /// evaluators over the same function without shared accounting.
    pub fn fork_counter(&self) -> Self {
        BlackBoxUdf {
            inner: Arc::clone(&self.inner),
            cost: self.cost,
            calls: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for BlackBoxUdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BlackBoxUdf({}, dim={}, cost={:?}, calls={})",
            self.name(),
            self.dim(),
            self.cost,
            self.calls()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn closure_udf_evaluates() {
        let u = BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]);
        assert_eq!(u.eval(&[1.0, 2.0]), 3.0);
        assert_eq!(u.dim(), 2);
        assert_eq!(u.name(), "sum");
    }

    #[test]
    fn call_accounting_shared_across_clones() {
        let u = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let v = u.clone();
        u.eval(&[1.0]);
        v.eval(&[2.0]);
        assert_eq!(u.calls(), 2);
        assert_eq!(v.calls(), 2);
        u.reset_calls();
        assert_eq!(v.calls(), 0);
    }

    #[test]
    fn simulated_cost_accrues_without_waiting() {
        let u = BlackBoxUdf::from_fn("id", 1, |x| x[0])
            .with_cost(CostModel::Simulated(Duration::from_millis(100)));
        let start = Instant::now();
        for _ in 0..50 {
            u.eval(&[0.0]);
        }
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "should not sleep"
        );
        assert_eq!(u.charged_cost(), Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let u = BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]);
        u.eval(&[1.0]);
    }
}
