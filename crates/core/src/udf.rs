//! Black-box UDFs with a cost model.
//!
//! The paper treats UDFs as opaque external code whose evaluation may be
//! expensive (§1); the GP/MC trade-off is governed by the per-call time `T`
//! (§6, Expt 5). Sweeping `T` from 1 µs to 1 s with real sleeps would be
//! prohibitively slow, so [`CostModel::Simulated`] names the nominal cost
//! per call, and a caller charges it for the calls the outputs report
//! (`udf_calls`; `tests/evaluator_comparison.rs` checks the charge against
//! a UDF that really spins). See PAPER.md, "Fidelity caveats".

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
    /// Charge the nominal duration per call without actually waiting (the
    /// default for T-sweep experiments).
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

/// A black-box UDF: the function and what each call costs.
///
/// Cloning is cheap (the function is shared through `Arc`). The handle
/// counts nothing: each evaluator counts the calls it makes and reports
/// them as `udf_calls` in its outputs.
#[derive(Clone)]
pub struct BlackBoxUdf {
    inner: Arc<dyn UdfFunction>,
    cost: CostModel,
}

impl BlackBoxUdf {
    /// Wrap a function with a cost model.
    pub fn new(inner: Arc<dyn UdfFunction>, cost: CostModel) -> Self {
        BlackBoxUdf { inner, cost }
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

    /// Replace the cost model (keeps the function).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Evaluate the UDF.
    ///
    /// # Panics
    /// Panics if `x.len() != dim()` (caller bug).
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "UDF input dimension mismatch");
        self.inner.eval(x)
    }
}

impl std::fmt::Debug for BlackBoxUdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BlackBoxUdf({}, dim={}, cost={:?})",
            self.name(),
            self.dim(),
            self.cost
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// Counts the calls that reach a UDF: a check on the `udf_calls` the
    /// evaluators report that does not depend on them.
    struct Counting {
        inner: BlackBoxUdf,
        calls: Arc<AtomicU64>,
    }

    impl UdfFunction for Counting {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn eval(&self, x: &[f64]) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.eval(x)
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    /// `udf` behind a call counter, and the counter.
    pub(crate) fn counting(udf: &BlackBoxUdf) -> (BlackBoxUdf, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        let inner = Counting {
            inner: udf.clone(),
            calls: Arc::clone(&calls),
        };
        (BlackBoxUdf::new(Arc::new(inner), udf.cost_model()), calls)
    }

    #[test]
    fn closure_udf_evaluates() {
        let u = BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]);
        assert_eq!(u.eval(&[1.0, 2.0]), 3.0);
        assert_eq!(u.dim(), 2);
        assert_eq!(u.name(), "sum");
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
        assert_eq!(u.cost_model().per_call() * 50, Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let u = BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]);
        u.eval(&[1.0]);
    }
}
