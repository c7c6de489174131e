//! The Monte Carlo baseline (§2.2, Algorithm 1).
//!
//! Draw `m` input samples, evaluate the UDF on each, return the empirical
//! CDF. With `m = ln(2/δ)/(2ε²)` the result is an (ε, δ)-approximation in
//! KS distance and a (2ε, δ)-approximation in discrepancy \[23\], so the
//! sample count comes straight from the accuracy requirement.

use crate::config::AccuracyRequirement;
use crate::output::OutputDistribution;
use crate::udf::BlackBoxUdf;
use crate::{CoreError, Result};
use udf_prob::{Ecdf, InputDistribution};

/// Evaluator that computes output distributions by direct sampling.
#[derive(Debug, Clone)]
pub struct McEvaluator {
    udf: BlackBoxUdf,
}

impl McEvaluator {
    /// Wrap a UDF.
    pub fn new(udf: BlackBoxUdf) -> Self {
        McEvaluator { udf }
    }

    /// Algorithm 1: compute the output distribution of `f(X)` to the given
    /// accuracy.
    pub fn compute(
        &self,
        input: &InputDistribution,
        accuracy: &AccuracyRequirement,
        rng: &mut dyn rand::RngCore,
    ) -> Result<OutputDistribution> {
        let m = accuracy.mc_samples();
        self.compute_with_samples(input, m, accuracy.eps, rng)
    }

    /// Algorithm 1 with an explicit sample count (used by harnesses that
    /// sweep `m` directly).
    pub fn compute_with_samples(
        &self,
        input: &InputDistribution,
        m: usize,
        error_bound: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<OutputDistribution> {
        if input.dim() != self.udf.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.udf.dim(),
                found: input.dim(),
            });
        }
        let calls_before = self.udf.calls();
        let mut outputs = Vec::with_capacity(m);
        let mut x = vec![0.0; input.dim()];
        for _ in 0..m {
            input.sample_into(rng, &mut x);
            let y = self.udf.eval(&x);
            if !y.is_finite() {
                return Err(CoreError::NonFiniteUdfOutput {
                    input: x.clone(),
                    value: y,
                });
            }
            outputs.push(y);
        }
        Ok(OutputDistribution {
            ecdf: Ecdf::new(outputs)?,
            error_bound,
            udf_calls: self.udf.calls() - calls_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Metric;
    use crate::udf::BlackBoxUdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udf_prob::metrics::ks_to_cdf;
    use udf_prob::special::norm_cdf;

    #[test]
    fn linear_gaussian_passthrough_meets_ks_bound() {
        // f(x) = x on N(0,1): output should be N(0,1); check the KS distance
        // against the analytic CDF stays within the requested ε.
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let eval = McEvaluator::new(udf);
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        let acc = AccuracyRequirement::new(0.05, 0.05, 0.0, Metric::Ks).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = eval.compute(&input, &acc, &mut rng).unwrap();
        assert_eq!(out.udf_calls as usize, acc.mc_samples());
        let d = ks_to_cdf(&out.ecdf, norm_cdf);
        assert!(d <= 0.05, "KS = {d}");
    }

    #[test]
    fn nonlinear_output_is_non_gaussian() {
        // f(x) = x² on N(0,1) is chi-squared(1): strongly right-skewed.
        let udf = BlackBoxUdf::from_fn("sq", 1, |x| x[0] * x[0]);
        let eval = McEvaluator::new(udf);
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        let acc = AccuracyRequirement::new(0.05, 0.05, 0.0, Metric::Ks).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = eval.compute(&input, &acc, &mut rng).unwrap();
        // Median of chi-squared(1) ≈ 0.455; KS ε = 0.05 near a density of
        // ~0.47 permits a quantile error of ~0.11.
        let med = out.ecdf.quantile(0.5);
        assert!((med - 0.455).abs() < 0.15, "median {med}");
        assert!(out.ecdf.min() >= 0.0);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let udf = BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]);
        let eval = McEvaluator::new(udf);
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        let acc = AccuracyRequirement::paper_default(0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            eval.compute(&input, &acc, &mut rng),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_udf_output_reported() {
        let udf = BlackBoxUdf::from_fn("bad", 1, |x| 1.0 / (x[0] - x[0])); // NaN
        let eval = McEvaluator::new(udf);
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            eval.compute_with_samples(&input, 10, 0.1, &mut rng),
            Err(CoreError::NonFiniteUdfOutput { .. })
        ));
    }

    #[test]
    fn discrepancy_metric_uses_more_samples() {
        // Discrepancy substitutes ε/2 into the DKW count: 4x up to ceiling.
        let acc_ks = AccuracyRequirement::new(0.1, 0.05, 0.0, Metric::Ks).unwrap();
        let acc_d = AccuracyRequirement::new(0.1, 0.05, 0.0, Metric::Discrepancy).unwrap();
        let diff = acc_d.mc_samples() as i64 - 4 * acc_ks.mc_samples() as i64;
        assert!(diff.abs() <= 4, "ratio should be ~4x, diff {diff}");
    }
}
