//! User accuracy requirements and algorithm configuration (§2.1, §5.4, §6.1).

use crate::{CoreError, Result};
use udf_prob::bounds::{split_accuracy, AccuracySplit};

/// Which distance metric the accuracy requirement is stated in (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// λ-discrepancy (Definitions 1/3); the paper's default for experiments.
    Discrepancy,
    /// Kolmogorov–Smirnov distance (Definition 2).
    Ks,
}

/// The user's `(ε, δ)` accuracy requirement with minimum interval length λ
/// (Definition 4): with probability `1 − δ`, the returned distribution is
/// within `ε` of the truth under the chosen metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRequirement {
    /// Error tolerance ε ∈ (0, 1).
    pub eps: f64,
    /// Failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// Minimum interval length λ ≥ 0 for the λ-discrepancy
    /// (ignored under [`Metric::Ks`]).
    pub lambda: f64,
    /// Metric the requirement is stated in.
    pub metric: Metric,
}

impl AccuracyRequirement {
    /// Validated constructor.
    pub fn new(eps: f64, delta: f64, lambda: f64, metric: Metric) -> Result<Self> {
        if !(eps > 0.0 && eps < 1.0) {
            return Err(CoreError::InvalidConfig {
                what: "eps",
                value: eps,
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoreError::InvalidConfig {
                what: "delta",
                value: delta,
            });
        }
        if !(lambda >= 0.0 && lambda.is_finite()) {
            return Err(CoreError::InvalidConfig {
                what: "lambda",
                value: lambda,
            });
        }
        Ok(AccuracyRequirement {
            eps,
            delta,
            lambda,
            metric,
        })
    }

    /// The paper's default experimental setting: ε = 0.1, δ = 0.05,
    /// discrepancy metric (λ set by the caller relative to function range).
    pub fn paper_default(lambda: f64) -> Self {
        AccuracyRequirement {
            eps: 0.1,
            delta: 0.05,
            lambda,
            metric: Metric::Discrepancy,
        }
    }

    /// Number of Monte Carlo samples needed to meet this requirement by
    /// direct sampling (Algorithm 1 / §2.2-A).
    pub fn mc_samples(&self) -> usize {
        dkw_samples(self.metric, self.eps, self.delta)
    }
}

/// The most samples an accuracy may ask of one tuple (2²⁴: ε ≈ 7·10⁻⁴ by
/// Monte Carlo, ≈ 10⁻³ through the GP, at δ = 0.05). The evaluators
/// allocate a tuple's sample buffers in one piece, so a tighter accuracy is
/// refused where an evaluator is built rather than dying in the allocator.
pub const MAX_SAMPLES_PER_TUPLE: usize = 1 << 24;

/// `Ok` when one tuple may draw `samples` (at most
/// [`MAX_SAMPLES_PER_TUPLE`]) — the check every front-end applies to
/// [`AccuracyRequirement::mc_samples`] or
/// [`OlgaproConfig::samples_per_input`] before building an evaluator.
pub fn check_samples_per_tuple(samples: usize) -> Result<()> {
    if samples > MAX_SAMPLES_PER_TUPLE {
        return Err(CoreError::InvalidConfig {
            what: "samples per tuple",
            value: samples as f64,
        });
    }
    Ok(())
}

/// DKW sample count for an `(eps, delta)` share of the budget under
/// `metric`, `usize::MAX` where no finite count meets it: a subnormal ε
/// squares to 0, and a δ that [`split_accuracy`] rounded to 0 (any δ below
/// ≈ 2·10⁻¹⁶) has ln(2/δ) = ∞. `udf_prob::bounds` asserts its arguments
/// strictly positive, which a valid accuracy's shares need not be.
fn dkw_samples(metric: Metric, eps: f64, delta: f64) -> usize {
    if !eps.is_normal() || delta == 0.0 {
        return usize::MAX;
    }
    match metric {
        Metric::Ks => udf_prob::bounds::mc_samples_ks(eps, delta),
        Metric::Discrepancy => udf_prob::bounds::mc_samples_discrepancy(eps, delta),
    }
}

/// What happens at [`OlgaproConfig::max_model_points`]: the one policy,
/// stop adding training points. Over-budget tuples are emitted at the
/// *achieved* error bound (which stays attached to every output), and each
/// such degraded acceptance is counted in
/// [`crate::batch::BatchCounts::cap_hits`]. The type stays only because
/// `benchmark/src/bin/ladder.rs` passes it to `with_model_cap`; ROADMAP
/// item 11 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelBudget {
    /// Stop growing at the cap.
    #[default]
    StopGrowing,
}

/// When OLGAPRO re-learns hyperparameters (§5.3 / Expt 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrainStrategy {
    /// Never retrain after the initial fit.
    Never,
    /// Retrain whenever any training point was added ("eager").
    Eager,
    /// Retrain when the first Newton step exceeds Δθ (the paper's choice;
    /// §6 finds Δθ = 0.05 robust).
    NewtonThreshold(f64),
}

/// Configuration for OLGAPRO (Algorithm 5) and the offline GP evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct OlgaproConfig {
    /// The user accuracy requirement.
    pub accuracy: AccuracyRequirement,
    /// Fraction of ε allocated to MC sampling (Profile 3: 0.7).
    pub mc_fraction: f64,
    /// Local-inference threshold Γ, in absolute output units. The paper
    /// recommends ≈ 5% of the function range (§6, Expt 1).
    pub gamma: f64,
    /// Maximum training points added per input tuple (Expt 2 uses 10).
    pub max_points_per_input: usize,
    /// Retraining strategy.
    pub retrain: RetrainStrategy,
    /// Number of bootstrap UDF evaluations when the model is empty.
    pub bootstrap_points: usize,
    /// Initial kernel lengthscale (relative scale; retraining adapts it).
    pub init_lengthscale: f64,
    /// Initial kernel signal standard deviation.
    pub init_sigma_f: f64,
    /// Maximum GP training-set size; **0 means uncapped** (the default).
    /// Nonzero caps must be at least the bootstrap size
    /// ([`min_model_cap`](OlgaproConfig::min_model_cap)) — set them through
    /// [`with_model_cap`](OlgaproConfig::with_model_cap) /
    /// [`set_model_cap`](OlgaproConfig::set_model_cap), which validate.
    /// At the cap the model stops growing.
    pub max_model_points: usize,
}

impl OlgaproConfig {
    /// Defaults matching the paper's experimental setup for a function with
    /// the given output range estimate.
    pub fn new(accuracy: AccuracyRequirement, output_range: f64) -> Result<Self> {
        if !(output_range > 0.0 && output_range.is_finite()) {
            return Err(CoreError::InvalidConfig {
                what: "output_range",
                value: output_range,
            });
        }
        Ok(OlgaproConfig {
            accuracy,
            mc_fraction: 0.7,
            gamma: 0.05 * output_range,
            max_points_per_input: 10,
            retrain: RetrainStrategy::NewtonThreshold(0.05),
            bootstrap_points: 5,
            init_lengthscale: 1.0,
            init_sigma_f: 1.0,
            max_model_points: 0,
        })
    }

    /// The smallest valid nonzero model cap: the bootstrap size. A cap
    /// below it could never finish bootstrapping.
    pub fn min_model_cap(&self) -> usize {
        self.bootstrap_points.max(2)
    }

    /// Set the model-size budget in place. `n == 0` removes the cap;
    /// nonzero caps below [`min_model_cap`](OlgaproConfig::min_model_cap)
    /// are rejected.
    pub fn set_model_cap(&mut self, n: usize) -> Result<()> {
        if n > 0 && n < self.min_model_cap() {
            return Err(CoreError::InvalidConfig {
                what: "max_model_points",
                value: n as f64,
            });
        }
        self.max_model_points = n;
        Ok(())
    }

    /// Builder-style [`set_model_cap`](OlgaproConfig::set_model_cap);
    /// `_budget` has one possible value.
    pub fn with_model_cap(mut self, n: usize, _budget: ModelBudget) -> Result<Self> {
        self.set_model_cap(n)?;
        Ok(self)
    }

    /// The (ε, δ) split between sampling and GP modeling (Theorem 4.1).
    pub fn split(&self) -> AccuracySplit {
        split_accuracy(self.accuracy.eps, self.accuracy.delta, self.mc_fraction)
    }

    /// MC sample count per input under the sampling share of the budget.
    pub fn samples_per_input(&self) -> usize {
        let s = self.split();
        dkw_samples(self.accuracy.metric, s.eps_mc, s.delta_mc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_ranges() {
        assert!(AccuracyRequirement::new(0.0, 0.05, 0.1, Metric::Ks).is_err());
        assert!(AccuracyRequirement::new(0.1, 1.0, 0.1, Metric::Ks).is_err());
        assert!(AccuracyRequirement::new(0.1, 0.05, -1.0, Metric::Ks).is_err());
        assert!(AccuracyRequirement::new(0.1, 0.05, 0.1, Metric::Discrepancy).is_ok());
        // Non-finite requirements must fail closed, not pass a vacuous
        // range comparison.
        assert!(AccuracyRequirement::new(f64::NAN, 0.05, 0.1, Metric::Ks).is_err());
        assert!(AccuracyRequirement::new(f64::INFINITY, 0.05, 0.1, Metric::Ks).is_err());
        assert!(AccuracyRequirement::new(0.1, f64::NAN, 0.1, Metric::Ks).is_err());
        assert!(AccuracyRequirement::new(0.1, 0.05, f64::NAN, Metric::Ks).is_err());
    }

    #[test]
    fn mc_sample_counts_by_metric() {
        let ks = AccuracyRequirement::new(0.1, 0.05, 0.0, Metric::Ks).unwrap();
        let d = AccuracyRequirement::new(0.1, 0.05, 0.0, Metric::Discrepancy).unwrap();
        // Discrepancy needs 4x the samples (ε/2 in the DKW bound).
        assert_eq!(d.mc_samples(), udf_prob::bounds::mc_samples_ks(0.05, 0.05));
        assert!(d.mc_samples() > 3 * ks.mc_samples());
    }

    #[test]
    fn sample_counts_saturate_where_a_share_underflows() {
        // Both accuracies are valid; neither may trip the DKW asserts.
        for metric in [Metric::Ks, Metric::Discrepancy] {
            let tiny_eps = AccuracyRequirement::new(5e-324, 0.05, 0.0, metric).unwrap();
            assert_eq!(tiny_eps.mc_samples(), usize::MAX);
            let tiny_delta = AccuracyRequirement::new(0.1, 1e-17, 0.0, metric).unwrap();
            assert!(tiny_delta.mc_samples() < 100_000, "δ enters by its log");
            for acc in [tiny_eps, tiny_delta] {
                let cfg = OlgaproConfig::new(acc, 1.0).unwrap();
                assert_eq!(cfg.samples_per_input(), usize::MAX);
            }
        }
    }

    #[test]
    fn config_split_consistent() {
        let acc = AccuracyRequirement::paper_default(0.1);
        let cfg = OlgaproConfig::new(acc, 10.0).unwrap();
        let s = cfg.split();
        assert!((s.eps_mc + s.eps_gp - 0.1).abs() < 1e-12);
        assert!((cfg.gamma - 0.5).abs() < 1e-12);
        assert!(cfg.samples_per_input() > 0);
    }

    #[test]
    fn model_cap_validation() {
        let acc = AccuracyRequirement::paper_default(0.1);
        let cfg = OlgaproConfig::new(acc, 10.0).unwrap();
        assert_eq!(cfg.max_model_points, 0, "default is uncapped");
        assert_eq!(cfg.min_model_cap(), 5);
        // 0 clears the cap; caps >= bootstrap are fine; 1..bootstrap never
        // finish bootstrapping.
        assert!(cfg
            .clone()
            .with_model_cap(0, ModelBudget::StopGrowing)
            .is_ok());
        assert!(cfg
            .clone()
            .with_model_cap(5, ModelBudget::StopGrowing)
            .is_ok());
        for bad in 1..5 {
            assert!(
                cfg.clone()
                    .with_model_cap(bad, ModelBudget::StopGrowing)
                    .is_err(),
                "cap {bad} is below the bootstrap size"
            );
        }
    }

    #[test]
    fn rejects_bad_range() {
        let acc = AccuracyRequirement::paper_default(0.1);
        assert!(OlgaproConfig::new(acc, 0.0).is_err());
        assert!(OlgaproConfig::new(acc, f64::INFINITY).is_err());
    }
}
