//! The Monte Carlo evaluator (§2.2-A, Algorithm 1) and online filtering
//! with selection predicates (§2.2-B, Remark 2.1, §5.5).
//!
//! Queries like Q2 keep a tuple only when `Pr[f(X) ∈ [a, b]] ≥ θ`. Both
//! evaluators can decide *early*:
//!
//! * **MC** ([`mc_eval_tuple`]): after `m̃ ≤ m` samples the Hoeffding interval
//!   `ρ̃ ± sqrt(ln(2/δ)/(2m̃))` brackets the TEP; when `ρ̃ + ε̃ < θ` the tuple
//!   is dropped without drawing the remaining samples.
//! * **GP**: the envelope upper bound `ρ_U = F_S(b) − F_L(a)` (Eq. 3)
//!   already dominates the TEP with probability `1 − α`; when `ρ_U < θ` the
//!   tuple is dropped. The batch fast path
//!   (`Olgapro::infer_ruled_with`) counts ρ_U off the band as it is
//!   inferred, block by block like the MC checks, and drops without
//!   tuning — or sorting, or inferring the samples a drop no longer needs;
//!   [`gp_filtered`], the slow path, rules the tuple it has just tuned.

use crate::config::AccuracyRequirement;
use crate::olgapro::Olgapro;
use crate::output::{GpOutput, OutputDistribution};
use crate::udf::BlackBoxUdf;
use crate::{CoreError, Result};
use udf_prob::bounds::hoeffding_halfwidth;
use udf_prob::{Ecdf, InputDistribution};

/// A selection predicate `f(X) ∈ [lo, hi]` with TEP threshold θ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Interval lower bound `a`.
    pub lo: f64,
    /// Interval upper bound `b`.
    pub hi: f64,
    /// Minimum tuple-existence probability θ to keep the tuple.
    pub theta: f64,
}

impl Predicate {
    /// Validated constructor: the interval must be finite and non-empty
    /// (`lo < hi`; NaN bounds are rejected, not silently accepted by a
    /// vacuous comparison) and θ must lie strictly inside `(0, 1)`.
    pub fn new(lo: f64, hi: f64, theta: f64) -> Result<Self> {
        CoreError::check(lo.is_finite(), "predicate lower bound", lo)?;
        CoreError::check(hi.is_finite(), "predicate upper bound", hi)?;
        CoreError::check(lo < hi, "predicate interval", hi - lo)?;
        CoreError::check(theta > 0.0 && theta < 1.0, "theta", theta)?;
        Ok(Predicate { lo, hi, theta })
    }
}

/// The outcome of filtered evaluation.
#[derive(Debug, Clone)]
pub enum FilterDecision<T> {
    /// Tuple dropped: the TEP upper bound fell below θ.
    Filtered {
        /// Upper bound on the TEP at the decision point, below θ: Remark
        /// 2.1's `ρ̃ + ε̃` on the MC path, the envelope ρ_U on the GP paths.
        /// A tuple the GP fast path drops before its last sample reports
        /// the count that settled it — the samples inferred so far, the
        /// rest counted as inside `[lo, hi]` (`Olgapro::infer_ruled_with`)
        /// — which may exceed the ρ_U of all of them.
        rho_upper: f64,
        /// UDF calls spent before deciding.
        udf_calls: u64,
    },
    /// Tuple kept, with its output distribution and TEP estimate.
    Kept {
        /// The computed output.
        output: T,
        /// Estimated tuple-existence probability.
        tep: f64,
    },
}

impl<T> FilterDecision<T> {
    /// True when the tuple was dropped.
    pub fn is_filtered(&self) -> bool {
        matches!(self, FilterDecision::Filtered { .. })
    }

    /// Convert a kept tuple's output and TEP, leaving a filtered one as it is.
    pub(crate) fn map<U>(self, f: impl FnOnce(T, f64) -> U) -> FilterDecision<U> {
        match self {
            FilterDecision::Kept { output, tep } => FilterDecision::Kept {
                output: f(output, tep),
                tep,
            },
            FilterDecision::Filtered {
                rho_upper,
                udf_calls,
            } => FilterDecision::Filtered {
                rho_upper,
                udf_calls,
            },
        }
    }
}

/// Algorithm 1 on one tuple: draw `accuracy.mc_samples()` input samples,
/// evaluate the UDF on each and return the empirical CDF. With
/// `m = ln(2/δ)/(2ε²)` the result is an (ε, δ)-approximation in KS distance
/// and a (2ε, δ)-approximation in discrepancy \[23\].
///
/// With a predicate attached, Remark 2.1's Hoeffding interval is checked
/// after every 64 samples and after the last; the tuple is dropped as soon
/// as `ρ̃ + ε̃ < θ`, and kept at `ρ̃` otherwise. Without one, the tuple is
/// kept with TEP 1. `udf_calls` is the number of samples evaluated. The MC
/// half of the batch operator ([`crate::batch::Evaluator`]).
pub fn mc_eval_tuple(
    udf: &BlackBoxUdf,
    input: &InputDistribution,
    accuracy: &AccuracyRequirement,
    predicate: Option<&Predicate>,
    rng: &mut dyn rand::RngCore,
) -> Result<FilterDecision<OutputDistribution>> {
    udf.check_input(input)?;
    let m = accuracy.mc_samples();
    let mut outputs = Vec::with_capacity(m);
    let mut hits = 0usize;
    let mut x = vec![0.0; input.dim()];
    for _ in 0..m {
        input.sample_into(rng, &mut x);
        let y = udf.eval(&x);
        if !y.is_finite() {
            return Err(CoreError::NonFiniteUdfOutput {
                input: x.clone(),
                value: y,
            });
        }
        outputs.push(y);
        let Some(p) = predicate else { continue };
        hits += usize::from(y >= p.lo && y <= p.hi);
        let m_tilde = outputs.len();
        if m_tilde % 64 == 0 || m_tilde == m {
            let rho_upper =
                hits as f64 / m_tilde as f64 + hoeffding_halfwidth(m_tilde, accuracy.delta);
            if rho_upper < p.theta {
                return Ok(FilterDecision::Filtered {
                    rho_upper,
                    udf_calls: m_tilde as u64,
                });
            }
        }
    }
    let tep = predicate.map_or(1.0, |_| hits as f64 / m as f64);
    Ok(FilterDecision::Kept {
        output: OutputDistribution {
            ecdf: Ecdf::new(outputs)?,
            error_bound: accuracy.eps,
            udf_calls: m as u64,
        },
        tep,
    })
}

/// GP evaluation with filtering (§5.5): process the input with OLGAPRO and
/// drop the tuple when the envelope upper bound on the TEP is below θ.
///
/// The tuple is fully tuned by [`Olgapro::process`] first and ruled on the
/// output that emits — dropping *without* tuning is the batch fast path's
/// job (`Olgapro::infer_ruled_with`). A loose band inflates `ρ_U`, never
/// deflating it below θ spuriously, so the decision is sound with
/// probability `1 − α` on either path.
pub fn gp_filtered(
    olgapro: &mut Olgapro,
    input: &InputDistribution,
    predicate: &Predicate,
    rng: &mut dyn rand::RngCore,
) -> Result<FilterDecision<GpOutput>> {
    Ok(rule_tuned(olgapro.process(input, rng)?, predicate))
}

/// [`gp_filtered`]'s ruling on an output [`Olgapro::process`] returned:
/// dropped at its `ρ_U` with the UDF calls its tuning spent, or kept at
/// `ρ̂`.
pub(crate) fn rule_tuned(out: GpOutput, predicate: &Predicate) -> FilterDecision<GpOutput> {
    let (_, rho_hat, rho_u) = out.tep_bounds(predicate.lo, predicate.hi);
    if rho_u < predicate.theta {
        FilterDecision::Filtered {
            rho_upper: rho_u,
            udf_calls: out.udf_calls,
        }
    } else {
        FilterDecision::Kept {
            output: out,
            tep: rho_hat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Metric, OlgaproConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn acc() -> AccuracyRequirement {
        AccuracyRequirement::new(0.05, 0.05, 0.0, Metric::Ks).unwrap()
    }

    #[test]
    fn predicate_validation() {
        assert!(Predicate::new(1.0, 0.0, 0.1).is_err());
        assert!(Predicate::new(0.0, 1.0, 0.0).is_err());
        assert!(Predicate::new(0.0, 1.0, 0.1).is_ok());
        // Empty interval.
        assert!(Predicate::new(1.0, 1.0, 0.1).is_err());
        // Non-finite bounds must not slip through a vacuous comparison.
        assert!(Predicate::new(f64::NAN, 1.0, 0.1).is_err());
        assert!(Predicate::new(0.0, f64::NAN, 0.1).is_err());
        assert!(Predicate::new(f64::NEG_INFINITY, 1.0, 0.1).is_err());
        assert!(Predicate::new(0.0, f64::INFINITY, 0.1).is_err());
        // θ at the boundaries and NaN.
        assert!(Predicate::new(0.0, 1.0, 1.0).is_err());
        assert!(Predicate::new(0.0, 1.0, f64::NAN).is_err());
    }

    fn mc(
        udf: &BlackBoxUdf,
        input: &InputDistribution,
        acc: &AccuracyRequirement,
        pred: Option<&Predicate>,
        seed: u64,
    ) -> Result<FilterDecision<OutputDistribution>> {
        mc_eval_tuple(udf, input, acc, pred, &mut StdRng::seed_from_u64(seed))
    }

    fn kept(d: FilterDecision<OutputDistribution>) -> (OutputDistribution, f64) {
        match d {
            FilterDecision::Kept { output, tep } => (output, tep),
            FilterDecision::Filtered { .. } => panic!("should have kept"),
        }
    }

    fn normal() -> InputDistribution {
        InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap()
    }

    /// One-sample KS distance between an empirical CDF and N(0, 1)'s.
    fn ks_to_normal(e: &Ecdf) -> f64 {
        let m = e.len() as f64;
        let mut best = 0.0f64;
        for (i, &x) in e.values().iter().enumerate() {
            let fx = udf_prob::special::norm_cdf(x);
            best = best
                .max(((i + 1) as f64 / m - fx).abs())
                .max((fx - i as f64 / m).abs());
        }
        best
    }

    #[test]
    fn linear_gaussian_passthrough_meets_ks_bound() {
        // f(x) = x on N(0,1): output should be N(0,1); check the KS distance
        // against the analytic CDF stays within the requested ε.
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let (out, tep) = kept(mc(&udf, &normal(), &acc(), None, 1).unwrap());
        assert_eq!(tep, 1.0);
        assert_eq!(out.udf_calls as usize, acc().mc_samples());
        let d = ks_to_normal(&out.ecdf);
        assert!(d <= 0.05, "KS = {d}");
    }

    #[test]
    fn nonlinear_output_is_non_gaussian() {
        // f(x) = x² on N(0,1) is chi-squared(1): strongly right-skewed.
        let udf = BlackBoxUdf::from_fn("sq", 1, |x| x[0] * x[0]);
        let (out, _) = kept(mc(&udf, &normal(), &acc(), None, 2).unwrap());
        // Median of chi-squared(1) ≈ 0.455; KS ε = 0.05 near a density of
        // ~0.47 permits a quantile error of ~0.11.
        let med = out.ecdf.quantile(0.5);
        assert!((med - 0.455).abs() < 0.15, "median {med}");
        assert!(out.ecdf.min() >= 0.0);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let udf = BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]);
        let acc = AccuracyRequirement::paper_default(0.0);
        assert!(matches!(
            mc(&udf, &normal(), &acc, None, 3),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_udf_output_reported() {
        let udf = BlackBoxUdf::from_fn("bad", 1, |x| 1.0 / (x[0] - x[0])); // NaN
        assert!(matches!(
            mc(&udf, &normal(), &acc(), None, 4),
            Err(CoreError::NonFiniteUdfOutput { .. })
        ));
    }

    #[test]
    fn mc_predicate_that_never_drops_changes_nothing() {
        // One loop serves both cases: a predicate whose bound never falls
        // below θ draws the same samples, in the same order, as none.
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let pred = Predicate::new(-2.0, 2.0, 0.5).unwrap();
        for seed in 0..8 {
            let (plain, _) = kept(mc(&udf, &normal(), &acc(), None, seed).unwrap());
            let (ruled, tep) = kept(mc(&udf, &normal(), &acc(), Some(&pred), seed).unwrap());
            assert_eq!(tep, 1.0, "seed {seed}");
            assert_eq!(plain.udf_calls as usize, acc().mc_samples(), "seed {seed}");
            assert_eq!(ruled.udf_calls, plain.udf_calls, "seed {seed}");
            let bits = |o: &OutputDistribution| -> Vec<u64> {
                o.ecdf.values().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&ruled), bits(&plain), "seed {seed}");
        }
    }

    #[test]
    fn mc_filters_impossible_event_early() {
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        // Event 50σ away: essentially probability 0.
        let pred = Predicate::new(50.0, 51.0, 0.1).unwrap();
        match mc(&udf, &normal(), &acc(), Some(&pred), 20).unwrap() {
            FilterDecision::Filtered { udf_calls, .. } => {
                assert!(
                    (udf_calls as usize) < acc().mc_samples() / 2,
                    "early stop expected, used {udf_calls} calls"
                );
            }
            FilterDecision::Kept { .. } => panic!("should have filtered"),
        }
    }

    #[test]
    fn mc_keeps_certain_event() {
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let pred = Predicate::new(-10.0, 10.0, 0.5).unwrap();
        let (output, tep) = kept(mc(&udf, &normal(), &acc(), Some(&pred), 21).unwrap());
        assert!(tep > 0.99);
        assert_eq!(output.udf_calls as usize, acc().mc_samples());
    }

    #[test]
    fn mc_borderline_event_is_kept() {
        // TEP ≈ 0.5 with θ = 0.1 must never be filtered.
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let pred = Predicate::new(0.0, 100.0, 0.1).unwrap();
        assert!(!mc(&udf, &normal(), &acc(), Some(&pred), 22)
            .unwrap()
            .is_filtered());
    }

    #[test]
    fn gp_filters_far_predicate() {
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
        let cfg = OlgaproConfig::new(acc, 2.0).unwrap();
        let mut olga = Olgapro::new(udf, cfg);
        let mut rng = StdRng::seed_from_u64(23);
        let input = InputDistribution::diagonal_gaussian(&[(5.0, 0.3)]).unwrap();
        // Output lives in [-1, 1]; the predicate asks for [10, 11].
        let pred = Predicate::new(10.0, 11.0, 0.1).unwrap();
        let d = gp_filtered(&mut olga, &input, &pred, &mut rng).unwrap();
        assert!(d.is_filtered(), "far predicate must filter");
        // And a predicate covering the whole range must keep.
        let pred2 = Predicate::new(-2.0, 2.0, 0.5).unwrap();
        let d2 = gp_filtered(&mut olga, &input, &pred2, &mut rng).unwrap();
        match d2 {
            FilterDecision::Kept { tep, .. } => assert!(tep > 0.9),
            FilterDecision::Filtered { .. } => panic!("should keep"),
        }
    }
}
