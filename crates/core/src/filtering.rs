//! Online filtering with selection predicates (§2.2-B, Remark 2.1, §5.5).
//!
//! Queries like Q2 keep a tuple only when `Pr[f(X) ∈ [a, b]] ≥ θ`. Both
//! evaluators can decide *early*:
//!
//! * **MC**: after `m̃ ≤ m` samples the Hoeffding interval
//!   `ρ̃ ± sqrt(ln(2/δ)/(2m̃))` brackets the TEP; when `ρ̃ + ε̃ < θ` the tuple
//!   is dropped without drawing the remaining samples.
//! * **GP**: the envelope upper bound `ρ_U = F_S(b) − F_L(a)` (Eq. 3)
//!   already dominates the TEP with probability `1 − α`; when `ρ_U < θ` the
//!   tuple is dropped. The batch fast path
//!   (`Olgapro::infer_ruled_with`) counts ρ_U off the band as it is
//!   inferred, block by block like the MC batches, and drops without
//!   tuning — or sorting, or inferring the samples a drop no longer needs;
//!   [`gp_filtered`], the slow path, rules the tuple it has just tuned.

use crate::config::AccuracyRequirement;
use crate::mc::McEvaluator;
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
        if !lo.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "predicate lower bound",
                value: lo,
            });
        }
        if !hi.is_finite() {
            return Err(CoreError::InvalidConfig {
                what: "predicate upper bound",
                value: hi,
            });
        }
        if lo >= hi {
            return Err(CoreError::InvalidConfig {
                what: "predicate interval",
                value: hi - lo,
            });
        }
        if !(theta > 0.0 && theta < 1.0) {
            return Err(CoreError::InvalidConfig {
                what: "theta",
                value: theta,
            });
        }
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

    /// Convert a kept tuple's output, leaving a filtered one as it is.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> FilterDecision<U> {
        match self {
            FilterDecision::Kept { output, tep } => FilterDecision::Kept {
                output: f(output),
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

/// MC evaluation with early filtering (Algorithm 1 + Remark 2.1).
///
/// Samples are drawn in batches; after each batch the Hoeffding interval is
/// checked. δ for the interval comes from the accuracy requirement.
pub fn mc_filtered(
    udf: &BlackBoxUdf,
    input: &InputDistribution,
    accuracy: &AccuracyRequirement,
    predicate: &Predicate,
    rng: &mut dyn rand::RngCore,
) -> Result<FilterDecision<OutputDistribution>> {
    if input.dim() != udf.dim() {
        return Err(CoreError::DimensionMismatch {
            expected: udf.dim(),
            found: input.dim(),
        });
    }
    let m = accuracy.mc_samples();
    let batch = 64usize;
    let calls_before = udf.calls();
    let mut outputs = Vec::with_capacity(m);
    let mut hits = 0usize;
    let mut x = vec![0.0; input.dim()];
    while outputs.len() < m {
        let take = batch.min(m - outputs.len());
        for _ in 0..take {
            input.sample_into(rng, &mut x);
            let y = udf.eval(&x);
            if !y.is_finite() {
                return Err(CoreError::NonFiniteUdfOutput {
                    input: x.clone(),
                    value: y,
                });
            }
            if y >= predicate.lo && y <= predicate.hi {
                hits += 1;
            }
            outputs.push(y);
        }
        let m_tilde = outputs.len();
        let rho_tilde = hits as f64 / m_tilde as f64;
        let eps_tilde = hoeffding_halfwidth(m_tilde, accuracy.delta);
        if rho_tilde + eps_tilde < predicate.theta {
            return Ok(FilterDecision::Filtered {
                rho_upper: rho_tilde + eps_tilde,
                udf_calls: udf.calls() - calls_before,
            });
        }
    }
    let tep = hits as f64 / outputs.len() as f64;
    Ok(FilterDecision::Kept {
        output: OutputDistribution {
            ecdf: Ecdf::new(outputs)?,
            error_bound: accuracy.eps,
            udf_calls: udf.calls() - calls_before,
        },
        tep,
    })
}

/// One MC tuple on a (possibly parallel) batch path: fork the UDF's call
/// counter so per-tuple accounting stays exact under concurrency, then run
/// [`mc_filtered`] when a predicate is attached or plain Algorithm 1
/// otherwise (unfiltered tuples are kept with TEP 1). The MC half of the
/// batch operator ([`crate::batch::Evaluator`]).
pub fn mc_eval_tuple(
    udf: &BlackBoxUdf,
    input: &InputDistribution,
    accuracy: &AccuracyRequirement,
    predicate: Option<&Predicate>,
    rng: &mut dyn rand::RngCore,
) -> Result<FilterDecision<OutputDistribution>> {
    let local_udf = udf.fork_counter();
    match predicate {
        Some(p) => mc_filtered(&local_udf, input, accuracy, p, rng),
        None => McEvaluator::new(local_udf)
            .compute(input, accuracy, rng)
            .map(|output| FilterDecision::Kept { output, tep: 1.0 }),
    }
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

    #[test]
    fn mc_filters_impossible_event_early() {
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        // Event 50σ away: essentially probability 0.
        let pred = Predicate::new(50.0, 51.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(20);
        let d = mc_filtered(&udf, &input, &acc(), &pred, &mut rng).unwrap();
        match d {
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
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        let pred = Predicate::new(-10.0, 10.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        match mc_filtered(&udf, &input, &acc(), &pred, &mut rng).unwrap() {
            FilterDecision::Kept { tep, output } => {
                assert!(tep > 0.99);
                assert_eq!(output.udf_calls as usize, acc().mc_samples());
            }
            FilterDecision::Filtered { .. } => panic!("should have kept"),
        }
    }

    #[test]
    fn mc_borderline_event_is_kept() {
        // TEP ≈ 0.5 with θ = 0.1 must never be filtered.
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
        let pred = Predicate::new(0.0, 100.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        assert!(!mc_filtered(&udf, &input, &acc(), &pred, &mut rng)
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
