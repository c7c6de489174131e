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
//!   ([`Olgapro::infer_ruled_with`]) counts ρ_U off the band as it is
//!   inferred, block by block like the MC batches, and drops without
//!   tuning — or sorting, or inferring the samples a drop no longer needs;
//!   [`gp_filtered`], the slow path, rules the tuple it has just tuned.

use crate::config::AccuracyRequirement;
use crate::mc::McEvaluator;
use crate::olgapro::Olgapro;
use crate::output::{GpOutput, OutputDistribution};
use crate::udf::BlackBoxUdf;
use crate::{CoreError, Result};
use udf_gp::band::BandBoxBound;
use udf_gp::local::select_local;
use udf_prob::bounds::hoeffding_halfwidth;
use udf_prob::{Ecdf, InputDistribution};
use udf_spatial::BoundingBox;

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
        /// rest counted as inside `[lo, hi]` ([`Olgapro::infer_ruled_with`])
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
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> FilterDecision<U> {
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
/// job ([`Olgapro::infer_ruled_with`]). A loose band inflates `ρ_U`, never
/// deflating it below θ spuriously, so the decision is sound with
/// probability `1 − α` on either path.
pub fn gp_filtered(
    olgapro: &mut Olgapro,
    input: &InputDistribution,
    predicate: &Predicate,
    rng: &mut dyn rand::RngCore,
) -> Result<FilterDecision<GpOutput>> {
    let calls_before = olgapro.udf().calls();
    let out = olgapro.process(input, rng)?;
    let (_, rho_hat, rho_u) = out.tep_bounds(predicate.lo, predicate.hi);
    if rho_u < predicate.theta {
        Ok(FilterDecision::Filtered {
            rho_upper: rho_u,
            udf_calls: olgapro.udf().calls() - calls_before,
        })
    } else {
        Ok(FilterDecision::Kept {
            output: out,
            tep: rho_hat,
        })
    }
}

/// What the §4.2 box certificate can prove about a predicate over an input
/// region, *without* per-sample inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeDecision {
    /// Every sample's band value provably falls outside `[lo, hi]`, so the
    /// envelope TEP upper bound `ρ_U = F_S(b) − F_L(a)` is exactly 0 — the
    /// fast path's accept hook would rule
    /// [`Verdict::Filter`](crate::sched::Verdict::Filter) with certainty.
    DefiniteReject,
    /// Every sample's band lies strictly inside `[lo, hi]`, so the TEP
    /// lower bound `ρ_L` is exactly 1 ≥ θ: the tuple certainly survives
    /// the filter (it still needs evaluation to produce its output
    /// distribution).
    DefiniteAccept,
    /// The box bracket cannot decide; evaluate normally.
    Undecided,
}

/// Refinement budget for [`envelope_certify`]: each level bisects an
/// undecided box along its longest axis, so the worst case evaluates
/// `2^MAX_REFINE_DEPTH` brackets (with early exit on the first box that
/// stays undecided at the bottom).
const MAX_REFINE_DEPTH: usize = 6;

/// Internal per-box classification for [`envelope_certify`].
#[derive(Clone, Copy, PartialEq)]
enum BoxClass {
    /// The whole band over the box is outside `[lo, hi]` (above *or*
    /// below — both zero out the box's contribution to `ρ_U`).
    Outside,
    /// The whole band over the box is strictly inside `[lo, hi]`.
    Inside,
    /// Undecidable at the refinement budget.
    Mixed,
}

/// The §5.5 envelope certificate over an input box (Remark 2.1's spirit
/// applied to the GP band of §4.2): decide
/// `Pr[f(X) ∈ [lo, hi]] ≥ θ` from band *bounds over the box* instead of
/// per-sample inference.
///
/// `bbox` must be the bounding box of the samples the fast path would
/// draw, and `z_alpha` the simultaneous band multiplier it would use
/// ([`udf_gp::band::simultaneous_z`] on that same box) — then the
/// certificate is **exact** with respect to the fast path:
///
/// * every sample's lower-envelope value is `f̂(x) − z_α σ(x)` for some
///   `x ∈ bbox`; if each refinement sub-box's band bracket is entirely
///   above `hi` or entirely below `lo`, each sample contributes either
///   `0 − 0` (band above) or `1 − 1` (band below) to
///   `ρ_U = F_S(hi) − F_L(lo)`, so `ρ_U = 0 < θ` exactly and the accept
///   hook would have filtered the tuple at fast-path cost
///   ([`DefiniteReject`](EnvelopeDecision::DefiniteReject));
/// * if every sub-box's band is strictly inside, `ρ_L = 1 ≥ θ`
///   ([`DefiniteAccept`](EnvelopeDecision::DefiniteAccept)).
///
/// The bracket is evaluated against the same training subset the fast
/// path's local inference would select (empty selection falls back to the
/// whole model, exactly like inference does). A cold model returns
/// [`Undecided`](EnvelopeDecision::Undecided) — callers must then evaluate
/// normally, which is always sound.
pub fn envelope_certify(
    olga: &Olgapro,
    bbox: &BoundingBox,
    z_alpha: f64,
    pred: &Predicate,
) -> EnvelopeDecision {
    envelope_certify_gap(olga, bbox, z_alpha, pred).0
}

/// [`envelope_certify`] plus a root-cause diagnostic: how far the
/// *root-box* band bracket was from any certificate.
///
/// The gap is the smallest width (in output units) by which the bracket
/// `[band_lo, band_hi]` would have to tighten for one of the three
/// certificates to hold at the root: band entirely above `pred.hi`, band
/// entirely below `pred.lo`, or band strictly inside `[pred.lo, pred.hi]`.
/// A decision certified at the root has gap 0; refinement can still decide
/// a positive-gap box, so the gap measures *difficulty*, not the verdict.
/// [`f64::INFINITY`] means no bracket was computable (cold model, failed
/// factorization) — consumers exporting JSON get `null` there.
pub fn envelope_certify_gap(
    olga: &Olgapro,
    bbox: &BoundingBox,
    z_alpha: f64,
    pred: &Predicate,
) -> (EnvelopeDecision, f64) {
    let model = olga.model();
    if model.is_empty() {
        return (EnvelopeDecision::Undecided, f64::INFINITY);
    }
    let indices = match select_local(model, bbox, olga.config().gamma) {
        Ok(sel) if !sel.indices.is_empty() => sel.indices,
        Ok(_) => (0..model.len()).collect(),
        Err(_) => return (EnvelopeDecision::Undecided, f64::INFINITY),
    };
    let Ok(bound) = BandBoxBound::new(model, indices) else {
        return (EnvelopeDecision::Undecided, f64::INFINITY);
    };
    let gap = match bound.bracket(bbox, z_alpha) {
        Ok((band_lo, band_hi)) => certificate_gap(band_lo, band_hi, pred),
        Err(_) => f64::INFINITY,
    };
    let decision = match classify_box(&bound, bbox, z_alpha, pred, MAX_REFINE_DEPTH) {
        BoxClass::Outside => EnvelopeDecision::DefiniteReject,
        BoxClass::Inside => EnvelopeDecision::DefiniteAccept,
        BoxClass::Mixed => EnvelopeDecision::Undecided,
    };
    (decision, gap)
}

/// Distance from the root bracket `[band_lo, band_hi]` to the nearest
/// certificate (see [`envelope_certify_gap`]). NaN inputs yield infinity.
fn certificate_gap(band_lo: f64, band_hi: f64, pred: &Predicate) -> f64 {
    // Outside-above needs band_lo > pred.hi: short by (pred.hi − band_lo).
    let above = (pred.hi - band_lo).max(0.0);
    // Outside-below needs band_hi < pred.lo: short by (band_hi − pred.lo).
    let below = (band_hi - pred.lo).max(0.0);
    // Inside needs band_lo > pred.lo and band_hi < pred.hi.
    let inside = (pred.lo - band_lo).max(0.0) + (band_hi - pred.hi).max(0.0);
    let gap = above.min(below).min(inside);
    if gap.is_nan() {
        f64::INFINITY
    } else {
        gap
    }
}

fn classify_box(
    bound: &BandBoxBound<'_>,
    bbox: &BoundingBox,
    z_alpha: f64,
    pred: &Predicate,
    depth: usize,
) -> BoxClass {
    let Ok((band_lo, band_hi)) = bound.bracket(bbox, z_alpha) else {
        return BoxClass::Mixed;
    };
    // Strict comparisons: boundary ties could land a sample's envelope
    // value exactly on an ECDF step.
    if band_lo > pred.hi || band_hi < pred.lo {
        return BoxClass::Outside;
    }
    if band_lo > pred.lo && band_hi < pred.hi {
        return BoxClass::Inside;
    }
    if depth == 0 {
        return BoxClass::Mixed;
    }
    let mut combined: Option<BoxClass> = None;
    for child in bbox.bisect(1) {
        let c = classify_box(bound, &child, z_alpha, pred, depth - 1);
        if c == BoxClass::Mixed {
            return BoxClass::Mixed;
        }
        match combined {
            None => combined = Some(c),
            // Outside + Inside children: some samples are certainly in the
            // interval and some certainly out — neither verdict holds.
            Some(prev) if prev != c => return BoxClass::Mixed,
            Some(_) => {}
        }
    }
    combined.unwrap_or(BoxClass::Mixed)
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

    /// The certificate must agree *exactly* with the fast path: a
    /// DefiniteReject box has sample-envelope ρ_U = 0, a DefiniteAccept box
    /// has ρ_L = 1, for the very samples `infer_only` would draw.
    #[test]
    fn envelope_certificate_is_exact_wrt_fast_path() {
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
        let cfg = OlgaproConfig::new(acc, 2.0).unwrap();
        let mut olga = Olgapro::new(udf, cfg);
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..10 {
            let input = InputDistribution::diagonal_gaussian(&[(0.8 * i as f64, 0.25)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }

        // sin(0.8x) ∈ [−1, 1]: [5, 6] is certainly-rejectable, [−2, 2] is
        // certainly-acceptable once the model is warm.
        let reject = Predicate::new(5.0, 6.0, 0.3).unwrap();
        let accept = Predicate::new(-2.0, 2.0, 0.3).unwrap();
        let m = olga.config().samples_per_input();
        let delta_gp = olga.config().split().delta_gp;
        let (mut rejects, mut accepts) = (0, 0);
        for i in 0..10 {
            let input =
                InputDistribution::diagonal_gaussian(&[(0.4 + 0.7 * i as f64, 0.2)]).unwrap();
            let seed = 1000 + i;
            let samples = input.sample_n(&mut StdRng::seed_from_u64(seed), m);
            let bbox = udf_spatial::BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
            let z = udf_gp::band::simultaneous_z(olga.model().kernel(), &bbox, delta_gp);
            let out = olga
                .infer_only(&input, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            for (pred, which) in [(&reject, "reject"), (&accept, "accept")] {
                let (rho_l, _, rho_u) = out.tep_bounds(pred.lo, pred.hi);
                match envelope_certify(&olga, &bbox, z, pred) {
                    EnvelopeDecision::DefiniteReject => {
                        rejects += 1;
                        assert_eq!(rho_u, 0.0, "{which} input {i}: certified but ρ_U > 0");
                    }
                    EnvelopeDecision::DefiniteAccept => {
                        accepts += 1;
                        assert_eq!(rho_l, 1.0, "{which} input {i}: certified but ρ_L < 1");
                    }
                    EnvelopeDecision::Undecided => {}
                }
            }
        }
        assert!(rejects > 0, "warm model never certified a far predicate");
        assert!(
            accepts > 0,
            "warm model never certified a covering predicate"
        );
    }

    #[test]
    fn envelope_certificate_is_undecided_when_cold() {
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
        let cfg = OlgaproConfig::new(acc, 2.0).unwrap();
        let olga = Olgapro::new(udf, cfg);
        let bbox = udf_spatial::BoundingBox::new(vec![0.0], vec![1.0]);
        let pred = Predicate::new(5.0, 6.0, 0.3).unwrap();
        assert_eq!(
            envelope_certify(&olga, &bbox, 3.0, &pred),
            EnvelopeDecision::Undecided,
            "empty model must never certify"
        );
        let (decision, gap) = envelope_certify_gap(&olga, &bbox, 3.0, &pred);
        assert_eq!(decision, EnvelopeDecision::Undecided);
        assert!(
            gap.is_infinite(),
            "cold model has no bracket, gap must be ∞ (got {gap})"
        );
    }

    #[test]
    fn certificate_gap_measures_distance_to_each_certificate() {
        let pred = Predicate::new(0.0, 1.0, 0.3).unwrap();
        // Band already entirely above the interval: certified, gap 0.
        assert_eq!(certificate_gap(2.0, 3.0, &pred), 0.0);
        // Band already entirely below: gap 0.
        assert_eq!(certificate_gap(-3.0, -2.0, &pred), 0.0);
        // Band strictly inside: gap 0.
        assert_eq!(certificate_gap(0.25, 0.75, &pred), 0.0);
        // Band [0.9, 1.5]: above needs band_lo > 1 (short 0.1); inside
        // needs band_hi < 1 (short 0.5); below needs band_hi < 0 (short
        // 1.5). Nearest certificate is 0.1 away.
        assert!((certificate_gap(0.9, 1.5, &pred) - 0.1).abs() < 1e-12);
        // Band [-0.5, 0.2]: below is 0.2 away, inside is 0.5 away, above
        // is 1.5 away.
        assert!((certificate_gap(-0.5, 0.2, &pred) - 0.2).abs() < 1e-12);
        // A wide straddling band is far from everything: above needs
        // band_lo > 1 (short 3), below needs band_hi < 0 (short 3),
        // inside needs both ends pulled in (short 2 + 2 = 4).
        let g = certificate_gap(-2.0, 3.0, &pred);
        assert!((g - 3.0).abs() < 1e-12, "straddle gap = {g}");
    }

    #[test]
    fn envelope_gap_is_zero_when_root_bracket_certifies() {
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
        let cfg = OlgaproConfig::new(acc, 2.0).unwrap();
        let mut olga = Olgapro::new(udf, cfg);
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..10 {
            let input = InputDistribution::diagonal_gaussian(&[(0.8 * i as f64, 0.25)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }
        // sin(0.8x) ∈ [−1, 1]: a far predicate certifies at the root.
        let pred = Predicate::new(50.0, 51.0, 0.3).unwrap();
        let bbox = udf_spatial::BoundingBox::new(vec![1.0], vec![2.0]);
        let z = udf_gp::band::simultaneous_z(olga.model().kernel(), &bbox, 0.05);
        let (decision, gap) = envelope_certify_gap(&olga, &bbox, z, &pred);
        assert_eq!(decision, EnvelopeDecision::DefiniteReject);
        assert_eq!(gap, 0.0, "root-certified decision must have zero gap");
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
