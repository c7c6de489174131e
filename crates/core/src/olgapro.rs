//! OLGAPRO — the ONline GAussian PROcess algorithm (§5, Algorithm 5).
//!
//! Starting from *no* training data, each input tuple is processed by:
//!
//! 1. drawing `m` Monte Carlo samples of the input (m from ε_MC);
//! 2. selecting a training subset by **local inference** around the sample
//!    bounding box (threshold Γ, §5.1);
//! 3. inferring the posterior at every sample, building the three envelope
//!    ECDFs, and computing the Algorithm-3 error bound;
//! 4. **online tuning** (§5.2): while the bound exceeds ε_GP, evaluate the
//!    UDF at the sample with the largest posterior variance, add it to the
//!    model via the incremental Cholesky update, and repeat — the repeat
//!    being incremental too: the tuple's kernel matrix, subset factor and
//!    `V = L⁻¹K` each gain the one row the new point adds
//!    ([`udf_gp::LocalPredictorCache::predict_tuning`]) instead of being
//!    rebuilt, bit-identically, whenever the new selection is the old one
//!    plus that point (`olgapro.tuning_extends` counts how often);
//! 5. **online retraining** (§5.3): if points were added, re-learn the
//!    hyperparameters only when the first Newton step exceeds Δθ.

use crate::config::{Metric, OlgaproConfig, RetrainStrategy};
use crate::error_bound::{
    band_ecdfs, envelope_ecdfs, eps_gp_floor, ks_bound, lambda_discrepancy_bound,
    lambda_discrepancy_bound_with, BoundScratch, RhoCount,
};
use crate::filtering::{FilterDecision, Predicate};
use crate::output::{FastRow, GpOutput, OutputDistribution, TuneStop};
use crate::udf::BlackBoxUdf;
use crate::{CoreError, Result};
use std::time::Instant;
use udf_gp::band::simultaneous_z;
use udf_gp::local::{select_local_with, LocalPredictor};
use udf_gp::train::{newton_step_norm, train, TrainConfig};
use udf_gp::{
    FactorOrigin, GpModel, LocalPredictorCache, PredictScratch, SelectScratch, SquaredExponential,
};
use udf_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use udf_prob::{Ecdf, InputDistribution};
use udf_spatial::BoundingBox;

/// OLGAPRO's observability handles — the paper's cost knobs made visible:
/// where time goes between online tuning (steps 2–7) and retraining
/// (steps 8–14), how the training set grows, and how often the model cap
/// degrades accuracy. Purely observational; un-wired evaluators hold the
/// disabled set.
#[derive(Clone, Debug)]
struct OlgaproMetrics {
    /// Time in the online-tuning loop (inference + point additions), per
    /// processed input.
    tuning_ns: Histogram,
    /// Time re-learning hyperparameters (plus the step-12 re-inference),
    /// per retrain.
    retrain_ns: Histogram,
    /// Gradient-ascent iterations per retrain (each proposal an O(n³) refit).
    train_iters: Histogram,
    /// Current training-set size.
    model_points: Gauge,
    /// Training-set size sampled after each processed input — the
    /// model-growth timeline as a distribution (p50/p95/max).
    model_size: Histogram,
    /// Degraded-accuracy acceptances forced by the model cap.
    cap_hits: Counter,
    /// Tuning picks whose UDF value fell outside the band the model had
    /// just inferred there, `|y − f̂(x)| > z_α σ(x)`: an out-of-sample
    /// check of the band, counted before the point is added.
    band_misses: Counter,
    /// Time per read-only fast-path evaluation
    /// ([`Olgapro::infer_only_with`]) — the blocked warm inference loop.
    fastpath_ns: Histogram,
    /// Local-predictor cache hits: tuples that reused the previous subset
    /// Cholesky factor instead of re-running the O(l³) build.
    lp_cache_hits: Counter,
    /// Local-predictor cache misses (fresh subset factorizations).
    lp_cache_misses: Counter,
    /// Tuning-loop inferences served by extending the tuple's retained
    /// `K`, `L` and `V` by one row instead of rebuilding them (each also
    /// counts as the cache miss the rebuild would have been).
    tuning_extends: Counter,
    /// Inferences whose three ECDFs and ε_GP were built.
    bounds_built: Counter,
    /// Inferences that never needed them: the loop's question answered by
    /// counting, a tuple ruled out by ρ_U, or a retrain about to supersede.
    bounds_skipped: Counter,
    /// Tuples the fast path dropped before inferring their last sample: the
    /// ρ_U count over the samples inferred so far already certified the drop
    /// (`Olgapro::infer_ruled_with`).
    ruled_early: Counter,
}

impl OlgaproMetrics {
    /// The no-op handle set.
    pub(crate) fn disabled() -> Self {
        Self::register(&MetricsRegistry::disabled())
    }

    /// Handles registered under the shared `olgapro.*` names.
    pub(crate) fn register(reg: &MetricsRegistry) -> Self {
        OlgaproMetrics {
            tuning_ns: reg.histogram("olgapro.tuning_ns"),
            retrain_ns: reg.histogram("olgapro.retrain_ns"),
            train_iters: reg.histogram("olgapro.train_iters"),
            model_points: reg.gauge("olgapro.model_points"),
            model_size: reg.histogram("olgapro.model_size"),
            cap_hits: reg.counter("olgapro.cap_hits"),
            band_misses: reg.counter("olgapro.band_misses"),
            fastpath_ns: reg.histogram("olgapro.fastpath_ns"),
            lp_cache_hits: reg.counter("olgapro.lp_cache.hits"),
            lp_cache_misses: reg.counter("olgapro.lp_cache.misses"),
            tuning_extends: reg.counter("olgapro.tuning_extends"),
            bounds_built: reg.counter("olgapro.bounds_built"),
            bounds_skipped: reg.counter("olgapro.bounds_skipped"),
            ruled_early: reg.counter("olgapro.ruled_early"),
        }
    }
}

/// Reusable buffers for one evaluation lane: the Monte Carlo sample block,
/// the local-selection scratch, the blocked-prediction scratch, the
/// one-entry [`LocalPredictorCache`], and the Algorithm-3 sweep's arrays.
/// Each [`crate::sched::BatchScheduler`] worker owns one, so the warm fast
/// path reuses them all from tuple to tuple, as does a batch's slow path on
/// the calling thread's; [`Olgapro::process`] reuses the one embedded in
/// the evaluator.
///
/// A clone is an empty scratch: what one holds never changes a result, so
/// copying it would only cost memory (a cloned evaluator gets no buffers).
#[derive(Debug, Default)]
pub struct InferScratch {
    /// The m drawn samples of the current tuple.
    samples: Vec<Vec<f64>>,
    /// Everything downstream of sampling (split so `samples` can be
    /// borrowed immutably while the rest is borrowed mutably).
    buf: InferBuffers,
}

#[derive(Debug, Default)]
struct InferBuffers {
    select: SelectScratch,
    predict: PredictScratch,
    cache: LocalPredictorCache,
    /// Posterior means and sds of the latest inference, one per sample,
    /// gathered block by block (`predict` holds the latest block only).
    means: Vec<f64>,
    sds: Vec<f64>,
    bound: BoundScratch,
    /// What the bound stage sorts Y′_S and Y′_L in: taken by their ECDFs,
    /// and back through `recycle` from a [`FastRow`] or a superseded bound.
    envelopes: [Vec<f64>; 2],
}

impl InferBuffers {
    /// Append the block `predict` holds to `means` and `sds`.
    fn gather(&mut self) {
        self.means.extend_from_slice(self.predict.means());
        let vars = self.predict.variances();
        self.sds.extend(vars.iter().map(|v| v.sqrt()));
    }

    /// Take back the buffers of a Y′_S and Y′_L about to be dropped, so the
    /// next bound stage sorts in them.
    fn recycle(&mut self, envelopes: Option<(Ecdf, Ecdf)>) {
        if let Some((y_s, y_l)) = envelopes {
            self.envelopes = [y_s.into_values(), y_l.into_values()];
        }
    }
}

impl Clone for InferScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl InferScratch {
    /// A fast-path output as the batch fold keeps it, at TEP `rho_hat`: its
    /// Y′_S and Y′_L buffers come back here for the next tuple's envelopes.
    pub(crate) fn row(&mut self, out: GpOutput, rho_hat: f64) -> FastRow {
        let (eps_gp, error_bound) = (out.eps_gp, out.error_bound());
        self.buf.recycle(Some((out.y_s, out.y_l)));
        let output = OutputDistribution {
            ecdf: out.y_hat,
            error_bound,
            udf_calls: out.udf_calls,
        };
        FastRow {
            output,
            eps_gp,
            rho_hat,
        }
    }
}

/// Samples per block after the first on the ruled fast path
/// ([`Olgapro::infer_ruled_with`]).
const RULING_BLOCK: usize = 32;

/// Below this many recorded residuals, [`Olgapro::band_scale`] is 1.
const MIN_BAND_RESIDUALS: u64 = 8;

/// The three ECDFs of one inference: Ŷ′, Y′_S, Y′_L.
type Envelopes = (Ecdf, Ecdf, Ecdf);

/// How online tuning picks the next training point (Expt 2 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningHeuristic {
    /// The paper's choice: the cached sample with the largest posterior
    /// variance.
    LargestVariance,
    /// A random sample (baseline in Expt 2).
    Random,
    /// Hypothetical "optimal greedy": simulate adding every candidate sample
    /// and pick the one reducing the error bound most. Exponentially more
    /// expensive; only for small sample counts.
    OptimalGreedy,
}

/// The online evaluator (Algorithm 5).
///
/// Cloning copies the evaluator — model (under a fresh `model_id`, see
/// [`GpModel`]'s `Clone`) and config, but none of its scratch buffers — so
/// a twin can be driven from the same state as the original.
#[derive(Clone, Debug)]
pub struct Olgapro {
    udf: BlackBoxUdf,
    model: GpModel,
    config: OlgaproConfig,
    tuning: TuningHeuristic,
    metrics: OlgaproMetrics,
    /// Buffers reused across sequential [`Olgapro::process`] calls.
    scratch: InferScratch,
    /// `(count, Σ r²)` of the tuning picks' standardized residuals
    /// `r = (y − f̂(x)) / σ(x)` since the last retrain that moved the
    /// model (see [`Olgapro::band_scale`]).
    residuals: (u64, f64),
}

impl Olgapro {
    /// Create with the paper's squared-exponential kernel (§3.2) at the
    /// config's initial hyperparameters.
    pub fn new(udf: BlackBoxUdf, config: OlgaproConfig) -> Self {
        let kernel = SquaredExponential::new(config.init_sigma_f, config.init_lengthscale);
        let dim = udf.dim();
        Olgapro {
            udf,
            model: GpModel::new(Box::new(kernel), dim),
            config,
            tuning: TuningHeuristic::LargestVariance,
            metrics: OlgaproMetrics::disabled(),
            scratch: InferScratch::default(),
            residuals: (0, 0.0),
        }
    }

    /// Override the online-tuning heuristic (Expt 2).
    pub fn with_tuning(mut self, tuning: TuningHeuristic) -> Self {
        self.tuning = tuning;
        self
    }

    /// Wire observability (builder form): the `olgapro.*` handles register
    /// in `metrics`. Timings and counters only observe; the evaluation
    /// itself is blind to them.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.set_metrics(metrics);
        self
    }

    /// Rewire a live evaluator in place (a subscription whose session is
    /// wired after it registered).
    pub(crate) fn set_metrics(&mut self, metrics: &MetricsRegistry) {
        self.metrics = OlgaproMetrics::register(metrics);
    }

    /// Borrow the model (training-set size, hyperparameters, ...).
    pub fn model(&self) -> &GpModel {
        &self.model
    }

    /// Borrow the UDF (call accounting).
    pub fn udf(&self) -> &BlackBoxUdf {
        &self.udf
    }

    /// Configuration in effect.
    pub fn config(&self) -> &OlgaproConfig {
        &self.config
    }

    /// Change the model-size cap in place (validated; see
    /// [`OlgaproConfig::set_model_cap`]). Shrinking the cap below the
    /// current model size stops further growth but does not discard
    /// already-learned points.
    pub fn set_model_cap(&mut self, n: usize) -> Result<()> {
        self.config.set_model_cap(n)
    }

    /// True when the training set is at the cap
    /// ([`OlgaproConfig::max_model_points`]), so the model never grows
    /// again. Batch accept hooks use this to emit over-budget fast-path
    /// results at the achieved bound instead of rerouting — with a full
    /// model, [`process`](Olgapro::process) computes exactly what
    /// [`infer_only_with`](Olgapro::infer_only_with) does, so accepting is
    /// byte-identical and strictly cheaper *if* the model was already full
    /// when the fast result was inferred.
    pub fn model_full(&self) -> bool {
        self.config.max_model_points > 0 && self.model.len() >= self.config.max_model_points
    }

    /// How much wider the band should be than `simultaneous_z` makes it,
    /// judged by the tuning loop's own out-of-sample evidence: `max(1,
    /// RMS(r))` over the standardized residuals `r = (y − f̂(x)) / σ(x)`
    /// the model left at each tuning pick before it saw `y`, since the
    /// last retrain that moved it; 1 below eight of them.
    /// Under the fitted GP each `r` is standard normal, so the scale stays
    /// near 1; a model over-confident away from its training points reads
    /// above 1. Nothing reads it during inference.
    pub fn band_scale(&self) -> f64 {
        let (n, sum_sq) = self.residuals;
        if n < MIN_BAND_RESIDUALS {
            return 1.0;
        }
        (sum_sq / n as f64).sqrt().max(1.0)
    }

    /// Count a degraded-accuracy acceptance in the registry's
    /// `olgapro.cap_hits`: the tuning loop's [`TuneStop::ModelCap`] exit,
    /// and an over-budget fast-path result a caller accepts because the
    /// model is [`full`](Olgapro::model_full).
    pub fn note_cap_hit(&self) {
        self.metrics.cap_hits.inc();
    }

    /// Inference-only evaluation: compute the output distribution and error
    /// bound with the *current* model, without bootstrapping, online tuning
    /// or retraining. Requires a non-empty model.
    ///
    /// This is the read-only fast path of
    /// [`Evaluator::run_two_phase`](crate::batch::Evaluator::run_two_phase):
    /// at convergence it is exactly what [`Olgapro::process`] computes, and
    /// it can run concurrently against a shared model. `scratch` holds the
    /// buffers the scheduler's fast phase keeps per worker; outputs are
    /// identical for identical RNG state whatever buffers it brings.
    pub fn infer_only_with(
        &self,
        input: &InputDistribution,
        rng: &mut dyn rand::RngCore,
        scratch: &mut InferScratch,
    ) -> Result<GpOutput> {
        match self.infer_ruled_with(input, rng, scratch, None)? {
            FilterDecision::Kept { output, .. } => Ok(output),
            FilterDecision::Filtered { .. } => unreachable!("nothing filters without a predicate"),
        }
    }

    /// [`Olgapro::infer_only_with`] behind the §5.5 filter: with a
    /// predicate, ρ_U is counted straight off the inferred band and a tuple
    /// with `ρ_U < θ` is dropped there — before any sort, ECDF or ε_GP, none
    /// of which a dropped tuple shows anyone. A kept tuple's output is
    /// [`infer_only_with`](Olgapro::infer_only_with)'s, its `tep` the ρ̂ of
    /// [`GpOutput::tep_bounds`] (1 without a predicate).
    ///
    /// ρ_U is a count, so it is counted as the samples are inferred — the
    /// GP analogue of Remark 2.1's batches: first the fewest samples whose
    /// count could certify a drop (`m − ⌊θm⌋ + 1`), then blocks of 32, each
    /// predicted bit for bit as in one call over all `m`
    /// ([`udf_gp::batch`]). After every block, ρ_U with the unseen samples
    /// all counted into `F_S(hi)` bounds the full count from above; once it
    /// is below θ the tuple is dropped, as the full count would drop it, and
    /// that certificate is its reported `rho_upper` — still an upper bound
    /// on the TEP, possibly above the exact ρ_U
    /// (`olgapro.ruled_early` counts these drops). A non-finite
    /// band value stops certification; samples never inferred are never
    /// checked. Without a predicate the one block is all `m` samples.
    pub(crate) fn infer_ruled_with(
        &self,
        input: &InputDistribution,
        rng: &mut dyn rand::RngCore,
        scratch: &mut InferScratch,
        predicate: Option<&Predicate>,
    ) -> Result<FilterDecision<GpOutput>> {
        self.udf.check_input(input)?;
        if self.model.is_empty() {
            return Err(CoreError::Gp(udf_gp::GpError::EmptyModel));
        }
        let _fast_span = self.metrics.fastpath_ns.span();
        let split = self.config.split();
        let m = self.config.samples_per_input();
        input.sample_n_into(rng, m, &mut scratch.samples);
        let bbox = BoundingBox::from_points(scratch.samples.iter().map(|s| s.as_slice()));
        let z_alpha = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);
        let buf = &mut scratch.buf;
        let local = self.select(&bbox, buf)?;
        let predictor = self.predictor(local, buf)?;
        buf.means.clear();
        buf.sds.clear();
        let mut count = RhoCount::default();
        let mut end = predicate.map_or(m, |p| (m - (p.theta * m as f64) as usize + 1).min(m));
        loop {
            let start = buf.means.len();
            self.predict(predictor.as_ref(), &scratch.samples[start..end], buf)?;
            if let Some(p) = predicate {
                // (A non-finite band counts to NaN, which is below no θ: the
                // bound stage rejects it as it always has.)
                count.add(&buf.means[start..], &buf.sds[start..], z_alpha, p.lo, p.hi);
                let rho_upper = count.upper(m, m - end);
                if rho_upper < p.theta {
                    self.metrics.bounds_skipped.inc();
                    self.metrics.ruled_early.add(u64::from(end < m));
                    return Ok(FilterDecision::Filtered {
                        rho_upper,
                        udf_calls: 0,
                    });
                }
            }
            if end == m {
                break;
            }
            end = (end + RULING_BLOCK).min(m);
        }
        let (eps_gp, (y_hat, y_s, y_l)) = self.bound(buf, z_alpha)?;
        let output = GpOutput {
            y_hat,
            y_s,
            y_l,
            eps_gp,
            eps_mc: split.eps_mc,
            z_alpha,
            points_added: 0,
            retrained: false,
            udf_calls: 0,
            stop: None,
        };
        let tep = predicate.map_or(1.0, |p| output.tep_bounds(p.lo, p.hi).1);
        Ok(FilterDecision::Kept { output, tep })
    }

    /// [`Olgapro::infer_ruled_with`] as the batch fast phase runs it: a kept
    /// tuple becomes its [`FastRow`] ([`InferScratch::row`]).
    pub(crate) fn infer_row_with(
        &self,
        input: &InputDistribution,
        rng: &mut dyn rand::RngCore,
        scratch: &mut InferScratch,
        predicate: Option<&Predicate>,
    ) -> Result<FilterDecision<FastRow>> {
        let ruled = self.infer_ruled_with(input, rng, scratch, predicate)?;
        Ok(ruled.map(|output, tep| scratch.row(output, tep)))
    }

    /// Process one uncertain input tuple (Algorithm 5).
    pub fn process(
        &mut self,
        input: &InputDistribution,
        rng: &mut dyn rand::RngCore,
    ) -> Result<GpOutput> {
        // The scratch is a field (reused across calls) but the evaluation
        // borrows `&self` while mutating it, so temporarily move it out.
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.process_with(input, rng, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// [`Olgapro::process`] with caller-provided scratch buffers. Identical
    /// outputs whatever the scratch has been through before — another
    /// tuple, another evaluator, a call that failed or panicked halfway:
    /// what it caches is keyed, and the kernel rows the tuning loop retains
    /// are forgotten before the first inference.
    pub fn process_with(
        &mut self,
        input: &InputDistribution,
        rng: &mut dyn rand::RngCore,
        scratch: &mut InferScratch,
    ) -> Result<GpOutput> {
        self.udf.check_input(input)?;
        let calls_before = self.udf.calls();
        let split = self.config.split();
        // Step 1: draw m samples (m from ε_MC, δ_MC). Rows retained for the
        // previous tuple's samples (or left by one that failed mid-loop)
        // say nothing about these; this tuple's can grow to one per
        // training point it could end up selecting.
        let m = self.config.samples_per_input();
        input.sample_n_into(rng, m, &mut scratch.samples);
        let max_rows = match self.config.max_model_points {
            0 => self.model.len() + self.config.max_points_per_input,
            cap => cap.max(self.model.len()),
        };
        scratch.buf.predict.start_tuning(max_rows, m);
        let samples = &scratch.samples;
        let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));

        // Bootstrap when the model is (nearly) empty: spread-out samples.
        let mut points_added = 0usize;
        while self.model.len() < self.config.bootstrap_points.max(2) {
            let idx = (self.model.len() * samples.len()) / self.config.bootstrap_points.max(2);
            let x = samples[idx.min(samples.len() - 1)].clone();
            let y = self.eval_udf(&x)?;
            self.model.add_point(x, y)?;
            points_added += 1;
        }

        // Steps 2–7: inference + online tuning loop. The latest means/sds
        // live in `scratch.buf` across iterations. A mid-loop ε_GP only
        // decides whether the loop goes on, so it is built only when
        // counting cannot answer that; `bounded` holds the latest
        // inference's ε_GP and envelopes once they exist.
        let t_tuning = self.metrics.tuning_ns.enabled().then(Instant::now);
        let z_alpha = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);
        let buf = &mut scratch.buf;
        self.infer(&scratch.samples, &bbox, buf, true)?;
        let mut bounded = None;
        let mut capped = false;
        loop {
            buf.recycle(bounded.take().map(|(_, (_, y_s, y_l))| (y_s, y_l)));
            let may_add = points_added < self.config.max_points_per_input;
            let floor = eps_gp_floor(&buf.means, &buf.sds, z_alpha);
            // A floor over the budget proves ε_GP is. A non-finite
            // prediction (NaN floor) goes to the bound stage to be rejected
            // as ever — here, before anything below mutates the model.
            bounded = if floor.is_nan() || (may_add && floor <= split.eps_gp) {
                Some(self.bound(buf, z_alpha)?)
            } else {
                None
            };
            let within = bounded.as_ref().is_some_and(|b| b.0 <= split.eps_gp);
            if !may_add || within {
                break;
            }
            // Model-size cap: bounded per-tuple cost on long runs. Accept
            // this input at the achieved bound; the degradation is counted,
            // not silent.
            if self.model_full() {
                self.note_cap_hit();
                capped = true;
                break;
            }
            let pick = self.pick_training_sample(&scratch.samples, &buf.sds, z_alpha, rng)?;
            let x = scratch.samples[pick].clone();
            let y = self.eval_udf(&x)?;
            let (mean, sd) = (buf.means[pick], buf.sds[pick]);
            let outside = (y - mean).abs() > z_alpha * sd;
            self.metrics.band_misses.add(u64::from(outside));
            let r_sq = ((y - mean) / sd).powi(2);
            if sd > 0.0 && r_sq.is_finite() {
                self.residuals.0 += 1;
                self.residuals.1 += r_sq;
            }
            self.model.add_point(x, y)?;
            points_added += 1;
            self.metrics
                .bounds_skipped
                .add(u64::from(bounded.is_none()));
            self.infer(&scratch.samples, &bbox, buf, true)?;
        }
        if let Some(t0) = t_tuning {
            self.metrics.tuning_ns.record_duration(t0.elapsed());
        }

        // Steps 8–14: retraining decision.
        let mut retrained = false;
        if points_added > 0 {
            let do_retrain = match self.config.retrain {
                RetrainStrategy::Never => false,
                RetrainStrategy::Eager => true,
                RetrainStrategy::NewtonThreshold(dt) => newton_step_norm(&self.model)? > dt,
            };
            if do_retrain {
                let t_retrain = self.metrics.retrain_ns.enabled().then(Instant::now);
                let epoch = self.model.epoch();
                let iterations = train(&mut self.model, &TrainConfig::default())?.iterations;
                self.metrics.train_iters.record(iterations as u64);
                retrained = true;
                // Re-run inference with the new hyperparameters (step 12);
                // whatever the loop's last one left unbuilt stays unbuilt. A
                // `train` that proposed nothing left the model the loop's
                // last inference read: re-inferring would reproduce it, and
                // `z2` would be `z_alpha`, so `bounded` stands.
                if self.model.epoch() != epoch {
                    self.residuals = (0, 0.0);
                    self.metrics
                        .bounds_skipped
                        .add(u64::from(bounded.is_none()));
                    let z2 = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);
                    self.infer(&scratch.samples, &bbox, buf, false)?;
                    buf.recycle(bounded.take().map(|(_, (_, y_s, y_l))| (y_s, y_l)));
                    let (eps_gp, (y_hat, s2, l2)) = self.bound(buf, z2)?;
                    // The output reports the pre-retrain `z_alpha`, so its
                    // envelopes are the new predictions widened by that z,
                    // not the `z2` ones the bound was just computed on; Ŷ′
                    // is the same sorted means either way.
                    let into = [s2.into_values(), l2.into_values()];
                    let (y_s, y_l) = band_ecdfs(&buf.means, &buf.sds, z_alpha, into)?;
                    bounded = Some((eps_gp, (y_hat, y_s, y_l)));
                }
                if let Some(t0) = t_retrain {
                    self.metrics.retrain_ns.record_duration(t0.elapsed());
                }
            }
        }
        let (eps_gp, (y_hat, y_s, y_l)) = match bounded {
            Some(b) => b,
            None => self.bound(buf, z_alpha)?,
        };
        // The loop leaves at the tuning budget without bounding its last
        // inference, so whether it stopped over budget is read off the
        // emitted ε_GP.
        let stop = if capped {
            TuneStop::ModelCap
        } else if points_added >= self.config.max_points_per_input && eps_gp > split.eps_gp {
            TuneStop::TuningBudget
        } else {
            TuneStop::WithinBudget
        };
        self.metrics.model_points.set(self.model.len() as u64);
        self.metrics.model_size.record(self.model.len() as u64);

        Ok(GpOutput {
            y_hat,
            y_s,
            y_l,
            eps_gp,
            eps_mc: split.eps_mc,
            z_alpha,
            points_added,
            retrained,
            udf_calls: self.udf.calls() - calls_before,
            stop: Some(stop),
        })
    }

    /// Evaluate the UDF with finiteness checking.
    fn eval_udf(&self, x: &[f64]) -> Result<f64> {
        let y = self.udf.eval(x);
        if y.is_finite() {
            Ok(y)
        } else {
            Err(CoreError::NonFiniteUdfOutput {
                input: x.to_vec(),
                value: y,
            })
        }
    }

    /// One inference pass: blocked local (or global) prediction at every
    /// sample. The per-sample means/sds are left in `buf.means` / `buf.sds`
    /// for [`bound`](Self::bound) and the counting shortcuts.
    ///
    /// All m samples are evaluated as one kernel-matrix build + one
    /// multi-RHS solve ([`udf_gp::batch`]), bit-identical to the former
    /// per-sample loop, and the subset factorization is reused via
    /// `buf.cache` when consecutive tuples select the same neighborhood.
    ///
    /// `tuning` marks an inference another may follow on the same samples
    /// after an `add_point` (Algorithm 5's loop): it keeps the tuple's
    /// kernel rows in `buf.predict` and, when they are there already,
    /// extends them instead of rebuilding — same bits either way.
    fn infer(
        &self,
        samples: &[Vec<f64>],
        bbox: &BoundingBox,
        buf: &mut InferBuffers,
        tuning: bool,
    ) -> Result<()> {
        buf.means.clear();
        buf.sds.clear();
        let local = self.select(bbox, buf)?;
        if tuning && local {
            let selected = &buf.select.selected;
            let origin =
                buf.cache
                    .predict_tuning(&self.model, selected, samples, &mut buf.predict)?;
            self.note_factor(origin);
            buf.gather();
            Ok(())
        } else {
            let predictor = self.predictor(local, buf)?;
            self.predict(predictor.as_ref(), samples, buf)
        }
    }

    /// Select the training points around `bbox` into `buf.select`: `true`
    /// for local inference, `false` for global — an *empty* selection,
    /// which is legitimate (every training point is far enough that its
    /// weight is below Γ) but leaves the local predictor nothing to stand
    /// on, or a Γ that is not positive.
    fn select(&self, bbox: &BoundingBox, buf: &mut InferBuffers) -> Result<bool> {
        match select_local_with(&self.model, bbox, self.config.gamma, &mut buf.select) {
            Ok(_) => Ok(!buf.select.selected.is_empty()),
            Err(udf_gp::GpError::InvalidParameter { .. }) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// The local predictor over the latest selection, its subset factor
    /// taken from `buf.cache` or built into it; `None` for global inference.
    fn predictor(&self, local: bool, buf: &mut InferBuffers) -> Result<Option<LocalPredictor<'_>>> {
        if !local {
            return Ok(None);
        }
        let (lp, hit) = buf.cache.get_or_build(&self.model, &buf.select.selected)?;
        self.note_factor(if hit {
            FactorOrigin::CacheHit
        } else {
            FactorOrigin::Built
        });
        Ok(Some(lp))
    }

    /// Predict at `samples` through `predictor` (the whole model without
    /// one) and append their means and sds to `buf`'s.
    fn predict(
        &self,
        predictor: Option<&LocalPredictor<'_>>,
        samples: &[Vec<f64>],
        buf: &mut InferBuffers,
    ) -> Result<()> {
        match predictor {
            Some(lp) => lp.predict_batch_scratch(samples, &mut buf.predict)?,
            None => self
                .model
                .predict_batch_scratch(samples, &mut buf.predict)?,
        }
        buf.gather();
        Ok(())
    }

    /// Count where a local inference's subset factor came from.
    fn note_factor(&self, origin: FactorOrigin) {
        match origin {
            FactorOrigin::CacheHit => self.metrics.lp_cache_hits.inc(),
            FactorOrigin::Built => self.metrics.lp_cache_misses.inc(),
            FactorOrigin::Extended => {
                self.metrics.lp_cache_misses.inc();
                self.metrics.tuning_extends.inc();
            }
        }
    }

    /// The bound stage of the latest [`infer`](Self::infer): the envelope
    /// ECDFs at `z_alpha`, Y′_S and Y′_L in the buffers `buf.envelopes`
    /// lends, and the Algorithm-3 / Prop-4.2 error bound on them.
    fn bound(&self, buf: &mut InferBuffers, z_alpha: f64) -> Result<(f64, Envelopes)> {
        self.metrics.bounds_built.inc();
        let y_hat = Ecdf::new(buf.means.clone())?;
        let into = std::mem::take(&mut buf.envelopes);
        let (y_s, y_l) = band_ecdfs(&buf.means, &buf.sds, z_alpha, into)?;
        let eps_gp = match self.config.accuracy.metric {
            Metric::Discrepancy => lambda_discrepancy_bound_with(
                &y_hat,
                &y_s,
                &y_l,
                self.config.accuracy.lambda,
                &mut buf.bound,
            ),
            Metric::Ks => ks_bound(&y_hat, &y_s, &y_l),
        };
        Ok((eps_gp, (y_hat, y_s, y_l)))
    }

    /// Online tuning (§5.2): choose the sample to evaluate next.
    fn pick_training_sample(
        &mut self,
        samples: &[Vec<f64>],
        sds: &[f64],
        z_alpha: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<usize> {
        use rand::Rng;
        match self.tuning {
            TuningHeuristic::LargestVariance => Ok(sds
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite sds"))
                .map(|(i, _)| i)
                .expect("non-empty samples")),
            TuningHeuristic::Random => Ok(rng.gen_range(0..samples.len())),
            TuningHeuristic::OptimalGreedy => {
                // Simulate adding each candidate (subsampled for viability)
                // and keep the one with the lowest resulting error bound.
                let stride = (samples.len() / 40).max(1);
                let mut best = (0usize, f64::INFINITY);
                for i in (0..samples.len()).step_by(stride) {
                    let mut trial = GpModel::new(self.model.kernel().clone_box(), self.model.dim());
                    trial.fit(self.model.inputs().to_vec(), self.model.targets().to_vec())?;
                    // Use the current posterior mean as a stand-in value —
                    // the true value is unknown without calling the UDF.
                    let y_hat = self.model.predict_mean(&samples[i])?;
                    trial.add_point(samples[i].clone(), y_hat)?;
                    let mut means = Vec::with_capacity(samples.len());
                    let mut sds2 = Vec::with_capacity(samples.len());
                    for s in samples {
                        let p = trial.predict(s)?;
                        means.push(p.mean);
                        sds2.push(p.var.sqrt());
                    }
                    let (h, s_, l) = envelope_ecdfs(&means, &sds2, z_alpha)?;
                    let e = match self.config.accuracy.metric {
                        Metric::Discrepancy => {
                            lambda_discrepancy_bound(&h, &s_, &l, self.config.accuracy.lambda)
                        }
                        Metric::Ks => ks_bound(&h, &s_, &l),
                    };
                    if e < best.1 {
                        best = (i, e);
                    }
                }
                Ok(best.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccuracyRequirement, ModelBudget};
    use crate::filtering::mc_eval_tuple;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udf_obs::HistogramSnapshot;

    fn smooth_udf() -> BlackBoxUdf {
        BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin())
    }

    fn config(eps: f64) -> OlgaproConfig {
        let acc = AccuracyRequirement::new(eps, 0.05, 0.02, Metric::Discrepancy).unwrap();
        let mut c = OlgaproConfig::new(acc, 2.0).unwrap();
        c.init_lengthscale = 1.0;
        c
    }

    #[test]
    fn online_processing_meets_gp_budget() {
        let mut olga = Olgapro::new(smooth_udf(), config(0.2));
        let mut rng = StdRng::seed_from_u64(10);
        let split = olga.config().split();
        for i in 0..8 {
            let mu = 1.0 + 0.9 * i as f64;
            let input = InputDistribution::diagonal_gaussian(&[(mu, 0.4)]).unwrap();
            let out = olga.process(&input, &mut rng).unwrap();
            assert!(
                out.eps_gp <= split.eps_gp || out.points_added == 10,
                "input {i}: eps_gp {} budget {}",
                out.eps_gp,
                split.eps_gp
            );
        }
        assert!(olga.model().len() >= 2);
    }

    #[test]
    fn converges_then_stops_calling_udf() {
        let mut olga = Olgapro::new(smooth_udf(), config(0.2));
        let mut rng = StdRng::seed_from_u64(11);
        let input = InputDistribution::diagonal_gaussian(&[(5.0, 0.4)]).unwrap();
        // Warm up on repeated similar inputs.
        for _ in 0..6 {
            olga.process(&input, &mut rng).unwrap();
        }
        let calls_before = olga.udf().calls();
        for _ in 0..4 {
            let out = olga.process(&input, &mut rng).unwrap();
            assert_eq!(out.points_added, 0, "converged model should not add points");
        }
        assert_eq!(
            olga.udf().calls(),
            calls_before,
            "no UDF calls at convergence"
        );
    }

    #[test]
    fn output_approximates_truth() {
        // Compare the OLGAPRO output CDF against a huge direct-MC reference.
        let mut olga = Olgapro::new(smooth_udf(), config(0.15));
        let mut rng = StdRng::seed_from_u64(12);
        let input = InputDistribution::diagonal_gaussian(&[(4.0, 0.3)]).unwrap();
        // Let it converge.
        let mut out = None;
        for _ in 0..6 {
            out = Some(olga.process(&input, &mut rng).unwrap());
        }
        let out = out.unwrap();

        // DKW asks exactly 40,000 samples of (ε, δ) = (0.01, 6.71·10⁻⁴).
        let reference_acc = AccuracyRequirement::new(0.01, 6.71e-4, 0.0, Metric::Ks).unwrap();
        assert_eq!(reference_acc.mc_samples(), 40_000);
        let FilterDecision::Kept {
            output: reference, ..
        } = mc_eval_tuple(&smooth_udf(), &input, &reference_acc, None, &mut rng).unwrap()
        else {
            unreachable!("no predicate, nothing is dropped")
        };
        let d = udf_prob::metrics::lambda_discrepancy(&out.y_hat, &reference.ecdf, 0.02);
        assert!(
            d <= 0.15,
            "λ-discrepancy to reference {d} exceeds requested ε"
        );
    }

    #[test]
    fn eager_retrains_every_time_never_retrains_never() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut cfg = config(0.2);
        cfg.retrain = RetrainStrategy::Eager;
        let mut eager = Olgapro::new(smooth_udf(), cfg.clone());
        cfg.retrain = RetrainStrategy::Never;
        let mut never = Olgapro::new(smooth_udf(), cfg);
        let (mut eager_retrains, mut never_retrains) = (0, 0);
        for i in 0..4 {
            let input =
                InputDistribution::diagonal_gaussian(&[(1.0 + 2.0 * i as f64, 0.4)]).unwrap();
            eager_retrains += u32::from(eager.process(&input, &mut rng).unwrap().retrained);
            never_retrains += u32::from(never.process(&input, &mut rng).unwrap().retrained);
        }
        assert!(eager_retrains > 0);
        assert_eq!(never_retrains, 0);
    }

    #[test]
    fn band_scale_reads_the_picks_since_the_last_retrain() {
        // Held at its initial lengthscale, far too long for a bumpy UDF,
        // the model is over-confident between its points: without
        // retraining, the picks' residuals pile up far outside σ. A retrain that moves the model forgets
        // them, so an eager evaluator reads 1 after every tuple.
        let run = |retrain: RetrainStrategy| {
            let mut cfg = config(0.15);
            cfg.retrain = retrain;
            let bumpy =
                BlackBoxUdf::from_fn("bumpy", 1, |x| (x[0] * 3.0).sin() + (x[0] * 7.0).cos());
            let mut olga = Olgapro::new(bumpy, cfg);
            assert_eq!(olga.band_scale(), 1.0, "no residuals yet");
            let mut rng = StdRng::seed_from_u64(14);
            let mut scales = Vec::new();
            for i in 0..10 {
                let mu = 0.5 + 0.9 * i as f64;
                let input = InputDistribution::diagonal_gaussian(&[(mu, 0.5)]).unwrap();
                olga.process(&input, &mut rng).unwrap();
                scales.push(olga.band_scale());
            }
            scales
        };
        let never = run(RetrainStrategy::Never);
        assert!(
            never.iter().all(|&s| s >= 1.0 && s.is_finite()),
            "{never:?}"
        );
        assert!(never[9] > 10.0, "{never:?}");
        let eager = run(RetrainStrategy::Eager);
        assert!(eager.iter().all(|&s| s == 1.0), "{eager:?}");
    }

    #[test]
    fn random_tuning_adds_more_points_than_largest_variance() {
        let mut rng = StdRng::seed_from_u64(14);
        let run = |heur: TuningHeuristic, rng: &mut StdRng| -> usize {
            let mut olga = Olgapro::new(
                BlackBoxUdf::from_fn("bumpy", 1, |x| (x[0] * 3.0).sin() + (x[0] * 7.0).cos()),
                config(0.15),
            )
            .with_tuning(heur);
            (0..10)
                .map(|i| {
                    let input =
                        InputDistribution::diagonal_gaussian(&[(0.5 + 0.9 * i as f64, 0.5)])
                            .unwrap();
                    olga.process(&input, rng).unwrap().points_added
                })
                .sum()
        };
        let lv = run(TuningHeuristic::LargestVariance, &mut rng);
        let rnd = run(TuningHeuristic::Random, &mut rng);
        // Largest-variance should need no more points (Fig. 5e trend).
        assert!(
            lv <= rnd + 2,
            "largest-variance used {lv} points, random used {rnd}"
        );
    }

    #[test]
    fn stop_growing_cap_bounds_model_and_counts_hits() {
        // A tight budget over a drifting input sequence grows the model
        // without bound; the cap must pin it and count every degraded
        // acceptance.
        let cap = 8usize;
        let mk = |cap: usize| {
            let cfg = config(0.12)
                .with_model_cap(cap, ModelBudget::StopGrowing)
                .unwrap();
            Olgapro::new(
                BlackBoxUdf::from_fn("bumpy", 1, |x| (x[0] * 3.0).sin() + (x[0] * 7.0).cos()),
                cfg,
            )
        };
        let mut capped = mk(cap);
        let mut uncapped = mk(0);
        let mut rng_a = StdRng::seed_from_u64(40);
        let mut rng_b = StdRng::seed_from_u64(40);
        let cap_hit = |out: GpOutput| u32::from(out.stop == Some(TuneStop::ModelCap));
        let (mut capped_hits, mut uncapped_hits) = (0, 0);
        for i in 0..24 {
            let input = InputDistribution::diagonal_gaussian(&[(0.4 * i as f64, 0.3)]).unwrap();
            capped_hits += cap_hit(capped.process(&input, &mut rng_a).unwrap());
            uncapped_hits += cap_hit(uncapped.process(&input, &mut rng_b).unwrap());
            assert!(
                capped.model().len() <= cap,
                "input {i}: model {} exceeds cap {cap}",
                capped.model().len()
            );
        }
        assert!(
            uncapped.model().len() > cap,
            "workload too easy for the test"
        );
        assert!(capped_hits > 0, "cap never hit");
        assert_eq!(uncapped_hits, 0, "uncapped run counted hits");
        assert!(
            capped.udf().calls() < uncapped.udf().calls(),
            "cap must bound training cost: {} vs {}",
            capped.udf().calls(),
            uncapped.udf().calls()
        );
    }

    #[test]
    fn full_stop_growing_process_matches_infer_only() {
        // The accept hooks rely on this: with a full stop-growing model,
        // `process` is exactly `infer_only_with` (same RNG stream, no mutation).
        let cfg = config(0.12)
            .with_model_cap(6, ModelBudget::StopGrowing)
            .unwrap();
        let mut olga = Olgapro::new(smooth_udf(), cfg);
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..8 {
            let input = InputDistribution::diagonal_gaussian(&[(0.9 * i as f64, 0.4)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }
        assert!(olga.model_full(), "warm-up never filled the model");
        let input = InputDistribution::diagonal_gaussian(&[(7.7, 0.4)]).unwrap();
        let a = olga
            .infer_only_with(
                &input,
                &mut StdRng::seed_from_u64(7),
                &mut InferScratch::default(),
            )
            .unwrap();
        let b = olga.process(&input, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a.y_hat.values(), b.y_hat.values());
        assert_eq!(a.y_s.values(), b.y_s.values());
        assert_eq!(a.y_l.values(), b.y_l.values());
        assert_eq!(a.eps_gp, b.eps_gp);
        assert_eq!(b.points_added, 0);
        assert!(!b.retrained);
    }

    #[test]
    fn retrained_output_keeps_pre_retrain_z_bitwise() {
        // `process` emits the envelopes of its last inference — except
        // after a retrain, where the bound is recomputed at the new
        // hyperparameters' z while the output keeps the z (and envelopes
        // at that z) from before. Goldens captured on the commit before
        // envelope reuse, so the reuse cannot move an emitted bit; re-recorded
        // when the SE kernel's own `exp` and the Newton z_α solve came in.
        let mut cfg = config(0.2);
        cfg.retrain = RetrainStrategy::Eager;
        let mut olga = Olgapro::new(smooth_udf(), cfg);
        let input = InputDistribution::diagonal_gaussian(&[(1.0, 0.4)]).unwrap();
        let out = olga
            .process(&input, &mut StdRng::seed_from_u64(77))
            .unwrap();
        assert!(out.retrained && out.points_added == 6);

        // The case is the interesting one: the retrained model's z differs.
        let mut samples = Vec::new();
        let m = olga.config().samples_per_input();
        input.sample_n_into(&mut StdRng::seed_from_u64(77), m, &mut samples);
        let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));
        let z_post = simultaneous_z(olga.model().kernel(), &bbox, olga.config().split().delta_gp);
        assert_ne!(z_post.to_bits(), out.z_alpha.to_bits());

        let ends = |e: &Ecdf| [e.min().to_bits(), e.max().to_bits()];
        assert_eq!(out.eps_gp.to_bits(), 0x3f90125e227080a0);
        assert_eq!(out.z_alpha.to_bits(), 0x40058100f84adba1);
        assert_eq!(ends(&out.y_s), [0xbfa47819f75494ea, 0x3feff387c1c9b8f6]);
        assert_eq!(ends(&out.y_l), [0xbf9e3aab34b2d62b, 0x3ff00125f4053885]);
    }

    #[test]
    fn bound_stage_allocates_nothing_in_steady_state() {
        let metrics = MetricsRegistry::new();
        let mut olga = Olgapro::new(smooth_udf(), config(0.2)).with_metrics(&metrics);
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..8 {
            let input = InputDistribution::diagonal_gaussian(&[(0.8 * i as f64, 0.4)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }
        let mut scratch = InferScratch::default();
        let mut after_first = None;
        let pred = Predicate::new(-0.5, 0.5, 0.3).unwrap();
        let counter = |name: &str| metrics.snapshot().counters[name];
        let (built, skipped) = (
            counter("olgapro.bounds_built"),
            counter("olgapro.bounds_skipped"),
        );
        for i in 0..200 {
            let mu = 0.8 * (i % 8) as f64 + 0.01 * i as f64;
            let input = InputDistribution::diagonal_gaussian(&[(mu, 0.4)]).unwrap();
            // The batch fast path, half the tuples behind a filter.
            let pred = (i % 2 == 1).then_some(&pred);
            olga.infer_row_with(&input, &mut rng, &mut scratch, pred)
                .unwrap();
            // The Algorithm-3 arrays and every prediction buffer — the flat
            // copy of the samples, K/V, means, norms, variances — and the
            // two buffers Y′_S and Y′_L are sorted in, which must be the
            // same allocations tuple after tuple, not fresh ones of the same
            // size.
            let caps = (
                scratch.buf.bound.capacities(),
                scratch.buf.predict.capacities(),
                [&scratch.buf.means, &scratch.buf.sds].map(Vec::capacity),
                scratch
                    .buf
                    .envelopes
                    .each_ref()
                    .map(|e| (e.as_ptr(), e.capacity())),
            );
            assert_eq!(*after_first.get_or_insert(caps), caps, "call {i}");
        }
        let m = olga.config().samples_per_input();
        let (bound, predict, gathered, envelopes) = after_first.unwrap();
        assert!(bound.iter().all(|&c| c >= m + 2));
        // (`K` beside `V` is the tuning loop's; the read path never fills it.)
        assert!(predict[..5].iter().all(|&c| c >= m) && predict[5] == 0);
        assert!(gathered.iter().all(|&c| c >= m));
        assert!(envelopes.iter().all(|&(_, c)| c >= m));
        let built = counter("olgapro.bounds_built") - built;
        let dropped = counter("olgapro.bounds_skipped") - skipped;
        assert!(
            built >= 100 && dropped > 20,
            "{built} kept, {dropped} dropped"
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_bitwise() {
        // One InferScratch carried across many tuples (what a scheduler
        // worker does) must be invisible: every output byte-identical to a
        // fresh-scratch call, including local-predictor cache hits.
        let mut olga = Olgapro::new(smooth_udf(), config(0.2));
        let mut rng = StdRng::seed_from_u64(21);
        for i in 0..8 {
            let input = InputDistribution::diagonal_gaussian(&[(0.8 * i as f64, 0.4)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }
        let mut reused = InferScratch::default();
        // Repeat inputs so the second pass over each hits the predictor
        // cache inside the reused scratch.
        let mus = [1.0, 1.0, 4.5, 4.5, 1.0, 6.2];
        for (i, mu) in mus.into_iter().enumerate() {
            let input = InputDistribution::diagonal_gaussian(&[(mu, 0.3)]).unwrap();
            let a = olga
                .infer_only_with(&input, &mut StdRng::seed_from_u64(i as u64), &mut reused)
                .unwrap();
            let b = olga
                .infer_only_with(
                    &input,
                    &mut StdRng::seed_from_u64(i as u64),
                    &mut InferScratch::default(),
                )
                .unwrap();
            assert_eq!(a.y_hat.values(), b.y_hat.values(), "tuple {i} mean CDF");
            assert_eq!(a.y_s.values(), b.y_s.values(), "tuple {i} lower");
            assert_eq!(a.y_l.values(), b.y_l.values(), "tuple {i} upper");
            assert_eq!(a.eps_gp.to_bits(), b.eps_gp.to_bits(), "tuple {i} eps_gp");
            assert_eq!(a.z_alpha.to_bits(), b.z_alpha.to_bits(), "tuple {i} z");
        }
    }

    #[test]
    fn process_on_a_reused_scratch_matches_a_fresh_scratch_bitwise() {
        // The tuning loop retains kernel rows in the scratch; they belong
        // to one tuple's samples. On a full stop-growing model every tuple
        // retains and none adds a point, so the epoch never moves and a
        // drifting input keeps selecting "the previous subset plus one
        // larger index" — exactly what an extension looks for. Rows left
        // by the previous tuple must not be taken for this one's.
        let cfg = config(0.12)
            .with_model_cap(24, ModelBudget::StopGrowing)
            .unwrap();
        let bumpy = BlackBoxUdf::from_fn("bumpy", 1, |x| (x[0] * 3.0).sin() + (x[0] * 7.0).cos());
        let mut olga = Olgapro::new(bumpy, cfg);
        let mut rng = StdRng::seed_from_u64(51);
        for i in 0..40 {
            let input = InputDistribution::diagonal_gaussian(&[(0.25 * i as f64, 0.3)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }
        assert!(olga.model_full(), "warm-up never filled the model");
        let mut twin = olga.clone();
        let mut reused = InferScratch::default();
        let mut grew_by_one = 0;
        let mut last: Vec<usize> = Vec::new();
        for i in 0..400 {
            let mu = 0.023 * i as f64;
            let input = InputDistribution::diagonal_gaussian(&[(mu, 0.3)]).unwrap();
            let a = olga
                .process_with(&input, &mut StdRng::seed_from_u64(i), &mut reused)
                .unwrap();
            let sel = reused.buf.select.selected.clone();
            grew_by_one += usize::from(sel.len() == last.len() + 1 && sel.starts_with(&last));
            last = sel;
            let b = twin
                .process_with(
                    &input,
                    &mut StdRng::seed_from_u64(i),
                    &mut InferScratch::default(),
                )
                .unwrap();
            assert_eq!(a.y_hat.values(), b.y_hat.values(), "tuple {i} mean CDF");
            assert_eq!(a.y_s.values(), b.y_s.values(), "tuple {i} lower");
            assert_eq!(a.y_l.values(), b.y_l.values(), "tuple {i} upper");
            assert_eq!(a.eps_gp.to_bits(), b.eps_gp.to_bits(), "tuple {i} eps_gp");
        }
        assert!(
            grew_by_one > 0,
            "the drift never grew a selection by its last index"
        );
    }

    impl Olgapro {
        /// `process_with` as it was before the bound stage became lazy:
        /// every inference builds its three ECDFs and ε_GP on the spot, and
        /// a retrained tuple re-sorts all three envelopes at `z_alpha`. The
        /// reference the lazy loop must match bit for bit.
        fn process_oracle(
            &mut self,
            input: &InputDistribution,
            rng: &mut dyn rand::RngCore,
            scratch: &mut InferScratch,
        ) -> Result<GpOutput> {
            self.udf.check_input(input)?;
            let calls_before = self.udf.calls();
            let split = self.config.split();
            let m = self.config.samples_per_input();
            input.sample_n_into(rng, m, &mut scratch.samples);
            let max_rows = match self.config.max_model_points {
                0 => self.model.len() + self.config.max_points_per_input,
                cap => cap.max(self.model.len()),
            };
            scratch.buf.predict.start_tuning(max_rows, m);
            let samples = &scratch.samples;
            let bbox = BoundingBox::from_points(samples.iter().map(|s| s.as_slice()));

            let mut points_added = 0usize;
            while self.model.len() < self.config.bootstrap_points.max(2) {
                let idx = (self.model.len() * samples.len()) / self.config.bootstrap_points.max(2);
                let x = samples[idx.min(samples.len() - 1)].clone();
                let y = self.eval_udf(&x)?;
                self.model.add_point(x, y)?;
                points_added += 1;
            }

            let infer_and_bound = |olga: &Olgapro, buf: &mut InferBuffers, z: f64, tuning: bool| {
                olga.infer(samples, &bbox, buf, tuning)?;
                olga.bound(buf, z)
            };
            let z_alpha = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);
            let (mut eps_gp, mut envelopes) =
                infer_and_bound(self, &mut scratch.buf, z_alpha, true)?;
            let mut capped = false;
            while eps_gp > split.eps_gp && points_added < self.config.max_points_per_input {
                if self.model_full() {
                    self.metrics.cap_hits.inc();
                    capped = true;
                    break;
                }
                let pick = self.pick_training_sample(samples, &scratch.buf.sds, z_alpha, rng)?;
                let x = samples[pick].clone();
                let y = self.eval_udf(&x)?;
                self.model.add_point(x, y)?;
                points_added += 1;
                (eps_gp, envelopes) = infer_and_bound(self, &mut scratch.buf, z_alpha, true)?;
            }

            let mut retrained = false;
            if points_added > 0 {
                let do_retrain = match self.config.retrain {
                    RetrainStrategy::Never => false,
                    RetrainStrategy::Eager => true,
                    RetrainStrategy::NewtonThreshold(dt) => newton_step_norm(&self.model)? > dt,
                };
                if do_retrain {
                    train(&mut self.model, &TrainConfig::default())?;
                    retrained = true;
                    let z2 = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);
                    (eps_gp, _) = infer_and_bound(self, &mut scratch.buf, z2, false)?;
                    envelopes = envelope_ecdfs(&scratch.buf.means, &scratch.buf.sds, z_alpha)?;
                }
            }

            let exhausted = points_added >= self.config.max_points_per_input;
            let stop = if capped {
                TuneStop::ModelCap
            } else if exhausted && eps_gp > split.eps_gp {
                TuneStop::TuningBudget
            } else {
                TuneStop::WithinBudget
            };
            self.metrics.model_points.set(self.model.len() as u64);
            self.metrics.model_size.record(self.model.len() as u64);
            let (y_hat, y_s, y_l) = envelopes;
            Ok(GpOutput {
                y_hat,
                y_s,
                y_l,
                eps_gp,
                eps_mc: split.eps_mc,
                z_alpha,
                points_added,
                retrained,
                udf_calls: self.udf.calls() - calls_before,
                stop: Some(stop),
            })
        }
    }

    type OutputBits = (Vec<Vec<u64>>, [u64; 2], usize, bool, u64, Option<TuneStop>);

    /// Everything one evaluation leaves observable, as bits.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// The envelopes, `[ε_GP, z_α]`, points added, retrained, UDF calls,
        /// why tuning stopped.
        out: std::result::Result<OutputBits, String>,
        alpha: Vec<u64>,
        theta: Vec<u64>,
        len_epoch: (usize, u64),
        udf_calls: u64,
        /// The registry's record of model growth and cap hits:
        /// `olgapro.cap_hits`, and the `olgapro.model_points` gauge and
        /// `olgapro.model_size` histogram after every tuple.
        model_metrics: (u64, u64, HistogramSnapshot),
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn observe(olga: &Olgapro, metrics: &MetricsRegistry, out: Result<GpOutput>) -> Observed {
        let mut snap = metrics.snapshot();
        Observed {
            out: out
                .map(|o| {
                    (
                        [&o.y_hat, &o.y_s, &o.y_l]
                            .map(|e| bits(e.values()))
                            .to_vec(),
                        [o.eps_gp.to_bits(), o.z_alpha.to_bits()],
                        o.points_added,
                        o.retrained,
                        o.udf_calls,
                        o.stop,
                    )
                })
                .map_err(|e| e.to_string()),
            alpha: bits(olga.model().alpha()),
            theta: bits(&olga.model().kernel().params()),
            len_epoch: (olga.model().len(), olga.model().epoch()),
            udf_calls: olga.udf().calls(),
            model_metrics: (
                snap.counters["olgapro.cap_hits"],
                snap.gauges["olgapro.model_points"],
                snap.histograms.remove("olgapro.model_size").unwrap(),
            ),
        }
    }

    /// F1–F4-like shapes: smooth and spiky, in one and two dimensions.
    fn shaped_udf(shape: usize) -> BlackBoxUdf {
        match shape {
            0 => smooth_udf(),
            1 => BlackBoxUdf::from_fn("bumpy", 1, |x| (x[0] * 3.0).sin() + (x[0] * 7.0).cos()),
            2 => BlackBoxUdf::from_fn("bowl", 2, |x| (0.6 * x[0]).sin() * (0.4 * x[1]).cos()),
            _ => BlackBoxUdf::from_fn("ridge", 2, |x| {
                (2.5 * x[0]).sin() + 1.0 / (1.0 + (x[0] - x[1]).powi(2))
            }),
        }
    }

    #[test]
    fn lazy_bounds_match_the_eager_oracle_bitwise() {
        let caps = [0, 9, 6];
        let heuristics = [
            TuningHeuristic::LargestVariance,
            TuningHeuristic::Random,
            TuningHeuristic::OptimalGreedy,
        ];
        let retrains = [
            RetrainStrategy::Never,
            RetrainStrategy::Eager,
            RetrainStrategy::NewtonThreshold(0.05),
        ];
        let (mut runs, mut certified, mut fell_back, mut superseded) = (0, 0, 0, 0);
        for shape in 0..4 {
            for cap in caps {
                for metric in [Metric::Discrepancy, Metric::Ks] {
                    for heuristic in heuristics {
                        for retrain in retrains {
                            let acc = AccuracyRequirement::new(0.3, 0.05, 0.02, metric).unwrap();
                            let mut cfg = OlgaproConfig::new(acc, 2.0).unwrap();
                            cfg.init_lengthscale = 1.0;
                            cfg.retrain = retrain;
                            cfg.max_points_per_input = 4;
                            cfg.set_model_cap(cap).unwrap();
                            let mk = || {
                                let metrics = MetricsRegistry::new();
                                let olga = Olgapro::new(shaped_udf(shape), cfg.clone())
                                    .with_tuning(heuristic)
                                    .with_metrics(&metrics);
                                (olga, metrics, InferScratch::default())
                            };
                            let (mut lazy, lazy_metrics, mut lazy_scratch) = mk();
                            let (mut eager, eager_metrics, mut eager_scratch) = mk();
                            runs += 1;
                            let tuples = if heuristic == TuningHeuristic::OptimalGreedy {
                                3
                            } else {
                                8
                            };
                            for t in 0..tuples {
                                let seed = 1000 * runs + t;
                                let dims: Vec<(f64, f64)> = (0..lazy.udf().dim())
                                    .map(|d| (0.7 * t as f64 + 0.3 * d as f64, 0.4))
                                    .collect();
                                let input = InputDistribution::diagonal_gaussian(&dims).unwrap();
                                let got = lazy.process_with(
                                    &input,
                                    &mut StdRng::seed_from_u64(seed),
                                    &mut lazy_scratch,
                                );
                                let want = eager.process_oracle(
                                    &input,
                                    &mut StdRng::seed_from_u64(seed),
                                    &mut eager_scratch,
                                );
                                assert_eq!(
                                    observe(&lazy, &lazy_metrics, got),
                                    observe(&eager, &eager_metrics, want),
                                    "{shape} {cap} {metric:?} {heuristic:?} {retrain:?}, tuple {t}"
                                );
                            }
                            // Without retraining, a skipped bound is a
                            // certified one, and a bound built beyond each
                            // tuple's emitted one is a certificate that
                            // failed on a loop that did go on.
                            let snap = lazy_metrics.snapshot();
                            let (built, skipped, emitted) = (
                                snap.counters["olgapro.bounds_built"],
                                snap.counters["olgapro.bounds_skipped"],
                                snap.histograms["olgapro.model_size"].count,
                            );
                            if retrain == RetrainStrategy::Never {
                                certified += skipped;
                                fell_back += built - emitted;
                            } else {
                                superseded += skipped;
                            }
                        }
                    }
                }
            }
        }
        assert!(runs >= 200, "{runs} runs");
        assert!(
            certified > 100 && fell_back > 10 && superseded > 100,
            "certified {certified}, fell back {fell_back}, superseded {superseded}"
        );
    }

    #[test]
    fn a_retrain_that_accepts_no_step_keeps_the_bound_it_had() {
        // F2 away from its spike, with both hyperparameters on the walls of
        // the box and both gradients pointing out of it: `train` takes one
        // gradient and proposes nothing, so the step-12 re-inference the
        // oracle still runs reproduces the tuning loop's last one.
        let f2 = BlackBoxUdf::from_fn("f2", 1, |x| (-(x[0] - 9.54).powi(2) / 0.72).exp());
        let mut cfg = config(0.2);
        cfg.retrain = RetrainStrategy::Eager;
        let mut proposed_nothing = 0;
        for t in 0..8u64 {
            let mk = || {
                let metrics = MetricsRegistry::new();
                let mut olga = Olgapro::new(f2.clone(), cfg.clone()).with_metrics(&metrics);
                olga.model.set_hyperparams(&[-8.0, 8.0]).unwrap();
                (olga, metrics)
            };
            let ((mut skip, skip_metrics), (mut oracle, oracle_metrics)) = (mk(), mk());
            let input = InputDistribution::diagonal_gaussian(&[(0.7 * t as f64, 0.4)]).unwrap();
            let rng = || StdRng::seed_from_u64(t);
            let got = skip.process_with(&input, &mut rng(), &mut InferScratch::default());
            let want = oracle.process_oracle(&input, &mut rng(), &mut InferScratch::default());
            assert_eq!(
                observe(&skip, &skip_metrics, got),
                observe(&oracle, &oracle_metrics, want),
                "tuple {t}"
            );
            // The bootstrap points make every tuple retrain, once, and only
            // the oracle infers after it.
            let iters = &skip_metrics.snapshot().histograms["olgapro.train_iters"];
            assert_eq!(iters.count, 1, "tuple {t}");
            proposed_nothing += usize::from(iters.sum == 1);
            let inferences = |metrics: &MetricsRegistry| {
                let counters = metrics.snapshot().counters;
                counters["olgapro.lp_cache.hits"] + counters["olgapro.lp_cache.misses"]
            };
            assert_eq!(
                inferences(&skip_metrics) + 1,
                inferences(&oracle_metrics),
                "tuple {t}"
            );
        }
        assert_eq!(proposed_nothing, 8);
    }

    #[test]
    fn ruling_before_the_bound_matches_ruling_after_it_bitwise() {
        let mut olga = Olgapro::new(smooth_udf(), config(0.2));
        let mut rng = StdRng::seed_from_u64(61);
        for i in 0..8 {
            let input = InputDistribution::diagonal_gaussian(&[(0.8 * i as f64, 0.4)]).unwrap();
            olga.process(&input, &mut rng).unwrap();
        }
        let mut scratch = InferScratch::default();
        let (mut kept, mut filtered, mut ties) = (0, 0, 0);
        for i in 0..500u64 {
            let mu = 0.013 * i as f64;
            let input = InputDistribution::diagonal_gaussian(&[(mu, 0.5)]).unwrap();
            let full = olga
                .infer_only_with(&input, &mut StdRng::seed_from_u64(i), &mut scratch)
                .unwrap();
            let (lo, hi) = (0.2 + 0.001 * (i % 7) as f64, 0.8);
            let (_, rho_hat, rho_u) = full.tep_bounds(lo, hi);
            // θ on the tie itself (kept: the filter is strict), one ulp
            // above it (dropped), and a fixed one.
            let thetas = [rho_u, f64::from_bits(rho_u.to_bits() + 1), 0.5];
            for (k, theta) in thetas.into_iter().enumerate() {
                let Ok(pred) = Predicate::new(lo, hi, theta) else {
                    continue; // ρ_U of exactly 0 or 1 is no θ
                };
                let ruled = olga
                    .infer_ruled_with(
                        &input,
                        &mut StdRng::seed_from_u64(i),
                        &mut scratch,
                        Some(&pred),
                    )
                    .unwrap();
                match ruled {
                    FilterDecision::Filtered {
                        rho_upper,
                        udf_calls,
                    } => {
                        assert!(rho_u < theta, "tuple {i} θ {theta}: dropped at ρ_U {rho_u}");
                        // (Ruled early, the certificate can sit above ρ_U.)
                        assert!(rho_u <= rho_upper && rho_upper < theta && udf_calls == 0);
                        filtered += 1;
                    }
                    FilterDecision::Kept { output, tep } => {
                        assert!(rho_u >= theta, "tuple {i} θ {theta}: kept at ρ_U {rho_u}");
                        assert_eq!(tep.to_bits(), rho_hat.to_bits());
                        assert_eq!(output.y_hat.values(), full.y_hat.values());
                        assert_eq!(output.y_s.values(), full.y_s.values());
                        assert_eq!(output.y_l.values(), full.y_l.values());
                        assert_eq!(output.eps_gp.to_bits(), full.eps_gp.to_bits());
                        assert_eq!(output.z_alpha.to_bits(), full.z_alpha.to_bits());
                        kept += 1;
                        ties += usize::from(k == 0);
                    }
                }
                // The batch fast path rules alike and keeps the same bits:
                // its row, and the envelopes it sorted in the scratch.
                let row = olga
                    .infer_row_with(
                        &input,
                        &mut StdRng::seed_from_u64(i),
                        &mut scratch,
                        Some(&pred),
                    )
                    .unwrap();
                match row {
                    FilterDecision::Filtered { .. } => assert!(rho_u < theta),
                    FilterDecision::Kept { output: row, tep } => {
                        assert!(rho_u >= theta);
                        assert_eq!([tep, row.rho_hat].map(f64::to_bits), [rho_hat.to_bits(); 2]);
                        assert_eq!(row.output.ecdf.values(), full.y_hat.values());
                        assert_eq!(row.eps_gp.to_bits(), full.eps_gp.to_bits());
                        assert_eq!(
                            row.output.error_bound.to_bits(),
                            full.error_bound().to_bits()
                        );
                        assert_eq!(bits(&scratch.buf.envelopes[0]), bits(full.y_s.values()));
                        assert_eq!(bits(&scratch.buf.envelopes[1]), bits(full.y_l.values()));
                    }
                }
            }
        }
        assert!(
            kept > 100 && filtered > 100 && ties > 50,
            "{kept} {filtered} {ties}"
        );
    }

    /// `rho_upper_by_counting` as it was: one count over all m samples.
    fn rho_upper_by_counting(means: &[f64], sds: &[f64], z: f64, lo: f64, hi: f64) -> f64 {
        let (mut r_s, mut r_l, mut finite) = (0usize, 0usize, true);
        for (m, s) in means.iter().zip(sds) {
            let (low, high) = (m - z * s, m + z * s);
            finite &= low.is_finite() && high.is_finite();
            r_s += usize::from(low <= hi);
            r_l += usize::from(high <= lo);
        }
        let m = means.len() as f64;
        if finite {
            (r_s as f64 / m - r_l as f64 / m).clamp(0.0, 1.0)
        } else {
            f64::NAN
        }
    }

    impl Olgapro {
        /// `infer_ruled_with` as it was before it ruled over sample blocks:
        /// all m samples inferred in one call, then ρ_U counted once. The
        /// reference the block-ruled path must match, ruling for ruling.
        fn ruled_oracle(
            &self,
            input: &InputDistribution,
            rng: &mut dyn rand::RngCore,
            scratch: &mut InferScratch,
            predicate: Option<&Predicate>,
        ) -> Result<FilterDecision<GpOutput>> {
            self.udf.check_input(input)?;
            if self.model.is_empty() {
                return Err(CoreError::Gp(udf_gp::GpError::EmptyModel));
            }
            let split = self.config.split();
            let m = self.config.samples_per_input();
            input.sample_n_into(rng, m, &mut scratch.samples);
            let bbox = BoundingBox::from_points(scratch.samples.iter().map(|s| s.as_slice()));
            let z_alpha = simultaneous_z(self.model.kernel(), &bbox, split.delta_gp);
            let buf = &mut scratch.buf;
            self.infer(&scratch.samples, &bbox, buf, false)?;
            if let Some(p) = predicate {
                let rho_upper = rho_upper_by_counting(&buf.means, &buf.sds, z_alpha, p.lo, p.hi);
                if rho_upper < p.theta {
                    return Ok(FilterDecision::Filtered {
                        rho_upper,
                        udf_calls: 0,
                    });
                }
            }
            let (eps_gp, (y_hat, y_s, y_l)) = self.bound(buf, z_alpha)?;
            let output = GpOutput {
                y_hat,
                y_s,
                y_l,
                eps_gp,
                eps_mc: split.eps_mc,
                z_alpha,
                points_added: 0,
                retrained: false,
                udf_calls: 0,
                stop: None,
            };
            let tep = predicate.map_or(1.0, |p| output.tep_bounds(p.lo, p.hi).1);
            Ok(FilterDecision::Kept { output, tep })
        }
    }

    /// A ruling as bits: `Err(message)`, `Filtered` at its ρ_U, or `Kept`
    /// with its envelopes, `[ε_GP, z_α, tep]`.
    #[derive(Debug, PartialEq)]
    enum Ruled {
        Err(String),
        Filtered(f64),
        Kept(Vec<Vec<u64>>, [u64; 3]),
    }

    fn ruled(r: Result<FilterDecision<GpOutput>>) -> Ruled {
        match r {
            Err(e) => Ruled::Err(e.to_string()),
            Ok(FilterDecision::Filtered { rho_upper, .. }) => Ruled::Filtered(rho_upper),
            Ok(FilterDecision::Kept { output: o, tep }) => Ruled::Kept(
                [&o.y_hat, &o.y_s, &o.y_l]
                    .map(|e| bits(e.values()))
                    .to_vec(),
                [o.eps_gp, o.z_alpha, tep].map(f64::to_bits),
            ),
        }
    }

    #[test]
    fn block_ruling_matches_the_whole_batch_oracle() {
        // One scratch through every case: blocks of one tuple must not leak
        // into the next, whatever their sizes.
        let mut scratch = InferScratch::default();
        let (mut cases, mut far_drops, mut early) = (0, 0, 0);
        for shape in 0..4 {
            for global in [false, true] {
                let udf = shaped_udf(shape);
                let dim = udf.dim();
                let metrics = MetricsRegistry::new();
                let mut olga = Olgapro::new(udf, config(0.2)).with_metrics(&metrics);
                let mut rng = StdRng::seed_from_u64(70 + shape as u64);
                let at = |mu: f64| {
                    let dims: Vec<(f64, f64)> =
                        (0..dim).map(|d| (mu + 0.3 * d as f64, 0.4)).collect();
                    InputDistribution::diagonal_gaussian(&dims).unwrap()
                };
                for i in 0..8 {
                    olga.process(&at(0.8 * i as f64), &mut rng).unwrap();
                }
                // The global arm's tuples sit eight half-value distances
                // beyond the last training input: no training point is
                // selected, and inference runs on the whole model.
                let step = olga.model.half_value_distance().unwrap();
                let offset = if global { 0.8 * 7.0 + 8.0 * step } else { 0.0 };
                let factors_before =
                    olga.metrics.lp_cache_hits.get() + olga.metrics.lp_cache_misses.get();
                for t in 0..10u64 {
                    let input = at(offset + 0.61 * t as f64);
                    let seed = 1000 * shape as u64 + t;
                    let full = olga
                        .infer_only_with(
                            &input,
                            &mut StdRng::seed_from_u64(seed),
                            &mut InferScratch::default(),
                        )
                        .unwrap();
                    let y = &full.y_hat;
                    let span = (full.y_s.max() - full.y_l.min()).abs() + 1.0;
                    let intervals = [
                        (y.quantile(0.3), y.quantile(0.7)),           // inside
                        (y.quantile(0.5), y.max() + span),            // straddling
                        (y.max() + 3.0 * span, y.max() + 4.0 * span), // far above
                        (y.min() - 4.0 * span, y.min() - 3.0 * span), // far below
                    ];
                    let mut predicates = vec![(None, false)];
                    for (k, (lo, hi)) in intervals.into_iter().enumerate() {
                        for theta in [0.05, 0.5, 0.95] {
                            if let Ok(p) = Predicate::new(lo, hi, theta) {
                                predicates.push((Some(p), k >= 2));
                            }
                        }
                    }
                    for (pred, far) in predicates {
                        let what = format!("shape {shape} global {global} tuple {t} {pred:?}");
                        let before = olga.metrics.ruled_early.get();
                        let got = ruled(olga.infer_ruled_with(
                            &input,
                            &mut StdRng::seed_from_u64(seed),
                            &mut scratch,
                            pred.as_ref(),
                        ));
                        let want = ruled(olga.ruled_oracle(
                            &input,
                            &mut StdRng::seed_from_u64(seed),
                            &mut InferScratch::default(),
                            pred.as_ref(),
                        ));
                        let ruled_early = olga.metrics.ruled_early.get() > before;
                        match (&got, &want) {
                            (Ruled::Filtered(reported), Ruled::Filtered(rho_u)) => {
                                let theta = pred.unwrap().theta;
                                assert!(rho_u <= reported && *reported < theta, "{what}");
                                assert!(ruled_early || reported == rho_u, "{what}");
                                far_drops += usize::from(far);
                                early += usize::from(far && ruled_early);
                            }
                            _ => assert_eq!(got, want, "{what}"),
                        }
                        assert!(!ruled_early || matches!(got, Ruled::Filtered(_)), "{what}");
                        cases += 1;
                    }
                }
                let factors = olga.metrics.lp_cache_hits.get() + olga.metrics.lp_cache_misses.get();
                assert_eq!(factors == factors_before, global, "shape {shape}: global");

                // A model whose weights overflow infers a non-finite band:
                // no certificate, whatever θ — both paths reject it.
                let mut broken = olga.clone();
                broken.model.add_point(vec![1.0; dim], 1.7e308).unwrap();
                let pred = Predicate::new(1e6, 1e6 + 1.0, 0.95).unwrap();
                let got = broken.infer_ruled_with(
                    &at(offset + 1.0),
                    &mut StdRng::seed_from_u64(5),
                    &mut scratch,
                    Some(&pred),
                );
                let want = broken.ruled_oracle(
                    &at(offset + 1.0),
                    &mut StdRng::seed_from_u64(5),
                    &mut InferScratch::default(),
                    Some(&pred),
                );
                let (got, want) = (ruled(got), ruled(want));
                assert!(matches!(got, Ruled::Err(_)), "shape {shape}: {got:?}");
                assert_eq!(got, want, "shape {shape}: non-finite band");
            }
        }
        assert!(cases > 1000, "{cases}");
        assert!(
            far_drops > 100 && 2 * early > far_drops,
            "{early} of {far_drops}"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut olga = Olgapro::new(smooth_udf(), config(0.2));
        let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0), (0.0, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        assert!(matches!(
            olga.process(&input, &mut rng),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }
}
