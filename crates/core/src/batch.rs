//! The batch operator: how one tuple of a batch is ruled, emitted and
//! counted — written once, for every front-end.
//!
//! The paper has one per-tuple procedure: Algorithm 5 with the §5.5 filter
//! in front of it (Algorithm 1 with Remark 2.1's early stop on the MC
//! side). An [`Evaluator`] runs it over a batch in one of two shapes:
//!
//! * [`run_two_phase`](Evaluator::run_two_phase) — the parallel shape on a
//!   [`BatchScheduler`]. MC tuples share nothing, so the batch is one
//!   parallel map. GP tuples are inferred concurrently against the *frozen*
//!   model — and dropped there, before their bound stage, if `ρ_U < θ` —
//!   then ruled in tuple order: accept iff `ε_GP` is within budget or the
//!   model is full (a counted cap hit); otherwise re-run through the full
//!   model-mutating path. "Full" is read when the fold reaches the tuple:
//!   once earlier slow tuples of the batch have filled a stop-growing
//!   model, an over-budget fast result is accepted as inferred against the
//!   batch-start model — not what a reroute on the full model would give.
//! * [`run_sequential`](Evaluator::run_sequential) — every tuple through
//!   that same full path in order, each one tuning the model *before* the
//!   next is judged. Unlike a fast phase (which judges a whole batch
//!   against the batch-start model), no tuple here is ever ruled by a cold
//!   model — what `udf_join`'s warmup round needs.
//!
//! Both derive tuple `id`'s RNG from [`mix_seed`]`(seed, stream, id)` — the
//! caller's id, never the batch offset or the worker — and hand every
//! ruling to the caller's sink in tuple order, so rows, model mutations and
//! the returned [`BatchCounts`] are byte-identical for any worker count.
//! Evaluating a sparse subset of ids is bit-identical to the corresponding
//! tuples of the full run, provided the skipped tuples are ones the filter
//! would have dropped on the fast path (they mutate nothing).

use crate::config::{check_samples_per_tuple, AccuracyRequirement, OlgaproConfig};
use crate::filtering::{mc_eval_tuple, rule_tuned, FilterDecision, Predicate};
use crate::olgapro::{InferScratch, Olgapro};
use crate::output::{FastRow, OutputDistribution, TuneStop};
use crate::sched::{mix_seed, BatchOps, BatchScheduler, Verdict};
use crate::udf::BlackBoxUdf;
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_obs::MetricsRegistry;
use udf_prob::InputDistribution;

/// One tuple's ruling as the sink sees it: kept with its output
/// distribution and TEP, or filtered at its TEP upper bound.
pub type Ruling = FilterDecision<OutputDistribution>;

/// Which of the paper's two evaluators computes each tuple's output: the
/// one choice every front-end makes (UQL's binder resolves `USING auto` to
/// it with [`rule_based_choice`](crate::hybrid::rule_based_choice)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Direct Monte Carlo sampling (Algorithm 1).
    Mc,
    /// OLGAPRO (Algorithm 5). State (the GP model) persists across tuples,
    /// which is where the online speedup comes from.
    Gp,
}

/// How a batch's tuples are evaluated, with the state that persists across
/// batches.
#[derive(Clone, Debug)]
pub enum Evaluator {
    /// Direct Monte Carlo sampling (Algorithm 1): stateless per tuple.
    Mc {
        /// The UDF every tuple is evaluated through.
        udf: BlackBoxUdf,
        /// Sets the sample count and the filter's δ.
        accuracy: AccuracyRequirement,
    },
    /// OLGAPRO (Algorithm 5). The GP model warms up across tuples and
    /// batches, which is where the online speedup comes from. Boxed: the
    /// model state dwarfs the MC variant.
    Gp(Box<Olgapro>),
}

/// What is fixed across one batch: the seed words every tuple's RNG is
/// mixed from, and the selection predicate (if any) every tuple is ruled
/// against.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// The batch seed.
    pub seed: u64,
    /// Distinguishes independent consumers of one seed (the stream engine
    /// passes the query id; single-query callers pass 0).
    pub stream: u64,
    /// `Some` turns the batch into a selection: tuples whose TEP upper
    /// bound falls below θ are dropped.
    pub predicate: Option<Predicate>,
}

impl BatchSpec {
    fn rng(&self, id: u64) -> StdRng {
        StdRng::seed_from_u64(mix_seed(self.seed, self.stream, id))
    }
}

/// What a batch did with its tuples: the one counter block the relation,
/// join and stream front-ends all sum over their batches and print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Tuples examined.
    pub tuples_in: u64,
    /// Tuples emitted.
    pub kept: u64,
    /// Tuples the filter dropped, on either path.
    pub filtered: u64,
    /// Tuples settled without the slow path: kept or dropped straight from
    /// the parallel read-only phase.
    pub fast: u64,
    /// The kept ones among `fast`.
    pub fast_kept: u64,
    /// Tuples that took the sequential full path.
    pub slow: u64,
    /// UDF invocations across all tuples, kept or dropped.
    pub udf_calls: u64,
    /// Tuples emitted at a degraded (achieved) error bound because the
    /// model cap blocked further tuning ([`TuneStop::ModelCap`], or an
    /// over-budget fast-path result accepted on a full model).
    pub cap_hits: u64,
    /// Tuples whose tuning loop added its
    /// [`max_points_per_input`](crate::config::OlgaproConfig::max_points_per_input)
    /// points and stopped over budget ([`TuneStop::TuningBudget`]).
    pub tuning_budget: u64,
}

impl BatchCounts {
    fn note(&mut self, ruling: &Ruling, fast: bool) {
        self.tuples_in += 1;
        let (calls, kept) = match ruling {
            FilterDecision::Kept { output, .. } => (output.udf_calls, true),
            FilterDecision::Filtered { udf_calls, .. } => (*udf_calls, false),
        };
        self.udf_calls += calls;
        self.kept += u64::from(kept);
        self.filtered += u64::from(!kept);
        if fast {
            self.fast += 1;
            self.fast_kept += u64::from(kept);
        } else {
            self.slow += 1;
        }
    }
}

impl std::ops::AddAssign for BatchCounts {
    fn add_assign(&mut self, b: Self) {
        self.tuples_in += b.tuples_in;
        self.kept += b.kept;
        self.filtered += b.filtered;
        self.fast += b.fast;
        self.fast_kept += b.fast_kept;
        self.slow += b.slow;
        self.udf_calls += b.udf_calls;
        self.cap_hits += b.cap_hits;
        self.tuning_budget += b.tuning_budget;
    }
}

impl std::fmt::Display for BatchCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = udf_obs::fmt::KvLine::new()
            .field("in", self.tuples_in)
            .field("kept", self.kept)
            .field("filtered", self.filtered)
            .field("fast", self.fast)
            .field("slow", self.slow)
            .field("udf_calls", self.udf_calls)
            .field("cap_hits", self.cap_hits)
            .field("tuning_budget", self.tuning_budget);
        f.write_str(&line.finish())
    }
}

impl Evaluator {
    /// Build the evaluator of one query: the one place every front-end
    /// (relation, join, stream) validates its configuration.
    ///
    /// `output_range` is the caller's estimate of the UDF output spread
    /// (it scales Γ and λ on the GP path) and must be finite and positive
    /// under either strategy. `model_cap` caps the GP model's training
    /// set; **`0` is the uncapped sentinel**, nonzero caps below the GP
    /// bootstrap size are rejected, and MC ignores it. An accuracy that
    /// needs more than [`MAX_SAMPLES_PER_TUPLE`] samples per tuple is
    /// refused here rather than in the allocator.
    ///
    /// [`MAX_SAMPLES_PER_TUPLE`]: crate::config::MAX_SAMPLES_PER_TUPLE
    pub fn new(
        strategy: EvalStrategy,
        udf: BlackBoxUdf,
        accuracy: AccuracyRequirement,
        output_range: f64,
        model_cap: usize,
    ) -> Result<Self> {
        // Validates `output_range` under either strategy; only GP keeps it.
        let mut cfg = OlgaproConfig::new(accuracy, output_range)?;
        Ok(match strategy {
            EvalStrategy::Mc => {
                check_samples_per_tuple(accuracy.mc_samples())?;
                Evaluator::Mc { udf, accuracy }
            }
            EvalStrategy::Gp => {
                cfg.set_model_cap(model_cap)?;
                check_samples_per_tuple(cfg.samples_per_input())?;
                Evaluator::Gp(Box::new(Olgapro::new(udf, cfg)))
            }
        })
    }

    /// Wire observability: a GP evaluator's model registers its
    /// `olgapro.*` handles in `metrics`; MC has none. Purely
    /// observational — results are byte-identical wired or not.
    pub fn set_metrics(&mut self, metrics: &MetricsRegistry) {
        if let Some(olga) = self.olgapro_mut() {
            olga.set_metrics(metrics);
        }
    }

    /// The GP evaluator, when this is [`Evaluator::Gp`] — model size and
    /// core statistics for observability.
    pub fn olgapro(&self) -> Option<&Olgapro> {
        match self {
            Evaluator::Mc { .. } => None,
            Evaluator::Gp(olga) => Some(olga),
        }
    }

    /// Mutable access to the GP evaluator (caps, budgets, observability).
    pub fn olgapro_mut(&mut self) -> Option<&mut Olgapro> {
        match self {
            Evaluator::Mc { .. } => None,
            Evaluator::Gp(olga) => Some(olga),
        }
    }

    /// Run `n` tuples as one batch on `sched`'s workers.
    ///
    /// `tuple(i)` yields the `i`-th tuple's caller-chosen id (its seed word
    /// and the label `sink` receives) and its input; `sink` is called once
    /// per tuple, in tuple order, on the calling thread. See the
    /// [module docs](self) for the ruling and the determinism contract.
    pub fn run_two_phase<'a>(
        &mut self,
        sched: &BatchScheduler,
        spec: BatchSpec,
        n: usize,
        tuple: impl Fn(usize) -> (u64, &'a InputDistribution) + Sync,
        mut sink: impl FnMut(u64, Ruling) + Sync,
    ) -> Result<BatchCounts> {
        let mut counts = BatchCounts::default();
        match self {
            Evaluator::Mc { udf, accuracy } => {
                let rulings = sched.try_map(n, |i| {
                    let (id, input) = tuple(i);
                    mc_eval_tuple(
                        udf,
                        input,
                        accuracy,
                        spec.predicate.as_ref(),
                        &mut spec.rng(id),
                    )
                })?;
                for (i, ruling) in rulings.into_iter().enumerate() {
                    let ruling = ruling?;
                    counts.note(&ruling, true);
                    sink(tuple(i).0, ruling);
                }
            }
            Evaluator::Gp(olga) => {
                let mut ops = GpBatch {
                    budget: olga.config().split().eps_gp,
                    olga,
                    sched,
                    spec,
                    tuple: &tuple,
                    sink: &mut sink,
                    counts,
                    frozen: None,
                };
                sched.run_two_phase(&mut ops, n)?;
                counts = ops.counts;
            }
        }
        Ok(counts)
    }

    /// Run `n` tuples in order through the full path (see the
    /// [module docs](self)); `tuple` and `sink` as in
    /// [`run_two_phase`](Evaluator::run_two_phase). Every tuple counts as
    /// slow-path work. Nothing runs concurrently, so results are trivially
    /// independent of worker count.
    pub fn run_sequential<'a>(
        &mut self,
        spec: BatchSpec,
        n: usize,
        tuple: impl Fn(usize) -> (u64, &'a InputDistribution),
        mut sink: impl FnMut(u64, Ruling),
    ) -> Result<BatchCounts> {
        let mut counts = BatchCounts::default();
        // One scratch for the run, as `run_two_phase` has one per worker
        // slot.
        let mut scratch = InferScratch::default();
        for i in 0..n {
            let (id, input) = tuple(i);
            let mut rng = spec.rng(id);
            let pred = spec.predicate.as_ref();
            let ruling = match self {
                Evaluator::Mc { udf, accuracy } => {
                    mc_eval_tuple(udf, input, accuracy, pred, &mut rng)?
                }
                Evaluator::Gp(olga) => {
                    slow_tuple(olga, input, pred, &mut rng, &mut scratch, &mut counts)?
                }
            };
            counts.note(&ruling, false);
            sink(id, ruling);
        }
        Ok(counts)
    }
}

/// The full model-mutating path of one GP tuple: Algorithm 5 on `scratch`,
/// behind the §5.5 filter when a predicate is attached. Why its tuning
/// stopped is counted before the filter rules, so a dropped tuple that hit
/// the cap or the tuning budget counts too.
fn slow_tuple(
    olga: &mut Olgapro,
    input: &InputDistribution,
    predicate: Option<&Predicate>,
    rng: &mut StdRng,
    scratch: &mut InferScratch,
    counts: &mut BatchCounts,
) -> Result<Ruling> {
    let out = olga.process_with(input, rng, scratch)?;
    match out.stop {
        Some(TuneStop::ModelCap) => counts.cap_hits += 1,
        Some(TuneStop::TuningBudget) => counts.tuning_budget += 1,
        Some(TuneStop::WithinBudget) | None => {}
    }
    let ruling = match predicate {
        Some(pred) => rule_tuned(out, pred),
        None => FilterDecision::Kept {
            output: out,
            tep: 1.0,
        },
    };
    Ok(ruling.map(|out, _| out.into_distribution()))
}

/// The [`BatchOps`] of one GP batch: fast path = read-only inference,
/// accept hook = §5.5 filter + ε_GP budget + model-size cap, slow path =
/// [`slow_tuple`] on the calling thread's slot scratch. A fast result waits
/// for the fold as a [`FastRow`], one window at a time
/// ([`BatchOps::freeze`]), and is what the batch-start model infers: the
/// first slow tuple of a windowed batch clones the evaluator first (no
/// scratch buffers; a fresh `model_id`, so a slot's predictor cache can
/// only miss on it), and later windows infer from that clone. The accept
/// hook reads the live model. Rulings reach the sink in tuple order.
struct GpBatch<'o, 'a> {
    olga: &'o mut Olgapro,
    sched: &'o BatchScheduler,
    spec: BatchSpec,
    /// The ε_GP share of the accuracy budget.
    budget: f64,
    tuple: &'o (dyn Fn(usize) -> (u64, &'a InputDistribution) + Sync),
    sink: &'o mut (dyn FnMut(u64, Ruling) + Sync),
    counts: BatchCounts,
    /// `None` until the batch is windowed; then the batch-start evaluator,
    /// once the fold has run a slow tuple.
    frozen: Option<Option<Olgapro>>,
}

impl GpBatch<'_, '_> {
    /// The evaluator the fast phase infers from: the batch-start state.
    fn read(&self) -> &Olgapro {
        self.frozen
            .as_ref()
            .and_then(Option::as_ref)
            .unwrap_or(self.olga)
    }

    fn emit(&mut self, id: u64, ruling: Ruling, fast: bool) {
        self.counts.note(&ruling, fast);
        (self.sink)(id, ruling);
    }
}

impl BatchOps<FastRow> for GpBatch<'_, '_> {
    fn tuple_seed(&self, idx: usize) -> u64 {
        mix_seed(self.spec.seed, self.spec.stream, (self.tuple)(idx).0)
    }

    fn needs_bootstrap(&self) -> bool {
        self.olga.model().is_empty()
    }

    fn fast(&self, idx: usize, rng: &mut StdRng, scratch: &mut InferScratch) -> Result<FastRow> {
        let out = self
            .read()
            .infer_only_with((self.tuple)(idx).1, rng, scratch)?;
        Ok(scratch.row(out, 1.0))
    }

    fn fast_ruled(
        &self,
        idx: usize,
        rng: &mut StdRng,
        scratch: &mut InferScratch,
    ) -> Result<FilterDecision<FastRow>> {
        // Online filtering on the envelope upper bound (§5.5): the bound
        // only widens on an under-trained model, so dropping here is sound
        // and costs zero UDF calls — nor, ruled before the bound stage, any
        // sort.
        let pred = self.spec.predicate.as_ref();
        self.read()
            .infer_row_with((self.tuple)(idx).1, rng, scratch, pred)
    }

    fn accept(&self, _idx: usize, out: &FastRow) -> Verdict {
        // (`fast_ruled` has already dropped what the filter drops.) A full
        // stop-growing model accepts at the achieved bound, which keeps
        // per-tuple cost bounded on long streams: the slow path could not
        // tune (`process` degenerates to `infer_only_with` there). Rerouting
        // would give byte-identical output only if the model was already
        // full when the fast phase read it. If earlier slow tuples of this
        // batch filled it, `out` is the batch-start model's inference, not
        // the full model's, and it is accepted all the same.
        if out.eps_gp <= self.budget || self.olga.model_full() {
            Verdict::Accept
        } else {
            Verdict::Reroute
        }
    }

    fn emit_fast(&mut self, idx: usize, out: FastRow) -> Result<()> {
        if out.eps_gp > self.budget {
            // Only reachable through the model-full acceptance above.
            self.olga.note_cap_hit();
            self.counts.cap_hits += 1;
        }
        let ruling = FilterDecision::Kept {
            output: out.output,
            tep: out.rho_hat,
        };
        self.emit((self.tuple)(idx).0, ruling, true);
        Ok(())
    }

    fn emit_filtered(&mut self, idx: usize, rho_upper: f64) -> Result<()> {
        let ruling = FilterDecision::Filtered {
            rho_upper,
            udf_calls: 0,
        };
        self.emit((self.tuple)(idx).0, ruling, true);
        Ok(())
    }

    fn slow(&mut self, idx: usize, rng: &mut StdRng) -> Result<()> {
        if let Some(frozen @ None) = &mut self.frozen {
            *frozen = Some(self.olga.clone());
        }
        let (id, input) = (self.tuple)(idx);
        let pred = self.spec.predicate;
        let ruling = {
            let scratch = &mut self.sched.caller_scratch();
            slow_tuple(
                self.olga,
                input,
                pred.as_ref(),
                rng,
                scratch,
                &mut self.counts,
            )?
        };
        self.emit(id, ruling, false);
        Ok(())
    }

    fn freeze(&mut self) -> bool {
        self.frozen = Some(None);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Metric, OlgaproConfig};
    use crate::udf::tests::counting;
    use std::sync::atomic::Ordering;

    fn setup(eps: f64) -> Olgapro {
        setup_with(eps, |_| {})
    }

    /// [`setup`] with the config adjusted before the evaluator is built.
    fn setup_with(eps: f64, adjust: impl FnOnce(&mut OlgaproConfig)) -> Olgapro {
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let acc = AccuracyRequirement::new(eps, 0.05, 0.02, Metric::Discrepancy).unwrap();
        let mut cfg = OlgaproConfig::new(acc, 2.0).unwrap();
        adjust(&mut cfg);
        Olgapro::new(udf, cfg)
    }

    fn inputs(n: usize) -> Vec<InputDistribution> {
        (0..n)
            .map(|i| {
                InputDistribution::diagonal_gaussian(&[(1.0 + 0.8 * i as f64 % 8.0, 0.4)]).unwrap()
            })
            .collect()
    }

    /// A plain (unfiltered) GP evaluator with its own pool, tuple id = index.
    struct Par {
        eval: Evaluator,
        sched: BatchScheduler,
    }

    impl Par {
        fn new(olga: Olgapro, workers: usize) -> Self {
            Par {
                eval: Evaluator::Gp(Box::new(olga)),
                sched: BatchScheduler::new(workers),
            }
        }

        fn olga(&self) -> &Olgapro {
            self.eval.olgapro().unwrap()
        }

        fn process_batch(
            &mut self,
            batch: &[InputDistribution],
            seed: u64,
        ) -> (Vec<OutputDistribution>, BatchCounts) {
            let spec = BatchSpec {
                seed,
                stream: 0,
                predicate: None,
            };
            let mut outs = Vec::new();
            let counts = self
                .eval
                .run_two_phase(
                    &self.sched,
                    spec,
                    batch.len(),
                    |i| (i as u64, &batch[i]),
                    |id, ruling| match ruling {
                        FilterDecision::Kept { output, tep } => {
                            assert_eq!((id, tep), (outs.len() as u64, 1.0), "tuple order");
                            outs.push(output);
                        }
                        FilterDecision::Filtered { .. } => panic!("no predicate, tuple {id}"),
                    },
                )
                .unwrap();
            (outs, counts)
        }
    }

    #[test]
    fn batch_results_match_accuracy_budget() {
        let mut par = Par::new(setup(0.2), 4);
        let batch = inputs(10);
        let (outs, counts) = par.process_batch(&batch, 7);
        assert_eq!(outs.len(), 10);
        assert_eq!(counts.tuples_in, 10);
        assert_eq!(counts.fast + counts.slow, 10);
        assert_eq!(counts.filtered, 0, "no predicate on this batch");
        assert_eq!(
            counts.udf_calls,
            outs.iter().map(|o| o.udf_calls).sum::<u64>()
        );
        let split = par.olga().config().split();
        for out in &outs {
            // Every tuned point costs one UDF call; 10 is the tuning budget.
            let eps_gp = out.error_bound - split.eps_mc;
            assert!(
                eps_gp <= split.eps_gp + 1e-12 || out.udf_calls == 10,
                "eps_gp {eps_gp} exceeds budget {}",
                split.eps_gp
            );
        }
    }

    #[test]
    fn warm_batches_take_fast_path() {
        let mut par = Par::new(setup(0.2), 4);
        let batch = inputs(8);
        par.process_batch(&batch, 1);
        par.process_batch(&batch, 2);
        let (_, counts) = par.process_batch(&batch, 3);
        assert!(
            counts.fast >= 7,
            "converged batch should be almost all fast-path: {counts:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Par::new(setup(0.2), 2);
        let mut b = Par::new(setup(0.2), 8);
        let batch = inputs(6);
        // Warm both identically until the model converges (the warm-up
        // batches share seeds, so the two models evolve in lock-step).
        for seed in 11..16 {
            a.process_batch(&batch, seed);
            b.process_batch(&batch, seed);
        }
        let (oa, ca) = a.process_batch(&batch, 99);
        let (ob, cb) = b.process_batch(&batch, 99);
        assert_eq!(ca, cb, "routing must not depend on worker count");
        assert_eq!(
            ca.slow, 0,
            "warm-up insufficient: still tuning after 5 batches"
        );
        // Same seed, different worker counts → identical outputs, with no
        // slow-path escape hatch: every tuple must agree. The envelopes do
        // not leave the operator, so they are re-inferred from each side's
        // (unchanged — nothing rerouted) model under the tuple's own seed.
        for (i, (x, y)) in oa.iter().zip(&ob).enumerate() {
            assert_eq!(x.ecdf.values(), y.ecdf.values(), "tuple {i} mean CDF");
            assert_eq!(x.error_bound, y.error_bound, "tuple {i} error bound");
            let infer = |p: &Par| {
                let mut rng = StdRng::seed_from_u64(mix_seed(99, 0, i as u64));
                p.olga()
                    .infer_only_with(&batch[i], &mut rng, &mut InferScratch::default())
                    .unwrap()
            };
            let (ga, gb) = (infer(&a), infer(&b));
            assert_eq!(ga.y_hat.values(), x.ecdf.values(), "tuple {i} emitted mean");
            assert_eq!(ga.y_s.values(), gb.y_s.values(), "tuple {i} lower envelope");
            assert_eq!(ga.y_l.values(), gb.y_l.values(), "tuple {i} upper envelope");
            assert_eq!(ga.eps_gp, gb.eps_gp, "tuple {i} eps_gp");
        }
    }

    #[test]
    fn cold_batches_are_also_deterministic() {
        // Even bootstrap + slow-path (model-mutating) batches are
        // byte-identical across worker counts, because slow work folds in
        // tuple order with per-tuple seeds.
        let batch = inputs(6);
        let mut a = Par::new(setup(0.2), 2);
        let mut b = Par::new(setup(0.2), 8);
        let (oa, ca) = a.process_batch(&batch, 11);
        let (ob, cb) = b.process_batch(&batch, 11);
        assert_eq!(ca, cb);
        assert!(ca.slow > 0, "cold batch must exercise the slow path");
        for (i, (x, y)) in oa.iter().zip(&ob).enumerate() {
            assert_eq!(x.ecdf.values(), y.ecdf.values(), "tuple {i}");
        }
    }

    #[test]
    fn full_model_accepts_on_the_fast_path_identically_for_any_workers() {
        let cap = 8usize;
        let run = |workers: usize| {
            let metrics = udf_obs::MetricsRegistry::new();
            let mut olga = setup(0.12).with_metrics(&metrics);
            olga.set_model_cap(cap).unwrap();
            let mut par = Par::new(olga, workers);
            let batch: Vec<InputDistribution> = (0..24)
                .map(|i| InputDistribution::diagonal_gaussian(&[(0.5 * i as f64, 0.3)]).unwrap())
                .collect();
            let (_, cold) = par.process_batch(&batch, 5);
            let (outs, counts) = par.process_batch(&batch, 6);
            let registry_hits = metrics.snapshot().counters["olgapro.cap_hits"];
            (outs, cold, counts, par, registry_hits)
        };
        let (o2, cold2, c2, p2, hits2) = run(2);
        let (o8, cold8, c8, _, hits8) = run(8);
        assert!(p2.olga().model().len() <= cap, "cap overshoot");
        assert!(
            p2.olga().model_full(),
            "workload too easy: cap never reached"
        );
        assert!(c2.cap_hits > 0, "degraded accepts not counted");
        assert_eq!(
            c2.slow, 0,
            "a full stop-growing model must not reroute: {c2:?}"
        );
        assert_eq!(c2, c8, "routing must not depend on worker count");
        assert_eq!(hits2, hits8);
        assert_eq!(
            cold2.cap_hits + c2.cap_hits,
            hits2,
            "the counter block must see every cap hit the registry counted"
        );
        assert_eq!(cold2, cold8);
        for (i, (x, y)) in o2.iter().zip(&o8).enumerate() {
            assert_eq!(x.ecdf.values(), y.ecdf.values(), "tuple {i}");
            assert_eq!(x.error_bound, y.error_bound, "tuple {i}");
        }
    }

    #[test]
    fn cap_reached_mid_fold_accepts_what_the_batch_start_model_inferred() {
        // A cold model capped at 6 points, tuned at most 2 points a tuple:
        // the first slow tuples of the second batch fill it, and every
        // over-budget tuple ruled after them is accepted at its fast-phase
        // output — `infer_only_with` on the batch-start model.
        let mut olga = setup_with(0.12, |cfg| cfg.max_points_per_input = 2);
        olga.set_model_cap(6).unwrap();
        let mut par = Par::new(olga, 2);
        let batch: Vec<InputDistribution> = (0..24)
            .map(|i| InputDistribution::diagonal_gaussian(&[(0.5 * i as f64, 0.3)]).unwrap())
            .collect();
        par.process_batch(&batch[..1], 5);
        let start = par.olga().clone();
        assert!(!start.model_full(), "the cap must be reached mid-fold");
        let (outs, counts) = par.process_batch(&batch, 6);
        assert!(par.olga().model_full() && counts.slow > 0, "{counts:?}");
        let split = start.config().split();
        let infer = |olga: &Olgapro, i: usize| {
            let mut rng = StdRng::seed_from_u64(mix_seed(6, 0, i as u64));
            olga.infer_only_with(&batch[i], &mut rng, &mut InferScratch::default())
                .unwrap()
                .into_distribution()
        };
        let (mut stale, mut moved) = (0, 0);
        for (i, out) in outs.iter().enumerate() {
            // Over budget at no UDF call: accepted because the model was
            // full when the fold reached it.
            if out.udf_calls > 0 || out.error_bound <= split.eps_mc + split.eps_gp {
                continue;
            }
            let want = infer(&start, i);
            assert_eq!(out.ecdf.values(), want.ecdf.values(), "tuple {i}");
            assert_eq!(out.error_bound, want.error_bound, "tuple {i}");
            stale += 1;
            moved += usize::from(infer(par.olga(), i).ecdf.values() != want.ecdf.values());
        }
        assert!(
            stale > 0 && moved > 0,
            "{stale} stale, {moved} moved: {counts:?}"
        );
        assert!(counts.cap_hits >= stale, "{counts:?}");
    }

    #[test]
    fn later_windows_infer_from_the_batch_start_model_for_any_workers() {
        // A warm model, then a batch whose first tuple lies beyond the
        // trained range: it reroutes and tunes the model before the fast
        // phase of the later windows (3 of 128 tuples at 8 workers) has run.
        let mut warm = setup(0.2);
        let mut rng = StdRng::seed_from_u64(4);
        for input in inputs(8) {
            warm.process(&input, &mut rng).unwrap();
        }
        let mut batch = vec![InputDistribution::diagonal_gaussian(&[(9.5, 0.4)]).unwrap()];
        batch.extend(inputs(299));
        let infer = |olga: &Olgapro, i: usize| {
            let mut rng = StdRng::seed_from_u64(mix_seed(3, 0, i as u64));
            olga.infer_only_with(&batch[i], &mut rng, &mut InferScratch::default())
                .unwrap()
        };
        let mut runs = Vec::new();
        for workers in [1, 2, 8] {
            let mut par = Par::new(warm.clone(), workers);
            let (outs, counts) = par.process_batch(&batch, 3);
            assert!(
                outs[0].udf_calls > 0,
                "{workers} workers: tuple 0 must tune"
            );
            assert!(par.olga().model().len() > warm.model().len(), "{counts:?}");
            let (mut fast, mut moved) = (0, 0);
            for (i, out) in outs.iter().enumerate() {
                // What the accept hook kept: within budget as inferred from
                // the batch-start model (the model is uncapped).
                let want = infer(&warm, i);
                if want.eps_gp > warm.config().split().eps_gp {
                    continue;
                }
                let what = format!("{workers} workers, tuple {i}");
                assert_eq!(out.ecdf.values(), want.y_hat.values(), "{what}");
                let bound = want.error_bound().to_bits();
                assert_eq!(out.error_bound.to_bits(), bound, "{what}");
                fast += 1;
                moved += usize::from(infer(par.olga(), i).y_hat.values() != want.y_hat.values());
            }
            assert!(fast > 200 && moved > 0, "{fast} fast, {moved} moved");
            runs.push((outs, counts));
        }
        for (outs, counts) in &runs[1..] {
            assert_eq!(counts, &runs[0].1);
            for (x, y) in outs.iter().zip(&runs[0].0) {
                assert_eq!(x.ecdf.values(), y.ecdf.values());
            }
        }
    }

    /// [`GpBatch`] with a fold that keeps every fast-phase result as it
    /// reaches the fold: the row the accept hook and the sink would read, or
    /// the ρ_U certificate of a tuple the fast path dropped.
    struct Rows<'o, 'a> {
        inner: GpBatch<'o, 'a>,
        rows: Vec<(usize, std::result::Result<FastRow, f64>)>,
    }

    impl BatchOps<FastRow> for Rows<'_, '_> {
        fn tuple_seed(&self, idx: usize) -> u64 {
            self.inner.tuple_seed(idx)
        }

        fn fast(
            &self,
            idx: usize,
            rng: &mut StdRng,
            scratch: &mut InferScratch,
        ) -> Result<FastRow> {
            self.inner.fast(idx, rng, scratch)
        }

        fn fast_ruled(
            &self,
            idx: usize,
            rng: &mut StdRng,
            scratch: &mut InferScratch,
        ) -> Result<FilterDecision<FastRow>> {
            self.inner.fast_ruled(idx, rng, scratch)
        }

        fn accept(&self, _idx: usize, _out: &FastRow) -> Verdict {
            Verdict::Accept
        }

        fn emit_fast(&mut self, idx: usize, out: FastRow) -> Result<()> {
            self.rows.push((idx, Ok(out)));
            Ok(())
        }

        fn emit_filtered(&mut self, idx: usize, rho_upper: f64) -> Result<()> {
            self.rows.push((idx, Err(rho_upper)));
            Ok(())
        }

        fn slow(&mut self, idx: usize, _rng: &mut StdRng) -> Result<()> {
            panic!("a warm model bootstraps nothing: tuple {idx}")
        }
    }

    #[test]
    fn fast_rows_are_infer_only_with_bitwise_for_any_workers() {
        use rand::Rng;
        let mut olga = setup(0.2);
        let mut rng = StdRng::seed_from_u64(4);
        for input in inputs(8) {
            olga.process(&input, &mut rng).unwrap();
        }
        // Random tuples over and beyond the trained range, so that some
        // rows are over budget and the filter both keeps and drops.
        let batch: Vec<InputDistribution> = (0..60)
            .map(|_| {
                let (mu, sd) = (rng.gen_range(-1.0..10.0), rng.gen_range(0.1..0.8));
                InputDistribution::diagonal_gaussian(&[(mu, sd)]).unwrap()
            })
            .collect();
        let tuple = |i: usize| (3 * i as u64 + 1, &batch[i]);
        let (mut kept, mut dropped, mut over) = (0, 0, 0);
        for predicate in [None, Some(Predicate::new(-0.3, 0.6, 0.4).unwrap())] {
            for workers in [1, 2, 8] {
                let spec = BatchSpec {
                    seed: 9,
                    stream: 2,
                    predicate,
                };
                let mut sink = |id: u64, _: Ruling| panic!("tuple {id} reached the sink");
                let sched = BatchScheduler::new(workers);
                let mut ops = Rows {
                    inner: GpBatch {
                        budget: olga.config().split().eps_gp,
                        olga: &mut olga,
                        sched: &sched,
                        spec,
                        tuple: &tuple,
                        sink: &mut sink,
                        counts: BatchCounts::default(),
                        frozen: None,
                    },
                    rows: Vec::new(),
                };
                sched.run_two_phase(&mut ops, batch.len()).unwrap();
                let rows = ops.rows;
                assert_eq!(rows.len(), batch.len());
                for (k, (idx, row)) in rows.into_iter().enumerate() {
                    let what = format!("{workers} workers, {predicate:?}, tuple {idx}");
                    assert_eq!(k, idx, "{what}: fold order");
                    let (id, input) = tuple(idx);
                    let mut scratch = InferScratch::default();
                    let full = olga
                        .infer_only_with(input, &mut spec.rng(id), &mut scratch)
                        .unwrap();
                    let (_, rho_hat, rho_u) =
                        predicate.map_or((1.0, 1.0, 1.0), |p| full.tep_bounds(p.lo, p.hi));
                    match row {
                        Ok(row) => {
                            assert_eq!(row.output.ecdf.values(), full.y_hat.values(), "{what}");
                            assert_eq!(row.eps_gp.to_bits(), full.eps_gp.to_bits(), "{what}");
                            assert_eq!(row.rho_hat.to_bits(), rho_hat.to_bits(), "{what}");
                            let bound = full.error_bound().to_bits();
                            assert_eq!(row.output.error_bound.to_bits(), bound, "{what}");
                            assert_eq!(row.output.udf_calls, 0, "{what}");
                            kept += 1;
                            over += usize::from(row.eps_gp > olga.config().split().eps_gp);
                        }
                        Err(rho_upper) => {
                            let theta = predicate.expect("only a filter drops").theta;
                            assert!(rho_u <= rho_upper && rho_upper < theta, "{what}");
                            dropped += 1;
                        }
                    }
                }
            }
        }
        assert!(
            kept > 200 && dropped > 20 && over > 10,
            "{kept} {dropped} {over}"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut par = Par::new(setup(0.2), 4);
        let (outs, counts) = par.process_batch(&[], 1);
        assert!(outs.is_empty());
        assert_eq!(counts, BatchCounts::default());
    }

    /// The sequential entry is the same ruling with every tuple on the full
    /// path: on MC (stateless) it must reproduce the parallel batch bit for
    /// bit, filtered tuples included, with the counts moved from the fast
    /// to the slow columns.
    #[test]
    fn sequential_entry_matches_the_batch_on_mc_and_counts_slow() {
        let (udf, calls) = counting(&BlackBoxUdf::from_fn("id", 1, |x| x[0]));
        let accuracy = AccuracyRequirement::new(0.2, 0.05, 0.0, Metric::Ks).unwrap();
        let mut eval = Evaluator::Mc { udf, accuracy };
        let batch = inputs(12);
        let spec = BatchSpec {
            seed: 3,
            stream: 5,
            predicate: Some(Predicate::new(3.0, 6.0, 0.5).unwrap()),
        };
        let render = |id: u64, r: Ruling| match r {
            FilterDecision::Kept { output, tep } => (id, tep, output.ecdf.values().to_vec()),
            FilterDecision::Filtered { rho_upper, .. } => (id, rho_upper, Vec::new()),
        };
        // Sparse ids: the seed word is the caller's id, not the position.
        let tuple = |i: usize| (10 * i as u64, &batch[i]);
        let (mut par, mut seq) = (Vec::new(), Vec::new());
        let sched = BatchScheduler::new(3);
        let cp = eval
            .run_two_phase(&sched, spec, 12, tuple, |id, r| par.push(render(id, r)))
            .unwrap();
        let cs = eval
            .run_sequential(spec, 12, tuple, |id, r| seq.push(render(id, r)))
            .unwrap();
        assert_eq!(par, seq);
        assert!(cp.fast_kept > 0 && cp.fast > cp.fast_kept, "{cp:?}");
        assert_eq!((cp.slow, cs.fast, cs.fast_kept), (0, 0, 0));
        assert_eq!(cs.slow, cp.fast);
        assert_eq!(
            (cs.tuples_in, cs.kept, cs.filtered, cs.udf_calls),
            (cp.tuples_in, cp.kept, cp.filtered, cp.udf_calls)
        );
        // What both shapes report is what reached the UDF.
        assert!(cp.udf_calls > 0);
        assert_eq!(calls.load(Ordering::Relaxed), cp.udf_calls + cs.udf_calls);
    }
}
