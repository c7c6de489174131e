//! Query execution: UDF projection and UDF selection over relations.
//!
//! An [`Executor`] owns one [`Evaluator`] (MC, or the warm OLGAPRO model of
//! one query) and is a caller of the batch operator in
//! [`udf_core::batch`], which rules, emits and counts every tuple; this
//! module only turns relations into `(index, input)` lists, the operator's
//! rulings into [`ProjectedTuple`] rows, and sums its [`BatchCounts`].
//!
//! [`project_batch`](Executor::project_batch) and
//! [`select_batch`](Executor::select_batch) run a whole relation as one
//! batch on a [`BatchScheduler`]: read-only GP inference (or MC sampling)
//! fans out across its workers, and only tuples that miss the ε_GP
//! budget take the sequential model-mutating path. Per-tuple RNGs derive
//! from [`mix_seed`](udf_core::sched::mix_seed)`(seed, 0, i)`, so results are
//! byte-identical for any worker count. On the MC path (and on the GP path
//! once the model is warm) they are also identical to a sequential
//! evaluation with the same per-tuple seeds; while the model is still being
//! tuned, accepted fast-path rows are inferred against the batch-start
//! model rather than each predecessor's tuning.

use crate::relation::{Relation, UdfCall};
use udf_core::batch::{BatchCounts, BatchSpec, Evaluator};
use udf_core::config::{AccuracyRequirement, ModelBudget};
use udf_core::filtering::{FilterDecision, Predicate};
use udf_core::olgapro::Olgapro;
use udf_core::output::OutputDistribution;
use udf_core::sched::BatchScheduler;
use udf_core::Result;
use udf_prob::InputDistribution;

/// How UDF outputs are computed per tuple: the batch operator's strategy,
/// re-exported for relational callers.
pub use udf_core::batch::EvalStrategy;

/// One output row of a UDF projection.
#[derive(Debug, Clone)]
pub struct ProjectedTuple {
    /// Index of the source tuple in the input relation.
    pub source: usize,
    /// The UDF output distribution.
    pub output: OutputDistribution,
    /// Tuple-existence probability (1 unless a predicate truncated it).
    pub tep: f64,
}

/// Executes UDF operators over relations with a chosen strategy.
///
/// The executor owns one OLGAPRO instance per query (the model warms up
/// across tuples); construct a fresh executor per (query, UDF) pair. The
/// UDF is captured at construction and is what every method evaluates —
/// the `call` passed to the relation-level methods must be the one the
/// executor was built for (it contributes the argument/column bindings;
/// its UDF handle is the same shared black box).
#[derive(Debug)]
pub struct Executor {
    eval: Evaluator,
    stats: BatchCounts,
}

impl Executor {
    /// Build an executor for one UDF call, uncapped; see [`Evaluator::new`]
    /// for what is validated (a non-finite or non-positive `output_range`
    /// is rejected under either strategy).
    pub fn new(
        strategy: EvalStrategy,
        accuracy: AccuracyRequirement,
        call: &UdfCall,
        output_range: f64,
    ) -> Result<Self> {
        Ok(Executor {
            eval: Evaluator::new(strategy, call.udf.clone(), accuracy, output_range, 0)?,
            stats: BatchCounts::default(),
        })
    }

    /// Cap the GP model at `n` training points; `_budget` has one possible
    /// value. **`0` is the uncapped sentinel (the default)** — on long
    /// relations an uncapped model makes per-tuple inference O(m²) and
    /// retraining O(m³) in the model size m. Nonzero caps below the GP
    /// bootstrap size are rejected; the MC strategy ignores the cap.
    ///
    /// Capped runs accept over-budget tuples at their *achieved* error
    /// bound (attached to every output row) and count them in
    /// [`BatchCounts::cap_hits`].
    pub fn with_model_cap(mut self, n: usize, _budget: ModelBudget) -> Result<Self> {
        if let Some(olga) = self.eval.olgapro_mut() {
            olga.set_model_cap(n)?;
        }
        Ok(self)
    }

    /// Wire observability: the executor's OLGAPRO instance (if any)
    /// registers its `olgapro.*` handles in `metrics`. Purely
    /// observational — results are byte-identical wired or not. The MC
    /// strategy has no per-executor timers and no model, and ignores this.
    pub fn with_metrics(mut self, metrics: &udf_obs::MetricsRegistry) -> Self {
        self.eval.set_metrics(metrics);
        self
    }

    /// The GP evaluator, when the strategy is [`EvalStrategy::Gp`] —
    /// exposes model size and core statistics for observability.
    pub fn olgapro(&self) -> Option<&Olgapro> {
        self.eval.olgapro()
    }

    /// Execution counters so far, summed over every batch.
    pub fn stats(&self) -> BatchCounts {
        self.stats
    }

    /// `SELECT udf(args) FROM rel` (query Q1) — the UDF output
    /// distribution of every tuple, the whole relation as one batch on
    /// `sched`'s workers.
    ///
    /// Tuple `i` is evaluated with an RNG seeded `mix_seed(seed, 0, i)`, so
    /// the rows are byte-identical for any worker count — and, once the GP
    /// model is warm (MC: always), identical to processing the tuples
    /// sequentially in order with the same per-tuple seeds.
    pub fn project_batch(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<Vec<ProjectedTuple>> {
        let inputs = call.indexed_inputs(rel)?;
        Ok(self.batch_indexed(&inputs, None, sched, seed)?.0)
    }

    /// `SELECT udf(args) FROM rel WHERE udf(args) ∈ [lo, hi]` with TEP
    /// threshold θ (query Q2's selection), the whole relation as one batch
    /// on `sched`'s workers — tuples whose existence-probability upper
    /// bound falls below θ are dropped early. On the GP path, tuples are
    /// filtered from the fast-path envelope bounds (§5.5) before any
    /// model-mutating work is scheduled.
    pub fn select_batch(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        predicate: &Predicate,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<Vec<ProjectedTuple>> {
        let inputs = call.indexed_inputs(rel)?;
        Ok(self.batch_indexed(&inputs, Some(predicate), sched, seed)?.0)
    }

    /// One batch over an *explicit, possibly sparse* list of
    /// `(original_index, input_distribution)` tuples — a selection with
    /// `Some(predicate)`, a projection with `None`. Seeds, emitted
    /// `source` ids, and slow-path fold order all come from the original
    /// index, so evaluating a subset is bit-identical to the corresponding
    /// tuples of a full [`select_batch`](Executor::select_batch) run —
    /// provided the skipped tuples are ones the filter would have dropped
    /// on the fast path (they mutate nothing and emit nothing). The
    /// returned [`BatchCounts`] expose the batch's fast/slow/filtered
    /// split.
    pub fn batch_indexed(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        predicate: Option<&Predicate>,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<(Vec<ProjectedTuple>, BatchCounts)> {
        self.run_indexed(inputs, predicate, Some(sched), seed)
    }

    /// Sequential, fully-seeded evaluation of an explicit `(original
    /// index, input)` list through the complete model-mutating path —
    /// tuple `idx` runs under `mix_seed(seed, 0, idx)`, exactly the RNG a
    /// batch would hand it. Unlike a batch's fast phase (which judges
    /// every tuple against the frozen batch-start model), each tuple here
    /// tunes the model *before* the next one is judged, so cold-model
    /// verdicts never poison downstream decisions. It is the hand-built
    /// reference of `udf_join`'s GP warmup round; results are trivially
    /// independent of worker count (nothing runs concurrently).
    pub fn sequential_indexed(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        predicate: Option<&Predicate>,
        seed: u64,
    ) -> Result<(Vec<ProjectedTuple>, BatchCounts)> {
        self.run_indexed(inputs, predicate, None, seed)
    }

    /// The one indexed primitive: a two-phase batch on `sched`, or
    /// the sequential full path without one. Tuple ids are the original
    /// indices; single-query batches use stream word 0.
    fn run_indexed(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        predicate: Option<&Predicate>,
        sched: Option<&BatchScheduler>,
        seed: u64,
    ) -> Result<(Vec<ProjectedTuple>, BatchCounts)> {
        let spec = BatchSpec {
            seed,
            stream: 0,
            predicate: predicate.copied(),
        };
        let tuple = |i: usize| (inputs[i].0 as u64, &inputs[i].1);
        let mut rows = Vec::with_capacity(inputs.len());
        let sink = |id: u64, ruling| {
            if let FilterDecision::Kept { output, tep } = ruling {
                rows.push(ProjectedTuple {
                    source: id as usize,
                    output,
                    tep,
                });
            }
        };
        let counts = match sched {
            Some(sched) => self
                .eval
                .run_two_phase(sched, spec, inputs.len(), tuple, sink)?,
            None => self.eval.run_sequential(spec, inputs.len(), tuple, sink)?,
        };
        self.stats += counts;
        Ok((rows, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, Tuple, Value};
    use udf_core::config::Metric;
    use udf_core::udf::BlackBoxUdf;

    fn rel(n: usize) -> Relation {
        let schema = Schema::new(&["objID", "z"]);
        let tuples = (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Det(i as f64),
                    Value::Gaussian {
                        mu: 1.0 + i as f64 * 0.5,
                        sigma: 0.1,
                    },
                ])
            })
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    /// The whole relation through the sequential full path.
    fn sequential(
        ex: &mut Executor,
        r: &Relation,
        call: &UdfCall,
        pred: Option<&Predicate>,
        seed: u64,
    ) -> Vec<ProjectedTuple> {
        let inputs = call.indexed_inputs(r).unwrap();
        ex.sequential_indexed(&inputs, pred, seed).unwrap().0
    }

    fn acc(metric: Metric) -> AccuracyRequirement {
        AccuracyRequirement::new(0.2, 0.05, 0.02, metric).unwrap()
    }

    #[test]
    fn a_tiny_eps_is_an_error_not_an_allocation() {
        // A valid ε that needs ~10¹⁵ samples per tuple, and a non-positive
        // output range: each refused under either strategy.
        let r = rel(2);
        let udf = BlackBoxUdf::from_fn("sq", 1, |x| x[0] * x[0]);
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let tiny = AccuracyRequirement::new(1e-7, 0.05, 0.0, Metric::Ks).unwrap();
        for (accuracy, range, what) in [
            (tiny, 10.0, "samples per tuple"),
            (acc(Metric::Ks), 0.0, "output_range"),
        ] {
            for strategy in [EvalStrategy::Mc, EvalStrategy::Gp] {
                let err = Executor::new(strategy, accuracy, &call, range).unwrap_err();
                assert!(err.to_string().contains(what), "{strategy:?}: {err}");
            }
        }
    }

    #[test]
    fn q1_style_projection_mc() {
        let r = rel(4);
        let udf = BlackBoxUdf::from_fn("sq", 1, |x| x[0] * x[0]);
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Mc, acc(Metric::Ks), &call, 10.0).unwrap();
        let rows = sequential(&mut ex, &r, &call, None, 1);
        assert_eq!(rows.len(), 4);
        // Output medians should track (1 + 0.5 i)².
        for (i, row) in rows.iter().enumerate() {
            let want = (1.0 + 0.5 * i as f64).powi(2);
            let got = row.output.ecdf.quantile(0.5);
            assert!((got - want).abs() < 0.3, "row {i}: {got} vs {want}");
        }
        assert_eq!(ex.stats().kept, 4);
    }

    #[test]
    fn q1_style_projection_gp_reuses_model() {
        let r = rel(6);
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Gp, acc(Metric::Discrepancy), &call, 2.0).unwrap();
        let rows = sequential(&mut ex, &r, &call, None, 2);
        assert_eq!(rows.len(), 6);
        // GP reuse: far fewer UDF calls than MC would need.
        let mc_calls = acc(Metric::Discrepancy).mc_samples() as u64 * 6;
        assert!(
            ex.stats().udf_calls < mc_calls / 10,
            "GP used {} calls, MC would use {}",
            ex.stats().udf_calls,
            mc_calls
        );
    }

    #[test]
    fn q2_style_selection_filters() {
        let r = rel(5);
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Mc, acc(Metric::Ks), &call, 10.0).unwrap();
        // Keep tuples whose z is likely in [2.4, 3.6]: rows with mu 2.5, 3.0 (+3.5 partially).
        let pred = Predicate::new(2.4, 3.6, 0.5).unwrap();
        let rows = sequential(&mut ex, &r, &call, Some(&pred), 3);
        let kept: Vec<usize> = rows.iter().map(|r| r.source).collect();
        assert!(kept.contains(&3), "mu = 2.5 row should survive");
        assert!(!kept.contains(&0), "mu = 1.0 row should be filtered");
        assert!(ex.stats().kept < ex.stats().tuples_in);
        for row in &rows {
            assert!(row.tep >= 0.5 - 0.1, "kept tuple TEP {}", row.tep);
        }
    }

    #[test]
    fn q2_style_selection_gp() {
        let r = rel(5);
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Gp, acc(Metric::Discrepancy), &call, 2.0).unwrap();
        // sin output lives in [-1, 1]; ask for an impossible interval.
        let pred = Predicate::new(5.0, 6.0, 0.1).unwrap();
        let rows = sequential(&mut ex, &r, &call, Some(&pred), 4);
        assert!(
            rows.is_empty(),
            "impossible predicate must filter everything"
        );
        assert_eq!(ex.stats().kept, 0);
    }
}
