//! The continuous-query engine: one [`Session`] drives N subscriptions
//! over one tuple stream.
//!
//! ```text
//! let mut session = Session::new(EngineConfig::new().workers(4));
//! let q = session.subscribe(QuerySpec::new(...))?;   // many times
//! session.run(source, Some(100_000))?;                // repeatable
//! println!("{}", session.stats(q)?);
//! ```
//!
//! [`run`](Session::run) is one loop on the calling thread: it pulls a
//! micro-batch from the [`Source`] into a reused buffer, then runs every
//! subscription over it with one call of the batch operator,
//! [`Evaluator::run_two_phase`], on the session's one [`BatchScheduler`]:
//! GP inference against the frozen model (and MC sampling, which never
//! mutates anything) runs on `workers` threads; tuples whose error bound
//! misses the GP budget fall back to the sequential, model-mutating path of
//! Algorithm 5. Online filtering is ruled *before* the slow path, so a
//! subscription with a selective predicate drops most tuples at fast-path
//! cost (§5.5 / Remark 2.1). The session only folds the operator's rulings
//! into each query's digest and ring, and sums its [`BatchCounts`]. The
//! scheduler's workers are the only threads a run starts.
//!
//! ## Determinism
//!
//! The RNG for tuple `g` of query `q` is seeded with
//! [`mix_seed`](udf_core::sched::mix_seed)`(engine_seed, q, g)`, where `g` is the
//! tuple's global index in the stream — never the worker id or the batch
//! offset. Slow-path work is applied in tuple order on the calling thread.
//! Worker count therefore changes only *where* fast-path work runs, not
//! *what* it computes, and a fixed `(seed, batch_size)` yields
//! byte-identical emitted distributions for any worker count.

use crate::source::Source;
use crate::stats::{Digest, KeptSummary};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use udf_core::batch::{BatchCounts, BatchSpec, Evaluator};
use udf_core::config::AccuracyRequirement;
use udf_core::filtering::{FilterDecision, Predicate};
use udf_core::output::OutputDistribution;
use udf_core::sched::{panic_message, BatchScheduler};
use udf_core::udf::BlackBoxUdf;
use udf_core::{CoreError, Result};
use udf_obs::{Histogram, MetricsRegistry};
use udf_prob::InputDistribution;

/// How a subscription evaluates its UDF: Monte Carlo (always fast-path)
/// or OLGAPRO with a warm persistent model. The batch operator's strategy
/// under the stream's name; a front-end resolves `USING auto` to one of
/// the two before it subscribes.
pub use udf_core::batch::EvalStrategy as StreamStrategy;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads for the fast path (≥ 1).
    pub workers: usize,
    /// Tuples per micro-batch (≥ 1). Part of the determinism contract:
    /// runs with different batch sizes may tune GP models at different
    /// points and legitimately diverge.
    pub batch_size: usize,
    /// Master seed; every per-tuple RNG derives from it.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            batch_size: 256,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Default configuration: 1 worker, 256-tuple batches, seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the micro-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Handle to one registered subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub(crate) usize);

/// A continuous query: one UDF, an accuracy requirement, an evaluation
/// strategy, and optionally a selection predicate.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    name: String,
    udf: BlackBoxUdf,
    accuracy: AccuracyRequirement,
    strategy: StreamStrategy,
    output_range: f64,
    predicate: Option<Predicate>,
    retain: usize,
    max_model_points: usize,
}

impl QuerySpec {
    /// A projection-style continuous query (`SELECT udf(x) FROM stream`).
    pub fn new(
        name: impl Into<String>,
        udf: BlackBoxUdf,
        accuracy: AccuracyRequirement,
        strategy: StreamStrategy,
    ) -> Self {
        QuerySpec {
            name: name.into(),
            udf,
            accuracy,
            strategy,
            output_range: 1.0,
            predicate: None,
            retain: 8,
            max_model_points: 0,
        }
    }

    /// Caller's estimate of the UDF output spread — scales Γ and λ for the
    /// GP path. Defaults to 1.0; must be finite and positive under either
    /// strategy ([`Session::subscribe`] rejects it otherwise).
    pub fn output_range(mut self, range: f64) -> Self {
        self.output_range = range;
        self
    }

    /// Turn the query into a selection
    /// (`... WHERE udf(x) ∈ [lo, hi] WITH Pr ≥ θ`): tuples whose
    /// tuple-existence probability upper bound falls below θ are dropped by
    /// the online filter.
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// How many recent emitted tuples to keep for inspection (default 8).
    /// A ring at least as long as the stream holds every kept tuple's
    /// global index, in stream order.
    pub fn retain(mut self, n: usize) -> Self {
        self.retain = n;
        self
    }

    /// Cap the GP model at `n` training points.
    ///
    /// **`0` is a sentinel meaning *unbounded*, and it is the default.**
    /// An unbounded model keeps absorbing points on hard tuples: per-tuple
    /// inference is O(m²) and retraining O(m³) in the model size m, so a
    /// spiky UDF under a tight accuracy silently degrades a long stream
    /// into a quadratic/cubic wall. Set a cap for any long-running GP
    /// subscription; over-budget tuples are then emitted fast-path at
    /// their *achieved* error bound (which stays attached to every output)
    /// and counted in [`BatchCounts::cap_hits`].
    ///
    /// Nonzero caps smaller than the GP bootstrap size are rejected by
    /// [`Session::subscribe`] — such a model could never finish
    /// bootstrapping and would thrash. Ignored by the MC strategy.
    pub fn max_model_points(mut self, n: usize) -> Self {
        self.max_model_points = n;
        self
    }
}

/// One registered subscription: its evaluator (for GP, the warm OLGAPRO
/// instance) and everything it has reported so far.
struct Subscription {
    eval: Evaluator,
    q: QueryState,
}

/// What a subscription reports, apart from its evaluator (so a batch's
/// sink can fold into it while the evaluator runs).
struct QueryState {
    name: String,
    /// The UDF's input dimensionality (checked against each source).
    dim: usize,
    predicate: Option<Predicate>,
    stats: BatchCounts,
    digest: Digest,
    recent: VecDeque<KeptSummary>,
    retain: usize,
}

/// A long-lived, multi-query streaming session.
pub struct Session {
    config: EngineConfig,
    queries: Vec<Subscription>,
    /// The shared two-phase execution core, reused for every micro-batch of
    /// every subscription (its per-worker scratch stays warm).
    sched: BatchScheduler,
    /// Tuples ingested so far: the global index of the next one.
    tuples_seen: u64,
    /// What the session is wired to; later subscriptions share it too.
    registry: MetricsRegistry,
}

impl Session {
    /// Create a session with the given engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        Session {
            sched: BatchScheduler::new(config.workers),
            config,
            queries: Vec::new(),
            tuples_seen: 0,
            registry: MetricsRegistry::disabled(),
        }
    }

    /// Wire observability into the session: its batch timer
    /// (`stream.batch_ns`), the scheduler's `sched.*` handles, and every GP
    /// subscription's (current and future) `olgapro.*` handles register in
    /// `metrics`. Purely observational — run digests are byte-identical
    /// whether or not anything is attached.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.sched = self.sched.with_metrics(metrics);
        for sub in &mut self.queries {
            sub.eval.set_metrics(metrics);
        }
        self.registry = metrics.clone();
        self
    }

    /// Returns the session unchanged: the health ring it enabled was
    /// deleted. Kept only because `benchmark/src/bin/ladder.rs` calls it;
    /// ROADMAP item 11 deletes it.
    #[must_use]
    pub fn with_health(self, _monitor: crate::health::HealthMonitor) -> Self {
        self
    }

    /// Register a continuous query. Subscriptions persist (with their warm
    /// model state) across [`run`](Session::run) calls. The evaluator is
    /// built here by [`Evaluator::new`], so invalid builder values (e.g. a
    /// non-finite output range) are rejected with a typed error rather
    /// than at first evaluation.
    pub fn subscribe(&mut self, spec: QuerySpec) -> Result<QueryId> {
        let dim = spec.udf.dim();
        let mut eval = Evaluator::new(
            spec.strategy,
            spec.udf,
            spec.accuracy,
            spec.output_range,
            spec.max_model_points,
        )?;
        eval.set_metrics(&self.registry);
        let q = QueryState {
            name: spec.name,
            dim,
            predicate: spec.predicate,
            stats: BatchCounts::default(),
            digest: Digest::default(),
            recent: VecDeque::with_capacity(spec.retain),
            retain: spec.retain,
        };
        self.queries.push(Subscription { eval, q });
        Ok(QueryId(self.queries.len() - 1))
    }

    /// Drive every subscription over `source` until exhaustion, or until
    /// `limit` tuples have been ingested (whichever comes first), and
    /// return the number of micro-batches this run dispatched. May be
    /// called repeatedly; model state, counts, and the global tuple index
    /// persist across runs.
    pub fn run<S: Source>(&mut self, mut source: S, limit: Option<u64>) -> Result<u64> {
        if self.queries.is_empty() {
            return Err(CoreError::NoSubscriptions);
        }
        let source_dim = source.dim();
        for Subscription { q, .. } in &self.queries {
            if q.dim != source_dim {
                return Err(CoreError::SourceDimension {
                    query: q.name.clone(),
                    udf_dim: q.dim,
                    source_dim,
                });
            }
        }

        let batch_ns = self.registry.histogram("stream.batch_ns");
        let mut remaining = limit.unwrap_or(u64::MAX);
        let mut batch = Vec::new();
        let mut batches = 0u64;
        while remaining > 0 {
            let want = self.config.batch_size.min(remaining as usize);
            batch.clear();
            // A panicking source fails this run, not the caller's thread.
            let n = catch_unwind(AssertUnwindSafe(|| source.next_batch(want, &mut batch)))
                .map_err(|payload| CoreError::WorkerPanicked {
                    message: panic_message(payload),
                })?;
            if n == 0 {
                break;
            }
            remaining = remaining.saturating_sub(n as u64);
            batches += 1;
            self.process_batch(&batch, &batch_ns)?;
        }
        Ok(batches)
    }

    /// Run every subscription over one micro-batch.
    fn process_batch(&mut self, batch: &[InputDistribution], batch_ns: &Histogram) -> Result<()> {
        let base = self.tuples_seen;
        self.tuples_seen += batch.len() as u64;
        let seed = self.config.seed;
        let sched = &self.sched;
        for (qid, Subscription { eval, q }) in self.queries.iter_mut().enumerate() {
            let _batch_span = batch_ns.span();
            let spec = BatchSpec {
                seed,
                stream: qid as u64,
                predicate: q.predicate,
            };
            // Tuples are identified by their global stream index.
            let tuple = |i: usize| (base + i as u64, &batch[i]);
            let counts =
                eval.run_two_phase(sched, spec, batch.len(), tuple, |gidx, r| match r {
                    FilterDecision::Kept { output, tep } => record_kept(q, gidx, &output, tep),
                    FilterDecision::Filtered { rho_upper, .. } => {
                        record_filtered(q, gidx, rho_upper)
                    }
                })?;
            q.stats += counts;
        }
        Ok(())
    }

    fn subscription(&self, id: QueryId) -> Result<&Subscription> {
        self.queries.get(id.0).ok_or(CoreError::UnknownQuery(id.0))
    }

    /// A subscription's counts, summed over every micro-batch so far.
    pub fn stats(&self, id: QueryId) -> Result<&BatchCounts> {
        Ok(&self.subscription(id)?.q.stats)
    }

    /// Determinism witness: a hash over every distribution this query has
    /// emitted (and every filter decision), in stream order.
    pub fn digest(&self, id: QueryId) -> Result<u64> {
        Ok(self.subscription(id)?.q.digest.value())
    }

    /// The query's most recent emitted tuples (bounded by
    /// [`QuerySpec::retain`]).
    pub fn recent(&self, id: QueryId) -> Result<Vec<KeptSummary>> {
        Ok(self.subscription(id)?.q.recent.iter().copied().collect())
    }

    /// Current GP model size (training points) of a subscription, `None`
    /// for MC subscriptions. With [`QuerySpec::max_model_points`] set this
    /// never exceeds the cap — including mid-batch, when a burst of
    /// slow-path reroutes crosses it (the cap is enforced inside
    /// Algorithm 5 itself, not just at the batch-routing layer).
    pub fn model_points(&self, id: QueryId) -> Result<Option<usize>> {
        let olga = self.subscription(id)?.eval.olgapro();
        Ok(olga.map(|olga| olga.model().len()))
    }
}

/// Fold one kept tuple into a query's digest and ring.
fn record_kept(q: &mut QueryState, gidx: u64, output: &OutputDistribution, tep: f64) {
    q.digest.push_u64(gidx);
    q.digest.push_u64(1);
    q.digest.push_f64(tep);
    q.digest.push_ecdf(&output.ecdf);
    if q.retain > 0 {
        if q.recent.len() == q.retain {
            q.recent.pop_front();
        }
        q.recent.push_back(KeptSummary {
            tuple: gidx,
            median: output.ecdf.quantile(0.5),
            error_bound: output.error_bound,
            tep,
        });
    }
}

/// Fold one filtered tuple into a query's digest.
fn record_filtered(q: &mut QueryState, gidx: u64, rho_upper: f64) {
    q.digest.push_u64(gidx);
    q.digest.push_u64(0);
    q.digest.push_f64(rho_upper);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SyntheticSource, VecSource};
    use udf_core::config::Metric;
    use udf_prob::InputDistribution;

    fn acc() -> AccuracyRequirement {
        AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap()
    }

    fn sin_udf() -> BlackBoxUdf {
        BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin())
    }

    #[test]
    fn engine_owns_a_pool_sized_to_its_config() {
        let session = Session::new(EngineConfig::new().workers(3));
        assert_eq!(session.sched.workers(), 3);
    }

    #[test]
    fn config_builders_clamp() {
        let cfg = EngineConfig::new().workers(0).batch_size(0);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.batch_size, 1);
    }

    #[test]
    fn model_cap_bounds_training_cost() {
        // Same workload with and without a model cap: the capped query
        // must stop paying UDF calls once its model is full, while both
        // keep emitting every tuple.
        let run = |cap: usize| {
            let mut session = Session::new(EngineConfig::new().batch_size(32).seed(13));
            let mut spec =
                QuerySpec::new("gp", sin_udf(), acc(), StreamStrategy::Gp).output_range(2.0);
            if cap > 0 {
                spec = spec.max_model_points(cap);
            }
            let q = session.subscribe(spec).unwrap();
            session
                .run(SyntheticSource::gaussian(1, 0.6, 21), Some(256))
                .unwrap();
            *session.stats(q).unwrap()
        };
        let uncapped = run(0);
        let capped = run(12);
        assert_eq!(capped.kept, 256, "cap must not drop tuples");
        assert!(
            capped.udf_calls <= uncapped.udf_calls,
            "capped {} vs uncapped {}",
            capped.udf_calls,
            uncapped.udf_calls
        );
        assert!(
            capped.udf_calls <= 12 + 10,
            "model cap not enforced: {} calls",
            capped.udf_calls
        );
        assert!(
            capped.slow < uncapped.slow,
            "capped slow-path {} should be below uncapped {}",
            capped.slow,
            uncapped.slow
        );
        assert!(
            capped.cap_hits > 0,
            "degraded-accuracy acceptance must be counted, not silent"
        );
        assert_eq!(uncapped.cap_hits, 0);
    }

    #[test]
    fn subscribe_run_inspect_lifecycle() {
        let mut session = Session::new(EngineConfig::new().workers(2).batch_size(32).seed(3));
        let gp = session
            .subscribe(QuerySpec::new("gp", sin_udf(), acc(), StreamStrategy::Gp).output_range(2.0))
            .unwrap();
        let mc = session
            .subscribe(QuerySpec::new("mc", sin_udf(), acc(), StreamStrategy::Mc))
            .unwrap();

        let batches = session
            .run(SyntheticSource::gaussian(1, 0.4, 9), Some(96))
            .unwrap();
        assert_eq!(batches, 3);

        for id in [gp, mc] {
            let s = session.stats(id).unwrap();
            assert_eq!(s.tuples_in, 96);
            assert_eq!(s.kept, 96);
            assert_eq!(s.filtered, 0);
        }
        // GP reuses its model: far fewer calls than MC's m-per-tuple.
        let gp_calls = session.stats(gp).unwrap().udf_calls;
        let mc_calls = session.stats(mc).unwrap().udf_calls;
        assert!(
            gp_calls * 10 < mc_calls,
            "GP {gp_calls} calls vs MC {mc_calls}"
        );
        assert_eq!(session.recent(gp).unwrap().len(), 8);
        assert_eq!(session.stats(gp).unwrap().tuples_in, 96);
    }

    #[test]
    fn state_persists_across_runs() {
        let mut session = Session::new(EngineConfig::new().batch_size(16).seed(5));
        let q = session
            .subscribe(
                QuerySpec::new("warm", sin_udf(), acc(), StreamStrategy::Gp).output_range(2.0),
            )
            .unwrap();
        session
            .run(SyntheticSource::gaussian(1, 0.4, 1), Some(64))
            .unwrap();
        let calls_cold = session.stats(q).unwrap().udf_calls;
        session
            .run(SyntheticSource::gaussian(1, 0.4, 2), Some(64))
            .unwrap();
        let calls_total = session.stats(q).unwrap().udf_calls;
        assert_eq!(session.stats(q).unwrap().tuples_in, 128);
        // The second run rides the warm model: it must add (much) less than
        // the first run's training cost.
        assert!(
            calls_total - calls_cold <= calls_cold,
            "cold {calls_cold}, second run added {}",
            calls_total - calls_cold
        );
    }

    #[test]
    fn predicate_filters_and_records_decisions() {
        let mut session = Session::new(EngineConfig::new().workers(2).batch_size(16).seed(7));
        // id(x) over two clusters: N(0, 0.1) and N(5, 0.1); predicate keeps
        // values near 5.
        let tuples: Vec<InputDistribution> = (0..32)
            .map(|i| {
                let mu = if i % 2 == 0 { 0.0 } else { 5.0 };
                InputDistribution::diagonal_gaussian(&[(mu, 0.1)]).unwrap()
            })
            .collect();
        let pred = Predicate::new(4.0, 6.0, 0.5).unwrap();
        let q = session
            .subscribe(
                QuerySpec::new(
                    "sel",
                    BlackBoxUdf::from_fn("id", 1, |x| x[0]),
                    acc(),
                    StreamStrategy::Mc,
                )
                .predicate(pred)
                .retain(32),
            )
            .unwrap();
        session.run(VecSource::new(tuples), None).unwrap();
        let s = session.stats(q).unwrap();
        assert_eq!(s.kept, 16, "only the N(5, ·) cluster passes");
        assert_eq!(s.filtered, 16);
        // The ring holds every kept tuple: exactly the odd ones.
        let kept: Vec<u64> = session.recent(q).unwrap().iter().map(|k| k.tuple).collect();
        assert_eq!(kept, (1..32).step_by(2).collect::<Vec<u64>>());
    }

    #[test]
    fn panicking_udf_surfaces_as_worker_panicked() {
        let mut session = Session::new(EngineConfig::new().workers(2).batch_size(8).seed(1));
        let bomb = BlackBoxUdf::from_fn("bomb", 1, |_x| panic!("udf exploded"));
        session
            .subscribe(QuerySpec::new("boom", bomb, acc(), StreamStrategy::Mc))
            .unwrap();
        let err = session
            .run(SyntheticSource::gaussian(1, 0.4, 1), Some(16))
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::WorkerPanicked { .. }),
            "expected WorkerPanicked, got {err}"
        );
        assert!(err.to_string().contains("udf exploded"), "{err}");
    }

    #[test]
    fn panicking_source_surfaces_its_message() {
        struct Bomb;
        impl Source for Bomb {
            fn dim(&self) -> usize {
                1
            }
            fn next_batch(&mut self, _max: usize, _out: &mut Vec<InputDistribution>) -> usize {
                panic!("source exploded")
            }
        }
        let fresh = || {
            let mut session = Session::new(EngineConfig::new().batch_size(16).seed(2));
            let q = session
                .subscribe(QuerySpec::new("mc", sin_udf(), acc(), StreamStrategy::Mc))
                .unwrap();
            (session, q)
        };
        let (mut session, q) = fresh();
        let err = session.run(Bomb, None).unwrap_err();
        assert!(
            matches!(&err, CoreError::WorkerPanicked { .. }),
            "expected WorkerPanicked, got {err}"
        );
        assert!(err.to_string().contains("source exploded"), "{err}");

        // The panic is contained where the source was pulled: the session
        // runs on, and ends where a fresh one does.
        let synth = || SyntheticSource::gaussian(1, 0.4, 5);
        assert_eq!(session.run(synth(), Some(48)).unwrap(), 3);
        let (mut clean, cq) = fresh();
        clean.run(synth(), Some(48)).unwrap();
        assert_eq!(session.digest(q).unwrap(), clean.digest(cq).unwrap());
        assert_eq!(session.stats(q).unwrap().tuples_in, 48);
    }

    #[test]
    fn subscribe_rejects_invalid_output_range() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            // MC subscriptions must be validated too, not just GP ones.
            for strategy in [StreamStrategy::Mc, StreamStrategy::Gp] {
                let mut session = Session::new(EngineConfig::new());
                let err = session
                    .subscribe(QuerySpec::new("bad", sin_udf(), acc(), strategy).output_range(bad))
                    .unwrap_err();
                assert!(
                    matches!(
                        &err,
                        CoreError::InvalidConfig {
                            what: "output_range",
                            ..
                        }
                    ),
                    "range {bad} / {strategy:?}: got {err}"
                );
            }
        }
    }

    #[test]
    fn subscribe_rejects_a_tiny_eps() {
        // Valid, and ~10¹⁵ samples per tuple under either strategy.
        let tiny = AccuracyRequirement::new(1e-7, 0.05, 0.0, Metric::Ks).unwrap();
        for strategy in [StreamStrategy::Mc, StreamStrategy::Gp] {
            let mut session = Session::new(EngineConfig::new());
            let err = session
                .subscribe(QuerySpec::new("tiny", sin_udf(), tiny, strategy).output_range(2.0))
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    CoreError::InvalidConfig {
                        what: "samples per tuple",
                        ..
                    }
                ),
                "{strategy:?}: got {err}"
            );
        }
    }

    #[test]
    fn subscribe_rejects_cap_below_bootstrap() {
        for bad in [1usize, 2, 4] {
            let mut session = Session::new(EngineConfig::new());
            let err = session
                .subscribe(
                    QuerySpec::new("bad", sin_udf(), acc(), StreamStrategy::Gp)
                        .output_range(2.0)
                        .max_model_points(bad),
                )
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    CoreError::InvalidConfig {
                        what: "max_model_points",
                        ..
                    }
                ),
                "cap {bad}: got {err}"
            );
        }
        // 0 (the uncapped sentinel) and bootstrap-sized caps are accepted;
        // MC ignores the knob entirely.
        let mut session = Session::new(EngineConfig::new());
        assert!(session
            .subscribe(
                QuerySpec::new("ok", sin_udf(), acc(), StreamStrategy::Gp)
                    .output_range(2.0)
                    .max_model_points(5),
            )
            .is_ok());
        assert!(session
            .subscribe(
                QuerySpec::new("mc", sin_udf(), acc(), StreamStrategy::Mc).max_model_points(1),
            )
            .is_ok());
    }

    #[test]
    fn errors_are_reported() {
        let mut session = Session::new(EngineConfig::new());
        let err = session
            .run(SyntheticSource::gaussian(1, 0.4, 1), Some(4))
            .unwrap_err();
        assert!(matches!(err, CoreError::NoSubscriptions));

        session
            .subscribe(QuerySpec::new(
                "two-dim",
                BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]),
                acc(),
                StreamStrategy::Mc,
            ))
            .unwrap();
        let err = session
            .run(SyntheticSource::gaussian(1, 0.4, 1), Some(4))
            .unwrap_err();
        assert!(matches!(err, CoreError::SourceDimension { .. }));

        assert!(session.stats(QueryId(99)).is_err());
    }
}
