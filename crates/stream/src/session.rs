//! The user-facing continuous-query API.
//!
//! A [`Session`] owns one [`crate::engine::StreamEngine`] and
//! exposes the subscribe/run/inspect lifecycle:
//!
//! ```text
//! let mut session = Session::new(EngineConfig::new().workers(4));
//! let q = session.subscribe(QuerySpec::new(...))?;   // many times
//! session.run(source, Some(100_000))?;                // repeatable
//! println!("{}", session.stats(q)?);
//! ```

use crate::engine::{EngineConfig, StreamEngine, StreamStrategy, SubscribeParams};
use crate::source::Source;
use crate::stats::KeptSummary;
use crate::Result;
use udf_core::batch::BatchCounts;
use udf_core::config::AccuracyRequirement;
use udf_core::filtering::Predicate;
use udf_core::udf::BlackBoxUdf;

/// Handle to one registered subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub(crate) usize);

/// A continuous query: one UDF, an accuracy requirement, an evaluation
/// strategy, and optionally a selection predicate.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub(crate) name: String,
    pub(crate) udf: BlackBoxUdf,
    pub(crate) accuracy: AccuracyRequirement,
    pub(crate) strategy: StreamStrategy,
    pub(crate) output_range: f64,
    pub(crate) predicate: Option<Predicate>,
    pub(crate) retain: usize,
    pub(crate) record_decisions: bool,
    pub(crate) max_model_points: usize,
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
            record_decisions: false,
            max_model_points: 0,
        }
    }

    /// Caller's estimate of the UDF output spread — scales Γ and λ for the
    /// GP path (ignored by MC). Defaults to 1.0.
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
    pub fn retain(mut self, n: usize) -> Self {
        self.retain = n;
        self
    }

    /// Record every keep/filter decision (for agreement tests and audits).
    pub fn record_decisions(mut self) -> Self {
        self.record_decisions = true;
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

    /// Reject invalid builder values with a typed error. Runs at
    /// [`Session::subscribe`] for every strategy — previously a
    /// non-finite/non-positive [`output_range`](QuerySpec::output_range)
    /// was only caught on the GP path (via `OlgaproConfig`), letting MC
    /// subscriptions carry poisoned configuration silently.
    fn validate(&self) -> crate::Result<()> {
        if !(self.output_range > 0.0 && self.output_range.is_finite()) {
            return Err(udf_core::CoreError::InvalidConfig {
                what: "output_range",
                value: self.output_range,
            }
            .into());
        }
        Ok(())
    }
}

/// A long-lived, multi-query streaming session.
pub struct Session {
    engine: StreamEngine,
}

impl Session {
    /// Create a session with the given engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        Session {
            engine: StreamEngine::new(config),
        }
    }

    /// Wire observability into the session: scheduler, engine, and every
    /// GP subscription (current and future) register their handles in
    /// `metrics`. Purely observational — run digests are byte-identical
    /// whether or not anything is attached.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &udf_obs::MetricsRegistry) -> Self {
        self.engine = self.engine.with_metrics(metrics);
        self
    }

    /// Returns the session unchanged: the health ring it enabled was
    /// deleted. Kept only because `benchmark/src/bin/ladder.rs` calls it;
    /// ROADMAP item 11 deletes it.
    #[must_use]
    pub fn with_health(self, _monitor: crate::health::HealthMonitor) -> Self {
        self
    }

    /// The engine configuration in force.
    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// Register a continuous query. Subscriptions persist (with their warm
    /// model state) across [`run`](Session::run) calls. Invalid builder
    /// values (e.g. a non-finite output range) are rejected here with a
    /// typed error rather than at first evaluation.
    pub fn subscribe(&mut self, spec: QuerySpec) -> Result<QueryId> {
        spec.validate()?;
        let QuerySpec {
            name,
            udf,
            accuracy,
            strategy,
            output_range,
            predicate,
            retain,
            record_decisions,
            max_model_points,
        } = spec;
        self.engine
            .subscribe(SubscribeParams {
                name,
                udf,
                accuracy,
                strategy,
                output_range,
                predicate,
                retain,
                record_decisions,
                max_model_points,
            })
            .map(QueryId)
    }

    /// Drive every subscription over `source` until exhaustion, or until
    /// `limit` tuples have been ingested (whichever comes first). Returns
    /// the number of micro-batches this run dispatched.
    pub fn run<S: Source + Send>(&mut self, source: S, limit: Option<u64>) -> Result<u64> {
        self.engine.run(source, limit)
    }

    /// A subscription's counts, summed over every micro-batch so far.
    pub fn stats(&self, id: QueryId) -> Result<&BatchCounts> {
        self.engine.query(id.0).map(|q| &q.stats)
    }

    /// Determinism witness: a hash over every distribution this query has
    /// emitted (and every filter decision), in stream order.
    pub fn digest(&self, id: QueryId) -> Result<u64> {
        self.engine.query(id.0).map(|q| q.digest.value())
    }

    /// The query's most recent emitted tuples (bounded by
    /// [`QuerySpec::retain`]).
    pub fn recent(&self, id: QueryId) -> Result<Vec<KeptSummary>> {
        self.engine
            .query(id.0)
            .map(|q| q.recent.iter().copied().collect())
    }

    /// Keep/filter decisions `(global tuple index, kept)`, when the query
    /// was registered with [`QuerySpec::record_decisions`].
    pub fn decisions(&self, id: QueryId) -> Result<Option<&[(u64, bool)]>> {
        self.engine.query(id.0).map(|q| q.decisions.as_deref())
    }

    /// Current GP model size (training points) of a subscription, `None`
    /// for MC subscriptions. With [`QuerySpec::max_model_points`] set this
    /// never exceeds the cap — including mid-batch, when a burst of
    /// slow-path reroutes crosses it (the cap is enforced inside
    /// Algorithm 5 itself, not just at the batch-routing layer).
    pub fn model_points(&self, id: QueryId) -> Result<Option<usize>> {
        self.engine.model_points(id.0)
    }

    /// Total tuples ingested over the session's lifetime.
    pub fn tuples_seen(&self) -> u64 {
        self.engine.tuples_seen()
    }
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
                .run(SyntheticSource::gaussian(1, 0.6, 21).with_limit(256), None)
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
            .run(SyntheticSource::gaussian(1, 0.4, 9).with_limit(96), None)
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
        assert_eq!(session.tuples_seen(), 96);
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
            .run(SyntheticSource::gaussian(1, 0.4, 1).with_limit(64), None)
            .unwrap();
        let calls_cold = session.stats(q).unwrap().udf_calls;
        session
            .run(SyntheticSource::gaussian(1, 0.4, 2).with_limit(64), None)
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
                .record_decisions(),
            )
            .unwrap();
        session.run(VecSource::new(tuples), None).unwrap();
        let s = session.stats(q).unwrap();
        assert_eq!(s.kept, 16, "only the N(5, ·) cluster passes");
        assert_eq!(s.filtered, 16);
        let decisions = session.decisions(q).unwrap().unwrap();
        for &(gidx, kept) in decisions {
            assert_eq!(kept, !gidx.is_multiple_of(2), "tuple {gidx}");
        }
    }

    #[test]
    fn panicking_udf_surfaces_as_worker_panicked() {
        let mut session = Session::new(EngineConfig::new().workers(2).batch_size(8).seed(1));
        let bomb = BlackBoxUdf::from_fn("bomb", 1, |_x| panic!("udf exploded"));
        session
            .subscribe(QuerySpec::new("boom", bomb, acc(), StreamStrategy::Mc))
            .unwrap();
        let err = session
            .run(SyntheticSource::gaussian(1, 0.4, 1).with_limit(16), None)
            .unwrap_err();
        assert!(
            matches!(err, crate::StreamError::WorkerPanicked),
            "expected WorkerPanicked, got {err}"
        );
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
                        crate::StreamError::Core(udf_core::CoreError::InvalidConfig {
                            what: "output_range",
                            ..
                        })
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
                    crate::StreamError::Core(udf_core::CoreError::InvalidConfig {
                        what: "samples per tuple",
                        ..
                    })
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
                    crate::StreamError::Core(udf_core::CoreError::InvalidConfig {
                        what: "max_model_points",
                        ..
                    })
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
            .run(SyntheticSource::gaussian(1, 0.4, 1).with_limit(4), None)
            .unwrap_err();
        assert!(matches!(err, crate::StreamError::NoSubscriptions));

        session
            .subscribe(QuerySpec::new(
                "two-dim",
                BlackBoxUdf::from_fn("sum", 2, |x| x[0] + x[1]),
                acc(),
                StreamStrategy::Mc,
            ))
            .unwrap();
        let err = session
            .run(SyntheticSource::gaussian(1, 0.4, 1).with_limit(4), None)
            .unwrap_err();
        assert!(matches!(err, crate::StreamError::DimensionMismatch { .. }));

        assert!(session.stats(QueryId(99)).is_err());
    }
}
