//! The micro-batching scheduler.
//!
//! One [`StreamEngine`] drives N subscriptions over one tuple stream. The
//! run loop is a two-stage pipeline:
//!
//! 1. an **ingest thread** pulls micro-batches from the [`Source`] and
//!    pushes them into a bounded channel — when evaluation falls behind the
//!    channel fills and the producer blocks (backpressure);
//! 2. the **scheduler** pops a batch and runs every subscription over it,
//!    sharding the batch across `workers` threads for the read-only phase
//!    and folding results back sequentially in tuple order.
//!
//! Per-query evaluation is one call of the batch operator,
//! [`Evaluator::run_two_phase`], per (subscription, micro-batch) on the
//! engine's one [`BatchScheduler`]: GP inference against the
//! frozen model (and MC sampling, which never mutates anything) runs in
//! parallel; tuples whose error bound misses the GP budget fall back to the
//! sequential, model-mutating path of Algorithm 5. Online filtering is
//! ruled *before* the slow path, so a subscription with a selective
//! predicate drops most tuples at fast-path cost (§5.5 / Remark 2.1). The
//! engine only folds the operator's rulings into each query's digest and
//! ring, and sums its [`BatchCounts`].
//!
//! ## Determinism
//!
//! The RNG for tuple `g` of query `q` is seeded with
//! [`mix_seed`](udf_core::mix_seed)`(engine_seed, q, g)`, where `g` is the
//! tuple's global index in the stream — never the worker id or the batch
//! offset. Slow-path work is applied in tuple order on the scheduler
//! thread. Worker count therefore changes only *where* fast-path work runs,
//! not *what* it computes, and a fixed `(seed, batch_size)` yields
//! byte-identical emitted distributions for any worker count.

use crate::source::Source;
use crate::stats::{Digest, KeptSummary};
use crate::{Result, StreamError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Instant;
use udf_core::batch::{BatchCounts, BatchSpec, Evaluator};
use udf_core::config::{check_samples_per_tuple, AccuracyRequirement, OlgaproConfig};
use udf_core::filtering::{FilterDecision, Predicate};
use udf_core::olgapro::Olgapro;
use udf_core::output::OutputDistribution;
use udf_core::sched::BatchScheduler;
use udf_core::udf::BlackBoxUdf;
use udf_obs::{Histogram, MetricsRegistry};
use udf_prob::InputDistribution;

/// The engine's own observability handles (the layers below wire their
/// own: the scheduler's `sched.*`, each GP model's `olgapro.*`).
struct EngineMetrics {
    /// Per-(query, micro-batch) evaluation latency.
    batch_ns: Histogram,
    /// Backpressure stalls: time the ingest thread spent blocked pushing
    /// a batch into the bounded channel.
    ingest_wait_ns: Histogram,
}

impl EngineMetrics {
    fn disabled() -> Self {
        EngineMetrics {
            batch_ns: Histogram::disabled(),
            ingest_wait_ns: Histogram::disabled(),
        }
    }

    fn register(reg: &MetricsRegistry) -> Self {
        EngineMetrics {
            batch_ns: reg.histogram("stream.batch_ns"),
            ingest_wait_ns: reg.histogram("stream.ingest_wait_ns"),
        }
    }
}

/// How a subscription evaluates its UDF: Monte Carlo (always fast-path)
/// or OLGAPRO with a warm persistent model. The relational executor's
/// strategy under the stream's name; a front-end resolves `USING auto` to
/// one of the two before it subscribes.
pub use udf_query::EvalStrategy as StreamStrategy;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads for the fast path (≥ 1).
    pub workers: usize,
    /// Tuples per micro-batch (≥ 1). Part of the determinism contract:
    /// runs with different batch sizes may tune GP models at different
    /// points and legitimately diverge.
    pub batch_size: usize,
    /// Bounded-channel capacity, in batches, between ingest and the
    /// scheduler. When full, the source-side thread blocks (backpressure).
    pub queue_depth: usize,
    /// Master seed; every per-tuple RNG derives from it.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            batch_size: 256,
            queue_depth: 4,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Default configuration: 1 worker, 256-tuple batches, queue depth 4.
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

    /// Set the ingest-queue depth (in batches).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One subscription: its evaluator (for GP, the warm OLGAPRO instance) and
/// everything it has reported so far.
struct Subscription {
    eval: Evaluator,
    q: QueryState,
}

/// Internal per-subscription record.
pub(crate) struct QueryState {
    pub(crate) name: String,
    /// The UDF's input dimensionality (checked against each source).
    dim: usize,
    predicate: Option<Predicate>,
    pub(crate) stats: BatchCounts,
    pub(crate) digest: Digest,
    pub(crate) recent: VecDeque<KeptSummary>,
    retain: usize,
}

/// Parameters for registering a subscription with [`StreamEngine`].
pub(crate) struct SubscribeParams {
    pub name: String,
    pub udf: BlackBoxUdf,
    pub accuracy: AccuracyRequirement,
    pub strategy: StreamStrategy,
    pub output_range: f64,
    pub predicate: Option<Predicate>,
    pub retain: usize,
    pub max_model_points: usize,
}

/// The multi-query continuous-query engine. Most callers use the
/// [`Session`](crate::session::Session) facade instead.
pub struct StreamEngine {
    config: EngineConfig,
    queries: Vec<Subscription>,
    /// The shared two-phase execution core, reused for every micro-batch of
    /// every subscription (its per-worker scratch stays warm).
    sched: BatchScheduler,
    /// Tuples ingested so far: the global index of the next one.
    tuples_seen: u64,
    metrics: EngineMetrics,
    /// What the engine is wired to; later subscriptions share it too.
    registry: MetricsRegistry,
}

impl StreamEngine {
    /// Create an engine with the given configuration.
    pub(crate) fn new(config: EngineConfig) -> Self {
        StreamEngine {
            sched: BatchScheduler::new(config.workers),
            config,
            queries: Vec::new(),
            tuples_seen: 0,
            metrics: EngineMetrics::disabled(),
            registry: MetricsRegistry::disabled(),
        }
    }

    /// Wire observability: the engine's batch/backpressure timers, the
    /// scheduler's `sched.*` handles, and every (current and future) GP
    /// subscription's `olgapro.*` handles register in `metrics`. Purely
    /// observational — digests are byte-identical wired or not (pinned by
    /// the determinism tests).
    pub(crate) fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.sched = self.sched.with_metrics(metrics);
        for sub in &mut self.queries {
            if let Some(olga) = sub.eval.olgapro_mut() {
                olga.set_metrics(metrics);
            }
        }
        self.metrics = EngineMetrics::register(metrics);
        self.registry = metrics.clone();
        self
    }

    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn subscription(&self, id: usize) -> Result<&Subscription> {
        self.queries.get(id).ok_or(StreamError::UnknownQuery(id))
    }

    pub(crate) fn query(&self, id: usize) -> Result<&QueryState> {
        Ok(&self.subscription(id)?.q)
    }

    pub(crate) fn queries(&self) -> impl Iterator<Item = &QueryState> {
        self.queries.iter().map(|sub| &sub.q)
    }

    /// Current GP training-set size of a subscription (`None` for MC) —
    /// observability for the model-cap contract.
    pub(crate) fn model_points(&self, id: usize) -> Result<Option<usize>> {
        let olga = self.subscription(id)?.eval.olgapro();
        Ok(olga.map(|olga| olga.model().len()))
    }

    /// Register a subscription; returns its index.
    pub(crate) fn subscribe(&mut self, params: SubscribeParams) -> Result<usize> {
        let dim = params.udf.dim();
        let eval = match params.strategy {
            StreamStrategy::Mc => {
                check_samples_per_tuple(params.accuracy.mc_samples())?;
                Evaluator::Mc {
                    udf: params.udf,
                    accuracy: params.accuracy,
                }
            }
            StreamStrategy::Gp => {
                // The model cap lives in the core config, so the slow path
                // (Algorithm 5) enforces it itself — a burst of mid-batch
                // reroutes can no longer overshoot the cap. The validated
                // setter also rejects caps below the bootstrap size.
                let mut cfg = OlgaproConfig::new(params.accuracy, params.output_range)?;
                cfg.set_model_cap(params.max_model_points)?;
                check_samples_per_tuple(cfg.samples_per_input())?;
                Evaluator::Gp(Box::new(
                    Olgapro::new(params.udf, cfg).with_metrics(&self.registry),
                ))
            }
        };
        let q = QueryState {
            name: params.name,
            dim,
            predicate: params.predicate,
            stats: BatchCounts::default(),
            digest: Digest::default(),
            recent: VecDeque::with_capacity(params.retain),
            retain: params.retain,
        };
        self.queries.push(Subscription { eval, q });
        Ok(self.queries.len() - 1)
    }

    /// Drive every subscription over `source` until it is exhausted or
    /// `limit` tuples have been ingested, and return the number of
    /// micro-batches dispatched. May be called repeatedly; model state,
    /// counts, and the global tuple index persist across runs.
    pub(crate) fn run<S: Source + Send>(
        &mut self,
        mut source: S,
        limit: Option<u64>,
    ) -> Result<u64> {
        if self.queries.is_empty() {
            return Err(StreamError::NoSubscriptions);
        }
        let source_dim = source.dim();
        for q in self.queries() {
            if q.dim != source_dim {
                return Err(StreamError::DimensionMismatch {
                    query: q.name.clone(),
                    udf_dim: q.dim,
                    source_dim,
                });
            }
        }

        let batch_size = self.config.batch_size;
        let (tx, rx) = mpsc::sync_channel::<Vec<InputDistribution>>(self.config.queue_depth);
        let ingest_wait = self.metrics.ingest_wait_ns.clone();
        let mut batches = 0u64;

        let run_result: Result<()> = std::thread::scope(|scope| {
            // Ingest thread: source → bounded channel. Blocks when the
            // scheduler lags `queue_depth` batches behind (backpressure);
            // that stall time is what `stream.ingest_wait_ns` measures.
            let producer = scope.spawn(move || {
                let mut remaining = limit;
                loop {
                    let want = match remaining {
                        Some(r) => batch_size.min(r as usize),
                        None => batch_size,
                    };
                    if want == 0 {
                        break;
                    }
                    let mut buf = Vec::with_capacity(want);
                    let n = source.next_batch(want, &mut buf);
                    if n == 0 {
                        break;
                    }
                    if let Some(r) = &mut remaining {
                        *r -= n as u64;
                    }
                    let t_send = ingest_wait.enabled().then(Instant::now);
                    let sent = tx.send(buf).is_ok();
                    if let Some(ts) = t_send {
                        ingest_wait.record_duration(ts.elapsed());
                    }
                    if !sent {
                        break; // scheduler bailed; stop producing
                    }
                }
            });

            let mut res = Ok(());
            for batch in &rx {
                batches += 1;
                if let Err(e) = self.process_batch(&batch) {
                    res = Err(e);
                    break;
                }
            }
            drop(rx); // on error: unblock a producer stuck on send()
            if producer.join().is_err() {
                return Err(StreamError::WorkerPanicked);
            }
            res
        });
        run_result?;
        Ok(batches)
    }

    /// Run every subscription over one micro-batch.
    fn process_batch(&mut self, batch: &[InputDistribution]) -> Result<()> {
        let base = self.tuples_seen;
        self.tuples_seen += batch.len() as u64;
        let seed = self.config.seed;
        let sched = &self.sched;
        let batch_ns = &self.metrics.batch_ns;
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

    #[test]
    fn engine_owns_a_pool_sized_to_its_config() {
        let engine = StreamEngine::new(EngineConfig::new().workers(3));
        assert_eq!(engine.sched.workers(), 3);
    }

    #[test]
    fn config_builders_clamp() {
        let cfg = EngineConfig::new().workers(0).batch_size(0).queue_depth(0);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.queue_depth, 1);
    }
}
