//! The batch-parallel uncertain θ-join executor.
//!
//! ## Execution shape
//!
//! MC joins are embarrassingly parallel: one batch over the filtered
//! cross product, exactly the hand-built Q2 construction.
//!
//! GP joins run **two rounds** so one warm model amortizes across all
//! O(n²) pairs:
//!
//! 1. **warmup** — [`warmup_indices`] picks a small, evenly-strided,
//!    deterministic subset of the pair enumeration (the stride is what
//!    matters: a prefix would only cover one left tuple's slice) and
//!    runs it *sequentially through the full Algorithm 5 path*
//!    ([`Executor::sequential_indexed`](udf_query::Executor::sequential_indexed)):
//!    each warmup pair tunes the model before the next is judged, so no
//!    pair is ever ruled by the raw bootstrap model — a cold frozen model
//!    (near-duplicate training cluster, ill-conditioned α) can
//!    spuriously filter arbitrarily many pairs in a batch fast phase;
//! 2. **main** — every remaining pair runs in one two-phase
//!    [`Executor::batch_indexed`](udf_query::Executor::batch_indexed)
//!    batch whose fast phase reads the now-warm frozen model, so most
//!    pairs are served read-only in parallel instead of rerouting
//!    through the sequential slow path.
//!
//! Both rounds seed every pair from its *global* enumeration index, so
//! RNG streams, emitted `source` ids, and fold positions are independent
//! of worker count — and a hand-built construction over the materialized
//! cross product reproduces the join byte-for-byte (pinned by
//! `tests/parity.rs`).

use crate::spec::JoinSpec;
use crate::{JoinError, Result};
use std::fmt;
use udf_core::batch::BatchCounts;
use udf_core::config::ModelBudget;
use udf_core::output::OutputDistribution;
use udf_core::sched::BatchScheduler;
use udf_obs::{Histogram, MetricsRegistry};
use udf_query::{EvalStrategy, Executor, Relation, Schema, UdfCall};

/// The join executor's observability handles. Purely observational:
/// RNG streams and emitted rows are identical whether or not these record
/// (pinned by the determinism tests).
#[derive(Clone, Debug)]
pub struct JoinMetrics {
    /// Sequential warmup-round wall time (whole round).
    pub warmup_ns: Histogram,
    /// Main two-phase batch wall time (whole batch).
    pub main_ns: Histogram,
}

impl JoinMetrics {
    /// No-op handles (what an un-wired executor holds).
    pub fn disabled() -> Self {
        JoinMetrics {
            warmup_ns: Histogram::disabled(),
            main_ns: Histogram::disabled(),
        }
    }

    /// Register the `join.*` handles in `reg`.
    pub fn register(reg: &MetricsRegistry) -> Self {
        JoinMetrics {
            warmup_ns: reg.histogram("join.warmup_ns"),
            main_ns: reg.histogram("join.main_ns"),
        }
    }
}

/// Warmup-round size for GP joins: enough strided pairs to train the
/// model across the input space, few enough that the sequential warmup
/// stays a vanishing fraction of O(n²) pair evaluations.
pub const WARMUP_PAIRS: usize = 32;

/// The deterministic warmup subset for a join of `total` candidate pairs:
/// [`WARMUP_PAIRS`] indices evenly strided over `0..total` (all of them
/// when `total` is small). Strictly increasing and duplicate-free.
pub fn warmup_indices(total: usize) -> Vec<usize> {
    if total <= WARMUP_PAIRS {
        return (0..total).collect();
    }
    let mut out: Vec<usize> = (0..WARMUP_PAIRS)
        .map(|k| k * total / WARMUP_PAIRS)
        .collect();
    out.dedup();
    out
}

/// Join-level counters: what pairs add beside the batch operator's
/// [`BatchCounts`], which are summed over both rounds and count evaluated
/// pairs as tuples. Every generated pair is either kept or filtered:
/// `pairs_generated = counts.kept + counts.filtered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Candidate pairs after the `ON` filter.
    pub pairs_generated: u64,
    /// The evaluated pairs' counter block.
    pub counts: BatchCounts,
}

impl fmt::Display for JoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let line = udf_obs::fmt::KvLine::new()
            .field("pairs_generated", self.pairs_generated)
            .raw(&self.counts.to_string());
        f.write_str(&line.finish())
    }
}

/// One surviving joined pair.
#[derive(Debug, Clone)]
pub struct JoinedPair {
    /// Global pair index (position in the `ON`-filtered enumeration —
    /// identical to the row index a materialized
    /// [`Relation::cross_join`](udf_query::Relation::cross_join) would
    /// assign).
    pub pair: usize,
    /// Left source-tuple index.
    pub left: usize,
    /// Right source-tuple index.
    pub right: usize,
    /// The pair UDF's output distribution.
    pub output: OutputDistribution,
    /// Tuple-existence probability estimate.
    pub tep: f64,
}

/// What a join run produced.
#[derive(Debug)]
pub struct JoinOutput {
    /// The joined relation of *kept* pairs (prefixed schema), in pair
    /// order.
    pub relation: Relation,
    /// Per-pair outputs aligned with [`relation`](JoinOutput::relation)'s
    /// tuples.
    pub rows: Vec<JoinedPair>,
    /// Join-level counters.
    pub stats: JoinStats,
}

/// Executes one [`JoinSpec`] — see the [module docs](self) for the
/// two-round shape.
pub struct JoinExecutor<'s, 'a> {
    spec: &'s JoinSpec<'a>,
    schema: Schema,
    call: UdfCall,
    executor: Executor,
    metrics: JoinMetrics,
}

impl<'s, 'a> JoinExecutor<'s, 'a> {
    /// Validate the spec and build the inner pair executor.
    pub fn new(spec: &'s JoinSpec<'a>) -> Result<Self> {
        if spec.prune {
            return Err(JoinError::InvalidSpec(
                "pair pruning was removed; build the spec without `prune(true)`".to_string(),
            ));
        }
        let schema = spec.joined_schema()?;
        let qualified = spec.qualified_args();
        let names: Vec<&str> = qualified.iter().map(String::as_str).collect();
        let call = UdfCall::resolve(spec.udf.clone(), &schema, &names)?;
        let executor = Executor::new(spec.strategy, spec.accuracy, &call, spec.output_range)?
            .with_model_cap(spec.model_cap, ModelBudget::StopGrowing)?;
        Ok(JoinExecutor {
            spec,
            schema,
            call,
            executor,
            metrics: JoinMetrics::disabled(),
        })
    }

    /// Wire observability: the `join.*` phase timers plus the inner
    /// executor's model handles (`olgapro.*`) register in `metrics`.
    /// Purely observational — results are byte-identical wired or not.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = JoinMetrics::register(metrics);
        self.executor = self.executor.with_metrics(metrics);
        self
    }

    /// Run the join on `sched`'s workers: the filtered cross product via
    /// [`Relation::cross_join`], then one batch (MC) or the warmup and
    /// main rounds (GP) over it.
    pub fn run(&mut self, sched: &BatchScheduler) -> Result<JoinOutput> {
        let spec = self.spec;
        let pairs_rel =
            spec.left
                .cross_join(&spec.left_prefix, spec.right, &spec.right_prefix, |i, j| {
                    spec.keep(i, j)
                })?;
        let total = pairs_rel.len();
        let mut stats = JoinStats {
            pairs_generated: total as u64,
            ..JoinStats::default()
        };
        let inputs = self.call.indexed_inputs(&pairs_rel)?;
        let mut rows = Vec::new();
        let main = match spec.strategy {
            EvalStrategy::Mc => inputs,
            EvalStrategy::Gp => {
                let warm = warmup_indices(total);
                let (warm, main): (Vec<_>, Vec<_>) = inputs
                    .into_iter()
                    .partition(|(idx, _)| warm.binary_search(idx).is_ok());
                let _warmup_span = self.metrics.warmup_ns.span();
                let (r, counts) =
                    self.executor
                        .sequential_indexed(&warm, spec.predicate.as_ref(), spec.seed)?;
                stats.counts += counts;
                rows.extend(r);
                main
            }
        };
        if !main.is_empty() {
            let _main_span = self.metrics.main_ns.span();
            let (r, counts) =
                self.executor
                    .batch_indexed(&main, spec.predicate.as_ref(), sched, spec.seed)?;
            stats.counts += counts;
            rows.extend(r);
        }
        rows.sort_by_key(|r| r.source);

        let coords: Vec<(usize, usize)> = (0..spec.left.len())
            .flat_map(|i| (0..spec.right.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| spec.keep(i, j))
            .collect();
        let mut tuples = Vec::with_capacity(rows.len());
        let mut joined = Vec::with_capacity(rows.len());
        for row in rows {
            let (left, right) = coords[row.source];
            tuples.push(pairs_rel.tuples()[row.source].clone());
            joined.push(JoinedPair {
                pair: row.source,
                left,
                right,
                output: row.output,
                tep: row.tep,
            });
        }
        Ok(JoinOutput {
            relation: Relation::new(self.schema.clone(), tuples)?,
            rows: joined,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_indices_are_strided_and_complete() {
        assert_eq!(warmup_indices(0), Vec::<usize>::new());
        assert_eq!(warmup_indices(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(
            warmup_indices(WARMUP_PAIRS),
            (0..WARMUP_PAIRS).collect::<Vec<_>>()
        );
        let w = warmup_indices(1000);
        assert_eq!(w.len(), WARMUP_PAIRS);
        assert_eq!(w[0], 0);
        assert!(w.windows(2).all(|p| p[0] < p[1]), "strictly increasing");
        assert_eq!(
            *w.last().unwrap(),
            (WARMUP_PAIRS - 1) * 1000 / WARMUP_PAIRS,
            "covers the tail"
        );
        // Strides actually spread: no prefix clumping.
        assert!(w[1] >= 1000 / WARMUP_PAIRS);
    }
}
