//! The batch-parallel uncertain θ-join executor.

use crate::spec::JoinSpec;
use udf_core::batch::{BatchCounts, BatchSpec, EvalStrategy, Evaluator, Ruling};
use udf_core::filtering::FilterDecision;
use udf_core::output::OutputDistribution;
use udf_core::sched::BatchScheduler;
use udf_core::{CoreError, Result};
use udf_obs::MetricsRegistry;

/// Warmup-round size for GP joins: enough strided pairs to train the
/// model across the input space, few enough that the sequential warmup
/// stays a vanishing fraction of O(n²) pair evaluations.
pub(crate) const WARMUP_PAIRS: usize = 32;

/// The deterministic warmup subset for a join of `total` candidate pairs:
/// `WARMUP_PAIRS` (32) indices evenly strided over `0..total` (all of them
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

/// One surviving joined pair.
#[derive(Debug, Clone)]
pub struct JoinedPair {
    /// Global pair index: the position of `(left, right)` in the
    /// `ON`-filtered enumeration of
    /// [`Relation::pairs`](udf_query::Relation::pairs), which is also its
    /// row index in a materialized
    /// [`Relation::cross_join`](udf_query::Relation::cross_join).
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
    /// The kept pairs, in pair order.
    pub rows: Vec<JoinedPair>,
    /// The evaluated pairs' counter block, summed over both rounds; every
    /// `ON`-admitted pair counts as one tuple in.
    pub stats: BatchCounts,
}

/// Executes one [`JoinSpec`] as a caller of the batch operator
/// ([`Evaluator`]).
///
/// MC joins are embarrassingly parallel: one
/// [`run_two_phase`](Evaluator::run_two_phase) batch over every candidate
/// pair.
///
/// GP joins run **two rounds** so one warm model amortizes across all
/// O(n²) pairs:
///
/// 1. **warmup** — [`warmup_indices`] picks a small, evenly-strided,
///    deterministic subset of the pair enumeration (the stride is what
///    matters: a prefix would only cover one left tuple's slice) and
///    runs it *sequentially through the full Algorithm 5 path*
///    ([`Evaluator::run_sequential`]): each warmup pair tunes the model
///    before the next is judged, so no pair is ever ruled by the raw
///    bootstrap model — a cold frozen model (near-duplicate training
///    cluster, ill-conditioned α) can spuriously filter arbitrarily many
///    pairs in a batch fast phase;
/// 2. **main** — every remaining pair runs in one two-phase batch whose
///    fast phase reads the now-warm frozen model, so most pairs are served
///    read-only in parallel instead of rerouting through the sequential
///    slow path.
///
/// Both rounds seed every pair from its *global* enumeration index, so
/// RNG streams, emitted pair ids, and fold positions are independent of
/// worker count — and a hand-built construction over the materialized
/// cross product reproduces the join byte-for-byte (pinned by
/// `tests/parity.rs`).
pub struct JoinExecutor<'s, 'a> {
    spec: &'s JoinSpec<'a>,
    eval: Evaluator,
    metrics: MetricsRegistry,
}

impl<'s, 'a> JoinExecutor<'s, 'a> {
    /// Validate the spec and build its evaluator.
    pub fn new(spec: &'s JoinSpec<'a>) -> Result<Self> {
        if spec.prune {
            return Err(CoreError::InvalidJoin(
                "pair pruning was removed; build the spec without `prune(true)`".to_string(),
            ));
        }
        let eval = Evaluator::new(
            spec.strategy,
            spec.udf.clone(),
            spec.accuracy,
            spec.output_range,
            spec.model_cap,
        )?;
        Ok(JoinExecutor {
            spec,
            eval,
            metrics: MetricsRegistry::disabled(),
        })
    }

    /// Wire observability: the `join.*` phase timers plus the evaluator's
    /// model handles (`olgapro.*`) register in `metrics`. Purely
    /// observational — results are byte-identical wired or not.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = metrics.clone();
        self.eval.set_metrics(metrics);
        self
    }

    /// Run the join on `sched`'s workers: the `ON`-admitted pairs of
    /// [`Relation::pairs`](udf_query::Relation::pairs), then one batch (MC)
    /// or the warmup and main rounds (GP) over them.
    pub fn run(&mut self, sched: &BatchScheduler) -> Result<JoinOutput> {
        let spec = self.spec;
        let coords = spec.left.pairs(spec.right, |i, j| spec.keep(i, j))?;
        let inputs = coords
            .iter()
            .map(|&(i, j)| spec.pair_input(i, j))
            .collect::<Result<Vec<_>>>()?;
        let warmup_ns = self.metrics.histogram("join.warmup_ns");
        let main_ns = self.metrics.histogram("join.main_ns");
        let batch = BatchSpec {
            seed: spec.seed,
            stream: 0,
            predicate: spec.predicate,
        };
        let mut rows = Vec::new();
        let mut sink = |pair: u64, ruling: Ruling| {
            if let FilterDecision::Kept { output, tep } = ruling {
                let pair = pair as usize;
                let (left, right) = coords[pair];
                rows.push(JoinedPair {
                    pair,
                    left,
                    right,
                    output,
                    tep,
                });
            }
        };
        let mut stats = BatchCounts::default();
        let main: Vec<usize> = match spec.strategy {
            EvalStrategy::Mc => (0..coords.len()).collect(),
            EvalStrategy::Gp => {
                let warm = warmup_indices(coords.len());
                let _warmup_span = warmup_ns.span();
                let tuple = |k: usize| (warm[k] as u64, &inputs[warm[k]]);
                stats += self
                    .eval
                    .run_sequential(batch, warm.len(), tuple, &mut sink)?;
                (0..coords.len())
                    .filter(|k| warm.binary_search(k).is_err())
                    .collect()
            }
        };
        if !main.is_empty() {
            let _main_span = main_ns.span();
            let tuple = |k: usize| (main[k] as u64, &inputs[main[k]]);
            stats += self
                .eval
                .run_two_phase(sched, batch, main.len(), tuple, &mut sink)?;
        }
        rows.sort_by_key(|r| r.pair);
        Ok(JoinOutput { rows, stats })
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
