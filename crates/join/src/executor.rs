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
//!
//! With pruning enabled, the main round first runs the
//! [`PairPruner`] pre-pass against the
//! post-warmup model: pairs whose envelope certificate proves `ρ_U = 0`
//! are dropped *without per-sample inference* — provably the same pairs
//! the main batch's accept hook would have filtered, so pruning on/off
//! is byte-identical while evaluating measurably fewer pairs.

use crate::prune::{coverage_radius, pair_input, PairPruner};
use crate::spec::JoinSpec;
use crate::{JoinError, Result};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;
use udf_core::batch::BatchCounts;
use udf_core::filtering::EnvelopeDecision;
use udf_core::output::OutputDistribution;
use udf_core::sched::BatchScheduler;
use udf_obs::{Histogram, MetricsRegistry};
use udf_prob::InputDistribution;
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, UdfCall};

/// The join executor's observability handles. Purely observational:
/// pruning decisions, RNG streams, and emitted rows are identical whether
/// or not these record (pinned by the determinism tests).
#[derive(Clone, Debug)]
pub struct JoinMetrics {
    /// Sequential warmup-round wall time (whole round).
    pub warmup_ns: Histogram,
    /// Main two-phase batch wall time (whole batch).
    pub main_ns: Histogram,
    /// R-tree screen time, per left tuple ([`PairPruner::attempts`]).
    pub screen_ns: Histogram,
    /// Exact envelope-certificate time, per attempted pair
    /// ([`PairPruner::certify_pair`]).
    pub certify_ns: Histogram,
}

impl JoinMetrics {
    /// No-op handles (what an un-wired executor holds).
    pub fn disabled() -> Self {
        JoinMetrics {
            warmup_ns: Histogram::disabled(),
            main_ns: Histogram::disabled(),
            screen_ns: Histogram::disabled(),
            certify_ns: Histogram::disabled(),
        }
    }

    /// Register the `join.*` handles in `reg`.
    pub fn register(reg: &MetricsRegistry) -> Self {
        JoinMetrics {
            warmup_ns: reg.histogram("join.warmup_ns"),
            main_ns: reg.histogram("join.main_ns"),
            screen_ns: reg.histogram("join.screen_ns"),
            certify_ns: reg.histogram("join.certify_ns"),
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
/// pairs as tuples. Every generated pair ends in exactly one of three ways:
/// `pairs_generated = pairs_pruned + counts.kept + counts.filtered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Candidate pairs after the `ON` filter.
    pub pairs_generated: u64,
    /// Pairs skipped by the exact envelope certificate — no per-sample
    /// inference, no UDF calls, provably no output change.
    pub pairs_pruned: u64,
    /// Exact certificates attempted (the R-tree screen's hit count).
    pub prune_attempts: u64,
    /// Pairs the certificate proved *certainly kept* (`ρ_L = 1 ≥ θ`);
    /// they are still evaluated to produce their output distribution.
    pub certain_accepts: u64,
    /// The evaluated pairs' counter block.
    pub counts: BatchCounts,
}

impl fmt::Display for JoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let line = udf_obs::fmt::KvLine::new()
            .field("pairs_generated", self.pairs_generated)
            .field("pairs_pruned", self.pairs_pruned)
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

/// How many left tuples each streamed pre-pass block covers (bounds the
/// pruned path's transient memory at `block × right.len()` decisions).
const LEFT_BLOCK: usize = 64;

/// Rows plus the pair-index → `(left, right)` coordinate map the
/// execution paths hand back to [`JoinExecutor::run`].
type RowsAndCoords = (Vec<ProjectedTuple>, BTreeMap<usize, (usize, usize)>);

/// Executes one [`JoinSpec`] — see the [module docs](self) for the
/// two-round shape and the pruning contract.
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
            if spec.strategy != EvalStrategy::Gp {
                return Err(JoinError::InvalidSpec(
                    "envelope pruning requires the GP strategy (MC has no band to bound)"
                        .to_string(),
                ));
            }
            if spec.predicate.is_none() {
                return Err(JoinError::InvalidSpec(
                    "envelope pruning requires a PR predicate to rule on".to_string(),
                ));
            }
        }
        let schema = spec.joined_schema()?;
        let qualified = spec.qualified_args();
        let names: Vec<&str> = qualified.iter().map(String::as_str).collect();
        let call = UdfCall::resolve(spec.udf.clone(), &schema, &names)?;
        let executor = Executor::new(spec.strategy, spec.accuracy, &call, spec.output_range)?
            .with_model_cap(spec.model_cap, spec.budget())?;
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

    /// Run the join on `sched`'s worker pool.
    pub fn run(&mut self, sched: &BatchScheduler) -> Result<JoinOutput> {
        let spec = self.spec;
        let (nl, nr) = (spec.left.len(), spec.right.len());
        let cross = (nl as u64).checked_mul(nr as u64);
        if cross.is_none_or(|p| p > u32::MAX as u64) {
            return Err(JoinError::Query(udf_query::QueryError::JoinTooLarge {
                left: nl,
                right: nr,
            }));
        }
        let mut stats = JoinStats::default();
        let (mut rows, pair_of) = match (spec.strategy, spec.prune) {
            (EvalStrategy::Mc, _) | (EvalStrategy::Gp, false) => {
                self.run_materialized(sched, &mut stats)?
            }
            (EvalStrategy::Gp, true) => self.run_pruned(sched, &mut stats)?,
        };
        rows.sort_by_key(|r| r.source);

        let mut tuples = Vec::with_capacity(rows.len());
        let mut joined = Vec::with_capacity(rows.len());
        for row in rows {
            let (i, j) = *pair_of
                .get(&row.source)
                .expect("every emitted row's pair index was enumerated");
            tuples.push(spec.left.tuples()[i].concat(&spec.right.tuples()[j]));
            joined.push(JoinedPair {
                pair: row.source,
                left: i,
                right: j,
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

    /// Materialized path (MC, and GP without pruning): filtered cross
    /// product via [`Relation::cross_join`], then one batch (MC) or the
    /// warmup + main rounds (GP) over it.
    fn run_materialized(
        &mut self,
        sched: &BatchScheduler,
        stats: &mut JoinStats,
    ) -> Result<RowsAndCoords> {
        let spec = self.spec;
        let pairs_rel =
            spec.left
                .cross_join(&spec.left_prefix, spec.right, &spec.right_prefix, |i, j| {
                    spec.keep(i, j)
                })?;
        let total = pairs_rel.len();
        stats.pairs_generated = total as u64;
        let mut pair_of = BTreeMap::new();
        let mut idx = 0usize;
        for i in 0..spec.left.len() {
            for j in 0..spec.right.len() {
                if spec.keep(i, j) {
                    pair_of.insert(idx, (i, j));
                    idx += 1;
                }
            }
        }
        let inputs = self.call.indexed_inputs(&pairs_rel)?;
        let mut rows = Vec::new();
        let main = match spec.strategy {
            EvalStrategy::Mc => inputs,
            EvalStrategy::Gp => {
                let mut rounds = split_rounds(inputs, &warmup_indices(total));
                let main = rounds.pop().expect("split_rounds returns two rounds");
                let warm = rounds.pop().expect("split_rounds returns two rounds");
                let (r, counts) = self.warmup(&warm)?;
                stats.counts += counts;
                rows.extend(r);
                main
            }
        };
        self.main_round(&main, sched, stats, &mut rows)?;
        Ok((rows, pair_of))
    }

    /// The pruned path: warmup round, then a streamed pre-pass that
    /// certifies rejectable pairs from band bounds over their sample
    /// boxes, then one two-phase batch over the survivors. The joined
    /// relation is never materialized for pruned pairs.
    fn run_pruned(
        &mut self,
        sched: &BatchScheduler,
        stats: &mut JoinStats,
    ) -> Result<RowsAndCoords> {
        let spec = self.spec;
        let pred = spec.predicate.expect("validated in new()");
        let (nl, nr) = (spec.left.len(), spec.right.len());

        // Enumeration offsets: the global index of left tuple i's first
        // candidate pair (pair indices must match the materialized
        // enumeration exactly — they seed the per-pair RNGs).
        let mut offsets = Vec::with_capacity(nl);
        let mut total = 0usize;
        for i in 0..nl {
            offsets.push(total);
            total += (0..nr).filter(|&j| spec.keep(i, j)).count();
        }
        stats.pairs_generated = total as u64;
        let mut pair_of = BTreeMap::new();
        let mut rows = Vec::new();
        if total == 0 {
            return Ok((rows, pair_of));
        }

        // Warmup round: strided pairs train the model across the input
        // space before anything is certified against it.
        let warm = warmup_indices(total);
        let warm_inputs = self.collect_pairs(&warm, &mut pair_of)?;
        let (r, counts) = self.warmup(&warm_inputs)?;
        stats.counts += counts;
        rows.extend(r);
        let in_warmup = |idx: usize| warm.binary_search(&idx).is_ok();

        // Main-round pre-pass: R-tree screen + exact certificates, in
        // parallel on the same pool, everything read-only against the
        // frozen post-warmup model.
        let pruner = PairPruner::new(spec);
        let metrics = &self.metrics;
        let olga = self.executor.olgapro().expect("pruning requires GP");
        let coverage = coverage_radius(olga);
        let mut survivors: Vec<(usize, InputDistribution)> = Vec::new();
        for block_start in (0..nl).step_by(LEFT_BLOCK) {
            let block_len = LEFT_BLOCK.min(nl - block_start);
            #[allow(clippy::needless_range_loop)] // j drives keep() and attempt[] in lockstep
            let decisions = sched.try_map(block_len, |b| -> Result<_> {
                let i = block_start + b;
                let t_screen = metrics.screen_ns.enabled().then(Instant::now);
                let attempt = pruner.attempts(spec, i, olga, &pred, coverage);
                if let Some(t0) = t_screen {
                    metrics.screen_ns.record_duration(t0.elapsed());
                }
                let mut out = Vec::new();
                let mut idx = offsets[i];
                for j in 0..nr {
                    if !spec.keep(i, j) {
                        continue;
                    }
                    let this = idx;
                    idx += 1;
                    if in_warmup(this) {
                        continue;
                    }
                    if attempt[j] {
                        let t_cert = metrics.certify_ns.enabled().then(Instant::now);
                        let (decision, input) =
                            pruner.certify_pair(spec, olga, &pred, i, j, this)?;
                        if let Some(t0) = t_cert {
                            metrics.certify_ns.record_duration(t0.elapsed());
                        }
                        out.push((this, j, true, decision, Some(input)));
                    } else {
                        out.push((this, j, false, EnvelopeDecision::Undecided, None));
                    }
                }
                Ok(out)
            })?;
            for (b, per_left) in decisions.into_iter().enumerate() {
                let i = block_start + b;
                for (idx, j, attempted, decision, input) in per_left? {
                    if attempted {
                        stats.prune_attempts += 1;
                    }
                    match decision {
                        EnvelopeDecision::DefiniteReject => {
                            stats.pairs_pruned += 1;
                            continue;
                        }
                        EnvelopeDecision::DefiniteAccept => stats.certain_accepts += 1,
                        EnvelopeDecision::Undecided => {}
                    }
                    pair_of.insert(idx, (i, j));
                    let input = match input {
                        Some(d) => d,
                        None => pair_input(spec, i, j)?,
                    };
                    survivors.push((idx, input));
                }
            }
        }

        self.main_round(&survivors, sched, stats, &mut rows)?;
        Ok((rows, pair_of))
    }

    /// The main round: one two-phase batch over `pairs`, whose fast phase
    /// reads the post-warmup model.
    fn main_round(
        &mut self,
        pairs: &[(usize, InputDistribution)],
        sched: &BatchScheduler,
        stats: &mut JoinStats,
        rows: &mut Vec<ProjectedTuple>,
    ) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        let spec = self.spec;
        let _main_span = self.metrics.main_ns.span();
        let (r, counts) =
            self.executor
                .batch_indexed(pairs, spec.predicate.as_ref(), sched, spec.seed)?;
        stats.counts += counts;
        rows.extend(r);
        Ok(())
    }

    /// The GP warmup round: sequential full-path evaluation of the
    /// strided pairs (see the [module docs](self) for why this must not
    /// be a batch). Warmup pairs count as slow-path work; drops are
    /// filter decisions like any other.
    fn warmup(
        &mut self,
        warm: &[(usize, InputDistribution)],
    ) -> Result<(Vec<ProjectedTuple>, BatchCounts)> {
        let spec = self.spec;
        let _warmup_span = self.metrics.warmup_ns.span();
        Ok(self
            .executor
            .sequential_indexed(warm, spec.predicate.as_ref(), spec.seed)?)
    }

    /// Resolve a sorted list of global pair indices to `(idx, input)`
    /// pairs in one enumeration pass, recording their coordinates.
    fn collect_pairs(
        &self,
        wanted: &[usize],
        pair_of: &mut BTreeMap<usize, (usize, usize)>,
    ) -> Result<Vec<(usize, InputDistribution)>> {
        let spec = self.spec;
        let mut out = Vec::with_capacity(wanted.len());
        let mut next = 0usize;
        let mut idx = 0usize;
        'outer: for i in 0..spec.left.len() {
            for j in 0..spec.right.len() {
                if !spec.keep(i, j) {
                    continue;
                }
                if next < wanted.len() && wanted[next] == idx {
                    pair_of.insert(idx, (i, j));
                    out.push((idx, pair_input(spec, i, j)?));
                    next += 1;
                    if next == wanted.len() {
                        break 'outer;
                    }
                }
                idx += 1;
            }
        }
        Ok(out)
    }
}

/// Split an indexed input list into `[warmup, main]` rounds by global
/// pair index (`warm` must be sorted, as [`warmup_indices`] returns).
fn split_rounds(
    inputs: Vec<(usize, InputDistribution)>,
    warm: &[usize],
) -> Vec<Vec<(usize, InputDistribution)>> {
    let mut a = Vec::with_capacity(warm.len());
    let mut b = Vec::with_capacity(inputs.len().saturating_sub(warm.len()));
    for (idx, input) in inputs {
        if warm.binary_search(&idx).is_ok() {
            a.push((idx, input));
        } else {
            b.push((idx, input));
        }
    }
    vec![a, b]
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
