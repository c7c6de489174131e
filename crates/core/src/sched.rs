//! The two-phase batch scheduler (the paper's §8 future work: "extend our
//! techniques to allow for parallel processing").
//!
//! Processing a tuple against a converged OLGAPRO model is a *read-only*
//! pass (sample, local inference, error bound), which parallelizes
//! trivially; only a tuple whose error bound misses the budget needs the
//! mutable path (online tuning / retraining). A batch therefore runs in a
//! **fast phase**, every tuple inferred concurrently against the *frozen*
//! model, and a **fold** in tuple order on the calling thread, where a
//! tuple whose result the caller rejects re-runs through the full
//! model-mutating Algorithm 5. At steady state nothing re-runs and the
//! speedup approaches the worker count; on a cold model the output
//! degrades gracefully to the sequential algorithm's.
//!
//! [`BatchScheduler`] owns that pattern; a [`BatchOps`] supplies the
//! per-tuple seed ([`mix_seed`], never the worker id), the fast path, the
//! accept hook's [`Verdict`] (accept, reroute, or drop at fast-path cost,
//! §5.5) and the slow path. The engine implements it once, in
//! [`crate::batch`], for every front-end, and opts in
//! ([`BatchOps::freeze`]) to a fold **window by window**: each window of
//! `workers × WINDOW_PER_WORKER` tuples is folded before the next is
//! inferred, so only one window's results wait for the fold, and later
//! windows read a snapshot of the batch-start model once the fold has
//! mutated it. The default keeps the whole batch as one window. The trait
//! stays public for harnesses that rebuild the pattern by hand; their
//! results default to the [`GpOutput`] of `Olgapro::infer_only_with`.
//!
//! The fast phase runs on the calling thread plus up to `workers − 1`
//! helpers scoped to the window, all stealing chunks from a shared counter;
//! one worker runs inline. These helpers are the only threads the engine
//! spawns. Each execution slot owns an [`InferScratch`] that persists
//! across batches, so warm fast passes reuse every buffer and the per-slot
//! local-predictor cache; the fold runs after its window's fast phase has
//! released the caller's slot, so the engine's slow path reuses that one.
//!
//! ## Determinism
//!
//! Tuple `i` always sees an RNG seeded with `ops.tuple_seed(i)` and slow
//! work always folds in tuple order on the calling thread, so for a fixed
//! seed the outputs (and every model mutation) are byte-identical for any
//! worker count. Chunk stealing moves *where* fast work runs, never *what*
//! it computes.

use crate::filtering::FilterDecision;
use crate::olgapro::InferScratch;
use crate::output::GpOutput;
use crate::{CoreError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use udf_obs::{Counter, Histogram, MetricsRegistry};

/// The scheduler's observability handles. Purely observational: outputs
/// are byte-identical with metrics wired or not. Un-wired schedulers hold
/// the disabled set, where every operation is one relaxed load and a branch.
#[derive(Clone, Debug)]
struct SchedMetrics {
    /// Wall time of the concurrent read-only fast phase, per batch.
    fast_phase_ns: Histogram,
    /// Wall time of the sequential fold (accepts, filters, slow reruns),
    /// per batch.
    slow_phase_ns: Histogram,
    /// Time the calling thread spent waiting for helper stragglers after
    /// finishing its own share, per map or batch.
    queue_wait_ns: Histogram,
    /// Steal-able chunks dispatched across all batches.
    chunks: Counter,
    /// Fast-phase results accepted as-is ([`Verdict::Accept`]).
    accepts: Counter,
    /// Tuples rerouted through the slow path ([`Verdict::Reroute`]).
    reroutes: Counter,
    /// Tuples dropped at fast-path cost ([`Verdict::Filter`]).
    filters: Counter,
}

impl SchedMetrics {
    /// The no-op handle set (what un-wired schedulers carry).
    pub(crate) fn disabled() -> Self {
        Self::register(&MetricsRegistry::disabled())
    }

    /// Handles registered under the shared `sched.*` names.
    pub(crate) fn register(reg: &MetricsRegistry) -> Self {
        SchedMetrics {
            fast_phase_ns: reg.histogram("sched.fast_phase_ns"),
            slow_phase_ns: reg.histogram("sched.slow_phase_ns"),
            queue_wait_ns: reg.histogram("sched.queue_wait_ns"),
            chunks: reg.counter("sched.chunks"),
            accepts: reg.counter("sched.verdict.accept"),
            reroutes: reg.counter("sched.verdict.reroute"),
            filters: reg.counter("sched.verdict.filter"),
        }
    }

    /// Record what a map, or a batch's windows, dispatched and waited for.
    fn record_map(&self, phases: &Phases) {
        self.chunks.add(phases.chunks);
        self.queue_wait_ns.record_duration(phases.wait);
    }
}

/// What a map or batch cost, summed over its windows, so that each
/// `sched.*` metric takes one record per batch.
#[derive(Default)]
struct Phases {
    chunks: u64,
    wait: Duration,
    fast: Duration,
    fold: Duration,
}

/// SplitMix64-style finalizer over `(seed, stream, idx)` — the per-tuple
/// seed mixer shared by every batch subsystem.
///
/// `stream` distinguishes independent consumers of one seed (the stream
/// engine passes the query id; single-query callers pass 0); `idx` is the
/// tuple's global index. The avalanche steps ensure adjacent indices yield
/// uncorrelated RNG streams, which the previous ad-hoc
/// `seed ^ (idx * constant)` mix did not.
pub fn mix_seed(seed: u64, stream: u64, idx: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The accept hook's ruling on one fast-phase result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The read-only result is good: emit it as-is.
    Accept,
    /// Re-run the tuple through the sequential slow path.
    Reroute,
    /// Drop the tuple at fast-path cost (online filtering, §5.5), recording
    /// the tuple-existence-probability upper bound at the decision point.
    Filter {
        /// Upper bound on the TEP when the tuple was dropped.
        rho_upper: f64,
    },
}

/// What a caller plugs into [`BatchScheduler::run_two_phase`]. The
/// implementor owns the batch state (model, inputs, output sink); the
/// scheduler sequences the borrows: `&self` methods run during the
/// concurrent fast phase, `&mut self` methods run sequentially in tuple
/// order on the calling thread.
///
/// `Out` is a fast-phase result as the fold receives it. It defaults to
/// [`GpOutput`], so an `impl BatchOps for …` over
/// [`Olgapro::infer_only_with`](crate::olgapro::Olgapro::infer_only_with)
/// names no type; the engine's own keeps a smaller row (module docs).
pub trait BatchOps<Out = GpOutput> {
    /// The seed mixer: per-tuple RNG seed for tuple `idx`. Must not depend
    /// on anything scheduling-dependent.
    fn tuple_seed(&self, idx: usize) -> u64;

    /// True when the model is cold and tuple 0 must run through the slow
    /// path *before* the fast phase, so the fast phase has a model to read.
    fn needs_bootstrap(&self) -> bool {
        false
    }

    /// Read-only fast-path evaluation of tuple `idx`; runs concurrently.
    ///
    /// `scratch` is the executing worker's private reusable buffer set,
    /// owned by the scheduler and handed to whichever worker steals the
    /// tuple — in steady state the fast phase allocates nothing per tuple.
    /// Implementations must not let the scratch contents affect results
    /// (it is a cache, keyed to stay coherent), since chunk stealing makes
    /// the tuple→worker assignment nondeterministic.
    fn fast(&self, idx: usize, rng: &mut StdRng, scratch: &mut InferScratch) -> Result<Out>;

    /// [`fast`](BatchOps::fast) for implementors that can rule a tuple out
    /// *before* finishing its output (§5.5: ρ_U needs only the inferred
    /// band): a `Filtered` result folds exactly like
    /// [`Verdict::Filter`], a `Kept` output goes to the accept hook. This is
    /// what the fast phase calls, so the ruling must depend on the tuple and
    /// the batch's fixed inputs only — never on model state at fold time.
    fn fast_ruled(
        &self,
        idx: usize,
        rng: &mut StdRng,
        scratch: &mut InferScratch,
    ) -> Result<FilterDecision<Out>> {
        let output = self.fast(idx, rng, scratch)?;
        Ok(FilterDecision::Kept { output, tep: 1.0 })
    }

    /// Rule on a fast-path result. Called in tuple order; `&self` already
    /// reflects every slow-path mutation of earlier tuples.
    fn accept(&self, idx: usize, out: &Out) -> Verdict;

    /// Emit an accepted fast-path output (sequential, tuple order).
    fn emit_fast(&mut self, idx: usize, out: Out) -> Result<()>;

    /// Record a filtered tuple (sequential, tuple order). Callers without a
    /// filter verdict can keep the default no-op.
    fn emit_filtered(&mut self, idx: usize, rho_upper: f64) -> Result<()> {
        let _ = (idx, rho_upper);
        Ok(())
    }

    /// Full sequential evaluation of tuple `idx` (bootstrap and reroutes),
    /// free to mutate the model. The RNG is freshly derived from
    /// [`tuple_seed`](BatchOps::tuple_seed), exactly as the fast path's was.
    fn slow(&mut self, idx: usize, rng: &mut StdRng) -> Result<()>;

    /// Opt in to a windowed fold (module docs). Called once per batch, after
    /// any bootstrap, when the batch spans more than one window. `true`
    /// promises that [`fast`](BatchOps::fast) keeps inferring from the state
    /// as of this call even once [`slow`](BatchOps::slow) has mutated it;
    /// the default, `false`, keeps the whole batch as one window.
    fn freeze(&mut self) -> bool {
        false
    }
}

/// How many steal-able chunks each worker's share of a map is split into.
/// More chunks smooth out per-tuple cost variance (a tuple near the model
/// boundary can be 10× its neighbors); fewer chunks cut counter traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// Tuples per worker in one window of a windowed batch: `CHUNKS_PER_WORKER`
/// chunks of as many tuples. Each window ends at a barrier (its helpers are
/// joined): on a 2-vCPU host, a 256-tuple statement at 2 workers lost ≈ 6 %
/// of its wall clock to windows of 4 tuples per worker, and ≈ 3 % to 16.
const WINDOW_PER_WORKER: usize = CHUNKS_PER_WORKER * CHUNKS_PER_WORKER;

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// The shared batch-execution core: per-slot scratch plus the two-phase
/// fast/slow driver. See the [module docs](self) for the pattern.
pub struct BatchScheduler {
    workers: usize,
    /// One [`InferScratch`] per execution slot. A worker locks its own slot
    /// for each stolen chunk (never another worker's, so the mutexes are
    /// uncontended); buffers and the per-slot `LocalPredictorCache` persist
    /// across batches, which is what makes the warm fast phase
    /// allocation-free.
    scratch: Vec<Mutex<InferScratch>>,
    metrics: SchedMetrics,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("workers", &self.workers)
            .finish()
    }
}

impl BatchScheduler {
    /// Create a scheduler with `workers` total execution slots (clamped to
    /// ≥ 1): up to `workers - 1` helper threads per batch, and the calling
    /// thread in the last slot.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let scratch = (0..workers)
            .map(|_| Mutex::new(InferScratch::default()))
            .collect();
        BatchScheduler {
            workers,
            scratch,
            metrics: SchedMetrics::disabled(),
        }
    }

    /// Wire observability: the `sched.*` handles register in `metrics`.
    /// Timings and counters never affect what the scheduler computes.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = SchedMetrics::register(metrics);
        self
    }

    /// Total execution slots (helper threads + the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate `f(i)` for every `i in 0..n` across the workers and return
    /// the results in index order. Workers steal chunks from a shared
    /// counter, so placement is dynamic but `out[i]` is always `f(i)`.
    ///
    /// Returns [`CoreError::WorkerPanicked`] when any invocation of `f`
    /// panicked (the panic is contained; the scheduler stays usable).
    pub fn try_map<T, F>(&self, n: usize, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut phases = Phases::default();
        let out = self.map_chunks(n, |_worker, i| f(i), &mut phases);
        self.metrics.record_map(&phases);
        out
    }

    /// [`try_map`](Self::try_map) for `n ≥ 1`, adding to `phases` instead
    /// of recording. The closure also receives the executing worker's slot
    /// id (`0..workers`), the key into its [`InferScratch`] slot; placement
    /// is dynamic (chunk stealing), so the id selects *which scratch*,
    /// never the computed value.
    fn map_chunks<T, F>(&self, n: usize, f: F, phases: &mut Phases) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let slots: Mutex<Vec<Option<T>>> =
            Mutex::new(std::iter::repeat_with(|| None).take(n).collect());
        let next = AtomicUsize::new(0);
        let chunk = n.div_ceil(self.workers * CHUNKS_PER_WORKER).max(1);
        // Spawn only as many helpers as there are chunks to steal (minus
        // the caller's): a 2-tuple batch on 8 workers spawns one thread.
        let helpers = (n.div_ceil(chunk) - 1).min(self.workers - 1);
        phases.chunks += n.div_ceil(chunk) as u64;
        let task = |worker: usize| loop {
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= n {
                break;
            }
            let hi = (lo + chunk).min(n);
            // Evaluate outside the lock; only the moves happen under it.
            let vals: Vec<(usize, T)> = (lo..hi).map(|i| (i, f(worker, i))).collect();
            let mut guard = slots.lock().expect("result mutex");
            for (i, v) in vals {
                guard[i] = Some(v);
            }
        };
        let task = &task;
        let res = std::thread::scope(|scope| {
            let helpers: Vec<_> = (0..helpers)
                .map(|worker| scope.spawn(move || task(worker)))
                .collect();
            // The caller is the last worker; a helper's panic comes back
            // from its `join`.
            let mut res =
                catch_unwind(AssertUnwindSafe(|| task(self.workers - 1))).map_err(panic_message);
            let waiting = Instant::now();
            for helper in helpers {
                res = res.and(helper.join().map_err(panic_message));
            }
            phases.wait += waiting.elapsed();
            res
        });
        match res {
            Ok(()) => Ok(slots
                .into_inner()
                .expect("result mutex")
                .into_iter()
                .map(|slot| slot.expect("every index filled"))
                .collect()),
            Err(message) => Err(CoreError::WorkerPanicked { message }),
        }
    }

    /// Lock slot `worker`'s scratch, which only that worker locks. A
    /// contained panic (see `try_map`) may poison it; a scratch is only
    /// caches and buffers keyed for coherence, so recovering it is safe.
    fn slot(&self, worker: usize) -> MutexGuard<'_, InferScratch> {
        self.scratch[worker]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The calling thread's slot scratch (the last), free while a batch
    /// folds: for the slow path of a batch running on this scheduler.
    pub(crate) fn caller_scratch(&self) -> MutexGuard<'_, InferScratch> {
        self.slot(self.workers - 1)
    }

    /// Drive one batch of `n` tuples through the two-phase pattern:
    ///
    /// 1. if [`BatchOps::needs_bootstrap`], tuple 0 runs the slow path
    ///    sequentially so the fast phase has a model to read;
    /// 2. the remaining tuples run [`BatchOps::fast_ruled`] (by default,
    ///    [`BatchOps::fast`]) concurrently — on helper threads scoped to
    ///    the window plus the calling thread as the last worker, or inline
    ///    when there is one worker — each with an RNG from
    ///    [`BatchOps::tuple_seed`];
    /// 3. results fold sequentially in tuple order: the accept hook rules
    ///    [`Accept`](Verdict::Accept) / [`Filter`](Verdict::Filter) /
    ///    [`Reroute`](Verdict::Reroute), and rerouted tuples (plus any
    ///    tuple whose fast pass hit an empty model) re-run via
    ///    [`BatchOps::slow`].
    ///
    /// Steps 2 and 3 take the batch one window at a time when `ops` opts in
    /// ([`BatchOps::freeze`]), and all at once otherwise.
    pub fn run_two_phase<O, Out>(&self, ops: &mut O, n: usize) -> Result<()>
    where
        O: BatchOps<Out> + Sync,
        Out: Send,
    {
        if n == 0 {
            return Ok(());
        }
        let mut start = 0usize;
        if ops.needs_bootstrap() {
            slow_tuple(ops, 0)?;
            start = 1;
            if start == n {
                return Ok(());
            }
        }
        let mut window = self.workers * WINDOW_PER_WORKER;
        if n - start <= window || !ops.freeze() {
            window = n - start;
        }
        let mut phases = Phases::default();
        for lo in (start..n).step_by(window) {
            // Phase 1: parallel read-only inference against the frozen model.
            let begun = Instant::now();
            let shared: &O = ops;
            let inferred = self.map_chunks(
                window.min(n - lo),
                |worker, i| {
                    let mut rng = StdRng::seed_from_u64(shared.tuple_seed(lo + i));
                    shared.fast_ruled(lo + i, &mut rng, &mut self.slot(worker))
                },
                &mut phases,
            )?;
            // Phase 2: sequential fold in tuple order.
            let folding = Instant::now();
            self.fold(ops, lo, inferred)?;
            phases.fast += folding - begun;
            phases.fold += folding.elapsed();
        }
        self.metrics.record_map(&phases);
        self.metrics.fast_phase_ns.record_duration(phases.fast);
        self.metrics.slow_phase_ns.record_duration(phases.fold);
        Ok(())
    }

    /// Fold one window's fast-phase results, the first being tuple `lo`'s.
    fn fold<O, Out>(
        &self,
        ops: &mut O,
        lo: usize,
        inferred: Vec<Result<FilterDecision<Out>>>,
    ) -> Result<()>
    where
        O: BatchOps<Out>,
    {
        for (i, res) in inferred.into_iter().enumerate() {
            let idx = lo + i;
            match res {
                // Ruled out on the fast path itself: a filter verdict.
                Ok(FilterDecision::Filtered { rho_upper, .. }) => {
                    self.metrics.filters.inc();
                    ops.emit_filtered(idx, rho_upper)?;
                }
                Ok(FilterDecision::Kept { output: out, .. }) => match ops.accept(idx, &out) {
                    Verdict::Accept => {
                        self.metrics.accepts.inc();
                        ops.emit_fast(idx, out)?;
                    }
                    Verdict::Filter { rho_upper } => {
                        self.metrics.filters.inc();
                        ops.emit_filtered(idx, rho_upper)?;
                    }
                    Verdict::Reroute => {
                        self.metrics.reroutes.inc();
                        slow_tuple(ops, idx)?;
                    }
                },
                // A racing reader can see the pre-bootstrap empty model only
                // when there is no bootstrap tuple in this batch; route it
                // through the slow path like any other miss.
                Err(CoreError::Gp(udf_gp::GpError::EmptyModel)) => {
                    self.metrics.reroutes.inc();
                    slow_tuple(ops, idx)?
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Run one tuple through the slow path with its canonical RNG.
fn slow_tuple<Out, O: BatchOps<Out>>(ops: &mut O, idx: usize) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(ops.tuple_seed(idx));
    ops.slow(idx, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn mix_seed_varies_with_every_input() {
        let s = mix_seed(1, 2, 3);
        assert_ne!(s, mix_seed(2, 2, 3));
        assert_ne!(s, mix_seed(1, 3, 3));
        assert_ne!(s, mix_seed(1, 2, 4));
        assert_eq!(s, mix_seed(1, 2, 3));
    }

    #[test]
    fn mix_seed_decorrelates_adjacent_indices() {
        // The weak multiplier mix this replaced flipped only low bits
        // between adjacent indices; the finalizer must flip about half.
        for idx in 0..64u64 {
            let a = mix_seed(7, 0, idx);
            let b = mix_seed(7, 0, idx + 1);
            let flipped = (a ^ b).count_ones();
            assert!((8..=56).contains(&flipped), "idx {idx}: {flipped} bits");
        }
    }

    #[test]
    fn try_map_is_index_ordered_for_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let sched = BatchScheduler::new(workers);
            let out = sched.try_map(100, |i| i * i).unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_reuses_the_pool_across_batches() {
        let sched = BatchScheduler::new(4);
        for round in 0..50usize {
            let out = sched.try_map(17, |i| i + round).unwrap();
            assert_eq!(out[16], 16 + round);
        }
    }

    #[test]
    fn try_map_contains_panics_and_pool_survives() {
        let sched = BatchScheduler::new(4);
        let err = sched
            .try_map(32, |i| if i == 13 { panic!("boom") } else { i })
            .unwrap_err();
        match &err {
            CoreError::WorkerPanicked { message } => {
                assert!(message.contains("boom"), "payload lost: {message:?}")
            }
            other => panic!("expected WorkerPanicked, got {other}"),
        }
        // The pool must stay usable after a contained panic.
        let out = sched.try_map(8, |i| i).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn try_map_empty_is_fine() {
        let sched = BatchScheduler::new(2);
        let out: Vec<usize> = sched.try_map(0, |i| i).unwrap();
        assert!(out.is_empty());
    }

    /// How many [`Row`]s exist, and the most that ever existed at once.
    #[derive(Default)]
    struct Tally {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    /// A fast-phase result that counts itself in its [`Tally`].
    struct Row<'t>(&'t Tally);

    impl Drop for Row<'_> {
        fn drop(&mut self) {
            self.0.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Ops whose fast phase makes counted rows and whose accept hook
    /// reroutes tuples 1 and 2 (both in the first window); `windowed`
    /// answers [`BatchOps::freeze`].
    struct Counted<'t> {
        tally: &'t Tally,
        windowed: bool,
        folded: Vec<usize>,
    }

    impl<'t> BatchOps<Row<'t>> for Counted<'t> {
        fn tuple_seed(&self, idx: usize) -> u64 {
            idx as u64
        }

        fn fast(&self, _: usize, _: &mut StdRng, _: &mut InferScratch) -> Result<Row<'t>> {
            let live = self.tally.live.fetch_add(1, Ordering::Relaxed) + 1;
            self.tally.peak.fetch_max(live, Ordering::Relaxed);
            Ok(Row(self.tally))
        }

        fn accept(&self, idx: usize, _: &Row<'t>) -> Verdict {
            if (1..3).contains(&idx) {
                Verdict::Reroute
            } else {
                Verdict::Accept
            }
        }

        fn emit_fast(&mut self, idx: usize, _: Row<'t>) -> Result<()> {
            self.folded.push(idx);
            Ok(())
        }

        fn slow(&mut self, idx: usize, _: &mut StdRng) -> Result<()> {
            self.folded.push(idx);
            Ok(())
        }

        fn freeze(&mut self) -> bool {
            self.windowed
        }
    }

    #[test]
    fn a_windowed_batch_holds_one_window_of_rows_and_the_default_the_batch() {
        let n = 3 * 8 * WINDOW_PER_WORKER + 5;
        for workers in [1, 2, 8] {
            for windowed in [true, false] {
                let tally = Tally::default();
                let mut ops = Counted {
                    tally: &tally,
                    windowed,
                    folded: Vec::new(),
                };
                let sched = BatchScheduler::new(workers);
                sched.run_two_phase(&mut ops, n).unwrap();
                let what = format!("{workers} workers, windowed {windowed}");
                assert_eq!(ops.folded, (0..n).collect::<Vec<_>>(), "{what}");
                assert_eq!(tally.live.load(Ordering::Relaxed), 0, "{what}");
                let peak = tally.peak.load(Ordering::Relaxed);
                let bound = if windowed {
                    workers * WINDOW_PER_WORKER
                } else {
                    n
                };
                assert_eq!(peak, bound, "{what}");
            }
        }
    }

    #[test]
    fn a_windowed_batch_records_each_phase_timer_once() {
        let reg = MetricsRegistry::new();
        let sched = BatchScheduler::new(1).with_metrics(&reg);
        let tally = Tally::default();
        let mut ops = Counted {
            tally: &tally,
            windowed: true,
            folded: Vec::new(),
        };
        let n = 3 * WINDOW_PER_WORKER;
        let begun = Instant::now();
        sched.run_two_phase(&mut ops, n).unwrap();
        let wall = begun.elapsed().as_nanos() as u64;
        assert_eq!(tally.peak.load(Ordering::Relaxed), WINDOW_PER_WORKER);
        let snap = reg.snapshot();
        let hist = |name: &str| snap.histograms[name].clone();
        let (fast, fold) = (hist("sched.fast_phase_ns"), hist("sched.slow_phase_ns"));
        assert_eq!((fast.count, fold.count), (1, 1));
        assert_eq!(hist("sched.queue_wait_ns").count, 1);
        assert!(fast.sum + fold.sum <= wall, "{fast:?} {fold:?} {wall}");
        assert_eq!(snap.counters["sched.chunks"], 3 * CHUNKS_PER_WORKER as u64);
        assert_eq!(snap.counters["sched.verdict.reroute"], 2);
    }

    #[test]
    fn chunk_stealing_covers_every_index_exactly_once() {
        let sched = BatchScheduler::new(8);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        sched
            .try_map(257, |i| hits[i].fetch_add(1, Ordering::Relaxed))
            .unwrap();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }
}
