//! Join acceptance: the executor must be *indistinguishable* from the
//! hand-built Q2 construction over the materialized cross product.

use udf_core::batch::BatchCounts;
use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::filtering::Predicate;
use udf_core::sched::BatchScheduler;
use udf_core::CoreError;
use udf_join::{warmup_indices, JoinExecutor, JoinSpec, JoinedPair, Side};
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, Tuple, UdfCall, Value};
use udf_workloads::UdfCatalog;

/// The galaxy table both sides join: deterministic objID keys (= tuple
/// index) and Gaussian-uncertain redshifts over the catalog regime.
fn galaxies(n: usize) -> Relation {
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.1 + 1.7 * i as f64 / n as f64,
                    sigma: 0.02,
                },
            ])
        })
        .collect();
    Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap()
}

fn angdist_spec(g: &Relation, strategy: EvalStrategy, seed: u64) -> (JoinSpec<'_>, Predicate) {
    let cat = UdfCatalog::standard();
    let entry = cat.get("AngDist").unwrap();
    let accuracy =
        AccuracyRequirement::new(0.2, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let pred = Predicate::new(0.3, 0.36, 0.5).unwrap();
    let spec = JoinSpec::new(
        g,
        "a",
        g,
        "b",
        entry.udf.clone(),
        &[(Side::Left, "z"), (Side::Right, "z")],
        accuracy,
        entry.output_range,
    )
    .unwrap()
    .on_less_than((Side::Left, "objID"), (Side::Right, "objID"))
    .unwrap()
    .predicate(pred)
    .strategy(strategy)
    .seed(seed);
    (spec, pred)
}

/// The hand-built Q2 construction the executor must reproduce exactly:
/// materialized `cross_join` + the public batch APIs of `udf_query`, with
/// the GP warmup/main round split documented by [`warmup_indices`].
fn hand_built(
    g: &Relation,
    strategy: EvalStrategy,
    pred: &Predicate,
    workers: usize,
    seed: u64,
) -> Vec<ProjectedTuple> {
    let cat = UdfCatalog::standard();
    let entry = cat.get("AngDist").unwrap();
    let pairs = g.cross_join("a", g, "b", |i, j| i < j).unwrap();
    let call = UdfCall::resolve(entry.udf.clone(), pairs.schema(), &["a.z", "b.z"]).unwrap();
    let accuracy =
        AccuracyRequirement::new(0.2, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let mut ex = Executor::new(strategy, accuracy, &call, entry.output_range).unwrap();
    let sched = BatchScheduler::new(workers);
    let inputs = call.indexed_inputs(&pairs).unwrap();
    let mut rows = Vec::new();
    match strategy {
        EvalStrategy::Mc => {
            let (r, _) = ex.batch_indexed(&inputs, Some(pred), &sched, seed).unwrap();
            rows.extend(r);
        }
        EvalStrategy::Gp => {
            // Sequential full-path warmup over the strided subset, then
            // one two-phase batch over the remainder.
            let warm = warmup_indices(inputs.len());
            let (a, b): (Vec<_>, Vec<_>) = inputs
                .into_iter()
                .partition(|(k, _)| warm.binary_search(k).is_ok());
            rows.extend(ex.sequential_indexed(&a, Some(pred), seed).unwrap().0);
            let (r, _) = ex.batch_indexed(&b, Some(pred), &sched, seed).unwrap();
            rows.extend(r);
        }
    }
    rows.sort_by_key(|r| r.source);
    rows
}

/// Every candidate pair is filtered or kept — exactly one of the two —
/// and settled on exactly one path.
fn assert_adds_up(c: &BatchCounts, label: &str) {
    assert_eq!(
        c.tuples_in,
        c.filtered + c.kept,
        "{label}: in ≠ filtered + kept: {c:?}"
    );
    assert_eq!(
        c.fast + c.slow,
        c.tuples_in,
        "{label}: a pair was settled twice or not at all: {c:?}"
    );
}

fn assert_rows_identical(join: &[JoinedPair], hand: &[ProjectedTuple], label: &str) {
    assert_eq!(join.len(), hand.len(), "{label}: row counts differ");
    for (a, b) in join.iter().zip(hand) {
        assert_eq!(a.pair, b.source, "{label}: pair index");
        assert_eq!(
            a.tep.to_bits(),
            b.tep.to_bits(),
            "{label}: pair {} TEP",
            a.pair
        );
        assert_eq!(
            a.output.error_bound.to_bits(),
            b.output.error_bound.to_bits(),
            "{label}: pair {} error bound",
            a.pair
        );
        assert_eq!(
            a.output.ecdf, b.output.ecdf,
            "{label}: pair {} distribution",
            a.pair
        );
    }
}

/// JoinExecutor ≡ hand-built cross_join + batch executor, MC and GP, for
/// workers 1/2/8 (the acceptance criterion).
#[test]
fn join_matches_hand_built_q2_construction() {
    let g = galaxies(12); // 66 ordered pairs
    for strategy in [EvalStrategy::Mc, EvalStrategy::Gp] {
        for workers in [1usize, 2, 8] {
            let (spec, pred) = angdist_spec(&g, strategy, 7);
            let sched = BatchScheduler::new(workers);
            let out = JoinExecutor::new(&spec).unwrap().run(&sched).unwrap();
            let hand = hand_built(&g, strategy, &pred, workers, 7);
            let label = format!("{strategy:?}/workers={workers}");
            assert!(
                !out.rows.is_empty() && (out.rows.len() as u64) < out.stats.tuples_in,
                "{label}: selection should keep some but not all pairs, kept {}",
                out.rows.len()
            );
            assert_rows_identical(&out.rows, &hand, &label);
            assert_adds_up(&out.stats, &label);
            assert_eq!(out.stats.tuples_in, 66, "{label}");
            // Each kept pair names the source tuples of its cross_join row.
            let coords = g.pairs(&g, |i, j| i < j).unwrap();
            for row in &out.rows {
                assert_eq!((row.left, row.right), coords[row.pair], "{label}");
            }
        }
    }
}

/// The join's counts add up for MC and GP. At this seed two main-round pairs
/// reroute and are then dropped by the slow path's own filter — the drops
/// the GP join used to leave uncounted (it reported 274 of 276 pairs).
#[test]
fn join_stats_add_up() {
    let g = galaxies(24);
    let sched = BatchScheduler::new(2);
    for strategy in [EvalStrategy::Mc, EvalStrategy::Gp] {
        let (spec, _) = angdist_spec(&g, strategy, 4);
        let stats = JoinExecutor::new(&spec).unwrap().run(&sched).unwrap().stats;
        assert_adds_up(&stats, &format!("{strategy:?}"));
        assert_eq!(stats.tuples_in, 276, "{strategy:?}");
    }
}

/// MC joins over the same spec agree with cross_join + select_batch (the
/// original single-batch construction — MC has no warmup).
#[test]
fn mc_join_has_no_warmup_rounds() {
    let g = galaxies(10);
    let (spec, pred) = angdist_spec(&g, EvalStrategy::Mc, 3);
    let sched = BatchScheduler::new(2);
    let out = JoinExecutor::new(&spec).unwrap().run(&sched).unwrap();

    let cat = UdfCatalog::standard();
    let entry = cat.get("AngDist").unwrap();
    let pairs = g.cross_join("a", &g, "b", |i, j| i < j).unwrap();
    let call = UdfCall::resolve(entry.udf.clone(), pairs.schema(), &["a.z", "b.z"]).unwrap();
    let accuracy =
        AccuracyRequirement::new(0.2, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let mut ex = Executor::new(EvalStrategy::Mc, accuracy, &call, entry.output_range).unwrap();
    let hand = ex.select_batch(&pairs, &call, &pred, &sched, 3).unwrap();
    assert_rows_identical(&out.rows, &hand, "mc single batch");
}

/// Pair pruning was removed: a spec that still asks for it is refused,
/// on either strategy, before any work.
#[test]
fn pruning_spec_is_refused() {
    let g = galaxies(4);
    for strategy in [EvalStrategy::Mc, EvalStrategy::Gp] {
        let (spec, _) = angdist_spec(&g, strategy, 1);
        let spec = spec.prune(true);
        assert!(
            matches!(
                JoinExecutor::new(&spec),
                Err(CoreError::InvalidJoin(m)) if m.contains("pruning was removed")
            ),
            "{strategy:?}"
        );
    }
}

/// Spec validation: an accuracy past the per-pair sample limit is refused
/// before any work.
#[test]
fn invalid_specs_are_refused() {
    let g = galaxies(4);
    let cat = UdfCatalog::standard();
    let entry = cat.get("AngDist").unwrap();

    // A valid accuracy asking ~10¹⁵ samples of each pair is an error, not
    // an allocation that takes the process down.
    let tiny = AccuracyRequirement::new(1e-7, 0.05, 0.0, Metric::Ks).unwrap();
    for strategy in [EvalStrategy::Mc, EvalStrategy::Gp] {
        let args = [(Side::Left, "z"), (Side::Right, "z")];
        let spec = JoinSpec::new(&g, "a", &g, "b", entry.udf.clone(), &args, tiny, 1.0)
            .unwrap()
            .strategy(strategy);
        let err = JoinExecutor::new(&spec)
            .and_then(|mut ex| ex.run(&BatchScheduler::new(1)))
            .unwrap_err();
        assert!(
            err.to_string().contains("samples per tuple"),
            "{strategy:?}: {err}"
        );
    }
}

/// A side of 65,537 rows self-joins to more than `u32::MAX` candidate
/// pairs: the run is refused before any pair is enumerated.
#[test]
fn oversized_join_is_refused() {
    let g = galaxies(65_537);
    let (spec, _) = angdist_spec(&g, EvalStrategy::Gp, 1);
    let err = JoinExecutor::new(&spec)
        .unwrap()
        .run(&BatchScheduler::new(1))
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::JoinTooLarge {
                left: 65_537,
                right: 65_537
            }
        ),
        "{err}"
    );
}

/// A projection join (no WHERE) emits every candidate pair with TEP 1.
#[test]
fn projection_join_keeps_every_pair() {
    let g = galaxies(6);
    let cat = UdfCatalog::standard();
    let entry = cat.get("AngDist").unwrap();
    let accuracy =
        AccuracyRequirement::new(0.25, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let spec = JoinSpec::new(
        &g,
        "a",
        &g,
        "b",
        entry.udf.clone(),
        &[(Side::Left, "z"), (Side::Right, "z")],
        accuracy,
        entry.output_range,
    )
    .unwrap()
    .on_less_than((Side::Left, "objID"), (Side::Right, "objID"))
    .unwrap()
    .strategy(EvalStrategy::Gp)
    .seed(5);
    let sched = BatchScheduler::new(2);
    let out = JoinExecutor::new(&spec).unwrap().run(&sched).unwrap();
    assert_eq!(out.rows.len(), 15);
    assert!(out.rows.iter().all(|r| r.tep == 1.0));
    assert_eq!(out.stats.kept, 15);
}
