//! End-to-end join acceptance: a UQL `JOIN` self-join on `AngDist` must be
//! *indistinguishable* from the hand-built Q2 pipeline (materialized
//! `cross_join` + the batch executor).

use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::filtering::Predicate;
use udf_core::sched::BatchScheduler;
use udf_join::warmup_indices;
use udf_lang::{run_uql, Context, JoinRowsOutput, QueryOutput};
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, Tuple, UdfCall, Value};
use udf_workloads::UdfCatalog;

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

fn ctx_with_sky(n: usize) -> Context {
    let mut ctx = Context::standard();
    ctx.register_relation("sky", galaxies(n));
    ctx
}

const LO: f64 = 0.3;
const HI: f64 = 0.36;
const THETA: f64 = 0.5;

fn uql_join(n: usize, strategy: &str, workers: usize, seed: u64) -> JoinRowsOutput {
    let ctx = ctx_with_sky(n);
    let q = format!(
        "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 FROM sky a JOIN sky b \
         ON a.objID < b.objID WHERE PR(AngDist(a.z, b.z) IN [{LO}, {HI}]) >= {THETA} \
         USING {strategy} WORKERS {workers} SEED {seed}",
    );
    match run_uql(&q, &ctx).unwrap() {
        QueryOutput::Join(out) => out,
        other => panic!("join query must return join rows, got {other:?}"),
    }
}

/// The hand-built Q2 pipeline: `cross_join` + `Executor` batch calls over
/// the materialized pair relation, sharing nothing with the UQL path but
/// the catalog entry it binds (GP runs the documented warmup/main round
/// split; MC is a single batch).
fn hand_built(n: usize, strategy: EvalStrategy, workers: usize, seed: u64) -> Vec<ProjectedTuple> {
    let cat = UdfCatalog::standard();
    let entry = cat.get("AngDist").unwrap();
    let g = galaxies(n);
    let pairs = g.cross_join("a", &g, "b", |i, j| i < j).unwrap();
    let call = UdfCall::resolve(entry.udf.clone(), pairs.schema(), &["a.z", "b.z"]).unwrap();
    let accuracy =
        AccuracyRequirement::new(0.2, 0.05, entry.default_lambda(), Metric::Discrepancy).unwrap();
    let pred = Predicate::new(LO, HI, THETA).unwrap();
    let mut ex = Executor::new(strategy, accuracy, &call, entry.output_range).unwrap();
    let sched = BatchScheduler::new(workers);
    let inputs = call.indexed_inputs(&pairs).unwrap();
    let mut rows = Vec::new();
    match strategy {
        EvalStrategy::Mc => {
            rows = ex.select_batch(&pairs, &call, &pred, &sched, seed).unwrap();
        }
        EvalStrategy::Gp => {
            let warm = warmup_indices(inputs.len());
            let (a, b): (Vec<_>, Vec<_>) = inputs
                .into_iter()
                .partition(|(k, _)| warm.binary_search(k).is_ok());
            rows.extend(ex.sequential_indexed(&a, Some(&pred), seed).unwrap().0);
            let (r, _) = ex.batch_indexed(&b, Some(&pred), &sched, seed).unwrap();
            rows.extend(r);
            rows.sort_by_key(|r| r.source);
        }
    }
    rows
}

/// UQL `JOIN` ≡ hand-built Q2 pipeline, MC and GP, workers 1/2/8 (the
/// acceptance criterion), tuple-for-tuple bit-identical.
#[test]
fn uql_join_matches_hand_built_q2_pipeline() {
    let n = 12; // 66 ordered pairs
    for (kw, strategy) in [("mc", EvalStrategy::Mc), ("gp", EvalStrategy::Gp)] {
        for workers in [1usize, 2, 8] {
            let uql = uql_join(n, kw, workers, 7);
            let hand = hand_built(n, strategy, workers, 7);
            let label = format!("{kw}/workers={workers}");
            assert_eq!(uql.rows.len(), hand.len(), "{label}: row counts");
            assert!(
                !uql.rows.is_empty() && uql.rows.len() < 66,
                "{label}: should keep some but not all pairs"
            );
            for (a, b) in uql.rows.iter().zip(&hand) {
                assert_eq!(a.pair, b.source, "{label}: pair index");
                assert!(a.left < a.right, "{label}: ON filter must hold");
                assert_eq!(a.tep.to_bits(), b.tep.to_bits(), "{label}: pair {}", a.pair);
                assert_eq!(
                    a.output.error_bound.to_bits(),
                    b.output.error_bound.to_bits(),
                    "{label}: pair {}",
                    a.pair
                );
                assert_eq!(
                    a.output.ecdf, b.output.ecdf,
                    "{label}: pair {} distribution",
                    a.pair
                );
            }
            assert_eq!(uql.stats.tuples_in, 66, "{label}");
        }
    }
}

/// A GP join is output-blind to the metrics switch: recording vs.
/// disabled registries keep every kept pair bit-identical, and the same
/// counts.
#[test]
fn metrics_switch_never_perturbs_join_outputs() {
    let run = |enabled: bool| {
        let ctx = ctx_with_sky(24);
        ctx.metrics().set_enabled(enabled);
        let q = format!(
            "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 FROM sky a JOIN sky b \
             ON a.objID < b.objID WHERE PR(AngDist(a.z, b.z) IN [{LO}, {HI}]) >= {THETA} \
             USING gp WORKERS 2 SEED 9"
        );
        match run_uql(&q, &ctx).unwrap() {
            QueryOutput::Join(out) => out,
            other => panic!("join rows expected, got {other:?}"),
        }
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on.rows.len(), off.rows.len());
    for (a, b) in on.rows.iter().zip(&off.rows) {
        assert_eq!(a.pair, b.pair);
        assert_eq!(a.tep.to_bits(), b.tep.to_bits(), "pair {}", a.pair);
        assert_eq!(a.output.ecdf, b.output.ecdf, "pair {}", a.pair);
    }
    assert_eq!(on.stats, off.stats);
}

/// EXPLAIN ANALYZE on a join reports the JoinExec timing line with the
/// pair counters and the join-phase histograms.
#[test]
fn explain_analyze_reports_join_counters() {
    let ctx = ctx_with_sky(24);
    let QueryOutput::Plan(report) = run_uql(
        "EXPLAIN ANALYZE SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 \
         FROM sky a JOIN sky b ON a.objID < b.objID \
         WHERE PR(AngDist(a.z, b.z) IN [0.3, 0.36]) >= 0.5 \
         USING gp WORKERS 2 SEED 9",
        &ctx,
    )
    .unwrap() else {
        panic!("ANALYZE returns the annotated plan")
    };
    assert!(
        report.contains("JoinExec sky a JOIN sky b udf=AngDist strategy=Gp workers=2 seed=9\n"),
        "plan shown:\n{report}"
    );
    assert!(
        report.contains("JoinExec: time="),
        "operator timing:\n{report}"
    );
    for key in ["in=276 ", "cap_hits="] {
        assert!(report.contains(key), "{key} counter:\n{report}");
    }
    assert!(report.contains("join.warmup_ns"), "phase hist:\n{report}");
    assert!(report.contains("join.main_ns"), "phase hist:\n{report}");
    // Every pair the fast phase filtered was ruled out before its bound
    // stage (the rest of the skips are the warmup round's tuning loops).
    let counters = ctx.metrics().snapshot().counters;
    let (filtered, skipped) = (
        counters["sched.verdict.filter"],
        counters["olgapro.bounds_skipped"],
    );
    assert!(filtered > 0 && skipped >= filtered, "{filtered} {skipped}");
    assert!(report.contains(&format!("olgapro.bounds_skipped = {skipped}\n")));
}

/// EXPLAIN renders the physical JoinExec binding: the `ON` filter and the
/// predicate ruled inside the join.
#[test]
fn explain_renders_join_pushdown() {
    let ctx = ctx_with_sky(8);
    let QueryOutput::Plan(plan) = run_uql(
        "EXPLAIN SELECT AngDist(a.z, b.z) FROM sky a JOIN sky b ON a.objID < b.objID \
         WHERE PR(AngDist(a.z, b.z) IN [0.3, 0.36]) >= 0.5 USING gp",
        &ctx,
    )
    .unwrap() else {
        panic!("EXPLAIN returns a plan")
    };
    assert!(
        plan.contains("  JoinExec sky a JOIN sky b udf=AngDist strategy=Gp workers=1 seed=0\n"),
        "physical join:\n{plan}"
    );
    assert!(plan.contains("    on: a.objID < b.objID\n"), "on:\n{plan}");
    assert!(
        plan.contains("— GP fast-path filter (§5.5)\n"),
        "predicate route:\n{plan}"
    );
}
