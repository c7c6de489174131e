//! The batch-parallel executor's contract: for a fixed seed the rows are
//! byte-identical for worker counts 1, 2, and 8, and — because tuple `i`
//! always sees an RNG seeded `mix_seed(seed, 0, i)` and model-mutating work
//! folds in tuple order — identical to evaluating the tuples sequentially
//! with the same per-tuple seeds, on both an MC and a GP workload.

use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::filtering::{mc_eval_tuple, FilterDecision, Predicate};
use udf_core::olgapro::Olgapro;
use udf_core::sched::{mix_seed, BatchScheduler};
use udf_core::udf::BlackBoxUdf;
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, Tuple, UdfCall, Value};

const SEED: u64 = 0xBA7C4;

fn rel(n: usize) -> Relation {
    let schema = Schema::new(&["objID", "z"]);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.5 + (i as f64 * 0.7) % 6.0,
                    sigma: 0.3,
                },
            ])
        })
        .collect();
    Relation::new(schema, tuples).unwrap()
}

fn acc(metric: Metric) -> AccuracyRequirement {
    AccuracyRequirement::new(0.25, 0.05, 0.02, metric).unwrap()
}

fn sin_call(r: &Relation) -> UdfCall {
    let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
    UdfCall::resolve(udf, r.schema(), &["z"]).unwrap()
}

fn assert_rows_identical(a: &[ProjectedTuple], b: &[ProjectedTuple], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: row count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.source, y.source, "{label}: row {i} source");
        assert_eq!(
            x.output.ecdf.values(),
            y.output.ecdf.values(),
            "{label}: row {i} distribution"
        );
        assert_eq!(x.tep, y.tep, "{label}: row {i} TEP");
        assert_eq!(
            x.output.udf_calls, y.output.udf_calls,
            "{label}: row {i} calls"
        );
    }
}

#[test]
fn mc_project_batch_is_worker_invariant_and_matches_sequential() {
    let r = rel(12);
    let call = sin_call(&r);
    let run = |workers: usize| {
        let mut ex = Executor::new(EvalStrategy::Mc, acc(Metric::Ks), &call, 2.0).unwrap();
        let sched = BatchScheduler::new(workers);
        ex.project_batch(&r, &call, &sched, SEED).unwrap()
    };
    let r1 = run(1);
    let r2 = run(2);
    let r8 = run(8);
    assert_rows_identical(&r1, &r2, "1 vs 2 workers");
    assert_rows_identical(&r1, &r8, "1 vs 8 workers");

    // Sequential reference: the same per-tuple seed derivation, no
    // scheduler involved at all.
    let reference: Vec<ProjectedTuple> = r
        .tuples()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let input = call.input_distribution(t).unwrap();
            let mut rng = StdRng::seed_from_u64(mix_seed(SEED, 0, i as u64));
            let FilterDecision::Kept { output, .. } =
                mc_eval_tuple(&call.udf, &input, &acc(Metric::Ks), None, &mut rng).unwrap()
            else {
                unreachable!("no predicate, nothing is dropped")
            };
            ProjectedTuple {
                source: i,
                output,
                tep: 1.0,
            }
        })
        .collect();
    assert_rows_identical(&r1, &reference, "batch vs sequential reference");
}

#[test]
fn gp_project_batch_is_worker_invariant_and_matches_sequential() {
    let r = rel(10);
    let call = sin_call(&r);
    let run = |workers: usize| {
        let mut ex = Executor::new(EvalStrategy::Gp, acc(Metric::Discrepancy), &call, 2.0).unwrap();
        let sched = BatchScheduler::new(workers);
        // Two batches over the same relation: the first exercises bootstrap
        // and slow-path model growth, the second is mostly fast-path.
        let cold = ex.project_batch(&r, &call, &sched, SEED).unwrap();
        let warm = ex.project_batch(&r, &call, &sched, SEED + 1).unwrap();
        (cold, warm, ex.stats())
    };
    let (c1, w1, s1) = run(1);
    let (c2, w2, s2) = run(2);
    let (c8, w8, s8) = run(8);
    assert_rows_identical(&c1, &c2, "cold, 1 vs 2 workers");
    assert_rows_identical(&c1, &c8, "cold, 1 vs 8 workers");
    assert_rows_identical(&w1, &w2, "warm, 1 vs 2 workers");
    assert_rows_identical(&w1, &w8, "warm, 1 vs 8 workers");
    assert_eq!(s1, s2, "stats, 1 vs 2 workers");
    assert_eq!(s1, s8, "stats, 1 vs 8 workers");

    // Sequential reference: a fresh OLGAPRO processed tuple-by-tuple in
    // order with the same per-tuple seeds. During the cold batch, batch
    // mode legitimately diverges from tuple-at-a-time evaluation — accepted
    // fast-path rows are inferred against the *batch-start* model, while a
    // sequential loop sees every earlier tuple's tuning — but the model
    // *mutations* coincide, so once the model is warm (no mid-batch
    // tuning), the rows must match the sequential executor tuple-for-tuple.
    let cfg = OlgaproConfig::new(acc(Metric::Discrepancy), 2.0).unwrap();
    let mut olga = Olgapro::new(call.udf.clone(), cfg);
    // Evolve the reference model through the cold batch's tuples.
    for (i, t) in r.tuples().iter().enumerate() {
        let input = call.input_distribution(t).unwrap();
        let mut rng = StdRng::seed_from_u64(mix_seed(SEED, 0, i as u64));
        olga.process(&input, &mut rng).unwrap();
    }
    let mut reference = Vec::new();
    for (i, t) in r.tuples().iter().enumerate() {
        let input = call.input_distribution(t).unwrap();
        let mut rng = StdRng::seed_from_u64(mix_seed(SEED + 1, 0, i as u64));
        let out = olga.process(&input, &mut rng).unwrap();
        assert_eq!(
            out.points_added, 0,
            "tuple {i}: warm batch must not tune (weaken the workload?)"
        );
        reference.push(ProjectedTuple {
            source: i,
            output: out.into_distribution(),
            tep: 1.0,
        });
    }
    assert_rows_identical(&w1, &reference, "warm batch vs sequential OLGAPRO");
}

#[test]
fn mc_select_batch_agrees_with_sequential_filtering() {
    let r = rel(12);
    let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
    let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
    let pred = Predicate::new(2.0, 4.5, 0.5).unwrap();
    let run = |workers: usize| {
        let mut ex = Executor::new(EvalStrategy::Mc, acc(Metric::Ks), &call, 2.0).unwrap();
        let sched = BatchScheduler::new(workers);
        ex.select_batch(&r, &call, &pred, &sched, SEED).unwrap()
    };
    let r1 = run(1);
    let r8 = run(8);
    assert_rows_identical(&r1, &r8, "1 vs 8 workers");
    assert!(!r1.is_empty(), "predicate too strict: nothing kept");
    assert!(r1.len() < 12, "predicate not selective: everything kept");

    // Sequential reference via mc_eval_tuple with the same per-tuple seeds.
    let mut reference = Vec::new();
    for (i, t) in r.tuples().iter().enumerate() {
        let input = call.input_distribution(t).unwrap();
        let mut rng = StdRng::seed_from_u64(mix_seed(SEED, 0, i as u64));
        if let FilterDecision::Kept { output, tep } =
            mc_eval_tuple(&call.udf, &input, &acc(Metric::Ks), Some(&pred), &mut rng).unwrap()
        {
            reference.push(ProjectedTuple {
                source: i,
                output,
                tep,
            });
        }
    }
    assert_rows_identical(&r1, &reference, "batch vs sequential mc_eval_tuple");
}

#[test]
fn gp_select_batch_is_worker_invariant_and_filters() {
    let r = rel(12);
    let call = sin_call(&r);
    // sin(0.8 z) lives in [-1, 1]; keep the upper half.
    let pred = Predicate::new(0.3, 1.5, 0.4).unwrap();
    let run = |workers: usize| {
        let mut ex = Executor::new(EvalStrategy::Gp, acc(Metric::Discrepancy), &call, 2.0).unwrap();
        let sched = BatchScheduler::new(workers);
        let cold = ex.select_batch(&r, &call, &pred, &sched, SEED).unwrap();
        let warm = ex.select_batch(&r, &call, &pred, &sched, SEED + 1).unwrap();
        (cold, warm)
    };
    let (c1, w1) = run(1);
    let (c2, w2) = run(2);
    let (c8, w8) = run(8);
    assert_rows_identical(&c1, &c2, "cold, 1 vs 2 workers");
    assert_rows_identical(&c1, &c8, "cold, 1 vs 8 workers");
    assert_rows_identical(&w1, &w2, "warm, 1 vs 2 workers");
    assert_rows_identical(&w1, &w8, "warm, 1 vs 8 workers");
    assert!(!w1.is_empty(), "predicate too strict: nothing kept");
    assert!(w1.len() < 12, "predicate not selective: everything kept");
    for row in &w1 {
        assert!(
            row.tep >= 0.2,
            "kept row {} with TEP {}",
            row.source,
            row.tep
        );
    }
}
