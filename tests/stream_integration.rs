//! Cross-layer agreement: the streaming engine's online filter must make
//! the same keep/drop decisions as the sequential relational `Executor`
//! running the same Q2-style selection with the MC baseline.
//!
//! The test relation uses well-separated clusters (TEP ≈ 0 or ≈ 1) so the
//! decision is statistically forced for both systems: any disagreement is
//! an engine bug, not sampling noise.

use udf_uncertain::prelude::*;

fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.2, 0.05, 0.0, Metric::Ks).unwrap()
}

/// Cluster means: even tuples sit far below the predicate window, odd
/// tuples inside it.
fn cluster_mu(i: usize) -> f64 {
    if i.is_multiple_of(2) {
        0.0
    } else {
        5.0
    }
}

#[test]
fn stream_filter_decisions_agree_with_executor_mc_baseline() {
    let n = 64usize;
    let pred = Predicate::new(4.0, 6.0, 0.5).unwrap();

    // --- Sequential baseline: the executor's full path over a finite
    // relation. ---
    let schema = Schema::new(&["objID", "z"]);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: cluster_mu(i),
                    sigma: 0.1,
                },
            ])
        })
        .collect();
    let rel = Relation::new(schema, tuples).unwrap();
    let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
    let call = UdfCall::resolve(udf.clone(), rel.schema(), &["z"]).unwrap();
    let mut executor = Executor::new(EvalStrategy::Mc, acc(), &call, 10.0).unwrap();
    let inputs = call.indexed_inputs(&rel).unwrap();
    let (rows, _) = executor
        .sequential_indexed(&inputs, Some(&pred), 17)
        .unwrap();
    let executor_kept: Vec<usize> = rows.iter().map(|r| r.source).collect();

    // --- Streaming engine: same tuples, same predicate, MC strategy. ---
    let stream_tuples: Vec<InputDistribution> = (0..n)
        .map(|i| InputDistribution::diagonal_gaussian(&[(cluster_mu(i), 0.1)]).unwrap())
        .collect();
    let mut session = Session::new(EngineConfig::new().workers(2).batch_size(16).seed(23));
    let q = session
        .subscribe(
            QuerySpec::new("sel", udf, acc(), StreamStrategy::Mc)
                .predicate(pred)
                .retain(n),
        )
        .unwrap();
    session.run(VecSource::new(stream_tuples), None).unwrap();

    // A ring as long as the stream holds every kept tuple, in order.
    let stream_kept: Vec<usize> = session
        .recent(q)
        .unwrap()
        .iter()
        .map(|k| k.tuple as usize)
        .collect();

    assert_eq!(
        stream_kept, executor_kept,
        "stream engine and sequential executor disagree on kept tuples"
    );
    // And both must match the ground truth: exactly the odd tuples.
    let want: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();
    assert_eq!(stream_kept, want);

    // Stats agree with the kept tuples.
    let stats = session.stats(q).unwrap();
    assert_eq!(stats.kept as usize, want.len());
    assert_eq!(stats.filtered as usize, n - want.len());
    assert_eq!(
        executor.stats().kept as usize,
        want.len(),
        "executor baseline emitted an unexpected row count"
    );
}

#[test]
fn stream_gp_selection_agrees_with_executor_on_forced_decisions() {
    // GP path: impossible predicate (outside the UDF's range) must filter
    // everything in both systems; a covering predicate must keep all.
    let n = 24usize;
    let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
    let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();

    let schema = Schema::new(&["objID", "z"]);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 1.0 + 0.2 * i as f64,
                    sigma: 0.2,
                },
            ])
        })
        .collect();
    let rel = Relation::new(schema, tuples).unwrap();
    let call = UdfCall::resolve(udf.clone(), rel.schema(), &["z"]).unwrap();

    let impossible = Predicate::new(5.0, 6.0, 0.1).unwrap();
    let covering = Predicate::new(-2.0, 2.0, 0.5).unwrap();

    let inputs = call.indexed_inputs(&rel).unwrap();
    let mut ex1 = Executor::new(EvalStrategy::Gp, acc, &call, 2.0).unwrap();
    let (rows, _) = ex1
        .sequential_indexed(&inputs, Some(&impossible), 31)
        .unwrap();
    assert!(rows.is_empty());
    let mut ex2 = Executor::new(EvalStrategy::Gp, acc, &call, 2.0).unwrap();
    let (rows, _) = ex2
        .sequential_indexed(&inputs, Some(&covering), 31)
        .unwrap();
    assert_eq!(rows.len(), n);

    let make_tuples = || -> Vec<InputDistribution> {
        (0..n)
            .map(|i| InputDistribution::diagonal_gaussian(&[(1.0 + 0.2 * i as f64, 0.2)]).unwrap())
            .collect()
    };
    for (pred, want_kept) in [(impossible, 0u64), (covering, n as u64)] {
        let mut session = Session::new(EngineConfig::new().workers(4).batch_size(8).seed(3));
        let q = session
            .subscribe(
                QuerySpec::new("gp-sel", udf.clone(), acc, StreamStrategy::Gp)
                    .output_range(2.0)
                    .predicate(pred),
            )
            .unwrap();
        session.run(VecSource::new(make_tuples()), None).unwrap();
        let stats = session.stats(q).unwrap();
        assert_eq!(stats.kept, want_kept, "predicate {pred:?}");
    }
}
