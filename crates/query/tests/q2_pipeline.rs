//! End-to-end Q2-style pipeline tests: self-join → UDF selection → UDF
//! projection, under both evaluation strategies.

use udf_core::config::{AccuracyRequirement, Metric};
use udf_core::filtering::Predicate;
use udf_core::udf::BlackBoxUdf;
use udf_query::{EvalStrategy, Executor, ProjectedTuple, Relation, Schema, Tuple, UdfCall, Value};

/// The whole relation through the executor's sequential full path (each
/// tuple tunes the model before the next is judged), tuple `i` under
/// `mix_seed(seed, 0, i)`.
fn sequential(
    ex: &mut Executor,
    rel: &Relation,
    call: &UdfCall,
    pred: Option<&Predicate>,
    seed: u64,
) -> Vec<ProjectedTuple> {
    let inputs = call.indexed_inputs(rel).unwrap();
    ex.sequential_indexed(&inputs, pred, seed).unwrap().0
}

fn galaxies(n: usize) -> Relation {
    let schema = Schema::new(&["objID", "redshift"]);
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: 0.2 + 0.25 * i as f64,
                    sigma: 0.02,
                },
            ])
        })
        .collect();
    Relation::new(schema, tuples).unwrap()
}

fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.15, 0.05, 0.01, Metric::Discrepancy).unwrap()
}

/// |z1 - z2| as a cheap stand-in for a distance UDF.
fn zdist() -> BlackBoxUdf {
    BlackBoxUdf::from_fn("zdist", 2, |x| (x[0] - x[1]).abs())
}

#[test]
fn self_join_selection_keeps_expected_pairs() {
    let g = galaxies(6); // redshifts 0.2, 0.45, ..., 1.45
    let pairs = g.cross_join("g1", &g, "g2", |i, j| i < j).unwrap();
    assert_eq!(pairs.len(), 15);
    let call = UdfCall::resolve(zdist(), pairs.schema(), &["g1.redshift", "g2.redshift"]).unwrap();
    // Keep pairs with |Δz| ∈ [0.2, 0.3]: exactly the adjacent pairs (Δ=0.25).
    let pred = Predicate::new(0.2, 0.3, 0.5).unwrap();
    for strategy in [EvalStrategy::Mc, EvalStrategy::Gp] {
        let mut ex = Executor::new(strategy, acc(), &call, 1.5).unwrap();
        let rows = sequential(&mut ex, &pairs, &call, Some(&pred), 1);
        // 5 adjacent pairs out of 15.
        assert_eq!(
            rows.len(),
            5,
            "{strategy:?}: kept {:?}",
            rows.iter().map(|r| r.source).collect::<Vec<_>>()
        );
        for r in &rows {
            assert!(r.tep > 0.8, "{strategy:?}: adjacent pair TEP {}", r.tep);
        }
    }
}

#[test]
fn projection_after_selection_composes() {
    let g = galaxies(5);
    let pairs = g.cross_join("a", &g, "b", |i, j| i < j).unwrap();
    let call = UdfCall::resolve(zdist(), pairs.schema(), &["a.redshift", "b.redshift"]).unwrap();
    let pred = Predicate::new(0.4, 2.0, 0.5).unwrap();
    let mut ex = Executor::new(EvalStrategy::Mc, acc(), &call, 1.5).unwrap();
    let kept = sequential(&mut ex, &pairs, &call, Some(&pred), 2);
    assert!(!kept.is_empty());

    // Re-project a second UDF (sum of redshifts) over survivors.
    let survivors = Relation::new(
        pairs.schema().clone(),
        kept.iter()
            .map(|r| pairs.tuples()[r.source].clone())
            .collect(),
    )
    .unwrap();
    let zsum = BlackBoxUdf::from_fn("zsum", 2, |x| x[0] + x[1]);
    let call2 = UdfCall::resolve(zsum, survivors.schema(), &["a.redshift", "b.redshift"]).unwrap();
    let mut ex2 = Executor::new(EvalStrategy::Mc, acc(), &call2, 3.0).unwrap();
    let rows = sequential(&mut ex2, &survivors, &call2, None, 2);
    assert_eq!(rows.len(), survivors.len());
    for (row, t) in rows.iter().zip(survivors.tuples()) {
        let expect = t.value(1).mean() + t.value(3).mean();
        let got = row.output.ecdf.quantile(0.5);
        assert!((got - expect).abs() < 0.05, "median {got} vs {expect}");
    }
}

#[test]
fn deterministic_and_uncertain_columns_mix_in_one_udf() {
    // UDF over (objID, redshift): deterministic column must behave as a
    // point mass inside the joint input.
    let g = galaxies(3);
    let udf = BlackBoxUdf::from_fn("mix", 2, |x| x[0] * 10.0 + x[1]);
    let call = UdfCall::resolve(udf, g.schema(), &["objID", "redshift"]).unwrap();
    let mut ex = Executor::new(EvalStrategy::Mc, acc(), &call, 30.0).unwrap();
    let rows = sequential(&mut ex, &g, &call, None, 3);
    for (i, row) in rows.iter().enumerate() {
        let expect = i as f64 * 10.0 + (0.2 + 0.25 * i as f64);
        let got = row.output.ecdf.quantile(0.5);
        assert!((got - expect).abs() < 0.05, "row {i}: {got} vs {expect}");
        // Spread comes only from the redshift's σ = 0.02.
        let spread = row.output.ecdf.quantile(0.975) - row.output.ecdf.quantile(0.025);
        assert!(spread < 0.02 * 4.5, "spread {spread}");
    }
}

#[test]
fn gp_strategy_amortizes_across_join_pairs() {
    let g = galaxies(6);
    let pairs = g.cross_join("a", &g, "b", |i, j| i < j).unwrap();
    let call = UdfCall::resolve(zdist(), pairs.schema(), &["a.redshift", "b.redshift"]).unwrap();
    let mut ex = Executor::new(EvalStrategy::Gp, acc(), &call, 1.5).unwrap();
    let rows = sequential(&mut ex, &pairs, &call, None, 4);
    assert_eq!(rows.len(), 15);
    let mc_equiv = acc().mc_samples() as u64 * 15;
    assert!(
        ex.stats().udf_calls < mc_equiv / 5,
        "GP used {} UDF calls; MC would use {mc_equiv}",
        ex.stats().udf_calls
    );
}
