//! Cross-crate integration tests: the full pipeline from uncertain relations
//! through OLGAPRO to filtered query results, validated against
//! ground-truth Monte Carlo at scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_uncertain::prelude::*;
use udf_workloads::astro::{Cosmology, GalAge, GalaxyCatalog};
use udf_workloads::synthetic::{generate_inputs, PaperFunction};

fn accuracy(eps: f64) -> AccuracyRequirement {
    AccuracyRequirement::new(eps, 0.05, 0.02, Metric::Discrepancy).unwrap()
}

/// The headline guarantee, for every paper function:
///
/// 1. the reported error bound dominates the realized λ-discrepancy against
///    a huge direct-MC reference (bound honesty, Theorem 4.1), and
/// 2. once OLGAPRO reports a bound within ε, the realized error is within ε.
///
/// The spiky functions legitimately need many training points (the paper's
/// Fig 5(a) shows F4 needing > 300), so the stream is replayed until a full
/// pass adds no training points ("at convergence", §5.4), with λ = 5% of
/// the range to keep test time moderate.
#[test]
fn olgapro_meets_accuracy_on_all_paper_functions() {
    for pf in PaperFunction::ALL {
        let f = pf.instantiate(1);
        let range = f.output_range();
        let eps = 0.2;
        let acc = AccuracyRequirement::new(eps, 0.05, 0.05 * range, Metric::Discrepancy).unwrap();
        let cfg = OlgaproConfig::new(acc, range).unwrap();
        let udf = BlackBoxUdf::new(std::sync::Arc::new(f.clone()), CostModel::Free);
        let mut olga = Olgapro::new(udf.clone(), cfg);
        let mut rng = StdRng::seed_from_u64(42);

        let inputs = generate_inputs(1, 6, 0.5, &mut rng);
        // Replay the stream until convergence (no additions in a pass).
        for _pass in 0..12 {
            let mut added = 0;
            for input in &inputs {
                added += olga.process(input, &mut rng).unwrap().points_added;
            }
            if added == 0 {
                break;
            }
        }
        let mut converged_inputs = 0;
        for (i, input) in inputs.iter().enumerate() {
            let out = olga.process(input, &mut rng).unwrap();
            let mut truth_rng = StdRng::seed_from_u64(1000 + i as u64);
            let samples: Vec<f64> = (0..30_000)
                .map(|_| {
                    let x = input.sample(&mut truth_rng);
                    udf_core::udf::UdfFunction::eval(&f, &x)
                })
                .collect();
            let truth = Ecdf::new(samples).unwrap();
            let d = udf_prob::metrics::lambda_discrepancy(&out.y_hat, &truth, acc.lambda);
            // Bound honesty (small slack for the reference's own noise).
            assert!(
                d <= out.error_bound() + 0.05,
                "{pf:?} input {i}: realized {d} exceeds reported bound {}",
                out.error_bound()
            );
            // Guarantee once the budget is met.
            if out.error_bound() <= eps {
                converged_inputs += 1;
                assert!(
                    d <= eps + 0.02,
                    "{pf:?} input {i}: λ-discrepancy {d} exceeds ε = {eps}"
                );
            }
        }
        // Flat functions converge on essentially every input; the spiky
        // ones force a short global lengthscale and legitimately need far
        // more training data (Fig 5a/5h), so within the test's 12-pass
        // budget only a subset of their inputs reaches the ε target.
        assert!(
            converged_inputs >= (inputs.len() / 3).max(1),
            "{pf:?}: only {converged_inputs}/{} inputs converged",
            inputs.len()
        );
    }
}

/// MC and GP agree on the same query answers (medians within the combined
/// error budgets).
#[test]
fn mc_and_gp_agree_on_medians() {
    let f = PaperFunction::F3.instantiate(2);
    let range = f.output_range();
    let udf = BlackBoxUdf::new(std::sync::Arc::new(f), CostModel::Free);
    let acc = AccuracyRequirement::new(0.1, 0.05, 0.01 * range, Metric::Discrepancy).unwrap();
    let cfg = OlgaproConfig::new(acc, range).unwrap();
    let mut olga = Olgapro::new(udf.fork_counter(), cfg);
    let mut rng = StdRng::seed_from_u64(7);
    let inputs = generate_inputs(2, 5, 0.5, &mut rng);
    for input in &inputs {
        let FilterDecision::Kept { output: a, .. } =
            mc_eval_tuple(&udf, input, &acc, None, &mut rng).unwrap()
        else {
            unreachable!("no predicate, nothing is dropped")
        };
        let b = olga.process(input, &mut rng).unwrap();
        let (qa, qb) = (a.ecdf.quantile(0.5), b.y_hat.quantile(0.5));
        assert!(
            (qa - qb).abs() <= 0.2 * range,
            "medians diverge: MC {qa} vs GP {qb} (range {range})"
        );
    }
}

/// End-to-end Q1 on the astro catalog: ages decrease with redshift.
#[test]
fn q1_galage_monotone_in_redshift() {
    let mut rng = StdRng::seed_from_u64(2013);
    let catalog = GalaxyCatalog::generate(8, &mut rng);
    let cosmology = Cosmology::default();
    let schema = Schema::new(&["objID", "redshift"]);
    let mut rows: Vec<_> = catalog.rows().to_vec();
    rows.sort_by(|a, b| a.z_mean.partial_cmp(&b.z_mean).unwrap());
    let tuples: Vec<Tuple> = rows
        .iter()
        .map(|r| {
            Tuple::new(vec![
                Value::Det(r.obj_id as f64),
                Value::Gaussian {
                    mu: r.z_mean,
                    sigma: r.z_sigma,
                },
            ])
        })
        .collect();
    let galaxy = Relation::new(schema, tuples).unwrap();
    let galage = BlackBoxUdf::new(std::sync::Arc::new(GalAge(cosmology)), CostModel::Free);
    let call = UdfCall::resolve(galage, galaxy.schema(), &["redshift"]).unwrap();
    let mut ex = Executor::new(EvalStrategy::Gp, accuracy(0.1), &call, 1.0).unwrap();
    let inputs = call.indexed_inputs(&galaxy).unwrap();
    let (out, _) = ex.sequential_indexed(&inputs, None, 5).unwrap();
    // Tuples are sorted by redshift; median ages must be non-increasing
    // (modulo the accuracy budget).
    let medians: Vec<f64> = out.iter().map(|r| r.output.ecdf.quantile(0.5)).collect();
    for w in medians.windows(2) {
        assert!(
            w[1] <= w[0] + 0.05,
            "age should decrease with redshift: {medians:?}"
        );
    }
}

/// Filtering soundness at scale: tuples whose true TEP is comfortably above
/// θ are never dropped by either path.
#[test]
fn filtering_never_drops_clearly_passing_tuples() {
    let f = PaperFunction::F1.instantiate(1);
    let range = f.output_range();
    let udf = BlackBoxUdf::new(std::sync::Arc::new(f.clone()), CostModel::Free);
    let acc = AccuracyRequirement::new(0.1, 0.05, 0.01 * range, Metric::Discrepancy).unwrap();
    let pred = Predicate::new(-1.0, range * 2.0, 0.2).unwrap(); // always true
    let mut rng = StdRng::seed_from_u64(3);
    let inputs = generate_inputs(1, 5, 0.5, &mut rng);

    for input in &inputs {
        let d = mc_eval_tuple(&udf, input, &acc, Some(&pred), &mut rng).unwrap();
        assert!(!d.is_filtered(), "MC dropped a certain tuple");
    }
    let cfg = OlgaproConfig::new(acc, range).unwrap();
    let mut olga = Olgapro::new(udf.fork_counter(), cfg);
    for input in &inputs {
        let d = udf_core::filtering::gp_filtered(&mut olga, input, &pred, &mut rng).unwrap();
        assert!(!d.is_filtered(), "GP dropped a certain tuple");
    }
}

/// The Theorem 4.1 error bound reported by OLGAPRO is itself an upper bound
/// on the realized error (with the configured confidence; checked with slack).
#[test]
fn reported_bound_dominates_realized_error() {
    let f = PaperFunction::F3.instantiate(1);
    let range = f.output_range();
    let acc = AccuracyRequirement::new(0.15, 0.05, 0.01 * range, Metric::Discrepancy).unwrap();
    let cfg = OlgaproConfig::new(acc, range).unwrap();
    let udf = BlackBoxUdf::new(std::sync::Arc::new(f.clone()), CostModel::Free);
    let mut olga = Olgapro::new(udf, cfg);
    let mut rng = StdRng::seed_from_u64(11);
    let inputs = generate_inputs(1, 8, 0.5, &mut rng);
    let mut violations = 0;
    for (i, input) in inputs.iter().enumerate() {
        let out = olga.process(input, &mut rng).unwrap();
        let mut truth_rng = StdRng::seed_from_u64(500 + i as u64);
        let samples: Vec<f64> = (0..30_000)
            .map(|_| {
                let x = input.sample(&mut truth_rng);
                udf_core::udf::UdfFunction::eval(&f, &x)
            })
            .collect();
        let truth = Ecdf::new(samples).unwrap();
        let realized = udf_prob::metrics::lambda_discrepancy(&out.y_hat, &truth, acc.lambda);
        if realized > out.error_bound() {
            violations += 1;
        }
    }
    // δ = 0.05: allow at most 1 violation in 8 (generous slack for the
    // reference's own sampling noise).
    assert!(violations <= 1, "{violations}/8 bound violations");
}
