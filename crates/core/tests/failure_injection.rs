//! Failure-injection tests: misbehaving UDFs and hostile configurations
//! must surface as typed errors, never as panics, poisoned state, or
//! silently wrong distributions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::filtering::{mc_eval_tuple, FilterDecision};
use udf_core::olgapro::Olgapro;
use udf_core::udf::{BlackBoxUdf, UdfFunction};
use udf_core::CoreError;
use udf_prob::InputDistribution;

/// A UDF that returns NaN after `healthy_calls` evaluations.
struct FlakyUdf {
    healthy_calls: u64,
    calls: AtomicU64,
}

impl UdfFunction for FlakyUdf {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[f64]) -> f64 {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n >= self.healthy_calls {
            f64::NAN
        } else {
            (x[0] * 0.5).sin()
        }
    }
    fn name(&self) -> &str {
        "flaky"
    }
}

fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap()
}

#[test]
fn mc_reports_nan_with_offending_input() {
    let udf = BlackBoxUdf::new(
        Arc::new(FlakyUdf {
            healthy_calls: 5,
            calls: AtomicU64::new(0),
        }),
        udf_core::udf::CostModel::Free,
    );
    let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    // acc() asks 185 samples; the 6th call NaNs.
    match mc_eval_tuple(&udf, &input, &acc(), None, &mut rng) {
        Err(CoreError::NonFiniteUdfOutput { input, value }) => {
            assert!(value.is_nan());
            assert_eq!(input.len(), 1);
        }
        other => panic!("expected NonFiniteUdfOutput, got {other:?}"),
    }
}

#[test]
fn olgapro_reports_nan_during_tuning_and_stays_usable() {
    let udf = BlackBoxUdf::new(
        Arc::new(FlakyUdf {
            healthy_calls: 3,
            calls: AtomicU64::new(0),
        }),
        udf_core::udf::CostModel::Free,
    );
    let cfg = OlgaproConfig::new(acc(), 2.0).unwrap();
    let mut olga = Olgapro::new(udf, cfg);
    let input = InputDistribution::diagonal_gaussian(&[(2.0, 0.5)]).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    // Bootstrap needs 5 points; the 4th call NaNs.
    let err = olga.process(&input, &mut rng).unwrap_err();
    assert!(matches!(err, CoreError::NonFiniteUdfOutput { .. }));
    // The model keeps the healthy points it gathered and still predicts.
    assert!(olga.model().len() >= 2);
    assert!(olga.model().predict(&[2.0]).is_ok());
}

#[test]
fn infinite_udf_output_also_rejected() {
    let udf = BlackBoxUdf::from_fn("inf", 1, |x| 1.0 / (x[0] - x[0]).abs());
    let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    assert!(matches!(
        mc_eval_tuple(&udf, &input, &acc(), None, &mut rng),
        Err(CoreError::NonFiniteUdfOutput { .. })
    ));
}

#[test]
fn constant_udf_degenerate_output_is_handled() {
    // A constant function gives a point-mass output: the GP must converge
    // instantly and the ECDF collapse to one value.
    let udf = BlackBoxUdf::from_fn("const", 1, |_| 5.0);
    let cfg = OlgaproConfig::new(acc(), 1.0).unwrap();
    let mut olga = Olgapro::new(udf, cfg);
    let input = InputDistribution::diagonal_gaussian(&[(0.0, 1.0)]).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let out = olga.process(&input, &mut rng).unwrap();
    assert!((out.y_hat.min() - 5.0).abs() < 0.05);
    assert!((out.y_hat.max() - 5.0).abs() < 0.05);
}

#[test]
fn extreme_scale_udf_does_not_break_numerics() {
    // Outputs of magnitude 1e9: Cholesky, ECDFs and bounds must survive.
    let udf = BlackBoxUdf::from_fn("big", 1, |x| 1e9 * (x[0] * 0.3).sin());
    let acc = AccuracyRequirement::new(0.2, 0.05, 1e7, Metric::Discrepancy).unwrap();
    let cfg = OlgaproConfig::new(acc, 2e9).unwrap();
    let mut olga = Olgapro::new(udf, cfg);
    let input = InputDistribution::diagonal_gaussian(&[(3.0, 0.5)]).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..3 {
        let out = olga.process(&input, &mut rng).unwrap();
        assert!(out.y_hat.values().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn tiny_input_variance_near_deterministic() {
    // σ_I = 1e-9: the sample bounding box degenerates to ~a point.
    let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
    let cfg = OlgaproConfig::new(acc(), 2.0).unwrap();
    let mut olga = Olgapro::new(udf, cfg);
    let input = InputDistribution::diagonal_gaussian(&[(2.0, 1e-9)]).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let out = olga.process(&input, &mut rng).unwrap();
    let truth = (2.0f64 * 0.8).sin();
    assert!((out.y_hat.quantile(0.5) - truth).abs() < 0.05);
}

#[test]
fn ks_metric_pipeline_end_to_end() {
    // The KS accuracy path (Prop. 4.2) through OLGAPRO.
    let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
    let acc = AccuracyRequirement::new(0.15, 0.05, 0.0, Metric::Ks).unwrap();
    let cfg = OlgaproConfig::new(acc, 2.0).unwrap();
    let mut olga = Olgapro::new(udf.clone(), cfg);
    let input = InputDistribution::diagonal_gaussian(&[(4.0, 0.4)]).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = None;
    for _ in 0..5 {
        out = Some(olga.process(&input, &mut rng).unwrap());
    }
    let out = out.unwrap();
    // Validate against a large reference in the KS metric.
    // DKW asks exactly 40,000 samples of (ε, δ) = (0.01, 6.71·10⁻⁴).
    let reference_acc = AccuracyRequirement::new(0.01, 6.71e-4, 0.0, Metric::Ks).unwrap();
    assert_eq!(reference_acc.mc_samples(), 40_000);
    let FilterDecision::Kept {
        output: reference, ..
    } = mc_eval_tuple(&udf, &input, &reference_acc, None, &mut rng).unwrap()
    else {
        unreachable!("no predicate, nothing is dropped")
    };
    let d = udf_prob::metrics::ks(&out.y_hat, &reference.ecdf);
    assert!(d <= 0.15 + 0.02, "KS distance {d}");
}

#[test]
fn zero_probability_region_input() {
    // Input concentrated where the UDF is flat zero: output is a point mass
    // at 0 and the bound must still hold.
    let udf = BlackBoxUdf::from_fn("bump", 1, |x| {
        if (3.0..4.0).contains(&x[0]) {
            1.0
        } else {
            0.0
        }
    });
    let cfg = OlgaproConfig::new(acc(), 1.0).unwrap();
    let mut olga = Olgapro::new(udf, cfg);
    let input = InputDistribution::diagonal_gaussian(&[(-50.0, 0.1)]).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let out = olga.process(&input, &mut rng).unwrap();
    assert!(out.y_hat.max().abs() < 0.2);
}

/// A UDF that misbehaves on exactly one call — NaN or a panic — and is
/// healthy before and after.
struct FaultyOnce {
    bad_call: u64,
    panics: bool,
    calls: AtomicU64,
}

impl UdfFunction for FaultyOnce {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[f64]) -> f64 {
        if self.calls.fetch_add(1, Ordering::Relaxed) == self.bad_call {
            assert!(!self.panics, "injected UDF panic");
            return f64::NAN;
        }
        (x[0] * 3.0).sin() + (x[0] * 7.0).cos()
    }
    fn name(&self) -> &str {
        "faulty-once"
    }
}

fn faulty_once(bad_call: u64, panics: bool) -> BlackBoxUdf {
    let udf = FaultyOnce {
        bad_call,
        panics,
        calls: AtomicU64::new(0),
    };
    BlackBoxUdf::new(Arc::new(udf), udf_core::udf::CostModel::Free)
}

fn tight() -> OlgaproConfig {
    let acc = AccuracyRequirement::new(0.12, 0.05, 0.02, Metric::Discrepancy).unwrap();
    OlgaproConfig::new(acc, 2.0).unwrap()
}

fn tuple(mu: f64) -> InputDistribution {
    InputDistribution::diagonal_gaussian(&[(mu, 0.4)]).unwrap()
}

/// The tuning loop keeps the tuple's kernel rows in the scratch between
/// inferences. A UDF failing *inside* that loop — after rows were retained,
/// before the next point is added — must leave nothing behind that a later
/// tuple could mistake for its own: the next tuple on the same scratch is
/// bitwise the tuple on a fresh one, whichever way the call died, and the
/// evaluator keeps working.
#[test]
fn a_fault_inside_the_tuning_loop_leaves_no_retained_rows_behind() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use udf_core::olgapro::InferScratch;
    for panics in [false, true] {
        // The first tuple bootstraps on calls 0-4 and is within budget; the
        // second tunes on calls 5-14. The faults land at different depths
        // of that loop, rows retained each time.
        for bad_call in [6, 9, 12, 14] {
            // The next tuple sits at, near, or away from the failed one —
            // near is where a stale selection is one index from the new one.
            for (k, next_mu) in [1.0, 1.05, 1.4, 2.2, 3.0].into_iter().enumerate() {
                let what = format!("panics={panics} bad_call={bad_call} next_mu={next_mu}");
                let mut olga = Olgapro::new(faulty_once(bad_call, panics), tight());
                let mut scratch = InferScratch::default();
                let mut failed = false;
                for (i, mu) in [0.2, 1.0].into_iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(100 + i as u64);
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        olga.process_with(&tuple(mu), &mut rng, &mut scratch)
                    }));
                    match run {
                        Ok(Ok(_)) => {}
                        Ok(Err(CoreError::NonFiniteUdfOutput { .. })) if !panics => failed = true,
                        Err(_) if panics => failed = true,
                        other => panic!("{what}: tuple {i}: {other:?}"),
                    }
                    if failed {
                        break;
                    }
                }
                assert!(failed, "{what}: the fault never fired");
                assert!(
                    olga.model().len() > 5,
                    "{what}: fault outside the tuning loop"
                );

                // Same evaluator state, stale scratch vs. fresh scratch.
                let mut twin = olga.clone();
                let seed = 7 + k as u64;
                let a = olga
                    .process_with(
                        &tuple(next_mu),
                        &mut StdRng::seed_from_u64(seed),
                        &mut scratch,
                    )
                    .unwrap();
                let b = twin
                    .process_with(
                        &tuple(next_mu),
                        &mut StdRng::seed_from_u64(seed),
                        &mut InferScratch::default(),
                    )
                    .unwrap();
                assert_eq!(a.y_hat.values(), b.y_hat.values(), "{what}: mean CDF");
                assert_eq!(a.y_s.values(), b.y_s.values(), "{what}: lower envelope");
                assert_eq!(a.y_l.values(), b.y_l.values(), "{what}: upper envelope");
                assert_eq!(a.eps_gp.to_bits(), b.eps_gp.to_bits(), "{what}: eps_gp");
                assert_eq!(
                    (a.points_added, a.retrained, a.udf_calls),
                    (b.points_added, b.retrained, b.udf_calls),
                    "{what}: tuning"
                );
                let bits = |m: &udf_gp::GpModel| -> Vec<u64> {
                    m.alpha().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(olga.model()), bits(twin.model()), "{what}: model");
            }
        }
    }
}

/// A UDF value can be finite and still too large for the model: α = K⁻¹y
/// overflows and the next inference's means come out non-finite. The bound
/// stage has always rejected that *before* the retraining decision, and
/// with the bound now built lazily the rejection must still come first —
/// wherever in Algorithm 5 the inference sits. So the retraining strategy
/// cannot show in what the `Err` leaves behind: an eager evaluator's model
/// equals a never-retraining twin's, hyperparameters included.
#[test]
fn an_overflowing_udf_value_is_rejected_before_the_model_retrains() {
    use udf_core::config::RetrainStrategy;
    // (bootstrap points, per-tuple budget, the call that overflows): the
    // failing inference is the only one of a loop never entered; the first
    // of a loop that could go on; the last a loop is allowed — the one
    // whose bound waits for the retraining decision.
    for (bootstrap, budget, bad_call) in [(5, 1, 4u64), (3, 4, 2), (3, 4, 3)] {
        let run = |retrain: RetrainStrategy| {
            let calls = Arc::new(AtomicU64::new(0));
            let counted = Arc::clone(&calls);
            let udf = BlackBoxUdf::from_fn("overflowing", 1, move |x| {
                if counted.fetch_add(1, Ordering::Relaxed) == bad_call {
                    return 1.7e308;
                }
                (x[0] * 3.0).sin() + (x[0] * 7.0).cos()
            });
            let mut cfg = tight();
            cfg.retrain = retrain;
            cfg.bootstrap_points = bootstrap;
            cfg.max_points_per_input = budget;
            let mut olga = Olgapro::new(udf, cfg);
            let err = olga
                .process(&tuple(2.0), &mut StdRng::seed_from_u64(9))
                .unwrap_err();
            let model = olga.model();
            (
                err.to_string(),
                (model.len(), model.epoch(), model.kernel().params()),
                calls.load(Ordering::Relaxed),
            )
        };
        let eager = run(RetrainStrategy::Eager);
        assert!(
            eager.0.contains("non-finite"),
            "call {bad_call}: {}",
            eager.0
        );
        assert_eq!(eager, run(RetrainStrategy::Never), "call {bad_call}");
        assert_eq!(eager, run(RetrainStrategy::NewtonThreshold(0.0)));
        let points = bad_call as usize + 1;
        assert_eq!((eager.1 .0, eager.1 .1), (points, points as u64));
        assert_eq!(
            eager.2,
            bad_call + 1,
            "the Err came with the first inference after"
        );
    }
}

/// The same fault through the batch operator: a UDF that dies in the
/// sequential fold of a two-phase batch takes the statement down, not the
/// scheduler — its per-lane scratch serves the next batch, with the rows a
/// fresh scheduler would have produced.
#[test]
fn a_fault_in_the_slow_fold_leaves_the_scheduler_usable() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use udf_core::batch::{BatchSpec, Evaluator};
    use udf_core::sched::BatchScheduler;
    let inputs: Vec<InputDistribution> = (0..12).map(|i| tuple(0.45 * i as f64)).collect();
    let spec = BatchSpec {
        seed: 11,
        stream: 0,
        predicate: None,
    };
    let run = |sched: &BatchScheduler, udf: BlackBoxUdf| {
        let mut eval = Evaluator::Gp(Box::new(Olgapro::new(udf, tight())));
        let mut rows = Vec::new();
        let done = catch_unwind(AssertUnwindSafe(|| {
            eval.run_two_phase(
                sched,
                spec,
                inputs.len(),
                |i| (i as u64, &inputs[i]),
                |id, ruling| {
                    if let FilterDecision::Kept { output, .. } = ruling {
                        rows.push((
                            id,
                            output.error_bound.to_bits(),
                            output.ecdf.values().to_vec(),
                        ));
                    }
                },
            )
        }));
        (done, rows)
    };
    let healthy = || faulty_once(u64::MAX, false);
    let (_, want) = run(&BatchScheduler::new(2), healthy());
    assert_eq!(want.len(), inputs.len());

    let sched = BatchScheduler::new(2);
    for panics in [false, true] {
        // Call 12 is past the bootstrap tuple: inside a rerouted tuple's
        // tuning loop, in the fold.
        let (done, rows) = run(&sched, faulty_once(12, panics));
        match done {
            Ok(Err(CoreError::NonFiniteUdfOutput { .. })) if !panics => {}
            Err(_) if panics => {}
            other => panic!("panics={panics}: {other:?}"),
        }
        assert!(rows.len() < inputs.len(), "the batch must not complete");
        let (done, rows) = run(&sched, healthy());
        assert!(
            matches!(done, Ok(Ok(_))),
            "scheduler unusable after the fault"
        );
        assert_eq!(rows, want, "panics={panics}: rows after the fault");
    }
}
