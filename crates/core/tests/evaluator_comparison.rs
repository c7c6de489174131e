//! Comparative tests across the three evaluators (MC / offline GP /
//! OLGAPRO) and validation of the simulated cost model against real
//! busy-wait time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::gp_eval::{stratified_design, OfflineGpEvaluator};
use udf_core::mc::McEvaluator;
use udf_core::olgapro::Olgapro;
use udf_core::udf::{BlackBoxUdf, CostModel};
use udf_prob::metrics::lambda_discrepancy;
use udf_prob::InputDistribution;

fn smooth() -> BlackBoxUdf {
    BlackBoxUdf::from_fn("wave", 1, |x| (x[0] * 0.7).sin() * 0.8)
}

fn acc() -> AccuracyRequirement {
    AccuracyRequirement::new(0.15, 0.05, 0.016, Metric::Discrepancy).unwrap()
}

/// All three evaluators agree with each other within their combined budgets.
#[test]
fn three_evaluators_agree() {
    let mut rng = StdRng::seed_from_u64(1);
    let input = InputDistribution::diagonal_gaussian(&[(3.0, 0.5)]).unwrap();
    let cfg = OlgaproConfig::new(acc(), 1.6).unwrap();

    // MC reference.
    let mc = McEvaluator::new(smooth().fork_counter());
    let mc_out = mc.compute(&input, &acc(), &mut rng).unwrap();

    // Offline GP (Algorithm 2) on a grid design.
    let mut offline = OfflineGpEvaluator::new(smooth().fork_counter(), cfg.clone());
    let design = stratified_design(&[0.0], &[10.0], 25, &mut rng);
    offline.train_at(&design).unwrap();
    let off_out = offline.compute(&input, &mut rng).unwrap();

    // OLGAPRO (Algorithm 5), warmed.
    let mut olga = Olgapro::new(smooth().fork_counter(), cfg);
    let mut on_out = None;
    for _ in 0..4 {
        on_out = Some(olga.process(&input, &mut rng).unwrap());
    }
    let on_out = on_out.unwrap();

    let d_off = lambda_discrepancy(&off_out.y_hat, &mc_out.ecdf, 0.016);
    let d_on = lambda_discrepancy(&on_out.y_hat, &mc_out.ecdf, 0.016);
    assert!(d_off <= 0.2, "offline vs MC: {d_off}");
    assert!(d_on <= 0.2, "online vs MC: {d_on}");
}

/// OLGAPRO adapts the training set to where inputs actually live, while the
/// offline evaluator wastes design points; on a localized input stream
/// OLGAPRO reaches the same accuracy with fewer UDF calls.
#[test]
fn online_uses_fewer_calls_on_localized_stream() {
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = OlgaproConfig::new(acc(), 1.6).unwrap();
    // All inputs live in [2, 4] of the [0, 10] domain.
    let inputs: Vec<InputDistribution> = (0..6)
        .map(|i| InputDistribution::diagonal_gaussian(&[(2.0 + 0.4 * i as f64, 0.2)]).unwrap())
        .collect();

    let off_udf = smooth().fork_counter();
    let mut offline = OfflineGpEvaluator::new(off_udf.clone(), cfg.clone());
    // The offline design must cover the whole domain (it cannot know where
    // inputs will fall): 40 points.
    let design = stratified_design(&[0.0], &[10.0], 40, &mut rng);
    offline.train_at(&design).unwrap();
    for input in &inputs {
        offline.compute(input, &mut rng).unwrap();
    }

    let on_udf = smooth().fork_counter();
    let mut olga = Olgapro::new(on_udf.clone(), cfg);
    for input in &inputs {
        olga.process(input, &mut rng).unwrap();
    }

    assert!(
        on_udf.calls() < off_udf.calls(),
        "online {} calls vs offline {} calls",
        on_udf.calls(),
        off_udf.calls()
    );
}

/// The simulated cost model's accounting matches real busy-wait time within
/// a reasonable factor — the core validation behind the substitution of
/// simulated for real evaluation cost (PAPER.md, "Fidelity caveats").
#[test]
fn simulated_cost_matches_busy_wait_reality() {
    let per_call = Duration::from_micros(300);
    let input = InputDistribution::diagonal_gaussian(&[(3.0, 0.5)]).unwrap();
    let acc = AccuracyRequirement::new(0.2, 0.05, 0.0, Metric::Ks).unwrap();
    let mut rng = StdRng::seed_from_u64(3);

    // Busy: real spinning.
    let busy = smooth().fork_counter().with_cost(CostModel::Busy(per_call));
    let mc_busy = McEvaluator::new(busy.clone());
    let t0 = Instant::now();
    mc_busy.compute(&input, &acc, &mut rng).unwrap();
    let real = t0.elapsed();

    // Simulated: charged.
    let sim = smooth()
        .fork_counter()
        .with_cost(CostModel::Simulated(per_call));
    let mc_sim = McEvaluator::new(sim.clone());
    let t1 = Instant::now();
    mc_sim.compute(&input, &acc, &mut rng).unwrap();
    let charged = t1.elapsed() + sim.charged_cost();

    let ratio = real.as_secs_f64() / charged.as_secs_f64();
    assert!(
        (0.5..2.0).contains(&ratio),
        "busy-wait reality {real:?} vs simulated accounting {charged:?} (ratio {ratio:.2})"
    );
}

/// Offline evaluator trained outside the input's region produces an honest
/// (large) error bound rather than a silently wrong answer.
#[test]
fn offline_extrapolation_reports_large_bound() {
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = OlgaproConfig::new(acc(), 1.6).unwrap();
    let mut offline = OfflineGpEvaluator::new(smooth().fork_counter(), cfg);
    // Design only covers [0, 2]; the input lives near 8.
    let design = stratified_design(&[0.0], &[2.0], 20, &mut rng);
    offline.train_at(&design).unwrap();
    let near = InputDistribution::diagonal_gaussian(&[(1.0, 0.2)]).unwrap();
    let far = InputDistribution::diagonal_gaussian(&[(8.0, 0.2)]).unwrap();
    let b_near = offline.compute(&near, &mut rng).unwrap().eps_gp;
    let b_far = offline.compute(&far, &mut rng).unwrap().eps_gp;
    assert!(
        b_far > b_near * 3.0,
        "extrapolation must inflate the bound: near {b_near}, far {b_far}"
    );
    assert!(b_far > 0.3, "far bound should be clearly unusable: {b_far}");
}
