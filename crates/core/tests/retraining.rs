//! Retraining on a capped, spiky workload: hyperparameter learning must
//! stop where the log-box stops it instead of spending its iteration
//! budget pushing a clamped coordinate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig};
use udf_core::olgapro::Olgapro;
use udf_core::udf::BlackBoxUdf;
use udf_prob::InputDistribution;

/// The paper's F2 at d = 1 as `udf-workloads` instantiates it (one bump of
/// width 0.6), written out because this crate sits below that one.
fn f2() -> (BlackBoxUdf, f64) {
    let (center, amplitude, range) = (9.539682414908404, 1.0374380768462441, 1.037398762666772);
    let udf = BlackBoxUdf::from_fn("F2", 1, move |x| {
        amplitude * (-(x[0] - center).powi(2) / (2.0 * 0.6 * 0.6)).exp()
    });
    (udf, range)
}

/// The `f2_tuning_capped` benchmark workload at the engine: 64 inputs
/// `((0.61·i) mod 10, σ = 0.5)` under `MODEL CAP 96`. Away from its spike
/// F2 is ≈ 0, the MLE sits on the σ_f floor of the log-box, and until the
/// active-set rule every retrain ran all 50 iterations against that wall.
#[test]
fn f2_retrains_stop_at_the_wall() {
    for seed in [7, 31] {
        let (udf, range) = f2();
        let accuracy =
            AccuracyRequirement::new(0.1, 0.05, 0.01 * range, Metric::Discrepancy).unwrap();
        let mut config = OlgaproConfig::new(accuracy, range).unwrap();
        config.set_model_cap(96).unwrap();
        let metrics = udf_obs::MetricsRegistry::new();
        let mut olga = Olgapro::new(udf, config).with_metrics(&metrics);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut calls = 0;
        for i in 0..64 {
            let input =
                InputDistribution::diagonal_gaussian(&[((0.61 * i as f64) % 10.0, 0.5)]).unwrap();
            let out = olga.process(&input, &mut rng).unwrap();
            assert!(out.error_bound().is_finite(), "seed {seed}, tuple {i}");
            calls += out.udf_calls;
        }
        assert_eq!(calls, 96, "seed {seed}: the cap is the budget");
        let snap = metrics.snapshot();
        // One `train_iters` record per retrain, its value the iterations.
        let iters = &snap.histograms["olgapro.train_iters"];
        assert!(
            iters.count > 0 && snap.counters["olgapro.cap_hits"] > 0,
            "seed {seed}: {iters:?}"
        );
        assert!(
            iters.sum <= 15 * iters.count,
            "seed {seed}: {} iterations over {} retrains",
            iters.sum,
            iters.count
        );
    }
}
