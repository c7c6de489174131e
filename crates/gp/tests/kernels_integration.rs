//! Cross-kernel integration tests: every kernel must behave correctly
//! through the full regression/training path, including Matérn local
//! inference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udf_gp::local::{select_local_with, LocalPredictor};
use udf_gp::train::{train, TrainConfig};
use udf_gp::{GpModel, Kernel, Matern32, Matern52, SelectScratch, SquaredExponential};
use udf_spatial::BoundingBox;

fn sample_2d(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
        .collect()
}

#[test]
fn all_kernels_regress_a_smooth_function() {
    let xs = sample_2d(50, 2);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (x[0] * 0.5).sin() + (x[1] * 0.3).cos())
        .collect();
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(SquaredExponential::new(1.0, 1.5)),
        Box::new(Matern32::new(1.0, 1.5)),
        Box::new(Matern52::new(1.0, 1.5)),
    ];
    for kernel in kernels {
        let name = format!("{kernel:?}");
        let mut m = GpModel::new(kernel, 2);
        m.fit(xs.clone(), ys.clone()).unwrap();
        // MLE-fit hyperparameters — the rougher Matérn priors need a longer
        // learned lengthscale to interpolate a smooth function accurately.
        train(&mut m, &TrainConfig::default()).unwrap();
        let mut err: f64 = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let q: Vec<f64> = vec![rng.gen_range(1.0..9.0), rng.gen_range(1.0..9.0)];
            let truth = (q[0] * 0.5).sin() + (q[1] * 0.3).cos();
            err = err.max((m.predict(&q).unwrap().mean - truth).abs());
        }
        assert!(err < 0.2, "{name}: max error {err}");
    }
}

#[test]
fn matern_local_inference_bounds_hold() {
    // Local inference works for any isotropic kernel; verify the γ bound is
    // sound under Matérn 3/2 as well.
    let xs: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![i as f64 * 0.25])
        .chain((0..40).map(|i| vec![50.0 + i as f64 * 0.25]))
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.6).sin()).collect();
    let mut m = GpModel::new(Box::new(Matern32::new(1.0, 0.8)), 1);
    m.fit(xs, ys).unwrap();
    let qbox = BoundingBox::new(vec![2.0], vec![6.0]);
    let mut sel = SelectScratch::default();
    let (gamma, _) = select_local_with(&m, &qbox, 1e-4, &mut sel).unwrap();
    assert!(
        sel.selected.len() < m.len(),
        "far cluster should be excluded"
    );
    let lp = LocalPredictor::new(&m, sel.selected).unwrap();
    for i in 0..=16 {
        let q = 2.0 + 4.0 * i as f64 / 16.0;
        let g = m.predict_mean(&[q]).unwrap();
        let l = lp.predict(&[q]).unwrap().mean;
        assert!(
            (g - l).abs() <= gamma + 1e-12,
            "q={q}: error {} > γ {}",
            (g - l).abs(),
            gamma
        );
    }
}

#[test]
fn training_respects_log_bounds() {
    // Pathological targets should not blow hyperparameters past the trust box.
    let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
    let ys = vec![1e6; 10];
    let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
    m.fit(xs, ys).unwrap();
    let cfg = TrainConfig::default();
    train(&mut m, &cfg).unwrap();
    for t in m.kernel().params() {
        assert!(
            t.abs() <= cfg.log_bound + 1e-9,
            "θ escaped the trust box: {t}"
        );
    }
}

#[test]
fn retraining_heuristic_consistent_across_kernels() {
    use udf_gp::train::newton_step_norm;
    for kernel in [
        Box::new(SquaredExponential::new(1.0, 0.05)) as Box<dyn Kernel>,
        Box::new(Matern52::new(1.0, 0.05)),
    ] {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.4).sin()).collect();
        let mut m = GpModel::new(kernel, 1);
        m.fit(xs, ys).unwrap();
        let before = newton_step_norm(&m).unwrap();
        train(&mut m, &TrainConfig::default()).unwrap();
        let after = newton_step_norm(&m).unwrap();
        assert!(
            after < before,
            "Newton step must shrink after training: {before} -> {after}"
        );
    }
}
