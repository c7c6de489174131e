//! Property-based tests for GP regression invariants.

use proptest::prelude::*;
use udf_gp::band::{expected_euler_characteristic, simultaneous_z};
use udf_gp::kernel::Kernel;
use udf_gp::local::{gamma_bound, select_local_with, LocalPredictor};
use udf_gp::{GpModel, Matern52, PredictScratch, SelectScratch, SquaredExponential};
use udf_spatial::BoundingBox;

/// Distinct 1-D training inputs with bounded targets. A minimum spacing of
/// half the kernel lengthscale keeps the kernel matrix well-conditioned —
/// exact interpolation through points much closer than the lengthscale is
/// numerically ill-posed for the SE kernel (neighbor correlations ≈ 1), and
/// near-coincident points are exercised by the jitter-path unit tests.
fn training_set() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((-10.0f64..10.0, -3.0f64..3.0), 2..25).prop_map(|mut pts| {
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        pts.dedup_by(|a, b| (a.0 - b.0).abs() < 0.5);
        pts.into_iter().unzip()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn posterior_interpolates_and_variance_nonnegative(
        (xs, ys) in training_set(),
        query in -12.0f64..12.0,
    ) {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        let inputs: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        m.fit(inputs, ys.clone()).unwrap();
        // Interpolation at every training point (tolerance reflects the
        // jitter-regularized exact-interpolation error).
        for (x, y) in xs.iter().zip(&ys) {
            let p = m.predict(&[*x]).unwrap();
            prop_assert!((p.mean - y).abs() < 5e-2, "f̂({x}) = {} vs {y}", p.mean);
            prop_assert!(p.var >= 0.0 && p.var < 5e-2);
        }
        // Anywhere: variance within [0, σ_f² + slack].
        let p = m.predict(&[query]).unwrap();
        prop_assert!(p.var >= 0.0 && p.var <= 1.0 + 1e-9);
    }

    #[test]
    fn incremental_equals_batch((xs, ys) in training_set()) {
        let inputs: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let mut batch = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        batch.fit(inputs.clone(), ys.clone()).unwrap();
        let mut inc = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        for (x, y) in inputs.iter().zip(&ys) {
            inc.add_point(x.clone(), *y).unwrap();
        }
        for q in [-8.0, -1.3, 0.0, 4.7, 11.0] {
            let a = batch.predict(&[q]).unwrap();
            let b = inc.predict(&[q]).unwrap();
            prop_assert!((a.mean - b.mean).abs() < 1e-4, "q={q}: {} vs {}", a.mean, b.mean);
            prop_assert!((a.var - b.var).abs() < 1e-4, "q={q}: {} vs {}", a.var, b.var);
        }
    }

    #[test]
    fn lml_gradient_matches_fd(
        (xs, ys) in training_set(),
        ls in 0.3f64..3.0,
    ) {
        let inputs: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let mut m = GpModel::new(Box::new(Matern52::new(1.0, ls)), 1);
        m.fit(inputs, ys).unwrap();
        let theta0 = m.kernel().params();
        let grad = m.lml_gradient().unwrap();
        let eps = 1e-5;
        for j in 0..theta0.len() {
            let mut tp = theta0.clone();
            tp[j] += eps;
            m.set_hyperparams(&tp).unwrap();
            let lp = m.log_marginal_likelihood().unwrap();
            let mut tm = theta0.clone();
            tm[j] -= eps;
            m.set_hyperparams(&tm).unwrap();
            let lm = m.log_marginal_likelihood().unwrap();
            m.set_hyperparams(&theta0).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            prop_assert!(
                (fd - grad[j]).abs() < 1e-2 * (1.0 + grad[j].abs()),
                "θ[{j}]: fd {fd} vs {g}", g = grad[j]
            );
        }
    }

    #[test]
    fn ec_is_decreasing_in_z(side in 0.5f64..50.0, ls in 0.2f64..3.0) {
        let k = SquaredExponential::new(1.0, ls);
        let domain = BoundingBox::new(vec![0.0], vec![side]);
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let z = 1.0 + i as f64 * 0.4;
            let ec = expected_euler_characteristic(&k, &domain, z);
            prop_assert!(ec <= prev + 1e-12, "EC not decreasing at z = {z}");
            prev = ec;
        }
    }

    #[test]
    fn simultaneous_z_brackets(alpha in 0.01f64..0.3, side in 0.5f64..20.0) {
        let k = SquaredExponential::new(1.0, 0.7);
        let domain = BoundingBox::new(vec![0.0, 0.0], vec![side, side]);
        let z = simultaneous_z(&k, &domain, alpha);
        prop_assert!((1.0..=16.0).contains(&z));
        // At the returned z, the two-sided EC estimate is ≈ α (unless clamped).
        if z > 1.0 + 1e-9 && z < 16.0 - 1e-9 {
            let p = 2.0 * expected_euler_characteristic(&k, &domain, z);
            prop_assert!((p - alpha).abs() < 1e-6, "2·EC(z_α) = {p} vs α = {alpha}");
        }
    }

    #[test]
    fn batch_predict_is_bitwise_scalar_predict(
        (xs, ys) in training_set(),
        queries in prop::collection::vec(-12.0f64..12.0, 0..40),
        ls in 0.3f64..3.0,
    ) {
        // The blocked fast path must be invisible: for any model and any
        // query batch, predict_batch == per-sample predict bit for bit.
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, ls)), 1);
        let inputs: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        m.fit(inputs, ys).unwrap();
        let qs: Vec<Vec<f64>> = queries.iter().map(|&q| vec![q]).collect();
        let batch = m.predict_batch(&qs).unwrap();
        prop_assert_eq!(batch.len(), qs.len());
        for (q, b) in qs.iter().zip(&batch) {
            let s = m.predict(q).unwrap();
            prop_assert_eq!(s.mean.to_bits(), b.mean.to_bits(), "mean at {:?}", q);
            prop_assert_eq!(s.var.to_bits(), b.var.to_bits(), "var at {:?}", q);
        }
    }

    #[test]
    fn local_batch_predict_is_bitwise_scalar_predict(
        (xs, ys) in training_set(),
        queries in prop::collection::vec(-12.0f64..12.0, 1..32),
        start in 0usize..4,
        step in 1usize..3,
    ) {
        // Same contract through a subset predictor, for an arbitrary
        // (sorted) selection of training rows.
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        let n = xs.len();
        let inputs: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        m.fit(inputs, ys).unwrap();
        let indices: Vec<usize> = (start.min(n - 1)..n).step_by(step).collect();
        let lp = LocalPredictor::new(&m, indices).unwrap();
        let qs: Vec<Vec<f64>> = queries.iter().map(|&q| vec![q]).collect();
        let batch = lp.predict_batch(&qs).unwrap();
        for (q, b) in qs.iter().zip(&batch) {
            let s = lp.predict(q).unwrap();
            prop_assert_eq!(s.mean.to_bits(), b.mean.to_bits(), "mean at {:?}", q);
            prop_assert_eq!(s.var.to_bits(), b.var.to_bits(), "var at {:?}", q);
        }
    }

    #[test]
    fn predict_scratch_reuse_never_leaks_state(
        (xs, ys) in training_set(),
        (xs2, ys2) in training_set(),
        queries in prop::collection::vec(-12.0f64..12.0, 0..24),
    ) {
        // One scratch driven across models and batch sizes must produce
        // the same bits as a fresh scratch every time: the buffers are
        // caches, never state.
        let mut a = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        a.fit(xs.iter().map(|&x| vec![x]).collect(), ys).unwrap();
        let mut b = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.6)), 1);
        b.fit(xs2.iter().map(|&x| vec![x]).collect(), ys2).unwrap();
        let qs: Vec<Vec<f64>> = queries.iter().map(|&q| vec![q]).collect();
        let mut reused = PredictScratch::default();
        let mut out = Vec::new();
        for (model, take) in [(&a, qs.len()), (&b, qs.len() / 2), (&a, qs.len() / 3)] {
            let slice = &qs[..take];
            model.predict_batch_with(slice, &mut reused, &mut out).unwrap();
            let fresh = model.predict_batch(slice).unwrap();
            prop_assert_eq!(out.len(), fresh.len());
            for (r, f) in out.iter().zip(&fresh) {
                prop_assert_eq!(r.mean.to_bits(), f.mean.to_bits());
                prop_assert_eq!(r.var.to_bits(), f.var.to_bits());
            }
        }
    }

    #[test]
    fn kernel_matrices_are_psd((xs, _ys) in training_set(), ls in 0.2f64..4.0) {
        // Factorization with jitter must succeed for any input set.
        use udf_linalg::{Cholesky, Matrix};
        let k = SquaredExponential::new(1.0, ls);
        let m = Matrix::from_symmetric_fn(xs.len(), |i, j| {
            Kernel::eval(&k, &[xs[i]], &[xs[j]])
        });
        prop_assert!(Cholesky::factor_with_jitter(&m, 1e-8, 10).is_ok());
    }

    #[test]
    fn selection_matches_linear_scan(
        pts in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 1..80),
        lengthscale in 0.3f64..3.0,
        qlo in prop::collection::vec(-10.0f64..10.0, 2),
        side in prop::collection::vec(0.0f64..6.0, 2),
        log_threshold in -8.0f64..-1.0,
    ) {
        // Local selection keeps exactly the points within the radius it
        // reports of the sample box, in ascending order, and stops only once
        // γ ≤ Γ or nothing is left to add.
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, lengthscale)), 2);
        let ys: Vec<f64> = pts.iter().map(|p| (p[0] * 0.7).sin() + p[1].cos()).collect();
        m.fit(pts.clone(), ys).unwrap();
        let qhi: Vec<f64> = qlo.iter().zip(&side).map(|(l, s)| l + s).collect();
        let qbox = BoundingBox::new(qlo, qhi);
        let threshold = 10f64.powf(log_threshold);
        let mut scratch = SelectScratch::default();
        let (gamma, radius) = select_local_with(&m, &qbox, threshold, &mut scratch).unwrap();
        let want: Vec<usize> = (0..pts.len())
            .filter(|&i| qbox.min_dist(&pts[i]) <= radius)
            .collect();
        prop_assert_eq!(&scratch.selected, &want, "radius {}", radius);
        prop_assert!(gamma <= threshold || want.len() == pts.len(), "γ {} > Γ {}", gamma, threshold);
        let recomputed = gamma_bound(&m, &qbox, &want);
        prop_assert_eq!(gamma.to_bits(), recomputed.to_bits());
    }
}
