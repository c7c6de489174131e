//! Simultaneous confidence bands (§4.2, "Computing Simultaneous Confidence
//! Bands").
//!
//! A pointwise band `f̂(x) ± 2σ(x)` does not bound a GP *sample path*
//! everywhere at once. The paper adopts Adler's approximation (Eq. 5):
//!
//! `Pr[sup_x Z(x) ≥ z] ≈ E[φ(A_z)]`
//!
//! where `Z(x) = (f̃(x) − f̂(x))/σ(x)` is the standardized error field and
//! `φ(A_z)` the Euler characteristic of its excursion set above `z`. For a
//! stationary unit-variance Gaussian field over a box with side lengths
//! `T_i` and second spectral moments `λ₂,i`, the Gaussian kinematic formula
//! gives
//!
//! `E[φ(A_z)] = Φ̄(z) + Σ_{j=1..d} e_j(T√λ₂) · (2π)^{−(j+1)/2} H_{j−1}(z) e^{−z²/2}`
//!
//! with `e_j` the elementary symmetric polynomials (sum over j-dimensional
//! faces of the box) and `H` the probabilists' Hermite polynomials. We solve
//! `2·E[φ(A_{z_α})] = α` (two-sided band, |Z| ≥ z) for `z_α` by bisection —
//! once per tuple on the warm path, so the factors that do not depend on `z`
//! (`e_j`, the powers of `2π`) are computed once per solve and the bisection
//! stops when its bracket is one ulp wide, where further steps cannot move it.
//!
//! Conservativeness: the standardized posterior error field is not exactly
//! stationary; using the *prior* spectral moments is the standard practice
//! the paper follows, and the EC heuristic upper-bounds the violation
//! probability for the large-z regime of interest (small α).

use crate::kernel::Kernel;
use crate::model::GpModel;
use crate::{GpError, Result};
use udf_prob::special::{hermite, norm_sf};
use udf_spatial::BoundingBox;

/// `z ↦ E[φ(A_z)]` over `domain`, with the factors that do not depend on the
/// level — `e_j(T√λ₂)` and `(2π)^{−(j+1)/2}` for `j = 1..=d` — computed once:
/// [`simultaneous_z`] evaluates the formula at up to 82 levels per domain.
fn euler_characteristic(kernel: &dyn Kernel, domain: &BoundingBox) -> impl Fn(f64) -> f64 {
    let moments = kernel.spectral_moment();
    // a_i = T_i sqrt(λ₂,i); isotropic kernels report one moment for all dims.
    let a: Vec<f64> = (0..domain.dim())
        .map(|i| {
            let lam = moments[if moments.len() == 1 { 0 } else { i }];
            (domain.hi()[i] - domain.lo()[i]) * lam.sqrt()
        })
        .collect();
    let two_pi = 2.0 * std::f64::consts::PI;
    let power = |j: usize| two_pi.powf(-((j as f64 + 1.0) / 2.0));
    let e = elementary_symmetric(&a);
    let factors: Vec<(f64, f64)> = (1..=a.len()).map(|j| (e[j], power(j))).collect();
    move |z| {
        let gauss = (-0.5 * z * z).exp();
        let mut total = norm_sf(z);
        for (j, (e_j, power_j)) in factors.iter().enumerate() {
            let rho_j = power_j * hermite(j, z) * gauss;
            total += e_j * rho_j;
        }
        total
    }
}

/// Expected Euler characteristic of the excursion set of a standardized
/// stationary field above level `z` over `domain`.
pub fn expected_euler_characteristic(kernel: &dyn Kernel, domain: &BoundingBox, z: f64) -> f64 {
    euler_characteristic(kernel, domain)(z)
}

/// Solve for the two-sided simultaneous band multiplier `z_α`:
/// `Pr[sup_x |Z(x)| ≥ z_α] ≈ 2·E[φ(A_{z_α})] = α`.
///
/// Returns a value in `[1, 16]`; the caller treats `f̂ ± z_α σ` as the
/// envelope `(f_S, f_L)` of Proposition 4.1.
pub fn simultaneous_z(kernel: &dyn Kernel, domain: &BoundingBox, alpha: f64) -> f64 {
    debug_assert!(alpha > 0.0 && alpha < 1.0);
    let target = alpha / 2.0;
    let ec = euler_characteristic(kernel, domain);
    // E[φ] is decreasing in z on the z ≥ 1 regime of interest.
    let (mut lo, mut hi) = (1.0, 16.0);
    if ec(lo) <= target {
        return lo;
    }
    if ec(hi) >= target {
        return hi;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        // A bracket one ulp wide is final: `mid` is one of its ends, and
        // re-testing an end leaves both where they are.
        if mid == lo || mid == hi {
            break;
        }
        if ec(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Sound bracketing of the simultaneous band `f̂(x) ± z·σ(x)` over whole
/// input boxes, for a predictor conditioned on the training subset
/// `indices` (§4.2's envelope evaluated over a box instead of per sample).
///
/// Construction precomputes the one quantity that is quadratic in the
/// subset size — the RKHS norm of the restricted posterior mean — so each
/// [`bracket`](BandBoxBound::bracket) call is `O(|indices|)`; pair pruning
/// (udf-join) builds one `BandBoxBound` per candidate and brackets many
/// refinement sub-boxes with it.
///
/// Three sound ingredients (all need an isotropic kernel), phrased around
/// the kernel metric `d_k(x, c)² = k(x,x) + k(c,c) − 2k(x, c)
/// = 2(k(0) − k(‖x − c‖))`, which shrinks linearly with the box radius —
/// so bisection refinement actually converges:
///
/// * **mean**: the restricted mean `f̂(x) = Σ_{i∈indices} k(x, x*_i) α_i`
///   lies in the kernel's RKHS with norm `‖f̂‖² = α_Iᵀ K_II α_I`, so
///   `|f̂(x) − f̂(c)| ≤ ‖f̂‖ · d_k(x, c)`; evaluating `f̂` at the box
///   center `c` preserves the cancellation in α (a naive per-point
///   interval sum is off by orders of magnitude on dense, near-singular
///   training sets);
/// * **sd, local**: the subset-conditioned sd is 1-Lipschitz in the
///   kernel metric — with `P = I − Φ_I(K_II + jI)⁻¹Φ_Iᵀ` we have
///   `0 ⪯ P ⪯ I` and `σ(x) = ‖P^{1/2} k(·,x)‖`, hence
///   `|σ(x) − σ(c)| ≤ ‖P^{1/2}(k(·,x) − k(·,c))‖ ≤ d_k(x, c)` — so
///   `σ(c)` computed by the *fast path's own*
///   [`LocalPredictor`](crate::local::LocalPredictor) plus a
///   `d_k` slack bounds the sd over the box;
/// * **sd, global backstop**: posterior variance never increases as
///   observations are added (fixed jitter), so conditioning on the single
///   best subset point gives
///   `σ²(x) ≤ k(0) − k(x, x*_i)² / (k(0) + jitter)` with `k(x, x*_i)` at
///   least the kernel value at the box's farthest corner — loose, but
///   independent of the box size; the bracket takes the smaller of the
///   two sd bounds.
#[derive(Debug)]
pub struct BandBoxBound<'m> {
    model: &'m GpModel,
    predictor: crate::local::LocalPredictor<'m>,
    indices: Vec<usize>,
    /// RKHS norm ‖f̂_I‖ of the restricted posterior mean.
    hnorm: f64,
}

impl<'m> BandBoxBound<'m> {
    /// Precompute the bound context for a training subset —
    /// `O(|indices|²)` kernel evaluations for the RKHS norm plus the
    /// subset predictor's `O(|indices|³)` factorization (the same factor
    /// the fast path's local inference would build).
    pub fn new(model: &'m GpModel, indices: Vec<usize>) -> Result<Self> {
        if model.is_empty() || indices.is_empty() {
            return Err(GpError::EmptyModel);
        }
        if model.kernel().eval_dist(0.0).is_none() {
            return Err(GpError::InvalidParameter {
                what: "band box bounds require an isotropic kernel",
                value: f64::NAN,
            });
        }
        let kernel = model.kernel();
        let xs = model.inputs();
        let alpha = model.alpha();
        let mut norm_sq = 0.0;
        for &i in &indices {
            for &j in &indices {
                norm_sq += alpha[i] * alpha[j] * kernel.eval(&xs[i], &xs[j]);
            }
        }
        let predictor = crate::local::LocalPredictor::new(model, indices.clone())?;
        Ok(BandBoxBound {
            model,
            predictor,
            indices,
            // The Gram quadratic form is PSD; clamp numerical noise.
            hnorm: norm_sq.max(0.0).sqrt(),
        })
    }

    /// The training subset the bound is conditioned on.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// `(band_lo, band_hi)` with `band_lo ≤ f̂(x) − z·σ(x)` and
    /// `f̂(x) + z·σ(x) ≤ band_hi` for **all** `x ∈ bbox`, where `f̂`/`σ`
    /// are the subset predictor's posterior mean and sd.
    pub fn bracket(&self, bbox: &BoundingBox, z: f64) -> Result<(f64, f64)> {
        if !(z > 0.0 && z.is_finite()) {
            return Err(GpError::InvalidParameter {
                what: "band multiplier z",
                value: z,
            });
        }
        let kernel = self.model.kernel();
        let xs = self.model.inputs();
        let k0 = kernel.signal_variance();
        let center: Vec<f64> = bbox
            .lo()
            .iter()
            .zip(bbox.hi())
            .map(|(l, h)| 0.5 * (l + h))
            .collect();
        let at_center = self.predictor.predict(&center)?;
        let mut k_far_best = 0.0f64;
        for &i in &self.indices {
            let far = bbox.max_dist(&xs[i]);
            k_far_best = k_far_best.max(kernel.eval_dist(far).expect("isotropic"));
        }
        // Kernel-metric radius to the farthest box point from the center.
        let r_max = bbox.max_dist(&center);
        let k_r = kernel.eval_dist(r_max).expect("isotropic");
        let d_k = (2.0 * (k0 - k_r)).max(0.0).sqrt();
        let mean_slack = self.hnorm * d_k;
        let var_single = (k0 - k_far_best * k_far_best / (k0 + self.model.jitter())).clamp(0.0, k0);
        let sd_ub = (at_center.var.sqrt() + d_k).min(var_single.sqrt());
        let pad = mean_slack + z * sd_ub;
        Ok((at_center.mean - pad, at_center.mean + pad))
    }
}

/// Elementary symmetric polynomials `e_0..e_n` of `a` (DP in O(n²)).
fn elementary_symmetric(a: &[f64]) -> Vec<f64> {
    let mut e = vec![0.0; a.len() + 1];
    e[0] = 1.0;
    for (idx, &x) in a.iter().enumerate() {
        for j in (1..=idx + 1).rev() {
            e[j] += x * e[j - 1];
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    #[test]
    fn elementary_symmetric_known() {
        // (x+1)(x+2)(x+3) = x³ + 6x² + 11x + 6 → e = [1, 6, 11, 6].
        let e = elementary_symmetric(&[1.0, 2.0, 3.0]);
        assert_eq!(e, vec![1.0, 6.0, 11.0, 6.0]);
    }

    #[test]
    fn ec_reduces_to_tail_for_tiny_domain() {
        // As the domain shrinks, sup over the box → a single Gaussian, and
        // E[φ(A_z)] → Φ̄(z).
        let k = SquaredExponential::new(1.0, 1.0);
        let tiny = BoundingBox::new(vec![0.0], vec![1e-9]);
        for z in [1.0, 2.0, 3.0] {
            let ec = expected_euler_characteristic(&k, &tiny, z);
            assert!((ec - norm_sf(z)).abs() < 1e-9, "z = {z}");
        }
    }

    #[test]
    fn ec_grows_with_domain_and_roughness() {
        let k = SquaredExponential::new(1.0, 1.0);
        let small = BoundingBox::new(vec![0.0], vec![1.0]);
        let large = BoundingBox::new(vec![0.0], vec![100.0]);
        assert!(
            expected_euler_characteristic(&k, &large, 2.0)
                > expected_euler_characteristic(&k, &small, 2.0)
        );
        // Shorter lengthscale = rougher field = more upcrossings.
        let rough = SquaredExponential::new(1.0, 0.1);
        assert!(
            expected_euler_characteristic(&rough, &small, 2.0)
                > expected_euler_characteristic(&k, &small, 2.0)
        );
    }

    /// The EC formula as it was before its `z`-independent factors were
    /// hoisted: everything re-derived at every level.
    fn ec_oracle(kernel: &dyn Kernel, domain: &BoundingBox, z: f64) -> f64 {
        let moments = kernel.spectral_moment();
        let a: Vec<f64> = (0..domain.dim())
            .map(|i| {
                let lam = moments[if moments.len() == 1 { 0 } else { i }];
                (domain.hi()[i] - domain.lo()[i]) * lam.sqrt()
            })
            .collect();
        let e = elementary_symmetric(&a);
        let two_pi = 2.0 * std::f64::consts::PI;
        let gauss = (-0.5 * z * z).exp();
        let mut total = norm_sf(z);
        for (j, e_j) in e.iter().enumerate().skip(1) {
            let rho_j = two_pi.powf(-((j as f64 + 1.0) / 2.0)) * hermite(j - 1, z) * gauss;
            total += e_j * rho_j;
        }
        total
    }

    /// [`simultaneous_z`] over [`ec_oracle`], all 80 bisection steps taken.
    fn simultaneous_z_oracle(kernel: &dyn Kernel, domain: &BoundingBox, alpha: f64) -> f64 {
        let target = alpha / 2.0;
        let f = |z: f64| ec_oracle(kernel, domain, z);
        let (mut lo, mut hi) = (1.0, 16.0);
        if f(lo) <= target {
            return lo;
        }
        if f(hi) >= target {
            return hi;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn hoisted_bisection_matches_the_per_step_oracle_bitwise() {
        use crate::kernel::{Matern32, Matern52, SquaredExponentialArd};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xBA2D);
        let (mut at_lo, mut at_hi, mut inside) = (0, 0, 0);
        for case in 0..4000 {
            let d = 1 + case % 3;
            let len = 10f64.powf(rng.gen_range(-1.5..1.0));
            let kernel: Box<dyn Kernel> = match case % 5 {
                0 => Box::new(Matern32::new(1.3, len)),
                1 => Box::new(Matern52::new(0.7, len)),
                2 => Box::new(SquaredExponentialArd::new(1.0, &vec![len; d])),
                _ => Box::new(SquaredExponential::new(1.0, len)),
            };
            // Sides from a thousandth of a lengthscale up; every 40th box
            // so vast that even z = 16 cannot meet α, and every 40th α so
            // lax that z = 1 already does — the two clamp exits.
            let side_max: f64 = if case % 40 == 7 { 60.0 } else { 3.0 };
            let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let hi: Vec<f64> = lo
                .iter()
                .map(|l| l + len * 10f64.powf(rng.gen_range(-3.0..side_max)))
                .collect();
            let domain = BoundingBox::new(lo, hi);
            let alpha = if case % 40 == 13 {
                rng.gen_range(0.4..0.9)
            } else {
                10f64.powf(rng.gen_range(-4.0..0.3f64.log10()))
            };
            let z = rng.gen_range(1.0..16.0);
            let ec = expected_euler_characteristic(kernel.as_ref(), &domain, z);
            assert_eq!(
                ec.to_bits(),
                ec_oracle(kernel.as_ref(), &domain, z).to_bits(),
                "case {case}: E[φ] at z = {z}"
            );
            let got = simultaneous_z(kernel.as_ref(), &domain, alpha);
            let want = simultaneous_z_oracle(kernel.as_ref(), &domain, alpha);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}: α = {alpha}");
            at_lo += usize::from(got == 1.0);
            at_hi += usize::from(got == 16.0);
            inside += usize::from(got > 1.0 && got < 16.0);
        }
        assert!(
            at_lo > 20 && at_hi > 20 && inside > 3000,
            "{at_lo} / {at_hi} / {inside}"
        );
    }

    #[test]
    fn z_alpha_exceeds_pointwise_quantile() {
        // A simultaneous band must be wider than the pointwise one.
        let k = SquaredExponential::new(1.0, 0.5);
        let domain = BoundingBox::new(vec![0.0], vec![10.0]);
        let z = simultaneous_z(&k, &domain, 0.05);
        assert!(z > 1.96, "z_α = {z}");
        assert!(z < 16.0);
    }

    #[test]
    fn z_alpha_monotone_in_alpha_and_domain() {
        let k = SquaredExponential::new(1.0, 0.5);
        let domain = BoundingBox::new(vec![0.0], vec![10.0]);
        let z05 = simultaneous_z(&k, &domain, 0.05);
        let z20 = simultaneous_z(&k, &domain, 0.20);
        assert!(z05 > z20, "stricter α needs a wider band");
        let bigger = BoundingBox::new(vec![0.0], vec![1000.0]);
        assert!(simultaneous_z(&k, &bigger, 0.05) > z05);
    }

    #[test]
    fn z_alpha_multidimensional() {
        let k = SquaredExponential::new(1.0, 1.0);
        let d1 = BoundingBox::new(vec![0.0], vec![10.0]);
        let d2 = BoundingBox::new(vec![0.0, 0.0], vec![10.0, 10.0]);
        let z1 = simultaneous_z(&k, &d1, 0.05);
        let z2 = simultaneous_z(&k, &d2, 0.05);
        assert!(z2 > z1, "2-D field has more excursions: {z1} vs {z2}");
    }

    #[test]
    fn band_box_bracket_dominates_pointwise_band() {
        use crate::local::LocalPredictor;
        use crate::model::GpModel;

        // Model trained on a dense 1-D grid; the bracket must contain the
        // pointwise band of both the global predictor and any local subset
        // predictor, at every probe point inside the box.
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.6)), 1);
        for i in 0..24 {
            let x = i as f64 * 0.25;
            m.add_point(vec![x], (x * 0.9).sin()).unwrap();
        }
        let all: Vec<usize> = (0..m.len()).collect();
        let sub: Vec<usize> = (4..16).collect();
        let local = LocalPredictor::new(&m, sub.clone()).unwrap();
        let global_bound = BandBoxBound::new(&m, all).unwrap();
        let local_bound = BandBoxBound::new(&m, sub).unwrap();
        let bbox = BoundingBox::new(vec![1.4], vec![2.1]);
        for z in [1.5, 3.0] {
            let (g_lo, g_hi) = global_bound.bracket(&bbox, z).unwrap();
            let (l_lo, l_hi) = local_bound.bracket(&bbox, z).unwrap();
            for i in 0..=40 {
                let x = [1.4 + 0.7 * i as f64 / 40.0];
                let g = m.predict(&x).unwrap();
                let sd = g.var.sqrt();
                assert!(g_lo <= g.mean - z * sd + 1e-12, "global lower at {x:?}");
                assert!(g.mean + z * sd <= g_hi + 1e-12, "global upper at {x:?}");
                let l = local.predict(&x).unwrap();
                let lsd = l.var.sqrt();
                assert!(l_lo <= l.mean - z * lsd + 1e-12, "local lower at {x:?}");
                assert!(l.mean + z * lsd <= l_hi + 1e-12, "local upper at {x:?}");
            }
        }
    }

    #[test]
    fn band_box_bracket_tightens_in_warm_regions() {
        use crate::model::GpModel;

        // In a densely-sampled region the single-point variance bound is
        // nearly the jitter, so the bracket is far narrower than the prior
        // band ±z·σ_f — that gap is exactly what makes pair pruning fire.
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        for i in 0..30 {
            let x = i as f64 * 0.1;
            m.add_point(vec![x], 5.0).unwrap();
        }
        let all: Vec<usize> = (0..m.len()).collect();
        let bound = BandBoxBound::new(&m, all).unwrap();
        let warm = BoundingBox::new(vec![1.0], vec![1.2]);
        let z = 3.0;
        let (lo, hi) = bound.bracket(&warm, z).unwrap();
        assert!(
            hi - lo < 2.0 * z * 0.5,
            "warm bracket too wide: [{lo}, {hi}]"
        );
        // A constant-5 function must bracket around 5, far from 0.
        assert!(lo > 3.5 && hi < 6.5, "bracket [{lo}, {hi}] off target");
        // Far from the data the sd bound degrades toward the prior σ_f.
        let cold = BoundingBox::new(vec![90.0], vec![90.1]);
        let (clo, chi) = bound.bracket(&cold, z).unwrap();
        assert!(chi - clo > 2.0 * z * 0.9, "cold bracket suspiciously tight");
    }

    #[test]
    fn band_box_bracket_rejects_bad_inputs() {
        use crate::kernel::SquaredExponentialArd;
        use crate::model::GpModel;

        let empty = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        let b = BoundingBox::new(vec![0.0], vec![1.0]);
        assert!(matches!(
            BandBoxBound::new(&empty, vec![0]),
            Err(GpError::EmptyModel)
        ));
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 1.0)), 1);
        m.add_point(vec![0.5], 1.0).unwrap();
        assert!(matches!(
            BandBoxBound::new(&m, vec![]),
            Err(GpError::EmptyModel)
        ));
        let bound = BandBoxBound::new(&m, vec![0]).unwrap();
        assert!(matches!(
            bound.bracket(&b, f64::NAN),
            Err(GpError::InvalidParameter { .. })
        ));
        let mut ard = GpModel::new(Box::new(SquaredExponentialArd::new(1.0, &[1.0])), 1);
        ard.add_point(vec![0.5], 1.0).unwrap();
        assert!(matches!(
            BandBoxBound::new(&ard, vec![0]),
            Err(GpError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn verify_band_coverage_by_simulation() {
        // Draw GP prior paths on a grid and check the simultaneous band
        // covers sup |Z| at least (1−α) of the time. The standardized prior
        // field is exactly the stationary field the EC formula models.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use udf_linalg::{Cholesky, Matrix};
        use udf_prob::dist::sample_standard_normal;

        let lengthscale = 1.0;
        let k = SquaredExponential::new(1.0, lengthscale);
        let domain = BoundingBox::new(vec![0.0], vec![10.0]);
        let alpha = 0.10;
        let z_alpha = simultaneous_z(&k, &domain, alpha);

        let grid: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 * 10.0 / 199.0]).collect();
        let n = grid.len();
        let kmat = {
            let mut m = Matrix::from_symmetric_fn(n, |i, j| Kernel::eval(&k, &grid[i], &grid[j]));
            m.add_diagonal(1e-9).unwrap();
            m
        };
        let chol = Cholesky::factor(&kmat).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 400;
        let mut violations = 0;
        for _ in 0..trials {
            let z: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
            // Sample path = L z; standardized by σ = 1 (prior, unit variance).
            let l = chol.lower();
            let mut sup = 0.0f64;
            for i in 0..n {
                let mut v = 0.0;
                for (kk, zk) in z.iter().enumerate().take(i + 1) {
                    v += l.row(i)[kk] * zk;
                }
                sup = sup.max(v.abs());
            }
            if sup > z_alpha {
                violations += 1;
            }
        }
        let rate = violations as f64 / trials as f64;
        assert!(
            rate <= alpha * 1.5 + 0.02,
            "violation rate {rate} far exceeds α = {alpha} (z_α = {z_alpha})"
        );
    }
}
