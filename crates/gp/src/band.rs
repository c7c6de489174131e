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
//! `2·E[φ(A_{z_α})] = α` (two-sided band, |Z| ≥ z) for `z_α` once per tuple
//! on the warm path: the `z`-free factors (`e_j`, powers of `2π`) once per
//! solve, then Newton on `ln E[φ]` from the pointwise quantile, safeguarded
//! by bisection — about eight evaluations where bisection to one ulp took 57.
//!
//! Conservativeness: the standardized posterior error field is not exactly
//! stationary; using the *prior* spectral moments is the standard practice
//! the paper follows, and the EC heuristic upper-bounds the violation
//! probability for the large-z regime of interest (small α).

use crate::kernel::Kernel;
use udf_prob::special::{hermite, norm_ppf, norm_sf};
use udf_spatial::BoundingBox;

/// `z ↦ (E[φ(A_z)], dE[φ(A_z)]/dz)` over `domain`, the factors that do not
/// depend on `z` — `e_j(T√λ₂)`, `(2π)^{−(j+1)/2}` — computed once. Termwise,
/// `dΦ̄/dz = −φ` and `d(H_k e^{−z²/2})/dz = −H_{k+1} e^{−z²/2}`.
fn euler_characteristic(kernel: &dyn Kernel, domain: &BoundingBox) -> impl Fn(f64) -> (f64, f64) {
    // a_i = T_i sqrt(λ₂), one moment for every dimension.
    let root = kernel.spectral_moment().sqrt();
    let a: Vec<f64> = (0..domain.dim())
        .map(|i| (domain.hi()[i] - domain.lo()[i]) * root)
        .collect();
    let two_pi = 2.0 * std::f64::consts::PI;
    let power = |j: usize| two_pi.powf(-((j as f64 + 1.0) / 2.0));
    let e = elementary_symmetric(&a);
    let factors: Vec<(f64, f64)> = (1..=a.len()).map(|j| (e[j], power(j))).collect();
    move |z| {
        let gauss = (-0.5 * z * z).exp();
        let mut total = norm_sf(z);
        let mut slope = -gauss / two_pi.sqrt();
        for (j, (e_j, power_j)) in factors.iter().enumerate() {
            let rho_j = power_j * hermite(j, z) * gauss;
            total += e_j * rho_j;
            slope -= e_j * power_j * hermite(j + 1, z) * gauss;
        }
        (total, slope)
    }
}

/// Expected Euler characteristic of the excursion set of a standardized
/// stationary field above level `z` over `domain`.
pub fn expected_euler_characteristic(kernel: &dyn Kernel, domain: &BoundingBox, z: f64) -> f64 {
    euler_characteristic(kernel, domain)(z).0
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
    if ec(lo).0 <= target {
        return lo;
    }
    if ec(hi).0 >= target {
        return hi;
    }
    // Newton on g(z) = ln E[φ(A_z)] − ln(α/2) from the pointwise quantile
    // (E[φ] ≥ Φ̄, so the root lies above it), keeping [lo, hi] around the
    // root; a step that leaves it, or fails to halve the one before, bisects.
    let ln_target = target.ln();
    let mut z = (-norm_ppf(target)).clamp(lo, hi);
    let mut step = hi - lo;
    for _ in 0..128 {
        let (e, slope) = ec(z);
        let g = e.ln() - ln_target;
        (lo, hi) = if g > 0.0 { (z, hi) } else { (lo, z) };
        let newton = z - g * e / slope;
        let next = if (lo..=hi).contains(&newton) && 2.0 * (newton - z).abs() <= step {
            newton
        } else {
            0.5 * (lo + hi)
        };
        step = (next - z).abs();
        z = next;
        // A step under an ulp or two is final, as is a bracket one ulp wide.
        if step <= f64::EPSILON * z || z == lo || z == hi {
            break;
        }
    }
    z
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
        let lam = kernel.spectral_moment();
        let a: Vec<f64> = (0..domain.dim())
            .map(|i| (domain.hi()[i] - domain.lo()[i]) * lam.sqrt())
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

    /// `z_α` by bisection over [`ec_oracle`], all 80 steps taken: the
    /// root to the last bit.
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
    fn newton_z_alpha_matches_the_bisection_oracle() {
        use crate::kernel::{Matern32, Matern52};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xBA2D);
        let (mut at_lo, mut at_hi, mut inside) = (0, 0, 0);
        for case in 0..4000 {
            let d = 1 + case % 3;
            let len = 10f64.powf(rng.gen_range(-1.5..1.0));
            let kernel: Box<dyn Kernel> = match case % 5 {
                0 => Box::new(Matern32::new(1.3, len)),
                1 => Box::new(Matern52::new(0.7, len)),
                2 => Box::new(Matern52::new(1.0, 2.0 * len)),
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
            // The formula is the oracle's to the bit, its slope the
            // formula's central difference.
            let z = rng.gen_range(1.0..16.0);
            let ec = euler_characteristic(kernel.as_ref(), &domain);
            let (value, slope) = ec(z);
            let want = ec_oracle(kernel.as_ref(), &domain, z);
            assert_eq!(
                value.to_bits(),
                want.to_bits(),
                "case {case}: E[φ] at z = {z}"
            );
            let h = 1e-6 * z;
            let fd = (ec(z + h).0 - ec(z - h).0) / (2.0 * h);
            let tol = 1e-5 * (slope.abs() + value.abs());
            assert!(
                (fd - slope).abs() <= tol,
                "case {case}: slope {slope} vs {fd}"
            );
            // The root within 16 ulps; the clamp exits exact.
            let got = simultaneous_z(kernel.as_ref(), &domain, alpha);
            let want = simultaneous_z_oracle(kernel.as_ref(), &domain, alpha);
            let ulps = got.to_bits().abs_diff(want.to_bits());
            let clamped = [1.0, 16.0].contains(&want);
            assert!(
                ulps <= if clamped { 0 } else { 16 },
                "case {case}: α = {alpha}, {got} vs {want}"
            );
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
