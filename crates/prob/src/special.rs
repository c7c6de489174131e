//! Special functions implemented from standard algorithms.
//!
//! * `erfc`: via the regularized upper incomplete gamma function,
//!   `erfc(x) = Q(1/2, x²)` — near machine precision on both tails (series
//!   for small arguments, Lentz continued fraction for large ones). It is
//!   what `norm_cdf`/`norm_sf` evaluate.
//! * `norm_ppf` (Φ⁻¹): Acklam's algorithm with one Halley refinement step —
//!   absolute error below 1e-12 over (0, 1).
//! * `ln_gamma`: Lanczos approximation (g = 7, n = 9).
//! * `gamma_q`: regularized upper incomplete gamma via series / continued
//!   fraction (Numerical Recipes `gammq`), behind `erfc`. The tests check it
//!   against its complement `P(a, x)` and `erf`, kept there as oracles.

use std::f64::consts::{PI, SQRT_2};

/// Complementary error function `erfc(x) = 1 - erf(x)` computed without
/// cancellation for large positive `x`.
pub(crate) fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else {
        gamma_q(0.5, x * x)
    }
}

/// Standard normal CDF `Φ(z)`.
#[inline]
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / SQRT_2)
}

/// Standard normal upper tail `Φ̄(z) = 1 - Φ(z)`, accurate for large `z`.
#[inline]
pub fn norm_sf(z: f64) -> f64 {
    0.5 * erfc(z / SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's algorithm + one Halley step).
///
/// Returns ±∞ at p = 0 / 1 and NaN outside [0, 1].
pub fn norm_ppf(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the high-accuracy CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x)` via the series expansion
/// (accurate branch for `x < a + 1`).
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Regularized upper incomplete gamma `Q(a, x)` via the Lentz continued
/// fraction (accurate branch for `x >= a + 1`).
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / 1e-300;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`, computed on
/// the accurate branch for each regime (no cancellation on the upper tail).
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Hermite polynomial (probabilists') `He_n(z)`, needed by the expected
/// Euler characteristic densities of Gaussian fields (§4.2, Eq. 5).
pub fn hermite(n: usize, z: f64) -> f64 {
    match n {
        0 => 1.0,
        1 => z,
        _ => {
            let (mut hm, mut h) = (1.0, z);
            for k in 1..n {
                let next = z * h - k as f64 * hm;
                hm = h;
                h = next;
            }
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error function `erf(x) = P(1/2, x²)`: the complement `erfc` is
    /// checked against.
    fn erf(x: f64) -> f64 {
        if x < 0.0 {
            -erf(-x)
        } else {
            gamma_p(0.5, x * x)
        }
    }

    /// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`: the
    /// complement `gamma_q` is checked against.
    ///
    /// Series expansion for `x < a + 1`, continued fraction otherwise
    /// (Numerical Recipes §6.2). Returns NaN for invalid arguments.
    fn gamma_p(a: f64, x: f64) -> f64 {
        if a <= 0.0 || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return 0.0;
        }
        if x < a + 1.0 {
            gamma_p_series(a, x)
        } else {
            1.0 - gamma_q_cf(a, x)
        }
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-2.5, -1.0, -0.3, 0.0, 0.7, 1.9, 4.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn norm_cdf_symmetry_and_known() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((norm_cdf(1.959963985) - 0.975).abs() < 1e-6);
        for &z in &[-3.0, -1.0, 0.5, 2.2] {
            assert!((norm_cdf(z) + norm_cdf(-z) - 1.0).abs() < 1e-12);
            assert!((norm_sf(z) - (1.0 - norm_cdf(z))).abs() < 1e-9);
        }
    }

    #[test]
    fn ppf_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            let z = norm_ppf(p);
            assert!((norm_cdf(z) - p).abs() < 1e-8, "p = {p}");
        }
        assert!(norm_ppf(0.0).is_infinite());
        assert!(norm_ppf(1.5).is_nan());
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn gamma_p_properties() {
        // P(1, x) = 1 - e^{-x} (exponential CDF).
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-10);
        }
        // Monotone in x.
        assert!(gamma_p(2.5, 1.0) < gamma_p(2.5, 2.0));
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert!(gamma_p(-1.0, 1.0).is_nan());
    }

    #[test]
    fn hermite_recurrence() {
        // He_2(z) = z^2 - 1, He_3(z) = z^3 - 3z.
        for &z in &[-1.5, 0.0, 0.8, 2.0] {
            assert!((hermite(2, z) - (z * z - 1.0)).abs() < 1e-12);
            assert!((hermite(3, z) - (z * z * z - 3.0 * z)).abs() < 1e-12);
        }
    }
}
