//! Univariate distributions with sampling (via `rand`), pdf/cdf, and moments.
//!
//! The paper evaluates on Gaussian inputs by default and additionally on
//! Gamma and exponential inputs (§6.1-B); a point mass carries deterministic
//! attributes. Sampling algorithms:
//! Box–Muller-free polar method for the normal, inverse CDF for the
//! exponential, Marsaglia–Tsang for the Gamma.

use crate::special::{gamma_p, ln_gamma, norm_cdf, norm_pdf, norm_ppf};
use crate::{ProbError, Result};
use rand::Rng;

/// A univariate continuous distribution.
///
/// Object-safe so heterogeneous marginals can be boxed inside an
/// [`crate::InputDistribution`].
pub trait Univariate: Send + Sync + std::fmt::Debug {
    /// Draw one sample.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Mean.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Quantile function; default inverts the CDF by bisection over an
    /// envelope around the mean (distributions override when analytic).
    fn quantile(&self, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p));
        let (mut lo, mut hi) = (
            self.mean() - 20.0 * self.variance().sqrt().max(1e-12),
            self.mean() + 20.0 * self.variance().sqrt().max(1e-12),
        );
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Draw a standard normal deviate by the Marsaglia polar method.
pub fn sample_standard_normal(rng: &mut dyn rand::RngCore) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normal distribution `N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create `N(mu, sigma²)`; `sigma` must be positive and finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !(sigma > 0.0 && sigma.is_finite() && mu.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "Normal sigma/mu",
                value: sigma,
            });
        }
        Ok(Normal { mu, sigma })
    }
}

impl Univariate for Normal {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.mu + self.sigma * sample_standard_normal(rng)
    }
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf((x - self.mu) / self.sigma) / self.sigma
    }
    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mu) / self.sigma)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * norm_ppf(p)
    }
}

/// Exponential distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create `Exp(lambda)`; `lambda` must be positive and finite.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "Exponential lambda",
                value: lambda,
            });
        }
        Ok(Exponential { lambda })
    }
}

impl Univariate for Exponential {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        -(1.0 - u).ln() / self.lambda
    }
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.lambda * x).exp()
        }
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
    fn variance(&self) -> f64 {
        1.0 / (self.lambda * self.lambda)
    }
    fn quantile(&self, p: f64) -> f64 {
        -(1.0 - p).ln() / self.lambda
    }
}

/// Gamma distribution with shape `k` and scale `theta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create `Gamma(shape, scale)`; both must be positive and finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "Gamma shape",
                value: shape,
            });
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ProbError::InvalidParameter {
                what: "Gamma scale",
                value: scale,
            });
        }
        Ok(Gamma { shape, scale })
    }

    /// Marsaglia–Tsang sampler for shape ≥ 1 (boosted for shape < 1).
    fn sample_raw(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let a = if self.shape < 1.0 {
            self.shape + 1.0
        } else {
            self.shape
        };
        let d = a - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let g = loop {
            let x = sample_standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(0.0f64..1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                break d * v;
            }
        };
        if self.shape < 1.0 {
            let u: f64 = rng.gen_range(0.0f64..1.0);
            g * u.powf(1.0 / self.shape)
        } else {
            g
        }
    }
}

impl Univariate for Gamma {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_raw(rng) * self.scale
    }
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let k = self.shape;
        ((k - 1.0) * (x / self.scale).ln() - x / self.scale - ln_gamma(k)).exp() / self.scale
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }
    fn mean(&self) -> f64 {
        self.shape * self.scale
    }
    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// A degenerate (point-mass) distribution — a deterministic attribute viewed
/// as a random variable, so deterministic and uncertain columns mix freely
/// in one input vector (Q2 passes the constant `AREA` to `ComoveVol`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degenerate {
    value: f64,
}

impl Degenerate {
    /// Point mass at `value` (must be finite).
    pub fn new(value: f64) -> Result<Self> {
        if !value.is_finite() {
            return Err(ProbError::InvalidParameter {
                what: "Degenerate value",
                value,
            });
        }
        Ok(Degenerate { value })
    }
}

impl Univariate for Degenerate {
    fn sample(&self, _rng: &mut dyn rand::RngCore) -> f64 {
        self.value
    }
    fn pdf(&self, x: f64) -> f64 {
        if x == self.value {
            f64::INFINITY
        } else {
            0.0
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
    fn quantile(&self, _p: f64) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_stats(d: &dyn Univariate, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn normal_moments_and_sampling() {
        let d = Normal::new(3.0, 2.0).unwrap();
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 4.0);
        let (m, v) = sample_stats(&d, 40_000, 42);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
        assert!((d.cdf(3.0) - 0.5).abs() < 1e-9);
        assert!((d.quantile(0.975) - (3.0 + 2.0 * 1.959964)).abs() < 1e-4);
    }

    #[test]
    fn normal_rejects_bad_sigma() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn exponential_cdf_sampling() {
        let d = Exponential::new(2.0).unwrap();
        assert!((d.mean() - 0.5).abs() < 1e-12);
        let (m, _) = sample_stats(&d, 40_000, 7);
        assert!((m - 0.5).abs() < 0.02);
        assert!((d.cdf(d.quantile(0.9)) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn gamma_moments_and_cdf() {
        let d = Gamma::new(3.0, 2.0).unwrap();
        assert_eq!(d.mean(), 6.0);
        assert_eq!(d.variance(), 12.0);
        let (m, v) = sample_stats(&d, 60_000, 11);
        assert!((m - 6.0).abs() < 0.1, "mean {m}");
        assert!((v - 12.0).abs() < 0.6, "var {v}");
        // CDF at the mean of an Erlang(3) should be in a sane band.
        let c = d.cdf(6.0);
        assert!(c > 0.5 && c < 0.7, "cdf {c}");
        // Shape < 1 branch.
        let d2 = Gamma::new(0.5, 1.0).unwrap();
        let (m2, _) = sample_stats(&d2, 60_000, 13);
        assert!((m2 - 0.5).abs() < 0.02, "mean {m2}");
    }

    #[test]
    fn generic_quantile_bisection() {
        // Gamma has no closed-form quantile: exercise the default method.
        let d = Gamma::new(2.0, 1.0).unwrap();
        for &p in &[0.1, 0.5, 0.9] {
            let q = d.quantile(p);
            assert!((d.cdf(q) - p).abs() < 1e-6, "p = {p}");
        }
    }
}
