//! The marginal of one uncertain attribute, and the normal sampler.
//!
//! The evaluators only ever *sample* an input (Algorithm 1; step 1 of
//! Algorithm 5), and the paper's default inputs are Gaussian attributes
//! (§6.1-B); a point mass carries deterministic attributes. So a marginal
//! is Gaussian or a point mass, sampled only: there is no pdf, cdf or
//! quantile of an input, and no gamma or exponential input, because nothing
//! outside their own tests built them. Gaussian draws use the Marsaglia
//! polar method.

use crate::{ProbError, Result};
use rand::Rng;

/// One attribute value: a known constant or a Gaussian-uncertain attribute
/// (the paper's SDSS modeling). Constants and uncertain columns mix freely
/// in one input vector (Q2 passes the constant `AREA` to `ComoveVol`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Known constant: a point mass, which draws no randomness.
    Det(f64),
    /// Gaussian-uncertain attribute `N(mu, sigma²)`.
    Gaussian {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
}

impl Value {
    /// Expected value of the attribute.
    pub fn mean(&self) -> f64 {
        match self {
            Value::Det(v) => *v,
            Value::Gaussian { mu, .. } => *mu,
        }
    }

    /// Check the parameters: a finite constant, or a finite `mu` with a
    /// positive finite `sigma`.
    pub(crate) fn validate(&self) -> Result<()> {
        match *self {
            Value::Det(value) if !value.is_finite() => Err(ProbError::InvalidParameter {
                what: "Degenerate value",
                value,
            }),
            Value::Gaussian { mu, sigma }
                if !(sigma > 0.0 && sigma.is_finite() && mu.is_finite()) =>
            {
                Err(ProbError::InvalidParameter {
                    what: "Normal sigma/mu",
                    value: sigma,
                })
            }
            _ => Ok(()),
        }
    }

    /// Draw one sample: the constant itself, or `mu + sigma·Z`.
    pub(crate) fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        match *self {
            Value::Det(v) => v,
            Value::Gaussian { mu, sigma } => mu + sigma * sample_standard_normal(rng),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_and_sampling() {
        let d = Value::Gaussian {
            mu: 3.0,
            sigma: 2.0,
        };
        assert_eq!(d.mean(), 3.0);
        let n = 40_000;
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
    }
}
