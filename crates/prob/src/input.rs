//! Multivariate uncertain inputs.
//!
//! A tuple with uncertain attributes carries a random vector `X` (§1, problem
//! statement). The paper's default, and the only form here, is independent
//! attributes: one [`Value`] marginal per dimension (§6.1-B).

use crate::{ProbError, Result, Value};

/// The joint distribution of a tuple's uncertain attribute vector: a
/// product of independent marginals, one per dimension.
#[derive(Debug, PartialEq)]
pub struct InputDistribution {
    marginals: Vec<Value>,
}

impl InputDistribution {
    /// Build an independent product distribution; fails on an empty vector
    /// or on a marginal with invalid parameters.
    pub fn independent(marginals: Vec<Value>) -> Result<Self> {
        if marginals.is_empty() {
            return Err(ProbError::Empty("marginals"));
        }
        marginals.iter().try_for_each(Value::validate)?;
        Ok(InputDistribution { marginals })
    }

    /// Convenience: independent Gaussian with per-dimension `(mu, sigma)`.
    pub fn diagonal_gaussian(params: &[(f64, f64)]) -> Result<Self> {
        InputDistribution::independent(
            params
                .iter()
                .map(|&(mu, sigma)| Value::Gaussian { mu, sigma })
                .collect(),
        )
    }

    /// Dimensionality of the random vector.
    pub fn dim(&self) -> usize {
        self.marginals.len()
    }

    /// Draw one sample of `X` into a fresh vector.
    pub fn sample(&self, rng: &mut dyn rand::RngCore) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.sample_into(rng, &mut out);
        out
    }

    /// Draw one sample of `X` into `out` (length must equal `dim()`).
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()` (caller bug).
    pub fn sample_into(&self, rng: &mut dyn rand::RngCore, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "sample_into: wrong output length");
        for (o, v) in out.iter_mut().zip(&self.marginals) {
            *o = v.sample(rng);
        }
    }

    /// Draw `m` samples as row vectors.
    pub fn sample_n(&self, rng: &mut dyn rand::RngCore, m: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        self.sample_n_into(rng, m, &mut out);
        out
    }

    /// Allocation-reusing variant of [`InputDistribution::sample_n`]:
    /// resizes `out` to `m` rows and fills them in place, reusing both the
    /// outer vector and each row's capacity. Draws the same RNG stream as
    /// `sample_n`, so the produced samples are identical for a given RNG
    /// state.
    pub fn sample_n_into(&self, rng: &mut dyn rand::RngCore, m: usize, out: &mut Vec<Vec<f64>>) {
        let dim = self.dim();
        out.resize_with(m, Vec::new);
        for row in out.iter_mut() {
            row.resize(dim, 0.0);
            self.sample_into(rng, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn independent_sampling_matches_marginals() {
        let d = InputDistribution::independent(vec![
            Value::Gaussian {
                mu: 1.0,
                sigma: 0.5,
            },
            Value::Gaussian {
                mu: -2.0,
                sigma: 0.1,
            },
        ])
        .unwrap();
        assert_eq!(d.dim(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = d.sample_n(&mut rng, 30_000);
        let m0 = samples.iter().map(|s| s[0]).sum::<f64>() / samples.len() as f64;
        let m1 = samples.iter().map(|s| s[1]).sum::<f64>() / samples.len() as f64;
        assert!((m0 - 1.0).abs() < 0.02);
        assert!((m1 + 2.0).abs() < 0.02);
    }

    #[test]
    fn point_mass_draws_no_randomness() {
        let d = InputDistribution::independent(vec![
            Value::Det(2.5),
            Value::Gaussian {
                mu: 1.0,
                sigma: 0.5,
            },
        ])
        .unwrap();
        for seed in 0..8 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            for _ in 0..4 {
                let x = d.sample(&mut r1);
                assert_eq!(x[0], 2.5);
                let want = 1.0 + 0.5 * sample_standard_normal(&mut r2);
                assert_eq!(x[1].to_bits(), want.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn rejects_bad_construction() {
        assert_eq!(
            InputDistribution::independent(vec![]).unwrap_err(),
            ProbError::Empty("marginals")
        );
        let normal = |mu, sigma| Value::Gaussian { mu, sigma };
        for (bad, what) in [
            (normal(0.0, 0.0), "Normal sigma/mu"),
            (normal(0.0, -1.0), "Normal sigma/mu"),
            (normal(0.0, f64::INFINITY), "Normal sigma/mu"),
            (normal(f64::NAN, 1.0), "Normal sigma/mu"),
            (Value::Det(f64::INFINITY), "Degenerate value"),
            (Value::Det(f64::NAN), "Degenerate value"),
        ] {
            let err = InputDistribution::independent(vec![Value::Det(1.0), bad.clone()]);
            assert!(
                matches!(err, Err(ProbError::InvalidParameter { what: w, .. }) if w == what),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn diagonal_gaussian_helper() {
        let d = InputDistribution::diagonal_gaussian(&[(5.0, 0.5), (2.0, 0.1)]).unwrap();
        assert_eq!(d.dim(), 2);
        assert!(InputDistribution::diagonal_gaussian(&[(0.0, -1.0)]).is_err());
    }
}
