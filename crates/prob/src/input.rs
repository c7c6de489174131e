//! Multivariate uncertain inputs.
//!
//! A tuple with uncertain attributes carries a random vector `X` (§1, problem
//! statement). The paper's default, and the only form here, is independent
//! attributes: one marginal per dimension (§6.1-B).

use crate::dist::Univariate;
use crate::{ProbError, Result};

/// The joint distribution of a tuple's uncertain attribute vector: a
/// product of independent marginals, one per dimension.
#[derive(Debug)]
pub struct InputDistribution {
    marginals: Vec<Box<dyn Univariate>>,
}

impl InputDistribution {
    /// Build an independent product distribution.
    pub fn independent(marginals: Vec<Box<dyn Univariate>>) -> Result<Self> {
        if marginals.is_empty() {
            return Err(ProbError::Empty("marginals"));
        }
        Ok(InputDistribution { marginals })
    }

    /// Convenience: independent Gaussian with per-dimension `(mu, sigma)`.
    pub fn diagonal_gaussian(params: &[(f64, f64)]) -> Result<Self> {
        let marginals = params
            .iter()
            .map(|&(mu, sigma)| {
                crate::Normal::new(mu, sigma).map(|n| Box::new(n) as Box<dyn Univariate>)
            })
            .collect::<Result<Vec<_>>>()?;
        InputDistribution::independent(marginals)
    }

    /// Dimensionality of the random vector.
    pub fn dim(&self) -> usize {
        self.marginals.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> Vec<f64> {
        self.marginals.iter().map(|d| d.mean()).collect()
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
        for (o, d) in out.iter_mut().zip(&self.marginals) {
            *o = d.sample(rng);
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
    use crate::{Exponential, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn independent_sampling_matches_marginals() {
        let d = InputDistribution::independent(vec![
            Box::new(Normal::new(1.0, 0.5).unwrap()),
            Box::new(Exponential::new(2.0).unwrap()),
        ])
        .unwrap();
        assert_eq!(d.dim(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = d.sample_n(&mut rng, 30_000);
        let m0 = samples.iter().map(|s| s[0]).sum::<f64>() / samples.len() as f64;
        let m1 = samples.iter().map(|s| s[1]).sum::<f64>() / samples.len() as f64;
        assert!((m0 - 1.0).abs() < 0.02);
        assert!((m1 - 0.5).abs() < 0.02);
        assert_eq!(d.mean(), vec![1.0, 0.5]);
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(InputDistribution::independent(vec![]).is_err());
    }

    #[test]
    fn diagonal_gaussian_helper() {
        let d = InputDistribution::diagonal_gaussian(&[(5.0, 0.5), (2.0, 0.1)]).unwrap();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.mean(), vec![5.0, 2.0]);
        assert!(InputDistribution::diagonal_gaussian(&[(0.0, -1.0)]).is_err());
    }
}
