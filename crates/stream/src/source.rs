//! Stream sources: producers of uncertain input tuples.
//!
//! A [`Source`] models the arrival side of a continuous query: an unbounded
//! (or bounded) sequence of uncertain tuples, pulled in micro-batches by
//! [`Session::run`](crate::Session::run) on its calling thread. Sources own
//! their RNG state, so a source built with a fixed seed produces the same
//! tuple sequence on every run — the first half of the engine's
//! determinism contract.

use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_prob::InputDistribution;
use udf_workloads::astro::GalaxyCatalog;
use udf_workloads::synthetic::generate_inputs;

/// A producer of uncertain tuples, pulled in micro-batches.
pub trait Source {
    /// Dimensionality of every tuple this source yields.
    fn dim(&self) -> usize;

    /// Append up to `max` tuples to `out`; returns how many were appended.
    /// Returning `0` signals exhaustion and terminates the run.
    fn next_batch(&mut self, max: usize, out: &mut Vec<InputDistribution>) -> usize;
}

/// The §6.1-B synthetic workload as an unbounded stream: Gaussian tuples
/// with means drawn uniformly from the function domain and the configured
/// spread.
#[derive(Debug)]
pub struct SyntheticSource {
    dim: usize,
    sigma: f64,
    rng: StdRng,
}

impl SyntheticSource {
    /// Gaussian marginals with spread `sigma` (the paper's default input
    /// model), seeded for reproducibility.
    pub fn gaussian(dim: usize, sigma: f64, seed: u64) -> Self {
        SyntheticSource {
            dim,
            sigma,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Source for SyntheticSource {
    fn dim(&self) -> usize {
        self.dim
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<InputDistribution>) -> usize {
        out.extend(generate_inputs(self.dim, max, self.sigma, &mut self.rng));
        max
    }
}

/// Which uncertain attribute an [`AstroSource`] streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AstroMode {
    /// One redshift per tuple (the `GalAge` input shape).
    Single,
    /// A redshift pair per tuple (the `ComoveVol` / `AngDist` input shape).
    Pairs,
}

/// The astrophysics pipeline as a stream: uncertain redshifts (or redshift
/// pairs) drawn from a synthetic SDSS-like galaxy catalog, cycled so the
/// stream is unbounded.
#[derive(Debug)]
pub struct AstroSource {
    catalog: GalaxyCatalog,
    mode: AstroMode,
    cursor: usize,
}

impl AstroSource {
    /// Stream single-redshift tuples (inputs for `GalAge`-style UDFs).
    pub fn galage(catalog: GalaxyCatalog) -> Self {
        AstroSource {
            catalog,
            mode: AstroMode::Single,
            cursor: 0,
        }
    }

    /// Stream redshift-pair tuples (inputs for `ComoveVol`/`AngDist`).
    pub fn pairs(catalog: GalaxyCatalog) -> Self {
        AstroSource {
            catalog,
            mode: AstroMode::Pairs,
            cursor: 0,
        }
    }
}

impl Source for AstroSource {
    fn dim(&self) -> usize {
        match self.mode {
            AstroMode::Single => 1,
            AstroMode::Pairs => 2,
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<InputDistribution>) -> usize {
        let n_rows = self.catalog.len();
        if n_rows == 0 {
            return 0;
        }
        for _ in 0..max {
            let i = self.cursor % n_rows;
            out.push(match self.mode {
                AstroMode::Single => self.catalog.galage_input(i),
                AstroMode::Pairs => self.catalog.pair_input(i, (i + 1) % n_rows),
            });
            self.cursor += 1;
        }
        max
    }
}

/// Boxed sources forward, so callers holding heterogeneous sources (e.g. a
/// query front-end with a registry of named stream factories) can drive
/// [`Session::run`](crate::session::Session::run) without knowing the
/// concrete type.
impl Source for Box<dyn Source> {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<InputDistribution>) -> usize {
        (**self).next_batch(max, out)
    }
}

/// A finite in-memory source — handy for tests and replay. Tuples are
/// moved out as they are consumed.
#[derive(Debug)]
pub struct VecSource {
    dim: usize,
    tuples: std::collections::VecDeque<InputDistribution>,
}

impl VecSource {
    /// Wrap an explicit tuple list (must be non-empty and equi-dimensional).
    pub fn new(tuples: Vec<InputDistribution>) -> Self {
        assert!(!tuples.is_empty(), "VecSource needs at least one tuple");
        let dim = tuples[0].dim();
        assert!(
            tuples.iter().all(|t| t.dim() == dim),
            "VecSource tuples must share a dimensionality"
        );
        VecSource {
            dim,
            tuples: tuples.into(),
        }
    }
}

impl Source for VecSource {
    fn dim(&self) -> usize {
        self.dim
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<InputDistribution>) -> usize {
        let take = max.min(self.tuples.len());
        out.extend(self.tuples.drain(..take));
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_across_batch_splits() {
        let mut a = SyntheticSource::gaussian(2, 0.5, 42);
        let mut b = SyntheticSource::gaussian(2, 0.5, 42);
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        assert_eq!(a.next_batch(7, &mut va), 7);
        assert_eq!(a.next_batch(3, &mut va), 3);
        for _ in 0..5 {
            assert_eq!(b.next_batch(2, &mut vb), 2);
        }
        assert_eq!(va.len(), 10);
        assert_eq!(va, vb, "same seed must give same tuples");
    }

    #[test]
    fn astro_source_cycles() {
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = GalaxyCatalog::generate(8, &mut rng);
        let mut src = AstroSource::galage(catalog);
        assert_eq!(src.dim(), 1);
        let mut out = Vec::new();
        assert_eq!(
            src.next_batch(20, &mut out),
            20,
            "cycling source never dries up"
        );

        let mut rng = StdRng::seed_from_u64(5);
        let catalog = GalaxyCatalog::generate(8, &mut rng);
        let mut pairs = AstroSource::pairs(catalog);
        let mut out = Vec::new();
        assert_eq!(pairs.next_batch(5, &mut out), 5);
        assert_eq!(out[0].dim(), 2);
    }

    #[test]
    fn vec_source_drains() {
        let tuples = vec![
            InputDistribution::diagonal_gaussian(&[(1.0, 0.1)]).unwrap(),
            InputDistribution::diagonal_gaussian(&[(2.0, 0.1)]).unwrap(),
        ];
        let mut src = VecSource::new(tuples);
        let mut out = Vec::new();
        assert_eq!(src.next_batch(10, &mut out), 2);
        assert_eq!(src.next_batch(10, &mut out), 0);
    }
}
