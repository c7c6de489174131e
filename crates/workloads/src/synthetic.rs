//! Synthetic UDFs with controlled shape (§6.1-A, Fig. 4).
//!
//! Functions are sums of Gaussian bumps: the number of components dictates
//! the number of peaks, the component scale the bumpiness/spikiness. The
//! paper's four reference functions are the combinations of
//! {1, 5} components × {large, small} component variance on domain
//! `[0, 10]^d`; [`PaperFunction`] reproduces them for any dimension, with a
//! seeded layout so experiments are repeatable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udf_core::udf::UdfFunction;
use udf_prob::InputDistribution;

/// Domain bounds used throughout the synthetic evaluation.
pub const DOMAIN: (f64, f64) = (0.0, 10.0);

/// The four reference functions of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperFunction {
    /// One component, large variance: one flat peak.
    F1,
    /// One component, small variance: one spiky peak.
    F2,
    /// Five components, large variance: bumpy but smooth.
    F3,
    /// Five components, small variance: bumpy and spiky.
    F4,
}

impl PaperFunction {
    /// All four, in order.
    pub const ALL: [PaperFunction; 4] = [
        PaperFunction::F1,
        PaperFunction::F2,
        PaperFunction::F3,
        PaperFunction::F4,
    ];

    /// Component count / scale parameters.
    fn recipe(self) -> (usize, f64) {
        match self {
            PaperFunction::F1 => (1, 3.0),
            PaperFunction::F2 => (1, 0.6),
            PaperFunction::F3 => (5, 2.0),
            PaperFunction::F4 => (5, 0.5),
        }
    }

    /// Instantiate at dimension `d` with a deterministic layout.
    pub fn instantiate(self, d: usize) -> GaussianMixtureFn {
        let (ncomp, scale) = self.recipe();
        GaussianMixtureFn::generate(format!("{self:?}"), d, ncomp, scale, 7 + self as u64)
    }

    /// Label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            PaperFunction::F1 => "Funct1",
            PaperFunction::F2 => "Funct2",
            PaperFunction::F3 => "Funct3",
            PaperFunction::F4 => "Funct4",
        }
    }
}

/// A UDF of the form `f(x) = Σ_i a_i exp(−‖x − μ_i‖² / (2 s_i²))`.
#[derive(Debug, Clone)]
pub struct GaussianMixtureFn {
    name: String,
    dim: usize,
    components: Vec<Component>,
}

#[derive(Debug, Clone)]
struct Component {
    center: Vec<f64>,
    scale: f64,
    amplitude: f64,
}

impl GaussianMixtureFn {
    /// Generate with `ncomp` bumps of width `scale` at seeded-random centers
    /// inside [`DOMAIN`]`^d`, amplitudes in [0.5, 1.5].
    pub fn generate(
        name: impl Into<String>,
        dim: usize,
        ncomp: usize,
        scale: f64,
        seed: u64,
    ) -> Self {
        assert!(dim > 0 && ncomp > 0 && scale > 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ (dim as u64) << 32);
        let components = (0..ncomp)
            .map(|_| Component {
                center: (0..dim)
                    .map(|_| rng.gen_range(DOMAIN.0..DOMAIN.1))
                    .collect(),
                scale,
                amplitude: rng.gen_range(0.5..1.5),
            })
            .collect();
        GaussianMixtureFn {
            name: name.into(),
            dim,
            components,
        }
    }

    /// Approximate output range (max minus min ≈ peak amplitude sum) used to
    /// scale λ and Γ: evaluated on a coarse probe of the domain.
    pub fn output_range(&self) -> f64 {
        let probes = 2000;
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut x = vec![0.0; self.dim];
        for _ in 0..probes {
            for xi in &mut x {
                *xi = rng.gen_range(DOMAIN.0..DOMAIN.1);
            }
            let v = self.eval(&x);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (hi - lo).max(f64::MIN_POSITIVE)
    }
}

impl UdfFunction for GaussianMixtureFn {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        self.components
            .iter()
            .map(|c| {
                let d2: f64 = x
                    .iter()
                    .zip(&c.center)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                c.amplitude * (-0.5 * d2 / (c.scale * c.scale)).exp()
            })
            .sum()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Generate `n` Gaussian input tuples for a `d`-dimensional UDF: means
/// drawn uniformly from the domain, spread `sigma_i` (§6.1-B default 0.5).
pub fn generate_inputs(
    d: usize,
    n: usize,
    sigma_i: f64,
    rng: &mut dyn rand::RngCore,
) -> Vec<InputDistribution> {
    (0..n)
        .map(|_| {
            let params: Vec<(f64, f64)> = (0..d)
                .map(|_| (rng.gen_range(DOMAIN.0..DOMAIN.1), sigma_i))
                .collect();
            InputDistribution::diagonal_gaussian(&params).expect("valid params")
        })
        .collect()
}

/// Deterministic domain sweep: `n` Gaussian input tuples whose means walk
/// the domain on a golden-ratio (low-discrepancy) schedule, so every batch
/// keeps visiting fresh regions — no RNG, no warm pocket.
///
/// This is the adversarial workload for GP model growth: under a tight
/// accuracy each fresh region misses the ε_GP budget and forces online
/// tuning, so without a model cap the training set grows with `n` and
/// per-tuple cost climbs as O(m²)/O(m³). The model-cap regression tests
/// (`crates/query/tests/model_cap.rs`) drive this sweep.
pub fn sweep_inputs(d: usize, n: usize, sigma_i: f64) -> Vec<InputDistribution> {
    (0..n)
        .map(|i| {
            let params: Vec<(f64, f64)> =
                (0..d).map(|j| (sweep_mean(i * d + j), sigma_i)).collect();
            InputDistribution::diagonal_gaussian(&params).expect("valid params")
        })
        .collect()
}

/// The golden-ratio mean schedule behind [`sweep_inputs`]: the `i`-th mean
/// in [`DOMAIN`]. Exposed so relational tests and benches can build
/// `Relation`s on the same sweep.
pub fn sweep_mean(i: usize) -> f64 {
    const PHI_FRAC: f64 = 0.618_033_988_749_894_9; // 1/φ
    DOMAIN.0 + (i as f64 * PHI_FRAC).fract() * (DOMAIN.1 - DOMAIN.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sweep_inputs_is_deterministic_and_in_domain() {
        let a = sweep_inputs(1, 32, 0.3);
        let b = sweep_inputs(1, 32, 0.3);
        assert_eq!(a.len(), 32);
        let mut rng = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sample_n(&mut rng, 3), y.sample_n(&mut rng2, 3));
        }
        // The sweep keeps visiting fresh regions: consecutive means differ.
        let means: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(2);
            a.iter()
                .map(|x| {
                    let s = x.sample_n(&mut r, 256);
                    s.iter().map(|v| v[0]).sum::<f64>() / 256.0
                })
                .collect()
        };
        for w in means.windows(2) {
            assert!((w[0] - w[1]).abs() > 0.5, "sweep stalled: {w:?}");
        }
    }

    #[test]
    fn paper_family_shapes() {
        let f1 = PaperFunction::F1.instantiate(2);
        let f4 = PaperFunction::F4.instantiate(2);
        assert_eq!(f1.dim(), 2);
        // F1 has one component, F4 five.
        assert_eq!(f1.components.len(), 1);
        assert_eq!(f4.components.len(), 5);
        // F4 is spikier: smaller scale.
        assert!(f4.components[0].scale < f1.components[0].scale);
    }

    #[test]
    fn deterministic_generation() {
        let a = PaperFunction::F3.instantiate(3);
        let b = PaperFunction::F3.instantiate(3);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.eval(&x), b.eval(&x));
    }

    #[test]
    fn eval_peaks_at_centers() {
        let f = PaperFunction::F2.instantiate(1);
        let c = f.components[0].center.clone();
        let at_center = f.eval(&c);
        let off = f.eval(&[c[0] + 3.0]);
        assert!(at_center > off, "peak {at_center} vs off-peak {off}");
        assert!(at_center <= 1.5 + 1e-12);
    }

    #[test]
    fn output_range_positive_and_bounded() {
        for pf in PaperFunction::ALL {
            let f = pf.instantiate(2);
            let r = f.output_range();
            assert!(r > 0.0 && r <= 7.5, "{pf:?}: range {r}");
        }
    }

    #[test]
    fn input_generators_produce_valid_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = generate_inputs(3, 5, 0.5, &mut rng);
        assert_eq!(inputs.len(), 5);
        for inp in &inputs {
            assert_eq!(inp.dim(), 3);
            let s = inp.sample(&mut rng);
            assert!(s.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn bumpier_functions_vary_more() {
        // Sample-path roughness: mean |Δf| over a fine 1-D walk should be
        // larger for F4 than F1.
        let f1 = PaperFunction::F1.instantiate(1);
        let f4 = PaperFunction::F4.instantiate(1);
        let rough = |f: &GaussianMixtureFn| -> f64 {
            let mut sum = 0.0;
            let n = 1000;
            for i in 0..n {
                let x0 = i as f64 * 10.0 / n as f64;
                let x1 = x0 + 10.0 / n as f64;
                sum += (f.eval(&[x1]) - f.eval(&[x0])).abs();
            }
            sum
        };
        assert!(rough(&f4) > rough(&f1), "F4 should be rougher than F1");
    }
}
