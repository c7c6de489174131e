//! The astrophysics case study (§6.4).
//!
//! The paper evaluates three UDFs from the IDL Astronomy Library on SDSS
//! data: `GalAge` (1-D), `ComoveVol` (2-D) and `AngDist` (2-D; the library's
//! `angdidis2`, the angular-diameter distance between two redshifts). We
//! port them from the standard flat-ΛCDM formulas with adaptive Simpson
//! quadrature — deliberately through numerical integration, like the IDL
//! originals, so their evaluation cost profile (slow, scaling with
//! quadrature work) matches the paper's table:
//!
//! | FunctName | Dim | paper EvalTime (ms) |
//! |-----------|-----|---------------------|
//! | AngDist   | 2   | 0.00298             |
//! | GalAge    | 1   | 0.29072             |
//! | ComoveVol | 2   | 1.82085             |
//!
//! The real SDSS catalog is replaced by a synthetic one with
//! Gaussian-uncertain redshifts (the paper itself models SDSS attributes as
//! Gaussians); see PAPER.md, "Fidelity caveats".

use crate::quadrature::adaptive_simpson;
use rand::Rng;
use std::sync::Arc;
use udf_core::udf::{BlackBoxUdf, CostModel, UdfFunction};
use udf_prob::InputDistribution;

/// Hubble distance unit: we express distances in units of `c / H0`
/// (≈ 4283 Mpc for h = 0.7) and ages in units of `1 / H0`
/// (≈ 13.97 Gyr for h = 0.7), avoiding unit clutter in the UDFs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cosmology {
    /// Matter density Ω_M.
    pub omega_m: f64,
    /// Dark-energy density Ω_Λ (flat: Ω_M + Ω_Λ = 1).
    pub omega_l: f64,
    /// Quadrature tolerance.
    pub tol: f64,
}

impl Default for Cosmology {
    fn default() -> Self {
        // Concordance values used by SDSS-era analyses.
        Cosmology {
            omega_m: 0.27,
            omega_l: 0.73,
            tol: 1e-8,
        }
    }
}

impl Cosmology {
    /// Dimensionless Hubble rate `E(z) = sqrt(Ω_M (1+z)³ + Ω_Λ)` (flat).
    pub(crate) fn e(&self, z: f64) -> f64 {
        (self.omega_m * (1.0 + z).powi(3) + self.omega_l).sqrt()
    }

    /// Comoving line-of-sight distance `D_C(z) = ∫₀ᶻ dz'/E(z')` in units of
    /// `c/H0`.
    pub fn comoving_distance(&self, z: f64) -> f64 {
        if z <= 0.0 {
            return 0.0;
        }
        let e = |zz: f64| 1.0 / self.e(zz);
        adaptive_simpson(&e, 0.0, z, self.tol)
    }

    /// Age of the universe at redshift `z`,
    /// `t(z) = ∫_z^∞ dz' / ((1+z') E(z'))`, in units of `1/H0`.
    ///
    /// Substituting `a = 1/(1+z')` turns the infinite range into
    /// `∫₀^{1/(1+z)} da / (a E(1/a − 1))` over a finite interval.
    pub fn age_at(&self, z: f64) -> f64 {
        let a_hi = 1.0 / (1.0 + z.max(0.0));
        let f = |a: f64| {
            if a <= 0.0 {
                return 0.0;
            }
            // a E(1/a − 1) = sqrt(Ω_M / a + Ω_Λ a²): finite as a → 0.
            1.0 / (self.omega_m / a + self.omega_l * a * a).sqrt()
        };
        adaptive_simpson(&f, 0.0, a_hi, self.tol)
    }

    /// Angular-diameter distance between two redshifts `z1 < z2` (flat
    /// universe; IDL `angdidis2`): `(D_C(z2) − D_C(z1)) / (1 + z2)` in
    /// `c/H0` units.
    pub fn angular_diameter_distance2(&self, z1: f64, z2: f64) -> f64 {
        let (z1, z2) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        (self.comoving_distance(z2) - self.comoving_distance(z1)) / (1.0 + z2)
    }

    /// Comoving volume between redshift shells over a survey area of
    /// `area` steradians: `area/3 · (D_C(z2)³ − D_C(z1)³)` in `(c/H0)³`.
    pub fn comoving_volume(&self, z1: f64, z2: f64, area: f64) -> f64 {
        let (z1, z2) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        let d1 = self.comoving_distance(z1);
        let d2 = self.comoving_distance(z2);
        area / 3.0 * (d2.powi(3) - d1.powi(3))
    }
}

/// `GalAge(z)` — age of a galaxy's light-emission epoch (1-D UDF of Q1).
#[derive(Debug, Clone)]
pub struct GalAge(pub Cosmology);

impl UdfFunction for GalAge {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.0.age_at(x[0].max(0.0))
    }
    fn name(&self) -> &str {
        "GalAge"
    }
}

/// `ComoveVol(z1, z2)` with a fixed survey area (2-D UDF of Q2).
#[derive(Debug, Clone)]
pub(crate) struct ComoveVol {
    /// Cosmology parameters.
    pub cosmology: Cosmology,
    /// Survey area in steradians (Q2's constant `AREA`).
    pub area: f64,
}

impl UdfFunction for ComoveVol {
    fn dim(&self) -> usize {
        2
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.cosmology
            .comoving_volume(x[0].max(0.0), x[1].max(0.0), self.area)
    }
    fn name(&self) -> &str {
        "ComoveVol"
    }
}

/// `AngDist(z1, z2)` — angular-diameter distance between two redshifts
/// (2-D; the paper's fastest UDF).
#[derive(Debug, Clone)]
pub(crate) struct AngDist(pub Cosmology);

impl UdfFunction for AngDist {
    fn dim(&self) -> usize {
        2
    }
    fn eval(&self, x: &[f64]) -> f64 {
        self.0
            .angular_diameter_distance2(x[0].max(0.0), x[1].max(0.0))
    }
    fn name(&self) -> &str {
        "AngDist"
    }
}

/// Paper-reported evaluation times, used as the simulated cost when the
/// harness wants the authors' testbed cost profile instead of ours.
pub fn paper_eval_time(name: &str) -> Option<std::time::Duration> {
    let micros = match name {
        "AngDist" => 2.98,
        "GalAge" => 290.72,
        "ComoveVol" => 1820.85,
        _ => return None,
    };
    Some(std::time::Duration::from_nanos((micros * 1000.0) as u64))
}

/// Wrap the three astro UDFs the paper benchmarks as black boxes with the
/// paper's nominal costs.
pub fn astro_udfs(cosmology: Cosmology, area: f64) -> Vec<BlackBoxUdf> {
    let mk = |f: Arc<dyn UdfFunction>| {
        let cost = paper_eval_time(f.name()).expect("known astro UDF");
        BlackBoxUdf::new(f, CostModel::Simulated(cost))
    };
    vec![
        mk(Arc::new(AngDist(cosmology))),
        mk(Arc::new(GalAge(cosmology))),
        mk(Arc::new(ComoveVol { cosmology, area })),
    ]
}

/// A synthetic SDSS-like galaxy catalog: each row has an object id and a
/// Gaussian-uncertain redshift (photometric-redshift style errors).
#[derive(Debug, Clone)]
pub struct GalaxyCatalog {
    rows: Vec<GalaxyRow>,
}

/// One catalog row.
#[derive(Debug, Clone)]
pub struct GalaxyRow {
    /// Object identifier.
    pub obj_id: u64,
    /// Redshift mean (photometric estimate).
    pub z_mean: f64,
    /// Redshift standard deviation (photometric error).
    pub z_sigma: f64,
}

impl GalaxyCatalog {
    /// Generate `n` galaxies with redshift means in `[0.02, 2.0]` and
    /// photometric errors σ ∈ `[0.005, 0.1]` — the regime the paper's SDSS
    /// extraction targets.
    pub fn generate(n: usize, rng: &mut dyn rand::RngCore) -> Self {
        let rows = (0..n)
            .map(|i| GalaxyRow {
                obj_id: i as u64,
                z_mean: rng.gen_range(0.02..2.0),
                z_sigma: rng.gen_range(0.005..0.1),
            })
            .collect();
        GalaxyCatalog { rows }
    }

    /// Rows.
    pub fn rows(&self) -> &[GalaxyRow] {
        &self.rows
    }

    /// Number of galaxies.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The 1-D uncertain input for `GalAge` on row `i`.
    pub fn galage_input(&self, i: usize) -> InputDistribution {
        let r = &self.rows[i];
        InputDistribution::diagonal_gaussian(&[(r.z_mean, r.z_sigma)]).expect("valid catalog row")
    }

    /// The 2-D uncertain input `(z_i, z_j)` for `AngDist` / `ComoveVol` on a
    /// pair of rows.
    pub fn pair_input(&self, i: usize, j: usize) -> InputDistribution {
        let (a, b) = (&self.rows[i], &self.rows[j]);
        InputDistribution::diagonal_gaussian(&[(a.z_mean, a.z_sigma), (b.z_mean, b.z_sigma)])
            .expect("valid row")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cosmo() -> Cosmology {
        Cosmology::default()
    }

    #[test]
    fn hubble_rate_properties() {
        let c = cosmo();
        assert!(
            (c.e(0.0) - 1.0).abs() < 1e-12,
            "E(0) = 1 in a flat universe"
        );
        assert!(c.e(1.0) > c.e(0.0), "E grows with z");
    }

    #[test]
    fn comoving_distance_monotone_and_zero_at_origin() {
        let c = cosmo();
        assert_eq!(c.comoving_distance(0.0), 0.0);
        let mut prev = 0.0;
        for i in 1..=20 {
            let d = c.comoving_distance(i as f64 * 0.1);
            assert!(d > prev);
            prev = d;
        }
        // Known value: D_C(1) ≈ 0.7857 c/H0 for Ω_M = 0.27 (cross-checked
        // against a trapezoid integration at 10⁶ points).
        let d1 = c.comoving_distance(1.0);
        assert!((d1 - 0.7857).abs() < 5e-3, "D_C(1) = {d1}");
    }

    #[test]
    fn age_decreases_with_redshift() {
        let c = cosmo();
        let t0 = c.age_at(0.0);
        // Present age ≈ 0.992 / H0 for (0.27, 0.73).
        assert!((t0 - 0.992).abs() < 5e-3, "t(0) = {t0}");
        let mut prev = t0;
        for i in 1..=10 {
            let t = c.age_at(i as f64 * 0.5);
            assert!(t < prev, "age must decrease with z");
            prev = t;
        }
        // Matter-dominated early universe: t(z) → (2/3)/sqrt(Ω_M) (1+z)^{-3/2}.
        let z: f64 = 50.0;
        let expect = 2.0 / 3.0 / c.omega_m.sqrt() * (1.0 + z).powf(-1.5);
        let got = c.age_at(z);
        assert!(
            (got - expect).abs() / expect < 0.05,
            "t({z}) = {got}, matter-era ≈ {expect}"
        );
    }

    #[test]
    fn angdist_symmetric_and_zero_on_diagonal() {
        let c = cosmo();
        assert!(c.angular_diameter_distance2(0.5, 0.5).abs() < 1e-12);
        let a = c.angular_diameter_distance2(0.3, 1.2);
        let b = c.angular_diameter_distance2(1.2, 0.3);
        assert!((a - b).abs() < 1e-12, "argument order must not matter");
        assert!(a > 0.0);
    }

    #[test]
    fn comoving_volume_additive_in_shells() {
        let c = cosmo();
        let area = 0.1;
        let v02 = c.comoving_volume(0.0, 2.0, area);
        let v01 = c.comoving_volume(0.0, 1.0, area);
        let v12 = c.comoving_volume(1.0, 2.0, area);
        assert!((v02 - (v01 + v12)).abs() < 1e-9);
        assert!(v01 > 0.0 && v12 > 0.0);
    }

    #[test]
    fn udf_wrappers_wire_through() {
        let udfs = astro_udfs(cosmo(), 0.1);
        assert_eq!(udfs.len(), 3);
        assert_eq!(udfs[0].name(), "AngDist");
        assert_eq!(udfs[1].name(), "GalAge");
        assert_eq!(udfs[1].dim(), 1);
        assert_eq!(udfs[2].dim(), 2);
        let age = udfs[1].eval(&[0.5]);
        assert!(age > 0.0 && age < 1.0);
    }

    #[test]
    fn catalog_generation_and_inputs() {
        let mut rng = StdRng::seed_from_u64(42);
        let cat = GalaxyCatalog::generate(50, &mut rng);
        assert_eq!(cat.len(), 50);
        for r in cat.rows() {
            assert!(r.z_mean >= 0.02 && r.z_mean < 2.0);
            assert!(r.z_sigma >= 0.005 && r.z_sigma < 0.1);
        }
        let inp = cat.galage_input(3);
        assert_eq!(inp.dim(), 1);
        let pair = cat.pair_input(0, 1);
        assert_eq!(pair.dim(), 2);
        let s = pair.sample(&mut rng);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn paper_eval_times_known() {
        assert!(paper_eval_time("GalAge").is_some());
        assert!(paper_eval_time("nope").is_none());
        assert!(paper_eval_time("ComoveVol").unwrap() > paper_eval_time("AngDist").unwrap());
    }

    #[test]
    fn differential_volume_is_derivative_of_shell_volume() {
        // d/dz [V(0, z, Ω)] = Ω · D_C(z)²/E(z) — check by central difference.
        let c = cosmo();
        let area = 0.25;
        for z in [0.3, 0.8, 1.5] {
            let h = 1e-4;
            let fd = (c.comoving_volume(0.0, z + h, area) - c.comoving_volume(0.0, z - h, area))
                / (2.0 * h);
            let analytic = area * c.comoving_distance(z).powi(2) / c.e(z);
            assert!(
                (fd - analytic).abs() < 1e-5 * analytic,
                "z = {z}: fd {fd} vs analytic {analytic}"
            );
        }
    }
}
