//! The UDF catalog: named, registered UDFs with input-domain metadata.
//!
//! Before this registry every consumer (examples, benches, the UQL
//! front-end) re-built the same `BlackBoxUdf` wrappers by hand and guessed
//! output ranges ad hoc. A [`UdfCatalog`] owns that once: each entry pairs
//! the black-box function with the metadata a planner needs — the input
//! domain it is meant to be evaluated on and an output-range estimate that
//! scales Γ and λ for the GP path.
//!
//! [`UdfCatalog::standard`] registers the paper's evaluation surface: the
//! four synthetic Fig. 4 functions `F1`–`F4` (§6.1-A, 1-D instantiation)
//! and the three benchmarked astrophysics UDFs `GalAge`, `ComoveVol`,
//! `AngDist` (§6.4) with their paper-reported nominal costs.

use crate::astro::{paper_eval_time, AngDist, ComoveVol, Cosmology, GalAge};
use crate::synthetic::{PaperFunction, DOMAIN};
use std::collections::BTreeMap;
use std::sync::Arc;
use udf_core::udf::{BlackBoxUdf, CostModel, UdfFunction};

/// Default survey area (steradians) for the registered `ComoveVol`.
pub(crate) const DEFAULT_AREA: f64 = 0.1;

/// One registered UDF plus the metadata a query planner needs.
#[derive(Debug, Clone)]
pub struct UdfEntry {
    /// The black-box function and its cost (cheap to clone).
    pub udf: BlackBoxUdf,
    /// Per-dimension input domain `[lo, hi]` the UDF is meant for.
    pub domain: Vec<(f64, f64)>,
    /// Output-spread estimate used to scale Γ and λ on the GP path.
    pub output_range: f64,
    /// One-line description for catalogs and REPL listings.
    pub description: String,
}

impl UdfEntry {
    /// Build an entry, probing the output range on a coarse grid over
    /// `domain` when `output_range` is `None`. The probe is catalog setup,
    /// not query work: no evaluator makes its calls, so no `udf_calls`
    /// reports them.
    pub fn probed(
        f: Arc<dyn UdfFunction>,
        cost: CostModel,
        domain: Vec<(f64, f64)>,
        output_range: Option<f64>,
        description: impl Into<String>,
    ) -> Self {
        assert_eq!(f.dim(), domain.len(), "domain arity must match UDF dim");
        let output_range = output_range.unwrap_or_else(|| probe_output_range(f.as_ref(), &domain));
        UdfEntry {
            udf: BlackBoxUdf::new(f, cost),
            domain,
            output_range,
            description: description.into(),
        }
    }

    /// The UDF's input dimensionality.
    pub fn dim(&self) -> usize {
        self.udf.dim()
    }

    /// The paper's default λ for this UDF: 1% of the output range (§6.1-C).
    pub fn default_lambda(&self) -> f64 {
        0.01 * self.output_range
    }
}

/// Max − min of `f` over an 8-points-per-dimension grid on `domain`,
/// floored away from zero so it is always a valid range estimate.
fn probe_output_range(f: &dyn UdfFunction, domain: &[(f64, f64)]) -> f64 {
    const PROBES: usize = 8;
    let d = domain.len();
    let total = PROBES.pow(d as u32);
    let mut x = vec![0.0; d];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for idx in 0..total {
        let mut rest = idx;
        for (xi, &(a, b)) in x.iter_mut().zip(domain) {
            let step = rest % PROBES;
            rest /= PROBES;
            *xi = a + (b - a) * step as f64 / (PROBES - 1) as f64;
        }
        let y = f.eval(&x);
        if y.is_finite() {
            lo = lo.min(y);
            hi = hi.max(y);
        }
    }
    if lo < hi {
        hi - lo
    } else {
        1.0
    }
}

/// A name → [`UdfEntry`] registry (names are matched case-insensitively,
/// listed in sorted order).
#[derive(Debug, Clone, Default)]
pub struct UdfCatalog {
    entries: BTreeMap<String, UdfEntry>,
}

impl UdfCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        UdfCatalog::default()
    }

    /// The paper's evaluation surface: `F1`–`F4` (1-D synthetic, §6.1-A)
    /// plus `GalAge`, `ComoveVol`, `AngDist` (§6.4) with the paper's
    /// nominal per-call costs and `DEFAULT_AREA` for `ComoveVol`.
    pub fn standard() -> Self {
        let mut cat = UdfCatalog::new();
        for pf in PaperFunction::ALL {
            let f = pf.instantiate(1);
            let range = f.output_range();
            cat.register(UdfEntry::probed(
                Arc::new(f),
                CostModel::Free,
                vec![DOMAIN],
                Some(range),
                format!("synthetic Fig. 4 function {} (1-D)", pf.label()),
            ));
        }
        let cosmo = Cosmology::default();
        let z = (0.0, 2.0); // the catalog's redshift regime
        let astro_cost = |name: &str| CostModel::Simulated(paper_eval_time(name).expect("known"));
        cat.register(UdfEntry::probed(
            Arc::new(GalAge(cosmo)),
            astro_cost("GalAge"),
            vec![z],
            None,
            "age of the universe at redshift z (1-D, §6.4)".to_string(),
        ));
        cat.register(UdfEntry::probed(
            Arc::new(ComoveVol {
                cosmology: cosmo,
                area: DEFAULT_AREA,
            }),
            astro_cost("ComoveVol"),
            vec![z, z],
            None,
            "comoving volume between redshift shells (2-D, §6.4)".to_string(),
        ));
        cat.register(UdfEntry::probed(
            Arc::new(AngDist(cosmo)),
            astro_cost("AngDist"),
            vec![z, z],
            None,
            "angular-diameter distance between two redshifts (2-D, §6.4)".to_string(),
        ));
        cat
    }

    /// Register (or replace) an entry under its UDF's name.
    pub fn register(&mut self, entry: UdfEntry) {
        self.entries.insert(entry.udf.name().to_string(), entry);
    }

    /// Look up an entry by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&UdfEntry> {
        self.entries
            .get(name)
            .or_else(|| self.find_case_insensitive(name))
    }

    fn find_case_insensitive(&self, name: &str) -> Option<&UdfEntry> {
        self.entries
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Iterate entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &UdfEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_has_paper_surface() {
        let cat = UdfCatalog::standard();
        assert_eq!(cat.names().len(), 7);
        for name in ["F1", "F2", "F3", "F4", "GalAge", "ComoveVol", "AngDist"] {
            let e = cat.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(e.output_range > 0.0 && e.output_range.is_finite());
            assert_eq!(e.dim(), e.domain.len());
            assert!(e.default_lambda() > 0.0);
        }
        assert_eq!(cat.get("GalAge").unwrap().dim(), 1);
        assert_eq!(cat.get("ComoveVol").unwrap().dim(), 2);
        assert_eq!(cat.get("AngDist").unwrap().dim(), 2);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let cat = UdfCatalog::standard();
        assert!(cat.get("galage").is_some());
        assert!(cat.get("COMOVEVOL").is_some());
        assert!(cat.get("nope").is_none());
    }

    #[test]
    fn probed_range_is_sane() {
        // GalAge over z ∈ [0, 2]: ages run ≈ 0.99 → 0.34 in 1/H0 units.
        let cat = UdfCatalog::standard();
        let r = cat.get("GalAge").unwrap().output_range;
        assert!((0.3..1.2).contains(&r), "GalAge range {r}");
    }

    #[test]
    fn register_replaces_by_name() {
        let mut cat = UdfCatalog::new();
        assert!(cat.names().is_empty());
        let mk = |range| {
            UdfEntry::probed(
                Arc::new(crate::synthetic::GaussianMixtureFn::generate(
                    "G", 1, 1, 1.0, 1,
                )),
                CostModel::Free,
                vec![DOMAIN],
                Some(range),
                "test",
            )
        };
        cat.register(mk(1.0));
        cat.register(mk(2.0));
        assert_eq!(cat.names().len(), 1);
        assert_eq!(cat.get("G").unwrap().output_range, 2.0);
        assert_eq!(cat.names(), vec!["G"]);
    }
}
