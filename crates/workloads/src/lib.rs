//! Workloads for the evaluation (§6.1, §6.4).
//!
//! * [`synthetic`] — UDFs generated from Gaussian mixtures with controlled
//!   bumpiness and spikiness (the paper's F1–F4 family, Fig. 4) at any
//!   dimensionality, plus Gaussian uncertain-input generators (the only
//!   input marginals besides point masses: nothing outside their own tests
//!   built the gamma and exponential ones);
//! * [`astro`] — the astrophysics case study: flat-ΛCDM cosmology and the
//!   three UDFs `GalAge`, `ComoveVol`, `AngDist` re-implemented from their
//!   standard formulas (the paper used the IDL Astronomy Library — see
//!   PAPER.md, "Fidelity caveats"), and a synthetic SDSS-like galaxy
//!   catalog with Gaussian-uncertain redshifts;
//! * [`quadrature`] — adaptive Simpson integration used by the cosmology
//!   functions;
//! * [`registry`] — the named UDF catalog (function + input-domain
//!   metadata) shared by the UQL front-end, examples, and benches.

pub mod astro;
pub mod quadrature;
pub mod registry;
pub mod synthetic;

pub use astro::{Cosmology, GalaxyCatalog};
pub use registry::{UdfCatalog, UdfEntry};
pub use synthetic::{GaussianMixtureFn, PaperFunction};
