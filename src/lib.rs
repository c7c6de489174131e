//! # udf-uncertain
//!
//! A Rust implementation of **"Supporting User-Defined Functions on
//! Uncertain Data"** (Tran, Diao, Sutton, Liu — VLDB 2013).
//!
//! Given a black-box UDF `f` and an uncertain input tuple `X ~ p(x)`, the
//! library computes the distribution of `Y = f(X)` with user-specified
//! `(ε, δ)` accuracy under the discrepancy / λ-discrepancy / KS metrics,
//! using either direct Monte Carlo sampling or the paper's Gaussian-process
//! emulation pipeline (**OLGAPRO**) which can be up to two orders of
//! magnitude faster for expensive UDFs.
//!
//! ## Quickstart
//!
//! ```
//! use udf_uncertain::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A black-box UDF (imagine it is an expensive C program).
//! let udf = BlackBoxUdf::from_fn("halflife", 1, |x| (-(x[0]) / 3.0).exp());
//!
//! // An uncertain attribute: N(2.0, 0.3²).
//! let input = InputDistribution::diagonal_gaussian(&[(2.0, 0.3)]).unwrap();
//!
//! // Accuracy: with probability 0.95, λ-discrepancy below 0.2.
//! let acc = AccuracyRequirement::new(0.2, 0.05, 0.01, Metric::Discrepancy).unwrap();
//! let cfg = OlgaproConfig::new(acc, 1.0).unwrap();
//!
//! let mut olgapro = Olgapro::new(udf, cfg);
//! let mut rng = StdRng::seed_from_u64(1);
//! let out = olgapro.process(&input, &mut rng).unwrap();
//! assert!(out.error_bound() <= 0.2 + 1e-9);
//! let median = out.y_hat.quantile(0.5);
//! assert!((median - (-2.0f64 / 3.0).exp()).abs() < 0.1);
//! ```
//!
//! See the crate-level docs of [`udf_core`], [`udf_gp`], [`udf_prob`],
//! [`udf_query`], [`udf_join`], [`udf_workloads`], [`udf_stream`], and [`udf_lang`] (the
//! UQL declarative front-end) for the full API, and README.md's
//! "Benchmarks" section for the paper-reproduction harness.

pub use udf_core as core;
pub use udf_gp as gp;
pub use udf_join as join;
pub use udf_lang as lang;
pub use udf_linalg as linalg;
pub use udf_obs as obs;
pub use udf_prob as prob;
pub use udf_query as query;
pub use udf_spatial as spatial;
pub use udf_stream as stream;
pub use udf_workloads as workloads;

/// The items most applications need.
pub mod prelude {
    pub use udf_core::batch::{BatchCounts, BatchSpec, Evaluator};
    pub use udf_core::config::{AccuracyRequirement, Metric, OlgaproConfig, RetrainStrategy};
    pub use udf_core::filtering::{mc_eval_tuple, FilterDecision, Predicate};
    pub use udf_core::olgapro::Olgapro;
    pub use udf_core::output::{GpOutput, OutputDistribution, TuneStop};
    pub use udf_core::sched::{mix_seed, BatchOps, BatchScheduler, Verdict};
    pub use udf_core::udf::{BlackBoxUdf, CostModel, FnUdf, UdfFunction};
    pub use udf_join::{JoinExecutor, JoinOutput, JoinSpec, JoinedPair, OnCondition, Side};
    pub use udf_lang::{run_uql, Context as UqlContext, LangError, QueryOutput};
    pub use udf_obs::{MetricsRegistry, Snapshot};
    pub use udf_prob::{Ecdf, InputDistribution, Value};
    pub use udf_query::{EvalStrategy, Executor, Relation, Schema, Tuple, UdfCall};
    pub use udf_stream::{
        AstroSource, EngineConfig, QueryId, QuerySpec, Session, Source, StreamStrategy,
        SyntheticSource, VecSource,
    };
    pub use udf_workloads::{UdfCatalog, UdfEntry};
}
