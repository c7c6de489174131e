//! # udf-stream — a continuous-query engine over uncertain-tuple streams
//!
//! The paper (Tran, Diao, Sutton & Liu, VLDB 2013) targets *online* UDF
//! evaluation: tuples arrive on an unbounded stream and every tuple must be
//! answered with a distribution meeting the user's `(ε, δ)` requirement.
//! The rest of this workspace provides the per-tuple machinery (Monte Carlo
//! and early filtering in `udf_core::filtering`, OLGAPRO in
//! `udf_core::olgapro`, the batch operator in `udf_core::batch`); this
//! crate turns it into a long-running, multi-query engine:
//!
//! * [`Source`] — unbounded/finite producers of uncertain tuples, with
//!   adapters for the synthetic §6.1 workload generators and the
//!   astrophysics catalog;
//! * [`Session`] — the engine: register many concurrent `(query, UDF)`
//!   subscriptions, then drive them all over one stream.
//!   Its run loop pulls each micro-batch from the source on the calling
//!   thread and runs it through [`udf_core::batch::Evaluator`] on the
//!   workers of one [`udf_core::sched::BatchScheduler`] — the same
//!   operator the `udf_query` executor and `udf_join` call;
//! * per-query online filtering: subscriptions with a selection
//!   [`Predicate`](udf_core::filtering::Predicate) drop tuples from the
//!   envelope/Hoeffding upper bounds before paying for full evaluation;
//! * per-query [`BatchCounts`](udf_core::batch::BatchCounts) — the same counter
//!   block the relational executor and the join report, `cap_hits`
//!   included — beside each subscription's determinism
//!   [`digest`](Session::digest) and a ring of its most recent kept tuples
//!   ([`recent`](Session::recent)): the one place a
//!   subscription reports itself.
//!
//! ## Determinism
//!
//! The engine inherits the contract documented in `udf_core::sched`: the
//! RNG for each tuple is derived from `(engine seed, query id, global tuple
//! index)`, slow-path (model-mutating) work runs sequentially in tuple
//! order, and batch boundaries are fixed by the configuration — so a fixed
//! seed yields byte-identical output distributions regardless of the worker
//! count. [`Session::digest`] exposes a hash of
//! every emitted distribution as the cheap witness of that guarantee.
//!
//! ## Quickstart
//!
//! ```
//! use udf_stream::{EngineConfig, QuerySpec, Session, StreamStrategy, SyntheticSource};
//! use udf_core::config::{AccuracyRequirement, Metric};
//! use udf_core::udf::BlackBoxUdf;
//!
//! let acc = AccuracyRequirement::new(0.2, 0.05, 0.02, Metric::Discrepancy).unwrap();
//! let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
//!
//! let mut session = Session::new(EngineConfig::new().workers(2).batch_size(64).seed(7));
//! let q = session
//!     .subscribe(QuerySpec::new("sin-stream", udf, acc, StreamStrategy::Gp).output_range(2.0))
//!     .unwrap();
//!
//! let source = SyntheticSource::gaussian(1, 0.4, 11);
//! session.run(source, Some(256)).unwrap();
//!
//! let stats = session.stats(q).unwrap();
//! assert_eq!(stats.tuples_in, 256);
//! assert_eq!(stats.kept, 256); // no predicate: everything is emitted
//! ```

pub mod health;
pub(crate) mod session;
pub(crate) mod source;
pub(crate) mod stats;

pub use health::HealthMonitor;
pub use session::{EngineConfig, QueryId, QuerySpec, Session, StreamStrategy};
pub use source::{AstroSource, Source, SyntheticSource, VecSource};
pub use stats::KeptSummary;
