//! # udf-stream — a continuous-query engine over uncertain-tuple streams
//!
//! The paper (Tran, Diao, Sutton & Liu, VLDB 2013) targets *online* UDF
//! evaluation: tuples arrive on an unbounded stream and every tuple must be
//! answered with a distribution meeting the user's `(ε, δ)` requirement.
//! The rest of this workspace provides the per-tuple machinery (Monte Carlo
//! in `udf_core::mc`, OLGAPRO in `udf_core::olgapro`, the batch operator in
//! `udf_core::batch`, early filtering in `udf_core::filtering`); this
//! crate turns it into a long-running, multi-query engine:
//!
//! * [`source::Source`] — unbounded/finite producers of uncertain
//!   tuples, with adapters for the synthetic §6.1 workload generators and
//!   the astrophysics catalog;
//! * [`session::Session`] — register many concurrent
//!   `(query, UDF)` subscriptions, then drive them all over one stream;
//! * a micro-batching scheduler ([`engine`]) that pipelines ingest against
//!   evaluation through a bounded channel (backpressure) and runs each
//!   batch through [`udf_core::batch::Evaluator`] on the workers of one
//!   [`udf_core::sched::BatchScheduler`] — the same operator the
//!   `udf_query` executor and `udf_join` call;
//! * per-query online filtering: subscriptions with a selection
//!   [`Predicate`](udf_core::filtering::Predicate) drop tuples from the
//!   envelope/Hoeffding upper bounds before paying for full evaluation;
//! * per-query [`BatchCounts`](udf_core::BatchCounts) — the same counter
//!   block the relational executor and the join report — beside each
//!   subscription's determinism [`digest`](session::Session::digest).
//!
//! ## Determinism
//!
//! The engine inherits the contract documented in `udf_core::sched`: the
//! RNG for each tuple is derived from `(engine seed, query id, global tuple
//! index)`, slow-path (model-mutating) work runs sequentially in tuple
//! order, and batch boundaries are fixed by the configuration — so a fixed
//! seed yields byte-identical output distributions regardless of the worker
//! count. [`Session::digest`](session::Session::digest) exposes a hash of
//! every emitted distribution as the cheap witness of that guarantee.
//!
//! ## Quickstart
//!
//! ```
//! use udf_stream::prelude::*;
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
//! let source = SyntheticSource::gaussian(1, 0.4, 11).with_limit(256);
//! session.run(source, None).unwrap();
//!
//! let stats = session.stats(q).unwrap();
//! assert_eq!(stats.tuples_in, 256);
//! assert_eq!(stats.kept, 256); // no predicate: everything is emitted
//! ```

pub mod engine;
pub mod health;
pub mod session;
pub mod source;
pub mod stats;

pub use engine::{EngineConfig, StreamStrategy};
pub use health::HealthMonitor;
pub use session::{QueryId, QuerySpec, Session};
pub use source::{AstroSource, Source, SyntheticSource, VecSource};
pub use stats::KeptSummary;

use std::fmt;

/// Errors raised by the streaming engine.
#[derive(Debug)]
pub enum StreamError {
    /// Evaluation-framework failure inside a subscription.
    Core(udf_core::CoreError),
    /// A subscription's UDF dimensionality disagrees with the source.
    DimensionMismatch {
        /// Subscription name.
        query: String,
        /// The UDF's input dimensionality.
        udf_dim: usize,
        /// The source's tuple dimensionality.
        source_dim: usize,
    },
    /// The referenced query id does not exist in this session.
    UnknownQuery(usize),
    /// `run` was called with no subscriptions registered.
    NoSubscriptions,
    /// A worker thread died (a UDF panicked mid-batch).
    WorkerPanicked,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Core(e) => write!(f, "evaluation error: {e}"),
            StreamError::DimensionMismatch {
                query,
                udf_dim,
                source_dim,
            } => write!(
                f,
                "query {query:?} expects {udf_dim}-dimensional tuples but the source yields {source_dim}-dimensional ones"
            ),
            StreamError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            StreamError::NoSubscriptions => write!(f, "no subscriptions registered"),
            StreamError::WorkerPanicked => write!(f, "a worker thread panicked"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<udf_core::CoreError> for StreamError {
    fn from(e: udf_core::CoreError) -> Self {
        match e {
            // A panic the scheduler contained (a UDF that panicked on one of
            // a batch's workers) keeps its dedicated stream-level variant.
            udf_core::CoreError::WorkerPanicked { .. } => StreamError::WorkerPanicked,
            e => StreamError::Core(e),
        }
    }
}

/// Result alias for streaming operations.
pub type Result<T> = std::result::Result<T, StreamError>;

/// The items most streaming applications need.
pub mod prelude {
    pub use crate::engine::{EngineConfig, StreamStrategy};
    pub use crate::session::{QueryId, QuerySpec, Session};
    pub use crate::source::{AstroSource, Source, SyntheticSource, VecSource};
}
