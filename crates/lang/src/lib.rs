//! # udf-lang — UQL, the declarative uncertain-query front-end
//!
//! The paper's motivating queries (§1) are declarative:
//!
//! ```sql
//! SELECT GalAge(z) FROM Sky WHERE Pr[ComoveVol(z) ∈ [a, b]] ≥ θ
//! ```
//!
//! UQL is that surface as a small language over this workspace's engine: a
//! std-only lexer ([`token`]), a recursive-descent parser into a typed AST
//! ([`ast`], [`parser`]), a binder that validates names/accuracies/
//! predicates against a catalog, resolves `USING auto` by the paper's §6.3
//! rules, and produces the one physical plan that both runs and is what
//! `EXPLAIN` prints ([`plan`]), and three execution backends ([`exec`]):
//!
//! * finite relations run batch-parallel through
//!   [`udf_query::Executor::select_batch`] on a
//!   [`BatchScheduler`](udf_core::sched::BatchScheduler) — selections
//!   ride the GP-envelope filtering fast path (§5.5);
//! * `FROM rel a JOIN rel b` θ-joins (the paper's Q2 shape) lower to
//!   [`udf_join::JoinExecutor`];
//! * `FROM STREAM` queries lower to [`udf_stream::Session`] subscriptions
//!   and inherit the stream engine's determinism digests.
//!
//! Every backend reports the statement's
//! [`BatchCounts`](udf_core::BatchCounts) (a join adds its pair counts in
//! [`udf_join::JoinStats`]), and [`QueryOutput::report`] prints them as the
//! same one counter line.
//!
//! ## Quickstart
//!
//! ```
//! use udf_lang::{run_uql, Context, QueryOutput};
//! use udf_query::{Relation, Schema, Tuple, Value};
//!
//! let mut ctx = Context::standard(); // F1–F4 + GalAge/ComoveVol/AngDist
//! let tuples = (0..32)
//!     .map(|i| {
//!         Tuple::new(vec![
//!             Value::Det(i as f64),
//!             Value::Gaussian { mu: 0.1 + 0.05 * i as f64, sigma: 0.02 },
//!         ])
//!     })
//!     .collect();
//! ctx.register_relation(
//!     "sky",
//!     Relation::new(Schema::new(&["objID", "z"]), tuples).unwrap(),
//! );
//!
//! let out = run_uql(
//!     "SELECT GalAge(z) FROM sky \
//!      WHERE PR(GalAge(z) IN [0.5, 0.95]) >= 0.6 USING gp WORKERS 2 SEED 7",
//!     &mut ctx,
//! )
//! .unwrap();
//! let QueryOutput::Rows(rows) = out else { panic!("relation query") };
//! assert!(rows.stats.tuples_in == 32 && !rows.rows.is_empty());
//! ```
//!
//! Errors at any stage carry source spans and render caret diagnostics:
//!
//! ```text
//! semantic error: unknown UDF `GalAgee`
//!   | SELECT GalAgee(z) FROM sky
//!   |        ^^^^^^^
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod token;

pub use ast::{
    AttrRef, ExplainMode, JoinSource, MetricName, OnExpr, Query, Select, SourceRef, StrategyName,
};
pub use error::{LangError, Result, Span, Spanned, Stage};
pub use exec::{
    run_uql, Context, JoinRowsOutput, QueryOutput, RowsOutput, SourceFactory, StreamOutput,
};
pub use parser::parse_statement;
pub use plan::{bind, BoundQuery, JoinPlan, PhysicalPlan, RelPlan, StreamPlan};
