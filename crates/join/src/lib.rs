//! # udf-join — the uncertain θ-join subsystem
//!
//! The paper's §1 motivating query Q2 is a *self-join*: find galaxy pairs
//! whose `AngDist(a, b)` falls in a range with probability ≥ θ. This crate
//! executes that shape end to end:
//!
//! * a [`JoinSpec`] names the two sides (by their aliases), an
//!   optional `ON` pair filter over deterministic key columns, the pair
//!   UDF with per-side argument bindings, and the
//!   `Pr[f(a, b) ∈ [lo, hi]] ≥ θ` predicate;
//! * the [`JoinExecutor`] enumerates the candidate pairs once
//!   ([`Relation::pairs`](udf_query::Relation::pairs)), builds each pair's
//!   input from the two sides, and calls the batch operator
//!   ([`udf_core::batch::Evaluator`]) on them, as the relation and stream
//!   front-ends do — one warm OLGAPRO model amortizes across all O(n²)
//!   pairs, and results are byte-identical to running
//!   [`Relation::cross_join`](udf_query::Relation::cross_join) and the
//!   relation executor's batch calls by hand, for any worker count.
//!
//! ```
//! use udf_core::config::{AccuracyRequirement, Metric};
//! use udf_core::filtering::Predicate;
//! use udf_core::sched::BatchScheduler;
//! use udf_core::udf::BlackBoxUdf;
//! use udf_join::{JoinExecutor, JoinSpec, Side};
//! use udf_query::{EvalStrategy, Relation, Schema, Tuple, Value};
//!
//! let schema = Schema::new(&["objID", "z"]);
//! let tuples = (0..8)
//!     .map(|i| {
//!         Tuple::new(vec![
//!             Value::Det(i as f64),
//!             Value::Gaussian { mu: 0.2 + 0.2 * i as f64, sigma: 0.02 },
//!         ])
//!     })
//!     .collect();
//! let sky = Relation::new(schema, tuples).unwrap();
//!
//! let zdist = BlackBoxUdf::from_fn("zdist", 2, |x| (x[0] - x[1]).abs());
//! let acc = AccuracyRequirement::new(0.15, 0.05, 0.01, Metric::Discrepancy).unwrap();
//! let spec = JoinSpec::new(&sky, "a", &sky, "b", zdist, &[(Side::Left, "z"), (Side::Right, "z")], acc, 1.5)
//!     .unwrap()
//!     .on_less_than((Side::Left, "objID"), (Side::Right, "objID"))
//!     .unwrap()
//!     .predicate(Predicate::new(0.15, 0.25, 0.5).unwrap())
//!     .strategy(EvalStrategy::Gp)
//!     .seed(7);
//! let sched = BatchScheduler::new(2);
//! let out = JoinExecutor::new(&spec).unwrap().run(&sched).unwrap();
//! assert_eq!(out.stats.tuples_in, 28); // 8·7/2 ordered pairs
//! assert!(!out.rows.is_empty());
//! ```

pub(crate) mod executor;
pub(crate) mod spec;

pub use executor::{warmup_indices, JoinExecutor, JoinOutput, JoinedPair};
pub use spec::{JoinAttr, JoinSpec, OnCondition, Side};
