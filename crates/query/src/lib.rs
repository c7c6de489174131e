//! A minimal relational executor over uncertain tuples.
//!
//! The paper's motivating queries (§1) invoke UDFs inside SELECT lists and
//! WHERE clauses over relations whose attributes carry distributions:
//!
//! ```sql
//! Q1: SELECT G.objID, GalAge(G.redshift) FROM Galaxy G
//! Q2: SELECT ..., ComoveVol(G1.redshift, G2.redshift, AREA)
//!     FROM Galaxy G1, Galaxy G2
//!     WHERE Distance(G1.pos, G2.pos) IN [l, u]
//! ```
//!
//! This crate provides the substrate to run such queries end-to-end:
//! relations with per-attribute marginals ([`Value`]), a nested-loop join,
//! UDF projection, and UDF selection with tuple-existence-probability
//! filtering, all parameterized by evaluation strategy (MC or OLGAPRO).

pub(crate) mod executor;
pub(crate) mod relation;

pub use executor::{EvalStrategy, Executor, ProjectedTuple};
pub use relation::{Relation, Schema, Tuple, UdfCall};
pub use udf_prob::Value;
