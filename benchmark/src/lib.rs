//! The repository's benchmark: four long single-worker UQL workloads
//! measured end to end (`udf-bench-e2e`) and decomposed layer by layer from
//! the outside in (`udf-bench-ladder`). See `README.md` for why each
//! workload and metric exists and how to run them.
//!
//! This library holds what both binaries share and touches the engine only
//! through its front door (`Context`, `run_uql`, registration, row fields),
//! so the end-to-end binary keeps compiling when an engine internal is
//! renamed; only the ladder names internals.

pub mod cli;
pub mod env;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;
