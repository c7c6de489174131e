//! The observability core shared by every engine layer.
//!
//! Instrumentation here follows two hard rules:
//!
//! 1. **Metric-blind outputs.** Nothing in this crate feeds back into
//!    evaluation: counters and timers only *observe*. Seeds, digests, and
//!    ECDFs are byte-identical with metrics enabled or disabled — the
//!    determinism tests in `udf-stream` and `udf-lang` pin this.
//! 2. **Cheap enough to leave on.** Hot-path operations are lock-free
//!    (relaxed atomics); the only lock in the crate guards handle
//!    *registration*, which happens once per metric name. When a registry
//!    is disabled every operation degenerates to one relaxed load and a
//!    branch, and timers skip the `Instant::now()` syscall entirely.
//!
//! The pieces:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — cloneable, thread-safe
//!   handles over shared atomic cells. Histograms are log₂-bucketed
//!   (65 buckets cover `0..=u64::MAX`) with approximate `p50/p95/p99`
//!   and an exact `max`, sized for nanosecond latencies.
//! * [`MetricsRegistry`] — names the handles, owns the shared
//!   enabled/disabled switch, and snapshots everything into a
//!   [`Snapshot`] for rendering or per-query [`Snapshot::delta`]
//!   attribution (what `EXPLAIN ANALYZE` uses).
//! * [`fmt`] — the shared `key=value` stats-line builder every report
//!   block (REPL, stream session, join executor, examples) renders with.
//!
//! A statement reports itself, with no monitor between: its counter line
//! says how many answers the model cap degraded (`cap_hits=`), and its
//! `EXPLAIN ANALYZE` delta carries the same count as `olgapro.cap_hits`,
//! beside where its time went.

pub mod fmt;
mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Span};
pub use registry::{MetricsRegistry, Snapshot};
