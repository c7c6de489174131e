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
//! * [`monitor`] — the `cap_hits_burst` alert behind the REPL's `\top`:
//!   each [`Monitor::tick`] reads the registry once and fires an
//!   [`AlertRule`] while its counter grows between ticks. Same hard rules:
//!   ticking only reads snapshots.
//! * [`fmt`] — the shared `key=value` stats-line builder every report
//!   block (REPL, stream session, join executor, examples) renders with.

pub mod fmt;
mod metrics;
pub mod monitor;
mod registry;

pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, Span,
    HISTOGRAM_BUCKETS,
};
pub use monitor::{AlertEvent, AlertRule, Monitor};
pub use registry::{MetricsRegistry, Snapshot};
