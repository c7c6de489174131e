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
//! * [`TraceBuffer`] — structured event tracing: per-worker lock-free
//!   ring buffers of typed [`TraceEvent`]s with causal context (why a
//!   tuple rerouted, when a model hit its cap, which join pair failed
//!   certification). Summarized per statement by `EXPLAIN TRACE`,
//!   exported to chrome://tracing via
//!   [`TraceBuffer::to_chrome_json`]. Both hard rules above apply
//!   unchanged: tracing is output-blind and a disabled buffer costs one
//!   relaxed load and a branch per emit.
//! * [`monitor`] — the `cap_hits_burst` alert behind the REPL's `\top`:
//!   each [`Monitor::tick`] reads the registry once and fires an
//!   [`AlertRule`] while its counter grows between ticks.
//!   [`collapsed_stacks`] folds the trace ring's phase brackets into
//!   flamegraph-compatible `a;b;c count` lines. Same hard rules: ticking
//!   only reads snapshots.
//! * [`Obs`] — the one handle a component is wired with: the registry and
//!   the trace buffer together, passed once at construction.
//! * [`json`] — the hand-rolled JSON writer behind the chrome export, a
//!   validator, and the small materializing parser its
//!   round-trip tests read the output back with; there is no serde in
//!   this workspace.
//! * [`fmt`] — the shared `key=value` stats-line builder every report
//!   block (REPL, stream session, join executor, examples) renders with.

mod chrome;
pub mod fmt;
pub mod json;
mod metrics;
pub mod monitor;
mod profile;
mod registry;
mod trace;

pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, Span,
    HISTOGRAM_BUCKETS,
};
pub use monitor::{AlertEvent, AlertRule, Monitor};
pub use profile::collapsed_stacks;
pub use registry::{MetricsRegistry, Snapshot};
pub use trace::{RerouteReason, TimedEvent, TraceBuffer, TraceEvent, TracePhase, TraceSummary};

/// The observability context a component is wired with: one metrics
/// registry and one trace buffer, handed over together (`with_obs`) so no
/// layer threads the two separately. Cloning shares both.
#[derive(Clone, Debug)]
pub struct Obs {
    /// Where the component registers its named handles.
    pub metrics: MetricsRegistry,
    /// Where the component emits its structured events.
    pub tracer: TraceBuffer,
}

impl Obs {
    /// The no-op context (what un-wired components behave as): a
    /// switched-off registry and a disabled trace buffer.
    pub fn disabled() -> Self {
        Obs {
            metrics: MetricsRegistry::disabled(),
            tracer: TraceBuffer::disabled(),
        }
    }
}
