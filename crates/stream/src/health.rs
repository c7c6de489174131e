//! Names the benchmark's layer ladder still imports from the stream health
//! ring, which was deleted: its throughput and reroute trends answered
//! neither where a statement's time went nor how much accuracy an answer
//! got. `benchmark/src/bin/ladder.rs` builds a [`HealthMonitor`] and hands
//! it to [`Session::with_health`](crate::Session::with_health), which
//! ignores it. ROADMAP item 11 deletes this module.

/// Formerly the sampling cadence, in micro-batches.
pub const DEFAULT_SAMPLE_EVERY: u64 = 4;

/// Formerly the ring capacity, in samples.
pub const DEFAULT_CAPACITY: usize = 128;

/// An empty stand-in for the deleted health ring.
#[derive(Debug)]
pub struct HealthMonitor;

impl HealthMonitor {
    /// The stand-in; both arguments are ignored.
    pub fn new(_every: u64, _capacity: usize) -> Self {
        HealthMonitor
    }
}
