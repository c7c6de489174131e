//! The per-query and engine-level statistics registry.

use std::fmt;
use std::time::Duration;

/// Counters for one subscription, updated after every micro-batch.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Subscription name (for reports).
    pub query: String,
    /// Tuples examined.
    pub tuples_in: u64,
    /// Tuples emitted (survived any predicate).
    pub kept: u64,
    /// Tuples dropped by online filtering.
    pub filtered: u64,
    /// Tuples settled by the parallel read-only fast path — accepted or
    /// filtered there.
    pub fast_path: u64,
    /// Tuples that needed the sequential (model-mutating) slow path.
    pub slow_path: u64,
    /// UDF invocations attributed to this subscription.
    pub udf_calls: u64,
    /// Tuples emitted at a degraded (achieved) error bound because the
    /// GP model cap blocked further online tuning — nonzero only for
    /// capped GP subscriptions ([`QuerySpec::max_model_points`]).
    ///
    /// [`QuerySpec::max_model_points`]: crate::session::QuerySpec::max_model_points
    pub cap_hits: u64,
    /// Micro-batches processed.
    pub batches: u64,
    /// Wall-clock time this subscription spent evaluating.
    pub busy: Duration,
}

impl StreamStats {
    /// Add one micro-batch's counter block.
    pub(crate) fn absorb(&mut self, c: udf_core::BatchCounts) {
        self.tuples_in += c.tuples_in;
        self.kept += c.kept();
        self.filtered += c.filtered();
        self.fast_path += c.accepted_fast + c.filtered_fast;
        self.slow_path += c.slow();
        self.udf_calls += c.udf_calls;
        self.cap_hits += c.cap_hits;
    }

    /// Fraction of examined tuples that survived filtering (1.0 with no
    /// predicate). `None` before any tuple arrived.
    pub fn selectivity(&self) -> Option<f64> {
        (self.tuples_in > 0).then(|| self.kept as f64 / self.tuples_in as f64)
    }

    /// Mean evaluation latency per examined tuple.
    pub fn mean_latency(&self) -> Option<Duration> {
        (self.tuples_in > 0)
            .then(|| Duration::from_secs_f64(self.busy.as_secs_f64() / self.tuples_in as f64))
    }

    /// Tuples per second over this subscription's busy time.
    pub fn throughput(&self) -> Option<f64> {
        let secs = self.busy.as_secs_f64();
        (secs > 0.0).then(|| self.tuples_in as f64 / secs)
    }

    /// Fraction of tuples served without touching the model.
    pub fn fast_path_fraction(&self) -> Option<f64> {
        let routed = self.fast_path + self.slow_path;
        (routed > 0).then(|| self.fast_path as f64 / routed as f64)
    }
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let line = udf_obs::fmt::KvLine::new()
            .label(&self.query, 16)
            .field_pad("in", self.tuples_in, 8)
            .field_pad("kept", self.kept, 8)
            .field_pad("filtered", self.filtered, 7)
            .field_pad("fast", self.fast_path, 8)
            .field_pad("slow", self.slow_path, 5)
            .field_pad("calls", self.udf_calls, 9)
            .field_pad("cap_hits", self.cap_hits, 5)
            .raw(&format!(
                "{:>9.0} tup/s  {:>8.1} µs/tup",
                self.throughput().unwrap_or(0.0),
                self.mean_latency().unwrap_or(Duration::ZERO).as_secs_f64() * 1e6,
            ));
        f.write_str(&line.finish())
    }
}

/// Engine-level counters for one [`run`](crate::session::Session::run).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Tuples ingested from the source this run.
    pub tuples: u64,
    /// Micro-batches dispatched this run.
    pub batches: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Worker threads in use.
    pub workers: usize,
    /// Subscriptions served.
    pub queries: usize,
}

impl EngineStats {
    /// End-to-end tuple throughput: `tuples × queries / elapsed` counts one
    /// unit of work per (tuple, subscription) pair.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            (self.tuples * self.queries as u64) as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tuples × {} queries in {:.3}s ({} batches, {} workers): {:.0} tuple-evals/s",
            self.tuples,
            self.queries,
            self.elapsed.as_secs_f64(),
            self.batches,
            self.workers,
            self.throughput(),
        )
    }
}

/// A compact record of one emitted tuple, kept in a bounded ring buffer for
/// inspection (dashboards, examples, tests).
#[derive(Debug, Clone, Copy)]
pub struct KeptSummary {
    /// Global index of the source tuple.
    pub tuple: u64,
    /// Median of the output distribution.
    pub median: f64,
    /// Attached total error bound.
    pub error_bound: f64,
    /// Tuple-existence probability (1.0 without a predicate).
    pub tep: f64,
}

/// FNV-1a accumulator hashing emitted distributions byte-for-byte; equal
/// digests across configurations witness the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one 64-bit word into the digest.
    pub fn push_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a float's exact bit pattern into the digest.
    pub fn push_f64(&mut self, value: f64) {
        self.push_u64(value.to_bits());
    }

    /// Fold every sample of an ECDF into the digest.
    pub fn push_ecdf(&mut self, ecdf: &udf_prob::Ecdf) {
        self.push_u64(ecdf.len() as u64);
        for &v in ecdf.values() {
            self.push_f64(v);
        }
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.push_f64(1.0);
        a.push_f64(2.0);
        let mut b = Digest::default();
        b.push_f64(2.0);
        b.push_f64(1.0);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.push_f64(1.0);
        c.push_f64(2.0);
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn stats_ratios() {
        let stats = StreamStats {
            query: "q".into(),
            tuples_in: 10,
            kept: 4,
            filtered: 6,
            fast_path: 8,
            slow_path: 2,
            udf_calls: 100,
            cap_hits: 0,
            batches: 1,
            busy: Duration::from_millis(5),
        };
        assert_eq!(stats.selectivity(), Some(0.4));
        assert_eq!(stats.fast_path_fraction(), Some(0.8));
        assert!(stats.throughput().unwrap() > 0.0);
        let empty = StreamStats::default();
        assert_eq!(empty.selectivity(), None);
        assert_eq!(empty.mean_latency(), None);
    }
}
