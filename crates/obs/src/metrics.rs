//! The atomic metric handles: counters, gauges, log₂ histograms, spans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of log₂ histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)`, and bucket 64 tops out at `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = 65;

/// The log₂ bucket a value lands in (0 → 0, 1 → 1, `u64::MAX` → 64).
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its reported quantile value).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// A monotonic event counter. Cloning shares the underlying cell; a
/// disabled handle is one relaxed load and a branch per operation.
#[derive(Clone, Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        Counter {
            enabled,
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Whether operations on this handle currently record.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Zero the counter (re-baselining between experiments).
    pub(crate) fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// A last-value (or running-max) gauge.
#[derive(Clone, Debug)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        Gauge {
            enabled,
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Whether operations on this handle currently record.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Overwrite the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Zero the gauge (re-baselining between experiments).
    pub(crate) fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Saturating sum of recorded values (never wraps).
    sum: AtomicU64,
    /// Exact maximum recorded value.
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed distribution of `u64` values — by convention
/// nanosecond latencies. Recording is lock-free: one bucket `fetch_add`,
/// a count, a saturating sum, and a `fetch_max`. Quantiles are
/// approximate (reported at the containing bucket's upper edge); `max`
/// is exact.
#[derive(Clone, Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        Histogram {
            enabled,
            core: Arc::new(HistogramCore::new()),
        }
    }

    /// Whether operations on this handle currently record.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled() {
            return;
        }
        let core = &*self.core;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add: a CAS loop so the sum can never wrap, even for
        // u64::MAX samples.
        let mut cur = core.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match core
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.enabled() {
            self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Time a closure and record its duration. When disabled, the clock
    /// is never read — the closure runs bare.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record_duration(t0.elapsed());
        out
    }

    /// Open a [`Span`] that records into this histogram when dropped.
    /// Useful across early returns, where a closure would fight borrows.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: self.enabled().then(Instant::now),
        }
    }

    /// Zero every bucket and statistic (re-baselining between
    /// experiments). Not atomic with respect to concurrent recording: a
    /// racing `record` may land before or after the wipe, which is fine
    /// for the interactive reset this serves.
    pub(crate) fn reset(&self) {
        let core = &*self.core;
        for b in &core.buckets {
            b.store(0, Ordering::Relaxed);
        }
        core.count.store(0, Ordering::Relaxed);
        core.sum.store(0, Ordering::Relaxed);
        core.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.core;
        HistogramSnapshot {
            count: core.count.load(Ordering::Relaxed),
            sum: core.sum.load(Ordering::Relaxed),
            max: core.max.load(Ordering::Relaxed),
            buckets: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A timing guard from [`Histogram::span`]: records the elapsed time into
/// the histogram on drop (a no-op when the histogram is disabled).
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.hist.record_duration(t0.elapsed());
        }
    }
}

/// A point-in-time copy of one histogram's state. Fields are read with
/// relaxed loads, so a snapshot taken during concurrent recording may be
/// off by in-flight samples; snapshots taken between batches are exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Per-bucket counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper edge of the bucket containing the
    /// `q`-th ranked sample (`q` clamped to `[0, 1]`). The true `max` is
    /// reported for the top-most occupied bucket, so `quantile(1.0)` is
    /// exact.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let last = self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // The max lives in the last occupied bucket; it is a
                // tighter (and exact) upper edge than 2^i − 1.
                return if i == last { self.max } else { bucket_upper(i) };
            }
        }
        self.max
    }

    /// Subtract an earlier snapshot of the same histogram: bucket counts,
    /// `count`, and `sum` are differenced; `max` keeps the later value
    /// (maxima are not invertible).
    pub(crate) fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // The edges the satellite spec calls out: 0, sub-µs, multi-s,
        // u64::MAX saturation.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(999), 10); // sub-µs latency in ns
        assert_eq!(bucket_index(2_500_000_000), 32); // 2.5 s in ns
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose range contains it.
        for v in [0u64, 1, 7, 1_000, 1_000_000, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "value {v} above bucket {i} edge");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "value {v} below bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_saturates_at_u64_max() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.quantile(0.5), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // Rank 500 lands in bucket 9 (256..=511).
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        assert_eq!(s.quantile(1.0), 1000, "top quantile reports exact max");
        assert!(s.quantile(0.99) >= s.quantile(0.5));
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn zero_values_stay_in_bucket_zero() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let off = || Arc::new(AtomicBool::new(false));
        let c = Counter::with_switch(off());
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::with_switch(off());
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = Histogram::with_switch(off());
        h.record(5);
        h.record_duration(Duration::from_millis(1));
        let _ = h.time(|| 42);
        drop(h.span());
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        {
            let _s = h.span();
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        // 8 threads hammering cloned handles of the same counter and
        // histogram: totals must be exact (atomics, not racy read-modify-
        // write) and the histogram sum must equal the amount recorded.
        let c = Counter::with_switch(Arc::new(AtomicBool::new(true)));
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD);
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum, n * (n - 1) / 2, "sum of 0..n");
        assert_eq!(snap.max, n - 1);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let h = Histogram::with_switch(Arc::new(AtomicBool::new(true)));
        h.record(10);
        let before = h.snapshot();
        h.record(20);
        h.record(30);
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 50);
        assert_eq!(d.buckets.iter().sum::<u64>(), 2);
    }
}
