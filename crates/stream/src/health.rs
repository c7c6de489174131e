//! The stream health monitor: a bounded ring of periodic samples for
//! throughput / reroute-rate trend detection.
//!
//! Every [`sample_every`](HealthMonitor::sample_every) micro-batches the
//! engine folds one [`HealthSample`] into a fixed-capacity ring
//! (drop-oldest): cumulative [`BatchCounts`](udf_core::BatchCounts)
//! totals across all subscriptions, plus the window's
//! [`Snapshot::delta`](udf_obs::Snapshot::delta) of the scheduler's
//! reroute counter when a metrics registry is wired. Trends compare the
//! window's two halves, so a stream whose model stopped converging (rising
//! reroute rate) or whose throughput is decaying shows up without any
//! external scrape loop.
//!
//! Purely observational, like every other layer in the obs stack: emitted
//! distributions and digests are byte-identical with the monitor on or
//! off.

use std::collections::VecDeque;
use std::time::Instant;
use udf_obs::{MetricsRegistry, Snapshot};

/// One periodic reading. Tuple counters are *cumulative* engine-lifetime
/// totals (summed across subscriptions); rates come from differencing
/// neighbouring samples.
#[derive(Debug, Clone, Copy)]
pub struct HealthSample {
    /// Nanoseconds since the monitor's epoch (engine creation).
    pub t_ns: u64,
    /// Cumulative tuples examined, summed across subscriptions.
    pub tuples_in: u64,
    /// Cumulative tuples emitted.
    pub kept: u64,
    /// Cumulative slow-path (model-mutating) tuples.
    pub slow_path: u64,
    /// `sched.verdict.reroute` increments inside this sample's window
    /// (from [`Snapshot::delta`]; 0 when no registry is wired).
    pub reroutes: u64,
}

/// Windowed trend statistics over the ring's current contents.
#[derive(Debug, Clone, Copy)]
pub struct HealthTrend {
    /// Tuples/second across the whole window.
    pub throughput: f64,
    /// Slow-path fraction across the whole window.
    pub reroute_rate: f64,
    /// Later-half throughput over earlier-half throughput (1.0 = steady,
    /// < 1 = decaying). `None` until both halves have a nonzero span.
    pub throughput_ratio: Option<f64>,
    /// Later-half reroute rate minus earlier-half reroute rate (> 0 = the
    /// model is falling behind). `None` until both halves saw tuples.
    pub reroute_rate_delta: Option<f64>,
}

/// The ring plus the sampling cadence. Owned by the engine; sampled from
/// `process_batch`.
pub struct HealthMonitor {
    epoch: Instant,
    every: u64,
    batches: u64,
    capacity: usize,
    ring: VecDeque<HealthSample>,
    /// Snapshot at the previous sample (for counter deltas).
    last_snap: Snapshot,
    registry: Option<MetricsRegistry>,
}

/// Default sampling cadence, in micro-batches.
pub const DEFAULT_SAMPLE_EVERY: u64 = 4;

/// Default ring capacity, in samples.
pub const DEFAULT_CAPACITY: usize = 128;

impl HealthMonitor {
    /// A monitor sampling every `every` micro-batches into a ring of
    /// `capacity` samples (both clamped to ≥ 1).
    pub fn new(every: u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        HealthMonitor {
            epoch: Instant::now(),
            every: every.max(1),
            batches: 0,
            capacity,
            ring: VecDeque::with_capacity(capacity),
            last_snap: Snapshot::default(),
            registry: None,
        }
    }

    /// Wire the registry whose counter deltas annotate each sample.
    pub(crate) fn set_registry(&mut self, reg: &MetricsRegistry) {
        self.registry = Some(reg.clone());
        self.last_snap = reg.snapshot();
    }

    /// The sampling cadence in micro-batches.
    pub fn sample_every(&self) -> u64 {
        self.every
    }

    /// The ring's bounded capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ring's current contents, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = HealthSample> + '_ {
        self.ring.iter().copied()
    }

    /// Append one sample, dropping the oldest when full.
    fn push_sample(&mut self, s: HealthSample) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(s);
    }

    /// Called once per engine micro-batch; folds a sample every
    /// [`sample_every`](Self::sample_every) calls.
    pub(crate) fn on_batch(&mut self, totals: (u64, u64, u64)) {
        self.batches += 1;
        if !self.batches.is_multiple_of(self.every) {
            return;
        }
        let (tuples_in, kept, slow_path) = totals;
        let reroutes = match &self.registry {
            Some(reg) => {
                let snap = reg.snapshot();
                let d = snap.delta(&self.last_snap);
                self.last_snap = snap;
                d.counters
                    .get("sched.verdict.reroute")
                    .copied()
                    .unwrap_or(0)
            }
            None => 0,
        };
        self.push_sample(HealthSample {
            t_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            tuples_in,
            kept,
            slow_path,
            reroutes,
        });
    }

    /// Trend over the ring's current window: whole-window throughput and
    /// reroute rate, plus half-over-half drift. `None` with fewer than two
    /// samples (no window to difference).
    pub fn trend(&self) -> Option<HealthTrend> {
        let samples = &self.ring;
        let n = samples.len();
        if n < 2 {
            return None;
        }
        let first = &samples[0];
        let last = &samples[n - 1];
        let span = rate_window(first, last);
        let throughput = span.map(|(tput, _)| tput).unwrap_or(0.0);
        let reroute_rate = span.map(|(_, rr)| rr).unwrap_or(0.0);
        let (mut throughput_ratio, mut reroute_rate_delta) = (None, None);
        if n >= 3 {
            let mid = &samples[n / 2];
            let earlier = rate_window(first, mid);
            let later = rate_window(mid, last);
            if let (Some((te, re)), Some((tl, rl))) = (earlier, later) {
                if te > 0.0 {
                    throughput_ratio = Some(tl / te);
                }
                reroute_rate_delta = Some(rl - re);
            }
        }
        Some(HealthTrend {
            throughput,
            reroute_rate,
            throughput_ratio,
            reroute_rate_delta,
        })
    }

    /// One-line report (for the REPL and debugging).
    pub fn render(&self) -> String {
        let Some(t) = self.trend() else {
            return format!(
                "health: {} sample(s), trend needs 2+ (cadence {} batch(es))",
                self.ring.len(),
                self.every
            );
        };
        let mut line = udf_obs::fmt::KvLine::new()
            .raw("health:")
            .field("samples", self.ring.len())
            .raw(&format!("throughput={:.0}tup/s", t.throughput))
            .raw(&format!("reroute_rate={:.4}", t.reroute_rate));
        if let Some(r) = t.throughput_ratio {
            line = line.raw(&format!("throughput_ratio={r:.2}"));
        }
        if let Some(d) = t.reroute_rate_delta {
            line = line.raw(&format!("reroute_drift={d:+.4}"));
        }
        line.finish()
    }
}

///`(tuples/s, slow-path fraction)` between two cumulative samples; `None`
/// when the pair spans no time or no tuples.
fn rate_window(a: &HealthSample, b: &HealthSample) -> Option<(f64, f64)> {
    let dt = b.t_ns.saturating_sub(a.t_ns) as f64 / 1e9;
    let tuples = b.tuples_in.saturating_sub(a.tuples_in);
    if dt <= 0.0 || tuples == 0 {
        return None;
    }
    let slow = b.slow_path.saturating_sub(a.slow_path);
    Some((tuples as f64 / dt, slow as f64 / tuples as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(mon: &mut HealthMonitor, t_ns: u64, tuples: u64, slow: u64) {
        // Drive the ring directly with synthetic timestamps: on_batch's
        // Instant-based clock is untestable at nanosecond precision.
        mon.push_sample(HealthSample {
            t_ns,
            tuples_in: tuples,
            kept: tuples,
            slow_path: slow,
            reroutes: slow,
        });
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let mut mon = HealthMonitor::new(1, 4);
        for i in 0..10u64 {
            push(&mut mon, i * 1_000, i * 100, i);
        }
        let kept: Vec<u64> = mon.samples().map(|s| s.tuples_in).collect();
        assert_eq!(kept, vec![600, 700, 800, 900], "newest 4 survive");
    }

    #[test]
    fn empty_ring_has_no_trend_and_says_so() {
        let mon = HealthMonitor::new(1, 8);
        assert_eq!(mon.samples().count(), 0);
        assert!(mon.trend().is_none(), "no samples, no trend");
        let line = mon.render();
        assert!(line.contains("0 sample(s)"), "{line}");
        assert!(line.contains("trend needs 2+"), "{line}");
    }

    #[test]
    fn single_sample_has_no_trend() {
        let mut mon = HealthMonitor::new(1, 8);
        push(&mut mon, 1_000, 500, 5);
        assert_eq!(mon.samples().count(), 1);
        assert!(mon.trend().is_none(), "one sample is no window");
        assert!(mon.render().contains("1 sample(s)"));
    }

    #[test]
    fn trend_needs_two_samples() {
        let mut mon = HealthMonitor::new(1, 8);
        assert!(mon.trend().is_none());
        push(&mut mon, 0, 0, 0);
        assert!(mon.trend().is_none());
        push(&mut mon, 1_000_000_000, 1000, 100);
        let t = mon.trend().unwrap();
        assert!((t.throughput - 1000.0).abs() < 1e-6);
        assert!((t.reroute_rate - 0.1).abs() < 1e-12);
        // Two samples: one window, no halves to compare.
        assert!(t.throughput_ratio.is_none());
        assert!(t.reroute_rate_delta.is_none());
    }

    #[test]
    fn half_window_contracts_stay_none_until_both_halves_rate() {
        let mut mon = HealthMonitor::new(1, 8);
        // Three samples but the earlier half moved no tuples: its
        // rate_window is None, so both half-over-half fields stay None
        // while the whole-window figures are still reported.
        push(&mut mon, 0, 0, 0);
        push(&mut mon, 1_000_000_000, 0, 0);
        push(&mut mon, 2_000_000_000, 1000, 10);
        let t = mon.trend().unwrap();
        assert!(t.throughput > 0.0);
        assert!(t.throughput_ratio.is_none(), "idle earlier half: no ratio");
        assert!(
            t.reroute_rate_delta.is_none(),
            "idle earlier half: no drift"
        );
    }

    #[test]
    fn half_window_comparison_spots_decay() {
        let mut mon = HealthMonitor::new(1, 8);
        // Earlier half: 1000 tup/s, no reroutes. Later half: 500 tup/s,
        // every 10th tuple rerouting.
        push(&mut mon, 0, 0, 0);
        push(&mut mon, 1_000_000_000, 1000, 0);
        push(&mut mon, 2_000_000_000, 2000, 0);
        push(&mut mon, 3_000_000_000, 2500, 50);
        push(&mut mon, 4_000_000_000, 3000, 100);
        let t = mon.trend().unwrap();
        let ratio = t.throughput_ratio.unwrap();
        assert!(ratio < 0.6, "decay visible: ratio {ratio}");
        let drift = t.reroute_rate_delta.unwrap();
        assert!(drift > 0.05, "reroute drift visible: {drift}");
        assert!(mon.render().contains("throughput_ratio="));
    }

    #[test]
    fn wrap_at_capacity_trends_over_newest_window_only() {
        let mut mon = HealthMonitor::new(1, 4);
        // A long steady prefix that must age out entirely…
        for i in 0..20u64 {
            push(&mut mon, i * 1_000_000_000, i * 1000, 0);
        }
        // …then a collapsing tail that fills the whole ring.
        let t0 = 20_000_000_000;
        push(&mut mon, t0, 20_000, 0);
        push(&mut mon, t0 + 1_000_000_000, 21_000, 0);
        push(&mut mon, t0 + 2_000_000_000, 21_100, 50);
        push(&mut mon, t0 + 3_000_000_000, 21_200, 100);
        assert_eq!(mon.samples().count(), 4, "ring wrapped at capacity");
        let t = mon.trend().unwrap();
        let ratio = t.throughput_ratio.unwrap();
        assert!(
            ratio < 0.2,
            "trend reflects only the retained window: {ratio}"
        );
        assert!(t.reroute_rate_delta.unwrap() > 0.0);
    }

    #[test]
    fn samples_return_the_pushed_integers_in_order() {
        let mut mon = HealthMonitor::new(1, 8);
        let pushed = [
            HealthSample {
                t_ns: 7,
                tuples_in: 100,
                kept: 90,
                slow_path: 3,
                reroutes: 2,
            },
            HealthSample {
                t_ns: 9,
                tuples_in: u64::MAX,
                kept: (1 << 53) + 1,
                slow_path: 4,
                reroutes: 0,
            },
        ];
        for s in pushed {
            mon.push_sample(s);
        }
        let got: Vec<_> = mon
            .samples()
            .map(|s| (s.t_ns, s.tuples_in, s.kept, s.slow_path, s.reroutes))
            .collect();
        assert_eq!(
            got,
            vec![(7, 100, 90, 3, 2), (9, u64::MAX, (1 << 53) + 1, 4, 0)]
        );
    }

    #[test]
    fn cadence_skips_batches() {
        let mut mon = HealthMonitor::new(4, 8);
        for _ in 0..7 {
            mon.on_batch((100, 100, 0));
        }
        assert_eq!(mon.samples().count(), 1, "only batch 4 sampled");
        mon.on_batch((200, 200, 0));
        assert_eq!(mon.samples().count(), 2, "batch 8 sampled");
    }

    #[test]
    fn clamps_degenerate_config() {
        let mon = HealthMonitor::new(0, 0);
        assert_eq!(mon.sample_every(), 1);
        assert_eq!(mon.capacity(), 1);
    }
}
