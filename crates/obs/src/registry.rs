//! The [`MetricsRegistry`]: named handles plus snapshot/export.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Debug)]
struct Inner {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The process-local metrics namespace. Cloning is cheap (shared `Arc`);
/// every clone sees the same handles and the same enabled switch.
///
/// Registration (`counter` / `gauge` / `histogram`) takes a short-lived
/// lock and returns a cloneable handle; all subsequent recording through
/// the handle is lock-free. Handles registered under one name share one
/// cell, so independently-wired components accumulate into the same
/// metric.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// A registry with recording enabled.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A registry whose handles are all no-ops until
    /// [`set_enabled`](MetricsRegistry::set_enabled)`(true)`.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                enabled: Arc::new(AtomicBool::new(enabled)),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Flip recording for every handle this registry ever issued.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter registry");
        map.entry(name.to_string())
            .or_insert_with(|| Counter::with_switch(self.inner.enabled.clone()))
            .clone()
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("gauge registry");
        map.entry(name.to_string())
            .or_insert_with(|| Gauge::with_switch(self.inner.enabled.clone()))
            .clone()
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("histogram registry");
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::with_switch(self.inner.enabled.clone()))
            .clone()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zero every registered handle in place. Names and handle identity
    /// survive — components keep recording into the same cells — so this
    /// re-baselines a long-running session between experiments (REPL
    /// `\metrics reset`). A delta against a snapshot taken before the
    /// reset saturates at zero instead of wrapping.
    pub fn reset(&self) {
        for c in self
            .inner
            .counters
            .lock()
            .expect("counter registry")
            .values()
        {
            c.reset();
        }
        for g in self.inner.gauges.lock().expect("gauge registry").values() {
            g.reset();
        }
        for h in self
            .inner
            .histograms
            .lock()
            .expect("histogram registry")
            .values()
        {
            h.reset();
        }
    }

    /// Render the current snapshot — see [`Snapshot::render`].
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A point-in-time copy of a registry, used for rendering and per-query
/// attribution via [`delta`](Snapshot::delta).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// What happened between `earlier` and `self`: counters and histogram
    /// counts/sums are differenced; gauges keep the later value (they are
    /// levels, not totals); histogram maxima keep the later value (maxima
    /// are not invertible). Metrics that only exist in `self` pass
    /// through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match earlier.histograms.get(k) {
                    Some(e) => h.delta(e),
                    None => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// The subset whose metric names start with `prefix` (what the REPL's
    /// `\metrics uql.` filter renders: one subsystem, not the whole
    /// registry dump).
    pub fn filtered(&self, prefix: &str) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }

    /// Human-readable dump (what the REPL `\metrics` command prints).
    /// Histograms whose name ends in `_ns` render as durations.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in &self.counters {
                s.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                s.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                let fmt_v = |v: u64| -> String {
                    if k.ends_with("_ns") {
                        format!("{:.2?}", Duration::from_nanos(v))
                    } else {
                        v.to_string()
                    }
                };
                let mean = if k.ends_with("_ns") {
                    format!("{:.2?}", Duration::from_nanos(h.mean() as u64))
                } else {
                    format!("{:.2}", h.mean())
                };
                s.push_str(&format!(
                    "  {k}: count={} mean={} p50={} p95={} p99={} max={}\n",
                    h.count,
                    mean,
                    fmt_v(h.quantile(0.5)),
                    fmt_v(h.quantile(0.95)),
                    fmt_v(h.quantile(0.99)),
                    fmt_v(h.max),
                ));
            }
        }
        if s.is_empty() {
            s.push_str("(no metrics recorded)\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn disable_switch_gates_every_handle() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.inc();
        h.record(7);
        reg.set_enabled(false);
        c.inc();
        h.record(7);
        reg.set_enabled(true);
        c.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 2);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn snapshot_delta_attributes_a_window() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("events");
        c.add(5);
        let before = reg.snapshot();
        c.add(3);
        reg.gauge("level").set(9);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counters["events"], 3);
        assert_eq!(d.gauges["level"], 9);
    }

    #[test]
    fn reset_rebaselines_without_breaking_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.add(7);
        g.set(9);
        h.record(1_000);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 0);
        assert_eq!(snap.gauges["g"], 0);
        assert_eq!(snap.histograms["h"].count, 0);
        assert_eq!(snap.histograms["h"].sum, 0);
        assert_eq!(snap.histograms["h"].max, 0);
        assert!(snap.histograms["h"].buckets.iter().all(|&b| b == 0));
        // Old handles keep recording into the same cells.
        c.inc();
        h.record(2);
        assert_eq!(reg.counter("c").get(), 1);
        assert_eq!(reg.histogram("h").snapshot().count, 1);
    }

    #[test]
    fn delta_survives_reregistration_of_a_same_name_handle() {
        // The satellite-spec edge case: a component drops its handle and a
        // later component re-registers the same name. Registration is
        // get-or-create, so the new handle shares the old cell and a delta
        // across the re-registration attributes only the new window.
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("sched.verdict.reroute");
        let h1 = reg.histogram("sched.fast_phase_ns");
        c1.add(5);
        h1.record(100);
        drop(c1);
        drop(h1);
        let before = reg.snapshot();
        let c2 = reg.counter("sched.verdict.reroute");
        let h2 = reg.histogram("sched.fast_phase_ns");
        assert_eq!(c2.get(), 5, "re-registration must not zero the cell");
        c2.add(3);
        h2.record(200);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counters["sched.verdict.reroute"], 3);
        assert_eq!(d.histograms["sched.fast_phase_ns"].count, 1);
        assert_eq!(d.histograms["sched.fast_phase_ns"].sum, 200);
    }

    #[test]
    fn filtered_keeps_one_subsystem() {
        let reg = MetricsRegistry::new();
        reg.counter("uql.statements").add(2);
        reg.counter("sched.verdict.accept").add(9);
        reg.gauge("olgapro.model_points").set(16);
        reg.histogram("uql.exec_ns").record(500);
        let f = reg.snapshot().filtered("uql.");
        assert_eq!(f.counters.len(), 1);
        assert_eq!(f.counters["uql.statements"], 2);
        assert!(f.gauges.is_empty());
        assert_eq!(f.histograms.len(), 1);
        let text = f.render();
        assert!(text.contains("uql.exec_ns"), "{text}");
        assert!(!text.contains("sched."), "{text}");
        // A prefix matching nothing renders the empty-registry line.
        assert!(reg
            .snapshot()
            .filtered("nope.")
            .render()
            .contains("no metrics"));
    }

    #[test]
    fn delta_across_reset_saturates_instead_of_wrapping() {
        // The reset edge case: `earlier` was snapped before a
        // `MetricsRegistry::reset()`, so the current totals are *smaller*
        // than the baseline. Histogram count/sum/bucket deltas must
        // saturate at 0 like counters do — never wrap toward `u64::MAX`.
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let h = reg.histogram("lat_ns");
        c.add(7);
        for v in [1_000, 3_000, 5_000] {
            h.record(v);
        }
        let earlier = reg.snapshot();
        reg.reset();
        c.inc();
        h.record(50);
        let d = reg.snapshot().delta(&earlier);
        assert_eq!(d.counters["c"], 0, "counter saturates");
        let dh = &d.histograms["lat_ns"];
        assert_eq!(dh.count, 0, "count saturates like a counter");
        assert_eq!(dh.sum, 0, "sum saturates like a counter");
        assert!(
            dh.buckets.iter().all(|&b| b <= 1),
            "no bucket wraps: {:?}",
            dh.buckets
        );
        assert_eq!(dh.mean(), 0.0, "empty-window mean degrades to 0, not NaN");
        assert_eq!(dh.max, 50, "max keeps the later value (not invertible)");
        // The window is renderable without panicking.
        assert!(d.render().contains("lat_ns"));
    }

    #[test]
    fn mean_is_exact_and_rendered_everywhere() {
        // `\metrics` and `EXPLAIN ANALYZE` both render through
        // `Snapshot::render`; the exact sum/count mean must appear there
        // (bucket-edge p50/p95 overstate central tendency).
        let reg = MetricsRegistry::new();
        let h = reg.histogram("vals");
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(reg.snapshot().histograms["vals"].mean(), 25.0);
        let text = reg.render();
        assert!(text.contains("mean=25.00"), "{text}");
        // Duration-valued histograms render the mean as a duration too.
        reg.histogram("t_ns").record(2_000_000);
        assert!(
            reg.render().contains("t_ns: count=1 mean=2.00ms"),
            "{}",
            reg.render()
        );
    }

    #[test]
    fn render_is_stable_and_humane() {
        let reg = MetricsRegistry::new();
        assert!(reg.render().contains("no metrics"));
        reg.counter("a.b").inc();
        reg.histogram("lat_ns").record(2_000_000);
        let text = reg.render();
        assert!(text.contains("a.b = 1"));
        assert!(text.contains("lat_ns: count=1"));
        assert!(
            text.contains("ms"),
            "ns-suffixed histograms render as durations: {text}"
        );
    }
}
