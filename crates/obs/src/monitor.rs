//! Continuous monitoring over a whole [`MetricsRegistry`]: bounded
//! per-metric time-series rings, declarative alert rules, and a live
//! dashboard — the registry-wide generalization of the stream engine's
//! `HealthMonitor`.
//!
//! The pieces:
//!
//! * [`TsRing`] / [`TsStore`] — one drop-oldest ring of [`TsPoint`]s per
//!   derived series. Sampling a registry turns each [`Snapshot::delta`]
//!   window into *rate points*: a counter `c` yields `c.rate`
//!   (increments/second), a gauge keeps its name and its level, a
//!   histogram `h` yields windowed `h.p50` / `h.p95` (bucket-upper-edge
//!   quantiles of the window's records) and `h.count` (records/second).
//! * [`Monitor`] — owns the store, a [`Sampler`]-shared last-snapshot
//!   baseline, the [`AlertRule`] set, and a bounded log of
//!   firing/resolved [`AlertEvent`] transitions. Sampling is either
//!   **tick-driven** ([`Monitor::tick`] / [`Monitor::tick_at`] — what
//!   deterministic tests and the REPL use; no sleeps anywhere) or a
//!   background [`Sampler`] thread at a configurable cadence
//!   ([`Monitor::start`]).
//! * [`AlertRule`] — `metric` + condition + `for_samples` debounce. A
//!   [`Threshold`] compares the newest point; a [`Trend`] compares the
//!   ring's two halves (mean of the earlier half vs. mean of the later
//!   half), so reroute-rate spikes, `cap_hits` bursts, and throughput
//!   decay are declared, not hand-coded per engine.
//!
//! The obs-stack hard rules hold: monitoring only *reads* snapshots, so
//! emitted distributions and digests are byte-identical with the sampler
//! on or off (pinned by `udf-lang`'s digest-parity suite), and a context
//! that never ticks pays nothing.

use crate::fmt::KvLine;
use crate::json::JsonObj;
use crate::registry::{MetricsRegistry, Snapshot};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One reading of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsPoint {
    /// Nanoseconds since the sampled registry's epoch.
    pub t_ns: u64,
    /// Rate (for `.rate`/`.count` series), level (gauges), or windowed
    /// quantile (`.p50`/`.p95`).
    pub value: f64,
}

/// A bounded drop-oldest ring of [`TsPoint`]s (the same discipline as the
/// trace ring and the stream health ring: old history ages out, recording
/// never blocks on a full buffer).
#[derive(Debug, Clone)]
pub struct TsRing {
    capacity: usize,
    points: VecDeque<TsPoint>,
}

impl TsRing {
    /// An empty ring holding at most `capacity` points (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TsRing {
            capacity,
            points: VecDeque::with_capacity(capacity),
        }
    }

    /// Append a point, dropping the oldest when full.
    pub fn push(&mut self, p: TsPoint) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(p);
    }

    /// Number of points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The newest point, if any.
    pub fn latest(&self) -> Option<TsPoint> {
        self.points.back().copied()
    }

    /// Points oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TsPoint> {
        self.points.iter()
    }

    /// Mean value of the earlier and later half of the window. `None`
    /// until both halves hold at least one point (< 2 points total) — the
    /// same "no verdict before a comparable split" contract as
    /// `HealthTrend`'s optional fields.
    pub fn half_means(&self) -> Option<(f64, f64)> {
        let n = self.points.len();
        if n < 2 {
            return None;
        }
        let mid = n / 2;
        let mean = |s: &mut dyn Iterator<Item = &TsPoint>, len: usize| {
            s.map(|p| p.value).sum::<f64>() / len as f64
        };
        let earlier = mean(&mut self.points.iter().take(mid), mid);
        let later = mean(&mut self.points.iter().skip(mid), n - mid);
        Some((earlier, later))
    }

    /// Sparkline-style drift arrow from the half-window split: `↑` when
    /// the later half runs ≥ 5% above the earlier, `↓` when ≥ 5% below,
    /// `→` when steady, `·` before both halves exist.
    pub fn trend_arrow(&self) -> &'static str {
        match self.half_means() {
            None => "·",
            Some((earlier, later)) => {
                let band = earlier.abs().max(1e-12) * 0.05;
                if later - earlier > band {
                    "↑"
                } else if earlier - later > band {
                    "↓"
                } else {
                    "→"
                }
            }
        }
    }
}

/// Default per-series ring capacity: four minutes of history at the
/// REPL's statement-driven cadence or a 1 s background cadence.
pub const DEFAULT_RING_CAPACITY: usize = 240;

/// The per-metric ring map. Series appear on first sample; every ring
/// shares one capacity.
#[derive(Debug, Clone)]
pub struct TsStore {
    capacity: usize,
    series: BTreeMap<String, TsRing>,
}

impl TsStore {
    /// An empty store whose rings hold `capacity` points each.
    pub fn new(capacity: usize) -> Self {
        TsStore {
            capacity: capacity.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The shared ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of series seen so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Sorted series names.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The ring for `name`, if it ever recorded.
    pub fn get(&self, name: &str) -> Option<&TsRing> {
        self.series.get(name)
    }

    /// Append one point to `name`'s ring (created on first use).
    pub fn push(&mut self, name: &str, t_ns: u64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TsRing::new(self.capacity))
            .push(TsPoint { t_ns, value });
    }

    /// Fold one snapshot-delta window into rate points: counters become
    /// `name.rate` (increments/second), gauges keep their name and level,
    /// histograms become windowed `name.p50` / `name.p95` plus
    /// `name.count` (records/second). `dt_ns == 0` windows are dropped —
    /// no span, no rate.
    pub fn record_window(&mut self, t_ns: u64, dt_ns: u64, delta: &Snapshot, current: &Snapshot) {
        if dt_ns == 0 {
            return;
        }
        let secs = dt_ns as f64 / 1e9;
        for (name, &d) in &delta.counters {
            self.push(&format!("{name}.rate"), t_ns, d as f64 / secs);
        }
        for (name, &v) in &current.gauges {
            self.push(name, t_ns, v as f64);
        }
        for (name, h) in &delta.histograms {
            self.push(&format!("{name}.p50"), t_ns, h.quantile(0.5) as f64);
            self.push(&format!("{name}.p95"), t_ns, h.quantile(0.95) as f64);
            self.push(&format!("{name}.count"), t_ns, h.count as f64 / secs);
        }
    }

    /// The top-`k` `.rate`/`.count` series by newest value (the dashboard
    /// rows): `(name, latest, arrow)`, busiest first, zero-rate series
    /// skipped.
    pub fn top_rates(&self, k: usize) -> Vec<(&str, f64, &'static str)> {
        let mut rows: Vec<(&str, f64, &'static str)> = self
            .series
            .iter()
            .filter(|(name, _)| name.ends_with(".rate") || name.ends_with(".count"))
            .filter_map(|(name, ring)| {
                let latest = ring.latest()?.value;
                (latest > 0.0).then(|| (name.as_str(), latest, ring.trend_arrow()))
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(k);
        rows
    }

    /// JSON Lines export: one `{"series", "t_ns", "value"}` object per
    /// retained point, series in name order, points oldest-first — the
    /// scrape format a future network front-end serves as-is.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, ring) in &self.series {
            for p in ring.iter() {
                let mut o = JsonObj::new();
                o.str("series", name)
                    .u64("t_ns", p.t_ns)
                    .f64("value", p.value);
                out.push_str(&o.finish());
                out.push('\n');
            }
        }
        out
    }
}

/// Threshold conditions compare a series' newest point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Breached while `latest > value`.
    Above(f64),
    /// Breached while `latest < value`.
    Below(f64),
}

/// Trend conditions compare the ring's half-window means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trend {
    /// Breached while `later_mean - earlier_mean >= delta`.
    Rising(f64),
    /// Breached while `later_mean / earlier_mean <= ratio` (requires a
    /// positive earlier mean — decay of nothing is not decay).
    Decaying(f64),
}

/// What an [`AlertRule`] evaluates each sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Newest-point comparison.
    Threshold(Threshold),
    /// Half-window drift comparison.
    Trend(Trend),
}

/// One declarative alert: watch `metric`, evaluate `condition` per
/// sample, fire after `for_samples` consecutive breaches, resolve on the
/// first clean sample.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (the log and dashboard key).
    pub name: String,
    /// The watched series (a [`TsStore`] name, e.g.
    /// `sched.verdict.reroute.rate`).
    pub metric: String,
    /// The per-sample predicate.
    pub condition: Condition,
    /// Debounce: consecutive breached samples required before the rule
    /// fires (clamped to ≥ 1).
    pub for_samples: usize,
}

impl AlertRule {
    /// A [`Threshold::Above`] rule.
    pub fn above(name: impl Into<String>, metric: impl Into<String>, value: f64) -> Self {
        AlertRule {
            name: name.into(),
            metric: metric.into(),
            condition: Condition::Threshold(Threshold::Above(value)),
            for_samples: 1,
        }
    }

    /// A [`Threshold::Below`] rule.
    pub fn below(name: impl Into<String>, metric: impl Into<String>, value: f64) -> Self {
        AlertRule {
            name: name.into(),
            metric: metric.into(),
            condition: Condition::Threshold(Threshold::Below(value)),
            for_samples: 1,
        }
    }

    /// A [`Trend::Rising`] rule.
    pub fn rising(name: impl Into<String>, metric: impl Into<String>, delta: f64) -> Self {
        AlertRule {
            name: name.into(),
            metric: metric.into(),
            condition: Condition::Trend(Trend::Rising(delta)),
            for_samples: 1,
        }
    }

    /// A [`Trend::Decaying`] rule.
    pub fn decaying(name: impl Into<String>, metric: impl Into<String>, ratio: f64) -> Self {
        AlertRule {
            name: name.into(),
            metric: metric.into(),
            condition: Condition::Trend(Trend::Decaying(ratio)),
            for_samples: 1,
        }
    }

    /// Require `n` consecutive breached samples before firing.
    pub fn for_samples(mut self, n: usize) -> Self {
        self.for_samples = n.max(1);
        self
    }

    /// One evaluation against the watched ring. `None` = no verdict yet
    /// (series missing, empty, or the trend split not comparable) — which
    /// counts as a clean sample for debounce purposes.
    fn breached(&self, ring: Option<&TsRing>) -> Option<bool> {
        let ring = ring?;
        match self.condition {
            Condition::Threshold(t) => {
                let latest = ring.latest()?.value;
                Some(match t {
                    Threshold::Above(v) => latest > v,
                    Threshold::Below(v) => latest < v,
                })
            }
            Condition::Trend(t) => {
                let (earlier, later) = ring.half_means()?;
                match t {
                    Trend::Rising(delta) => Some(later - earlier >= delta),
                    Trend::Decaying(ratio) => (earlier > 0.0).then(|| later / earlier <= ratio),
                }
            }
        }
    }
}

/// One firing/resolved transition in the alert log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Sample timestamp of the transition.
    pub t_ns: u64,
    /// The rule that transitioned.
    pub rule: String,
    /// The watched series.
    pub metric: String,
    /// `true` = the rule started firing, `false` = it resolved.
    pub firing: bool,
    /// The series' newest value at the transition (0.0 when the series
    /// vanished).
    pub value: f64,
}

/// Per-rule debounce state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    consecutive: usize,
    firing: bool,
}

/// Bound on the retained alert log (drop-oldest, like every ring here).
const ALERT_LOG_CAPACITY: usize = 256;

#[derive(Debug)]
struct MonitorInner {
    registry: MetricsRegistry,
    store: TsStore,
    /// `(t_ns, snapshot)` baseline of the previous sample; `None` until
    /// the first tick (which only baselines — a rate needs a window).
    last: Option<(u64, Snapshot)>,
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: VecDeque<AlertEvent>,
    samples: u64,
}

/// The registry-wide monitor: cheap to clone (shared state), sampled by
/// ticks or a background [`Sampler`]. See the module docs for the full
/// tour.
#[derive(Debug, Clone)]
pub struct Monitor {
    inner: Arc<Mutex<MonitorInner>>,
}

impl Monitor {
    /// A monitor over `registry` with [`DEFAULT_RING_CAPACITY`] rings and
    /// no rules.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Monitor::with_capacity(registry, DEFAULT_RING_CAPACITY)
    }

    /// A monitor whose rings hold `capacity` points each.
    pub fn with_capacity(registry: &MetricsRegistry, capacity: usize) -> Self {
        Monitor {
            inner: Arc::new(Mutex::new(MonitorInner {
                registry: registry.clone(),
                store: TsStore::new(capacity),
                last: None,
                rules: Vec::new(),
                states: Vec::new(),
                log: VecDeque::new(),
                samples: 0,
            })),
        }
    }

    /// The demo rule set the REPL installs: the paper's long-running
    /// failure modes as engine-agnostic signals — any `cap_hits` in a
    /// window (the model stopped absorbing drift), a sustained
    /// reroute-rate climb (the model is falling behind), and a halved
    /// stream batch rate (throughput decay).
    pub fn standard_rules() -> Vec<AlertRule> {
        vec![
            AlertRule::above("cap_hits_burst", "olgapro.cap_hits.rate", 0.0),
            AlertRule::rising("reroute_spike", "sched.verdict.reroute.rate", 50.0).for_samples(2),
            AlertRule::decaying("throughput_decay", "stream.batch_ns.count", 0.5).for_samples(2),
        ]
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MonitorInner> {
        // Monitoring state is pure observation; recover it after a panic
        // rather than poisoning every later dashboard render.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Install a rule (evaluated from the next sample on).
    pub fn add_rule(&self, rule: AlertRule) {
        let mut inner = self.lock();
        inner.rules.push(rule);
        inner.states.push(RuleState::default());
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.lock().rules.len()
    }

    /// Number of samples folded so far (the baseline tick included).
    pub fn samples(&self) -> u64 {
        self.lock().samples
    }

    /// Sample the registry now: snapshot, delta against the previous
    /// sample, fold the window into the store, evaluate every rule.
    pub fn tick(&self) {
        let (t_ns, snap) = {
            let inner = self.lock();
            (inner.registry.uptime_ns(), inner.registry.snapshot())
        };
        self.tick_at(t_ns, snap);
    }

    /// The deterministic entry point: fold an explicit `(t_ns, snapshot)`
    /// sample. Tests drive synthetic series through this without sleeping
    /// or touching a real clock; [`Monitor::tick`] and the background
    /// [`Sampler`] both land here.
    pub fn tick_at(&self, t_ns: u64, snap: Snapshot) {
        let mut inner = self.lock();
        inner.samples += 1;
        if let Some((last_t, last_snap)) = inner.last.take() {
            let delta = snap.delta(&last_snap);
            let dt_ns = t_ns.saturating_sub(last_t);
            inner.store.record_window(t_ns, dt_ns, &delta, &snap);
        }
        inner.last = Some((t_ns, snap));
        evaluate_rules(&mut inner, t_ns);
    }

    /// Spawn a background sampler calling [`Monitor::tick`] every
    /// `cadence`. The returned guard stops and joins the thread on drop;
    /// dropping it is the only way to stop sampling, so the thread can
    /// never outlive its owner silently.
    pub fn start(&self, cadence: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = self.clone();
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(cadence);
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                monitor.tick();
            }
        });
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Names of currently-firing rules, with the watched series' newest
    /// value.
    pub fn active_alerts(&self) -> Vec<(String, String, f64)> {
        let inner = self.lock();
        inner
            .rules
            .iter()
            .zip(&inner.states)
            .filter(|(_, s)| s.firing)
            .map(|(r, _)| {
                let value = inner
                    .store
                    .get(&r.metric)
                    .and_then(TsRing::latest)
                    .map_or(0.0, |p| p.value);
                (r.name.clone(), r.metric.clone(), value)
            })
            .collect()
    }

    /// The retained firing/resolved transitions, oldest first.
    pub fn alert_log(&self) -> Vec<AlertEvent> {
        self.lock().log.iter().cloned().collect()
    }

    /// Newest value of one series, for tests and ad-hoc probes.
    pub fn latest(&self, series: &str) -> Option<f64> {
        self.lock()
            .store
            .get(series)
            .and_then(|r| r.latest())
            .map(|p| p.value)
    }

    /// Number of points retained for one series.
    pub fn series_len(&self, series: &str) -> usize {
        self.lock().store.get(series).map_or(0, TsRing::len)
    }

    /// Number of distinct series the store has accumulated.
    pub fn series_count(&self) -> usize {
        self.lock().store.series_count()
    }

    /// JSON Lines export of every retained point — see
    /// [`TsStore::export_jsonl`].
    pub fn export_jsonl(&self) -> String {
        self.lock().store.export_jsonl()
    }

    /// The `\top` dashboard: a summary line, the top-`k` busiest rate
    /// series with trend arrows, active alerts, and the freshest log
    /// transitions.
    pub fn render_top(&self, k: usize) -> String {
        let inner = self.lock();
        let mut s = KvLine::new()
            .raw("monitor:")
            .field("samples", inner.samples)
            .field("series", inner.store.series_count())
            .field("rules", inner.rules.len())
            .field("firing", inner.states.iter().filter(|st| st.firing).count())
            .finish();
        s.push('\n');
        let rows = inner.store.top_rates(k);
        if rows.is_empty() {
            s.push_str("top rates: none yet (tick the monitor after running statements)\n");
        } else {
            s.push_str("top rates:\n");
            for (name, rate, arrow) in rows {
                s.push_str(&format!("  {name:<34} {rate:>12.1}/s {arrow}\n"));
            }
        }
        let firing: Vec<&AlertRule> = inner
            .rules
            .iter()
            .zip(&inner.states)
            .filter(|(_, st)| st.firing)
            .map(|(r, _)| r)
            .collect();
        if firing.is_empty() {
            s.push_str("alerts: none firing\n");
        } else {
            s.push_str("alerts:\n");
            for r in firing {
                let value = inner
                    .store
                    .get(&r.metric)
                    .and_then(TsRing::latest)
                    .map_or(0.0, |p| p.value);
                s.push_str(&format!(
                    "  FIRING {} on {} value={value:.1}\n",
                    r.name, r.metric
                ));
            }
        }
        const LOG_TAIL: usize = 4;
        if !inner.log.is_empty() {
            s.push_str("recent transitions:\n");
            let skip = inner.log.len().saturating_sub(LOG_TAIL);
            for e in inner.log.iter().skip(skip) {
                s.push_str(&format!(
                    "  [{:>8.3}s] {} {} value={:.1}\n",
                    e.t_ns as f64 / 1e9,
                    if e.firing { "FIRING" } else { "RESOLVED" },
                    e.rule,
                    e.value,
                ));
            }
        }
        s
    }
}

/// Evaluate every rule against the store after one sample, logging
/// firing/resolved transitions.
fn evaluate_rules(inner: &mut MonitorInner, t_ns: u64) {
    // Split-borrow the rule table from the store: evaluation reads the
    // store and mutates states/log.
    let MonitorInner {
        store,
        rules,
        states,
        log,
        ..
    } = inner;
    for (rule, state) in rules.iter().zip(states.iter_mut()) {
        let ring = store.get(&rule.metric);
        let value = ring.and_then(TsRing::latest).map_or(0.0, |p| p.value);
        match rule.breached(ring) {
            Some(true) => {
                state.consecutive += 1;
                if !state.firing && state.consecutive >= rule.for_samples {
                    state.firing = true;
                    push_event(log, t_ns, rule, true, value);
                }
            }
            // A clean sample (or no verdict yet) resets the debounce and
            // resolves immediately: alerts describe the present.
            Some(false) | None => {
                state.consecutive = 0;
                if state.firing {
                    state.firing = false;
                    push_event(log, t_ns, rule, false, value);
                }
            }
        }
    }
}

fn push_event(
    log: &mut VecDeque<AlertEvent>,
    t_ns: u64,
    rule: &AlertRule,
    firing: bool,
    value: f64,
) {
    if log.len() == ALERT_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(AlertEvent {
        t_ns,
        rule: rule.name.clone(),
        metric: rule.metric.clone(),
        firing,
        value,
    });
}

/// Guard over the background sampling thread — see [`Monitor::start`].
/// Dropping it stops and joins the thread.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic snapshot: one counter, one gauge, one histogram record.
    fn snap(counter: u64, gauge: u64, hist_records: &[u64]) -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(counter);
        reg.gauge("g").set(gauge);
        let h = reg.histogram("h");
        for &v in hist_records {
            h.record(v);
        }
        reg.snapshot()
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let mut ring = TsRing::new(3);
        for i in 0..5u64 {
            ring.push(TsPoint {
                t_ns: i,
                value: i as f64,
            });
        }
        assert_eq!(ring.len(), 3);
        let vals: Vec<f64> = ring.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
        assert_eq!(ring.latest().unwrap().value, 4.0);
    }

    #[test]
    fn half_means_need_both_halves() {
        let mut ring = TsRing::new(8);
        assert_eq!(ring.half_means(), None);
        assert_eq!(ring.trend_arrow(), "·");
        ring.push(TsPoint {
            t_ns: 0,
            value: 1.0,
        });
        assert_eq!(ring.half_means(), None, "one point has no later half");
        ring.push(TsPoint {
            t_ns: 1,
            value: 3.0,
        });
        assert_eq!(ring.half_means(), Some((1.0, 3.0)));
        assert_eq!(ring.trend_arrow(), "↑");
    }

    #[test]
    fn counters_become_rates_gauges_stay_levels() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.tick_at(0, snap(0, 0, &[]));
        // 100 increments over exactly one second → 100/s.
        mon.tick_at(SEC, snap(100, 7, &[10, 20, 30, 40]));
        assert_eq!(mon.latest("c.rate"), Some(100.0));
        assert_eq!(mon.latest("g"), Some(7.0));
        assert_eq!(mon.latest("h.count"), Some(4.0));
        // Windowed quantiles come from the delta's buckets (log₂ upper
        // edges: p50 of {10,20,30,40} brackets 20 → 31).
        let p50 = mon.latest("h.p50").unwrap();
        assert!(p50 >= 20.0, "p50 upper edge brackets the data: {p50}");
        let p95 = mon.latest("h.p95").unwrap();
        assert!(p95 >= 40.0, "p95 upper edge brackets the max: {p95}");
    }

    #[test]
    fn first_tick_only_baselines_and_zero_dt_is_dropped() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.tick_at(SEC, snap(50, 0, &[]));
        assert_eq!(mon.samples(), 1);
        assert_eq!(mon.series_len("c.rate"), 0, "no window on the first tick");
        // Same timestamp again: no span, no point.
        mon.tick_at(SEC, snap(80, 0, &[]));
        assert_eq!(mon.series_len("c.rate"), 0, "zero-dt window dropped");
        mon.tick_at(2 * SEC, snap(90, 0, &[]));
        assert_eq!(
            mon.latest("c.rate"),
            Some(10.0),
            "delta is vs newest baseline"
        );
    }

    #[test]
    fn window_rate_is_deltas_not_totals() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.tick_at(0, snap(1000, 0, &[]));
        mon.tick_at(SEC, snap(1010, 0, &[]));
        mon.tick_at(2 * SEC, snap(1030, 0, &[]));
        assert_eq!(mon.series_len("c.rate"), 2);
        assert_eq!(mon.latest("c.rate"), Some(20.0));
    }

    #[test]
    fn threshold_rule_fires_and_resolves() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.add_rule(AlertRule::above("burst", "c.rate", 50.0));
        mon.tick_at(0, snap(0, 0, &[]));
        assert!(mon.active_alerts().is_empty(), "baseline sample can't fire");
        mon.tick_at(SEC, snap(100, 0, &[])); // 100/s > 50
        let active = mon.active_alerts();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].0, "burst");
        assert_eq!(active[0].2, 100.0);
        mon.tick_at(2 * SEC, snap(110, 0, &[])); // 10/s → clean
        assert!(mon.active_alerts().is_empty());
        let log = mon.alert_log();
        assert_eq!(log.len(), 2, "one firing + one resolved transition");
        assert!(log[0].firing && log[0].rule == "burst");
        assert!(!log[1].firing);
        assert_eq!(log[0].t_ns, SEC);
        assert_eq!(log[1].t_ns, 2 * SEC);
    }

    #[test]
    fn for_samples_debounces_firing() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.add_rule(AlertRule::above("sustained", "c.rate", 50.0).for_samples(3));
        mon.tick_at(0, snap(0, 0, &[]));
        // Two hot samples: breached but debounced.
        mon.tick_at(SEC, snap(100, 0, &[]));
        mon.tick_at(2 * SEC, snap(200, 0, &[]));
        assert!(mon.active_alerts().is_empty(), "2 < for_samples=3");
        // A clean sample resets the streak.
        mon.tick_at(3 * SEC, snap(201, 0, &[]));
        mon.tick_at(4 * SEC, snap(301, 0, &[]));
        mon.tick_at(5 * SEC, snap(401, 0, &[]));
        assert!(mon.active_alerts().is_empty(), "streak restarted at 0");
        mon.tick_at(6 * SEC, snap(501, 0, &[]));
        assert_eq!(
            mon.active_alerts().len(),
            1,
            "third consecutive breach fires"
        );
        assert_eq!(mon.alert_log().len(), 1);
    }

    #[test]
    fn trend_rules_compare_half_windows() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.add_rule(AlertRule::rising("climb", "c.rate", 50.0));
        mon.add_rule(AlertRule::decaying("decay", "h.count", 0.5).for_samples(2));
        // Counter-rate windows 10/s, 10/s, 100/s, 100/s → the final ring
        // splits [10, 10] vs [100, 100], a +90 climb ≥ 50. Histogram
        // records land only in the first window, so its count rate decays
        // to 0 and stays there past the 2-sample debounce.
        let mut total = 0;
        let mut hist: Vec<u64> = Vec::new();
        for (i, (rate, recs)) in [(0, 0), (10, 4), (10, 0), (100, 0), (100, 0)]
            .iter()
            .enumerate()
        {
            total += rate;
            hist.extend(std::iter::repeat_n(5, *recs));
            mon.tick_at((i as u64 + 1) * SEC, snap(total, 0, &hist));
        }
        let active = mon.active_alerts();
        let names: Vec<&str> = active.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"climb"), "rising rule fired: {names:?}");
        assert!(names.contains(&"decay"), "decaying rule fired: {names:?}");
    }

    #[test]
    fn missing_series_is_no_verdict_not_a_breach() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 16);
        mon.add_rule(AlertRule::below("starved", "no.such.series", 1.0));
        mon.tick_at(0, snap(0, 0, &[]));
        mon.tick_at(SEC, snap(1, 0, &[]));
        assert!(mon.active_alerts().is_empty());
        assert!(mon.alert_log().is_empty());
    }

    #[test]
    fn store_rings_are_bounded() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 4);
        for i in 0..20u64 {
            mon.tick_at(i * SEC, snap(i * 10, 0, &[]));
        }
        assert_eq!(mon.series_len("c.rate"), 4, "ring bounded at capacity");
        assert_eq!(mon.latest("c.rate"), Some(10.0));
    }

    #[test]
    fn export_is_json_lines() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 8);
        mon.tick_at(0, snap(0, 3, &[]));
        mon.tick_at(SEC, snap(60, 3, &[]));
        let out = mon.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            crate::json::reader::validate(line).expect("each line is one JSON object");
            assert!(line.starts_with("{\"series\": "), "{line}");
        }
        assert!(out.contains("\"series\": \"c.rate\""));
        assert!(out.contains("\"value\": 60"), "{out}");
    }

    #[test]
    fn dashboard_renders_rates_alerts_and_transitions() {
        let reg = MetricsRegistry::new();
        let mon = Monitor::with_capacity(&reg, 8);
        mon.add_rule(AlertRule::above("burst", "c.rate", 50.0));
        let empty = mon.render_top(5);
        assert!(empty.contains("none yet"), "{empty}");
        mon.tick_at(0, snap(0, 0, &[]));
        mon.tick_at(SEC, snap(100, 0, &[]));
        let top = mon.render_top(5);
        assert!(top.contains("monitor: samples=2"), "{top}");
        assert!(top.contains("c.rate"), "{top}");
        assert!(top.contains("FIRING burst on c.rate value=100.0"), "{top}");
        assert!(top.contains("recent transitions:"), "{top}");
        mon.tick_at(2 * SEC, snap(101, 0, &[]));
        let resolved = mon.render_top(5);
        assert!(resolved.contains("alerts: none firing"), "{resolved}");
        assert!(resolved.contains("RESOLVED burst"), "{resolved}");
    }

    #[test]
    fn top_rates_ranks_and_truncates() {
        let mut store = TsStore::new(8);
        store.push("a.rate", 0, 5.0);
        store.push("b.rate", 0, 50.0);
        store.push("c.count", 0, 20.0);
        store.push("zero.rate", 0, 0.0);
        store.push("level_gauge", 0, 999.0); // not a rate series
        let top = store.top_rates(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "b.rate");
        assert_eq!(top[1].0, "c.count");
    }

    #[test]
    fn background_sampler_ticks_and_stops() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(5);
        let mon = Monitor::with_capacity(&reg, 32);
        let guard = mon.start(Duration::from_millis(1));
        // Wait until at least two real ticks landed (windowed rates need
        // a baseline plus one sample).
        let t0 = std::time::Instant::now();
        while mon.samples() < 2 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert!(mon.samples() >= 2, "sampler thread ticked");
        drop(guard);
        let after = mon.samples();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(mon.samples(), after, "dropping the guard stops sampling");
    }
}
