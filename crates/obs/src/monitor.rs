//! The registry-wide cap-hit alert behind the REPL's `\top`.
//!
//! A [`Monitor`] reads its [`MetricsRegistry`] once per tick and keeps
//! only the previous snapshot. Each [`AlertRule`] watches one counter: it
//! fires when the counter grew over the window since the previous tick and
//! resolves on the first window in which it did not. Nothing samples on
//! its own: the host calls [`Monitor::tick`] (the REPL does once per
//! statement); tests drive [`Monitor::tick_at`] with hand-made snapshots.
//! Ticking only *reads* snapshots, so rows and digests are byte-identical
//! whether the monitor ticks or not (pinned by `udf-lang`'s monitor suite).

use crate::fmt::KvLine;
use crate::registry::{MetricsRegistry, Snapshot};
use std::collections::VecDeque;

/// One alert: `name` fires while `counter` grows between ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (the log and dashboard key).
    pub name: String,
    /// The watched registry counter, e.g. `olgapro.cap_hits`.
    pub counter: String,
}

/// One firing/resolved transition in the alert log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Timestamp of the tick that made the transition.
    pub t_ns: u64,
    /// The rule that transitioned.
    pub rule: String,
    /// `true` = the rule started firing, `false` = it resolved.
    pub firing: bool,
    /// The counter's growth over the transition's window.
    pub delta: u64,
}

/// Bound on the retained alert log (drop-oldest, like every ring here).
const ALERT_LOG_CAPACITY: usize = 256;

/// Transitions `render_top` shows, newest last.
const LOG_TAIL: usize = 4;

/// The registry-wide monitor. See the module docs.
#[derive(Debug)]
pub struct Monitor {
    registry: MetricsRegistry,
    /// Each rule with its firing flag.
    rules: Vec<(AlertRule, bool)>,
    /// The previous tick's snapshot; `None` until the first tick, which
    /// only baselines (a delta needs a window).
    last: Option<Snapshot>,
    /// [`MetricsRegistry::resets`] as of the previous [`Monitor::tick`].
    resets: u64,
    samples: u64,
    log: VecDeque<AlertEvent>,
}

impl Monitor {
    /// A monitor over `registry` evaluating `rules` on every tick.
    pub fn new(registry: &MetricsRegistry, rules: Vec<AlertRule>) -> Self {
        Monitor {
            registry: registry.clone(),
            rules: rules.into_iter().map(|r| (r, false)).collect(),
            last: None,
            resets: registry.resets(),
            samples: 0,
            log: VecDeque::new(),
        }
    }

    /// The rule set every `Context` installs: any `cap_hits` in a window
    /// means a model stopped absorbing new points, so its answers run at
    /// whatever accuracy the capped model still gives.
    pub fn standard_rules() -> Vec<AlertRule> {
        vec![AlertRule {
            name: "cap_hits_burst".into(),
            counter: "olgapro.cap_hits".into(),
        }]
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of ticks folded so far (the baseline tick included).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Read the registry now and evaluate every rule over the window since
    /// the previous tick. A [`MetricsRegistry::reset`] since then zeroed
    /// every counter, so the window starts from zero: the current snapshot
    /// is the delta.
    pub fn tick(&mut self) {
        let resets = self.registry.resets();
        if resets != self.resets {
            self.resets = resets;
            if let Some(last) = &mut self.last {
                *last = Snapshot::default();
            }
        }
        self.tick_at(self.registry.uptime_ns(), self.registry.snapshot());
    }

    /// The deterministic entry point: fold an explicit `(t_ns, snapshot)`
    /// sample, without touching the registry or a clock.
    pub fn tick_at(&mut self, t_ns: u64, snap: Snapshot) {
        self.samples += 1;
        let Some(last) = self.last.take() else {
            self.last = Some(snap);
            return;
        };
        for (rule, firing) in &mut self.rules {
            let count = |s: &Snapshot| s.counters.get(&rule.counter).copied().unwrap_or(0);
            let delta = count(&snap).saturating_sub(count(&last));
            if (delta > 0) != *firing {
                *firing = delta > 0;
                if self.log.len() == ALERT_LOG_CAPACITY {
                    self.log.pop_front();
                }
                self.log.push_back(AlertEvent {
                    t_ns,
                    rule: rule.name.clone(),
                    firing: *firing,
                    delta,
                });
            }
        }
        self.last = Some(snap);
    }

    fn firing_rules(&self) -> impl Iterator<Item = &AlertRule> {
        self.rules.iter().filter(|(_, f)| *f).map(|(r, _)| r)
    }

    /// Names of the currently firing rules.
    pub fn active_alerts(&self) -> Vec<String> {
        self.firing_rules().map(|r| r.name.clone()).collect()
    }

    /// The retained firing/resolved transitions, oldest first.
    pub fn alert_log(&self) -> &VecDeque<AlertEvent> {
        &self.log
    }

    /// The `\top` dashboard: a summary line, the firing rules, and the
    /// freshest transitions.
    pub fn render_top(&self) -> String {
        let firing: Vec<&AlertRule> = self.firing_rules().collect();
        let mut s = KvLine::new()
            .raw("monitor:")
            .field("samples", self.samples)
            .field("rules", self.rules.len())
            .field("firing", firing.len())
            .finish();
        s.push_str(if firing.is_empty() {
            "\nalerts: none firing\n"
        } else {
            "\nalerts:\n"
        });
        for r in firing {
            s.push_str(&format!("  FIRING {} on {}\n", r.name, r.counter));
        }
        if !self.log.is_empty() {
            s.push_str("recent transitions:\n");
            let skip = self.log.len().saturating_sub(LOG_TAIL);
            for e in self.log.iter().skip(skip) {
                s.push_str(&format!(
                    "  [{:>8.3}s] {} {} delta={}\n",
                    e.t_ns as f64 / 1e9,
                    if e.firing { "FIRING" } else { "RESOLVED" },
                    e.rule,
                    e.delta,
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic snapshot holding one counter `c`.
    fn snap(c: u64) -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(c);
        reg.snapshot()
    }

    fn rule(name: &str, counter: &str) -> AlertRule {
        AlertRule {
            name: name.into(),
            counter: counter.into(),
        }
    }

    fn burst_monitor() -> Monitor {
        Monitor::new(&MetricsRegistry::new(), vec![rule("burst", "c")])
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn first_tick_only_baselines() {
        let mut mon = burst_monitor();
        mon.tick_at(SEC, snap(50));
        assert_eq!(mon.samples(), 1);
        assert!(
            mon.active_alerts().is_empty(),
            "a nonzero total is no window"
        );
        assert!(mon.alert_log().is_empty());
    }

    #[test]
    fn threshold_rule_fires_and_resolves() {
        let mut mon = burst_monitor();
        mon.tick_at(0, snap(0));
        mon.tick_at(SEC, snap(100));
        assert_eq!(mon.active_alerts(), vec!["burst".to_string()]);
        mon.tick_at(2 * SEC, snap(100));
        assert!(mon.active_alerts().is_empty(), "a clean window resolves");
        let log = mon.alert_log();
        assert_eq!(log.len(), 2, "one firing + one resolved transition");
        assert_eq!(
            log[0],
            AlertEvent {
                t_ns: SEC,
                rule: "burst".into(),
                firing: true,
                delta: 100,
            }
        );
        assert!(!log[1].firing);
        assert_eq!((log[1].t_ns, log[1].delta), (2 * SEC, 0));
    }

    #[test]
    fn window_rate_is_deltas_not_totals() {
        let mut mon = burst_monitor();
        mon.tick_at(0, snap(1000));
        mon.tick_at(SEC, snap(1000));
        assert!(mon.active_alerts().is_empty(), "a flat total is clean");
        mon.tick_at(2 * SEC, snap(1001));
        mon.tick_at(3 * SEC, snap(1002));
        assert_eq!(mon.active_alerts().len(), 1);
        assert_eq!(
            mon.alert_log().len(),
            1,
            "staying on fire logs no transition"
        );
    }

    #[test]
    fn missing_series_is_no_verdict_not_a_breach() {
        let mut mon = Monitor::new(
            &MetricsRegistry::new(),
            vec![rule("starved", "no.such.counter")],
        );
        mon.tick_at(0, snap(0));
        mon.tick_at(SEC, snap(1));
        assert!(mon.active_alerts().is_empty());
        assert!(mon.alert_log().is_empty());
    }

    /// The alert log is the monitor's one drop-oldest ring.
    #[test]
    fn ring_drops_oldest_at_capacity() {
        let mut mon = burst_monitor();
        // Alternate hot and flat windows: every tick after the baseline
        // is a transition.
        let ticks = ALERT_LOG_CAPACITY as u64 + 10;
        for i in 0..=ticks {
            mon.tick_at(i, snap(i.div_ceil(2)));
        }
        let log = mon.alert_log();
        assert_eq!(log.len(), ALERT_LOG_CAPACITY, "log bounded at capacity");
        assert_eq!(log.back().unwrap().t_ns, ticks, "newest kept");
        assert_eq!(log[0].t_ns, ticks - ALERT_LOG_CAPACITY as u64 + 1);
    }

    #[test]
    fn reset_starts_the_next_window_from_zero() {
        let reg = MetricsRegistry::new();
        let mut mon = Monitor::new(&reg, vec![rule("burst", "c")]);
        let c = reg.counter("c");
        c.add(10);
        mon.tick();
        reg.reset();
        c.add(3); // below the pre-reset total of 10
        mon.tick();
        assert_eq!(mon.active_alerts(), vec!["burst".to_string()]);
        assert_eq!(mon.alert_log()[0].delta, 3);
        mon.tick();
        assert!(mon.active_alerts().is_empty());
    }

    #[test]
    fn dashboard_renders_alerts_and_transitions() {
        let mut mon = burst_monitor();
        let empty = mon.render_top();
        assert!(empty.contains("monitor: samples=0"), "{empty}");
        assert!(empty.contains("alerts: none firing"), "{empty}");
        mon.tick_at(0, snap(0));
        mon.tick_at(SEC, snap(100));
        let top = mon.render_top();
        assert!(top.contains("monitor: samples=2 rules=1 firing=1"), "{top}");
        assert!(top.contains("FIRING burst on c\n"), "{top}");
        assert!(top.contains("recent transitions:"), "{top}");
        assert!(top.contains("FIRING burst delta=100"), "{top}");
        mon.tick_at(2 * SEC, snap(100));
        let resolved = mon.render_top();
        assert!(resolved.contains("alerts: none firing"), "{resolved}");
        assert!(resolved.contains("RESOLVED burst delta=0"), "{resolved}");
    }
}
