//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! The engine is not instrumented for this: the ladder (see the
//! `udf-bench-ladder` binary) calls successively lower public APIs and
//! brackets each call. A span's *self time* is its duration minus the part
//! of that interval its child spans cover, so the self times of a tree sum
//! to the root's duration by construction.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`run_uql`, `infer_only_with`, ...).
    pub name: &'static str,
    /// The crate/module the call belongs to (`lang`, `sched`, `olgapro`, ...).
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which pass (repetition) of the rung the span belongs to.
    pub pass: u32,
    /// The input item (tuple, pair) the call worked on, when there is one.
    pub item: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; the open spans form the parent chain.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled, empty recorder.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            enabled: true,
        }
    }

    /// Turn recording on or off (off: `begin`/`end` do nothing).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Label subsequent spans with this pass number.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns the token `end`
    /// takes (`None` while disabled).
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        item: Option<u32>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
            item,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned. Spans close innermost-first.
    pub fn end(&mut self, token: Option<usize>) {
        let Some(id) = token else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "take() with spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals (clipped to the span, so a child that overruns
/// or overlaps a sibling is never counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0) += own;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            item: None,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("c", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' spans overlap on [30, 40]; a third overruns the
        // parent and is clipped to it.
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("b", 90, 130, Some(0)),
        ];
        // Union of children inside the parent: [10, 60] ∪ [90, 100] = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn nested_child_inside_sibling_adds_nothing() {
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 80, Some(0)),
            span("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn layer_self_times_sum_to_the_root() {
        let spans = vec![
            span("lang", 0, 1000, None),
            span("query", 100, 900, Some(0)),
            span("sched", 150, 850, Some(1)),
            span("olgapro", 200, 400, Some(2)),
            span("olgapro", 400, 800, Some(2)),
        ];
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["lang"], 200);
        assert_eq!(by_layer["query"], 100);
        assert_eq!(by_layer["sched"], 100);
        assert_eq!(by_layer["olgapro"], 600);
        assert_eq!(by_layer.values().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn recorder_nests_and_honours_disable() {
        let mut rec = Recorder::new();
        rec.set_pass(3);
        let outer = rec.begin("outer", "a", None);
        let inner = rec.begin("inner", "b", Some(7));
        rec.end(inner);
        rec.end(outer);
        rec.set_enabled(false);
        let off = rec.begin("off", "a", None);
        assert_eq!(off, None);
        rec.end(off);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].item), (3, Some(7)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_ns(&spans, "inner").len(), 1);
    }
}
