//! chrome://tracing export for [`TraceBuffer`](crate::TraceBuffer).
//!
//! Emits the Trace Event Format's JSON object form
//! (`{"traceEvents": [...]}`): phase brackets become duration events
//! (`"ph": "B"` / `"ph": "E"`) and every other trace event becomes a
//! thread-scoped instant event (`"ph": "i"`, `"s": "t"`) with its payload
//! under `args`. Lanes map to `tid`, the whole buffer to `pid` 1, and
//! timestamps are microseconds since buffer creation (the format's unit).
//!
//! Hand-rolled on [`crate::json`] — no serde in this workspace — and kept
//! honest by the same validator the benches use.

use crate::json::{JsonArr, JsonObj};
use crate::trace::{TimedEvent, TraceBuffer, TraceEvent};

/// Process id for every exported event (one buffer = one process).
const PID: u64 = 1;

fn event_json(ev: &TimedEvent) -> String {
    let mut obj = JsonObj::new();
    let ts_us = ev.t_ns as f64 / 1000.0;
    match ev.event {
        TraceEvent::PhaseStart { phase } => {
            obj.str("name", phase.as_str())
                .str("cat", "phase")
                .str("ph", "B")
                .f64("ts", ts_us)
                .u64("pid", PID)
                .u64("tid", ev.lane as u64);
        }
        TraceEvent::PhaseEnd { phase } => {
            obj.str("name", phase.as_str())
                .str("cat", "phase")
                .str("ph", "E")
                .f64("ts", ts_us)
                .u64("pid", PID)
                .u64("tid", ev.lane as u64);
        }
        other => {
            let mut args = JsonObj::new();
            match other {
                TraceEvent::Reroute { tuple, reason } => {
                    args.u64("tuple", tuple).str("reason", reason.as_str());
                }
                TraceEvent::ModelGrow { points, budget }
                | TraceEvent::ModelEvict { points, budget }
                | TraceEvent::CapHit { points, budget } => {
                    args.u64("points", points).u64("budget", budget);
                }
                TraceEvent::CertifyFail { pair, bound_gap } => {
                    // Non-finite gaps (no bracket computable) become null,
                    // matching the writer's number policy.
                    args.u64("left", u64::from(pair.0))
                        .u64("right", u64::from(pair.1))
                        .f64("bound_gap", bound_gap);
                }
                TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => unreachable!(),
            }
            obj.str("name", other.kind())
                .str("cat", "event")
                .str("ph", "i")
                .str("s", "t")
                .f64("ts", ts_us)
                .u64("pid", PID)
                .u64("tid", ev.lane as u64)
                .u64("seq", ev.seq)
                .raw("args", &args.finish());
        }
    }
    obj.finish()
}

impl TraceBuffer {
    /// Serialize every retained event as a chrome://tracing document.
    /// Load the result via `chrome://tracing` or Perfetto's legacy
    /// importer. Always a valid JSON object, even when empty.
    pub fn to_chrome_json(&self) -> String {
        let mut arr = JsonArr::new();
        for ev in self.events() {
            arr.raw(&event_json(&ev));
        }
        let mut root = JsonObj::new();
        root.raw("traceEvents", &arr.finish())
            .str("displayTimeUnit", "ms");
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::reader::validate;
    use crate::trace::{RerouteReason, TracePhase};

    #[test]
    fn empty_buffer_exports_valid_json() {
        let buf = TraceBuffer::disabled();
        let s = buf.to_chrome_json();
        validate(&s).unwrap();
        assert!(s.contains("\"traceEvents\": []"), "{s}");
    }

    #[test]
    fn export_covers_every_event_shape_and_validates() {
        let buf = TraceBuffer::new(2, 64);
        buf.emit(
            0,
            TraceEvent::PhaseStart {
                phase: TracePhase::Fast,
            },
        );
        buf.emit(
            0,
            TraceEvent::Reroute {
                tuple: 7,
                reason: RerouteReason::AccuracyMiss,
            },
        );
        buf.emit(
            1,
            TraceEvent::ModelGrow {
                points: 12,
                budget: 16,
            },
        );
        buf.emit(
            1,
            TraceEvent::ModelEvict {
                points: 15,
                budget: 16,
            },
        );
        buf.emit(
            1,
            TraceEvent::CapHit {
                points: 16,
                budget: 16,
            },
        );
        buf.emit(
            1,
            TraceEvent::CertifyFail {
                pair: (3, 9),
                bound_gap: 0.125,
            },
        );
        buf.emit(
            1,
            TraceEvent::CertifyFail {
                pair: (4, 9),
                bound_gap: f64::INFINITY,
            },
        );
        buf.emit(
            0,
            TraceEvent::PhaseEnd {
                phase: TracePhase::Fast,
            },
        );
        let s = buf.to_chrome_json();
        validate(&s).unwrap();
        assert!(s.contains("\"ph\": \"B\""), "{s}");
        assert!(s.contains("\"ph\": \"E\""), "{s}");
        assert!(s.contains("\"ph\": \"i\""), "{s}");
        assert!(s.contains("\"reason\": \"accuracy_miss\""), "{s}");
        assert!(s.contains("\"name\": \"cap_hit\""), "{s}");
        assert!(
            s.contains("\"bound_gap\": null"),
            "infinite gap must export as null: {s}"
        );
        assert!(s.contains("\"bound_gap\": 0.125"), "{s}");
        assert!(s.contains("\"tid\": 1"), "{s}");
    }
}
