//! Harness spans: one span around every call the benchmark makes into
//! the program, kept in memory and written out as Chrome trace JSON when
//! the traced pass ends. Spans are recorded from the benchmark's own
//! files only; spans inside the program are a later change.
//!
//! Timestamps are `Obs::now_us()`, the clock the program stamps its own
//! events with, so harness spans and the block timelines the
//! `TraceAssembler` rebuilds share one axis.

use smarth_core::json::{ObjectBuilder, Value};
use smarth_core::obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    /// One id per operation (a put, a get, one RPC); every span of that
    /// operation carries it. 0 on round and phase spans.
    pub op: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Chrome trace lane: the load thread that made the call.
    pub lane: u32,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Where a new span hangs: its parent, its operation and its lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub parent: u32,
    pub op: u64,
    pub lane: u32,
}

impl Ctx {
    pub fn on_lane(self, lane: u32) -> Ctx {
        Ctx { lane, ..self }
    }
}

/// Records spans when on; when off every call runs bare, so the
/// measured pass and the traced pass share one round implementation.
pub struct Tracer {
    spans: Option<Mutex<Vec<Span>>>,
    next_op: AtomicU64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            spans: None,
            next_op: AtomicU64::new(1),
        }
    }

    pub fn on() -> Self {
        Tracer {
            spans: Some(Mutex::new(Vec::new())),
            next_op: AtomicU64::new(1),
        }
    }

    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context its own children hang from.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        let Some(spans) = &self.spans else {
            return f(ctx);
        };
        let id = {
            let mut v = spans.lock().expect("span list poisoned");
            let id = v.len() as u32 + 1;
            v.push(Span {
                id,
                parent: ctx.parent,
                op: ctx.op,
                name,
                start_us: Obs::now_us(),
                end_us: 0,
                lane: ctx.lane,
            });
            id
        };
        let out = f(Ctx { parent: id, ..ctx });
        let end = Obs::now_us();
        spans.lock().expect("span list poisoned")[id as usize - 1].end_us = end;
        out
    }

    /// A span that is one operation: it gets a fresh operation id.
    pub fn op<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce() -> R) -> R {
        if self.spans.is_none() {
            return f();
        }
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        self.span(name, Ctx { op, ..ctx }, |_| f())
    }

    pub fn take(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => std::mem::take(&mut *spans.lock().expect("span list poisoned")),
            None => Vec::new(),
        }
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children counted once). Indexed
/// like `spans`.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (a, b) = (s.start_us.max(p.start_us), s.end_us.min(p.end_us));
            if b > a {
                children[s.parent as usize - 1].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_us);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Durations in µs of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_us() as f64)
        .collect()
}

/// Chrome `trace_event` complete events for the harness spans. `pid` 0
/// is the harness row; the assembled block timelines keep the client id
/// as their pid, so the two never collide.
pub fn chrome_events(spans: &[Span]) -> Vec<Value> {
    let selfs = self_times_us(spans);
    spans
        .iter()
        .zip(selfs)
        .map(|(s, self_us)| {
            ObjectBuilder::new()
                .field("name", s.name)
                .field("cat", "harness")
                .field("ph", "X")
                .field("ts", s.start_us)
                .field("dur", s.duration_us().max(1))
                .field("pid", 0u64)
                .field("tid", u64::from(s.lane))
                .field(
                    "args",
                    ObjectBuilder::new()
                        .field("id", u64::from(s.id))
                        .field("parent", u64::from(s.parent))
                        .field("op", s.op)
                        .field("self_us", self_us)
                        .build(),
                )
                .build()
        })
        .collect()
}

/// The object form of a Chrome trace: harness spans plus whatever
/// events the program's own `to_chrome_trace` rendered.
pub fn chrome_trace(spans: &[Span], program_events: Vec<Value>, meta: Value) -> Value {
    let mut events = chrome_events(spans);
    events.extend(program_events);
    ObjectBuilder::new()
        .field("traceEvents", Value::Array(events))
        .field("displayTimeUnit", "ms")
        .field("otherData", meta)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_us,
            end_us,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2 on 30..40 and runs past the parent's end:
            // only 30..100 is inside, only 40..100 is newly covered.
            span(3, 1, 30, 120),
            span(4, 2, 15, 20),
        ];
        assert_eq!(self_times_us(&spans), vec![10, 25, 90, 5]);
    }

    #[test]
    fn tracer_records_parent_op_and_lane() {
        let t = Tracer::on();
        let answer = t.span("round", Ctx::default(), |round| {
            t.span("phase", round.on_lane(1), |phase| {
                t.op("call", phase, || 41) + t.op("call", phase, || 1)
            })
        });
        assert_eq!(answer, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 2)
        );
        assert_eq!((spans[0].op, spans[1].op), (0, 0));
        assert_ne!(spans[2].op, spans[3].op);
        assert!(spans[2].op > 0 && spans[3].op > 0);
        assert_eq!((spans[1].lane, spans[2].lane), (1, 1));
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        assert!(t.take().is_empty());
    }

    #[test]
    fn tracer_off_records_nothing_and_still_runs_the_call() {
        let t = Tracer::off();
        assert_eq!(t.span("a", Ctx::default(), |c| t.op("b", c, || 7)), 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn chrome_trace_output_parses() {
        let t = Tracer::on();
        t.span("round", Ctx::default(), |c| t.op("client.put", c, || ()));
        let doc = chrome_trace(&t.take(), Vec::new(), Value::Null);
        let parsed = smarth_core::json::parse(&doc.to_string_pretty()).expect("valid JSON");
        let events = parsed.get("traceEvents").as_array().expect("event array");
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").as_str(), Some("X"));
            assert!(e.get("dur").as_u64().is_some_and(|d| d >= 1));
            assert!(e.get("args").get("self_us").as_u64().is_some());
        }
        assert_eq!(events[1].get("name").as_str(), Some("client.put"));
        assert_eq!(events[1].get("args").get("parent").as_u64(), Some(1));
    }
}
