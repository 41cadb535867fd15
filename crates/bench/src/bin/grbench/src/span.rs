//! The benchmark's own spans: one per public call into a layer, recorded in
//! memory from outside the program and written as a Chrome trace at exit.
//!
//! All calls into the engine are made from the benchmark's main thread, so
//! a span's parent is simply the innermost span still open.

use std::cell::RefCell;
use std::time::Instant;

use gr_observe::{FieldValue, Recorded, SpanEvent, WallProfile};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query share this id (0 = not part of a query).
    pub query: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's duration minus the part of it its child spans cover.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::dur_ns)
        .sum();
    spans[idx].dur_ns().saturating_sub(children)
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, returning its result and its wall time in seconds. With
    /// tracing on the call is also recorded as a span of `query`.
    pub fn timed<R>(&self, name: &str, query: u64, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let t = Instant::now();
            let r = f();
            return (r, t.elapsed().as_secs_f64());
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                query,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_ns = end;
        (r, (end - spans[idx].start_ns) as f64 / 1e9)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Chrome-trace JSON: the benchmark's spans on a `grbench` track (self
    /// time, parent and query id as arguments) and, beside them, the
    /// engine's own wall-profiler samples for the queries that carried one.
    pub fn chrome_trace(&self, wall: &[WallProfile]) -> String {
        let spans = self.spans.borrow();
        let mut rec = Recorded::default();
        for (i, s) in spans.iter().enumerate() {
            let mut fields: Vec<(&'static str, FieldValue)> = vec![
                (
                    "self_us",
                    FieldValue::F64(self_time_ns(&spans, i) as f64 / 1e3),
                ),
                ("query", FieldValue::U64(s.query)),
            ];
            if let Some(p) = s.parent {
                fields.push(("parent", FieldValue::Str(spans[p].name.clone())));
            }
            rec.spans.push(SpanEvent {
                track: "grbench",
                lane: "main".to_string(),
                name: s.name.clone(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns(),
                fields,
            });
        }
        for p in wall {
            rec.spans.extend(p.to_span_events());
        }
        gr_observe::export::chrome_trace(&rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |start, end, parent| Span {
            name: "s".into(),
            start_ns: start,
            end_ns: end,
            parent,
            query: 1,
        };
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
            span(12, 20, Some(1)), // grandchild: charged to its own parent only
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_time_ns(&spans, 1), 30 - 8);
        assert_eq!(self_time_ns(&spans, 3), 8);
    }

    #[test]
    fn nested_calls_record_their_parent_and_query() {
        let tr = Tracer::new(true);
        let ((), outer) = tr.timed("outer", 7, || {
            tr.timed("inner", 7, || std::hint::black_box(1 + 1));
        });
        assert!(outer >= 0.0);
        let spans = tr.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].query, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        drop(spans);
        let trace = tr.chrome_trace(&[]);
        assert!(crate::check::Json::parse(&trace).is_ok());
        assert!(trace.contains("\"parent\":\"outer\""));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.timed("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert_eq!(tr.span_count(), 0);
    }
}
