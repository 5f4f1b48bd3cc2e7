//! Ledger-side spans: one record around every call the ledger makes
//! into a layer. Spans live in memory until the run ends and are then
//! written to `ledger/out/<workload>.trace.json`. All spans of one op
//! share its id; a span's parent is the span that was open when it
//! started.

use crate::json::{int, obj, text, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder (parents precede children).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
    /// `<layer>.<call>`, e.g. `lang.parse` or `tuner.tune`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span as one JSON object of the trace file.
    pub fn to_json(&self) -> Value {
        obj([
            ("id", int(self.id as u64)),
            ("parent", self.parent.map_or(Value::Null, |p| int(p as u64))),
            ("op", int(self.op as u64)),
            ("name", text(self.name)),
            ("start_ns", int(self.start_ns)),
            ("end_ns", int(self.end_ns)),
        ])
    }
}

/// Single-threaded span recorder (the load model has one client
/// thread; work the layers fan out to the pool is read back from their
/// own counters, not recorded here).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
    enabled: bool,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`; disabled, every
    /// call is a branch and the closure call.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            enabled,
        }
    }

    /// Sets the op id stamped on spans recorded from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                cursor = cursor.max(end);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

/// Every duration recorded under `name`, in nanoseconds.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 40);
        assert_eq!(by_name["child"], 60);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
        ];
        // The children cover [10, 80): 70 ns, not 50 + 40.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_stamps_the_op() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let out = rec.span("outer", |rec| rec.span("inner", |_| 42));
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_of(spans, "inner").len(), 1);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 1), 1);
        assert!(rec.spans().is_empty());
    }
}
