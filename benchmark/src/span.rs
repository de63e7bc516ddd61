//! The benchmark's own in-memory span recorder (`--trace 1` only).
//!
//! Spans wrap calls into the simulator's public functions; nothing inside
//! the simulator is instrumented. They are kept in memory and written to
//! `out/trace-<workload>.json` when the run ends. Timed end-to-end runs
//! never construct a recorder.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Request wave the span belongs to (spans of one wave share it).
    pub wave: Option<u64>,
}

/// Handle returned by [`SpanRecorder::enter`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over a recording.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanRecorder {
    pub fn new() -> Self {
        SpanRecorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, wave: Option<u64>) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            wave,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.enter(name, None);
        let out = f(self);
        (out, self.exit(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("wave", s.wave.map_or(Json::Null, |w| Json::Num(w as f64))),
            ])
        });
        let totals = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        Json::obj([("totals", Json::obj(totals)), ("spans", Json::Arr(spans.collect()))])
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, wave: None }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by ten and sticks out of the parent by twenty.
            span("b", 30, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        // Children cover [10, 100) of the parent: 90 of its 100.
        assert_eq!(self_times_ns(&spans), vec![10, 22, 90, 8]);
        let t = totals(&spans);
        assert_eq!(t["run"], NameTotals { count: 1, total_ns: 100, self_ns: 10 });
        assert_eq!(t["a"], NameTotals { count: 1, total_ns: 30, self_ns: 22 });
    }

    #[test]
    fn recorder_nests_and_refuses_crossed_exits() {
        let mut rec = SpanRecorder::new();
        let outer = rec.enter("outer", Some(7));
        let ((), inner_ns) = rec.scope("inner", |_| {});
        let outer_ns = rec.exit(outer);
        assert!(outer_ns >= inner_ns);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].wave, Some(7));
        assert_eq!(rec.totals()["inner"].total_ns, inner_ns);
        let a = rec.enter("a", None);
        let _b = rec.enter("b", None);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rec.exit(a))).is_err());
    }
}
