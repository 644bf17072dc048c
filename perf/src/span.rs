//! The harness's own span recorder (traced pass only).
//!
//! Spans are taken from *outside* the program: the harness opens one
//! around each call into a layer's public function. Each span carries an
//! id, its parent's id, the id of the run (one user-visible call) it
//! belongs to, a name, start and end on one monotonic clock, and counts
//! attached at the same boundary. Spans stay in memory and are written
//! once, when the benchmark ends, in the Trace Event Format that
//! `dmac_core::Trace::to_chrome_json` already uses.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use dmac_core::json::{arr_of, JsonObj};

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Span buffer with a stack of open spans (the harness is the only
/// caller and nests its calls strictly, so a stack is the parent chain).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Recorder {
    /// A recorder that records (`--trace 1`) or one whose `span` only
    /// calls through (`--trace 0`: end-to-end numbers are measured with
    /// tracing off).
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Start a new run: spans opened from now on carry its id.
    pub fn next_run(&mut self) -> u64 {
        self.run += 1;
        self.run
    }

    /// Time `f` as a span named `name` under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: 0.0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Record an interval measured elsewhere (a client thread's request)
    /// as a closed child of the innermost open span.
    pub fn closed(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start: start.saturating_duration_since(self.epoch).as_secs_f64(),
            end: end.saturating_duration_since(self.epoch).as_secs_f64(),
            counts: Vec::new(),
        });
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Trace Event Format: one complete (`"ph":"X"`) event per span,
    /// timestamps in microseconds, one track per nesting depth.
    pub fn to_chrome_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let events = arr_of(self.spans.iter().map(|s| {
            let mut args = JsonObj::new()
                .u64("id", s.id as u64)
                .u64("run", s.run)
                .f64("self_us", selfs[s.id] * 1e6);
            args = match s.parent {
                Some(p) => args.u64("parent", p as u64),
                None => args.raw("parent", "null"),
            };
            for (k, v) in &s.counts {
                args = args.u64(k, *v);
            }
            JsonObj::new()
                .str("name", s.name)
                .str("cat", s.name.split('.').next().unwrap_or(s.name))
                .str("ph", "X")
                .f64("ts", s.start * 1e6)
                .f64("dur", (s.dur() * 1e6).max(0.01))
                .u64("pid", 1)
                .u64("tid", depth(&self.spans, s.id) as u64)
                .raw("args", &args.build())
                .build()
        }));
        JsonObj::new().raw("traceEvents", &events).build()
    }
}

fn depth(spans: &[Span], id: usize) -> usize {
    let mut d = 0;
    let mut cur = spans[id].parent;
    while let Some(p) = cur {
        d += 1;
        cur = spans[p].parent;
    }
    d
}

/// Self time per span id: duration minus the union of the intervals its
/// direct children cover (clipped to the parent; overlapping or
/// back-to-back siblings are merged so no instant is subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = std::mem::take(&mut children[s.id]);
            iv.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (lo, hi) in iv {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total: f64,
    pub self_time: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total += s.dur();
        t.self_time += selfs[s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name,
            start,
            end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // run [0,10] ─ plan [1,3] ─ verify [1.5,2.5]
        //            └ exec [3,9] ─ kernel [4,6], kernel [6,8]
        let spans = vec![
            span(0, None, "run", 0.0, 10.0),
            span(1, Some(0), "plan", 1.0, 3.0),
            span(2, Some(1), "verify", 1.5, 2.5),
            span(3, Some(0), "exec", 3.0, 9.0),
            span(4, Some(3), "kernel", 4.0, 6.0),
            span(5, Some(3), "kernel", 6.0, 8.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![2.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // Self times of a tree add up to the root's duration.
        assert!((s.iter().sum::<f64>() - 10.0).abs() < 1e-12);
        let sum = summarize(&spans);
        assert_eq!(sum["kernel"].calls, 2);
        assert_eq!(sum["kernel"].total, 4.0);
        assert_eq!(sum["exec"].self_time, 2.0);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two client threads' requests overlap inside one slice span.
        let spans = vec![
            span(0, None, "slice", 0.0, 10.0),
            span(1, Some(0), "req", 1.0, 6.0),
            span(2, Some(0), "req", 4.0, 8.0),
            span(3, Some(0), "req", 9.0, 12.0), // clipped to the parent
        ];
        let s = self_times(&spans);
        assert!((s[0] - (10.0 - 7.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_exports_chrome_json() {
        let mut r = Recorder::new(true);
        r.next_run();
        r.span("outer", |r| {
            r.count("bytes", 7);
            r.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 1);
        assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);
        // Tracing off: the call goes through, nothing is kept.
        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |_| 5), 5);
        assert!(off.spans().is_empty());
        let json = r.to_chrome_json();
        let parsed = dmac_cluster::jsonin::Json::parse(&json).expect("valid json");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|b| b.as_u64()),
            Some(7)
        );
    }
}
