//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public API; the program itself carries no tracing. Each span
//! has a name, start, end, the span that caused it and a session id
//! shared by every span of one client session (or one sweep pass). They
//! stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub session: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and count of every span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds from the origin to `t`.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id, for a span whose children are recorded before
    /// the span itself ends.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an interval timed by the caller under a preassigned id.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        session: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            session,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.extend(vec![span]);
    }

    /// Adds spans buffered elsewhere (a client thread keeps its own
    /// buffer and hands it over once per session).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span buffer lock: a recording thread panicked")
            .extend(spans);
    }

    /// Times `f` as a span named `name`; `f` receives the span's id so
    /// it can parent child spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        session: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.id();
        let start = Instant::now();
        let r = f(id);
        self.record(id, name, parent, session, start, Instant::now());
        r
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock: a recording thread panicked")
            .clone()
    }

    /// Durations (ns) of every span named `name`, in record order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span buffer lock: a recording thread panicked")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per-name count, total time and self time: a span's duration
    /// minus the part of its interval that its children cover.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        layer_times(&self.spans())
    }

    /// Every span as tab-separated lines, with a header.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\tsession\tname\tstart_ns\tend_ns\n");
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, parent, s.session, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// [`Tracer::layers`] over an explicit span list.
#[must_use]
pub fn layer_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Times `f` as a span when tracing, and simply calls it otherwise.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    session: u64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, session, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            session: 0,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            // Overlapping children cover [10, 50) once, not twice.
            span(2, Some(1), "runner", 10, 40),
            span(3, Some(1), "runner", 20, 50),
            // A child that outlives its parent is clipped at the end.
            span(4, Some(1), "render", 90, 130),
            span(5, Some(2), "leaf", 15, 25),
        ];
        let l = layer_times(&spans);
        assert_eq!(l["pass"].self_ns, 100 - 40 - 10);
        assert_eq!(l["runner"].count, 2);
        assert_eq!(l["runner"].total_ns, 60);
        assert_eq!(l["runner"].self_ns, 60 - 10);
        assert_eq!(l["render"].self_ns, 40);
        assert_eq!(l["leaf"].self_ns, 10);
    }

    #[test]
    fn spans_nest_through_the_closure_id() {
        let t = Tracer::default();
        t.span("outer", None, 7, |id| {
            t.span("inner", Some(id), 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.dump().lines().count() == 3);
        assert_eq!(maybe_span(None, "x", None, 0, |id| id), None);
    }
}
