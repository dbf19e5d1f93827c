//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around one call into a public
//! function of a layer; nothing inside the program is instrumented. Spans
//! stay in memory while the workload runs and are written out once at
//! the end ([`Tracer::write_jsonl`]), so recording costs two clock reads
//! and a `Vec` push.
//!
//! Spans of one serving batch share its generation as the request id.
//! The children of a `store.durable.ingest.ms` root are *replays* of the
//! steps that ingest runs internally — a sidecar log append and a mirror
//! graph/engine that receives the same batch — so they run after the root
//! span ends, not inside its interval. Their attribution is by `parent`,
//! and [`self_time_ns`] therefore subtracts the children's summed
//! durations rather than their interval overlap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// Metric-style span name, e.g. `graph.delta.snapshot.ms`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span this one is attributed to, if any.
    pub parent: Option<usize>,
    /// Request id: the serving generation, or the grid-pass number.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            request,
        });
        id
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write one JSON object per span to `path`.
    ///
    /// # Errors
    /// Any I/O failure.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Summed duration of the direct children of `parent`.
pub fn child_ns(spans: &[Span], parent: usize) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent))
        .map(Span::duration_ns)
        .sum()
}

/// Self time of span `id`: its duration minus what its children account
/// for, floored at zero.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    spans[id].duration_ns().saturating_sub(child_ns(spans, id))
}

/// Share of span `id`'s duration that its children account for (may
/// exceed 1 when the replayed steps cost more than the call they replay).
pub fn child_share(spans: &[Span], id: usize) -> f64 {
    let d = spans[id].duration_ns();
    if d == 0 {
        0.0
    } else {
        child_ns(spans, id) as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // Root of 100 ns; two children of 30 and 20 ns; a grandchild of 5
        // ns counts against its own parent only.
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 100, 130, Some(0)),
            span(2, 130, 150, Some(0)),
            span(3, 131, 136, Some(2)),
            span(4, 200, 210, None),
        ];
        assert_eq!(child_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 2), 15);
        assert_eq!(self_time_ns(&spans, 1), 30);
        assert_eq!(self_time_ns(&spans, 4), 10);
        assert!((child_share(&spans, 0) - 0.5).abs() < 1e-12);
        assert_eq!(child_share(&spans, 4), 0.0);
    }

    #[test]
    fn self_time_floors_at_zero_when_children_exceed_parent() {
        let spans = vec![span(0, 0, 10, None), span(1, 20, 45, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert!((child_share(&spans, 0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_keeps_names_parents_and_requests() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let root = t.record("root", start, Instant::now(), None, 7);
        let v = t.time("child", Some(root), 7, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[1].end_ns >= t.spans()[1].start_ns);
        assert_eq!(t.durations_ms("child").len(), 1);
    }
}
