//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out once when the run ends.
//!
//! A span's name is `<layer>.<call>`; a layer's self time is the sum of
//! its spans' durations minus the part of each interval its child spans
//! cover. With tracing off no clock is read and nothing is stored.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Request (or task-set) id shared by the spans of one operation.
    pub req: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span store. Open spans are closed by [`Tracer::end`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn start(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: now,
            end_ns: now,
        });
        Some(id)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose bounds were taken elsewhere (a load or worker
    /// thread's stamps).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1000.0)
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// union of its children's intervals clipped to it.
#[must_use]
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = union_within(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(0, None, "client.stream", 0, 100),
            // Overlapping children cover [10, 50) once: 40.
            span(1, Some(0), "daemon.request", 10, 40),
            span(2, Some(0), "daemon.request", 20, 50),
            // A child running past its parent only counts inside it.
            span(3, Some(0), "coord.route", 90, 120),
            span(4, Some(3), "coord.adopt", 95, 100),
        ];
        let times = self_time_ns(&spans);
        assert_eq!(times["client"], 100 - 40 - 10);
        assert_eq!(times["daemon"], 30 + 30);
        assert_eq!(times["coord"], (30 - 5) + 5);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.start("engine.handle", None, 1);
        assert_eq!(id, None);
        tracer.end(id);
        assert_eq!(tracer.time("engine.handle", None, 2, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn tracer_on_nests_spans() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.start("ladder.engine", None, 0);
        tracer.time("engine.handle", outer, 3, || ());
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
