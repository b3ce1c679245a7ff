//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that encloses it and the op it belongs to.
//! Spans live in memory until the run ends; [`Tracer::write_jsonl`]
//! writes them out. Self time is a span's duration minus the time its
//! direct children cover.

use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `spec.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (probes use their own op ids).
    pub op: u64,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// The span's duration minus its direct children's.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Records spans while `on`; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// A tracer that starts recording when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Turns recording on or off (between ops only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f`, recording it as span `name` when the tracer is on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            child_ns: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        let duration = end - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
        out
    }

    /// Records a count measured at a layer boundary, when on.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, value));
        }
    }

    /// Every value recorded for count `name`, in order.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times, in seconds, of every span called `name`.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.self_ns()
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
