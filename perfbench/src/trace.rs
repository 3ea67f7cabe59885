//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions (the program itself is not traced).
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! op it belongs to. Spans stay in memory while the workload runs and are
//! written out as JSON lines at the end. A span's self time is its
//! duration minus the union of its children's intervals, so parallel
//! children (the Monte-Carlo chips of one fan-out) are not double
//! counted.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Spans with an op id at or above this are kept in memory for the
/// metrics but not written to the span file (the serving workloads send
/// ~10^5 requests per run).
const SPAN_FILE_OPS: u64 = 10_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    op: u64,
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Opens a span that children can name as parent; close it with
    /// [`Self::end`].
    pub fn begin(&self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    pub fn end(&self, id: usize) {
        self.spans.lock().expect("span list lock")[id].end = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Self times (ms) of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list lock");
        let children = children_of(&spans);
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time_s(&spans, &children[i], s) * 1e3)
            .collect()
    }

    /// Writes every span (ops below [`SPAN_FILE_OPS`]) as JSON lines:
    /// id, name, start/end in µs since the tracer started, parent, op,
    /// and self time in µs.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let children = children_of(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            if s.op >= SPAN_FILE_OPS {
                continue;
            }
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.op,
                self_time_s(&spans, &children[i], s) * 1e6
            )?;
        }
        out.flush()
    }
}

fn children_of(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    children
}

/// Duration of `span` minus the union of its children's intervals
/// (clipped to the span).
fn self_time_s(spans: &[Span], children: &[usize], span: &Span) -> f64 {
    let mut intervals: Vec<(Instant, Instant)> = children
        .iter()
        .map(|&c| {
            (
                spans[c].start.clamp(span.start, span.end),
                spans[c].end.clamp(span.start, span.end),
            )
        })
        .collect();
    intervals.sort();
    let mut covered = 0.0;
    let mut cursor = span.start;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += (end - start).as_secs_f64();
            cursor = end;
        }
    }
    (span.end - span.start).as_secs_f64() - covered
}
