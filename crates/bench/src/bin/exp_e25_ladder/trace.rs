//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Index of the plan op the span serves; `None` for rung roots and
    /// probes outside the plan.
    req: Option<usize>,
}

/// A span log; a disabled tracer records nothing, which is how the
/// untraced end-to-end rounds run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a root span that [`Self::close`] ends.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let now = Instant::now();
        self.record(name, None, None, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Durations of the spans called `name` that serve a plan op, keyed by
    /// op index.
    pub fn per_op(&self, name: &str) -> Vec<(usize, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.req.map(|r| (r, (s.end_ns - s.start_ns) as f64 * 1e-9)))
            .collect()
    }

    /// Total seconds in the children of `parent` that serve plan ops with
    /// index ≥ `first_op`.
    pub fn total_under(&self, parent: Option<usize>, first_op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.req.is_some_and(|r| r >= first_op))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.req)
            )?;
        }
        out.flush()
    }
}
