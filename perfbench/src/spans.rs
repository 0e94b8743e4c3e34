//! The benchmark's own spans, kept in memory around each call into a layer's
//! public function and aggregated when the run ends. Nothing is traced
//! inside the program under test.

use std::io::Write;
use std::time::Instant;

/// One timed call: which layer function, an optional tag (a backend, a
/// request class), and the operation (report, request, grid) it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, tag, op, start, start.elapsed().as_nanos() as u64);
        out
    }

    /// Record a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        start: Instant,
        dur_ns: u64,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            tag,
            op,
            start_ns,
            dur_ns,
        });
    }

    /// Append another recorder's spans (e.g. one per client thread).
    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        tag: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.named(name)
            .filter(move |s| tag.is_none_or(|t| s.tag == t))
    }

    /// Total µs spent in `name` (restricted to `tag` if given).
    pub fn sum_us(&self, name: &str, tag: Option<&str>) -> f64 {
        self.matching(name, tag)
            .map(|s| s.dur_ns as f64 / 1e3)
            .sum()
    }

    pub fn count(&self, name: &str, tag: Option<&str>) -> usize {
        self.matching(name, tag).count()
    }

    /// Mean µs per span of `name` (0 when none were recorded).
    pub fn mean_us(&self, name: &str, tag: Option<&str>) -> f64 {
        crate::stats::ratio(self.sum_us(name, tag), self.count(name, tag) as f64)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","tag":"{}","op":{},"start_ns":{},"dur_ns":{}}}"#,
                s.name, s.tag, s.op, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
