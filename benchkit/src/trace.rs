//! In-memory spans, recorded by the harness around its calls into each
//! layer and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span that covers one whole loop iteration.
pub const INTERVAL: &str = "interval";

/// One timed call. Spans of one observation interval share `interval` as
/// their identifier; a stage's parent is that interval's [`INTERVAL`] span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name, or [`INTERVAL`].
    pub name: &'static str,
    /// The interval number — the id shared by all spans of one iteration.
    pub interval: u64,
    /// Name of the parent span (`None` for the interval span itself).
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Records one finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        interval: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let since = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            interval,
            parent,
            start_ns: since(start),
            end_ns: since(end),
        });
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of interval time no child span covers: `Σ (interval − Σ
    /// children) ÷ Σ interval`. A layer's self time is its span minus its
    /// children; here every stage is a leaf, so the remainder is the
    /// harness's own bookkeeping between stages.
    pub fn unexplained_share(&self) -> f64 {
        let total: u64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
        let children: u64 =
            self.spans.iter().filter(|s| s.parent.is_some()).map(Span::duration_ns).sum();
        if total == 0 {
            0.0
        } else {
            (total - children.min(total)) as f64 / total as f64
        }
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto), one complete event per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or writing the file.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"interval\":{},\"parent\":\"{}\"}}}}{comma}",
                span.name,
                span.start_ns as f64 / 1000.0,
                span.duration_ns() as f64 / 1000.0,
                span.interval,
                span.parent.unwrap_or(""),
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
