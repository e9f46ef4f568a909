//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records the layer call it wraps (`name`), the operation that
//! caused it (`parent`, e.g. the ingest batch), the operation's id (the
//! batch or query index, shared by every span of that operation), and
//! its start and end. Spans stay in memory while the run measures and
//! are written out once it ends. With tracing off, [`Tracer::time`]
//! only calls the closure.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        out
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One tab-separated line per span: name, parent, id, start, end.
    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        writeln!(w, "name\tparent\tid\tstart_ns\tend_ns").map_err(io)?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.parent, s.id, s.start_ns, s.end_ns
            )
            .map_err(io)?;
        }
        w.flush().map_err(io)
    }
}
