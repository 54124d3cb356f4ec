//! The traced run's own spans: recorded by the benchmark around each
//! call it makes into a layer's public functions, kept in memory, and
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// One finished span. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `nli-core.link`.
    pub name: String,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The ask (question, request or batch) the span belongs to.
    pub ask: u64,
}

/// In-memory span store plus named counters.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<String, (u64, u64)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, ask: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            ask,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        ask: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, ask);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Add one observation `value` to counter `name` (kept as sum and
    /// number of observations).
    pub fn count(&mut self, name: &str, value: u64) {
        let c = self.counts.entry(name.to_string()).or_default();
        c.0 += value;
        c.1 += 1;
    }

    /// Counter `name` as (sum, observations); zeros when never seen.
    pub fn counter(&self, name: &str) -> (u64, u64) {
        self.counts.get(name).copied().unwrap_or_default()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(Duration::from_nanos(span.end_ns - span.start_ns));
        }
        s
    }

    /// Write every span, then every counter, as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"ask\":{}}}",
                s.name, s.start_ns, s.end_ns, s.ask
            )?;
        }
        for (name, (sum, n)) in &self.counts {
            writeln!(
                w,
                "{{\"counter\":\"{name}\",\"sum\":{sum},\"observations\":{n}}}"
            )?;
        }
        w.flush()
    }
}
