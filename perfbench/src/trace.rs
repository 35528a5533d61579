//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch), the
//! index of its parent span and the id of the request it belongs to. Spans
//! stay in memory while the workload runs and are written out once at the
//! end. A layer's self time is its span's duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of request `request`; spans
    /// opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Appends another tracer's spans (e.g. one per client thread),
    /// re-basing their parent indices; its root spans become children of
    /// the span open here, if any.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let open = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(open);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total self ns, median self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            by_name.entry(s.name).or_default().push(own);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| {
                v.sort_unstable();
                let total = v.iter().sum();
                (name, (v.len(), total, v[(v.len() - 1) / 2]))
            })
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
