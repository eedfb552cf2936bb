//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public functions: name (`<layer>.<what>`, the layer being the
//! crate), start, end, parent span and operation id. Self time — a span's
//! duration minus the part its children cover — is accumulated as spans
//! close, so the per-layer table needs no second pass. The first
//! [`KEEP_SPANS`] spans are kept and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the written trace; later spans still count towards the
/// self-time and duration aggregates.
const KEEP_SPANS: usize = 20_000;

/// One closed span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    /// Every closed duration per span name, in nanoseconds.
    durations: BTreeMap<&'static str, Vec<u64>>,
    /// Self time per span name, in nanoseconds.
    self_ns: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            stack: Vec::new(),
            kept: Vec::with_capacity(KEEP_SPANS),
            dropped: 0,
            durations: BTreeMap::new(),
            self_ns: BTreeMap::new(),
        }
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Operations started so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open { id, name, start: Instant::now(), child_ns: 0 });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack is balanced by construction");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.record(open.name, dur, dur.saturating_sub(open.child_ns));
        if self.kept.len() < KEEP_SPANS {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(Span {
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                op: self.op,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    fn record(&mut self, name: &'static str, dur_ns: u64, self_ns: u64) {
        self.durations.entry(name).or_default().push(dur_ns);
        *self.self_ns.entry(name).or_default() += self_ns;
    }

    /// Records a duration that no span measured directly — a remainder
    /// inferred from a whole call minus its replayed parts — as if it
    /// were a span without children.
    pub fn add_inferred(&mut self, name: &'static str, dur_ns: u64) {
        self.record(name, dur_ns, dur_ns);
    }

    /// Sum of every duration recorded under `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations.get(name).map_or(0, |d| d.iter().sum())
    }

    /// Every duration recorded under `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations
            .get(name)
            .map_or_else(Vec::new, |d| d.iter().map(|&n| n as f64 / 1e6).collect())
    }

    /// [`best_mean`](crate::run::best_mean) of the durations of `name`,
    /// in milliseconds, for spans recorded once per operation while
    /// operations cycle over `cycle` inputs.
    pub fn best_ms(&self, name: &str, cycle: usize) -> f64 {
        crate::run::best_mean(&self.durations_ms(name), cycle)
    }

    /// Self time per layer (the part of each span name before the first
    /// `.`), in milliseconds per operation.
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, f64> {
        let ops = self.ops().max(1) as f64;
        let mut out = BTreeMap::new();
        for (name, &ns) in &self.self_ns {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0.0) += ns as f64 / 1e6 / ops;
        }
        out
    }

    /// Writes the kept spans to `path` as JSON lines, creating its parent
    /// directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }

    /// Number of spans kept for the written trace.
    pub fn kept(&self) -> usize {
        self.kept.len()
    }
}
