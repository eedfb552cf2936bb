//! The redesigned sweep-harness API: one [`SweepSpec`] builder and one
//! [`Harness`] runner shared by every sweep binary.
//!
//! Before this module, `serve_sweep`, `degradation_sweep` and
//! `brownout_sweep` each hand-rolled ~400 lines of identical plumbing:
//! an `Args::parse` walk, `parse_num`/`parse_list`, usage text,
//! error-to-stderr/non-zero-exit handling, an aligned stdout table, CSV
//! and JSON writers, and a Chrome-trace export pass. The harness owns all
//! of it, and adds the one thing none of them had: **parallel grid
//! evaluation** on the `cta-parallel` work-stealing pool.
//!
//! A sweep binary now reduces to three pieces:
//!
//! 1. a [`SweepSpec`] naming the experiment, its usage text and its
//!    CSV/stdout columns;
//! 2. a flag-matcher closure turning a [`FlagParser`] walk into the
//!    binary's own argument struct (the harness strips and parses the
//!    shared `--jobs N` / `--pool-trace <path>` flags first);
//! 3. an `eval` closure mapping one grid point to its table rows and
//!    JSON points ([`PointOutput`]).
//!
//! # Determinism contract
//!
//! [`Harness::run_grid`] fans the grid across the pool but performs an
//! **ordered reduction**: `par_map` returns per-point outputs in
//! submission order, and rows/points are emitted from that ordered
//! vector. Because every sweep point seeds its own RNGs from the CLI
//! seed (never from run order or thread identity), the CSV, JSON, stdout
//! table and trace bytes are identical at any `--jobs` value — the
//! golden-file pins from the overload-control era pass unchanged under
//! full parallelism. Wall-clock pool occupancy (`--pool-trace`) is the
//! only nondeterministic output, and it is written to its own file.

use std::process::ExitCode;

use cta_bench::{banner, FlagParser, JsonReport, JsonValue, Table};
use cta_parallel::{Parallelism, ThreadPool};
use cta_telemetry::{
    chrome_trace_json, pool_occupancy_events, validate_chrome_trace, AggregateReport,
    RingBufferSink,
};

/// Ring capacity for `--trace` exports: ~262k events (~15 MB
/// preallocated); longer runs overwrite the oldest window and report the
/// drop count.
pub const TRACE_CAPACITY: usize = 1 << 18;

/// Declarative description of one sweep experiment: its name (which
/// doubles as the `results/<name>.{csv,json}` stem), usage text, and
/// CSV/stdout column layout.
///
/// Build it fluently, then hand control to [`SweepSpec::main`]:
///
/// ```no_run
/// use cta_serve::harness::{PointOutput, SweepSpec};
///
/// SweepSpec::new("demo_sweep")
///     .usage("usage: demo_sweep [--jobs N]")
///     .columns(&["x", "y"])
///     .main(std::env::args().skip(1), |_flags| Ok(()), |h| {
///         h.run_grid("Demo", &[1, 2, 3], |&x| {
///             let mut out = PointOutput::new();
///             out.row(vec![x.to_string(), (x * x).to_string()]);
///             out
///         }, |_json| {});
///     });
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    name: &'static str,
    usage: &'static str,
    columns: &'static [&'static str],
}

impl SweepSpec {
    /// Starts a spec for the experiment `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self { name, usage: "", columns: &[] }
    }

    /// Sets the usage text printed to stderr on malformed invocations.
    #[must_use]
    pub fn usage(mut self, usage: &'static str) -> Self {
        self.usage = usage;
        self
    }

    /// Sets the CSV/stdout column layout.
    #[must_use]
    pub fn columns(mut self, columns: &'static [&'static str]) -> Self {
        self.columns = columns;
        self
    }

    /// The experiment name (and `results/` file stem).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The full binary entry point. Strips the shared `--jobs N` and
    /// `--pool-trace <path>` flags out of `argv`, hands the remaining
    /// words to `parse`, and on success runs `run` with the assembled
    /// [`Harness`]. Any parse error is printed as `error: …`
    /// plus the usage text to stderr, and the process exits non-zero.
    pub fn main<A>(
        self,
        argv: impl Iterator<Item = String>,
        parse: impl FnOnce(&mut FlagParser) -> Result<A, String>,
        run: impl FnOnce(&Harness<A>),
    ) -> ExitCode {
        let usage = self.usage;
        match self.parse(argv, parse) {
            Ok(harness) => {
                run(&harness);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{usage}");
                ExitCode::FAILURE
            }
        }
    }

    /// [`SweepSpec::main`] without the process plumbing: parses `argv`
    /// into a [`Harness`] or returns the error message the binary would
    /// print.
    ///
    /// # Errors
    ///
    /// Returns the first malformed-flag message, either from the shared
    /// `--jobs` / `--pool-trace` handling or from `parse`.
    pub fn parse<A>(
        self,
        argv: impl Iterator<Item = String>,
        parse: impl FnOnce(&mut FlagParser) -> Result<A, String>,
    ) -> Result<Harness<A>, String> {
        let mut jobs = Parallelism::from_env();
        let mut pool_trace = None;
        let mut rest = Vec::new();
        let mut it = argv;
        while let Some(word) = it.next() {
            match word.as_str() {
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    jobs = Parallelism::parse_arg(&v)?;
                }
                "--pool-trace" => {
                    pool_trace = Some(it.next().ok_or("--pool-trace needs a value")?);
                }
                _ => rest.push(word),
            }
        }
        let mut flags = FlagParser::new(rest);
        let args = parse(&mut flags)?;
        Ok(Harness { spec: self, jobs, pool_trace, args })
    }
}

/// What one evaluated grid point contributes to the report: zero or more
/// table rows (printed and written to CSV in grid order) and zero or
/// more JSON points (appended to the report's `points` array in the same
/// order).
#[derive(Debug, Default)]
pub struct PointOutput {
    rows: Vec<Vec<String>>,
    points: Vec<JsonValue>,
}

impl PointOutput {
    /// An empty contribution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one table/CSV row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends one JSON point.
    pub fn point(&mut self, value: JsonValue) {
        self.points.push(value);
    }
}

/// A parsed sweep invocation: the spec, the shared parallelism knobs,
/// and the binary's own arguments.
#[derive(Debug)]
pub struct Harness<A> {
    spec: SweepSpec,
    jobs: Parallelism,
    pool_trace: Option<String>,
    args: A,
}

impl<A> Harness<A> {
    /// The binary-specific arguments `parse` produced.
    pub fn args(&self) -> &A {
        &self.args
    }

    /// Evaluates `grid` on the pool and emits the full report: banner,
    /// aligned stdout table, `results/<name>.csv`, and
    /// `results/<name>.json` (metadata fields from `meta`, then the
    /// collected `points` array).
    ///
    /// `eval` runs once per grid point, possibly concurrently; the
    /// reduction is ordered (see the module docs), so output bytes do
    /// not depend on the worker count. With `--pool-trace <path>` the
    /// per-task wall-clock spans are additionally exported as a
    /// validated Chrome trace of pool occupancy.
    pub fn run_grid<P, F>(
        &self,
        banner_text: &str,
        grid: &[P],
        eval: F,
        meta: impl FnOnce(&mut JsonReport),
    ) where
        P: Sync,
        F: Fn(&P) -> PointOutput + Sync,
    {
        banner(banner_text);
        let mut table = Table::new(self.spec.name, self.spec.columns);
        let (outputs, spans) = ThreadPool::new(self.jobs).par_map_timed(grid, &eval);
        let mut points = Vec::new();
        for output in outputs {
            for cells in &output.rows {
                table.row(cells);
            }
            points.extend(output.points);
        }
        table.save();

        let mut json = JsonReport::new(self.spec.name);
        meta(&mut json);
        json.set("points", JsonValue::Arr(points));
        json.save();

        if let Some(path) = &self.pool_trace {
            let events = pool_occupancy_events(&spans);
            let trace = chrome_trace_json(&events);
            validate_chrome_trace(&trace)
                .unwrap_or_else(|e| panic!("internal: pool occupancy trace invalid: {e}"));
            std::fs::write(path, &trace).unwrap_or_else(|e| panic!("{path}: {e}"));
            println!("pool occupancy — {} tasks over {} workers -> {path}", grid.len(), self.jobs);
        }
    }
}

/// The shared telemetry pass: runs `record` against a preallocated ring
/// buffer, validates the exported Chrome trace, writes it to `path`, and
/// prints the aggregate report under `banner_text` (plus a drop note if
/// the ring wrapped). All three sweeps used to inline this block.
pub fn export_trace(path: &str, banner_text: &str, record: impl FnOnce(&mut RingBufferSink)) {
    let mut sink = RingBufferSink::with_capacity(TRACE_CAPACITY);
    record(&mut sink);
    let events = sink.events();
    let json = chrome_trace_json(&events);
    validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("internal: exported trace invalid: {e}"));
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path}: {e}"));

    banner(banner_text);
    print!("{}", AggregateReport::from_events(&events).render(None));
    if sink.dropped() > 0 {
        println!(
            "note: ring buffer wrapped — {} oldest events dropped (capacity {})",
            sink.dropped(),
            sink.capacity()
        );
    }
    println!("open in chrome://tracing or https://ui.perfetto.dev");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(list: &[&str]) -> impl Iterator<Item = String> + use<> {
        list.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn spec_strips_shared_flags_before_binary_parsing() {
        let h = SweepSpec::new("t")
            .parse(words(&["--jobs", "3", "--x", "7", "--pool-trace", "p.json"]), |flags| {
                let mut x = 0usize;
                while let Some(flag) = flags.next_flag() {
                    match flag.as_str() {
                        "--x" => x = flags.value("--x")?.parse().map_err(|_| "bad".to_string())?,
                        other => return Err(format!("unknown flag {other:?}")),
                    }
                }
                Ok(x)
            })
            .expect("valid");
        assert_eq!(h.jobs.get(), 3);
        assert_eq!(*h.args(), 7);
        assert_eq!(h.pool_trace.as_deref(), Some("p.json"));
    }

    #[test]
    fn shared_flag_errors_use_the_common_wording() {
        let parse = |list: &[&str]| SweepSpec::new("t").parse(words(list), |_| Ok(()));
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--pool-trace"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn binary_errors_pass_through() {
        let err = SweepSpec::new("t")
            .parse(words(&["--frob"]), |flags| match flags.next_flag() {
                Some(f) => Err(format!("unknown flag {f:?}")),
                None => Ok(()),
            })
            .unwrap_err();
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn builder_is_fluent_and_must_use() {
        let spec = SweepSpec::new("demo").usage("usage: demo").columns(&["a"]);
        assert_eq!(spec.name(), "demo");
    }
}
