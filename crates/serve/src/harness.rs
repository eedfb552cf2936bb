//! The declarative sweep harness shared by every sweep binary.
//!
//! A sweep is three things:
//!
//! 1. a **grid** — the list of points it evaluates;
//! 2. a **point function** — one grid point to the [`FleetPoint`] it
//!    plays: a [`FleetConfig`] and an arrival trace;
//! 3. an **extractor** — one simulated point to its table rows and JSON
//!    points ([`PointOutput`]).
//!
//! The harness does the rest: the flag walk, usage text and `error:`
//! reporting, parallel grid evaluation on the `cta-parallel` pool, the
//! aligned stdout table, `results/<name>.{csv,json}`, the
//! `schema_version` stamp, and the `--trace` re-run of the last grid
//! point through [`export_trace`]. The grid evaluation and the traced
//! re-run call the same point function, so the trace shows exactly the
//! run the table describes.
//!
//! # Flags
//!
//! [`SweepSpec`] declares a sweep's name, usage text, CSV columns and
//! which flags of the shared fleet group ([`FleetFlag`]: `--seed`,
//! `--batch`, `--queue-depth`, `--routing`, `--engine`, `--trace`,
//! `--mttr-factor`) it accepts, with its own defaults ([`FleetFlags`]).
//! The harness parses those once, next to the pool flags `--jobs N` and
//! `--pool-trace <path>` that every sweep takes, and hands every other
//! word to the sweep's [`SweepArgs`]. A shared flag a sweep does not
//! accept stays an unknown flag; its default value is still the one the
//! sweep's configurations use (`planet_sweep` fixes round-robin routing
//! this way).
//!
//! # Point helpers
//!
//! [`mini_workload`] (the `mini_case` load spec and its solo service
//! time), [`offered_rate`], [`FleetFlags::config`] (the sharded base
//! configuration) and [`FleetFlags::faults`] / [`crash_plan`] (seeded
//! crash schedules over twice the trace span) build each sweep's points.
//! A point function returns `Err` for inputs the simulation cannot run —
//! an infinite offered rate, or a crash schedule past
//! [`crate::MAX_SEEDED_CRASH_WINDOWS`] — and the binary prints `error:`
//! and exits 1 before writing any result.
//!
//! # Determinism contract
//!
//! [`Harness::run_grid`] fans the grid across the pool but performs an
//! **ordered reduction**: `par_map` returns per-point outputs in
//! submission order, and rows/points are emitted from that ordered
//! vector. Because every sweep point seeds its own RNGs from the CLI
//! seed (never from run order or thread identity), the CSV, JSON, stdout
//! table and trace bytes are identical at any `--jobs` value. Wall-clock
//! pool occupancy (`--pool-trace`) is the only nondeterministic output,
//! and it is written to its own file.

use std::process::ExitCode;

use cta_bench::{banner, FlagParser, JsonReport, JsonValue, Table, SCHEMA_VERSION};
use cta_parallel::{Parallelism, ThreadPool};
use cta_sim::{CtaSystem, SystemConfig};
use cta_telemetry::{
    chrome_trace_json, pool_occupancy_events, validate_chrome_trace, AggregateReport,
    RingBufferSink,
};
use cta_workloads::{case_task, mini_case, TestCase};

use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    CostModel, FaultPlan, FleetConfig, FleetEngine, FleetReport, LoadSpec, RoutingPolicy,
    ServeRequest,
};

/// Ring capacity for `--trace` exports: ~262k events (~15 MB
/// preallocated); longer runs overwrite the oldest window and report the
/// drop count.
pub const TRACE_CAPACITY: usize = 1 << 18;

/// One flag of the shared fleet group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFlag {
    /// `--seed N`: the seed of every trace and fault plan.
    Seed,
    /// `--batch N`: the per-replica batch cap.
    Batch,
    /// `--queue-depth N`: the bounded admission depth.
    QueueDepth,
    /// `--routing rr|jsq|low`.
    Routing,
    /// `--engine step|event`.
    Engine,
    /// `--trace <path.json>`: re-run the last point traced.
    Trace,
    /// `--mttr-factor F`: mean repair time as a multiple of the span.
    MttrFactor,
}

impl FleetFlag {
    /// The flag as written on the command line.
    pub fn name(self) -> &'static str {
        match self {
            FleetFlag::Seed => "--seed",
            FleetFlag::Batch => "--batch",
            FleetFlag::QueueDepth => "--queue-depth",
            FleetFlag::Routing => "--routing",
            FleetFlag::Engine => "--engine",
            FleetFlag::Trace => "--trace",
            FleetFlag::MttrFactor => "--mttr-factor",
        }
    }
}

/// The values of the shared fleet flags. A sweep's defaults start from
/// [`FleetFlags::default`]: seed 7, batch 4, queue depth 64, JSQ
/// routing, the step engine, no trace, MTTR factor 0.05.
#[derive(Debug, Clone)]
pub struct FleetFlags {
    /// `--seed`.
    pub seed: u64,
    /// `--batch`.
    pub batch: usize,
    /// `--queue-depth`.
    pub queue_depth: usize,
    /// `--routing`.
    pub routing: RoutingPolicy,
    /// `--engine`.
    pub engine: FleetEngine,
    /// `--trace`.
    pub trace: Option<String>,
    /// `--mttr-factor`.
    pub mttr_factor: f64,
}

impl Default for FleetFlags {
    fn default() -> Self {
        Self {
            seed: 7,
            batch: 4,
            queue_depth: 64,
            routing: RoutingPolicy::JoinShortestQueue,
            engine: FleetEngine::StepGranular,
            trace: None,
            mttr_factor: 0.05,
        }
    }
}

impl FleetFlags {
    fn parse_flag(&mut self, flag: FleetFlag, it: &mut FlagParser) -> Result<(), String> {
        let name = flag.name();
        match flag {
            FleetFlag::Seed => self.seed = it.num(name, "an integer")?,
            FleetFlag::Batch => self.batch = it.num(name, "an integer")?,
            FleetFlag::QueueDepth => self.queue_depth = it.num(name, "an integer")?,
            FleetFlag::Routing => {
                let v = it.value(name)?;
                self.routing = RoutingPolicy::parse(&v)
                    .ok_or_else(|| format!("unknown routing policy {v:?} (rr|jsq|low)"))?;
            }
            FleetFlag::Engine => {
                let v = it.value(name)?;
                self.engine = FleetEngine::parse(&v)
                    .ok_or_else(|| format!("unknown engine {v:?} (step|event)"))?;
            }
            FleetFlag::Trace => self.trace = Some(it.value(name)?),
            FleetFlag::MttrFactor => self.mttr_factor = it.num(name, "a number")?,
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        if self.batch == 0 {
            return Err("--batch must be positive".into());
        }
        if self.queue_depth == 0 {
            return Err("--queue-depth must be positive".into());
        }
        if !(self.mttr_factor > 0.0 && self.mttr_factor.is_finite()) {
            return Err("--mttr-factor must be positive and finite".into());
        }
        Ok(())
    }

    /// The sharded base configuration of a sweep point: `replicas`
    /// replicas of `system` with this engine, routing, batch cap and
    /// admission depth.
    pub fn config(&self, system: SystemConfig, replicas: usize) -> FleetConfig {
        let mut cfg = FleetConfig::sharded(system, replicas);
        cfg.engine = self.engine;
        cfg.routing = self.routing;
        cfg.batch = BatchPolicy::up_to(self.batch);
        cfg.admission = AdmissionPolicy::bounded(self.queue_depth);
        cfg
    }

    /// The span-relative crash plan of a sweep point: mean time between
    /// failures `mtbf_factor` and mean repair time `--mttr-factor`, both
    /// as multiples of the trace span (see [`crash_plan`]). An infinite
    /// `mtbf_factor` is the fault-free plan.
    ///
    /// # Errors
    ///
    /// As [`crash_plan`].
    pub fn faults(
        &self,
        replicas: usize,
        requests: &[ServeRequest],
        mtbf_factor: f64,
    ) -> Result<FaultPlan, String> {
        if !mtbf_factor.is_finite() {
            return Ok(FaultPlan::none());
        }
        let span = trace_span(requests);
        crash_plan(replicas, span, mtbf_factor * span, self.mttr_factor * span, self.seed)
    }
}

/// The span the fault helpers scale by: the last arrival instant of
/// `requests`, at least 1 µs.
pub fn trace_span(requests: &[ServeRequest]) -> f64 {
    requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6)
}

/// A seeded MTBF/MTTR crash schedule ([`FaultPlan::try_seeded`]) over
/// twice `span_s`, so outages can land anywhere in the run.
///
/// # Errors
///
/// Returns the [`crate::FaultPlanError`] message for a parameter that is
/// not positive and finite, or a schedule that would exceed
/// [`crate::MAX_SEEDED_CRASH_WINDOWS`].
pub fn crash_plan(
    replicas: usize,
    span_s: f64,
    mtbf_s: f64,
    mttr_s: f64,
    seed: u64,
) -> Result<FaultPlan, String> {
    FaultPlan::try_seeded(replicas, 2.0 * span_s, mtbf_s, mttr_s, seed)
        .map_err(|e| format!("fault plan: {e}"))
}

/// The offered rate of a point at `load` times the no-queueing capacity
/// of `replicas` replicas, each serving one request per `solo_s`.
///
/// # Errors
///
/// Rejects a rate that overflows to infinity (e.g. `--load 1e308`): no
/// arrival trace can be drawn at it.
pub fn offered_rate(load: f64, replicas: usize, solo_s: f64) -> Result<f64, String> {
    let rate = load * replicas as f64 / solo_s;
    if rate.is_finite() {
        Ok(rate)
    } else {
        Err(format!("offered rate of load {load:?} on {replicas} replicas is not finite"))
    }
}

/// The standard sweep workload: `mini_case`'s task as a [`LoadSpec`],
/// plus the solo service time of one such request on `system` — the
/// time a replica takes per request when nothing queues.
#[derive(Debug)]
pub struct Workload {
    /// The evaluated case.
    pub case: TestCase,
    /// Its request shape.
    pub spec: LoadSpec,
    /// Solo service time of one request, seconds.
    pub solo_s: f64,
    /// Distinct task shapes the probe priced.
    pub distinct_shapes: usize,
}

/// Builds the [`Workload`] of `mini_case` on `system`.
pub fn mini_workload(system: SystemConfig) -> Workload {
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, 0);
    let solo_s = cost.request_service_s(&CtaSystem::new(system), &probe[0]);
    Workload { case, spec, solo_s, distinct_shapes: cost.distinct_shapes() }
}

/// Declarative description of one sweep experiment: its name (which
/// doubles as the `results/<name>.{csv,json}` stem), usage text, CSV
/// columns, and the shared fleet flags it accepts with their defaults.
///
/// ```no_run
/// use cta_bench::FlagParser;
/// use cta_serve::harness::{FleetFlag, FleetFlags, Harness, PointOutput, SweepArgs, SweepSpec};
///
/// #[derive(Default)]
/// struct Args {
///     n: usize,
/// }
///
/// impl SweepArgs for Args {
///     fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
///         match flag {
///             "--n" => self.n = it.num(flag, "an integer")?,
///             _ => return Ok(false),
///         }
///         Ok(true)
///     }
/// }
///
/// SweepSpec::new("demo_sweep")
///     .usage("usage: demo_sweep [--n 3] [--seed 7] [--jobs N]")
///     .columns("x,y")
///     .fleet(&[FleetFlag::Seed], FleetFlags::default())
///     .main(std::env::args().skip(1), |h: &Harness<Args>| {
///         let grid: Vec<usize> = (1..=h.args().n).collect();
///         h.run_grid("Demo", &grid, |&x| {
///             let mut out = PointOutput::new();
///             out.row(vec![x.to_string(), (x * x).to_string()]);
///             Ok(out)
///         }, |_json| {})
///     });
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    name: &'static str,
    usage: &'static str,
    columns: &'static str,
    fleet_flags: &'static [FleetFlag],
    fleet: FleetFlags,
}

impl SweepSpec {
    /// Starts a spec for the experiment `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self { name, usage: "", columns: "", fleet_flags: &[], fleet: FleetFlags::default() }
    }

    /// Sets the usage text printed to stderr on malformed invocations.
    #[must_use]
    pub fn usage(mut self, usage: &'static str) -> Self {
        self.usage = usage;
        self
    }

    /// Sets the sweep's CSV/stdout columns, written as the CSV header
    /// line (`"replicas,load,..."`); the harness appends the
    /// `schema_version` column (see [`SweepSpec::header`]).
    #[must_use]
    pub fn columns(mut self, columns: &'static str) -> Self {
        self.columns = columns;
        self
    }

    /// Accepts the shared fleet flags in `flags`, starting from
    /// `defaults`.
    #[must_use]
    pub fn fleet(mut self, flags: &'static [FleetFlag], defaults: FleetFlags) -> Self {
        self.fleet_flags = flags;
        self.fleet = defaults;
        self
    }

    /// The experiment name (and `results/` file stem).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The CSV/stdout header: the sweep's columns, then `schema_version`,
    /// whose cell repeats [`SCHEMA_VERSION`] on every row so a bare CSV
    /// identifies its layout generation without the JSON report.
    #[must_use]
    pub fn header(&self) -> Vec<&'static str> {
        self.columns.split(',').chain(["schema_version"]).collect()
    }

    /// The full binary entry point: parses `argv` into a [`Harness`] and
    /// runs `run` with it. A parse error or an `Err` from `run` is
    /// printed as `error: …` plus the usage text to stderr, and the
    /// process exits with status 1.
    pub fn main<A: SweepArgs>(
        self,
        argv: impl Iterator<Item = String>,
        run: impl FnOnce(&Harness<A>) -> Result<(), String>,
    ) -> ExitCode {
        let usage = self.usage;
        match self.parse(argv).and_then(|h| run(&h)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{usage}");
                ExitCode::FAILURE
            }
        }
    }

    /// [`SweepSpec::main`] without the process plumbing: parses `argv`
    /// into a [`Harness`] or returns the error message the binary would
    /// print. The pool flags and the accepted fleet flags are parsed
    /// here; every other word goes to [`SweepArgs::flag`].
    ///
    /// # Errors
    ///
    /// Returns the first malformed-flag message, an unknown flag, or a
    /// failed [`SweepArgs::validate`].
    pub fn parse<A: SweepArgs>(
        self,
        argv: impl Iterator<Item = String>,
    ) -> Result<Harness<A>, String> {
        let mut jobs = Parallelism::from_env();
        let mut pool_trace = None;
        let mut fleet = self.fleet.clone();
        let mut args = A::default();
        let mut it = FlagParser::new(argv);
        while let Some(flag) = it.next_flag() {
            match flag.as_str() {
                "--jobs" => jobs = Parallelism::parse_arg(&it.value("--jobs")?)?,
                "--pool-trace" => pool_trace = Some(it.value("--pool-trace")?),
                f => match self.fleet_flags.iter().find(|s| s.name() == f) {
                    Some(&shared) => fleet.parse_flag(shared, &mut it)?,
                    None if args.flag(f, &mut it)? => {}
                    None => return Err(format!("unknown flag {f:?}")),
                },
            }
        }
        fleet.validate()?;
        args.validate()?;
        Ok(Harness { spec: self, jobs, pool_trace, fleet, args })
    }
}

/// A sweep's own flags: its argument struct starts from `Default` and
/// takes each word the harness does not own.
pub trait SweepArgs: Default {
    /// Parses `flag` (reading its value from `it`) when it is one of the
    /// sweep's own flags; returns `Ok(false)` for a flag it does not
    /// know.
    ///
    /// # Errors
    ///
    /// Returns the malformed-value message.
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String>;

    /// Checks the parsed values once every flag has been read.
    ///
    /// # Errors
    ///
    /// Returns the first invalid value's message.
    fn validate(&self) -> Result<(), String> {
        Ok(())
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

    /// Appends one table/CSV row (without the `schema_version` cell,
    /// which the harness adds).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends one JSON point.
    pub fn point(&mut self, value: JsonValue) {
        self.points.push(value);
    }
}

/// The fleet input of one grid point.
#[derive(Debug)]
pub struct FleetPoint {
    /// The fleet the point simulates.
    pub config: FleetConfig,
    /// Its arrival trace, sorted by arrival.
    pub requests: Vec<ServeRequest>,
}

/// A point function: one grid point to its [`FleetPoint`].
pub type PointFn<'a, P> = dyn Fn(&P) -> Result<FleetPoint, String> + Sync + 'a;

/// An extractor: rows and JSON points from one simulated point.
pub type ExtractFn<'a, P> = dyn Fn(&P, &FleetPoint, &FleetReport, &mut PointOutput) + Sync + 'a;

/// Extra steps of a traced re-run, replacing the default single
/// [`simulate_fleet_traced`] pass.
pub type TraceFn<'a> = dyn Fn(&FleetPoint, &mut RingBufferSink) + 'a;

/// The parts of a fleet sweep besides its grid.
pub struct FleetSweep<'a, P> {
    /// The point function; the grid evaluation and the `--trace`
    /// re-run both call it.
    pub point: &'a PointFn<'a, P>,
    /// The extractor: rows and JSON points from one simulated point.
    pub extract: &'a ExtractFn<'a, P>,
    /// The stdout banner of the traced re-run of a point, given the
    /// trace path.
    pub trace_banner: &'a dyn Fn(&P, &str) -> String,
    /// Extra trace steps, if the sweep has any.
    pub trace: Option<&'a TraceFn<'a>>,
}

/// A parsed sweep invocation: the spec, the pool knobs, the shared fleet
/// flags and the binary's own arguments.
#[derive(Debug)]
pub struct Harness<A> {
    spec: SweepSpec,
    jobs: Parallelism,
    pool_trace: Option<String>,
    fleet: FleetFlags,
    args: A,
}

impl<A> Harness<A> {
    /// The binary-specific arguments.
    pub fn args(&self) -> &A {
        &self.args
    }

    /// The shared fleet flags (defaults for the ones the sweep does not
    /// accept).
    pub fn fleet(&self) -> &FleetFlags {
        &self.fleet
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
    ///
    /// # Errors
    ///
    /// Returns the first failing point's error, in grid order, before
    /// any result file is written.
    pub fn run_grid<P, F>(
        &self,
        banner_text: &str,
        grid: &[P],
        eval: F,
        meta: impl FnOnce(&mut JsonReport),
    ) -> Result<(), String>
    where
        P: Sync,
        F: Fn(&P) -> Result<PointOutput, String> + Sync,
    {
        banner(banner_text);
        let mut table = Table::new(self.spec.name, &self.spec.header());
        let (outputs, spans) = ThreadPool::new(self.jobs).par_map_timed(grid, &eval);
        let mut points = Vec::new();
        for output in outputs {
            let output = output?;
            for mut cells in output.rows {
                cells.push(SCHEMA_VERSION.to_string());
                table.row(&cells);
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
        Ok(())
    }

    /// [`Harness::run_grid`] for a fleet sweep: each point is built by
    /// `sweep.point`, played through [`simulate_fleet`] and handed to
    /// `sweep.extract`; then the last point is re-run traced
    /// ([`Harness::trace_last`]).
    ///
    /// # Errors
    ///
    /// Returns the first point-function error, in grid order.
    pub fn run_fleet<P: Sync>(
        &self,
        banner_text: &str,
        grid: &[P],
        sweep: FleetSweep<'_, P>,
        meta: impl FnOnce(&mut JsonReport),
    ) -> Result<(), String> {
        let eval = |p: &P| {
            let fp = (sweep.point)(p)?;
            let report = simulate_fleet(&fp.config, &fp.requests);
            let mut out = PointOutput::new();
            (sweep.extract)(p, &fp, &report, &mut out);
            Ok(out)
        };
        self.run_grid(banner_text, grid, eval, meta)?;
        self.trace_last(grid, sweep.point, sweep.trace_banner, sweep.trace)
    }

    /// The shared telemetry pass: with `--trace <path>`, rebuilds the
    /// last grid point through `point` and re-runs it traced through
    /// [`export_trace`] — once through [`simulate_fleet_traced`], or
    /// through `record` when the sweep has extra trace steps. The traced
    /// run reproduces the untraced one bit for bit (`NullSink` vs
    /// `RingBufferSink` is pinned by test), so the table still describes
    /// exactly what the trace shows.
    ///
    /// # Errors
    ///
    /// Returns the point function's error.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is empty while `--trace` is set.
    pub fn trace_last<P>(
        &self,
        grid: &[P],
        point: &PointFn<'_, P>,
        banner: &dyn Fn(&P, &str) -> String,
        record: Option<&TraceFn<'_>>,
    ) -> Result<(), String> {
        let Some(path) = &self.fleet.trace else { return Ok(()) };
        let last = grid.last().expect("non-empty grid");
        let fp = point(last)?;
        export_trace(path, &banner(last, path), |sink| match record {
            Some(record) => record(&fp, sink),
            None => {
                simulate_fleet_traced(&fp.config, &fp.requests, sink);
            }
        });
        Ok(())
    }
}

/// Runs `record` against a preallocated ring buffer, validates the
/// exported Chrome trace, writes it to `path`, and prints the aggregate
/// report under `banner_text` (plus a drop note if the ring wrapped).
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
    use crate::sweeps;

    #[derive(Debug, Default)]
    struct X(usize);

    impl SweepArgs for X {
        fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
            match flag {
                "--x" => self.0 = it.num("--x", "an integer")?,
                _ => return Ok(false),
            }
            Ok(true)
        }

        fn validate(&self) -> Result<(), String> {
            if self.0 > 9 {
                return Err("--x must be a digit".into());
            }
            Ok(())
        }
    }

    /// Parses the whitespace-separated `words` against a spec accepting
    /// `flags`.
    fn parse<A: SweepArgs>(flags: &'static [FleetFlag], words: &str) -> Result<Harness<A>, String> {
        let argv = words.split_whitespace().map(String::from).collect::<Vec<_>>();
        SweepSpec::new("t").fleet(flags, FleetFlags::default()).parse(argv.into_iter())
    }

    #[test]
    fn spec_strips_shared_flags_before_binary_parsing() {
        let words = "--jobs 3 --x 7 --seed 11 --pool-trace p.json --engine event";
        let h: Harness<X> = parse(&[FleetFlag::Seed, FleetFlag::Engine], words).expect("valid");
        assert_eq!(h.jobs.get(), 3);
        assert_eq!(h.args().0, 7);
        assert_eq!(h.pool_trace.as_deref(), Some("p.json"));
        assert_eq!(h.fleet().seed, 11);
        assert_eq!(h.fleet().engine, FleetEngine::EventDriven);
        assert_eq!(h.fleet().batch, 4, "unaccepted flags keep their defaults");
    }

    #[test]
    fn shared_flag_errors_use_the_common_wording() {
        use FleetFlag::*;
        let all = &[Seed, Batch, QueueDepth, Routing, Engine, Trace, MttrFactor];
        let err = |words: &str| parse::<X>(all, words).unwrap_err();
        assert!(err("--jobs").contains("needs a value"));
        assert!(err("--jobs 0").contains("positive"));
        assert!(err("--pool-trace").contains("needs a value"));
        assert!(err("--seed x").contains("--seed takes an integer"));
        assert!(err("--trace").contains("needs a value"));
        assert!(err("--routing chaotic").contains("unknown routing policy"));
        assert!(err("--engine warp").contains("unknown engine"));
        assert!(err("--batch 0").contains("--batch must be positive"));
        assert!(err("--queue-depth 0").contains("positive"));
        for bad in ["0", "-1", "inf", "nan"] {
            assert!(err(&format!("--mttr-factor {bad}")).contains("positive and finite"));
        }
    }

    #[test]
    fn unaccepted_fleet_flags_are_unknown() {
        let err = parse::<X>(&[FleetFlag::Seed], "--routing rr").unwrap_err();
        assert!(err.contains("unknown flag \"--routing\""), "{err}");
    }

    #[test]
    fn binary_errors_pass_through() {
        assert!(parse::<X>(&[], "--frob").unwrap_err().contains("unknown flag"));
        assert!(parse::<X>(&[], "--x oops").unwrap_err().contains("--x takes an integer"));
        assert!(parse::<X>(&[], "--x 12").unwrap_err().contains("digit"));
    }

    #[test]
    fn builder_is_fluent_and_must_use() {
        let spec = SweepSpec::new("demo").usage("usage: demo").columns("a,b");
        assert_eq!(spec.name(), "demo");
        assert_eq!(spec.header(), ["a", "b", "schema_version"]);
    }

    #[test]
    fn offered_rate_rejects_overflow() {
        assert_eq!(offered_rate(0.5, 4, 0.5), Ok(4.0));
        assert!(offered_rate(1e308, 4, 1e-4).unwrap_err().contains("not finite"));
    }

    #[test]
    fn crash_plans_are_span_relative_and_bounded() {
        let fleet = FleetFlags::default();
        let w = mini_workload(SystemConfig::paper());
        let requests = poisson_requests(&w.spec, 40, 1e4, 7);
        let span = trace_span(&requests);
        assert_eq!(fleet.faults(3, &requests, f64::INFINITY), Ok(FaultPlan::none()));
        assert_eq!(
            fleet.faults(3, &requests, 0.5),
            Ok(FaultPlan::seeded(3, 2.0 * span, 0.5 * span, 0.05 * span, 7))
        );
        let tiny = FleetFlags { mttr_factor: 1e-300, ..fleet };
        let err = tiny.faults(3, &requests, 1e-300).unwrap_err();
        assert!(err.starts_with("fault plan:"), "{err}");
    }

    /// Every sweep's CSV header ends in the one `schema_version` column
    /// the harness stamps, and the two headers plotting scripts read
    /// render exactly.
    #[test]
    fn every_sweep_header_ends_in_schema_version() {
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
        let csv = |spec: &SweepSpec| cta_bench::CsvTable::new(spec.name(), &spec.header()).to_csv();
        for spec in sweeps::specs() {
            let header = csv(&spec);
            assert!(header.ends_with(",schema_version\n"), "{header}");
            assert_eq!(header.matches("schema_version").count(), 1, "{header}");
        }
        let header = |name: &str| {
            csv(&sweeps::specs().into_iter().find(|s| s.name() == name).expect("sweep"))
        };
        assert_eq!(
            header("serve_sweep"),
            "replicas,load,offered_rps,completed,shed,tput_rps,\
             goodput_rps,p50_ms,p99_ms,util,schema_version\n"
        );
        assert_eq!(
            header("tenant_sweep"),
            "skew,scheduler,autoscale,offered_rps,completed,shed,quota_shed,\
             goodput_rps,p99_ms,fairness,max_slowdown,scale_ups,final_active,schema_version\n"
        );
    }
}
