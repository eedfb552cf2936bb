//! Planet-scale fleet sweep: goodput, tail latency and availability for
//! thousand-replica fleets under a diurnal + flash-crowd arrival
//! pattern, driven by the calendar-queue event core.
//!
//! The step-granular engine rescans every replica to find the next due
//! instant, so its cost grows with the fleet even when almost nothing
//! is due; the event core ([`crate::FleetEngine::EventDriven`]) pops
//! exactly the due event in O(1) amortized time, which is what makes
//! thousand-replica sweeps practical. Routing is fixed to round-robin —
//! the only O(1)-per-arrival policy; JSQ/LOW would reintroduce a
//! full-fleet scan on every admission and dominate the profile.
//!
//! ```text
//! planet_sweep [--replicas 250,1000] [--load 0.7] [--requests-per-replica 4]
//!              [--seed 7] [--mtbf-factor 1] [--mttr-factor 0.02]
//!              [--batch 4] [--queue-depth 64] [--engine event|step]
//!              [--trace <path.json>] [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! Each point simulates `replicas × requests-per-replica` requests from
//! a seeded diurnal trace ([`crate::diurnal_requests`]): the offered
//! rate `load × replicas / solo_service` is the daytime rate of a
//! four-cycle day/night pattern (night at 0.25x) with a 4x flash crowd
//! early in the second cycle. `--mtbf-factor` follows the
//! `degradation_sweep` span-relative convention (`inf` disables
//! faults), so availability is exercised, not just reported as 1.
//!
//! **Outputs.** The stdout table and `results/planet_sweep.{csv,json}`
//! are deterministic for a fixed `--seed` at any `--jobs` value — the
//! `events` column counts handler invocations, which both engines agree
//! on exactly. Wall-clock event throughput is measured by the
//! repository benchmark (`perfbench`'s `fleet` workload, this sweep's
//! shape at 128 replicas), not here.
//! With `--trace <path>` the final point is re-run traced and the
//! export gains an `events` lane ([`cta_telemetry::Module::Events`])
//! carrying the sampled calendar-queue occupancy as a counter track.
//!
//! CI runs the 1k-replica smoke configuration of this sweep and
//! validates the exported trace; see `.github/workflows/ci.yml`.

use std::process::ExitCode;

use cta_bench::{parse_list, parse_num, FlagParser, JsonValue, SCHEMA_VERSION};
use cta_sim::{CtaSystem, SystemConfig};
use cta_telemetry::{Module, TraceSink, TrackId};
use cta_workloads::{case_task, mini_case};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    diurnal_requests, poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy,
    BatchPolicy, CostModel, FaultPlan, FleetConfig, FleetEngine, LoadSpec, RoutingPolicy,
    ServeRequest,
};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: planet_sweep [--replicas 250,1000] [--load 0.7]
                    [--requests-per-replica 4] [--seed 7]
                    [--mtbf-factor 1] [--mttr-factor 0.02]
                    [--batch 4] [--queue-depth 64] [--engine event|step]
                    [--trace <path.json>]
                    [--jobs N] [--pool-trace <path.json>]";

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "replicas",
    "requests",
    "offered_rps",
    "completed",
    "shed",
    "goodput_rps",
    "p50_ms",
    "p99_ms",
    "min_avail",
    "events",
    "schema_version",
];

#[derive(Debug)]
struct Args {
    replicas: Vec<usize>,
    load: f64,
    requests_per_replica: usize,
    seed: u64,
    mtbf_factor: f64,
    mttr_factor: f64,
    batch: usize,
    queue_depth: usize,
    engine: FleetEngine,
    trace: Option<String>,
}

impl Args {
    fn parse(it: &mut FlagParser) -> Result<Self, String> {
        let mut args = Args {
            replicas: vec![250, 1000],
            load: 0.7,
            requests_per_replica: 4,
            seed: 7,
            mtbf_factor: 1.0,
            mttr_factor: 0.02,
            batch: 4,
            queue_depth: 64,
            engine: FleetEngine::EventDriven,
            trace: None,
        };
        while let Some(flag) = it.next_flag() {
            match flag.as_str() {
                "--replicas" => {
                    args.replicas = parse_list(&it.value("--replicas")?, "--replicas", "integers")?;
                }
                "--load" => {
                    args.load = parse_num(&it.value("--load")?, "--load", "a number")?;
                }
                "--requests-per-replica" => {
                    args.requests_per_replica = parse_num(
                        &it.value("--requests-per-replica")?,
                        "--requests-per-replica",
                        "an integer",
                    )?;
                }
                "--seed" => {
                    args.seed = parse_num(&it.value("--seed")?, "--seed", "an integer")?;
                }
                "--mtbf-factor" => {
                    args.mtbf_factor =
                        parse_num(&it.value("--mtbf-factor")?, "--mtbf-factor", "a number")?;
                }
                "--mttr-factor" => {
                    args.mttr_factor =
                        parse_num(&it.value("--mttr-factor")?, "--mttr-factor", "a number")?;
                }
                "--batch" => {
                    args.batch = parse_num(&it.value("--batch")?, "--batch", "an integer")?;
                }
                "--queue-depth" => {
                    args.queue_depth =
                        parse_num(&it.value("--queue-depth")?, "--queue-depth", "an integer")?;
                }
                "--engine" => {
                    let v = it.value("--engine")?;
                    args.engine = FleetEngine::parse(&v)
                        .ok_or_else(|| format!("unknown engine {v:?} (step|event)"))?;
                }
                "--trace" => {
                    args.trace = Some(it.value("--trace")?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.replicas.is_empty() || args.replicas.contains(&0) {
            return Err("--replicas must be a non-empty list of positive integers".into());
        }
        if args.requests_per_replica == 0 || args.batch == 0 || args.queue_depth == 0 {
            return Err("--requests-per-replica, --batch and --queue-depth must be positive".into());
        }
        if !(args.load > 0.0 && args.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        // `inf` is a legal MTBF factor (= fault-free run).
        if args.mtbf_factor.is_nan() || args.mtbf_factor <= 0.0 {
            return Err("--mtbf-factor must be positive (inf ok)".into());
        }
        if !(args.mttr_factor > 0.0 && args.mttr_factor.is_finite()) {
            return Err("--mttr-factor must be positive and finite".into());
        }
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    SweepSpec::new("planet_sweep").usage(USAGE).columns(SWEEP_COLUMNS).main(argv, Args::parse, run)
}

fn point_config(args: &Args, replicas: usize, requests: &[ServeRequest]) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.engine = args.engine;
    cfg.routing = RoutingPolicy::RoundRobin;
    cfg.batch = BatchPolicy::up_to(args.batch);
    cfg.admission = AdmissionPolicy::bounded(args.queue_depth);
    if args.mtbf_factor.is_finite() {
        let span = requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6);
        cfg.faults = FaultPlan::seeded(
            replicas,
            2.0 * span,
            args.mtbf_factor * span,
            args.mttr_factor * span,
            args.seed,
        );
    }
    cfg
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);

    let system = CtaSystem::new(SystemConfig::paper());
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, args.seed);
    let solo = cost.request_service_s(&system, &probe[0]);

    h.run_grid(
        &format!(
            "Planet sweep — diurnal + flash crowd @ load {:.2}, engine {}, \
             {} requests/replica, solo service {:.3} ms",
            args.load,
            args.engine.label(),
            args.requests_per_replica,
            solo * 1e3
        ),
        &args.replicas,
        |&replicas| {
            let mut out = PointOutput::new();
            let count = replicas * args.requests_per_replica;
            let rate = args.load * replicas as f64 / solo;
            let requests = diurnal_requests(&spec, count, rate, args.seed);
            let cfg = point_config(args, replicas, &requests);
            let report = simulate_fleet(&cfg, &requests);
            let m = &report.metrics;
            assert_eq!(m.completed + m.shed, count, "accounting identity");
            let (p50, p99) =
                m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
            let min_avail =
                m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
            out.row(vec![
                replicas.to_string(),
                count.to_string(),
                format!("{rate:.1}"),
                m.completed.to_string(),
                m.shed.to_string(),
                format!("{:.1}", m.goodput_rps),
                format!("{:.3}", p50 * 1e3),
                format!("{:.3}", p99 * 1e3),
                format!("{min_avail:.3}"),
                report.events_processed.to_string(),
                SCHEMA_VERSION.to_string(),
            ]);
            let mut point = JsonValue::obj(vec![
                ("replicas", JsonValue::Int(replicas as i64)),
                ("requests", JsonValue::Int(count as i64)),
                ("offered_rps", JsonValue::Num(rate)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("shed_rate", JsonValue::Num(m.shed_rate)),
                ("goodput_rps", JsonValue::Num(m.goodput_rps)),
                ("p50_s", JsonValue::Num(p50)),
                ("p99_s", JsonValue::Num(p99)),
                ("min_availability", JsonValue::Num(min_avail)),
                ("events", JsonValue::Int(report.events_processed as i64)),
                ("makespan_s", JsonValue::Num(m.makespan_s)),
            ]);
            if !report.event_queue_samples.is_empty() {
                let peak = report.event_queue_samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
                if let JsonValue::Obj(fields) = &mut point {
                    fields.push(("peak_event_queue".into(), JsonValue::Int(peak as i64)));
                }
            }
            out.point(point);
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("planet_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("engine", JsonValue::Str(args.engine.label().into()))
                .set("arrivals", JsonValue::Str("diurnal".into()))
                .set("load", JsonValue::Num(args.load))
                .set("solo_service_s", JsonValue::Num(solo))
                .set("requests_per_replica", JsonValue::Int(args.requests_per_replica as i64))
                .set(
                    "mtbf_factor",
                    if args.mtbf_factor.is_finite() {
                        JsonValue::Num(args.mtbf_factor)
                    } else {
                        JsonValue::Null
                    },
                )
                .set("mttr_factor", JsonValue::Num(args.mttr_factor))
                .set("routing", JsonValue::Str(RoutingPolicy::RoundRobin.label().into()))
                .set("batch", JsonValue::Int(args.batch as i64))
                .set("queue_depth", JsonValue::Int(args.queue_depth as i64))
                .set("seed", JsonValue::Int(args.seed as i64));
        },
    );

    // Telemetry pass: re-run the largest fleet traced, then lay the
    // sampled calendar-queue occupancy onto the `events` lane as a
    // counter track next to the replica track groups.
    if let Some(path) = &args.trace {
        let replicas = *args.replicas.last().expect("non-empty sweep");
        let count = replicas * args.requests_per_replica;
        let rate = args.load * replicas as f64 / solo;
        let requests = diurnal_requests(&spec, count, rate, args.seed);
        let cfg = point_config(args, replicas, &requests);
        export_trace(
            path,
            &format!("Trace — {replicas} replicas, diurnal + flash crowd → {path}"),
            |sink| {
                let report = simulate_fleet_traced(&cfg, &requests, sink);
                let track = TrackId::new(0, Module::Events);
                for &(t, depth) in &report.event_queue_samples {
                    sink.counter(track, "event_queue_depth", t, depth as f64);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(&mut FlagParser::new(words.iter().map(|s| s.to_string())))
    }

    #[test]
    fn args_parse_accepts_defaults_and_rejects_malformed_flags() {
        let ok = parse(&[]).expect("defaults valid");
        assert_eq!(ok.replicas, vec![250, 1000]);
        assert_eq!(ok.engine, FleetEngine::EventDriven, "the event core is the default here");
        let step = parse(&["--engine", "step"]).expect("valid");
        assert_eq!(step.engine, FleetEngine::StepGranular);
        let healthy = parse(&["--mtbf-factor", "inf"]).expect("valid");
        assert!(!healthy.mtbf_factor.is_finite());

        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--replicas", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--requests-per-replica", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--load", "-1"]).unwrap_err().contains("positive"));
        assert!(parse(&["--mtbf-factor", "nan"]).unwrap_err().contains("positive"));
        assert!(parse(&["--engine", "warp"]).unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
    }
}
