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

use cta_bench::{FlagParser, JsonValue};
use cta_sim::SystemConfig;
use cta_telemetry::{Module, TraceSink, TrackId};

use crate::harness::{
    mini_workload, offered_rate, ExtractFn, FleetFlag, FleetFlags, FleetPoint, FleetSweep, Harness,
    PointFn, SweepArgs, SweepSpec,
};
use crate::{diurnal_requests, simulate_fleet_traced, FleetEngine, RoutingPolicy};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: planet_sweep [--replicas 250,1000] [--load 0.7]
                    [--requests-per-replica 4] [--seed 7]
                    [--mtbf-factor 1] [--mttr-factor 0.02]
                    [--batch 4] [--queue-depth 64] [--engine event|step]
                    [--trace <path.json>]
                    [--jobs N] [--pool-trace <path.json>]";

/// The sweep's declaration: CSV/stdout columns (the harness appends
/// `schema_version`) and the shared fleet flags it takes. Routing is
/// fixed to round-robin, the event core is the default engine.
pub(crate) fn spec() -> SweepSpec {
    use FleetFlag::*;
    SweepSpec::new("planet_sweep")
        .usage(USAGE)
        .columns(
            "replicas,requests,offered_rps,completed,shed,goodput_rps,p50_ms,\
             p99_ms,min_avail,events",
        )
        .fleet(
            &[Seed, MttrFactor, Batch, QueueDepth, Engine, Trace],
            FleetFlags {
                routing: RoutingPolicy::RoundRobin,
                engine: FleetEngine::EventDriven,
                mttr_factor: 0.02,
                ..FleetFlags::default()
            },
        )
}

#[derive(Debug)]
struct Args {
    replicas: Vec<usize>,
    load: f64,
    requests_per_replica: usize,
    mtbf_factor: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args { replicas: vec![250, 1000], load: 0.7, requests_per_replica: 4, mtbf_factor: 1.0 }
    }
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        match flag {
            "--replicas" => self.replicas = it.list(flag, "integers")?,
            "--load" => self.load = it.num(flag, "a number")?,
            "--requests-per-replica" => self.requests_per_replica = it.num(flag, "an integer")?,
            "--mtbf-factor" => self.mtbf_factor = it.num(flag, "a number")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.replicas.is_empty() || self.replicas.contains(&0) {
            return Err("--replicas must be a non-empty list of positive integers".into());
        }
        if self.requests_per_replica == 0 {
            return Err("--requests-per-replica must be positive".into());
        }
        if !(self.load > 0.0 && self.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        // `inf` is a legal MTBF factor (= fault-free run).
        if self.mtbf_factor.is_nan() || self.mtbf_factor <= 0.0 {
            return Err("--mtbf-factor must be positive (inf ok)".into());
        }
        Ok(())
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    spec().main(argv, run)
}

fn run(h: &Harness<Args>) -> Result<(), String> {
    let (args, fleet) = (h.args(), h.fleet());
    let w = mini_workload(SystemConfig::paper());
    let grid = args
        .replicas
        .iter()
        .map(|&replicas| Ok((replicas, offered_rate(args.load, replicas, w.solo_s)?)))
        .collect::<Result<Vec<_>, String>>()?;

    let point: &PointFn<(usize, f64)> = &|&(replicas, rate)| {
        let count = replicas * args.requests_per_replica;
        let requests = diurnal_requests(&w.spec, count, rate, fleet.seed);
        let mut config = fleet.config(SystemConfig::paper(), replicas);
        config.faults = fleet.faults(replicas, &requests, args.mtbf_factor)?;
        Ok(FleetPoint { config, requests })
    };
    let extract: &ExtractFn<(usize, f64)> = &|&(replicas, rate), fp, report, out| {
        let m = &report.metrics;
        let count = fp.requests.len();
        assert_eq!(m.completed + m.shed, count, "accounting identity");
        let (p50, p99) = m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
        let min_avail = m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
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
        ]);
        let mut fields = vec![
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
        ];
        if let Some(peak) = report.event_queue_samples.iter().map(|&(_, d)| d).max() {
            fields.push(("peak_event_queue", JsonValue::Int(peak as i64)));
        }
        out.point(JsonValue::obj(fields));
    };

    h.run_fleet(
        &format!(
            "Planet sweep — diurnal + flash crowd @ load {:.2}, engine {}, \
             {} requests/replica, solo service {:.3} ms",
            args.load,
            fleet.engine.label(),
            args.requests_per_replica,
            w.solo_s * 1e3
        ),
        &grid,
        FleetSweep {
            point,
            extract,
            trace_banner: &|&(replicas, _), path| {
                format!("Trace — {replicas} replicas, diurnal + flash crowd → {path}")
            },
            // Lay the sampled calendar-queue occupancy onto the `events`
            // lane as a counter track next to the replica track groups.
            trace: Some(&|fp, sink| {
                let report = simulate_fleet_traced(&fp.config, &fp.requests, sink);
                let track = TrackId::new(0, Module::Events);
                for &(t, depth) in &report.event_queue_samples {
                    sink.counter(track, "event_queue_depth", t, depth as f64);
                }
            }),
        },
        |json| {
            json.set("experiment", JsonValue::Str("planet_sweep".into()))
                .set("case", JsonValue::Str(w.case.name()))
                .set("engine", JsonValue::Str(fleet.engine.label().into()))
                .set("arrivals", JsonValue::Str("diurnal".into()))
                .set("load", JsonValue::Num(args.load))
                .set("solo_service_s", JsonValue::Num(w.solo_s))
                .set("requests_per_replica", JsonValue::Int(args.requests_per_replica as i64))
                // `inf` (fault-free) is written as null.
                .set("mtbf_factor", JsonValue::Num(args.mtbf_factor))
                .set("mttr_factor", JsonValue::Num(fleet.mttr_factor))
                .set("routing", JsonValue::Str(fleet.routing.label().into()))
                .set("batch", JsonValue::Int(fleet.batch as i64))
                .set("queue_depth", JsonValue::Int(fleet.queue_depth as i64))
                .set("seed", JsonValue::Int(fleet.seed as i64));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &str) -> Result<Harness<Args>, String> {
        spec().parse(words.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_accepts_defaults_and_rejects_malformed_flags() {
        let ok = parse("").expect("defaults valid");
        assert_eq!(ok.args().replicas, vec![250, 1000]);
        assert_eq!(ok.fleet().engine, FleetEngine::EventDriven, "the event core is the default");
        assert_eq!(ok.fleet().routing, RoutingPolicy::RoundRobin);
        let step = parse("--engine step").expect("valid");
        assert_eq!(step.fleet().engine, FleetEngine::StepGranular);
        let healthy = parse("--mtbf-factor inf").expect("valid");
        assert!(!healthy.args().mtbf_factor.is_finite());

        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--routing jsq").unwrap_err().contains("unknown flag"));
        assert!(parse("--replicas 0").unwrap_err().contains("positive"));
        assert!(parse("--requests-per-replica 0").unwrap_err().contains("positive"));
        assert!(parse("--load -1").unwrap_err().contains("positive"));
        assert!(parse("--mtbf-factor nan").unwrap_err().contains("positive"));
        assert!(parse("--engine warp").unwrap_err().contains("unknown engine"));
    }
}
