//! Graceful-degradation sweep: goodput, tail latency, shed breakdown and
//! availability as the replica failure rate rises.
//!
//! The harness fixes one operating point (replica count, offered load,
//! seed) and sweeps the mean time between failures, expressed as a
//! multiple of the arrival-trace span so the defaults stay meaningful for
//! any workload scale: an MTBF factor of `0.5` means each replica crashes
//! on average twice over the trace. For every factor a seeded
//! [`crate::FaultPlan`] is injected into [`crate::simulate_fleet`]
//! and the run is reported next to the fault-free baseline (factor `inf`,
//! printed first). Output follows the `cta-bench` conventions: an aligned
//! stdout table plus `results/degradation_sweep.csv` and
//! `results/degradation_sweep.json`.
//!
//! ```text
//! degradation_sweep [--replicas 4] [--load 0.8] [--requests 300]
//!                   [--seed 7] [--mtbf-factors 4,2,1,0.5,0.25]
//!                   [--mttr-factor 0.05] [--routing jsq] [--batch 4]
//!                   [--queue-depth 64] [--trace <path.json>]
//!                   [--engine step|event]
//!                   [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! With `--trace <path>` the harness re-runs the *last* (highest failure
//! rate) sweep point with the telemetry ring buffer attached and writes a
//! validated Chrome Trace Format file; the fault lane shows outage and
//! slowdown spans next to the usual replica tracks. Malformed flags print
//! a usage message to stderr and exit non-zero. Everything is
//! deterministic for a fixed `--seed`, at any `--jobs` value.

use std::process::ExitCode;

use cta_bench::{FlagParser, JsonValue};
use cta_sim::SystemConfig;

use crate::harness::{
    mini_workload, offered_rate, ExtractFn, FleetFlag, FleetFlags, FleetPoint, FleetSweep, Harness,
    PointFn, SweepArgs, SweepSpec,
};
use crate::{poisson_requests, FleetEngine, ShedReason};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: degradation_sweep [--replicas 4] [--load 0.8] [--requests 300]
                         [--seed 7] [--mtbf-factors 4,2,1,0.5,0.25]
                         [--mttr-factor 0.05] [--routing rr|jsq|low]
                         [--batch 4] [--queue-depth 64] [--trace <path.json>]
                         [--engine step|event]
                         [--jobs N] [--pool-trace <path.json>]";

/// The sweep's declaration: CSV/stdout columns (the harness appends
/// `schema_version`) and the shared fleet flags it takes.
pub(crate) fn spec() -> SweepSpec {
    use FleetFlag::*;
    SweepSpec::new("degradation_sweep")
        .usage(USAGE)
        .columns(
            "mtbf_factor,crashes_per_replica,completed,shed_lost,shed_other,\
             retried,retry_events,goodput_rps,p50_ms,p99_ms,min_avail",
        )
        .fleet(
            &[Seed, MttrFactor, Routing, Batch, QueueDepth, Trace, Engine],
            FleetFlags::default(),
        )
}

#[derive(Debug)]
struct Args {
    replicas: usize,
    load: f64,
    requests: usize,
    mtbf_factors: Vec<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Args { replicas: 4, load: 0.8, requests: 300, mtbf_factors: vec![4.0, 2.0, 1.0, 0.5, 0.25] }
    }
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        match flag {
            "--replicas" => self.replicas = it.num(flag, "an integer")?,
            "--load" => self.load = it.num(flag, "a number")?,
            "--requests" => self.requests = it.num(flag, "an integer")?,
            "--mtbf-factors" => self.mtbf_factors = it.list(flag, "numbers")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 || self.requests == 0 {
            return Err("--replicas and --requests must be positive".into());
        }
        if !(self.load > 0.0 && self.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        if self.mtbf_factors.is_empty()
            || self.mtbf_factors.iter().any(|f| !(*f > 0.0 && f.is_finite()))
        {
            return Err("--mtbf-factors must be a non-empty list of positive numbers".into());
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
    let rate = offered_rate(args.load, args.replicas, w.solo_s)?;
    let requests = poisson_requests(&w.spec, args.requests, rate, fleet.seed);
    let span = requests.last().expect("non-empty trace").arrival_s;

    // Baseline first (no faults), then rising failure rate.
    let factors: Vec<Option<f64>> =
        std::iter::once(None).chain(args.mtbf_factors.iter().copied().map(Some)).collect();

    let point: &PointFn<Option<f64>> = &|factor| {
        let mut config = fleet.config(SystemConfig::paper(), args.replicas);
        config.faults = fleet.faults(args.replicas, &requests, factor.unwrap_or(f64::INFINITY))?;
        Ok(FleetPoint { config, requests: requests.clone() })
    };
    let extract: &ExtractFn<Option<f64>> = &|&factor, _, report, out| {
        let m = &report.metrics;
        // Conservation: every arrival is accounted for exactly once.
        assert_eq!(m.completed + m.shed, args.requests, "accounting identity");
        let shed_lost = report.shed.iter().filter(|s| s.reason == ShedReason::ReplicaLost).count();
        let shed_other = m.shed - shed_lost;
        let (p50, p99) = m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
        let min_avail = m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
        let crashes = factor.map_or(0.0, |f| 1.0 / f);
        out.row(vec![
            factor.map_or("inf".into(), |f| format!("{f:.2}")),
            format!("{crashes:.2}"),
            m.completed.to_string(),
            shed_lost.to_string(),
            shed_other.to_string(),
            m.retried.to_string(),
            m.retry_events.to_string(),
            format!("{:.1}", m.goodput_rps),
            format!("{:.3}", p50 * 1e3),
            format!("{:.3}", p99 * 1e3),
            format!("{min_avail:.3}"),
        ]);
        out.point(JsonValue::obj(vec![
            ("mtbf_factor", factor.map_or(JsonValue::Null, JsonValue::Num)),
            ("crashes_per_replica", JsonValue::Num(crashes)),
            ("completed", JsonValue::Int(m.completed as i64)),
            ("shed", JsonValue::Int(m.shed as i64)),
            ("shed_replica_lost", JsonValue::Int(shed_lost as i64)),
            ("retried", JsonValue::Int(m.retried as i64)),
            ("retry_events", JsonValue::Int(m.retry_events as i64)),
            ("goodput_rps", JsonValue::Num(m.goodput_rps)),
            ("p50_s", JsonValue::Num(p50)),
            ("p99_s", JsonValue::Num(p99)),
            ("min_availability", JsonValue::Num(min_avail)),
            ("makespan_s", JsonValue::Num(m.makespan_s)),
        ]));
    };

    h.run_fleet(
        &format!(
            "Degradation sweep — {} replicas @ load {:.2} ({:.1} rps, span {:.3} s), \
             MTTR {:.0}% of span, routing {}",
            args.replicas,
            args.load,
            rate,
            span,
            fleet.mttr_factor * 100.0,
            fleet.routing.label()
        ),
        &factors,
        FleetSweep {
            point,
            extract,
            // The harshest point: the fault lane (outages, slowdowns,
            // requeues) shows next to the usual replica tracks.
            trace_banner: &|factor, path| {
                format!("Trace — MTBF factor {:.2} → {path}", factor.unwrap_or(f64::INFINITY))
            },
            trace: None,
        },
        |json| {
            json.set("experiment", JsonValue::Str("degradation_sweep".into()))
                .set("case", JsonValue::Str(w.case.name()))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set("load", JsonValue::Num(args.load))
                .set("offered_rps", JsonValue::Num(rate))
                .set("trace_span_s", JsonValue::Num(span))
                .set("mttr_factor", JsonValue::Num(fleet.mttr_factor))
                .set("routing", JsonValue::Str(fleet.routing.label().into()))
                .set("batch", JsonValue::Int(fleet.batch as i64))
                .set("queue_depth", JsonValue::Int(fleet.queue_depth as i64))
                .set("requests", JsonValue::Int(args.requests as i64))
                .set("seed", JsonValue::Int(fleet.seed as i64));
            // Only non-default so the default report bytes stay pinned.
            if fleet.engine != FleetEngine::StepGranular {
                json.set("engine", JsonValue::Str(fleet.engine.label().into()));
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harness;

    fn parse(words: &str) -> Result<Harness<Args>, String> {
        spec().parse(words.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_accepts_defaults_and_rejects_malformed_flags() {
        let ok = parse("").expect("defaults valid");
        assert_eq!(ok.args().mtbf_factors, vec![4.0, 2.0, 1.0, 0.5, 0.25]);
        assert_eq!(ok.fleet().mttr_factor, 0.05);
        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--load").unwrap_err().contains("needs a value"));
        assert!(parse("--routing x").unwrap_err().contains("unknown routing policy"));
        assert!(parse("--mtbf-factors 0").unwrap_err().contains("positive"));
        assert!(parse("--mttr-factor -1").unwrap_err().contains("positive"));
        assert_eq!(ok.fleet().engine, FleetEngine::StepGranular);
        let event = parse("--engine event").expect("valid");
        assert_eq!(event.fleet().engine, FleetEngine::EventDriven);
        assert!(parse("--engine warp").unwrap_err().contains("unknown engine"));
    }
}
