//! Streaming-decode session sweep: goodput, tail latency, inter-token
//! latency and state-rebuild rate across session count × turn length ×
//! re-cluster threshold.
//!
//! Each grid point plays a seeded multi-turn session trace
//! ([`cta_workloads::session_trace`]: Poisson session arrivals,
//! geometric turn counts, exponential think time, Pareto decode
//! lengths) through a sticky-routed fleet
//! ([`crate::SessionPolicy::sticky`]). Decode turns are priced
//! incrementally (`cta_sim::schedule_decode`); the re-cluster threshold
//! sets how often accumulated drift forces a level-2 rebuild
//! (`cta_sim::reclusters_for`), so tighter thresholds trade inter-token
//! latency for compression freshness. `--mtbf-factor` (span-relative,
//! `inf` = healthy) schedules crashes, exercising the session-eviction
//! path: moved sessions pay a state re-prefill, lost ones shed as
//! [`crate::ShedReason::SessionLost`].
//!
//! ```text
//! decode_sweep [--sessions 16,48] [--turns 4] [--thresholds 0.25,1.0]
//!              [--arrival-rate 2000] [--think-ms 1] [--drift 0.02]
//!              [--replicas 3] [--policy sticky|stateless]
//!              [--mtbf-factor inf] [--mttr-factor 0.02]
//!              [--seed 7] [--engine step|event] [--trace <path.json>]
//!              [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! **Outputs.** The stdout table and `results/decode_sweep.{csv,json}`
//! are deterministic for a fixed `--seed` at any `--jobs` value and
//! under either engine (session bookkeeping lives in the shared
//! handlers). Wall-clock speed of the decode path is measured by the
//! repository benchmark (`perfbench`'s `decode` workload), not here.
//! With `--trace <path>` the final point is re-run traced —
//! session re-prefills appear as compression-class spans and lost
//! sessions as instants on the runtime lane.

use std::process::ExitCode;

use cta_bench::{FlagParser, JsonValue};
use cta_sim::SystemConfig;
use cta_workloads::SessionSpec;

use crate::harness::{
    mini_workload, ExtractFn, FleetFlag, FleetFlags, FleetPoint, FleetSweep, Harness, PointFn,
    SweepArgs, SweepSpec,
};
use crate::{session_requests, LoadSpec, RoutingPolicy, ServeRequest, SessionPolicy};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: decode_sweep [--sessions 16,48] [--turns 4] [--thresholds 0.25,1.0]
                    [--arrival-rate 2000] [--think-ms 1] [--drift 0.02]
                    [--replicas 3] [--policy sticky|stateless]
                    [--mtbf-factor inf] [--mttr-factor 0.02]
                    [--seed 7] [--engine step|event] [--trace <path.json>]
                    [--jobs N] [--pool-trace <path.json>]";

/// The sweep's declaration: CSV/stdout columns (the harness appends
/// `schema_version`) and the shared fleet flags it takes. The fleet is
/// fixed to least-outstanding-work routing, batches of 4 and admission
/// depth 64.
pub(crate) fn spec() -> SweepSpec {
    use FleetFlag::*;
    SweepSpec::new("decode_sweep")
        .usage(USAGE)
        .columns(
            "sessions,mean_turns,threshold,turns,completed,shed,goodput_rps,p99_ms,\
             itl_ms,re_prefill_rate,sessions_lost",
        )
        .fleet(
            &[MttrFactor, Seed, Engine, Trace],
            FleetFlags {
                routing: RoutingPolicy::LeastOutstandingWork,
                mttr_factor: 0.02,
                ..FleetFlags::default()
            },
        )
}

#[derive(Debug)]
struct Args {
    sessions: Vec<usize>,
    turns: Vec<f64>,
    thresholds: Vec<f64>,
    arrival_rate: f64,
    think_ms: f64,
    drift: f64,
    replicas: usize,
    policy: SessionPolicy,
    mtbf_factor: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: vec![16, 48],
            turns: vec![4.0],
            thresholds: vec![0.25, 1.0],
            arrival_rate: 2_000.0,
            think_ms: 1.0,
            drift: 0.02,
            replicas: 3,
            policy: SessionPolicy::sticky(),
            mtbf_factor: f64::INFINITY,
        }
    }
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        match flag {
            "--sessions" => self.sessions = it.list(flag, "integers")?,
            "--turns" => self.turns = it.list(flag, "numbers")?,
            "--thresholds" => self.thresholds = it.list(flag, "numbers")?,
            "--arrival-rate" => self.arrival_rate = it.num(flag, "a number")?,
            "--think-ms" => self.think_ms = it.num(flag, "a number")?,
            "--drift" => self.drift = it.num(flag, "a number")?,
            "--replicas" => self.replicas = it.num(flag, "an integer")?,
            "--policy" => {
                let v = it.value(flag)?;
                self.policy = match v.as_str() {
                    "sticky" => SessionPolicy::sticky(),
                    "stateless" => SessionPolicy::stateless(),
                    _ => return Err(format!("unknown policy {v:?} (sticky|stateless)")),
                };
            }
            "--mtbf-factor" => self.mtbf_factor = it.num(flag, "a number")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.sessions.is_empty() || self.sessions.contains(&0) {
            return Err("--sessions must be a non-empty list of positive integers".into());
        }
        if self.turns.is_empty() || self.turns.iter().any(|&t| !(t >= 1.0 && t.is_finite())) {
            return Err("--turns must be a non-empty list of numbers >= 1".into());
        }
        // `inf` is a legal threshold (= re-clustering disabled).
        if self.thresholds.is_empty() || self.thresholds.iter().any(|&t| t.is_nan() || t <= 0.0) {
            return Err("--thresholds must be a non-empty list of positive numbers (inf ok)".into());
        }
        if !(self.arrival_rate > 0.0 && self.arrival_rate.is_finite()) {
            return Err("--arrival-rate must be positive and finite".into());
        }
        if !(self.think_ms > 0.0 && self.think_ms.is_finite()) {
            return Err("--think-ms must be positive and finite".into());
        }
        if !(self.drift >= 0.0 && self.drift.is_finite()) {
            return Err("--drift must be non-negative and finite".into());
        }
        if self.replicas == 0 {
            return Err("--replicas must be positive".into());
        }
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

/// One grid point: session count × mean turns × re-cluster threshold.
type Point = (usize, f64, f64);

/// The session trace for one grid point.
fn point_requests(
    spec: &LoadSpec,
    args: &Args,
    seed: u64,
    (sessions, mean_turns, threshold): Point,
) -> Vec<ServeRequest> {
    let turns = SessionSpec::new(sessions, args.arrival_rate, mean_turns, args.think_ms * 1e-3);
    session_requests(spec, &turns, args.drift, threshold, seed)
}

fn run(h: &Harness<Args>) -> Result<(), String> {
    let (args, fleet) = (h.args(), h.fleet());
    let w = mini_workload(SystemConfig::paper());

    let grid: Vec<Point> = (args.sessions.iter())
        .flat_map(|&sessions| args.turns.iter().map(move |&turns| (sessions, turns)))
        .flat_map(|(sessions, turns)| args.thresholds.iter().map(move |&t| (sessions, turns, t)))
        .collect();

    let point: &PointFn<Point> = &|&p| {
        let requests = point_requests(&w.spec, args, fleet.seed, p);
        let mut config = fleet.config(SystemConfig::paper(), args.replicas);
        config.sessions = Some(args.policy);
        config.faults = fleet.faults(args.replicas, &requests, args.mtbf_factor)?;
        Ok(FleetPoint { config, requests })
    };
    let extract: &ExtractFn<Point> = &|&(sessions, mean_turns, threshold), fp, report, out| {
        let m = &report.metrics;
        let turns = fp.requests.len();
        assert_eq!(m.completed + m.shed, turns, "turn accounting identity");
        let s = m.sessions.as_ref().expect("session fleets report session stats");
        let p99 = m.latency.as_ref().map_or(f64::NAN, |l| l.p99_s);
        out.row(vec![
            sessions.to_string(),
            format!("{mean_turns:.1}"),
            format!("{threshold}"),
            turns.to_string(),
            m.completed.to_string(),
            m.shed.to_string(),
            format!("{:.1}", m.goodput_rps),
            format!("{:.3}", p99 * 1e3),
            format!("{:.4}", s.mean_itl_s * 1e3),
            format!("{:.3}", s.re_prefill_rate),
            s.sessions_lost.to_string(),
        ]);
        out.point(JsonValue::obj(vec![
            ("sessions", JsonValue::Int(sessions as i64)),
            ("mean_turns", JsonValue::Num(mean_turns)),
            ("threshold", JsonValue::Num(threshold)),
            ("turns", JsonValue::Int(turns as i64)),
            ("completed", JsonValue::Int(m.completed as i64)),
            ("shed", JsonValue::Int(m.shed as i64)),
            ("goodput_rps", JsonValue::Num(m.goodput_rps)),
            ("p99_s", JsonValue::Num(p99)),
            ("mean_itl_s", JsonValue::Num(s.mean_itl_s)),
            ("p99_itl_s", JsonValue::Num(s.p99_itl_s)),
            ("re_prefills", JsonValue::Int(s.re_prefills as i64)),
            ("re_prefill_rate", JsonValue::Num(s.re_prefill_rate)),
            ("sessions_lost", JsonValue::Int(s.sessions_lost as i64)),
            ("turns_shed", JsonValue::Int(s.turns_shed as i64)),
            ("events", JsonValue::Int(report.events_processed as i64)),
        ]));
    };

    let policy = if args.policy.sticky { "sticky" } else { "stateless" };
    h.run_fleet(
        &format!(
            "Decode sweep — {policy} sessions over {} replicas, engine {}, drift {}/token",
            args.replicas,
            fleet.engine.label(),
            args.drift
        ),
        &grid,
        FleetSweep {
            point,
            extract,
            // Session re-prefill spans and session-lost instants land on
            // the runtime lane of the standard fleet trace.
            trace_banner: &|&(sessions, _, threshold), path| {
                format!("Trace — {sessions} sessions, threshold {threshold} → {path}")
            },
            trace: None,
        },
        |json| {
            json.set("experiment", JsonValue::Str("decode_sweep".into()))
                .set("case", JsonValue::Str(w.case.name()))
                .set("engine", JsonValue::Str(fleet.engine.label().into()))
                .set("policy", JsonValue::Str(policy.into()))
                .set("arrival_rate", JsonValue::Num(args.arrival_rate))
                .set("think_ms", JsonValue::Num(args.think_ms))
                .set("drift_per_token", JsonValue::Num(args.drift))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                // `inf` (fault-free) is written as null.
                .set("mtbf_factor", JsonValue::Num(args.mtbf_factor))
                .set("mttr_factor", JsonValue::Num(fleet.mttr_factor))
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
        assert_eq!(ok.args().sessions, vec![16, 48]);
        assert_eq!(ok.args().policy, SessionPolicy::sticky());
        assert!(!ok.args().mtbf_factor.is_finite(), "healthy by default");
        assert_eq!(ok.fleet().mttr_factor, 0.02);
        let ablate = parse("--policy stateless").expect("valid");
        assert_eq!(ablate.args().policy, SessionPolicy::stateless());
        let open = parse("--thresholds inf").expect("valid");
        assert!(!open.args().thresholds[0].is_finite());

        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--batch 4").unwrap_err().contains("unknown flag"));
        assert!(parse("--sessions 0").unwrap_err().contains("positive"));
        assert!(parse("--turns 0.5").unwrap_err().contains(">= 1"));
        assert!(parse("--thresholds -1").unwrap_err().contains("positive"));
        assert!(parse("--arrival-rate nan").unwrap_err().contains("positive"));
        assert!(parse("--think-ms 0").unwrap_err().contains("positive"));
        assert!(parse("--drift -0.1").unwrap_err().contains("non-negative"));
        assert!(parse("--replicas 0").unwrap_err().contains("positive"));
        assert!(parse("--policy rr").unwrap_err().contains("unknown policy"));
        assert!(parse("--engine warp").unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn point_trace_is_deterministic_and_threshold_sensitive() {
        let args = Args::default();
        let spec = mini_workload(SystemConfig::paper()).spec;
        let mk = |threshold| point_requests(&spec, &args, 7, (8, 3.0, threshold));
        let a = mk(0.25);
        assert_eq!(a, mk(0.25));
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // A tighter threshold yields at least as many re-clusters per turn.
        let loose = mk(1.0);
        let tight = mk(0.05);
        let count = |rs: &[ServeRequest]| {
            rs.iter().map(|r| r.session.expect("tagged").reclusters as u64).sum::<u64>()
        };
        assert!(count(&tight) > count(&loose));
        // And arrival times / turn structure are threshold-independent.
        assert_eq!(
            loose.iter().map(|r| r.arrival_s.to_bits()).collect::<Vec<_>>(),
            tight.iter().map(|r| r.arrival_s.to_bits()).collect::<Vec<_>>()
        );
    }
}
