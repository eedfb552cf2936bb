//! Fleet serving sweep: throughput, tail latency, goodput and shed rate
//! across offered-load points and replica counts.
//!
//! For each (replica count, load multiplier) pair the harness generates a
//! seeded Poisson trace at `multiplier × replicas / solo_service` requests
//! per second — i.e. load is expressed relative to the fleet's aggregate
//! no-queueing capacity — plays it through [`crate::simulate_fleet`],
//! and reports the aggregate metrics. Output follows the `cta-bench`
//! conventions: an aligned stdout table plus `results/serve_sweep.csv`
//! and `results/serve_sweep.json`.
//!
//! ```text
//! serve_sweep [--replicas 1,4] [--loads 0.2,0.5,0.8,1.1,1.5]
//!             [--requests 200] [--seed 7] [--routing jsq]
//!             [--batch 4] [--queue-depth 64] [--trace <path.json>]
//!             [--faults <mtbf_s>:<mttr_s>] [--brownout]
//!             [--engine step|event] [--arrivals poisson|diurnal]
//!             [--tenants N] [--scheduler fifo|drr|wfq]
//!             [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! With `--faults` each sweep point injects a seeded MTBF/MTTR crash
//! schedule ([`crate::FaultPlan::seeded`]) over twice the trace span;
//! evicted requests are requeued under the default retry budget and
//! crash-orphaned work that cannot be placed is shed as `ReplicaLost`.
//! With `--brownout` each sweep point runs under the standard quality-
//! brownout controller ([`crate::BrownoutConfig::standard`]): replicas
//! under sustained queueing degrade their CTA cluster budgets along the
//! calibrated ladder, and the JSON gains per-point quality-loss
//! attribution fields. Without the flag the output is byte-identical to
//! the pre-brownout harness. Malformed flags print a usage message to
//! stderr and exit non-zero.
//!
//! With `--trace <path>` the harness re-runs the final sweep point with
//! the telemetry ring buffer attached and writes a Chrome Trace Format
//! file (open it in `chrome://tracing` or Perfetto): one track group per
//! replica with SA/CIM/CAG/PAG/host/runtime lanes, request lifecycle
//! intervals, and queue-depth counters. The trace is validated before it
//! is written, and tracing never changes the sweep numbers — the sink is
//! compiled out of the untraced runs.
//!
//! With `--tenants N` (or `--scheduler`) every sweep point routes its
//! arrivals through the multi-tenant front end ([`crate::TenancyConfig`]):
//! requests are striped over `N` equal-weight tenants (`tenant = id % N`)
//! and drained by the chosen scheduler (default `drr`). The single-tenant
//! configuration (`--tenants 1`, any scheduler) is pinned bitwise against
//! the tenancy-off fleet — CSV, JSON and trace included (the `golden`
//! integration tests enforce it) — and multi-tenant runs add per-point
//! `fairness_index` fields plus `tenants`/`scheduler` metadata to the
//! JSON only, so the default layout never moves. `tenant_sweep` is the
//! dedicated experiment for skewed mixes, quotas and autoscaling.
//!
//! With `--engine event` every sweep point runs on the calendar-queue
//! event core ([`crate::FleetEngine::EventDriven`]) instead of the
//! step-granular scan. The two engines are pinned bitwise-equivalent
//! (the `engine` integration tests), so the CSV bytes do not change —
//! only the simulator's own complexity class does. With
//! `--arrivals diurnal` the Poisson trace is replaced by a diurnally
//! modulated one ([`crate::diurnal_requests`]): the point rate
//! becomes the daytime rate of a four-cycle day/night pattern (night at
//! 0.25x) with a 4x flash crowd early in the second cycle.
//!
//! Everything is deterministic for a fixed `--seed`: running the sweep
//! twice — at any `--jobs` value — produces byte-identical tables.

use std::process::ExitCode;

use cta_bench::{FlagParser, JsonValue};
use cta_sim::SystemConfig;

use crate::harness::{
    crash_plan, mini_workload, offered_rate, trace_span, ExtractFn, FleetFlag, FleetFlags,
    FleetPoint, FleetSweep, Harness, PointFn, SweepArgs, SweepSpec,
};
use crate::{
    diurnal_requests, poisson_requests, BrownoutConfig, FaultPlan, FleetEngine, LoadSpec,
    OverloadControl, SchedulerPolicy, ServeRequest, TenancyConfig,
};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: serve_sweep [--replicas 1,4] [--loads 0.2,0.5,0.8,1.1,1.5]
                   [--requests 200] [--seed 7] [--routing rr|jsq|low]
                   [--batch 4] [--queue-depth 64] [--trace <path.json>]
                   [--faults <mtbf_s>:<mttr_s>] [--brownout]
                   [--engine step|event] [--arrivals poisson|diurnal]
                   [--tenants N] [--scheduler fifo|drr|wfq]
                   [--jobs N] [--pool-trace <path.json>]";

/// The sweep's declaration: CSV/stdout columns (the harness appends
/// `schema_version`) and the shared fleet flags it takes.
pub(crate) fn spec() -> SweepSpec {
    use FleetFlag::*;
    SweepSpec::new("serve_sweep")
        .usage(USAGE)
        .columns(
            "replicas,load,offered_rps,completed,shed,tput_rps,goodput_rps,p50_ms,\
             p99_ms,util",
        )
        .fleet(&[Seed, Batch, QueueDepth, Routing, Engine, Trace], FleetFlags::default())
}

/// A parsed `--faults mtbf:mttr` spec (both in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultSpec {
    mtbf_s: f64,
    mttr_s: f64,
}

impl FaultSpec {
    fn parse(s: &str) -> Result<Self, String> {
        let (mtbf, mttr) = s
            .split_once(':')
            .ok_or_else(|| format!("--faults takes <mtbf_s>:<mttr_s>, got {s:?}"))?;
        let mtbf_s: f64 =
            mtbf.parse().map_err(|_| format!("--faults MTBF must be a number, got {mtbf:?}"))?;
        let mttr_s: f64 =
            mttr.parse().map_err(|_| format!("--faults MTTR must be a number, got {mttr:?}"))?;
        if !(mtbf_s > 0.0 && mtbf_s.is_finite() && mttr_s > 0.0 && mttr_s.is_finite()) {
            return Err(format!("--faults times must be positive and finite, got {s:?}"));
        }
        Ok(Self { mtbf_s, mttr_s })
    }
}

/// The arrival process a sweep point generates its trace from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Constant-rate Poisson arrivals (the default).
    Poisson,
    /// Diurnally modulated arrivals with a flash-crowd overlay.
    Diurnal,
}

impl Arrivals {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "poisson" => Some(Arrivals::Poisson),
            "diurnal" => Some(Arrivals::Diurnal),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Arrivals::Poisson => "poisson",
            Arrivals::Diurnal => "diurnal",
        }
    }
}

#[derive(Debug)]
struct Args {
    replicas: Vec<usize>,
    loads: Vec<f64>,
    requests: usize,
    faults: Option<FaultSpec>,
    brownout: bool,
    arrivals: Arrivals,
    /// `Some` when `--tenants` or `--scheduler` was given: the tenancy
    /// front end is enabled with this many equal-weight tenants.
    tenants: Option<u32>,
    scheduler: SchedulerPolicy,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            replicas: vec![1, 4],
            loads: vec![0.2, 0.5, 0.8, 1.1, 1.5],
            requests: 200,
            faults: None,
            brownout: false,
            arrivals: Arrivals::Poisson,
            tenants: None,
            scheduler: SchedulerPolicy::Drr,
        }
    }
}

impl Args {
    /// The tenancy configuration this invocation asked for, if any.
    fn tenancy(&self) -> Option<TenancyConfig> {
        self.tenants.map(|n| TenancyConfig::equal_weight(n, self.scheduler))
    }
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        match flag {
            "--replicas" => self.replicas = it.list(flag, "integers")?,
            "--loads" => self.loads = it.list(flag, "numbers")?,
            "--requests" => self.requests = it.num(flag, "an integer")?,
            "--faults" => self.faults = Some(FaultSpec::parse(&it.value(flag)?)?),
            // A bare switch: the brownout ladder and controller are the
            // calibrated standards, not CLI-tunable knobs.
            "--brownout" => self.brownout = true,
            "--arrivals" => {
                let v = it.value(flag)?;
                self.arrivals = Arrivals::parse(&v)
                    .ok_or_else(|| format!("unknown arrival process {v:?} (poisson|diurnal)"))?;
            }
            "--tenants" => self.tenants = Some(it.num(flag, "an integer")?),
            "--scheduler" => {
                let v = it.value(flag)?;
                self.scheduler = SchedulerPolicy::parse(&v)
                    .ok_or_else(|| format!("unknown scheduler {v:?} (fifo|drr|wfq)"))?;
                self.tenants.get_or_insert(1);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.replicas.is_empty() || self.loads.is_empty() {
            return Err("empty sweep: --replicas and --loads must be non-empty".into());
        }
        if self.loads.iter().any(|l| !(*l > 0.0 && l.is_finite())) {
            return Err("--loads must be a non-empty list of positive numbers".into());
        }
        if self.requests == 0 {
            return Err("--requests must be positive".into());
        }
        if self.replicas.contains(&0) {
            return Err("--replicas entries must be positive".into());
        }
        if self.tenants == Some(0) {
            return Err("--tenants must be positive".into());
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

/// The arrival trace for one sweep point, from [`poisson_requests`] or
/// [`diurnal_requests`] at the point rate, striped over the tenants.
fn point_requests(args: &Args, spec: &LoadSpec, rate: f64, seed: u64) -> Vec<ServeRequest> {
    let requests = match args.arrivals {
        Arrivals::Poisson => poisson_requests(spec, args.requests, rate, seed),
        Arrivals::Diurnal => diurnal_requests(spec, args.requests, rate, seed),
    };
    match args.tenants {
        // Stripe arrivals over the equal-weight tenants round-robin.
        Some(n) if n > 1 => requests
            .into_iter()
            .map(|r| {
                let t = (r.id % n as u64) as u32;
                r.with_tenant(t)
            })
            .collect(),
        _ => requests,
    }
}

/// One grid point: replica count, load multiplier and its offered rate.
type Point = (usize, f64, f64);

fn run(h: &Harness<Args>) -> Result<(), String> {
    let (args, fleet) = (h.args(), h.fleet());
    let w = mini_workload(SystemConfig::paper());
    let case = &w.case;

    // Offered rates relative to the fleet's no-queueing capacity.
    let grid = (args.replicas.iter())
        .flat_map(|&replicas| args.loads.iter().map(move |&load| (replicas, load)))
        .map(|(replicas, load)| Ok((replicas, load, offered_rate(load, replicas, w.solo_s)?)))
        .collect::<Result<Vec<Point>, String>>()?;

    let point: &PointFn<Point> = &|&(replicas, _, rate)| {
        let requests = point_requests(args, &w.spec, rate, fleet.seed);
        let mut config = fleet.config(SystemConfig::paper(), replicas);
        if args.brownout {
            config.overload = OverloadControl {
                brownout: Some(BrownoutConfig::standard()),
                ..OverloadControl::off()
            };
        }
        config.tenancy = args.tenancy();
        config.faults = match args.faults {
            None => FaultPlan::none(),
            Some(f) => crash_plan(replicas, trace_span(&requests), f.mtbf_s, f.mttr_s, fleet.seed)?,
        };
        Ok(FleetPoint { config, requests })
    };
    let extract: &ExtractFn<Point> = &|&(replicas, load, rate), _, report, out| {
        let m = &report.metrics;
        let (p50, p99, tput) = m
            .latency
            .as_ref()
            .map_or((f64::NAN, f64::NAN, 0.0), |l| (l.p50_s, l.p99_s, l.throughput_rps));
        let util =
            m.per_replica_utilization.iter().sum::<f64>() / m.per_replica_utilization.len() as f64;
        out.row(vec![
            replicas.to_string(),
            format!("{load:.2}"),
            format!("{rate:.1}"),
            m.completed.to_string(),
            m.shed.to_string(),
            format!("{tput:.1}"),
            format!("{:.1}", m.goodput_rps),
            format!("{:.3}", p50 * 1e3),
            format!("{:.3}", p99 * 1e3),
            format!("{util:.2}"),
        ]);
        let mut fields = vec![
            ("replicas", JsonValue::Int(replicas as i64)),
            ("load", JsonValue::Num(load)),
            ("offered_rps", JsonValue::Num(rate)),
            ("offered", JsonValue::Int(m.offered as i64)),
            ("completed", JsonValue::Int(m.completed as i64)),
            ("shed", JsonValue::Int(m.shed as i64)),
            ("shed_rate", JsonValue::Num(m.shed_rate)),
            ("throughput_rps", JsonValue::Num(tput)),
            ("goodput_rps", JsonValue::Num(m.goodput_rps)),
            ("p50_s", JsonValue::Num(p50)),
            ("p99_s", JsonValue::Num(p99)),
            ("mean_utilization", JsonValue::Num(util)),
            ("makespan_s", JsonValue::Num(m.makespan_s)),
        ];
        // Fault fields ride along only when --faults is given so the
        // default report layout is byte-identical to the healthy sweep.
        if args.faults.is_some() {
            let min_avail =
                m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
            fields.extend([
                ("retried", JsonValue::Int(m.retried as i64)),
                ("retry_events", JsonValue::Int(m.retry_events as i64)),
                ("min_availability", JsonValue::Num(min_avail)),
            ]);
        }
        // Per-tenant isolation numbers ride along only for genuinely
        // multi-tenant runs, so `--tenants 1` stays byte-identical to
        // the tenancy-off report.
        if args.tenants.is_some_and(|n| n > 1) {
            let t = m.tenancy.as_ref().expect("tenancy stats reported");
            fields.extend([
                ("fairness_index", JsonValue::Num(t.fairness_index)),
                ("max_slowdown", JsonValue::Num(t.max_slowdown)),
            ]);
        }
        // Likewise, brownout attribution only with --brownout.
        if args.brownout {
            let ov = &m.overload;
            fields.extend([
                ("mean_accuracy_loss_pct", JsonValue::Num(ov.mean_accuracy_loss_pct)),
                ("max_accuracy_loss_pct", JsonValue::Num(ov.max_accuracy_loss_pct)),
                ("brownout_transitions", JsonValue::Int(ov.brownout_transitions as i64)),
                ("brownout_s", JsonValue::Num(ov.per_replica_brownout_s.iter().sum())),
            ]);
        }
        out.point(JsonValue::obj(fields));
    };

    h.run_fleet(
        &format!(
            "Fleet serving sweep — {}×{} heads/layer, solo service {:.3} ms, routing {}",
            case.model.layers,
            case.model.heads,
            w.solo_s * 1e3,
            fleet.routing.label()
        ),
        &grid,
        FleetSweep {
            point,
            extract,
            trace_banner: &|&(replicas, load, _), path| {
                format!("Trace — {replicas} replicas @ load {load:.2} → {path}")
            },
            trace: None,
        },
        |json| {
            json.set("experiment", JsonValue::Str("serve_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("layers", JsonValue::Int(case.model.layers as i64))
                .set("heads", JsonValue::Int(case.model.heads as i64))
                .set("solo_service_s", JsonValue::Num(w.solo_s))
                .set("routing", JsonValue::Str(fleet.routing.label().into()))
                .set("batch", JsonValue::Int(fleet.batch as i64))
                .set("queue_depth", JsonValue::Int(fleet.queue_depth as i64))
                .set("requests_per_point", JsonValue::Int(args.requests as i64))
                .set("seed", JsonValue::Int(fleet.seed as i64))
                .set("distinct_task_shapes", JsonValue::Int(w.distinct_shapes as i64));
            if let Some(f) = args.faults {
                json.set("fault_mtbf_s", JsonValue::Num(f.mtbf_s))
                    .set("fault_mttr_s", JsonValue::Num(f.mttr_s));
            }
            if args.brownout {
                json.set("brownout", JsonValue::Bool(true));
            }
            // Engine/arrivals metadata only when non-default, so the
            // default report bytes stay pinned (and a step-vs-event CSV
            // diff is the whole equivalence check).
            if fleet.engine != FleetEngine::StepGranular {
                json.set("engine", JsonValue::Str(fleet.engine.label().into()));
            }
            if args.arrivals != Arrivals::Poisson {
                json.set("arrivals", JsonValue::Str(args.arrivals.label().into()));
            }
            // Tenancy metadata only for multi-tenant runs: the pinned
            // single-tenant replay must reproduce the golden JSON bytes.
            if args.tenants.is_some_and(|n| n > 1) {
                json.set("tenants", JsonValue::Int(args.tenants.unwrap_or(1) as i64))
                    .set("scheduler", JsonValue::Str(args.scheduler.label().into()));
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingPolicy;

    fn parse(words: &str) -> Result<Harness<Args>, String> {
        spec().parse(words.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_reports_malformed_flags_instead_of_panicking() {
        assert!(parse("").is_ok());
        assert!(!parse("").unwrap().args().brownout);
        let ok = parse("--routing rr --faults 5:0.5 --brownout").expect("valid");
        assert_eq!(ok.fleet().routing, RoutingPolicy::RoundRobin);
        assert_eq!(ok.args().faults, Some(FaultSpec { mtbf_s: 5.0, mttr_s: 0.5 }));
        assert!(ok.args().brownout);
        // --brownout is a bare switch: a trailing word is a flag error.
        assert!(parse("--brownout yes").unwrap_err().contains("unknown flag"));

        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--mttr-factor 0.1").unwrap_err().contains("unknown flag"));
        assert!(parse("--seed").unwrap_err().contains("needs a value"));
        assert!(parse("--routing chaotic").unwrap_err().contains("unknown routing policy"));
        assert!(parse("--loads 0.5,oops").unwrap_err().contains("--loads"));
        for bad in ["0", "-1", "nan", "inf", "0.5,0"] {
            assert!(
                parse(&format!("--loads {bad}")).unwrap_err().contains("positive numbers"),
                "--loads {bad} must be rejected"
            );
        }
        assert!(parse("--faults 5").unwrap_err().contains("mtbf"));
        assert!(parse("--faults 0:1").unwrap_err().contains("positive"));
        assert!(parse("--replicas 0").unwrap_err().contains("positive"));
        assert!(parse("--batch 0").unwrap_err().contains("positive"));
    }

    #[test]
    fn engine_and_arrivals_flags_parse_with_step_poisson_defaults() {
        let d = parse("").expect("defaults");
        assert_eq!(d.fleet().engine, FleetEngine::StepGranular);
        assert_eq!(d.args().arrivals, Arrivals::Poisson);
        let ev = parse("--engine event --arrivals diurnal").expect("valid");
        assert_eq!(ev.fleet().engine, FleetEngine::EventDriven);
        assert_eq!(ev.args().arrivals, Arrivals::Diurnal);
        assert!(parse("--engine warp").unwrap_err().contains("unknown engine"));
        assert!(parse("--arrivals tidal").unwrap_err().contains("unknown arrival process"));
    }

    #[test]
    fn tenancy_flags_default_off_and_parse_gracefully() {
        let d = parse("").expect("defaults");
        assert_eq!(d.args().tenants, None, "tenancy stays off without a flag");
        assert!(d.args().tenancy().is_none());
        // --scheduler alone implies a single tenant, the pinned replay
        // configuration.
        let one = parse("--scheduler drr").expect("valid");
        assert_eq!(one.args().tenants, Some(1));
        assert_eq!(
            one.args().tenancy(),
            Some(TenancyConfig::equal_weight(1, SchedulerPolicy::Drr))
        );
        let many = parse("--tenants 4 --scheduler wfq").expect("valid");
        assert_eq!(
            many.args().tenancy(),
            Some(TenancyConfig::equal_weight(4, SchedulerPolicy::Wfq))
        );
        assert!(parse("--tenants 0").unwrap_err().contains("positive"));
        assert!(parse("--tenants many").unwrap_err().contains("--tenants"));
        assert!(parse("--scheduler chaos").unwrap_err().contains("unknown scheduler"));
    }

    #[test]
    fn multi_tenant_requests_are_striped_round_robin() {
        let h = parse("--tenants 3 --requests 30").expect("valid");
        let spec = mini_workload(SystemConfig::paper()).spec;
        let reqs = point_requests(h.args(), &spec, 50.0, 7);
        assert!(reqs.iter().all(|r| r.tenant == (r.id % 3) as u32));
        // Single-tenant parses leave the trace untouched (tenant 0 is
        // the default id), so the golden replay sees identical inputs.
        let one = parse("--scheduler drr --requests 30").expect("valid");
        let off = parse("--requests 30").expect("valid");
        assert_eq!(
            point_requests(one.args(), &spec, 50.0, 7),
            point_requests(off.args(), &spec, 50.0, 7)
        );
    }

    #[test]
    fn diurnal_points_are_sorted_deterministic_and_distinct_from_poisson() {
        let mut args = Args { arrivals: Arrivals::Diurnal, requests: 100, ..Args::default() };
        let spec = mini_workload(SystemConfig::paper()).spec;
        let a = point_requests(&args, &spec, 50.0, 7);
        let b = point_requests(&args, &spec, 50.0, 7);
        assert_eq!(a, b, "diurnal traces are seeded");
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        args.arrivals = Arrivals::Poisson;
        let p = point_requests(&args, &spec, 50.0, 7);
        assert_ne!(a, p, "diurnal modulation changes the trace");
    }
}
