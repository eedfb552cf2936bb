//! Multi-tenant isolation sweep: goodput, tail latency and Jain
//! fairness versus tenant skew × scheduler policy × scale-out policy.
//!
//! This is the headline experiment for the `cta-tenancy` subsystem. A
//! Zipf tenant mix ([`cta_workloads::TenantMix`]) stamps a seeded
//! Poisson trace so a few hot tenants offer most of the traffic, every
//! request carries a deadline a few multiples of the solo service time,
//! and the fleet is driven past saturation (`--load` > 1). FIFO then
//! serves tenants in proportion to what they *offer* — the hot tenants
//! flood the shared queue and cold tenants starve behind them — while
//! DRR/WFQ serve tenants in proportion to their *weights*, so equal
//! weights mean equal goodput regardless of skew. Jain's fairness index
//! over per-tenant goodput turns that into one number per point: the
//! acceptance bar for the subsystem is DRR ≥ 0.95 where FIFO < 0.7 at
//! 16:1 skew (`crates/serve/tests/tenancy.rs` pins it; this sweep shows
//! the same separation as data).
//!
//! ```text
//! tenant_sweep [--tenants 16] [--skew 0,1] [--scheduler fifo,drr,wfq]
//!              [--autoscale none,reactive] [--replicas 2] [--load 6.0]
//!              [--requests 1200] [--seed 7] [--quota <rps>:<burst>]
//!              [--deadline-factor 40] [--batch 2] [--queue-depth 2]
//!              [--engine step|event] [--trace <path.json>]
//!              [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! The grid is `skew × scheduler × autoscale`. Backpressure is `hold`
//! throughout — full replica queues exert backpressure into the fair
//! queue instead of shedding, which is what makes the scheduler's
//! drain order decide who gets served. `--quota rps:burst` arms the
//! per-tenant token bucket (off by default) and `--autoscale reactive`
//! runs each point on the deterministic autoscaler (min = half the
//! fleet), so its `scale_ups`/`final_active` columns show the fleet
//! breathing with the offered load.
//!
//! **Outputs.** The stdout table and `results/tenant_sweep.{csv,json}`
//! are deterministic for a fixed `--seed` at any `--jobs` value and
//! identical across both engines (CI diffs step vs event). Wall-clock
//! speed of the fleet handlers is measured by the repository benchmark
//! (`perfbench`), not here.
//! With `--trace <path>` the final point is re-run traced; held
//! arrivals land on the tenancy telemetry lane
//! ([`cta_telemetry::Module::Tenancy`]) as per-tenant backlog tracks.
//!
//! CI runs the smoke configuration of this sweep and checks the
//! DRR/FIFO fairness separation on the emitted CSV; see
//! `.github/workflows/ci.yml`.

use std::process::ExitCode;

use cta_bench::{FlagParser, JsonValue};
use cta_sim::SystemConfig;
use cta_workloads::TenantMix;

use crate::harness::{
    mini_workload, offered_rate, ExtractFn, FleetFlag, FleetFlags, FleetPoint, FleetSweep, Harness,
    PointFn, SweepArgs, SweepSpec,
};
use crate::{
    poisson_requests, AutoscalePolicy, Backpressure, LoadSpec, QosClass, QuotaPolicy,
    SchedulerPolicy, ServeRequest, TenancyConfig,
};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: tenant_sweep [--tenants 16] [--skew 0,1] [--scheduler fifo,drr,wfq]
                    [--autoscale none,reactive] [--replicas 2] [--load 6.0]
                    [--requests 1200] [--seed 7] [--quota <rps>:<burst>]
                    [--deadline-factor 40] [--batch 2] [--queue-depth 2]
                    [--engine step|event] [--trace <path.json>]
                    [--jobs N] [--pool-trace <path.json>]";

/// The sweep's declaration: CSV/stdout columns (the harness appends
/// `schema_version`) and the shared fleet flags it takes. Routing is
/// fixed to JSQ.
pub(crate) fn spec() -> SweepSpec {
    use FleetFlag::*;
    SweepSpec::new("tenant_sweep")
        .usage(USAGE)
        .columns(
            "skew,scheduler,autoscale,offered_rps,completed,shed,quota_shed,\
             goodput_rps,p99_ms,fairness,max_slowdown,scale_ups,final_active",
        )
        .fleet(
            &[Seed, Batch, QueueDepth, Engine, Trace],
            FleetFlags { batch: 2, queue_depth: 2, ..FleetFlags::default() },
        )
}

/// Scale-out policies the `--autoscale` axis can enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalePolicy {
    /// Fixed fleet: every replica enabled for the whole run.
    None,
    /// [`AutoscalePolicy::reactive`] between half the fleet and the
    /// full fleet, warmup a few solo service times.
    Reactive,
}

impl ScalePolicy {
    fn label(&self) -> &'static str {
        match self {
            ScalePolicy::None => "none",
            ScalePolicy::Reactive => "reactive",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ScalePolicy::None),
            "reactive" => Some(ScalePolicy::Reactive),
            _ => None,
        }
    }
}

/// Parses a comma-separated list of `what` labels, naming the valid
/// `options` in the error.
fn parse_labels<T>(
    list: &str,
    what: &str,
    options: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let label = |w: &str| {
        parse(w.trim()).ok_or_else(|| format!("unknown {what} {:?} ({options})", w.trim()))
    };
    list.split(',').map(label).collect()
}

#[derive(Debug)]
struct Args {
    tenants: u32,
    skews: Vec<f64>,
    schedulers: Vec<SchedulerPolicy>,
    autoscale: Vec<ScalePolicy>,
    replicas: usize,
    load: f64,
    requests: usize,
    quota: Option<QuotaPolicy>,
    deadline_factor: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            tenants: 16,
            skews: vec![0.0, 1.0],
            schedulers: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Drr, SchedulerPolicy::Wfq],
            autoscale: vec![ScalePolicy::None],
            replicas: 2,
            load: 6.0,
            requests: 1200,
            quota: None,
            deadline_factor: 40.0,
        }
    }
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        match flag {
            "--tenants" => self.tenants = it.num(flag, "an integer")?,
            "--skew" => self.skews = it.list(flag, "numbers")?,
            "--scheduler" => {
                let v = it.value(flag)?;
                self.schedulers =
                    parse_labels(&v, "scheduler", "fifo|drr|wfq", SchedulerPolicy::parse)?;
            }
            "--autoscale" => {
                let v = it.value(flag)?;
                self.autoscale =
                    parse_labels(&v, "autoscale policy", "none|reactive", ScalePolicy::parse)?;
            }
            "--replicas" => self.replicas = it.num(flag, "an integer")?,
            "--load" => self.load = it.num(flag, "a number")?,
            "--requests" => self.requests = it.num(flag, "an integer")?,
            "--quota" => {
                let v = it.value(flag)?;
                let (rate, burst) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--quota wants <rps>:<burst>, got {v:?}"))?;
                let rate: f64 = cta_bench::parse_num(rate, flag, "a number for rps")?;
                let burst: f64 = cta_bench::parse_num(burst, flag, "a number for burst")?;
                if !(rate > 0.0 && rate.is_finite() && burst > 0.0 && burst.is_finite()) {
                    return Err("--quota rps and burst must be positive and finite".into());
                }
                self.quota = Some(QuotaPolicy::new(rate, burst));
            }
            "--deadline-factor" => self.deadline_factor = it.num(flag, "a number")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("--tenants must be positive".into());
        }
        if self.skews.is_empty() || self.skews.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err("--skew must be a non-empty list of non-negative numbers".into());
        }
        if self.schedulers.is_empty() {
            return Err("--scheduler must name at least one policy".into());
        }
        if self.autoscale.is_empty() {
            return Err("--autoscale must name at least one policy".into());
        }
        if self.replicas == 0 || self.requests == 0 {
            return Err("--replicas and --requests must be positive".into());
        }
        if !(self.load > 0.0 && self.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        if !(self.deadline_factor > 0.0 && self.deadline_factor.is_finite()) {
            return Err("--deadline-factor must be positive and finite".into());
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

/// One grid point: skew × scheduler × scale-out policy.
type Point = (f64, SchedulerPolicy, ScalePolicy);

/// The Poisson trace for one point at `rate`, Zipf-stamped with tenant
/// ids and deadlined at `deadline_factor` solo service times. Priority
/// 100 deliberately sits below the admission depth-exemption threshold —
/// every tenant faces the same queue-depth and deadline policy, so the
/// scheduler alone decides who is served.
fn point_requests(
    args: &Args,
    spec: &LoadSpec,
    skew: f64,
    (solo, rate): (f64, f64),
    seed: u64,
) -> Vec<ServeRequest> {
    const TENANT_SLO: &str = "tenant-slo";
    let class =
        QosClass { name: TENANT_SLO, priority: 100, deadline_s: Some(args.deadline_factor * solo) };
    let owners = TenantMix::new(args.tenants, skew).assign(args.requests, seed);
    let spec = LoadSpec { class, ..*spec };
    poisson_requests(&spec, args.requests, rate, seed)
        .into_iter()
        .zip(owners)
        .map(|(r, tenant)| r.with_tenant(tenant))
        .collect()
}

fn run(h: &Harness<Args>) -> Result<(), String> {
    let (args, fleet) = (h.args(), h.fleet());
    let w = mini_workload(SystemConfig::paper());
    let rate = offered_rate(args.load, args.replicas, w.solo_s)?;

    let grid: Vec<Point> = (args.skews.iter())
        .flat_map(|&skew| args.schedulers.iter().map(move |&scheduler| (skew, scheduler)))
        .flat_map(|(skew, sched)| args.autoscale.iter().map(move |&scale| (skew, sched, scale)))
        .collect();

    let point: &PointFn<Point> = &|&(skew, scheduler, scale)| {
        let requests = point_requests(args, &w.spec, skew, (w.solo_s, rate), fleet.seed);
        let mut config = fleet.config(SystemConfig::paper(), args.replicas);
        let mut tenancy = TenancyConfig::equal_weight(args.tenants, scheduler);
        tenancy.backpressure = Backpressure::Hold;
        tenancy.quota = args.quota;
        if scale == ScalePolicy::Reactive {
            let min = (args.replicas / 2).max(1);
            tenancy.autoscale = Some(AutoscalePolicy::reactive(min, args.replicas, 8.0 * w.solo_s));
        }
        config.tenancy = Some(tenancy);
        Ok(FleetPoint { config, requests })
    };
    let extract: &ExtractFn<Point> = &|&(skew, scheduler, scale), _, report, out| {
        let m = &report.metrics;
        assert_eq!(m.completed + m.shed, args.requests, "accounting identity");
        let t = m.tenancy.as_ref().expect("tenancy stats reported");
        let p99 = m.latency.as_ref().map_or(f64::NAN, |l| l.p99_s);
        out.row(vec![
            format!("{skew:.2}"),
            scheduler.label().to_string(),
            scale.label().to_string(),
            format!("{rate:.1}"),
            m.completed.to_string(),
            m.shed.to_string(),
            t.quota_shed.to_string(),
            format!("{:.1}", m.goodput_rps),
            format!("{:.3}", p99 * 1e3),
            format!("{:.3}", t.fairness_index),
            format!("{:.2}", t.max_slowdown),
            t.scale_ups.to_string(),
            t.final_active.to_string(),
        ]);
        out.point(JsonValue::obj(vec![
            ("skew", JsonValue::Num(skew)),
            ("scheduler", JsonValue::Str(scheduler.label().into())),
            ("autoscale", JsonValue::Str(scale.label().into())),
            ("offered_rps", JsonValue::Num(rate)),
            ("completed", JsonValue::Int(m.completed as i64)),
            ("shed", JsonValue::Int(m.shed as i64)),
            ("quota_shed", JsonValue::Int(t.quota_shed as i64)),
            ("goodput_rps", JsonValue::Num(m.goodput_rps)),
            ("p99_s", JsonValue::Num(p99)),
            ("fairness_index", JsonValue::Num(t.fairness_index)),
            ("max_slowdown", JsonValue::Num(t.max_slowdown)),
            ("scale_ups", JsonValue::Int(t.scale_ups as i64)),
            ("scale_downs", JsonValue::Int(t.scale_downs as i64)),
            ("final_active", JsonValue::Int(t.final_active as i64)),
            ("events", JsonValue::Int(report.events_processed as i64)),
        ]));
    };

    h.run_fleet(
        &format!(
            "Tenant sweep — {} tenants, {} replicas @ load {:.2}, engine {}, \
             solo service {:.3} ms",
            args.tenants,
            args.replicas,
            args.load,
            fleet.engine.label(),
            w.solo_s * 1e3
        ),
        &grid,
        FleetSweep {
            point,
            extract,
            // Held arrivals show up as per-tenant backlog counters on the
            // tenancy lane.
            trace_banner: &|&(skew, scheduler, scale), path| {
                format!(
                    "Trace — skew {skew:.2}, {} scheduler, autoscale {} → {path}",
                    scheduler.label(),
                    scale.label()
                )
            },
            trace: None,
        },
        |json| {
            json.set("experiment", JsonValue::Str("tenant_sweep".into()))
                .set("case", JsonValue::Str(w.case.name()))
                .set("engine", JsonValue::Str(fleet.engine.label().into()))
                .set("tenants", JsonValue::Int(args.tenants as i64))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set("load", JsonValue::Num(args.load))
                .set("solo_service_s", JsonValue::Num(w.solo_s))
                .set("requests", JsonValue::Int(args.requests as i64))
                .set("deadline_factor", JsonValue::Num(args.deadline_factor))
                .set("backpressure", JsonValue::Str(Backpressure::Hold.label().into()))
                .set(
                    "quota",
                    match &args.quota {
                        Some(q) => JsonValue::obj(vec![
                            ("rate_rps", JsonValue::Num(q.rate_rps)),
                            ("burst", JsonValue::Num(q.burst)),
                        ]),
                        None => JsonValue::Null,
                    },
                )
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
        let d = ok.args();
        assert_eq!(d.tenants, 16);
        assert_eq!(d.skews, vec![0.0, 1.0]);
        assert_eq!(
            d.schedulers,
            vec![SchedulerPolicy::Fifo, SchedulerPolicy::Drr, SchedulerPolicy::Wfq]
        );
        assert_eq!(d.autoscale, vec![ScalePolicy::None]);
        assert!(d.quota.is_none());
        assert_eq!((ok.fleet().batch, ok.fleet().queue_depth), (2, 2));
        let full = parse("--tenants 8 --skew 0,0.5,1.5 --scheduler drr,wfq --autoscale none,reactive --quota 100:4")
        .expect("valid");
        assert_eq!(full.args().tenants, 8);
        assert_eq!(full.args().autoscale, vec![ScalePolicy::None, ScalePolicy::Reactive]);
        assert_eq!(full.args().quota, Some(QuotaPolicy::new(100.0, 4.0)));

        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--routing rr").unwrap_err().contains("unknown flag"));
        assert!(parse("--tenants 0").unwrap_err().contains("positive"));
        assert!(parse("--tenants many").unwrap_err().contains("--tenants"));
        assert!(parse("--skew -1").unwrap_err().contains("non-negative"));
        assert!(parse("--skew 0,oops").unwrap_err().contains("--skew"));
        assert!(parse("--scheduler chaos").unwrap_err().contains("unknown scheduler"));
        assert!(parse("--autoscale wild").unwrap_err().contains("unknown autoscale"));
        assert!(parse("--quota 100").unwrap_err().contains("<rps>:<burst>"));
        assert!(parse("--quota 0:4").unwrap_err().contains("positive"));
        assert!(parse("--load -2").unwrap_err().contains("positive"));
        assert!(parse("--deadline-factor 0").unwrap_err().contains("positive"));
        assert!(parse("--engine warp").unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn point_requests_are_zipf_stamped_and_deadlined() {
        let h = parse("--tenants 4 --skew 1 --requests 200").expect("valid");
        let args = h.args();
        let spec = mini_workload(SystemConfig::paper()).spec;
        let solo = 0.01;
        let a = point_requests(args, &spec, 1.0, (solo, 1_200.0), 7);
        assert_eq!(a, point_requests(args, &spec, 1.0, (solo, 1_200.0), 7), "seeded");
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|r| r.tenant < 4));
        assert!(a.iter().all(|r| r.class.deadline_s == Some(args.deadline_factor * solo)));
        assert!(
            a.iter().all(|r| r.class.priority == 100),
            "below the depth-exemption threshold: no tenant bypasses admission"
        );
        // Zipf skew 1 over 4 tenants: tenant 0 is hottest.
        let hot = a.iter().filter(|r| r.tenant == 0).count();
        let cold = a.iter().filter(|r| r.tenant == 3).count();
        assert!(hot > 2 * cold, "skew shows in the stamp ({hot} vs {cold})");
    }
}
