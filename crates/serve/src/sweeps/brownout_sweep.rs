//! Closed-loop overload-control sweep: goodput, tail latency, shedding
//! and quality loss across an offered-load × failure-rate grid, with and
//! without the controller.
//!
//! Every grid point is simulated twice on the *same* seeded arrival trace
//! and fault schedule: once with [`crate::OverloadControl::off`] (the
//! plain fleet) and once under the selected control mode, so each table
//! row pair isolates exactly what the controller bought — and what it
//! cost in pre-measured proxy accuracy (the `loss_pct` column). Requests
//! carry an interactive deadline (a multiple of the solo service time),
//! so goodput counts only deadline-met completions.
//!
//! ```text
//! brownout_sweep [--replicas 3] [--loads 0.8,1.3,1.8] [--requests 250]
//!                [--seed 7] [--mtbf-factors inf,0.5] [--mttr-factor 0.05]
//!                [--deadline-factor 25] [--link-gbs 96] [--routing jsq]
//!                [--batch 4] [--queue-depth 64]
//!                [--control brownout|breaker|hedge|full] [--engine step|event]
//!                [--trace <path.json>] [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! The default control mode is `brownout` (the ladder alone). `full` adds
//! the circuit breaker and hedged dispatch; note that hedging duplicates
//! work, which protects the tail against stragglers and fault windows but
//! *amplifies* sustained saturation — expect `full` to lose to `brownout`
//! at offered loads past capacity. That trade-off is the point of
//! sweeping the modes separately.
//!
//! Brownout trades *compute* for quality: a smaller (k₀, k₁, k₂) budget
//! shortens the PE-cluster critical path but moves the same activations
//! over the host link. At the paper's 12 GB/s link every evaluated shape
//! is transfer-bound (`elapsed = max(critical, transfer)` with overlap),
//! so degrading would cost accuracy and buy nothing. This sweep therefore
//! defaults to a 96 GB/s link — a compute-bound serving point where the
//! ladder has leverage — and exposes `--link-gbs` so the transfer-bound
//! regime remains one flag away (expect the off/on pairs to coincide
//! there).
//!
//! MTBF factors follow the `degradation_sweep` convention (mean time
//! between failures as a multiple of the trace span); `inf` disables
//! faults for that grid row. `--control` picks which mechanisms the "on"
//! run enables (`full` enables all three). The disabled
//! half of every pair goes through the same code path the golden-pinned
//! sweeps use, so the baseline numbers are bitwise reproducible run to
//! run. Output follows the `cta-bench` conventions: an aligned stdout
//! table plus `results/brownout_sweep.csv` and
//! `results/brownout_sweep.json`. With `--trace <path>` the harness
//! re-runs the harshest controlled point with the telemetry ring buffer
//! attached; the brownout/breaker/hedge lanes land next to the usual
//! replica tracks. Malformed flags print a usage message to stderr and
//! exit non-zero.

use std::process::ExitCode;

use cta_bench::{FlagParser, JsonValue};
use cta_sim::SystemConfig;

use crate::harness::{
    mini_workload, offered_rate, ExtractFn, FleetFlag, FleetFlags, FleetPoint, FleetSweep, Harness,
    PointFn, PointOutput, SweepArgs, SweepSpec,
};
use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, BreakerPolicy, FleetConfig,
    FleetEngine, FleetReport, HedgePolicy, LoadSpec, OverloadControl, QosClass,
};

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: brownout_sweep [--replicas 3] [--loads 0.8,1.3,1.8] [--requests 250]
                      [--seed 7] [--mtbf-factors inf,0.5] [--mttr-factor 0.05]
                      [--deadline-factor 25] [--link-gbs 96]
                      [--routing rr|jsq|low] [--batch 4] [--queue-depth 64]
                      [--control brownout|breaker|hedge|full] [--engine step|event]
                      [--trace <path.json>] [--jobs N] [--pool-trace <path.json>]";

/// The sweep's declaration: CSV/stdout columns (the harness appends
/// `schema_version`) and the shared fleet flags it takes.
pub(crate) fn spec() -> SweepSpec {
    use FleetFlag::*;
    SweepSpec::new("brownout_sweep")
        .usage(USAGE)
        .columns(
            "load,mtbf_factor,control,completed,shed,goodput_rps,p50_ms,p99_ms,\
             loss_pct,brownout_s,transitions,hedged,breaker_opens",
        )
        .fleet(
            &[Seed, MttrFactor, Routing, Batch, QueueDepth, Trace, Engine],
            FleetFlags::default(),
        )
}

/// Which mechanisms the controlled half of each pair enables.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ControlMode {
    Brownout,
    Breaker,
    Hedge,
    Full,
}

impl ControlMode {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "brownout" => Ok(ControlMode::Brownout),
            "breaker" => Ok(ControlMode::Breaker),
            "hedge" => Ok(ControlMode::Hedge),
            "full" => Ok(ControlMode::Full),
            _ => Err(format!("unknown control mode {s:?} (brownout|breaker|hedge|full)")),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ControlMode::Brownout => "brownout",
            ControlMode::Breaker => "breaker",
            ControlMode::Hedge => "hedge",
            ControlMode::Full => "full",
        }
    }

    fn overload(&self) -> OverloadControl {
        let all = OverloadControl::standard();
        match self {
            ControlMode::Brownout => {
                OverloadControl { brownout: all.brownout, ..OverloadControl::off() }
            }
            ControlMode::Breaker => OverloadControl {
                breaker: Some(BreakerPolicy::standard()),
                ..OverloadControl::off()
            },
            ControlMode::Hedge => {
                OverloadControl { hedge: Some(HedgePolicy::standard()), ..OverloadControl::off() }
            }
            ControlMode::Full => all,
        }
    }
}

#[derive(Debug)]
struct Args {
    replicas: usize,
    loads: Vec<f64>,
    requests: usize,
    mtbf_factors: Vec<f64>,
    deadline_factor: f64,
    link_gbs: f64,
    control: ControlMode,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            replicas: 3,
            loads: vec![0.8, 1.3, 1.8],
            requests: 250,
            mtbf_factors: vec![f64::INFINITY, 0.5],
            deadline_factor: 25.0,
            link_gbs: 96.0,
            control: ControlMode::Brownout,
        }
    }
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        match flag {
            "--replicas" => self.replicas = it.num(flag, "an integer")?,
            "--loads" => self.loads = it.list(flag, "numbers")?,
            "--requests" => self.requests = it.num(flag, "an integer")?,
            "--mtbf-factors" => self.mtbf_factors = it.list(flag, "numbers")?,
            "--deadline-factor" => self.deadline_factor = it.num(flag, "a number")?,
            "--link-gbs" => self.link_gbs = it.num(flag, "a number")?,
            "--control" => self.control = ControlMode::parse(&it.value(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 || self.requests == 0 {
            return Err("--replicas and --requests must be positive".into());
        }
        if self.loads.is_empty() || self.loads.iter().any(|l| !(*l > 0.0 && l.is_finite())) {
            return Err("--loads must be a non-empty list of positive numbers".into());
        }
        // `inf` is a legal factor here (= that row runs fault-free), NaN
        // and non-positive values are not.
        if self.mtbf_factors.is_empty() || self.mtbf_factors.iter().any(|f| f.is_nan() || *f <= 0.0)
        {
            return Err(
                "--mtbf-factors must be a non-empty list of positive numbers (inf ok)".into()
            );
        }
        if !(self.deadline_factor > 0.0 && self.deadline_factor.is_finite()) {
            return Err("--deadline-factor must be positive and finite".into());
        }
        if !(self.link_gbs > 0.0 && self.link_gbs.is_finite()) {
            return Err("--link-gbs must be positive and finite".into());
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

/// One table row + JSON point from one run.
fn emit(out: &mut PointOutput, load: f64, factor: f64, control: &str, report: &FleetReport) {
    let m = &report.metrics;
    let ov = &m.overload;
    let (p50, p99) = m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
    let brownout_s: f64 = ov.per_replica_brownout_s.iter().sum();
    out.row(vec![
        format!("{load:.2}"),
        format!("{factor:.2}"),
        control.to_string(),
        m.completed.to_string(),
        m.shed.to_string(),
        format!("{:.1}", m.goodput_rps),
        format!("{:.3}", p50 * 1e3),
        format!("{:.3}", p99 * 1e3),
        format!("{:.3}", ov.mean_accuracy_loss_pct),
        format!("{brownout_s:.4}"),
        ov.brownout_transitions.to_string(),
        ov.hedged.to_string(),
        ov.breaker_opens.to_string(),
    ]);
    out.point(JsonValue::obj(vec![
        ("load", JsonValue::Num(load)),
        ("mtbf_factor", JsonValue::Num(factor)),
        ("control", JsonValue::Str(control.into())),
        ("completed", JsonValue::Int(m.completed as i64)),
        ("shed", JsonValue::Int(m.shed as i64)),
        ("shed_rate", JsonValue::Num(m.shed_rate)),
        ("goodput_rps", JsonValue::Num(m.goodput_rps)),
        ("p50_s", JsonValue::Num(p50)),
        ("p99_s", JsonValue::Num(p99)),
        ("mean_accuracy_loss_pct", JsonValue::Num(ov.mean_accuracy_loss_pct)),
        ("max_accuracy_loss_pct", JsonValue::Num(ov.max_accuracy_loss_pct)),
        ("brownout_s", JsonValue::Num(brownout_s)),
        ("brownout_transitions", JsonValue::Int(ov.brownout_transitions as i64)),
        ("hedged", JsonValue::Int(ov.hedged as i64)),
        ("hedge_wins", JsonValue::Int(ov.hedge_wins as i64)),
        ("hedge_cancelled", JsonValue::Int(ov.hedge_cancelled as i64)),
        ("breaker_opens", JsonValue::Int(ov.breaker_opens as i64)),
        ("makespan_s", JsonValue::Num(m.makespan_s)),
    ]));
}

fn run(h: &Harness<Args>) -> Result<(), String> {
    let (args, fleet) = (h.args(), h.fleet());
    let sys_cfg = SystemConfig { host_link_gbs: args.link_gbs, ..SystemConfig::paper() };
    let w = mini_workload(sys_cfg);
    // Deadline-bearing traffic: goodput below counts only deadline-met
    // completions, which is what overload control is supposed to protect.
    let deadline_s = args.deadline_factor * w.solo_s;
    let spec = LoadSpec { class: QosClass::interactive(deadline_s), ..w.spec };

    let grid: Vec<(f64, f64)> = args
        .loads
        .iter()
        .flat_map(|&load| args.mtbf_factors.iter().map(move |&factor| (load, factor)))
        .collect();

    // Each point's disabled half: exactly the plain fleet (the
    // golden-pinned code path) on the point's trace and fault schedule.
    let point: &PointFn<(f64, f64)> = &|&(load, factor)| {
        let rate = offered_rate(load, args.replicas, w.solo_s)?;
        let requests = poisson_requests(&spec, args.requests, rate, fleet.seed);
        let mut config = fleet.config(sys_cfg, args.replicas);
        config.faults = fleet.faults(args.replicas, &requests, factor)?;
        Ok(FleetPoint { config, requests })
    };
    // The controlled half: the same fleet under the selected mode.
    let controlled =
        |fp: &FleetPoint| FleetConfig { overload: args.control.overload(), ..fp.config.clone() };
    let extract: &ExtractFn<(f64, f64)> = &|&(load, factor), fp, off, out| {
        assert_eq!(off.metrics.completed + off.metrics.shed, args.requests, "conservation");
        emit(out, load, factor, "off", off);
        let on = simulate_fleet(&controlled(fp), &fp.requests);
        assert_eq!(on.metrics.completed + on.metrics.shed, args.requests, "conservation");
        emit(out, load, factor, args.control.label(), &on);
    };

    h.run_fleet(
        &format!(
            "Brownout sweep — {} replicas, link {} GB/s, deadline {:.3} ms ({}× solo), control {}, routing {}",
            args.replicas,
            args.link_gbs,
            deadline_s * 1e3,
            args.deadline_factor,
            args.control.label(),
            fleet.routing.label()
        ),
        &grid,
        FleetSweep {
            point,
            extract,
            // The harshest controlled point, with the brownout/breaker/
            // hedge lanes in the trace and the overload-control section
            // in the aggregate report.
            trace_banner: &|&(load, _), path| {
                format!("Trace — load {load:.2}, control {} → {path}", args.control.label())
            },
            trace: Some(&|fp, sink| {
                simulate_fleet_traced(&controlled(fp), &fp.requests, sink);
            }),
        },
        |json| {
            json.set("experiment", JsonValue::Str("brownout_sweep".into()))
                .set("case", JsonValue::Str(w.case.name()))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set("link_gbs", JsonValue::Num(args.link_gbs))
                .set("solo_service_s", JsonValue::Num(w.solo_s))
                .set("deadline_s", JsonValue::Num(deadline_s))
                .set("deadline_factor", JsonValue::Num(args.deadline_factor))
                .set("mttr_factor", JsonValue::Num(fleet.mttr_factor))
                .set("control", JsonValue::Str(args.control.label().into()))
                .set("routing", JsonValue::Str(fleet.routing.label().into()))
                .set("batch", JsonValue::Int(fleet.batch as i64))
                .set("queue_depth", JsonValue::Int(fleet.queue_depth as i64))
                .set("requests_per_point", JsonValue::Int(args.requests as i64))
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

    fn parse(words: &str) -> Result<Harness<Args>, String> {
        spec().parse(words.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_accepts_defaults_and_rejects_malformed_flags() {
        let ok = parse("").expect("defaults valid");
        assert_eq!(ok.args().control, ControlMode::Brownout);
        assert!(
            ok.args().mtbf_factors[0].is_infinite(),
            "default grid includes the fault-free row"
        );
        let brown = parse("--control brownout").expect("valid mode");
        assert!(brown.args().control.overload().brownout.is_some());
        assert!(brown.args().control.overload().breaker.is_none());

        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--control").unwrap_err().contains("needs a value"));
        assert!(parse("--control chaos").unwrap_err().contains("unknown control mode"));
        assert!(parse("--loads 0").unwrap_err().contains("positive"));
        assert!(parse("--mtbf-factors nan").unwrap_err().contains("positive"));
        assert!(parse("--deadline-factor -3").unwrap_err().contains("positive"));
        assert!(parse("--link-gbs inf").unwrap_err().contains("positive and finite"));
        assert_eq!(ok.fleet().engine, FleetEngine::StepGranular);
        let event = parse("--engine event").expect("valid");
        assert_eq!(event.fleet().engine, FleetEngine::EventDriven);
        assert!(parse("--engine warp").unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn every_mode_enables_exactly_what_its_name_says() {
        let on = |m: ControlMode| {
            let o = m.overload();
            (o.brownout.is_some(), o.breaker.is_some(), o.hedge.is_some())
        };
        assert_eq!(on(ControlMode::Brownout), (true, false, false));
        assert_eq!(on(ControlMode::Breaker), (false, true, false));
        assert_eq!(on(ControlMode::Hedge), (false, false, true));
        assert_eq!(on(ControlMode::Full), (true, true, true));
    }
}
