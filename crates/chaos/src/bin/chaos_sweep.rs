//! Randomized chaos sweep over the serving fleet: each seed expands to a
//! fault composition × feature draw ([`cta_chaos::ChaosScenario`]), runs
//! under one or both engines, and is checked against the full invariant
//! library. Any failing seed is delta-debugged down to a minimal
//! replayable repro before the process exits non-zero.
//!
//! ```text
//! chaos_sweep [--seeds 64] [--seed0 1] [--engine step|event|both]
//!             [--replicas-max 4] [--zones 3] [--requests-max 96]
//!             [--chaos-faults crash,zone,partition,gray,slow,stall]
//!             [--gray-severity S]
//!             [--chaos-tenancy on|off|mix] [--chaos-brownout on|off|mix]
//!             [--detector on|off|mix] [--chaos-sessions on|off|mix]
//!             [--repro-out <path.json>]
//!             [--inject-bug] [--replay <repro.json>] [--trace <path.json>]
//!             [--jobs N] [--pool-trace <path.json>]
//! ```
//!
//! **Outputs.** `results/chaos_sweep.{csv,json}` are deterministic for a
//! fixed flag set at any `--jobs` value, and the CSV carries no
//! engine-dependent column — CI diffs the `--engine step` and
//! `--engine event` runs byte-for-byte. On an invariant violation the
//! minimized scenario is written to `--repro-out` (replay it with
//! `--replay`). Wall-clock seeds/second is measured by the repository
//! benchmark (`perfbench`'s `chaos` workload), not here.
//!
//! `--inject-bug` is the self-test of the net: every run's report is
//! corrupted post-hoc ([`cta_chaos::Mutation::DropShed`]) and the sweep
//! *fails* unless the invariant library catches the corruption on some
//! seed and the shrinker reduces that seed to ≤ 5 fault events.

use std::process::ExitCode;
use std::sync::Mutex;

use cta_bench::{FlagParser, JsonValue, SCHEMA_VERSION};
use cta_chaos::{
    run_chaos, shrink, ChaosParams, ChaosScenario, EngineChoice, Mutation, Toggle, Violation,
};
use cta_serve::harness::{
    FleetFlag, FleetFlags, FleetPoint, Harness, PointOutput, SweepArgs, SweepSpec,
};
use cta_serve::FleetEngine;

/// Usage text printed to stderr on any malformed invocation.
const USAGE: &str = "usage: chaos_sweep [--seeds 64] [--seed0 1] [--engine step|event|both]
                   [--replicas-max 4] [--zones 3] [--requests-max 96]
                   [--chaos-faults crash,zone,partition,gray,slow,stall]
                   [--gray-severity S] [--chaos-tenancy on|off|mix]
                   [--chaos-brownout on|off|mix]
                   [--detector on|off|mix] [--chaos-sessions on|off|mix]
                   [--repro-out <path.json>]
                   [--inject-bug] [--replay <repro.json>] [--trace <path.json>]
                   [--jobs N] [--pool-trace <path.json>]";

/// CSV/stdout column layout. Engine-independent by construction (CI
/// byte-compares step vs event CSVs); the harness appends
/// `schema_version`.
const SWEEP_COLUMNS: &str = "seed,replicas,tenants,brownout,detector,sessions,plan_events,\
     offered,completed,shed,quarantines,false_quarantines,det_latency_ms,min_availability,\
     violations";

#[derive(Debug)]
struct Args {
    seeds: usize,
    seed0: u64,
    engine: EngineChoice,
    params: ChaosParams,
    inject: bool,
    replay: Option<String>,
    repro_out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seeds: 64,
            seed0: 1,
            engine: EngineChoice::Both,
            params: ChaosParams::default(),
            inject: false,
            replay: None,
            repro_out: "results/chaos_repro.json".into(),
        }
    }
}

/// Enables exactly the fault classes in `list` (the other knobs of
/// `params` stay as they are).
fn parse_faults(params: &mut ChaosParams, list: &str) -> Result<(), String> {
    let p = params;
    (p.crashes, p.zone_outages, p.partitions, p.gray, p.slowdowns, p.link_stalls) =
        (false, false, false, false, false, false);
    for word in list.split(',') {
        match word.trim() {
            "crash" => p.crashes = true,
            "zone" => p.zone_outages = true,
            "partition" => p.partitions = true,
            "gray" => p.gray = true,
            "slow" => p.slowdowns = true,
            "stall" => p.link_stalls = true,
            other => {
                return Err(format!(
                    "unknown fault class {other:?} (crash|zone|partition|gray|slow|stall)"
                ))
            }
        }
    }
    Ok(())
}

/// Parses an `on|off|mix` mode for `what`.
fn toggle(it: &mut FlagParser, flag: &str, what: &str) -> Result<Toggle, String> {
    let v = it.value(flag)?;
    Toggle::parse(&v).ok_or_else(|| format!("unknown {what} mode {v:?} (on|off|mix)"))
}

impl SweepArgs for Args {
    fn flag(&mut self, flag: &str, it: &mut FlagParser) -> Result<bool, String> {
        let p = &mut self.params;
        match flag {
            "--seeds" => self.seeds = it.num(flag, "an integer")?,
            "--seed0" => self.seed0 = it.num(flag, "an integer")?,
            "--engine" => {
                let v = it.value(flag)?;
                self.engine = EngineChoice::parse(&v)
                    .ok_or_else(|| format!("unknown engine {v:?} (step|event|both)"))?;
            }
            "--replicas-max" => p.replicas_max = it.num(flag, "an integer")?,
            "--zones" => p.zones_max = it.num(flag, "an integer")?,
            "--requests-max" => p.requests_max = it.num(flag, "an integer")?,
            "--chaos-faults" => parse_faults(p, &it.value(flag)?)?,
            "--chaos-tenancy" => p.tenancy = toggle(it, flag, "tenancy")?,
            "--chaos-brownout" => p.brownout = toggle(it, flag, "brownout")?,
            "--gray-severity" => p.gray_severity = Some(it.num(flag, "a number")?),
            "--detector" => p.detector = toggle(it, flag, "detector")?,
            "--chaos-sessions" => p.sessions = toggle(it, flag, "sessions")?,
            "--repro-out" => self.repro_out = it.value(flag)?,
            "--inject-bug" => self.inject = true,
            "--replay" => self.replay = Some(it.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if self.seeds == 0 {
            return Err("--seeds must be positive".into());
        }
        self.params.validate()
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main() -> ExitCode {
    SweepSpec::new("chaos_sweep")
        .usage(USAGE)
        .columns(SWEEP_COLUMNS)
        .fleet(&[FleetFlag::Trace], FleetFlags::default())
        .main(std::env::args().skip(1), run)
}

/// Loads, reruns and re-checks a repro file under both engines. Exits
/// non-zero when the scenario still violates an invariant — so a repro
/// replay that *passes* after a fix is the fix's regression test.
fn replay(path: &str, mutation: Mutation) {
    let sc = load_repro(path).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "replaying seed {} — {} replicas, {} requests, {} fault events{}",
        sc.seed,
        sc.replicas,
        sc.requests,
        sc.plan_events(),
        if mutation == Mutation::DropShed { " (with injected bug)" } else { "" }
    );
    let outcome = run_chaos(&sc, EngineChoice::Both, mutation);
    if outcome.ok() {
        println!("replay passed: every invariant holds");
    } else {
        for v in &outcome.violations {
            eprintln!("violation — {v}");
        }
        std::process::exit(1);
    }
}

/// Reads a repro file: the bare scenario, or the envelope this binary
/// writes (`{"scenario": ..., "violations": ...}`).
fn load_repro(path: &str) -> Result<ChaosScenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = cta_bench::parse_json(&text)?;
    let scenario = match &value {
        JsonValue::Obj(pairs) => {
            pairs.iter().find(|(k, _)| k == "scenario").map_or(&value, |(_, v)| v)
        }
        _ => &value,
    };
    ChaosScenario::from_json(scenario)
}

/// Writes the minimized scenario (plus the violations it reproduces) as
/// a replayable JSON repro.
fn write_repro(path: &str, sc: &ChaosScenario, violations: &[Violation]) {
    let value = JsonValue::obj(vec![
        ("schema_version", JsonValue::Int(SCHEMA_VERSION as i64)),
        ("scenario", sc.to_json()),
        (
            "violations",
            JsonValue::Arr(
                violations
                    .iter()
                    .map(|v| {
                        JsonValue::obj(vec![
                            ("invariant", JsonValue::Str(v.kind.label().into())),
                            ("detail", JsonValue::Str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    }
    std::fs::write(path, value.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("[saved {path}]");
}

fn run(h: &Harness<Args>) -> Result<(), String> {
    let args = h.args();
    let mutation = if args.inject { Mutation::DropShed } else { Mutation::None };

    // --replay: a single-scenario rerun, no sweep. The repro file itself
    // records whether it was minimized under the injected bug — the
    // caller passes --inject-bug again to reproduce that mode.
    if let Some(path) = &args.replay {
        replay(path, mutation);
        return Ok(());
    }

    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| args.seed0 + i).collect();

    // Failing scenarios, collected out-of-band for the shrinker.
    let failures: Mutex<Vec<(u64, ChaosScenario, Vec<Violation>)>> = Mutex::new(Vec::new());

    h.run_grid(
        &format!(
            "Chaos sweep — {} seeds from {}, engine {}, faults on ≤{} replicas{}",
            args.seeds,
            args.seed0,
            args.engine.label(),
            args.params.replicas_max,
            if args.inject { " [INJECTED BUG]" } else { "" }
        ),
        &seeds,
        |&seed| {
            let sc = ChaosScenario::sample(seed, &args.params);
            let outcome = run_chaos(&sc, args.engine, mutation);
            if !outcome.ok() {
                failures.lock().expect("failures").push((
                    seed,
                    sc.clone(),
                    outcome.violations.clone(),
                ));
            }
            let m = &outcome.metrics;
            let det = m.detector.clone().unwrap_or_default();
            let min_avail = m.per_replica_availability.iter().copied().fold(1.0f64, f64::min);
            let mut out = PointOutput::new();
            out.row(vec![
                seed.to_string(),
                sc.replicas.to_string(),
                sc.tenants.to_string(),
                (sc.brownout as u8).to_string(),
                (sc.detector as u8).to_string(),
                (sc.sessions as u8).to_string(),
                sc.plan_events().to_string(),
                m.offered.to_string(),
                m.completed.to_string(),
                m.shed.to_string(),
                det.quarantines.to_string(),
                det.false_quarantines.to_string(),
                format!("{:.3}", det.mean_detection_latency_s * 1e3),
                format!("{min_avail:.4}"),
                outcome.violations.len().to_string(),
            ]);
            out.point(JsonValue::obj(vec![
                ("seed", JsonValue::Int(seed as i64)),
                ("replicas", JsonValue::Int(sc.replicas as i64)),
                ("tenants", JsonValue::Int(sc.tenants as i64)),
                ("brownout", JsonValue::Bool(sc.brownout)),
                ("detector", JsonValue::Bool(sc.detector)),
                ("sessions", JsonValue::Bool(sc.sessions)),
                ("plan_events", JsonValue::Int(sc.plan_events() as i64)),
                ("offered", JsonValue::Int(m.offered as i64)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("quarantines", JsonValue::Int(det.quarantines as i64)),
                ("false_quarantines", JsonValue::Int(det.false_quarantines as i64)),
                ("mean_detection_latency_s", JsonValue::Num(det.mean_detection_latency_s)),
                ("max_detection_latency_s", JsonValue::Num(det.max_detection_latency_s)),
                ("min_availability", JsonValue::Num(min_avail)),
                (
                    "violations",
                    JsonValue::Arr(
                        outcome.violations.iter().map(|v| JsonValue::Str(v.to_string())).collect(),
                    ),
                ),
            ]));
            Ok(out)
        },
        |json| {
            json.set("experiment", JsonValue::Str("chaos_sweep".into()))
                .set("engine", JsonValue::Str(args.engine.label().into()))
                .set("seeds", JsonValue::Int(args.seeds as i64))
                .set("seed0", JsonValue::Int(args.seed0 as i64))
                .set("replicas_max", JsonValue::Int(args.params.replicas_max as i64))
                .set("zones_max", JsonValue::Int(args.params.zones_max as i64))
                .set("requests_max", JsonValue::Int(args.params.requests_max as i64))
                .set("tenancy", JsonValue::Str(args.params.tenancy.label().into()))
                .set("brownout", JsonValue::Str(args.params.brownout.label().into()))
                .set("detector", JsonValue::Str(args.params.detector.label().into()))
                .set("sessions", JsonValue::Str(args.params.sessions.label().into()))
                .set("inject_bug", JsonValue::Bool(args.inject));
        },
    )?;

    let mut failing = failures.into_inner().expect("failures");
    failing.sort_unstable_by_key(|&(seed, _, _)| seed);

    if args.inject {
        // Self-test mode: the net MUST catch the corruption somewhere,
        // and the shrinker must reduce the catch to a tiny repro.
        let Some((seed, sc, violations)) = failing.into_iter().next() else {
            eprintln!(
                "self-test FAILED: injected conservation bug escaped all {} seeds",
                args.seeds
            );
            std::process::exit(1);
        };
        let min = shrink(&sc, |cand| !run_chaos(cand, args.engine, mutation).ok());
        let min_violations = run_chaos(&min, args.engine, mutation).violations;
        write_repro(&args.repro_out, &min, &min_violations);
        println!(
            "self-test OK: seed {seed} caught the injected bug ({}); shrunk {} -> {} fault \
             events, {} -> {} requests",
            violations[0],
            sc.plan_events(),
            min.plan_events(),
            sc.requests,
            min.requests
        );
        if min.plan_events() > 5 {
            eprintln!(
                "self-test FAILED: minimized repro still holds {} fault events (> 5)",
                min.plan_events()
            );
            std::process::exit(1);
        }
        return Ok(());
    }

    if let Some((seed, sc, violations)) = failing.first().cloned() {
        eprintln!(
            "{} of {} seeds violated invariants; first: seed {seed}",
            failing.len(),
            args.seeds
        );
        for v in &violations {
            eprintln!("violation — {v}");
        }
        let min = shrink(&sc, |cand| !run_chaos(cand, args.engine, Mutation::None).ok());
        let min_violations = run_chaos(&min, args.engine, Mutation::None).violations;
        write_repro(&args.repro_out, &min, &min_violations);
        eprintln!(
            "minimized to {} fault events / {} requests / {} replicas — replay with \
             `chaos_sweep --replay {}`",
            min.plan_events(),
            min.requests,
            min.replicas,
            args.repro_out
        );
        std::process::exit(1);
    }

    println!("all {} seeds passed every invariant", args.seeds);

    // --trace: rerun the last seed's scenario traced (step engine; trace
    // bytes are engine-independent anyway).
    h.trace_last(
        &seeds,
        &|&seed| {
            let sc = ChaosScenario::sample(seed, &args.params);
            Ok(FleetPoint {
                config: sc.fleet_config(FleetEngine::StepGranular),
                requests: sc.trace(),
            })
        },
        &|&seed, _| format!("Chaos trace — seed {seed}"),
        None,
    )
}
