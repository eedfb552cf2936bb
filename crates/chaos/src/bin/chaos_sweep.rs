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

use cta_bench::{parse_num, FlagParser, JsonValue, SCHEMA_VERSION};
use cta_chaos::{
    run_chaos, shrink, ChaosParams, ChaosScenario, EngineChoice, Mutation, Toggle, Violation,
};
use cta_serve::harness::{export_trace, Harness, PointOutput, SweepSpec};
use cta_serve::{simulate_fleet_traced, FleetEngine};

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
/// byte-compares step vs event CSVs); the trailing `schema_version`
/// repeats [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "seed",
    "replicas",
    "tenants",
    "brownout",
    "detector",
    "sessions",
    "plan_events",
    "offered",
    "completed",
    "shed",
    "quarantines",
    "false_quarantines",
    "det_latency_ms",
    "min_availability",
    "violations",
    "schema_version",
];

#[derive(Debug)]
struct Args {
    seeds: usize,
    seed0: u64,
    engine: EngineChoice,
    params: ChaosParams,
    inject: bool,
    replay: Option<String>,
    repro_out: String,
    trace: Option<String>,
}

fn parse_faults(list: &str) -> Result<ChaosParams, String> {
    let mut params = ChaosParams {
        crashes: false,
        zone_outages: false,
        partitions: false,
        gray: false,
        slowdowns: false,
        link_stalls: false,
        ..ChaosParams::default()
    };
    for word in list.split(',') {
        match word.trim() {
            "crash" => params.crashes = true,
            "zone" => params.zone_outages = true,
            "partition" => params.partitions = true,
            "gray" => params.gray = true,
            "slow" => params.slowdowns = true,
            "stall" => params.link_stalls = true,
            other => {
                return Err(format!(
                    "unknown fault class {other:?} (crash|zone|partition|gray|slow|stall)"
                ))
            }
        }
    }
    Ok(params)
}

impl Args {
    fn parse(it: &mut FlagParser) -> Result<Self, String> {
        let mut args = Args {
            seeds: 64,
            seed0: 1,
            engine: EngineChoice::Both,
            params: ChaosParams::default(),
            inject: false,
            replay: None,
            repro_out: "results/chaos_repro.json".into(),
            trace: None,
        };
        while let Some(flag) = it.next_flag() {
            match flag.as_str() {
                "--seeds" => {
                    args.seeds = parse_num(&it.value("--seeds")?, "--seeds", "an integer")?;
                }
                "--seed0" => {
                    args.seed0 = parse_num(&it.value("--seed0")?, "--seed0", "an integer")?;
                }
                "--engine" => {
                    let v = it.value("--engine")?;
                    args.engine = EngineChoice::parse(&v)
                        .ok_or_else(|| format!("unknown engine {v:?} (step|event|both)"))?;
                }
                "--replicas-max" => {
                    args.params.replicas_max =
                        parse_num(&it.value("--replicas-max")?, "--replicas-max", "an integer")?;
                }
                "--zones" => {
                    args.params.zones_max =
                        parse_num(&it.value("--zones")?, "--zones", "an integer")?;
                }
                "--requests-max" => {
                    args.params.requests_max =
                        parse_num(&it.value("--requests-max")?, "--requests-max", "an integer")?;
                }
                "--chaos-faults" => {
                    let keep = args.params.clone();
                    args.params = parse_faults(&it.value("--chaos-faults")?)?;
                    args.params.replicas_max = keep.replicas_max;
                    args.params.zones_max = keep.zones_max;
                    args.params.requests_max = keep.requests_max;
                    args.params.gray_severity = keep.gray_severity;
                    args.params.tenancy = keep.tenancy;
                    args.params.brownout = keep.brownout;
                    args.params.detector = keep.detector;
                    args.params.sessions = keep.sessions;
                }
                "--chaos-tenancy" => {
                    let v = it.value("--chaos-tenancy")?;
                    args.params.tenancy = Toggle::parse(&v)
                        .ok_or_else(|| format!("unknown tenancy mode {v:?} (on|off|mix)"))?;
                }
                "--chaos-brownout" => {
                    let v = it.value("--chaos-brownout")?;
                    args.params.brownout = Toggle::parse(&v)
                        .ok_or_else(|| format!("unknown brownout mode {v:?} (on|off|mix)"))?;
                }
                "--gray-severity" => {
                    args.params.gray_severity = Some(parse_num(
                        &it.value("--gray-severity")?,
                        "--gray-severity",
                        "a number",
                    )?);
                }
                "--detector" => {
                    let v = it.value("--detector")?;
                    args.params.detector = Toggle::parse(&v)
                        .ok_or_else(|| format!("unknown detector mode {v:?} (on|off|mix)"))?;
                }
                "--chaos-sessions" => {
                    let v = it.value("--chaos-sessions")?;
                    args.params.sessions = Toggle::parse(&v)
                        .ok_or_else(|| format!("unknown sessions mode {v:?} (on|off|mix)"))?;
                }
                "--repro-out" => {
                    args.repro_out = it.value("--repro-out")?;
                }
                "--inject-bug" => {
                    args.inject = true;
                }
                "--replay" => {
                    args.replay = Some(it.value("--replay")?);
                }
                "--trace" => {
                    args.trace = Some(it.value("--trace")?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.seeds == 0 {
            return Err("--seeds must be positive".into());
        }
        args.params.validate()?;
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main() -> ExitCode {
    SweepSpec::new("chaos_sweep").usage(USAGE).columns(SWEEP_COLUMNS).main(
        std::env::args().skip(1),
        Args::parse,
        run,
    )
}

/// Loads, reruns and re-checks a repro file under both engines. Exits
/// non-zero when the scenario still violates an invariant — so a repro
/// replay that *passes* after a fix is the fix's regression test.
fn replay(path: &str, mutation: Mutation) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    let value = cta_bench::parse_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    // Accept both the bare scenario and the repro envelope this binary
    // writes ({"scenario": ..., "violations": ...}).
    let scenario_value = match &value {
        JsonValue::Obj(pairs) => {
            pairs.iter().find(|(k, _)| k == "scenario").map_or(&value, |(_, v)| v)
        }
        _ => &value,
    };
    let sc = ChaosScenario::from_json(scenario_value).unwrap_or_else(|e| {
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
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        }
    }
    std::fs::write(path, value.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("[saved {path}]");
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let mutation = if args.inject { Mutation::DropShed } else { Mutation::None };

    // --replay: a single-scenario rerun, no sweep. The repro file itself
    // records whether it was minimized under the injected bug — the
    // caller passes --inject-bug again to reproduce that mode.
    if let Some(path) = &args.replay {
        replay(path, mutation);
        return;
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
                SCHEMA_VERSION.to_string(),
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
            out
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
    );

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
        return;
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
    if let Some(path) = &args.trace {
        let sc = ChaosScenario::sample(args.seed0 + args.seeds as u64 - 1, &args.params);
        let trace = sc.trace();
        let cfg = sc.fleet_config(FleetEngine::StepGranular);
        export_trace(path, &format!("Chaos trace — seed {}", sc.seed), |sink| {
            simulate_fleet_traced(&cfg, &trace, sink);
        });
    }
}
