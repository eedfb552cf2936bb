//! The repository's benchmark: end-to-end metrics of four single-threaded,
//! closed-loop workloads, and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload prefill|decode|fleet|chaos --seed N --seconds S --trace 0|1
//!           [--tiny] [--inject drop-shed] [--spans <path>]
//! ```
//!
//! One caller runs one operation at a time and waits for it. Every
//! operation's output is checked; a failed check is counted, and the run
//! exits non-zero when any failed. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `perfbench/README.md`.

mod alloc;
mod attention;
mod chaos;
mod fleet;
mod report;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use cta_chaos::Mutation;
use cta_tensor::KernelPolicy;

use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::run::RunCfg;
use crate::trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload prefill|decode|fleet|chaos --seed N \
                     --seconds S --trace 0|1 [--tiny] [--inject drop-shed] [--spans <path>]";

/// Environment variables that would change what is measured; the
/// benchmark refuses to start when one is set.
const PINNED_ENV: [&str; 2] = ["CTA_KERNELS", "CTA_JOBS"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Prefill,
    Decode,
    Fleet,
    Chaos,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "prefill" => Self::Prefill,
            "decode" => Self::Decode,
            "fleet" => Self::Fleet,
            "chaos" => Self::Chaos,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Prefill => "prefill",
            Self::Decode => "decode",
            Self::Fleet => "fleet",
            Self::Chaos => "chaos",
        }
    }
}

struct Args {
    workload: Workload,
    run: RunCfg,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut mutation, mut spans) = (false, Mutation::None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--tiny" => tiny = true,
            "--inject" => match value()?.as_str() {
                "drop-shed" => mutation = Mutation::DropShed,
                other => return Err(format!("--inject takes drop-shed, got {other:?}")),
            },
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        run: RunCfg {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            tiny,
            mutation,
        },
        trace: trace.ok_or_else(|| missing("--trace"))?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "error: {var} is set; unset it so the measured kernels and threads are the defaults"
        );
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}{}",
        args.workload.name(),
        args.run.seed,
        args.run.seconds,
        u8::from(args.trace),
        if args.run.tiny { " (tiny sizes)" } else { "" }
    );
    println!(
        "kernel policy {}; 1 worker thread, closed loop; {threads} cores available",
        KernelPolicy::current().label()
    );

    let w = args.workload;
    let correct = if args.trace {
        let mut tr = Tracer::new();
        let out = match w {
            Workload::Prefill => attention::prefill_traced(&args.run, &mut tr),
            Workload::Decode => attention::decode_traced(&args.run, &mut tr),
            Workload::Fleet => fleet::fleet_traced(&args.run, &mut tr),
            Workload::Chaos => chaos::chaos_traced(&args.run, &mut tr),
        };
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
                "spans-{}-{}.jsonl",
                w.name(),
                args.run.seed
            ))
        });
        traced_result(out, &tr, &path).print(PER_LAYER)
    } else {
        let out: Outcome = match w {
            Workload::Prefill => attention::prefill(&args.run),
            Workload::Decode => attention::decode(&args.run),
            Workload::Fleet => fleet::fleet(&args.run),
            Workload::Chaos => chaos::chaos(&args.run),
        };
        out.print(END_TO_END)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds the self-time table to a traced outcome and writes the spans.
fn traced_result(mut out: Outcome, tr: &Tracer, path: &std::path::Path) -> Outcome {
    let layers = tr.self_ms_per_op();
    let total: f64 = layers.values().sum();
    out.note(format!("self time per operation ({} operations):", tr.ops()));
    for (layer, ms) in &layers {
        out.note(format!("  {layer:<10} {ms:>12.4} ms  {:>5.1}%", 100.0 * ms / total.max(1e-12)));
    }
    for (layer, ms) in layers {
        if let Some(&(name, _)) =
            PER_LAYER.iter().find(|(n, _)| n.strip_suffix(".self_ms") == Some(layer))
        {
            out.set(name, ms);
        }
    }
    match tr.write(path) {
        Ok(()) => out.note(format!("{} spans written to {}", tr.kept(), path.display())),
        Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
    }
    out
}
