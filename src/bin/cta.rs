//! `cta` — command-line driver for the CTA reproduction.
//!
//! ```text
//! cta simulate --n 512 --k0 220 --k1 210 --k2 40 [--width-b 8] [--pag 16]
//! cta evaluate --model bert-large --dataset squad1.1 --bucket-width 4.0 [--samples 2]
//! cta operating-point --model bert-large --dataset imdb --class cta-1
//! cta area [--width-b 8]
//! cta sweep --n 512 --k0 220 --k1 210 --k2 40
//! ```
//!
//! Everything the subcommands do is a thin veneer over the library; see
//! `examples/` for the same flows as code.

use std::collections::HashMap;
use std::process::ExitCode;

use cta::baselines::GpuModel;
use cta::serve::{poisson_requests, simulate_fleet, FleetConfig, LoadSpec};
use cta::sim::{
    area_breakdown, power_trace, schedule, schedule_ffn, sweep, trace_schedule, AreaModel,
    AttentionTask, CtaAccelerator, CtaSystem, EnergyModel, HwConfig, SystemConfig,
};
use cta::telemetry::{chrome_trace_json, validate_chrome_trace, AggregateReport, RingBufferSink};
use cta::workloads::{
    albert_large, bert_large, evaluate_case, find_operating_point, gpt2_large, imdb, roberta_large,
    squad11, squad20, wikitext2, CtaClass, DatasetSpec, ModelSpec, TestCase,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cta simulate --n <len> --k0 <k> --k1 <k> --k2 <k> [--d 64] [--width-b 8] [--pag 16] [--l 6]
  cta evaluate --model <name> --dataset <name> --bucket-width <w> [--samples 2] [--seq-len <n>]
  cta operating-point --model <name> --dataset <name> --class <cta-0|cta-0.5|cta-1> [--samples 2]
  cta area [--width-b 8]
  cta sweep --n <len> --k0 <k> --k1 <k> --k2 <k> [--d 64]
  cta ffn --n <len> --d-model <w> --d-ffn <w> [--width-b 8]
  cta serve --n <len> --k0 <k> --k1 <k> --k2 <k> --layers <L> --heads <H> --load <0..1.2>
  cta trace --n <len> --k0 <k> --k1 <k> --k2 <k> [--d 64] [--l 6] [--out <trace.json>]
  cta trace --check <trace.json>

models:   bert-large roberta-large albert-large gpt2-large
datasets: squad1.1 squad2.0 imdb wikitext2";

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "simulate" => cmd_simulate(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "operating-point" => cmd_operating_point(&flags),
        "area" => cmd_area(&flags),
        "sweep" => cmd_sweep(&flags),
        "ffn" => cmd_ffn(&flags),
        "serve" => cmd_serve(&flags),
        "trace" => cmd_trace(&flags),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parses `--key value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name =
            key.strip_prefix("--").ok_or_else(|| format!("expected a --flag, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    let raw = flags.get(name).ok_or_else(|| format!("missing --{name}"))?;
    raw.parse().map_err(|_| format!("--{name}: cannot parse `{raw}`"))
}

fn get_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("--{name}: cannot parse `{raw}`")),
    }
}

fn model_by_name(name: &str) -> Result<ModelSpec, String> {
    match name {
        "bert-large" => Ok(bert_large()),
        "roberta-large" => Ok(roberta_large()),
        "albert-large" => Ok(albert_large()),
        "gpt2-large" => Ok(gpt2_large()),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn dataset_by_name(name: &str) -> Result<DatasetSpec, String> {
    match name {
        "squad1.1" => Ok(squad11()),
        "squad2.0" => Ok(squad20()),
        "imdb" => Ok(imdb()),
        "wikitext2" => Ok(wikitext2()),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

fn class_by_name(name: &str) -> Result<CtaClass, String> {
    match name {
        "cta-0" => Ok(CtaClass::Cta0),
        "cta-0.5" => Ok(CtaClass::Cta05),
        "cta-1" => Ok(CtaClass::Cta1),
        other => Err(format!("unknown class `{other}` (cta-0 | cta-0.5 | cta-1)")),
    }
}

fn hw_from_flags(flags: &HashMap<String, String>, max_seq: usize) -> Result<HwConfig, String> {
    let b: usize = get_or(flags, "width-b", 8)?;
    let pag: usize = get_or(flags, "pag", 2 * b)?;
    let mut hw = HwConfig::paper().with_sa_width(b).with_pag_parallelism(pag);
    hw.max_seq_len = hw.max_seq_len.max(max_seq);
    Ok(hw)
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(flags, "n")?;
    let d: usize = get_or(flags, "d", 64)?;
    let task = AttentionTask::from_counts(
        n,
        n,
        d,
        get(flags, "k0")?,
        get(flags, "k1")?,
        get(flags, "k2")?,
        get_or(flags, "l", 6)?,
    );
    let hw = hw_from_flags(flags, n)?;
    let acc = CtaAccelerator::new(hw);
    let r = acc.simulate_head(&task);
    println!(
        "one head: {} cycles = {:.2} us @ {:.1} GHz",
        r.cycles,
        r.latency_s * 1e6,
        hw.clock_ghz
    );
    println!(
        "split: compression {} / linear {} / attention {} cycles (PAG stalls {})",
        r.schedule.compression_cycles,
        r.schedule.linear_cycles,
        r.schedule.attention_cycles,
        r.schedule.pag_stall_cycles
    );
    println!(
        "energy: {:.2} uJ (SA {:.0}%, memory {:.0}%, aux {:.0}%), power {:.2} W",
        r.energy.total_j() * 1e6,
        r.energy.sa_fraction() * 100.0,
        r.energy.memory_fraction() * 100.0,
        r.energy.aux_fraction() * 100.0,
        r.average_power_w()
    );
    let trace = power_trace(&hw, &r.schedule, &EnergyModel::default());
    println!("power: {:.2} W average, {:.2} W peak", trace.average_w, trace.peak_w);
    let gpu = GpuModel::v100();
    let dims = cta::attention::AttentionDims::self_attention(n, d, d);
    println!(
        "vs V100 (12 heads): {:.1}x speedup",
        gpu.attention_latency_s(&dims, 12) / r.latency_s
    );
    Ok(())
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_by_name(&get::<String>(flags, "model")?)?;
    let mut dataset = dataset_by_name(&get::<String>(flags, "dataset")?)?;
    if let Some(n) = flags.get("seq-len") {
        dataset = dataset.with_seq_len(n.parse().map_err(|_| "--seq-len: bad value".to_string())?);
    }
    let case = TestCase::new(model, dataset);
    let width: f32 = get(flags, "bucket-width")?;
    let samples: usize = get_or(flags, "samples", 2)?;
    let cfg = cta::attention::CtaConfig::uniform(width, case.seed());
    let e = evaluate_case(&case, &cfg, samples);
    println!("{} @ width {width}", e.case_name);
    println!("accuracy loss: {:.2}%", e.accuracy_loss_pct);
    println!(
        "RL {:.1}%  RA {:.1}%  effective relations {:.1}%",
        e.complexity.rl * 100.0,
        e.complexity.ra * 100.0,
        e.complexity.effective_relations * 100.0
    );
    println!("mean k = ({:.0}, {:.0}, {:.0})", e.mean_k0, e.mean_k1, e.mean_k2);
    println!(
        "output error {:.4}, top-1 agreement {:.1}%",
        e.fidelity.output_relative_error,
        e.fidelity.top1_agreement * 100.0
    );
    Ok(())
}

fn cmd_operating_point(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_by_name(&get::<String>(flags, "model")?)?;
    let dataset = dataset_by_name(&get::<String>(flags, "dataset")?)?;
    let class = class_by_name(&get::<String>(flags, "class")?)?;
    let samples: usize = get_or(flags, "samples", 2)?;
    let case = TestCase::new(model, dataset);
    let op = find_operating_point(&case, class, samples);
    let e = &op.evaluation;
    println!("{} {}", e.case_name, class.label());
    println!(
        "bucket width {:.3}, measured loss {:.2}% (budget {:.1}%)",
        op.config.kv_bucket_width,
        e.accuracy_loss_pct,
        class.target_loss_pct()
    );
    println!("RL {:.1}%  RA {:.1}%", e.complexity.rl * 100.0, e.complexity.ra * 100.0);
    let task = op.task(&case);
    let r = CtaAccelerator::new(HwConfig::paper()).simulate_head(&task);
    println!(
        "simulated head: {} cycles ({:.1} us), {:.2} uJ",
        r.cycles,
        r.latency_s * 1e6,
        r.energy.total_j() * 1e6
    );
    Ok(())
}

fn cmd_area(flags: &HashMap<String, String>) -> Result<(), String> {
    let hw = hw_from_flags(flags, 512)?;
    let a = area_breakdown(&hw, &AreaModel::default());
    println!("SA {:.3} mm^2 ({:.1}%)", a.sa_mm2, a.sa_fraction() * 100.0);
    println!(
        "memory {:.3}  PAG {:.3}  CIM {:.3}  CAG {:.3} mm^2",
        a.memory_mm2, a.pag_mm2, a.cim_mm2, a.cag_mm2
    );
    println!("total {:.3} mm^2", a.total_mm2());
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(flags, "n")?;
    let d: usize = get_or(flags, "d", 64)?;
    let task = AttentionTask::from_counts(
        n,
        n,
        d,
        get(flags, "k0")?,
        get(flags, "k1")?,
        get(flags, "k2")?,
        get_or(flags, "l", 6)?,
    );
    let mut hw = HwConfig::paper();
    hw.max_seq_len = hw.max_seq_len.max(n);
    let points = sweep(&hw, &task, &[4, 8, 16, 32], &[4, 8, 16, 32, 64, 128]);
    println!("{:>6} {:>6} {:>14} {:>12}", "b", "PAG", "heads/s", "stall cyc");
    for p in points {
        println!(
            "{:>6} {:>6} {:>14.0} {:>12}",
            p.sa_width, p.pag_parallelism, p.heads_per_second, p.pag_stall_cycles
        );
    }
    Ok(())
}

fn cmd_ffn(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(flags, "n")?;
    let d_model: usize = get(flags, "d-model")?;
    let d_ffn: usize = get(flags, "d-ffn")?;
    let hw = hw_from_flags(flags, n)?;
    let f = schedule_ffn(&hw, n, d_model, d_ffn);
    println!(
        "FFN {n} x {d_model} -> {d_ffn} -> {d_model} on one unit: {} cycles ({:.1} us)",
        f.total_cycles,
        f.total_cycles as f64 * hw.cycle_time_s() * 1e6
    );
    println!(
        "up-projection utilisation {:.0}%, down-projection {:.0}%",
        f.up.utilization(&hw) * 100.0,
        f.down.utilization(&hw) * 100.0
    );
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(flags, "n")?;
    let task = AttentionTask::from_counts(
        n,
        n,
        get_or(flags, "d", 64)?,
        get(flags, "k0")?,
        get(flags, "k1")?,
        get(flags, "k2")?,
        get_or(flags, "l", 6)?,
    );
    let layers: usize = get(flags, "layers")?;
    let heads: usize = get(flags, "heads")?;
    if layers == 0 || heads == 0 {
        return Err("--layers and --heads must be at least 1".into());
    }
    let load: f64 = get(flags, "load")?;
    if !(load.is_finite() && load > 0.0) {
        return Err("--load must be a positive finite number".into());
    }
    let mut cfg = SystemConfig::paper();
    cfg.hw.max_seq_len = cfg.hw.max_seq_len.max(n);
    let service = CtaSystem::new(cfg).run_layers(&vec![vec![task; heads]; layers]).total_s;
    let spec = LoadSpec::standard(task, layers, heads);
    let requests = poisson_requests(&spec, 300, load / service, 42);
    let report = simulate_fleet(&FleetConfig::single_fifo(cfg), &requests);
    let m = report.metrics.latency.expect("a single FIFO replica completes every request");
    println!("service time {:.2} ms/request; offered load {:.0}%", service * 1e3, load * 100.0);
    println!(
        "throughput {:.1} rps | p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms | busy {:.0}%",
        m.throughput_rps,
        m.p50_s * 1e3,
        m.p95_s * 1e3,
        m.p99_s * 1e3,
        m.busy_fraction * 100.0
    );
    Ok(())
}

fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    // Validation mode: `cta trace --check <path>`.
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let stats = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: well-formed Chrome trace ({} events, {} spans, {} async, {} counters, \
             {} tracks)",
            stats.events, stats.begins, stats.async_begins, stats.counters, stats.tracks
        );
        return Ok(());
    }

    // Generation mode: trace one head's mapping schedule.
    let n: usize = get(flags, "n")?;
    let task = AttentionTask::from_counts(
        n,
        n,
        get_or(flags, "d", 64)?,
        get(flags, "k0")?,
        get(flags, "k1")?,
        get(flags, "k2")?,
        get_or(flags, "l", 6)?,
    );
    let hw = hw_from_flags(flags, n)?;
    let sched = schedule(&hw, &task);
    let mut sink = RingBufferSink::with_capacity(4096);
    trace_schedule(&mut sink, &hw, &sched, 0, 0.0);
    let events = sink.events();

    let report = AggregateReport::from_events(&events);
    print!("{}", report.render(Some(hw.cycle_time_s())));

    if let Some(path) = flags.get("out") {
        let json = chrome_trace_json(&events);
        validate_chrome_trace(&json)
            .map_err(|e| format!("internal: exported trace invalid: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} — open it in chrome://tracing or https://ui.perfetto.dev");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn parse_flags_accepts_pairs() {
        let args: Vec<String> =
            ["--n", "512", "--k0", "10"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).expect("parse");
        assert_eq!(f["n"], "512");
        assert_eq!(f["k0"], "10");
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        let args: Vec<String> = ["512"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args: Vec<String> = ["--n"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn getters_parse_and_default() {
        let f = flags(&[("n", "64")]);
        assert_eq!(get::<usize>(&f, "n").expect("n"), 64);
        assert_eq!(get_or::<usize>(&f, "d", 64).expect("d"), 64);
        assert!(get::<usize>(&f, "missing").is_err());
        let bad = flags(&[("n", "abc")]);
        assert!(get::<usize>(&bad, "n").is_err());
    }

    #[test]
    fn names_resolve() {
        assert!(model_by_name("bert-large").is_ok());
        assert!(model_by_name("nope").is_err());
        assert!(dataset_by_name("imdb").is_ok());
        assert!(class_by_name("cta-0.5").is_ok());
        assert!(class_by_name("cta-2").is_err());
    }

    #[test]
    fn simulate_command_runs() {
        let f = flags(&[("n", "128"), ("k0", "40"), ("k1", "30"), ("k2", "10")]);
        cmd_simulate(&f).expect("simulate");
    }

    #[test]
    fn area_command_runs() {
        cmd_area(&flags(&[])).expect("area");
    }

    #[test]
    fn ffn_command_runs() {
        let f = flags(&[("n", "128"), ("d-model", "512"), ("d-ffn", "2048")]);
        cmd_ffn(&f).expect("ffn");
    }

    #[test]
    fn serve_command_runs() {
        let f = flags(&[
            ("n", "128"),
            ("k0", "40"),
            ("k1", "30"),
            ("k2", "10"),
            ("layers", "2"),
            ("heads", "12"),
            ("load", "0.5"),
        ]);
        cmd_serve(&f).expect("serve");
    }

    #[test]
    fn trace_command_generates_and_checks() {
        let dir = std::env::temp_dir().join("cta-trace-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("head.json");
        let out = path.to_str().expect("utf-8 path").to_string();
        let f = flags(&[("n", "128"), ("k0", "40"), ("k1", "30"), ("k2", "10"), ("out", &out)]);
        cmd_trace(&f).expect("trace generation");
        cmd_trace(&flags(&[("check", &out)])).expect("trace validation");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_check_rejects_garbage() {
        let dir = std::env::temp_dir().join("cta-trace-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not a trace").expect("write");
        let out = path.to_str().expect("utf-8 path").to_string();
        assert!(cmd_trace(&flags(&[("check", &out)])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_subcommand_errors() {
        let args: Vec<String> = ["frobnicate"].iter().map(|s| s.to_string()).collect();
        assert!(run(&args).is_err());
    }
}
