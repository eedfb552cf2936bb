//! Self-tests of the benchmark: they run the benchmark binary at tiny
//! sizes and check what it prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use cta_bench::{parse_json, JsonValue};

const WORKLOADS: [&str; 4] = ["prefill", "decode", "fleet", "chaos"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    match v {
        JsonValue::Obj(fields) => {
            &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key:?}")).1
        }
        other => panic!("{key:?} looked up in a non-object {other:?}"),
    }
}

fn string(v: &JsonValue) -> &str {
    match v {
        JsonValue::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Num(x) => *x,
        JsonValue::Int(i) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    match field(&json, list) {
        JsonValue::Arr(items) => items
            .iter()
            .map(|m| (string(field(m, "name")).to_string(), string(field(m, "unit")).to_string()))
            .collect(),
        other => panic!("{list} is not an array: {other:?}"),
    }
}

struct Run {
    output: Output,
    stdout: String,
}

impl Run {
    fn new(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Self {
        let spans = manifest_dir()
            .join("target")
            .join(format!("selftest-spans-{workload}-{seed}-{}.jsonl", std::process::id()));
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.3"])
            .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
            .arg("--spans")
            .arg(&spans)
            .args(extra)
            .env_remove("CTA_KERNELS")
            .env_remove("CTA_JOBS")
            .output()
            .expect("the benchmark binary starts");
        let _ = std::fs::remove_file(spans);
        let stdout = String::from_utf8(output.stdout.clone()).expect("utf-8 output");
        Self { output, stdout }
    }

    fn result(&self) -> JsonValue {
        let last = self.stdout.lines().last().expect("the run printed something");
        parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
    }

    /// `name -> (value, unit)` of the result's metrics.
    fn metrics(&self) -> BTreeMap<String, (f64, String)> {
        match field(&self.result(), "metrics") {
            JsonValue::Obj(fields) => fields
                .iter()
                .map(|(k, m)| {
                    (k.clone(), (number(field(m, "value")), string(field(m, "unit")).into()))
                })
                .collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    fn inputs_line(&self) -> String {
        self.stdout.lines().find(|l| l.starts_with("inputs: ")).expect("an inputs line").into()
    }
}

fn assert_prints_exactly(run: &Run, list: &str) {
    let printed: Vec<(String, String)> =
        run.metrics().into_iter().map(|(name, (_, unit))| (name, unit)).collect();
    let mut expected = declared(list);
    expected.sort();
    assert_eq!(printed, expected, "{list} names and units as declared in BENCHMARK.json");
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    for w in WORKLOADS {
        let plain = Run::new(w, 1, false, &[]);
        assert!(plain.output.status.success(), "{w}: {}", plain.stdout);
        assert_prints_exactly(&plain, "end_to_end");
        let result = plain.result();
        assert_eq!(result_flag(&result), (true, 0));
        for (name, (value, _)) in plain.metrics() {
            assert!(value > 0.0, "{w}: end-to-end metric {name} must never read 0");
        }

        let traced = Run::new(w, 1, true, &[]);
        assert!(traced.output.status.success(), "{w} traced: {}", traced.stdout);
        assert_prints_exactly(&traced, "per_layer");
        assert_eq!(result_flag(&traced.result()), (true, 0));
    }
}

fn result_flag(result: &JsonValue) -> (bool, u64) {
    let correct = matches!(field(result, "correct"), JsonValue::Bool(true));
    let attempted = number(field(result, "attempted"));
    assert!(attempted >= 1.0);
    (correct, number(field(result, "failed")) as u64)
}

#[test]
fn dropping_a_shed_record_makes_chaos_fail() {
    let run = Run::new("chaos", 1, false, &["--inject", "drop-shed"]);
    assert!(!run.output.status.success(), "a failed check must exit non-zero");
    let (correct, failed) = result_flag(&run.result());
    assert!(!correct && failed > 0, "{}", run.stdout);
    let rate = run.stdout.lines().find(|l| l.starts_with("fail_rate")).expect("fail_rate line");
    let rate: f64 = rate.split_whitespace().nth(1).expect("value").parse().expect("number");
    assert!(rate > 0.0);
}

/// Metrics that are counts or pure functions of the inputs, and must
/// repeat exactly for one seed.
fn deterministic(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "B")
        || name.starts_with("sim.")
        || name.starts_with("chaos.share.")
        || name.ends_with("_rel_err")
        || name.ends_with("_alloc_mb")
        || matches!(name, "serve.goodput_rps" | "serve.p99_s")
}

#[test]
fn one_seed_repeats_its_counts_and_another_seed_changes_the_inputs() {
    for w in WORKLOADS {
        let a = Run::new(w, 5, true, &[]);
        let b = Run::new(w, 5, true, &[]);
        let c = Run::new(w, 6, true, &[]);
        assert_eq!(a.inputs_line(), b.inputs_line(), "{w}: one seed, one input set");
        assert_ne!(a.inputs_line(), c.inputs_line(), "{w}: another seed, other inputs");
        let (ma, mb) = (a.metrics(), b.metrics());
        let mut compared = 0;
        for (name, (value, unit)) in &ma {
            if deterministic(name, unit) {
                assert_eq!(value.to_bits(), mb[name].0.to_bits(), "{w}: {name} must repeat");
                compared += 1;
            }
        }
        assert!(compared > 30, "{w}: compared {compared} deterministic metrics");
    }
}

#[test]
fn pinned_environment_and_bad_flags_are_refused() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let args = ["--workload", "chaos", "--seed", "1", "--seconds", "0.1", "--trace", "0", "--tiny"];
    for var in ["CTA_KERNELS", "CTA_JOBS"] {
        let out = Command::new(bin).args(args).env(var, "1").output().expect("starts");
        assert!(!out.status.success(), "{var} set must refuse to start");
        assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("correct"));
    }
    for bad in [&["--workload", "nope"][..], &["--trace", "2"][..], &["--bogus"][..]] {
        let out = Command::new(bin).args(bad).output().expect("starts");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}
