//! Golden-file pinning for the sweep binaries.
//!
//! Every test here but one runs a real binary (via `CARGO_BIN_EXE_*`)
//! in a scratch directory and compares its output **byte for byte**
//! against files committed under `tests/golden/`. The combined-gates pin
//! drives the library directly, since no sweep binary arms every routing
//! gate at once. This is the enforcement arm of
//! the overload-control contract: with `OverloadControl::off()` (the
//! default for `serve_sweep` / `degradation_sweep`, and the `off` half of
//! every `brownout_sweep` pair) the fleet must reproduce the pre-change
//! output bitwise — traced and untraced. Chrome traces are large, so they
//! are pinned by SHA-256 (`tests/support/sha256.rs`; the workspace takes
//! no crypto dependency) against `tests/golden/traced.sha256`, as are
//! the whole outputs of the sweeps without golden files (planet,
//! tenant, decode).
//!
//! If one of these tests fails after an intentional behaviour change,
//! regenerate the goldens with the invocations named in each test and
//! audit the diff before committing it.

use std::path::{Path, PathBuf};
use std::process::Command;

use cta_serve::{
    poisson_requests, simulate_fleet_traced, AdmissionPolicy, AutoscalePolicy, BatchPolicy,
    CostModel, CrashWindow, DetectorPolicy, FaultPlan, FleetConfig, FleetEngine, FleetReport,
    GrayFailure, LoadSpec, OverloadControl, Partition, QosClass, RoutingPolicy, SchedulerPolicy,
    ServeRequest, TenancyConfig,
};
use cta_sim::{AttentionTask, CtaSystem, SystemConfig};
use cta_telemetry::{chrome_trace_json, RingBufferSink};

#[path = "support/sha256.rs"]
mod sha256;

use sha256::sha256_hex;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned digest for `name` from `tests/golden/traced.sha256`.
fn pinned_digest(name: &str) -> String {
    let listing = std::fs::read_to_string(golden_dir().join("traced.sha256"))
        .expect("tests/golden/traced.sha256");
    for line in listing.lines() {
        if let Some((digest, file)) = line.split_once("  ") {
            if file.trim() == name {
                return digest.to_string();
            }
        }
    }
    panic!("{name} not pinned in traced.sha256");
}

/// Runs `bin` with `args` in a fresh scratch directory and returns that
/// directory (the caller reads `results/…` and trace files out of it).
fn run_in_scratch(label: &str, bin: &str, args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cta-golden-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{label}: {bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn assert_bytes_match_golden(dir: &Path, rel: &str, golden_name: &str) {
    let got = std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let want = std::fs::read(golden_dir().join(golden_name))
        .unwrap_or_else(|e| panic!("golden {golden_name}: {e}"));
    assert!(
        got == want,
        "{rel} drifted from tests/golden/{golden_name} ({} vs {} bytes) — \
         the controller-disabled path must stay bitwise stable",
        got.len(),
        want.len()
    );
}

fn assert_trace_matches_pin(dir: &Path, trace_name: &str) {
    assert_files_match_pins(dir, "", &[trace_name]);
}

/// Checks each of `files` (relative to `dir`) against the digest pinned
/// under `{prefix}{file}`.
fn assert_files_match_pins(dir: &Path, prefix: &str, files: &[&str]) {
    for file in files {
        let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            sha256_hex(&bytes),
            pinned_digest(&format!("{prefix}{file}")),
            "{prefix}{file} drifted from its pinned digest — sweep output must stay bitwise stable"
        );
    }
}

// ---------------------------------------------------------------------------
// The pins
// ---------------------------------------------------------------------------

/// `serve_sweep` ships with overload control off; its untraced output is
/// the canonical pre-overload-control fleet, byte for byte.
#[test]
fn serve_sweep_untraced_output_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "serve-untraced",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &["--replicas", "2", "--loads", "0.5,1.2", "--requests", "40", "--seed", "7"],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_bytes_match_golden(&dir, "results/serve_sweep.json", "serve_sweep.json");
}

/// Tracing must observe, never perturb: the traced run reproduces the
/// same results files and a pinned trace.
#[test]
fn serve_sweep_traced_run_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "serve-traced",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.5,1.2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--trace",
            "serve_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_bytes_match_golden(&dir, "results/serve_sweep.json", "serve_sweep.json");
    assert_trace_matches_pin(&dir, "serve_trace.json");
}

#[test]
fn degradation_sweep_untraced_output_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "degradation-untraced",
        env!("CARGO_BIN_EXE_degradation_sweep"),
        &["--replicas", "3", "--requests", "60", "--seed", "7", "--mtbf-factors", "2,0.5"],
    );
    assert_bytes_match_golden(&dir, "results/degradation_sweep.csv", "degradation_sweep.csv");
    assert_bytes_match_golden(&dir, "results/degradation_sweep.json", "degradation_sweep.json");
}

#[test]
fn degradation_sweep_traced_run_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "degradation-traced",
        env!("CARGO_BIN_EXE_degradation_sweep"),
        &[
            "--replicas",
            "3",
            "--requests",
            "60",
            "--seed",
            "7",
            "--mtbf-factors",
            "2,0.5",
            "--trace",
            "degradation_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/degradation_sweep.csv", "degradation_sweep.csv");
    assert_bytes_match_golden(&dir, "results/degradation_sweep.json", "degradation_sweep.json");
    assert_trace_matches_pin(&dir, "degradation_trace.json");
}

/// `brownout_sweep` interleaves controller-off and controller-on rows; the
/// whole table (including the off rows, which must equal the plain fleet)
/// is pinned, as is the controlled trace.
#[test]
fn brownout_sweep_output_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "brownout",
        env!("CARGO_BIN_EXE_brownout_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.9,1.6",
            "--requests",
            "60",
            "--seed",
            "7",
            "--mtbf-factors",
            "inf,0.6",
            "--trace",
            "brownout_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/brownout_sweep.csv", "brownout_sweep.csv");
    assert_bytes_match_golden(&dir, "results/brownout_sweep.json", "brownout_sweep.json");
    assert_trace_matches_pin(&dir, "brownout_trace.json");
}

/// `planet_sweep` at a small width: diurnal arrivals, seeded faults
/// (the default MTBF factor 1), the event engine and the queue-depth
/// counter lane in the trace.
#[test]
fn planet_sweep_output_is_sha_pinned() {
    let dir = run_in_scratch(
        "planet",
        env!("CARGO_BIN_EXE_planet_sweep"),
        &[
            "--replicas",
            "8,32",
            "--requests-per-replica",
            "4",
            "--seed",
            "7",
            "--trace",
            "planet_trace.json",
        ],
    );
    assert_files_match_pins(
        &dir,
        "",
        &["results/planet_sweep.csv", "results/planet_sweep.json", "planet_trace.json"],
    );
}

/// `tenant_sweep` across skew × scheduler × autoscale with a quota.
#[test]
fn tenant_sweep_output_is_sha_pinned() {
    let dir = run_in_scratch(
        "tenant",
        env!("CARGO_BIN_EXE_tenant_sweep"),
        &[
            "--tenants",
            "4",
            "--skew",
            "0,1",
            "--scheduler",
            "fifo,drr",
            "--autoscale",
            "none,reactive",
            "--requests",
            "200",
            "--quota",
            "3000:4",
            "--trace",
            "tenant_trace.json",
        ],
    );
    assert_files_match_pins(
        &dir,
        "",
        &["results/tenant_sweep.csv", "results/tenant_sweep.json", "tenant_trace.json"],
    );
}

/// `decode_sweep` under sticky sessions with crashes, and the stateless
/// ablation (pinned under a `stateless/` prefix).
#[test]
fn decode_sweep_output_is_sha_pinned() {
    let files = ["results/decode_sweep.csv", "results/decode_sweep.json", "decode_trace.json"];
    let dir = run_in_scratch(
        "decode-sticky",
        env!("CARGO_BIN_EXE_decode_sweep"),
        &[
            "--sessions",
            "6,12",
            "--thresholds",
            "0.25,1.0",
            "--mtbf-factor",
            "0.5",
            "--trace",
            "decode_trace.json",
        ],
    );
    assert_files_match_pins(&dir, "", &files);
    let dir = run_in_scratch(
        "decode-stateless",
        env!("CARGO_BIN_EXE_decode_sweep"),
        &["--sessions", "6,12", "--policy", "stateless", "--trace", "decode_trace.json"],
    );
    assert_files_match_pins(&dir, "stateless/", &files);
}

// ---------------------------------------------------------------------------
// Event-engine replays: the same pins, the other engine
// ---------------------------------------------------------------------------

/// `--engine event` swaps the step-granular scan for the calendar-queue
/// event core; everything it computes must land on the *same* golden
/// bytes. CSV and trace are compared against the existing pins verbatim;
/// the JSON differs only by its `engine` metadata marker.
#[test]
fn serve_sweep_event_engine_reproduces_the_pins() {
    let dir = run_in_scratch(
        "serve-event",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.5,1.2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--engine",
            "event",
            "--trace",
            "serve_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_trace_matches_pin(&dir, "serve_trace.json");
    let json = std::fs::read_to_string(dir.join("results/serve_sweep.json")).expect("json report");
    assert!(json.contains("\"engine\""), "event runs are marked in the JSON metadata");
}

#[test]
fn serve_sweep_single_tenant_drr_reproduces_the_pins() {
    // `--scheduler drr` alone enables the tenancy front end with one
    // equal-weight tenant — the configuration contractually pinned
    // bitwise against the tenancy-off fleet. CSV, JSON and trace bytes
    // must all match the goldens exactly, under both engines.
    let dir = run_in_scratch(
        "serve-tenancy-step",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.5,1.2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--scheduler",
            "drr",
            "--trace",
            "serve_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_bytes_match_golden(&dir, "results/serve_sweep.json", "serve_sweep.json");
    assert_trace_matches_pin(&dir, "serve_trace.json");

    let dir = run_in_scratch(
        "serve-tenancy-event",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.5,1.2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--scheduler",
            "drr",
            "--engine",
            "event",
            "--trace",
            "serve_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_trace_matches_pin(&dir, "serve_trace.json");
}

#[test]
fn degradation_sweep_event_engine_reproduces_the_pins() {
    let dir = run_in_scratch(
        "degradation-event",
        env!("CARGO_BIN_EXE_degradation_sweep"),
        &[
            "--replicas",
            "3",
            "--requests",
            "60",
            "--seed",
            "7",
            "--mtbf-factors",
            "2,0.5",
            "--engine",
            "event",
            "--trace",
            "degradation_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/degradation_sweep.csv", "degradation_sweep.csv");
    assert_trace_matches_pin(&dir, "degradation_trace.json");
}

#[test]
fn brownout_sweep_event_engine_reproduces_the_pins() {
    let dir = run_in_scratch(
        "brownout-event",
        env!("CARGO_BIN_EXE_brownout_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.9,1.6",
            "--requests",
            "60",
            "--seed",
            "7",
            "--mtbf-factors",
            "inf,0.6",
            "--engine",
            "event",
            "--trace",
            "brownout_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/brownout_sweep.csv", "brownout_sweep.csv");
    assert_trace_matches_pin(&dir, "brownout_trace.json");
}

// ---------------------------------------------------------------------------
// Combined routing gates
// ---------------------------------------------------------------------------

/// One fleet with every routing gate armed at once: circuit breakers
/// (plus hedging and brownout, via `OverloadControl::standard()`), a
/// reactive autoscaler behind a two-tenant DRR front end, and the
/// failure detector, over crash, partition and gray faults. Both drivers
/// share these handlers, so the step-vs-event tests cannot catch a
/// mistake in how the gates combine; the trace digest can.
fn combined_gates_run(engine: FleetEngine) -> (FleetReport, Vec<u8>) {
    let task = AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6);
    let mut spec = LoadSpec::standard(task, 3, 4);
    let solo = {
        let probe = poisson_requests(&spec, 1, 1.0, 0);
        CostModel::new().request_service_s(&CtaSystem::new(SystemConfig::paper()), &probe[0])
    };
    spec.class = QosClass::interactive(200.0 * solo);
    let replicas = 4;
    let requests: Vec<ServeRequest> = poisson_requests(&spec, 240, 1.5 * replicas as f64 / solo, 9)
        .into_iter()
        .map(|r| {
            let tenant = (r.id % 2) as u32;
            r.with_tenant(tenant)
        })
        .collect();
    let span = requests.last().expect("nonempty").arrival_s;

    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.engine = engine;
    cfg.routing = RoutingPolicy::JoinShortestQueue;
    cfg.batch = BatchPolicy::up_to(4);
    cfg.admission = AdmissionPolicy::bounded(16);
    cfg.overload = OverloadControl::standard();
    cfg.faults = FaultPlan {
        crashes: vec![
            CrashWindow { replica: 0, down_s: 0.100 * span, up_s: Some(0.105 * span) },
            CrashWindow { replica: 0, down_s: 0.110 * span, up_s: Some(0.115 * span) },
            CrashWindow { replica: 0, down_s: 0.120 * span, up_s: Some(0.300 * span) },
        ],
        partitions: vec![Partition { replica: 1, from_s: 0.45 * span, until_s: 0.60 * span }],
        gray: vec![GrayFailure {
            replica: 2,
            from_s: 0.60 * span,
            until_s: 0.90 * span,
            severity: 8.0,
            seed: 9,
        }],
        ..FaultPlan::none()
    };
    let mut tenancy = TenancyConfig::equal_weight(2, SchedulerPolicy::Drr);
    tenancy.autoscale = Some(AutoscalePolicy::reactive(2, replicas, span / 40.0));
    cfg.tenancy = Some(tenancy);
    let mut detector = DetectorPolicy::standard();
    detector.phi_threshold = 2.0;
    detector.window = 8;
    detector.min_samples = 3;
    detector.probation_s = 0.05 * span;
    cfg.detector = Some(detector);

    let mut sink = RingBufferSink::with_capacity(1 << 18);
    let mut report = simulate_fleet_traced(&cfg, &requests, &mut sink);
    assert_eq!(sink.dropped(), 0, "the trace must fit the ring buffer");
    report.event_queue_samples.clear();
    (report, chrome_trace_json(&sink.events()).into_bytes())
}

/// The combined-gates run fires every mechanism, and its trace is
/// pinned by digest under both drivers.
#[test]
fn combined_gates_traced_run_is_bitwise_pinned() {
    let (step, trace) = combined_gates_run(FleetEngine::StepGranular);
    let m = &step.metrics;
    assert!(m.overload.breaker_opens > 0, "a breaker must open: {:?}", m.overload);
    assert!(m.overload.hedged > 0, "deadline traffic must hedge: {:?}", m.overload);
    let detector = m.detector.as_ref().expect("detector stats");
    assert!(detector.quarantines > 0, "the detector must quarantine: {detector:?}");
    let tenancy = m.tenancy.as_ref().expect("tenancy stats");
    assert!(tenancy.scale_ups > 0, "the autoscaler must scale up: {tenancy:?}");
    assert_eq!(
        sha256_hex(&trace),
        pinned_digest("combined_gates_trace.json"),
        "the combined-gates trace drifted from its pinned digest"
    );

    let (event, event_trace) = combined_gates_run(FleetEngine::EventDriven);
    assert_eq!(event, step, "drivers diverged under the combined gates");
    assert!(event_trace == trace, "event-driver trace differs from the step driver's");
}

// ---------------------------------------------------------------------------
// Schema snapshots
// ---------------------------------------------------------------------------

/// Collects every distinct `"key":` in first-appearance order. The report
/// writer serialises objects in insertion order and no string value in
/// these reports embeds a `":`, so a lexical scan is exact enough for a
/// schema snapshot.
fn json_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while let Some(open) = json[i..].find('"') {
        let start = i + open + 1;
        let Some(close) = json[start..].find('"') else { break };
        let end = start + close;
        if bytes.get(end + 1) == Some(&b':') {
            let key = &json[start..end];
            if !keys.iter().any(|k| k == key) {
                keys.push(key.to_string());
            }
            i = end + 2;
        } else {
            // A string value, not a key — skip past it.
            i = end + 1;
        }
    }
    keys
}

/// The schema snapshot for both fault-era sweep binaries: CSV header and
/// JSON field set, pinned exactly. Extending a report is fine — update the
/// snapshot here and bump nothing; *renaming or removing* a field is a
/// breaking change and must bump [`cta_bench::SCHEMA_VERSION`].
#[test]
fn sweep_reports_snapshot_their_schema() {
    let golden = golden_dir();
    let csv_header = |name: &str| {
        let text = std::fs::read_to_string(golden.join(name)).unwrap();
        text.lines().next().unwrap().to_string()
    };
    assert_eq!(
        csv_header("degradation_sweep.csv"),
        "mtbf_factor,crashes_per_replica,completed,shed_lost,shed_other,retried,retry_events,\
         goodput_rps,p50_ms,p99_ms,min_avail,schema_version",
    );
    assert_eq!(
        csv_header("brownout_sweep.csv"),
        "load,mtbf_factor,control,completed,shed,goodput_rps,p50_ms,p99_ms,loss_pct,\
         brownout_s,transitions,hedged,breaker_opens,schema_version",
    );

    let keys = |name: &str| json_keys(&std::fs::read_to_string(golden.join(name)).unwrap());
    assert_eq!(
        keys("degradation_sweep.json"),
        [
            "schema_version",
            "experiment",
            "case",
            "replicas",
            "load",
            "offered_rps",
            "trace_span_s",
            "mttr_factor",
            "routing",
            "batch",
            "queue_depth",
            "requests",
            "seed",
            "points",
            "mtbf_factor",
            "crashes_per_replica",
            "completed",
            "shed",
            "shed_replica_lost",
            "retried",
            "retry_events",
            "goodput_rps",
            "p50_s",
            "p99_s",
            "min_availability",
            "makespan_s",
        ],
        "degradation_sweep JSON schema drifted"
    );
    assert_eq!(
        keys("brownout_sweep.json"),
        [
            "schema_version",
            "experiment",
            "case",
            "replicas",
            "link_gbs",
            "solo_service_s",
            "deadline_s",
            "deadline_factor",
            "mttr_factor",
            "control",
            "routing",
            "batch",
            "queue_depth",
            "requests_per_point",
            "seed",
            "points",
            "load",
            "mtbf_factor",
            "completed",
            "shed",
            "shed_rate",
            "goodput_rps",
            "p50_s",
            "p99_s",
            "mean_accuracy_loss_pct",
            "max_accuracy_loss_pct",
            "brownout_s",
            "brownout_transitions",
            "hedged",
            "hedge_wins",
            "hedge_cancelled",
            "breaker_opens",
            "makespan_s",
        ],
        "brownout_sweep JSON schema drifted"
    );
}
