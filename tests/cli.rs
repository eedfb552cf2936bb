//! Integration: the `cta` command-line binary, spawned end to end.

use std::process::Command;

fn cta(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cta")).args(args).output().expect("spawn the cta binary")
}

#[test]
fn simulate_prints_cycles_and_speedup() {
    let out = cta(&["simulate", "--n", "256", "--k0", "100", "--k1", "90", "--k2", "20"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("one head:"), "{text}");
    assert!(text.contains("speedup"), "{text}");
}

#[test]
fn area_prints_totals() {
    let out = cta(&["area"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total"), "{text}");
    assert!(text.contains("mm^2"), "{text}");
}

#[test]
fn ffn_prints_utilisation() {
    let out = cta(&["ffn", "--n", "128", "--d-model", "512", "--d-ffn", "2048"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("utilisation"));
}

#[test]
fn serve_prints_percentiles() {
    let out = cta(&[
        "serve", "--n", "128", "--k0", "40", "--k1", "30", "--k2", "10", "--layers", "2",
        "--heads", "12", "--load", "0.5",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("p99"), "{text}");
}

#[test]
fn serve_rejects_bad_values_with_usage() {
    let serve = |flag: &str, value: &str| {
        let mut args = vec![
            "serve", "--n", "128", "--k0", "40", "--k1", "30", "--k2", "10", "--layers", "2",
            "--heads", "12", "--load", "0.5",
        ];
        let at = args.iter().position(|a| *a == flag).expect("known flag") + 1;
        args[at] = value;
        cta(&args)
    };
    for (flag, value) in [("--load", "nan"), ("--load", "inf"), ("--layers", "0"), ("--heads", "0")]
    {
        let out = serve(flag, value);
        assert_eq!(out.status.code(), Some(1), "{flag} {value} must fail cleanly, not panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{flag} {value}: {err}");
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cta(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("usage:"));
}

#[test]
fn missing_flag_fails_with_message() {
    let out = cta(&["simulate", "--n", "64"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --k0"));
}

#[test]
fn task_subcommands_reject_bad_cluster_counts_with_usage() {
    // Every subcommand that builds a head task from --n/--k0/--k1/--k2
    // reports a count above --n, or of zero, as an error, not a panic.
    let extra: [&[&str]; 4] = [&[], &[], &["--layers", "2", "--heads", "4", "--load", "0.5"], &[]];
    for (cmd, extra) in ["simulate", "sweep", "serve", "trace"].into_iter().zip(extra) {
        for (k0, k1, k2) in [("200", "30", "10"), ("40", "129", "10"), ("40", "30", "0")] {
            let mut args = vec![cmd, "--n", "128", "--k0", k0, "--k1", k1, "--k2", k2];
            args.extend_from_slice(extra);
            let out = cta(&args);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly: {err}");
            assert!(err.contains("error: --k"), "{args:?}: {err}");
            assert!(err.contains("usage:"), "{args:?}: {err}");
        }
    }
}
