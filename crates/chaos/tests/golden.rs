//! Output pin for `chaos_sweep`: a small seed block under both engines,
//! traced, must reproduce the SHA-256 digests of its CSV, JSON and
//! Chrome trace recorded in `tests/golden/chaos.sha256`. If this fails
//! after an intentional behaviour change, regenerate the digests with
//! the invocation below and audit the diff before committing it.

use std::path::Path;
use std::process::Command;

#[path = "../../serve/tests/support/sha256.rs"]
mod sha256;

use sha256::sha256_hex;

#[test]
fn chaos_sweep_both_engines_output_is_sha_pinned() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_sweep"))
        .args(["--seeds", "8", "--engine", "both", "--trace", "chaos_trace.json"])
        .current_dir(&dir)
        .output()
        .expect("spawn chaos_sweep");
    assert!(out.status.success(), "chaos_sweep failed: {}", String::from_utf8_lossy(&out.stderr));

    let pins = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos.sha256"),
    )
    .expect("tests/golden/chaos.sha256");
    for line in pins.lines() {
        let (digest, file) = line.split_once("  ").expect("`<digest>  <file>` lines");
        let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(sha256_hex(&bytes), digest, "{file} drifted from its pinned digest");
    }
}
