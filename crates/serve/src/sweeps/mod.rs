//! The sweep experiments as library entry points.
//!
//! Each submodule holds the full implementation of one sweep harness —
//! grid construction, per-point evaluation, report metadata, and the
//! telemetry pass — expressed against the shared [`crate::harness`] API.
//! The `src/bin/*.rs` files are thin adapters that forward
//! `std::env::args()` to the `main` function here, which keeps the
//! sweep logic unit-testable and the binaries trivially small.
//!
//! All sweeps accept the shared harness flags in addition to the ones
//! in their usage text:
//!
//! * `--jobs N` — evaluate grid points on an `N`-worker pool
//!   (default: `CTA_JOBS`, then available cores). Output bytes are
//!   identical at any value; see the determinism contract in
//!   [`crate::harness`].
//! * `--pool-trace <path.json>` — export pool-occupancy wall-clock spans
//!   as a Chrome trace (one lane per worker).
//!
//! Every sweep writes only deterministic outputs. Host wall-clock speed
//! is measured in one place, the repository benchmark under
//! `perfbench/`, which times the same fleet and chaos paths end to end
//! and per layer.

pub mod brownout_sweep;
pub mod decode_sweep;
pub mod degradation_sweep;
pub mod planet_sweep;
pub mod serve_sweep;
pub mod tenant_sweep;
