//! The sweep experiments as library entry points.
//!
//! Each submodule declares one experiment against the shared
//! [`crate::harness`] in the same shape:
//!
//! * `spec()` — a [`crate::harness::SweepSpec`]: name, usage text, CSV
//!   columns, and which shared fleet flags the sweep accepts with its
//!   defaults;
//! * an `Args` struct implementing [`crate::harness::SweepArgs`] for the
//!   sweep's own flags;
//! * a `run` function that builds the **grid**, a **point function**
//!   (grid point → [`crate::harness::FleetPoint`], via the harness's
//!   workload, offered-rate, base-configuration and fault-plan helpers)
//!   and an **extractor** (simulated point → table rows and JSON
//!   points), and hands them to [`crate::harness::Harness::run_fleet`].
//!   The harness evaluates the grid, writes the reports and re-runs the
//!   last point traced; a sweep with extra trace steps (`planet_sweep`'s
//!   queue-depth counters, `brownout_sweep`'s controlled half) passes
//!   them as a closure.
//!
//! The `src/bin/*.rs` files are thin adapters that forward
//! `std::env::args()` to the `main` function here, which keeps the
//! sweep logic unit-testable and the binaries trivially small.
//!
//! Besides the flags in their usage text, all sweeps accept:
//!
//! * `--jobs N` — evaluate grid points on an `N`-worker pool
//!   (default: `CTA_JOBS`, then available cores). Output bytes are
//!   identical at any value; see the determinism contract in
//!   [`crate::harness`].
//! * `--pool-trace <path.json>` — export pool-occupancy wall-clock spans
//!   as a Chrome trace (one lane per worker).
//!
//! The shared fleet flags (`--seed`, `--batch`, `--queue-depth`,
//! `--routing`, `--engine`, `--trace`, `--mttr-factor`) are parsed by
//! the harness with one wording; each sweep's usage text lists the ones
//! it takes.
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

/// The declarations of every sweep in this crate.
#[cfg(test)]
pub(crate) fn specs() -> Vec<crate::harness::SweepSpec> {
    vec![
        serve_sweep::spec(),
        degradation_sweep::spec(),
        planet_sweep::spec(),
        brownout_sweep::spec(),
        tenant_sweep::spec(),
        decode_sweep::spec(),
    ]
}
