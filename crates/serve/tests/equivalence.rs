//! Pins the fleet runtime's single-replica configuration
//! ([`FleetConfig::single_fifo`]: one replica, batching off, everything
//! admitted) to a single-server FIFO queue **bit for bit**. The reference
//! is a short fold over the same `CtaSystem` step primitives, accumulated
//! in the same order, so any divergence is a scheduler bug, not
//! round-off. The remaining tests check the queueing behaviour of that
//! configuration: pure service at no load, tail growth and throughput
//! saturation under overload, and ordered percentiles.

use cta_serve::{poisson_requests, simulate_fleet, FleetConfig, LoadSpec, QosClass, ServeRequest};
use cta_sim::{AttentionTask, CtaSystem, ServingMetrics, SystemConfig};

fn task() -> AttentionTask {
    AttentionTask::from_counts(256, 256, 64, 100, 90, 20, 6)
}

/// Single-server FIFO: each request starts when it has arrived and the
/// previous one has finished, then pays the weight upload plus one
/// `step_layer` per layer, accumulated layer by layer.
fn fifo_fold(system: &CtaSystem, requests: &[ServeRequest]) -> ServingMetrics {
    let upload_s = system.weight_upload_s();
    let (mut clock, mut busy) = (0.0f64, 0.0f64);
    let mut latencies = Vec::with_capacity(requests.len());
    for r in requests {
        let mut t = clock.max(r.arrival_s);
        for (i, tasks) in r.layer_tasks.iter().enumerate() {
            let elapsed = if i == 0 { upload_s } else { 0.0 } + system.step_layer(tasks).elapsed_s;
            t += elapsed;
            busy += elapsed;
        }
        clock = t;
        latencies.push(clock - r.arrival_s);
    }
    ServingMetrics::from_latencies(&latencies, clock.max(f64::EPSILON), busy)
}

/// Serves `requests` on the single-FIFO fleet and returns its latency
/// metrics, checking nothing was shed.
fn serve(requests: &[ServeRequest]) -> ServingMetrics {
    let report = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), requests);
    assert_eq!(report.metrics.shed, 0, "single_fifo admits everything");
    report.metrics.latency.expect("has completions")
}

/// Service time of one `layers × heads` request of [`task`].
fn service_s(layers: usize, heads: usize) -> f64 {
    CtaSystem::new(SystemConfig::paper()).run_layers(&vec![vec![task(); heads]; layers]).total_s
}

#[test]
fn single_fifo_fleet_matches_fifo_fold_bitwise() {
    let system = CtaSystem::new(SystemConfig::paper());
    let spec = LoadSpec::standard(task(), 3, 8);
    let service = service_s(3, 8);
    // Light, moderate, near-saturated and 3x overloaded offered loads.
    for (load, seed) in [(0.1, 1u64), (0.5, 2), (0.95, 3), (3.0, 4), (3.0, 5)] {
        let requests = poisson_requests(&spec, 40, load / service, seed);
        assert_eq!(
            serve(&requests),
            fifo_fold(&system, &requests),
            "load {load}, seed {seed}: fleet metrics must equal the FIFO fold bit for bit"
        );
    }
}

#[test]
fn single_fifo_serves_in_arrival_order() {
    let requests = poisson_requests(&LoadSpec::standard(task(), 2, 4), 30, 5_000.0, 9);
    let report = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), &requests);
    let ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
    let expected: Vec<u64> = (0..30).collect();
    assert_eq!(ids, expected, "FIFO completion order is arrival order");
}

#[test]
fn single_request_latency_is_pure_service() {
    let m = serve(&[ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 4, 12)]);
    assert_eq!(m.completed, 1);
    assert!((m.mean_latency_s - service_s(4, 12)).abs() < 1e-12);
    assert!((m.busy_fraction - 1.0).abs() < 1e-9);
}

#[test]
fn overload_grows_tail_latency() {
    let spec = LoadSpec::standard(task(), 4, 12);
    let service = service_s(4, 12);
    // Arrivals at 3x the service rate: the queue builds, so p99 far
    // exceeds a light load's.
    let heavy = serve(&poisson_requests(&spec, 60, 3.0 / service, 1));
    let light = serve(&poisson_requests(&spec, 60, 0.2 / service, 2));
    assert!(heavy.p99_s > light.p99_s * 2.0, "heavy p99 {} vs light {}", heavy.p99_s, light.p99_s);
    assert!(heavy.busy_fraction > light.busy_fraction);
}

#[test]
fn throughput_saturates_at_service_rate() {
    let spec = LoadSpec::standard(task(), 4, 12);
    let service = service_s(4, 12);
    let m = serve(&poisson_requests(&spec, 80, 10.0 / service, 3));
    assert!(m.throughput_rps <= 1.0 / service * 1.01);
    assert!(m.throughput_rps > 1.0 / service * 0.9);
}

#[test]
fn percentiles_are_ordered() {
    let m = serve(&poisson_requests(&LoadSpec::standard(task(), 2, 12), 50, 1000.0, 4));
    assert!(m.p50_s <= m.p95_s && m.p95_s <= m.p99_s);
    assert!(m.mean_latency_s > 0.0);
}
