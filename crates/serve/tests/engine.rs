//! Cross-engine equivalence: the calendar-queue event core must be a
//! drop-in replacement for the step-granular scan.
//!
//! [`FleetEngine::EventDriven`] routes control flow through
//! `cta-events` instead of scanning every replica for the next due
//! instant, but both drivers call the *same* handler code in the same
//! order, so every float operation — and therefore every report byte
//! and every trace byte — must be identical. These tests pin that
//! contract where it is most likely to crack:
//!
//! * randomly drawn fleet shapes (routing × batching × admission);
//! * seeded crash/recovery schedules (back-dated requeues, outage
//!   no-ops);
//! * the full overload-control stack (brownout ladder, breakers,
//!   hedged dispatch — including back-dated hedge-copy steps);
//! * coincident timestamps (equal arrivals resolved by request id);
//! * the telemetry stream: identical `RingBufferSink` bytes, so a
//!   trace from either engine is *the* trace.
//!
//! The only intentional differences: `event_queue_samples` is populated
//! by the event driver alone (the step scan has no queue to sample), so
//! reports are compared with it cleared.

use cta_serve::{
    mmpp_requests, poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy,
    BatchPolicy, FaultPlan, FleetConfig, FleetEngine, FleetReport, LoadSpec, MmppParams,
    OverloadControl, QosClass, RoutingPolicy, ServeRequest,
};
use cta_sim::{AttentionTask, SystemConfig};
use cta_telemetry::RingBufferSink;
use proptest::prelude::*;

fn spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 3, 4)
}

fn config(replicas: usize, route: u8, batch: usize, depth: usize) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = match route % 3 {
        0 => RoutingPolicy::RoundRobin,
        1 => RoutingPolicy::JoinShortestQueue,
        _ => RoutingPolicy::LeastOutstandingWork,
    };
    cfg.batch = BatchPolicy::up_to(batch);
    cfg.admission = AdmissionPolicy::bounded(depth);
    cfg
}

/// Runs the same (config, trace) under both engines and returns the pair
/// of reports with the event-only queue samples cleared, ready for full
/// `PartialEq` comparison.
fn both_engines(cfg: &FleetConfig, requests: &[ServeRequest]) -> (FleetReport, FleetReport) {
    let mut step_cfg = cfg.clone();
    step_cfg.engine = FleetEngine::StepGranular;
    let step = simulate_fleet(&step_cfg, requests);
    let mut event_cfg = cfg.clone();
    event_cfg.engine = FleetEngine::EventDriven;
    let mut event = simulate_fleet(&event_cfg, requests);
    assert!(!event.event_queue_samples.is_empty(), "the event driver samples its queue occupancy");
    assert!(step.event_queue_samples.is_empty(), "the step driver has no queue to sample");
    event.event_queue_samples.clear();
    (step, event)
}

#[test]
fn single_fifo_reports_are_identical() {
    let cfg = FleetConfig::single_fifo(SystemConfig::paper());
    let requests = poisson_requests(&spec(), 40, 20_000.0, 3);
    let (step, event) = both_engines(&cfg, &requests);
    assert_eq!(step, event);
}

#[test]
fn seeded_fault_schedules_survive_the_engine_swap() {
    // Crashes evict work mid-flight, requeue it under the retry budget,
    // and recovery replays back-dated step times — the paths where an
    // event queue most easily drifts from a rescan.
    for seed in [1u64, 9, 42] {
        let mut cfg = config(3, 1, 4, 16);
        let requests = poisson_requests(&spec(), 80, 40_000.0, seed);
        let span = requests.last().expect("nonempty").arrival_s;
        cfg.faults = FaultPlan::seeded(3, 2.0 * span, span / 2.0, span / 20.0, seed);
        let (step, event) = both_engines(&cfg, &requests);
        assert_eq!(step, event, "seed {seed}");
        assert_eq!(step.events_processed, event.events_processed, "seed {seed}");
    }
}

#[test]
fn full_overload_stack_is_engine_independent() {
    // Brownout + breakers + hedging under bursty MMPP load and faults:
    // hedge timers, hedge-win cancellations and breaker probes all flow
    // through the calendar queue in event mode.
    let mut cfg = config(3, 1, 4, 12);
    let mut load = spec();
    load.class = QosClass::interactive(0.05);
    let requests = mmpp_requests(&load, 120, MmppParams::new(10_000.0, 80_000.0, 0.1), 7);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(3, 2.0 * span, span, span / 10.0, 7);
    cfg.overload = OverloadControl::standard();
    let (step, event) = both_engines(&cfg, &requests);
    assert_eq!(step, event);
    assert!(step.metrics.overload.hedged > 0, "the scenario must actually hedge");
}

#[test]
fn coincident_arrivals_resolve_by_request_id_in_both_engines() {
    // Equal timestamps are legal (the sortedness precondition is `<=`);
    // both engines must serve them in id order. Two
    // bursts of four simultaneous arrivals, one at t=0.
    let s = spec();
    let mk = |id: u64, t: f64| ServeRequest::uniform(id, t, s.class, s.task, s.layers, s.heads);
    let requests: Vec<ServeRequest> =
        (0..4u64).map(|id| mk(id, 0.0)).chain((4..8u64).map(|id| mk(id, 1e-3))).collect();
    let cfg = config(2, 0, 2, 4);
    let (step, event) = both_engines(&cfg, &requests);
    assert_eq!(step, event);
    // The admitted prefix is deterministic: ids route in order.
    assert_eq!(step.metrics.completed + step.metrics.shed, 8);
}

#[test]
fn trace_bytes_are_engine_independent() {
    // The telemetry stream is written from inside the shared handlers,
    // so the two engines must emit byte-identical event streams — the
    // property the golden trace-SHA pins rely on.
    let mut cfg = config(2, 2, 3, 8);
    let requests = poisson_requests(&spec(), 60, 30_000.0, 13);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(2, 2.0 * span, span, span / 10.0, 13);

    cfg.engine = FleetEngine::StepGranular;
    let mut step_sink = RingBufferSink::with_capacity(1 << 16);
    let step = simulate_fleet_traced(&cfg, &requests, &mut step_sink);

    cfg.engine = FleetEngine::EventDriven;
    let mut event_sink = RingBufferSink::with_capacity(1 << 16);
    let mut event = simulate_fleet_traced(&cfg, &requests, &mut event_sink);

    assert_eq!(step_sink.dropped(), 0);
    assert_eq!(event_sink.dropped(), 0);
    assert_eq!(step_sink.events(), event_sink.events(), "trace streams diverged");
    event.event_queue_samples.clear();
    assert_eq!(step, event);
}

#[test]
fn queue_samples_are_ordered_and_bounded() {
    let mut cfg = config(4, 1, 4, 16);
    cfg.engine = FleetEngine::EventDriven;
    let requests = poisson_requests(&spec(), 100, 50_000.0, 21);
    let report = simulate_fleet(&cfg, &requests);
    assert!(!report.event_queue_samples.is_empty());
    for w in report.event_queue_samples.windows(2) {
        assert!(w[0].0 <= w[1].0, "samples follow the virtual clock");
    }
    for &(t, depth) in &report.event_queue_samples {
        assert!(t.is_finite() && t >= 0.0);
        // The queue never holds more than one step event per replica
        // plus the chained arrival/fault pair plus live retry/hedge
        // timers; a loose sanity ceiling catches leaks.
        assert!(depth <= 4 + 2 * requests.len(), "queue depth {depth} leaks events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_fleet_shapes(
        replicas in 1usize..5,
        route in 0u8..3,
        batch in 1usize..4,
        depth in 1usize..10,
        count in 1usize..60,
        rate in 1_000.0f64..60_000.0,
        seed in 0u64..1_000,
        faulty in 0u8..2,
    ) {
        let mut cfg = config(replicas, route, batch, depth);
        let requests = poisson_requests(&spec(), count, rate, seed);
        if faulty == 1 {
            let span = requests.last().expect("nonempty").arrival_s.max(1e-6);
            cfg.faults = FaultPlan::seeded(replicas, 2.0 * span, span, span / 10.0, seed);
        }
        let (step, event) = both_engines(&cfg, &requests);
        prop_assert_eq!(step, event);
    }
}
