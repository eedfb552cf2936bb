//! The `fleet` workload: one operation is one `simulate_fleet` of the
//! `planet_sweep` shape at 128 replicas — a diurnal + flash-crowd trace
//! of four requests per replica at load 0.7, seeded crash faults at
//! span-relative MTBF 1 and MTTR 0.02, round-robin routing, batches of up
//! to 4, queues of 64, the event-driven engine.
//!
//! Each run simulates one seeded trace repeatedly. Every simulation must
//! account for every offered request and repeat the first simulation's
//! deterministic counts exactly.

use std::hint::black_box;
use std::time::Instant;

use cta_events::{CalendarQueue, DetRng, EventKey};
use cta_serve::{
    poisson_requests, simulate_fleet, AdmissionPolicy, BatchPolicy, CostModel, FaultPlan,
    FleetConfig, FleetEngine, FleetReport, LoadSpec, RoutingPolicy, ServeRequest,
};
use cta_sim::{CtaSystem, SystemConfig};
use cta_workloads::{case_task, mini_case, DiurnalSpec, FlashCrowd};

use crate::alloc;
use crate::report::Outcome;
use crate::run::{
    best_mean, closed_loop, digest, end_to_end, overhead_pct, time, Meter, RunCfg, Setup,
};
use crate::stats::mean;
use crate::trace::Tracer;

/// The engine every fleet and chaos simulation of the benchmark runs on.
/// The builder's default is the step-granular engine, so the choice is
/// made here, once.
pub const ENGINE: FleetEngine = FleetEngine::EventDriven;

/// Offered load per replica, relative to one request's solo service time.
const LOAD: f64 = 0.7;
/// Requests in the trace per replica.
const REQUESTS_PER_REPLICA: usize = 4;
/// Mean time between failures and time to repair, relative to the span
/// of the trace.
const MTBF_FACTOR: f64 = 1.0;
const MTTR_FACTOR: f64 = 0.02;

/// Seeded traces each run cycles through.
const INPUTS: usize = 4;

/// One seeded trace and the configuration that serves it.
struct Fleet {
    requests: Vec<ServeRequest>,
    cfg: FleetConfig,
}

/// The run's traces, and the system whose cost model prices them.
struct Fleets {
    inputs: Vec<Fleet>,
    system: CtaSystem,
}

/// The deterministic figures of one simulation; every simulation of a run
/// must repeat the first one's.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    events: u64,
    completed: usize,
    shed: usize,
    retried: usize,
    goodput_bits: u64,
    p99_bits: u64,
}

impl Counts {
    fn of(r: &FleetReport) -> Self {
        let m = &r.metrics;
        Self {
            events: r.events_processed,
            completed: m.completed,
            shed: m.shed,
            retried: m.retried,
            goodput_bits: m.goodput_rps.to_bits(),
            p99_bits: m.latency.as_ref().map_or(0, |l| l.p99_s.to_bits()),
        }
    }
}

/// The trace: `planet_sweep`'s four day/night cycles (night at 0.25x)
/// with a 4x flash crowd early in the second cycle.
fn diurnal_requests(spec: &LoadSpec, count: usize, rate: f64, seed: u64) -> Vec<ServeRequest> {
    let period = (count as f64 / rate / 4.0).max(1e-6);
    let diurnal = DiurnalSpec::new(rate, period, 0.6, 0.25).with_flash(FlashCrowd::new(
        1.1 * period,
        0.2 * period,
        4.0,
    ));
    diurnal
        .arrival_times(count, seed)
        .into_iter()
        .enumerate()
        .map(|(id, t)| {
            ServeRequest::uniform(id as u64, t, spec.class, spec.task, spec.layers, spec.heads)
        })
        .collect()
}

fn fleet_config(replicas: usize, requests: &[ServeRequest], seed: u64) -> FleetConfig {
    let span = requests.last().map_or(0.0, |r| r.arrival_s).max(1e-6);
    FleetConfig::builder(SystemConfig::paper())
        .replicas(replicas)
        .routing(RoutingPolicy::RoundRobin)
        .admission(AdmissionPolicy::bounded(64))
        .batch(BatchPolicy::up_to(4))
        .engine(ENGINE)
        .faults(FaultPlan::seeded(
            replicas,
            2.0 * span,
            MTBF_FACTOR * span,
            MTTR_FACTOR * span,
            seed,
        ))
        .build()
        .expect("a seeded fault plan is valid for its own fleet")
}

/// Builds [`INPUTS`] traces and their configurations; with a tracer, each
/// step runs in a span.
fn setup(run: &RunCfg, mut tr: Option<&mut Tracer>) -> Fleets {
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
    let system = CtaSystem::new(SystemConfig::paper());
    let probe = poisson_requests(&spec, 1, 1.0, run.seed);
    let solo = CostModel::new().request_service_s(&system, &probe[0]);
    let replicas = run.size(128, 32);
    let count = replicas * REQUESTS_PER_REPLICA;
    let rate = LOAD * replicas as f64 / solo;
    let inputs = (0..INPUTS as u64)
        .map(|i| {
            let gen = || diurnal_requests(&spec, count, rate, run.derive(7, i));
            let requests = match tr.as_deref_mut() {
                Some(tr) => tr.span("workloads.trace_gen", |_| gen()),
                None => gen(),
            };
            let build = || fleet_config(replicas, &requests, run.derive(8, i));
            let cfg = match tr.as_deref_mut() {
                Some(tr) => tr.span("serve.config_build", |_| build()),
                None => build(),
            };
            Fleet { requests, cfg }
        })
        .collect();
    Fleets { inputs, system }
}

/// Checks one simulation: every offered request completed or shed, and
/// the deterministic counts equal the first simulation's of that trace.
fn check(out: &mut Outcome, f: &Fleet, report: &FleetReport, first: &mut Option<Counts>) {
    let m = &report.metrics;
    let counts = Counts::of(report);
    let reference = *first.get_or_insert(counts);
    out.check(
        m.offered == f.requests.len() && m.completed + m.shed == m.offered && counts == reference,
    );
}

fn inputs_note(fl: &Fleets) -> String {
    let arrivals = fl.inputs.iter().flat_map(|f| f.requests.iter().map(|r| r.arrival_s.to_bits()));
    format!("inputs: {:016x}", digest(arrivals))
}

/// Every trace's first-simulation counts.
fn firsts(first: &[Option<Counts>]) -> Vec<Counts> {
    first.iter().map(|c| c.expect("every round simulates every trace")).collect()
}

/// The untraced fleet run.
pub fn fleet(run: &RunCfg) -> Outcome {
    let (mut set_up, fl) = Setup::first(|| setup(run, None));
    let mut meter = Meter::start();
    let mut out = Outcome::default();
    out.note(inputs_note(&fl));
    let mut first = vec![None; INPUTS];
    let mut op_s = Vec::new();
    closed_loop(run.seconds, &mut set_up, |_| {
        for (f, first) in fl.inputs.iter().zip(&mut first) {
            let (report, s) = meter.op(|| simulate_fleet(&f.cfg, &f.requests));
            check(&mut out, f, &report, first);
            op_s.push(s);
        }
    });
    let counts = firsts(&first);
    let events: u64 = counts.iter().map(|c| c.events).sum();
    end_to_end(
        &mut out,
        set_up.median_s(),
        &meter,
        &op_s,
        INPUTS,
        events as f64,
        "simulated events",
    );
    out.note(format!(
        "each simulation: {} requests on {} replicas, {:.0} events on average",
        fl.inputs[0].requests.len(),
        fl.inputs[0].cfg.replicas,
        events as f64 / INPUTS as f64
    ));
    out
}

/// Nanoseconds per `CalendarQueue` hold (one pop and one schedule) at a
/// steady occupancy of `occupancy` events.
fn hold_ns(occupancy: usize, seed: u64) -> f64 {
    const HOLDS: u64 = 200_000;
    let mut rng = DetRng::seeded(seed);
    let mut q = CalendarQueue::new();
    let mut t = 0.0f64;
    for i in 0..occupancy as u64 {
        t += rng.next_f64();
        q.schedule(EventKey::new(t, (i % 5) as u8, i), i);
    }
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..HOLDS {
        let (k, v) = q.pop().expect("the queue holds its occupancy");
        acc = acc.wrapping_add(v);
        let next = k.t + occupancy as f64 * rng.next_f64();
        q.schedule(EventKey::new(next, (i % 5) as u8, occupancy as u64 + i), v);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / HOLDS as f64
}

/// Nanoseconds per warm `CostModel::step_layer` on one layer of `request`.
fn step_layer_ns(system: &CtaSystem, request: &ServeRequest) -> f64 {
    const CALLS: u32 = 20_000;
    let tasks = &request.layer_tasks[0];
    let mut cost = CostModel::new();
    black_box(cost.step_layer(system, tasks));
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(cost.step_layer(system, black_box(tasks)));
    }
    start.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// The traced fleet run: each round simulates every trace once plainly
/// and once in a span with its allocations counted, then times the event
/// queue at the simulations' occupancy and the cost model on the traces'
/// layer shape.
pub fn fleet_traced(run: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (mut set_up, fl) = Setup::first(|| setup(run, None));
    let mut out = Outcome::default();
    out.note(inputs_note(&fl));
    // Set-up again, step by step in spans, for its per-layer split.
    for _ in 0..crate::run::SETUP_REPS {
        black_box(setup(run, Some(tr)));
    }
    // How many task shapes the traces make a cost model price.
    let mut cost = CostModel::new();
    for r in fl.inputs.iter().flat_map(|f| &f.requests) {
        cost.request_service_s(&fl.system, r);
    }

    let mut first = vec![None; INPUTS];
    let (mut plain_s, mut sim_s) = (Vec::new(), Vec::new());
    let (mut allocs, mut bytes) = (0u64, 0u64);
    // (mean, max) sampled queue occupancy of each trace's first traced run.
    let mut queue = Vec::new();
    let (mut hold, mut step) = (Vec::new(), Vec::new());
    closed_loop(run.seconds, &mut set_up, |round| {
        for (f, first) in fl.inputs.iter().zip(&mut first) {
            let (report, s) = time(|| simulate_fleet(&f.cfg, &f.requests));
            check(&mut out, f, &report, first);
            plain_s.push(s);
            drop(report);

            tr.next_op();
            let ((report, counted), s) = time(|| {
                tr.span("bench.fleet", |tr| {
                    tr.span("serve.simulate", |_| {
                        let scope = alloc::Scope::start();
                        let report = simulate_fleet(&f.cfg, &f.requests);
                        (report, scope.read())
                    })
                })
            });
            sim_s.push(s);
            check(&mut out, f, &report, first);
            if round == 0 {
                allocs += counted.0;
                bytes += counted.1;
                let samples = &report.event_queue_samples;
                let max = samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
                queue.push((mean(samples.iter().map(|&(_, d)| d as f64)), max));
            }
        }
        let occupancy = mean(queue.iter().map(|q| q.0)).round().max(1.0) as usize;
        hold.push(tr.span("events.hold", |_| hold_ns(occupancy, run.seed)));
        let request = &fl.inputs[0].requests[0];
        step.push(tr.span("serve.cost_step_layer", |_| step_layer_ns(&fl.system, request)));
    });

    let counts = firsts(&first);
    let per_sim = |f: fn(&Counts) -> f64| mean(counts.iter().map(f));
    let events: u64 = counts.iter().map(|c| c.events).sum();
    out.set("serve.sim_s", best_mean(&sim_s, INPUTS));
    out.set("serve.allocs_per_event", allocs as f64 / events as f64);
    out.set("serve.alloc_bytes_per_event", bytes as f64 / events as f64);
    out.set("serve.cost_step_layer_ns", best_mean(&step, 1));
    out.set("events.hold_ns", best_mean(&hold, 1));
    out.set("serve.cost_shapes", cost.distinct_shapes() as f64);
    out.set("events.queue_len_mean", mean(queue.iter().map(|q| q.0)));
    out.set("events.queue_len_max", queue.iter().map(|q| q.1).max().unwrap_or(0) as f64);
    out.set("serve.events", per_sim(|c| c.events as f64));
    out.set("serve.requests", mean(fl.inputs.iter().map(|f| f.requests.len() as f64)));
    out.set("serve.completed", per_sim(|c| c.completed as f64));
    out.set("serve.shed", per_sim(|c| c.shed as f64));
    out.set("serve.retried", per_sim(|c| c.retried as f64));
    out.set("serve.goodput_rps", per_sim(|c| f64::from_bits(c.goodput_bits)));
    out.set("serve.p99_s", per_sim(|c| f64::from_bits(c.p99_bits)));
    out.set("workloads.trace_gen_s", tr.best_ms("workloads.trace_gen", INPUTS) / 1e3);
    out.set("serve.config_build_us", tr.best_ms("serve.config_build", INPUTS) * 1e3);
    out.set("trace.overhead_pct", overhead_pct(&sim_s, &plain_s, INPUTS));
    out
}
