//! The `chaos` workload: one operation is one chaos seed — a
//! `ChaosScenario::sample` with default `ChaosParams` (2 to 4 replicas,
//! every fault class, tenancy, brownout, detector and sessions mixed by
//! seed), its trace and fleet configuration, one event-driven
//! `simulate_fleet`, and `check_report`. An operation fails when the
//! invariant library reports any violation.
//!
//! A run cycles over a fixed list of [`SEEDS`] chaos seeds derived from
//! the workload seed, so each pass sees the same scenario mix.

use std::hint::black_box;

use cta_chaos::{check_report, ChaosParams, ChaosScenario, Mutation};
use cta_serve::{simulate_fleet, FleetReport};

use crate::alloc;
use crate::fleet::ENGINE;
use crate::report::Outcome;
use crate::run::{closed_loop, digest, end_to_end, overhead_pct, time, Meter, RunCfg, Setup};
use crate::trace::Tracer;

/// Chaos seeds per pass.
const SEEDS: usize = 2048;

struct Chaos {
    params: ChaosParams,
    seeds: Vec<u64>,
}

/// Applies `mutation` to a report the way `cta_chaos::run_chaos` does:
/// after simulation, where a bookkeeping bug would sit.
fn mutate(mutation: Mutation, report: &mut FleetReport) {
    match mutation {
        Mutation::None => {}
        Mutation::DropShed => {
            report.shed.pop();
        }
    }
}

/// One chaos seed end to end; returns the scenario, the events simulated
/// and the violation count.
fn seed_op(c: &Chaos, seed: u64, mutation: Mutation) -> (ChaosScenario, u64, usize) {
    let sc = ChaosScenario::sample(seed, &c.params);
    let trace = sc.trace();
    let cfg = sc.fleet_config(ENGINE);
    let mut report = simulate_fleet(&cfg, &trace);
    mutate(mutation, &mut report);
    let violations = check_report(&sc, &trace, &report).len();
    (sc, report.events_processed, violations)
}

fn setup(run: &RunCfg) -> Chaos {
    let params = ChaosParams::default();
    params.validate().expect("the default chaos parameters are valid");
    let seeds: Vec<u64> = (0..run.size(SEEDS, 24) as u64).map(|i| run.derive(9, i)).collect();
    let c = Chaos { params, seeds };
    // Expand every seed once: each scenario's plan validates as it is
    // sampled, so a bad seed list fails here rather than mid-measurement.
    for &seed in &c.seeds {
        let sc = ChaosScenario::sample(seed, &c.params);
        black_box((sc.trace(), sc.fleet_config(ENGINE)));
    }
    c
}

fn inputs_note(c: &Chaos) -> String {
    format!("inputs: {:016x}", digest(c.seeds.iter().copied()))
}

/// The untraced chaos run.
pub fn chaos(run: &RunCfg) -> Outcome {
    let (mut set_up, c) = Setup::first(|| setup(run));
    let mut meter = Meter::start();
    let mutation = run.mutation;
    let mut out = Outcome::default();
    out.note(inputs_note(&c));
    let mut op_s = Vec::new();
    closed_loop(run.seconds, &mut set_up, |_| {
        for &seed in &c.seeds {
            let ((_, _, violations), s) = meter.op(|| seed_op(&c, seed, mutation));
            out.check(violations == 0);
            op_s.push(s);
        }
    });
    let n = c.seeds.len();
    end_to_end(&mut out, set_up.median_s(), &meter, &op_s, n, n as f64, "chaos seeds");
    out
}

/// Feature shares of a pass: the fraction of scenarios with each one
/// armed or each fault class present.
fn shares(scenarios: &[ChaosScenario]) -> [(&'static str, f64); 10] {
    let share = |f: &dyn Fn(&ChaosScenario) -> bool| {
        scenarios.iter().filter(|s| f(s)).count() as f64 / scenarios.len() as f64
    };
    [
        ("chaos.share.tenancy", share(&|s| s.tenants > 0)),
        ("chaos.share.brownout", share(&|s| s.brownout)),
        ("chaos.share.detector", share(&|s| s.detector)),
        ("chaos.share.sessions", share(&|s| s.sessions)),
        ("chaos.share.crash", share(&|s| !s.plan.crashes.is_empty())),
        ("chaos.share.zone", share(&|s| !s.plan.zone_outages.is_empty())),
        ("chaos.share.partition", share(&|s| !s.plan.partitions.is_empty())),
        ("chaos.share.gray", share(&|s| !s.plan.gray.is_empty())),
        ("chaos.share.slow", share(&|s| !s.plan.slowdowns.is_empty())),
        ("chaos.share.stall", share(&|s| !s.plan.link_stalls.is_empty())),
    ]
}

/// The traced chaos run: each round makes one plain pass and one pass
/// with every step of every seed in a span.
pub fn chaos_traced(run: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (mut set_up, c) = Setup::first(|| setup(run));
    let mutation = run.mutation;
    let mut out = Outcome::default();
    out.note(inputs_note(&c));

    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut scenarios = Vec::with_capacity(c.seeds.len());
    let (mut events, mut allocs, mut bytes, mut violations) = (0u64, 0u64, 0u64, 0usize);
    closed_loop(run.seconds, &mut set_up, |round| {
        for &seed in &c.seeds {
            let ((_, _, v), s) = time(|| seed_op(&c, seed, mutation));
            out.check(v == 0);
            plain_s.push(s);
        }
        for &seed in &c.seeds {
            tr.next_op();
            let ((sc, e, v, counted), s) = time(|| {
                tr.span("bench.chaos", |tr| {
                    let sc = tr.span("chaos.sample", |_| ChaosScenario::sample(seed, &c.params));
                    let trace = tr.span("chaos.trace", |_| sc.trace());
                    let cfg = tr.span("chaos.config", |_| sc.fleet_config(ENGINE));
                    let (mut report, counted) = tr.span("serve.simulate", |_| {
                        let scope = alloc::Scope::start();
                        let report = simulate_fleet(&cfg, &trace);
                        (report, scope.read())
                    });
                    mutate(mutation, &mut report);
                    let v = tr.span("chaos.check", |_| check_report(&sc, &trace, &report).len());
                    (sc, report.events_processed, v, counted)
                })
            });
            traced_s.push(s);
            out.check(v == 0);
            if round == 0 {
                violations += v;
                events += e;
                allocs += counted.0;
                bytes += counted.1;
                scenarios.push(sc);
            }
        }
    });

    let n = c.seeds.len();
    let per_seed_us = |name: &str| tr.best_ms(name, n) * 1e3;
    out.set("chaos.sample_us", per_seed_us("chaos.sample"));
    out.set("chaos.trace_us", per_seed_us("chaos.trace"));
    out.set("chaos.config_us", per_seed_us("chaos.config"));
    out.set("chaos.sim_us", per_seed_us("serve.simulate"));
    out.set("chaos.check_us", per_seed_us("chaos.check"));
    out.set("serve.sim_s", per_seed_us("serve.simulate") / 1e6);
    out.set("serve.allocs_per_event", allocs as f64 / events as f64);
    out.set("serve.alloc_bytes_per_event", bytes as f64 / events as f64);
    out.set("chaos.events_per_seed", events as f64 / scenarios.len() as f64);
    for (name, v) in shares(&scenarios) {
        out.set(name, v);
    }
    out.set("chaos.violations", violations as f64);
    out.set("trace.overhead_pct", overhead_pct(&traced_s, &plain_s, n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_chaos::{run_chaos, EngineChoice};

    /// The benchmark's mutation fails exactly the seeds `run_chaos` fails
    /// under the same mutation, and none without it.
    #[test]
    fn drop_shed_fails_where_run_chaos_does() {
        let c = Chaos { params: ChaosParams::default(), seeds: Vec::new() };
        let mut failing = 0;
        for seed in 0..48 {
            let (sc, _, violations) = seed_op(&c, seed, Mutation::DropShed);
            let reference = run_chaos(&sc, EngineChoice::Event, Mutation::DropShed);
            assert_eq!(violations, reference.violations.len(), "seed {seed}");
            assert_eq!(seed_op(&c, seed, Mutation::None).2, 0, "seed {seed} passes untouched");
            failing += usize::from(violations > 0);
        }
        assert!(failing > 0, "some seed sheds, so dropping a shed record must fail it");
    }
}
