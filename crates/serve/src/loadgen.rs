//! Open-loop load generators.
//!
//! All generators are seeded and deterministic: the same arguments always
//! produce the same trace, which is what makes fleet sweeps reproducible
//! and lets the property tests assert bitwise-identical reports. These
//! generators are the only way the crate builds a request trace:
//!
//! * [`poisson_requests`] — memoryless arrivals at a constant rate, the
//!   standard open-loop model;
//! * [`mmpp_requests`] — a two-state Markov-modulated Poisson process
//!   (calm/burst), the classic bursty-traffic model that stresses
//!   admission control far harder than a Poisson stream of equal mean
//!   rate;
//! * [`diurnal_requests`] — a day/night cycle with a flash crowd
//!   ([`cta_workloads::DiurnalSpec`]), the planet-scale load shape;
//! * [`session_requests`] — adopts a `cta-workloads` multi-turn session
//!   trace ([`cta_workloads::session_trace`]) as session-tagged decode
//!   requests.

use cta_sim::AttentionTask;
use cta_workloads::{session_trace, DiurnalSpec, FlashCrowd, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{QosClass, ServeRequest, SessionTurn};

/// The request shape every generated arrival carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Service class of every generated request.
    pub class: QosClass,
    /// Head task replicated across the model.
    pub task: AttentionTask,
    /// Layers per request.
    pub layers: usize,
    /// Heads per layer.
    pub heads: usize,
}

impl LoadSpec {
    /// A spec with the standard class.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or `heads == 0`.
    pub fn standard(task: AttentionTask, layers: usize, heads: usize) -> Self {
        assert!(layers > 0 && heads > 0, "layers and heads must be positive");
        Self { class: QosClass::standard(), task, layers, heads }
    }
}

/// Parameters of the two-state MMPP burst process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppParams {
    /// Arrival rate in the calm state, requests/second.
    pub calm_rate_rps: f64,
    /// Arrival rate in the burst state, requests/second.
    pub burst_rate_rps: f64,
    /// Probability of switching state after each arrival (geometric
    /// phase lengths with mean `1 / switch_prob` arrivals).
    pub switch_prob: f64,
}

impl MmppParams {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if either rate is non-positive or `switch_prob` is outside
    /// `(0, 1]`.
    pub fn new(calm_rate_rps: f64, burst_rate_rps: f64, switch_prob: f64) -> Self {
        assert!(calm_rate_rps > 0.0 && burst_rate_rps > 0.0, "rates must be positive");
        assert!(switch_prob > 0.0 && switch_prob <= 1.0, "switch probability must be in (0, 1]");
        Self { calm_rate_rps, burst_rate_rps, switch_prob }
    }
}

/// One exponential inter-arrival sample at `rate` via inverse transform;
/// the uniform is clamped away from 0 so `ln` stays finite.
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln() / rate
}

/// A Poisson arrival trace: `count` requests of identical shape with
/// exponential inter-arrival times at `rate_rps`. Ids are `0..count` in
/// arrival order.
///
/// # Panics
///
/// Panics if `count == 0` or `rate_rps <= 0`.
pub fn poisson_requests(
    spec: &LoadSpec,
    count: usize,
    rate_rps: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(count > 0, "at least one request");
    assert!(rate_rps > 0.0, "rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count as u64)
        .map(|id| {
            t += exp_sample(&mut rng, rate_rps);
            ServeRequest::uniform(id, t, spec.class, spec.task, spec.layers, spec.heads)
        })
        .collect()
}

/// A bursty arrival trace from a two-state MMPP: arrivals are exponential
/// at the current state's rate, and the chain flips state with probability
/// [`MmppParams::switch_prob`] after each arrival. The trace starts in the
/// calm state. Ids are `0..count` in arrival order.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn mmpp_requests(
    spec: &LoadSpec,
    count: usize,
    params: MmppParams,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(count > 0, "at least one request");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut bursting = false;
    (0..count as u64)
        .map(|id| {
            let rate = if bursting { params.burst_rate_rps } else { params.calm_rate_rps };
            t += exp_sample(&mut rng, rate);
            if rng.gen_range(0.0f64..1.0) < params.switch_prob {
                bursting = !bursting;
            }
            ServeRequest::uniform(id, t, spec.class, spec.task, spec.layers, spec.heads)
        })
        .collect()
}

/// A diurnal + flash-crowd arrival trace: `rate_rps` is the daytime rate
/// of four day/night cycles spanning the trace's nominal length
/// (`count / rate_rps`), with the night at 0.25x and a 4x flash crowd
/// early in the second cycle. Ids are `0..count` in arrival order.
///
/// # Panics
///
/// Panics if `count == 0`, or `rate_rps` is not positive or its 4x
/// flash-crowd peak is not finite.
pub fn diurnal_requests(
    spec: &LoadSpec,
    count: usize,
    rate_rps: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!((4.0 * rate_rps).is_finite(), "diurnal peak rate must be finite");
    let period = (count as f64 / rate_rps / 4.0).max(1e-6);
    let diurnal = DiurnalSpec::new(rate_rps, period, 0.6, 0.25).with_flash(FlashCrowd::new(
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

/// A multi-turn decode-session workload as fleet requests: every turn of
/// [`cta_workloads::session_trace`] becomes a session-tagged request of
/// `spec`'s shape and class, with its expected level-2 re-cluster count
/// derived from the streaming compressor's drift trigger
/// ([`cta_sim::reclusters_for`] at `drift_per_token` /
/// `recluster_threshold`). Ids follow the trace's sorted turn order, so
/// the result satisfies the runtime's arrival-sorted precondition.
///
/// # Panics
///
/// Panics if `drift_per_token < 0` or `recluster_threshold <= 0`.
pub fn session_requests(
    spec: &LoadSpec,
    sessions: &SessionSpec,
    drift_per_token: f64,
    recluster_threshold: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    session_trace(sessions, seed)
        .iter()
        .enumerate()
        .map(|(id, e)| {
            let reclusters = cta_sim::reclusters_for(
                e.decode_tokens as u64,
                drift_per_token,
                recluster_threshold,
            ) as u32;
            ServeRequest::uniform(
                id as u64,
                e.arrival_s,
                spec.class,
                spec.task,
                spec.layers,
                spec.heads,
            )
            .with_session(SessionTurn {
                session: e.session,
                turn: e.turn,
                decode_tokens: e.decode_tokens,
                reclusters,
                last: e.last,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LoadSpec {
        LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 2, 4)
    }

    fn sorted(rs: &[ServeRequest]) -> bool {
        rs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s)
    }

    #[test]
    fn poisson_is_sorted_deterministic_and_rate_scaled() {
        let a = poisson_requests(&spec(), 200, 100.0, 42);
        let b = poisson_requests(&spec(), 200, 100.0, 42);
        assert_eq!(a, b);
        assert!(sorted(&a));
        assert_eq!(a.len(), 200);
        assert_eq!(a.last().expect("nonempty").id, 199);
        // Mean inter-arrival should be near 1/rate (loose 3-sigma bound).
        let span = a.last().expect("nonempty").arrival_s;
        assert!((1.0..4.0).contains(&span), "200 arrivals at 100 rps span {span}");
        let c = poisson_requests(&spec(), 200, 100.0, 43);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn mmpp_bursts_tighten_interarrivals() {
        let params = MmppParams::new(10.0, 10_000.0, 0.05);
        let rs = mmpp_requests(&spec(), 400, params, 7);
        assert!(sorted(&rs));
        let gaps: Vec<f64> = rs.windows(2).map(|w| w[1].arrival_s - w[0].arrival_s).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        // Burst phases produce gaps far below the mean: a plain Poisson
        // stream at the mean rate essentially never shows a 100x spread.
        assert!(min < mean / 100.0, "min gap {min} vs mean {mean}");
        assert_eq!(rs, mmpp_requests(&spec(), 400, params, 7));
    }

    #[test]
    fn diurnal_is_sorted_deterministic_and_id_ordered() {
        let a = diurnal_requests(&spec(), 64, 5_000.0, 7);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
        assert_eq!(a, diurnal_requests(&spec(), 64, 5_000.0, 7));
    }

    #[test]
    fn session_requests_tag_turns_and_stay_sorted() {
        let s = spec();
        let sess = SessionSpec::new(10, 5.0, 3.0, 1.0);
        let rs = session_requests(&s, &sess, 0.02, 0.5, 9);
        assert_eq!(rs, session_requests(&s, &sess, 0.02, 0.5, 9));
        assert!(sorted(&rs));
        assert!(rs.iter().enumerate().all(|(i, r)| r.id == i as u64));
        // Re-cluster counts follow the drift trigger: one event per
        // ceil(threshold / drift) = 25 decoded tokens.
        for r in &rs {
            let t = r.session.expect("every request is session-tagged");
            assert_eq!(t.reclusters as u64, t.decode_tokens as u64 / 25);
        }
        // Exactly one final turn per session.
        let finals = rs.iter().filter(|r| r.session.expect("tagged").last).count();
        assert_eq!(finals, 10);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn mmpp_rejects_zero_rate() {
        let _ = MmppParams::new(0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "switch probability")]
    fn mmpp_rejects_bad_switch_prob() {
        let _ = MmppParams::new(1.0, 2.0, 0.0);
    }
}
