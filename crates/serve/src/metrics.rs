//! Fleet-level serving metrics.
//!
//! Latency percentiles are exact (computed over every completion through
//! [`cta_sim::latency_percentile`]'s nearest-rank method), not
//! approximated from histogram buckets.

use cta_sim::{latency_percentile, ServingMetrics};

use crate::replica::Completion;
use crate::Shed;

/// Aggregate metrics of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Requests offered to the fleet.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// Completions that met their class deadline (deadline-free classes
    /// always count) per second of makespan.
    pub goodput_rps: f64,
    /// Latency distribution over completions (`None` when everything was
    /// shed), as [`ServingMetrics`]: its `busy_fraction` is the mean
    /// replica utilization.
    pub latency: Option<ServingMetrics>,
    /// Trace start to last completion, seconds.
    pub makespan_s: f64,
    /// Per-replica fraction of the makespan spent executing steps.
    pub per_replica_utilization: Vec<f64>,
    /// Per-replica completion counts.
    pub per_replica_completed: Vec<usize>,
    /// Requests that survived at least one crash-eviction requeue
    /// (completed or eventually shed).
    pub retried: usize,
    /// Total crash-eviction requeues across all requests.
    pub retry_events: usize,
    /// Per-replica fraction of the makespan the replica was up
    /// (`1.0` everywhere on a fault-free run).
    pub per_replica_availability: Vec<f64>,
    /// Overload-control accounting (all zero when
    /// [`OverloadControl::off`](crate::OverloadControl::off) is in force).
    pub overload: OverloadStats,
    /// Per-tenant fairness and isolation accounting (`None` unless the
    /// fleet runs with a tenancy configuration; the runtime fills it in
    /// before publishing the report).
    pub tenancy: Option<cta_tenancy::TenancyStats>,
    /// Failure-detector accounting (`None` unless the fleet runs with a
    /// [`DetectorPolicy`](crate::DetectorPolicy); the runtime fills it in
    /// before publishing the report).
    pub detector: Option<crate::DetectorStats>,
    /// Decode-session accounting (`None` unless the fleet runs with a
    /// [`SessionPolicy`](crate::SessionPolicy); the runtime fills it in
    /// before publishing the report).
    pub sessions: Option<SessionStats>,
}

/// Accounting for long-lived decode sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Distinct sessions in the offered trace.
    pub sessions: usize,
    /// Session turns that completed.
    pub turns_completed: usize,
    /// Session turns that were shed (any reason).
    pub turns_shed: usize,
    /// Sessions that lost at least one turn (every later turn sheds
    /// [`ShedReason::SessionLost`](crate::ShedReason::SessionLost)).
    pub sessions_lost: usize,
    /// Re-prefill events on turns past the first: crash evictions and
    /// non-sticky replica moves that had to rebuild session state.
    pub re_prefills: usize,
    /// `re_prefills` per completed turn (0 when nothing completed).
    pub re_prefill_rate: f64,
    /// Mean inter-token latency over completed turns — end-to-end turn
    /// latency divided by the turn's decode length — seconds/token.
    pub mean_itl_s: f64,
    /// p99 inter-token latency over completed turns, seconds/token
    /// (nearest-rank, like every other percentile in the crate).
    pub p99_itl_s: f64,
}

impl SessionStats {
    /// Builds the aggregate from the engine's counters plus the
    /// per-completed-turn inter-token latencies (unsorted; empty when no
    /// turn completed).
    pub fn new(
        sessions: usize,
        turns_completed: usize,
        turns_shed: usize,
        sessions_lost: usize,
        re_prefills: usize,
        itls_s: &[f64],
    ) -> Self {
        let (mean_itl_s, p99_itl_s) = if itls_s.is_empty() {
            (0.0, 0.0)
        } else {
            let mut sorted = itls_s.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite inter-token latencies"));
            (sorted.iter().sum::<f64>() / sorted.len() as f64, latency_percentile(&sorted, 0.99))
        };
        Self {
            sessions,
            turns_completed,
            turns_shed,
            sessions_lost,
            re_prefills,
            re_prefill_rate: if turns_completed > 0 {
                re_prefills as f64 / turns_completed as f64
            } else {
                0.0
            },
            mean_itl_s,
            p99_itl_s,
        }
    }
}

/// Accounting for the closed-loop overload controls: quality brownout,
/// circuit breakers, and hedged dispatch.
///
/// [`FleetMetrics::from_outcomes`] derives the accuracy-loss figures from
/// the completion stream; the runtime fills the event counters in before
/// publishing the report. With overload control off every field is zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadStats {
    /// Requests that had a hedge copy dispatched.
    pub hedged: usize,
    /// Hedged requests whose *hedge copy* finished first.
    pub hedge_wins: usize,
    /// Hedge copies cancelled after the sibling finished first (each
    /// hedged completion cancels exactly one loser, so on a crash-free
    /// run this equals `hedged` minus any copies still in flight at the
    /// end).
    pub hedge_cancelled: usize,
    /// Brownout ladder transitions (escalations + recoveries) across all
    /// replicas.
    pub brownout_transitions: usize,
    /// Per-replica wall-clock seconds spent executing at a degraded
    /// operating point (level > 0).
    pub per_replica_brownout_s: Vec<f64>,
    /// Circuit-breaker open events across all replicas.
    pub breaker_opens: usize,
    /// Mean pre-measured accuracy loss over completions, percent
    /// (completions served entirely at baseline contribute 0).
    pub mean_accuracy_loss_pct: f64,
    /// Largest per-completion accuracy loss observed, percent.
    pub max_accuracy_loss_pct: f64,
}

impl FleetMetrics {
    /// Builds the aggregate from raw outcomes. `replica_busy_s[i]` is the
    /// wall-clock time replica `i` spent executing; `replica_down_s[i]`
    /// the time it spent crashed.
    ///
    /// # Panics
    ///
    /// Panics if `completed + shed != offered` (the runtime's conservation
    /// invariant), `replica_busy_s` is empty, or the two per-replica
    /// slices disagree in length.
    pub fn from_outcomes(
        offered: usize,
        completions: &[Completion],
        shed: &[Shed],
        replica_busy_s: &[f64],
        replica_down_s: &[f64],
    ) -> Self {
        assert_eq!(completions.len() + shed.len(), offered, "request conservation violated");
        assert!(!replica_busy_s.is_empty(), "at least one replica");
        assert_eq!(replica_busy_s.len(), replica_down_s.len(), "per-replica slices must agree");
        let makespan_s = completions.iter().map(|c| c.finish_s).fold(0.0, f64::max);
        let span = makespan_s.max(f64::EPSILON);
        let latencies: Vec<f64> = completions.iter().map(|c| c.latency_s()).collect();
        let busy_total: f64 = replica_busy_s.iter().sum();
        let latency = if latencies.is_empty() {
            None
        } else {
            // busy fraction = mean over replicas of busy/span.
            Some(ServingMetrics::from_latencies(
                &latencies,
                span,
                busy_total / replica_busy_s.len() as f64,
            ))
        };
        let good = completions.iter().filter(|c| c.deadline_met.unwrap_or(true)).count();
        let mut per_replica_completed = vec![0usize; replica_busy_s.len()];
        for c in completions {
            per_replica_completed[c.replica] += 1;
        }
        let retried = completions.iter().filter(|c| c.retries > 0).count()
            + shed.iter().filter(|s| s.retries > 0).count();
        let retry_events = completions.iter().map(|c| c.retries as usize).sum::<usize>()
            + shed.iter().map(|s| s.retries as usize).sum::<usize>();
        let overload = OverloadStats {
            mean_accuracy_loss_pct: if completions.is_empty() {
                0.0
            } else {
                completions.iter().map(|c| c.accuracy_loss_pct).sum::<f64>()
                    / completions.len() as f64
            },
            max_accuracy_loss_pct: completions
                .iter()
                .map(|c| c.accuracy_loss_pct)
                .fold(0.0, f64::max),
            ..OverloadStats::default()
        };
        Self {
            offered,
            completed: completions.len(),
            shed: shed.len(),
            shed_rate: shed.len() as f64 / offered.max(1) as f64,
            goodput_rps: good as f64 / span,
            latency,
            makespan_s,
            per_replica_utilization: replica_busy_s.iter().map(|b| b / span).collect(),
            per_replica_completed,
            retried,
            retry_events,
            per_replica_availability: replica_down_s
                .iter()
                .map(|d| ((span - d) / span).clamp(0.0, 1.0))
                .collect(),
            overload,
            tenancy: None,
            detector: None,
            sessions: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShedReason;

    fn completion(id: u64, arrival: f64, finish: f64, replica: usize) -> Completion {
        Completion {
            id,
            class: "standard",
            arrival_s: arrival,
            finish_s: finish,
            replica,
            deadline_met: None,
            retries: 0,
            accuracy_loss_pct: 0.0,
            tenant: 0,
            session: None,
        }
    }

    #[test]
    fn session_stats_aggregate_itl_and_rates() {
        let itls = [0.002, 0.001, 0.010, 0.003];
        let s = SessionStats::new(5, 4, 2, 1, 3, &itls);
        assert_eq!((s.sessions, s.turns_completed, s.turns_shed), (5, 4, 2));
        assert_eq!((s.sessions_lost, s.re_prefills), (1, 3));
        assert_eq!(s.re_prefill_rate, 0.75);
        assert!((s.mean_itl_s - 0.004).abs() < 1e-15);
        assert_eq!(s.p99_itl_s, 0.010);
        // No completed turns: every derived figure collapses to zero.
        let empty = SessionStats::new(2, 0, 2, 2, 0, &[]);
        assert_eq!((empty.re_prefill_rate, empty.mean_itl_s, empty.p99_itl_s), (0.0, 0.0, 0.0));
    }

    #[test]
    fn accuracy_loss_aggregates_mean_and_max() {
        let mut degraded = completion(0, 0.0, 1.0, 0);
        degraded.accuracy_loss_pct = 1.8;
        let baseline = completion(1, 0.0, 2.0, 0);
        let m = FleetMetrics::from_outcomes(2, &[degraded, baseline], &[], &[2.0], &[0.0]);
        assert_eq!(m.overload.mean_accuracy_loss_pct, 0.9);
        assert_eq!(m.overload.max_accuracy_loss_pct, 1.8);
        // Counters the runtime fills in stay zero here.
        assert_eq!(m.overload.hedged, 0);
        assert_eq!(m.overload.brownout_transitions, 0);
    }

    #[test]
    fn aggregates_counts_and_percentiles() {
        let completions = vec![
            completion(0, 0.0, 1.0, 0),
            completion(1, 0.0, 3.0, 1),
            completion(2, 1.0, 5.0, 0),
        ];
        let shed = vec![Shed {
            id: 3,
            class: "standard",
            arrival_s: 2.0,
            reason: ShedReason::QueueFull,
            retries: 0,
            tenant: 0,
        }];
        let m = FleetMetrics::from_outcomes(4, &completions, &shed, &[2.0, 3.0], &[0.0, 0.0]);
        assert_eq!((m.offered, m.completed, m.shed), (4, 3, 1));
        assert_eq!(m.shed_rate, 0.25);
        assert_eq!(m.makespan_s, 5.0);
        let lat = m.latency.expect("has completions");
        assert_eq!(lat.completed, 3);
        assert_eq!(lat.p50_s, 3.0); // latencies 1, 3, 4 -> median 3
        assert_eq!(lat.p99_s, 4.0);
        assert_eq!(m.per_replica_completed, vec![2, 1]);
        assert_eq!(m.per_replica_utilization, vec![0.4, 0.6]);
    }

    #[test]
    fn goodput_counts_deadline_misses_out() {
        let mut ok = completion(0, 0.0, 1.0, 0);
        ok.deadline_met = Some(true);
        let mut miss = completion(1, 0.0, 2.0, 0);
        miss.deadline_met = Some(false);
        let m = FleetMetrics::from_outcomes(2, &[ok, miss], &[], &[2.0], &[0.0]);
        assert_eq!(m.goodput_rps, 0.5); // 1 good completion / 2 s
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn all_shed_yields_no_latency_distribution() {
        let shed: Vec<Shed> = (0..3)
            .map(|id| Shed {
                id,
                class: "standard",
                arrival_s: 0.0,
                reason: ShedReason::QueueFull,
                retries: 0,
                tenant: 0,
            })
            .collect();
        let m = FleetMetrics::from_outcomes(3, &[], &shed, &[0.0], &[0.0]);
        assert!(m.latency.is_none());
        assert_eq!(m.shed_rate, 1.0);
        assert_eq!(m.goodput_rps, 0.0);
    }

    #[test]
    #[should_panic(expected = "conservation")]
    fn lost_requests_rejected() {
        let _ = FleetMetrics::from_outcomes(5, &[], &[], &[1.0], &[0.0]);
    }

    #[test]
    fn retry_and_availability_accounting() {
        let mut survived = completion(0, 0.0, 4.0, 0);
        survived.retries = 2;
        let fresh = completion(1, 0.0, 2.0, 1);
        let shed = vec![Shed {
            id: 2,
            class: "standard",
            arrival_s: 1.0,
            reason: ShedReason::ReplicaLost,
            retries: 3,
            tenant: 0,
        }];
        // Makespan 4 s; replica 1 was down for 1 s of it.
        let m = FleetMetrics::from_outcomes(3, &[survived, fresh], &shed, &[2.0, 1.0], &[0.0, 1.0]);
        assert_eq!(m.retried, 2, "one retried completion + one retried shed");
        assert_eq!(m.retry_events, 5);
        assert_eq!(m.per_replica_availability, vec![1.0, 0.75]);
    }

    // --- degenerate completion sets (satellite: percentile hardening) ----

    #[test]
    fn single_completion_pins_every_percentile_to_that_sample() {
        let m = FleetMetrics::from_outcomes(1, &[completion(0, 1.0, 3.0, 0)], &[], &[2.0], &[0.0]);
        let lat = m.latency.expect("one completion");
        assert_eq!(lat.completed, 1);
        // n = 1: the 2 s latency IS the whole distribution.
        assert_eq!((lat.p50_s, lat.p95_s, lat.p99_s), (2.0, 2.0, 2.0));
        assert_eq!(lat.mean_latency_s, 2.0);
    }

    #[test]
    fn two_completions_pin_percentiles_to_the_upper_sample() {
        // Latencies 1 s and 9 s. Nearest-rank with round-half-away-from-
        // zero puts p50 (index round(0.5) = 1) on the UPPER sample, and
        // p95/p99 follow; the mean still sees both.
        let completions = vec![completion(0, 0.0, 1.0, 0), completion(1, 1.0, 10.0, 0)];
        let m = FleetMetrics::from_outcomes(2, &completions, &[], &[5.0], &[0.0]);
        let lat = m.latency.expect("two completions");
        assert_eq!(lat.completed, 2);
        assert_eq!((lat.p50_s, lat.p95_s, lat.p99_s), (9.0, 9.0, 9.0));
        assert_eq!(lat.mean_latency_s, 5.0);
    }

    #[test]
    fn three_completions_pin_median_to_middle_and_tails_to_max() {
        // Latencies 1, 3, 4 s: p50 = middle sample, p95/p99 = max.
        let completions = vec![
            completion(0, 0.0, 1.0, 0),
            completion(1, 0.0, 3.0, 0),
            completion(2, 1.0, 5.0, 0),
        ];
        let m = FleetMetrics::from_outcomes(3, &completions, &[], &[4.0], &[0.0]);
        let lat = m.latency.expect("three completions");
        assert_eq!((lat.p50_s, lat.p95_s, lat.p99_s), (3.0, 4.0, 4.0));
    }
}
