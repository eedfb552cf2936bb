//! Replica-selection policies.

use crate::replica::Replica;
use crate::CostModel;

/// How arriving requests are assigned to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through replicas in index order, ignoring state.
    RoundRobin,
    /// Send to the replica with the fewest requests in flight (queued +
    /// active); ties break to the lowest index.
    JoinShortestQueue,
    /// Send to the replica with the least estimated outstanding work in
    /// seconds (committed schedule + remaining layers + queued service);
    /// ties break to the lowest index. Costs come from the shared
    /// [`CostModel`], so the decision never re-runs the simulator.
    LeastOutstandingWork,
}

impl RoutingPolicy {
    /// Short identifier used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "rr",
            RoutingPolicy::JoinShortestQueue => "jsq",
            RoutingPolicy::LeastOutstandingWork => "low",
        }
    }

    /// Parses a CLI label (`rr` / `jsq` / `low`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rr" | "round-robin" => Some(RoutingPolicy::RoundRobin),
            "jsq" | "join-shortest-queue" => Some(RoutingPolicy::JoinShortestQueue),
            "low" | "least-outstanding-work" => Some(RoutingPolicy::LeastOutstandingWork),
            _ => None,
        }
    }

    /// Selects the replica for a request arriving at `now` among the
    /// eligible ones: replica `i` is eligible when it is `up` — arrivals
    /// never land on a down replica — and `routable[i]` holds. The engine
    /// passes its one routable set, where the gates (breakers, autoscaler
    /// warm-up, detector quarantine) clear entries and the hedge
    /// dispatcher briefly clears the primary's. Returns `None` when no
    /// replica is eligible. `rr_cursor` is the round-robin state,
    /// advanced only by that policy.
    ///
    /// With every replica up and every entry `true` (the fault-free,
    /// ungated path) the picks are identical to the health-unaware
    /// policies, so healthy runs stay bitwise-reproducible.
    pub(crate) fn choose(
        &self,
        replicas: &mut [Replica],
        cost: &mut CostModel,
        now: f64,
        rr_cursor: &mut usize,
        routable: &[bool],
    ) -> Option<usize> {
        let eligible = |i: usize, r: &Replica| r.up && routable[i];
        match self {
            RoutingPolicy::RoundRobin => {
                let n = replicas.len();
                for k in 0..n {
                    let i = (*rr_cursor + k) % n;
                    if eligible(i, &replicas[i]) {
                        *rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            RoutingPolicy::JoinShortestQueue => replicas
                .iter()
                .enumerate()
                .filter(|(i, r)| eligible(*i, r))
                .min_by_key(|(i, r)| (r.load(), *i))
                .map(|(i, _)| i),
            RoutingPolicy::LeastOutstandingWork => {
                let mut best: Option<usize> = None;
                let mut best_work = f64::INFINITY;
                for (i, r) in replicas.iter_mut().enumerate() {
                    if !eligible(i, r) {
                        continue;
                    }
                    let work = r.outstanding_s(cost, now);
                    if work < best_work {
                        best_work = work;
                        best = Some(i);
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Pending;
    use crate::{QosClass, ServeRequest};
    use cta_sim::{AttentionTask, CtaSystem, SystemConfig};

    fn task() -> AttentionTask {
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6)
    }

    fn replicas(n: usize) -> Vec<Replica> {
        (0..n).map(|i| Replica::new(i, CtaSystem::new(SystemConfig::paper()))).collect()
    }

    fn queued(id: u64, layers: usize) -> Pending {
        Pending::fresh(
            ServeRequest::uniform(id, 0.0, QosClass::standard(), task(), layers, 4),
            layers as f64,
        )
    }

    /// The ungated routable set: every replica passes.
    const ALL: &[bool] = &[true; 4];

    #[test]
    fn parse_round_trips_labels() {
        for p in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastOutstandingWork,
        ] {
            assert_eq!(RoutingPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(RoutingPolicy::parse("nope"), None);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rs = replicas(3);
        let mut cost = CostModel::new();
        let mut cursor = 0;
        let picks: Vec<Option<usize>> = (0..6)
            .map(|_| RoutingPolicy::RoundRobin.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL))
            .collect();
        assert_eq!(picks, vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn round_robin_skips_down_replicas() {
        let mut rs = replicas(3);
        rs[1].crash(0.0);
        let mut cost = CostModel::new();
        let mut cursor = 0;
        let picks: Vec<Option<usize>> = (0..4)
            .map(|_| RoutingPolicy::RoundRobin.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL))
            .collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
    }

    #[test]
    fn all_policies_return_none_when_fleet_is_down() {
        let mut rs = replicas(2);
        rs[0].crash(0.0);
        rs[1].crash(0.0);
        let mut cost = CostModel::new();
        let mut cursor = 0;
        for p in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastOutstandingWork,
        ] {
            assert_eq!(p.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL), None);
        }
    }

    #[test]
    fn jsq_and_low_never_pick_a_down_replica() {
        let mut rs = replicas(2);
        // Replica 0 is idle but down; replica 1 is loaded but up.
        rs[0].crash(0.0);
        rs[1].enqueue(queued(0, 10));
        let mut cost = CostModel::new();
        let mut cursor = 0;
        assert_eq!(
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL),
            Some(1)
        );
        assert_eq!(
            RoutingPolicy::LeastOutstandingWork.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL),
            Some(1)
        );
    }

    #[test]
    fn jsq_prefers_emptier_replica() {
        let mut rs = replicas(2);
        rs[0].enqueue(queued(0, 1));
        rs[0].enqueue(queued(1, 1));
        let mut cost = CostModel::new();
        let mut cursor = 0;
        let pick =
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn low_sees_work_not_just_counts() {
        // Replica 0 queues one LONG request, replica 1 queues two short
        // ones: JSQ picks 0, LOW picks 1... unless the short pair still
        // outweighs the long one. Make the long request 10 layers vs two
        // 1-layer shorts so the work comparison is unambiguous.
        let mut rs = replicas(2);
        rs[0].enqueue(queued(0, 10));
        rs[1].enqueue(queued(1, 1));
        rs[1].enqueue(queued(2, 1));
        let mut cost = CostModel::new();
        let mut cursor = 0;
        assert_eq!(
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL),
            Some(0)
        );
        assert_eq!(
            RoutingPolicy::LeastOutstandingWork.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL),
            Some(1)
        );
    }

    #[test]
    fn routable_mask_excludes_up_replicas() {
        // Replica 0 is up but masked out (breaker open): every policy
        // must skip it; an all-false mask routes nowhere even though the
        // fleet is up.
        let mut rs = replicas(2);
        let mut cost = CostModel::new();
        for p in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastOutstandingWork,
        ] {
            let mut cursor = 0;
            assert_eq!(
                p.choose(&mut rs, &mut cost, 0.0, &mut cursor, &[false, true]),
                Some(1),
                "{p:?} must skip the masked replica"
            );
            assert_eq!(
                p.choose(&mut rs, &mut cost, 0.0, &mut cursor, &[false, false]),
                None,
                "{p:?} must route nowhere under an all-false mask"
            );
        }
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let mut rs = replicas(4);
        let mut cost = CostModel::new();
        let mut cursor = 0;
        assert_eq!(
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL),
            Some(0)
        );
        assert_eq!(
            RoutingPolicy::LeastOutstandingWork.choose(&mut rs, &mut cost, 0.0, &mut cursor, ALL),
            Some(0)
        );
    }
}
