//! Requests and service classes as the runtime sees them.

use std::sync::Arc;

use cta_sim::AttentionTask;

/// A quality-of-service class: a scheduling priority plus an optional
/// completion deadline.
///
/// Priorities order replica queues (higher first); the deadline, when
/// present and enforced by the [`AdmissionPolicy`](crate::AdmissionPolicy),
/// is a *relative* latency budget from the request's arrival, used both to
/// shed requests that cannot meet it and to score goodput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosClass {
    /// Human-readable class name (reported in metrics breakdowns).
    pub name: &'static str,
    /// Scheduling priority; higher is served first within a queue.
    pub priority: u8,
    /// End-to-end latency budget from arrival, seconds, if the class has
    /// an SLO.
    pub deadline_s: Option<f64>,
}

impl QosClass {
    /// An interactive class: high priority with a deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s <= 0`.
    pub fn interactive(deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        Self { name: "interactive", priority: 200, deadline_s: Some(deadline_s) }
    }

    /// The default class: mid priority, no deadline.
    pub fn standard() -> Self {
        Self { name: "standard", priority: 100, deadline_s: None }
    }

    /// A throughput-oriented background class: lowest priority, no
    /// deadline.
    pub fn batch() -> Self {
        Self { name: "batch", priority: 0, deadline_s: None }
    }
}

/// One turn of a long-lived decode session, as carried by a
/// [`ServeRequest`].
///
/// A session-tagged request is priced as a decode *segment* (per-token
/// incremental compression against the resident prefix, see
/// [`cta_sim::schedule_decode`]) instead of a full prefill, and — when the
/// fleet runs with a [`SessionPolicy`](crate::SessionPolicy) — is routed
/// sticky to the replica holding the session's compression state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionTurn {
    /// Session identifier shared by all turns of one session.
    pub session: u64,
    /// Turn index within the session, from 0.
    pub turn: u32,
    /// Tokens this turn decodes incrementally.
    pub decode_tokens: u32,
    /// Level-2 re-cluster events expected during the turn (from the
    /// streaming compressor's drift trigger; see
    /// [`cta_sim::reclusters_for`]).
    pub reclusters: u32,
    /// Whether this is the session's final turn (completing it releases
    /// the replica's session state).
    pub last: bool,
}

/// One inference request as admitted to the fleet: identity, arrival,
/// class, and the per-layer head tasks of its model (layer-major, exactly
/// as [`cta_sim::CtaSystem::run_layers`] takes them).
///
/// The layer table is shared: a clone (a queued copy, a retry, a hedge)
/// bumps a reference count instead of copying every head task.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Unique request id; used as the deterministic tie-breaker wherever
    /// two events coincide in time.
    pub id: u64,
    /// Arrival time, seconds from trace start.
    pub arrival_s: f64,
    /// The request's service class.
    pub class: QosClass,
    /// Owning tenant id (0 in single-tenant configurations).
    pub tenant: u32,
    /// Decode-session turn this request represents (`None` for ordinary
    /// one-shot prefill requests — every pre-session constructor leaves it
    /// `None`, keeping existing traces and goldens byte-identical).
    pub session: Option<SessionTurn>,
    /// Per-layer head tasks, shared by every clone of the request.
    pub layer_tasks: Arc<[Vec<AttentionTask>]>,
}

impl ServeRequest {
    /// Builds a request, validating its shape.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_s < 0`, `layer_tasks` is empty, or any layer has
    /// no head tasks.
    pub fn new(
        id: u64,
        arrival_s: f64,
        class: QosClass,
        layer_tasks: impl Into<Arc<[Vec<AttentionTask>]>>,
    ) -> Self {
        let layer_tasks = layer_tasks.into();
        assert!(arrival_s >= 0.0, "arrival time must be non-negative");
        assert!(!layer_tasks.is_empty(), "a request needs at least one layer");
        assert!(layer_tasks.iter().all(|l| !l.is_empty()), "every layer needs at least one head");
        Self { id, arrival_s, class, tenant: 0, session: None, layer_tasks }
    }

    /// The same request owned by `tenant`.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same request tagged as one turn of a decode session.
    ///
    /// # Panics
    ///
    /// Panics if `turn.decode_tokens == 0` (a decode segment needs at
    /// least one token).
    pub fn with_session(mut self, turn: SessionTurn) -> Self {
        assert!(turn.decode_tokens > 0, "a decode turn needs at least one token");
        self.session = Some(turn);
        self
    }

    /// A request whose every layer runs `heads` copies of one head task.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`, `heads == 0`, or `arrival_s < 0`.
    pub fn uniform(
        id: u64,
        arrival_s: f64,
        class: QosClass,
        task: AttentionTask,
        layers: usize,
        heads: usize,
    ) -> Self {
        assert!(layers > 0 && heads > 0, "layers and heads must be positive");
        // Collected straight into the shared table: one allocation for
        // the table, one per layer.
        let table: Arc<[Vec<AttentionTask>]> = (0..layers).map(|_| vec![task; heads]).collect();
        Self::new(id, arrival_s, class, table)
    }

    /// Number of layers the request still owes from `cursor` (layers
    /// already dispatched).
    pub(crate) fn remaining_layers(&self, cursor: usize) -> usize {
        self.layer_tasks.len().saturating_sub(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> AttentionTask {
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6)
    }

    #[test]
    fn uniform_builds_layer_major_tasks() {
        let r = ServeRequest::uniform(7, 1.5, QosClass::standard(), task(), 3, 4);
        assert_eq!(r.layer_tasks.len(), 3);
        assert!(r.layer_tasks.iter().all(|l| l.len() == 4));
        assert_eq!(r.remaining_layers(0), 3);
        assert_eq!(r.remaining_layers(2), 1);
        assert_eq!(r.remaining_layers(5), 0);
    }

    #[test]
    fn tenant_defaults_to_zero_and_rebinds() {
        let r = ServeRequest::uniform(7, 0.0, QosClass::standard(), task(), 1, 1);
        assert_eq!(r.tenant, 0);
        assert_eq!(r.with_tenant(5).tenant, 5);
    }

    #[test]
    fn session_defaults_to_none_and_tags() {
        let r = ServeRequest::uniform(7, 0.0, QosClass::standard(), task(), 1, 1);
        assert_eq!(r.session, None);
        let turn =
            SessionTurn { session: 3, turn: 1, decode_tokens: 64, reclusters: 2, last: true };
        assert_eq!(r.with_session(turn).session, Some(turn));
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_decode_turn_rejected() {
        let r = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 1, 1);
        let _ = r.with_session(SessionTurn {
            session: 0,
            turn: 0,
            decode_tokens: 0,
            reclusters: 0,
            last: false,
        });
    }

    #[test]
    fn class_constructors_order_priorities() {
        assert!(QosClass::interactive(0.1).priority > QosClass::standard().priority);
        assert!(QosClass::standard().priority > QosClass::batch().priority);
        assert_eq!(QosClass::interactive(0.1).deadline_s, Some(0.1));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_request_rejected() {
        let _ = ServeRequest::new(0, 0.0, QosClass::standard(), vec![]);
    }

    #[test]
    #[should_panic(expected = "every layer needs at least one head")]
    fn empty_layer_rejected() {
        let _ = ServeRequest::new(0, 0.0, QosClass::standard(), vec![vec![task()], vec![]]);
    }

    #[test]
    #[should_panic(expected = "layers and heads must be positive")]
    fn uniform_rejects_zero_heads() {
        let _ = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 1, 0);
    }

    #[test]
    #[should_panic(expected = "arrival time must be non-negative")]
    fn negative_arrival_rejected() {
        let _ = ServeRequest::uniform(0, -0.5, QosClass::standard(), task(), 1, 1);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn non_positive_deadline_rejected() {
        let _ = QosClass::interactive(0.0);
    }
}
