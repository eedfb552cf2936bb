//! Deterministic fault injection and retry policy.
//!
//! A [`FaultPlan`] is a *schedule*, not a random process: every crash
//! window, zone outage, partition, gray failure, step slowdown and
//! host-link stall is a concrete time interval fixed before the
//! simulation starts. [`FaultPlan::seeded`] draws such a schedule from a
//! seeded RNG (alternating exponential up/down intervals, the classic
//! MTBF/MTTR renewal model), so a fault scenario is exactly as
//! reproducible as the arrival trace it runs against — the same plan and
//! trace always produce the same [`FleetReport`](crate::FleetReport),
//! bit for bit.
//!
//! Failure semantics (pinned by the `faults` integration tests):
//!
//! * layer steps are **atomic** — a step committed before a crash instant
//!   finishes and retires its completions (the host receives per-layer
//!   activations as each step streams back, so completed layers are never
//!   lost);
//! * at the crash instant the replica's remaining work (mid-flight actives
//!   and queued requests) is evicted and requeued through routing with a
//!   bounded [`RetryPolicy`] budget, resuming from the last completed
//!   layer; requests that exhaust the budget, or whose deadline can no
//!   longer be met, are shed with
//!   [`ShedReason::ReplicaLost`](crate::ShedReason::ReplicaLost);
//! * arrivals never route to a down replica; if *no* replica is up the
//!   arrival is shed with `ReplicaLost`;
//! * a [`ZoneOutage`] is a *correlated* crash: every replica mapped to the
//!   zone crashes and recovers together, with the same eviction semantics
//!   as an individual [`CrashWindow`];
//! * a [`Partition`] cuts the host link to a replica without killing it:
//!   in-flight and queued work is *stranded* (steps pause at the next
//!   atomic layer boundary), **not** evicted, and resumes when the link
//!   heals. The router keeps dispatching to a partitioned replica — only
//!   the failure detector (when enabled) learns to avoid it;
//! * a [`GrayFailure`] is a persistent stochastic slowdown that never
//!   trips crash eviction: each layer step inside the window is stretched
//!   by `1 + severity·u`, where `u ∈ [0, 1)` is a pure hash of
//!   `(seed, replica, step start time)` so both fleet engines observe the
//!   identical factor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One replica outage: down at `down_s`, back at `up_s` (`None` = never).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// Replica index the outage applies to.
    pub replica: usize,
    /// Crash instant, seconds.
    pub down_s: f64,
    /// Recovery instant, seconds; `None` for a permanent loss.
    pub up_s: Option<f64>,
}

/// A correlated outage taking a whole zone down: every replica whose
/// entry in [`FaultPlan::zones`] equals `zone` crashes at `down_s` and
/// recovers at `up_s` together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneOutage {
    /// Zone id (a value appearing in [`FaultPlan::zones`]).
    pub zone: usize,
    /// Crash instant, seconds.
    pub down_s: f64,
    /// Recovery instant, seconds; `None` for a permanent zone loss.
    pub up_s: Option<f64>,
}

/// A host-link partition: the router loses the link to `replica` over
/// `[from_s, until_s)`. Unlike a crash, nothing is evicted — queued and
/// mid-flight work is stranded until the link heals (the replica cannot
/// stream activations back), and the router keeps routing to the replica
/// unless a failure detector quarantines it. The window must end: a
/// partition that never heals is indistinguishable from a crash and must
/// be modelled as one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Replica index cut off from the host.
    pub replica: usize,
    /// Partition start, seconds (inclusive).
    pub from_s: f64,
    /// Heal instant, seconds (exclusive); must be finite.
    pub until_s: f64,
}

/// A gray failure: the replica stays up and keeps completing work, but
/// every layer step starting inside `[from_s, until_s)` is stretched by
/// `1 + severity·u` with `u ∈ [0, 1)` drawn as a pure hash of
/// `(seed, replica, step start time)` — deterministic, engine-agnostic,
/// and never severe enough to trip crash eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayFailure {
    /// Replica index the slowdown applies to.
    pub replica: usize,
    /// Window start, seconds (inclusive).
    pub from_s: f64,
    /// Window end, seconds (exclusive).
    pub until_s: f64,
    /// Slowdown severity: the per-step stretch is uniform in
    /// `[1, 1 + severity)`. Must be positive and finite.
    pub severity: f64,
    /// Hash seed for the per-step stretch draw.
    pub seed: u64,
}

/// A transient compute slowdown: layer steps *starting* inside
/// `[from_s, until_s)` on `replica` take `factor`× their nominal time
/// (thermal throttling, a noisy neighbour, a degraded unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Replica index the slowdown applies to.
    pub replica: usize,
    /// Window start, seconds (inclusive).
    pub from_s: f64,
    /// Window end, seconds (exclusive).
    pub until_s: f64,
    /// Multiplier on step time; must be `> 0` (values `> 1` slow down).
    pub factor: f64,
}

/// A host-link stall: weight uploads paid by batch joins inside
/// `[from_s, until_s)` on `replica` take `factor`× their nominal time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStall {
    /// Replica index the stall applies to.
    pub replica: usize,
    /// Window start, seconds (inclusive).
    pub from_s: f64,
    /// Window end, seconds (exclusive).
    pub until_s: f64,
    /// Multiplier on upload time; must be `> 0`.
    pub factor: f64,
}

/// A structural defect in a [`FaultPlan`], reported by
/// [`FaultPlan::try_validate`] / [`FaultPlan::try_seeded`] instead of a
/// silently nonsensical schedule. The [`fmt::Display`] strings are pinned
/// by regression tests (the panicking [`FaultPlan::validate`] wrapper
/// re-uses them verbatim).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A window names a replica index `>= replicas`.
    ReplicaOutOfRange {
        /// Which window kind ("crash", "partition", ...).
        what: &'static str,
        /// The offending replica index.
        replica: usize,
    },
    /// A crash instant is negative, NaN or infinite.
    CrashTimeInvalid {
        /// The offending replica index.
        replica: usize,
    },
    /// A replica's explicit crash windows are out of order or overlap.
    CrashWindowsUnsorted {
        /// The offending replica index.
        replica: usize,
    },
    /// A crash window's recovery does not strictly follow its crash
    /// (zero-length or inverted outage).
    RecoveryBeforeCrash {
        /// The offending replica index.
        replica: usize,
    },
    /// A `[from_s, until_s)` window is empty, inverted or non-finite.
    WindowIllOrdered {
        /// Which window kind ("slowdown", "partition", ...).
        what: &'static str,
        /// The offending replica index.
        replica: usize,
    },
    /// A slowdown / link-stall factor is not positive and finite.
    FactorNotPositive {
        /// Which window kind.
        what: &'static str,
    },
    /// A gray-failure severity is not positive and finite.
    SeverityNotPositive {
        /// The offending replica index.
        replica: usize,
    },
    /// A partition window never heals (non-finite `until_s`).
    PartitionNeverHeals {
        /// The offending replica index.
        replica: usize,
    },
    /// Zone outages are present but [`FaultPlan::zones`] does not map
    /// every replica.
    ZoneMapIncomplete {
        /// `zones.len()` as given.
        mapped: usize,
        /// The fleet size the plan was validated against.
        replicas: usize,
    },
    /// A zone outage names a zone with no member replicas.
    ZoneUnknown {
        /// The offending zone id.
        zone: usize,
    },
    /// After expanding zone outages, some replica's crash windows
    /// (explicit + zone-induced) overlap.
    CorrelatedCrashOverlap {
        /// The offending replica index.
        replica: usize,
    },
    /// A [`FaultPlan::try_seeded`] parameter is non-positive or
    /// non-finite.
    BadParam {
        /// Human name of the parameter ("MTBF", "MTTR", "horizon").
        what: &'static str,
    },
    /// [`FaultPlan::try_seeded`] was asked for an empty fleet.
    NoReplicas,
    /// [`FaultPlan::try_seeded`] would draw more than
    /// [`MAX_SEEDED_CRASH_WINDOWS`] crash windows: the MTBF and MTTR are
    /// tiny next to the horizon.
    TooManyWindows {
        /// The cap that was reached.
        cap: usize,
    },
}

/// The most crash windows [`FaultPlan::try_seeded`] draws, over all
/// replicas. A plan holds about `replicas × horizon / (MTBF + MTTR)`
/// windows, so an MTBF of, say, `1e-300` would otherwise fill memory
/// before the horizon is reached. The cap (~32 MB of windows) sits far
/// above every plan the pinned sweeps, CI, the chaos engine and the
/// benchmark build: the largest, the 1000-replica `planet_sweep` run,
/// holds about two thousand windows.
pub const MAX_SEEDED_CRASH_WINDOWS: usize = 1 << 20;

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ReplicaOutOfRange { what, replica } => {
                write!(f, "{what} replica {replica} out of range")
            }
            Self::CrashTimeInvalid { replica } => {
                write!(f, "replica {replica}: crash time must be non-negative and finite")
            }
            Self::CrashWindowsUnsorted { replica } => {
                write!(f, "replica {replica} crash windows must be sorted and non-overlapping")
            }
            Self::RecoveryBeforeCrash { replica } => {
                write!(f, "replica {replica}: recovery must follow the crash")
            }
            Self::WindowIllOrdered { what, replica } => {
                write!(f, "replica {replica}: {what} window must be well-ordered")
            }
            Self::FactorNotPositive { what } => write!(f, "{what} factor must be positive"),
            Self::SeverityNotPositive { replica } => {
                write!(f, "replica {replica}: gray severity must be positive")
            }
            Self::PartitionNeverHeals { replica } => {
                write!(
                    f,
                    "replica {replica}: partition must heal (model a permanent cut as a crash)"
                )
            }
            Self::ZoneMapIncomplete { mapped, replicas } => {
                write!(
                    f,
                    "zone map covers {mapped} of {replicas} replicas; zones must map every replica"
                )
            }
            Self::ZoneUnknown { zone } => write!(f, "zone {zone} has no member replicas"),
            Self::CorrelatedCrashOverlap { replica } => {
                write!(f, "replica {replica} crash and zone-outage windows must be sorted and non-overlapping")
            }
            Self::BadParam { what } => write!(f, "{what} must be positive and finite"),
            Self::NoReplicas => write!(f, "at least one replica"),
            Self::TooManyWindows { cap } => write!(
                f,
                "seeded crash schedule exceeds {cap} windows (MTBF and MTTR too small for the horizon)"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic fault schedule for one fleet run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Replica outages. Per replica they must be time-sorted and
    /// non-overlapping ([`validate`](Self::validate) enforces this).
    pub crashes: Vec<CrashWindow>,
    /// Replica → zone id map for [`ZoneOutage`] expansion. May be empty
    /// when `zone_outages` is empty; otherwise must have one entry per
    /// replica.
    pub zones: Vec<usize>,
    /// Correlated zone outages, expanded against [`Self::zones`].
    pub zone_outages: Vec<ZoneOutage>,
    /// Host-link partitions (strand, don't evict).
    pub partitions: Vec<Partition>,
    /// Gray failures (stochastic persistent slowdowns).
    pub gray: Vec<GrayFailure>,
    /// Compute slowdown windows.
    pub slowdowns: Vec<Slowdown>,
    /// Host-link stall windows.
    pub link_stalls: Vec<LinkStall>,
}

impl FaultPlan {
    /// The healthy plan: no faults. With this plan the runtime reproduces
    /// the fault-free fleet bitwise (pinned by test).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything at all (a zone map alone does
    /// not: zones without outages are inert).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.zone_outages.is_empty()
            && self.partitions.is_empty()
            && self.gray.is_empty()
            && self.slowdowns.is_empty()
            && self.link_stalls.is_empty()
    }

    /// Draws a crash schedule from the MTBF/MTTR renewal model: each
    /// replica alternates exponential up intervals (mean `mtbf_s`) and
    /// down intervals (mean `mttr_s`), starting up at `t = 0`, until
    /// `horizon_s`. A window whose repair would land past the horizon is
    /// kept with its drawn `up_s` (recovery beyond the horizon is
    /// harmless), so the plan depends only on the arguments, never on the
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or any of `horizon_s`, `mtbf_s`,
    /// `mttr_s` is not positive and finite. [`Self::try_seeded`] reports
    /// the same conditions as typed errors.
    pub fn seeded(replicas: usize, horizon_s: f64, mtbf_s: f64, mttr_s: f64, seed: u64) -> Self {
        match Self::try_seeded(replicas, horizon_s, mtbf_s, mttr_s, seed) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::seeded`]: rejects an empty fleet,
    /// non-positive / non-finite horizon, MTBF or MTTR, and a schedule
    /// past [`MAX_SEEDED_CRASH_WINDOWS`] with a typed [`FaultPlanError`]
    /// instead of panicking (or exhausting memory).
    pub fn try_seeded(
        replicas: usize,
        horizon_s: f64,
        mtbf_s: f64,
        mttr_s: f64,
        seed: u64,
    ) -> Result<Self, FaultPlanError> {
        if replicas == 0 {
            return Err(FaultPlanError::NoReplicas);
        }
        if !(horizon_s > 0.0 && horizon_s.is_finite()) {
            return Err(FaultPlanError::BadParam { what: "horizon" });
        }
        if !(mtbf_s > 0.0 && mtbf_s.is_finite()) {
            return Err(FaultPlanError::BadParam { what: "MTBF" });
        }
        if !(mttr_s > 0.0 && mttr_s.is_finite()) {
            return Err(FaultPlanError::BadParam { what: "MTTR" });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut crashes = Vec::new();
        for replica in 0..replicas {
            let mut t = 0.0f64;
            loop {
                t += exp_sample(&mut rng, mtbf_s);
                if t >= horizon_s {
                    break;
                }
                if crashes.len() == MAX_SEEDED_CRASH_WINDOWS {
                    return Err(FaultPlanError::TooManyWindows { cap: MAX_SEEDED_CRASH_WINDOWS });
                }
                let down_s = t;
                t += exp_sample(&mut rng, mttr_s);
                crashes.push(CrashWindow { replica, down_s, up_s: Some(t) });
            }
        }
        Ok(Self { crashes, ..Self::none() })
    }

    /// Checks the plan against a fleet of `replicas`: indices in range,
    /// times finite and non-negative, windows well-ordered, per-replica
    /// crash windows (explicit and zone-expanded) sorted and
    /// non-overlapping, factors and severities positive, partitions
    /// finite, zone map complete when zone outages are present.
    ///
    /// # Panics
    ///
    /// Panics on any violation (plans are configuration; a malformed one
    /// is a caller bug, not a runtime condition). [`Self::try_validate`]
    /// reports the same conditions as typed errors.
    pub fn validate(&self, replicas: usize) {
        if let Err(e) = self.try_validate(replicas) {
            panic!("{e}");
        }
    }

    /// Fallible form of [`Self::validate`]: returns the first structural
    /// defect found as a typed [`FaultPlanError`].
    pub fn try_validate(&self, replicas: usize) -> Result<(), FaultPlanError> {
        let window_ok = |from: f64, until: f64| from.is_finite() && from >= 0.0 && until > from;
        let mut last_up = vec![0.0f64; replicas];
        for c in &self.crashes {
            if c.replica >= replicas {
                return Err(FaultPlanError::ReplicaOutOfRange {
                    what: "crash",
                    replica: c.replica,
                });
            }
            if !(c.down_s.is_finite() && c.down_s >= 0.0) {
                return Err(FaultPlanError::CrashTimeInvalid { replica: c.replica });
            }
            if c.down_s < last_up[c.replica] {
                return Err(FaultPlanError::CrashWindowsUnsorted { replica: c.replica });
            }
            match c.up_s {
                Some(up) => {
                    if !(up.is_finite() && up > c.down_s) {
                        return Err(FaultPlanError::RecoveryBeforeCrash { replica: c.replica });
                    }
                    last_up[c.replica] = up;
                }
                // A permanent loss must be the replica's last window.
                None => last_up[c.replica] = f64::INFINITY,
            }
        }
        if !self.zone_outages.is_empty() && self.zones.len() != replicas {
            return Err(FaultPlanError::ZoneMapIncomplete { mapped: self.zones.len(), replicas });
        }
        for z in &self.zone_outages {
            if !self.zones.contains(&z.zone) {
                return Err(FaultPlanError::ZoneUnknown { zone: z.zone });
            }
            if !(z.down_s.is_finite() && z.down_s >= 0.0) {
                return Err(FaultPlanError::BadParam { what: "zone outage time" });
            }
            if let Some(up) = z.up_s {
                if !(up.is_finite() && up > z.down_s) {
                    return Err(FaultPlanError::BadParam { what: "zone outage recovery" });
                }
            }
        }
        // Expanded per-replica outage windows (explicit + zone-induced)
        // must still be pairwise disjoint: a replica cannot crash while
        // already down.
        if !self.zone_outages.is_empty() {
            for replica in 0..replicas {
                let mut windows: Vec<(f64, f64)> = self
                    .crashes
                    .iter()
                    .filter(|c| c.replica == replica)
                    .map(|c| (c.down_s, c.up_s.unwrap_or(f64::INFINITY)))
                    .chain(
                        self.zone_outages
                            .iter()
                            .filter(|z| self.zones[replica] == z.zone)
                            .map(|z| (z.down_s, z.up_s.unwrap_or(f64::INFINITY))),
                    )
                    .collect();
                windows.sort_by(|a, b| a.partial_cmp(b).expect("finite outage times"));
                for pair in windows.windows(2) {
                    if pair[1].0 < pair[0].1 {
                        return Err(FaultPlanError::CorrelatedCrashOverlap { replica });
                    }
                }
            }
        }
        for p in &self.partitions {
            if p.replica >= replicas {
                return Err(FaultPlanError::ReplicaOutOfRange {
                    what: "partition",
                    replica: p.replica,
                });
            }
            if !p.until_s.is_finite() {
                return Err(FaultPlanError::PartitionNeverHeals { replica: p.replica });
            }
            if !window_ok(p.from_s, p.until_s) {
                return Err(FaultPlanError::WindowIllOrdered {
                    what: "partition",
                    replica: p.replica,
                });
            }
        }
        for g in &self.gray {
            if g.replica >= replicas {
                return Err(FaultPlanError::ReplicaOutOfRange { what: "gray", replica: g.replica });
            }
            if !window_ok(g.from_s, g.until_s) || !g.until_s.is_finite() {
                return Err(FaultPlanError::WindowIllOrdered { what: "gray", replica: g.replica });
            }
            if !(g.severity > 0.0 && g.severity.is_finite()) {
                return Err(FaultPlanError::SeverityNotPositive { replica: g.replica });
            }
        }
        for s in &self.slowdowns {
            if s.replica >= replicas {
                return Err(FaultPlanError::ReplicaOutOfRange {
                    what: "slowdown",
                    replica: s.replica,
                });
            }
            if !window_ok(s.from_s, s.until_s) {
                return Err(FaultPlanError::WindowIllOrdered {
                    what: "slowdown",
                    replica: s.replica,
                });
            }
            if !(s.factor > 0.0 && s.factor.is_finite()) {
                return Err(FaultPlanError::FactorNotPositive { what: "slowdown" });
            }
        }
        for l in &self.link_stalls {
            if l.replica >= replicas {
                return Err(FaultPlanError::ReplicaOutOfRange {
                    what: "link stall",
                    replica: l.replica,
                });
            }
            if !window_ok(l.from_s, l.until_s) {
                return Err(FaultPlanError::WindowIllOrdered {
                    what: "link stall",
                    replica: l.replica,
                });
            }
            if !(l.factor > 0.0 && l.factor.is_finite()) {
                return Err(FaultPlanError::FactorNotPositive { what: "link stall" });
            }
        }
        Ok(())
    }

    /// The fault schedule flattened to a time-sorted event list: explicit
    /// crashes, zone outages expanded to their member replicas, and
    /// partition start/heal transitions. Ties break by replica index,
    /// then crash before recovery before partition transitions.
    pub(crate) fn timeline(&self) -> Vec<FaultEvent> {
        let mut events = Vec::with_capacity(self.crashes.len() * 2 + self.partitions.len() * 2);
        for c in &self.crashes {
            events.push(FaultEvent { t_s: c.down_s, replica: c.replica, kind: FaultKind::Down });
            if let Some(up) = c.up_s {
                events.push(FaultEvent { t_s: up, replica: c.replica, kind: FaultKind::Up });
            }
        }
        for z in &self.zone_outages {
            for (replica, &zone) in self.zones.iter().enumerate() {
                if zone != z.zone {
                    continue;
                }
                events.push(FaultEvent { t_s: z.down_s, replica, kind: FaultKind::Down });
                if let Some(up) = z.up_s {
                    events.push(FaultEvent { t_s: up, replica, kind: FaultKind::Up });
                }
            }
        }
        for p in &self.partitions {
            events.push(FaultEvent {
                t_s: p.from_s,
                replica: p.replica,
                kind: FaultKind::PartitionStart,
            });
            events.push(FaultEvent {
                t_s: p.until_s,
                replica: p.replica,
                kind: FaultKind::PartitionEnd,
            });
        }
        events.sort_by(|a, b| {
            a.t_s
                .partial_cmp(&b.t_s)
                .expect("finite fault times")
                .then(a.replica.cmp(&b.replica))
                .then((a.kind as u8).cmp(&(b.kind as u8)))
        });
        events
    }

    /// Step-time multiplier for a layer step starting at `t_s` on
    /// `replica` (product over matching slowdown and gray windows; `1.0`
    /// when none match).
    pub(crate) fn step_factor(&self, replica: usize, t_s: f64) -> f64 {
        let mut f = 1.0;
        for s in &self.slowdowns {
            if s.replica == replica && t_s >= s.from_s && t_s < s.until_s {
                f *= s.factor;
            }
        }
        for g in &self.gray {
            if g.replica == replica && t_s >= g.from_s && t_s < g.until_s {
                f *= 1.0 + g.severity * gray_unit(g.seed, replica, t_s);
            }
        }
        f
    }

    /// Upload-time multiplier for batch joins at `t_s` on `replica`.
    pub(crate) fn link_factor(&self, replica: usize, t_s: f64) -> f64 {
        let mut f = 1.0;
        for l in &self.link_stalls {
            if l.replica == replica && t_s >= l.from_s && t_s < l.until_s {
                f *= l.factor;
            }
        }
        f
    }

    /// Ground-truth fault intervals per replica — `(replica, start, end)`
    /// with `end = ∞` for permanent losses — across every fault class.
    /// Used to classify detector quarantines as true or false positives.
    pub(crate) fn fault_windows(&self) -> Vec<(usize, f64, f64)> {
        let mut w = Vec::new();
        for c in &self.crashes {
            w.push((c.replica, c.down_s, c.up_s.unwrap_or(f64::INFINITY)));
        }
        for z in &self.zone_outages {
            for (replica, &zone) in self.zones.iter().enumerate() {
                if zone == z.zone {
                    w.push((replica, z.down_s, z.up_s.unwrap_or(f64::INFINITY)));
                }
            }
        }
        for p in &self.partitions {
            w.push((p.replica, p.from_s, p.until_s));
        }
        for g in &self.gray {
            w.push((g.replica, g.from_s, g.until_s));
        }
        for s in &self.slowdowns {
            w.push((s.replica, s.from_s, s.until_s));
        }
        for l in &self.link_stalls {
            w.push((l.replica, l.from_s, l.until_s));
        }
        w
    }
}

/// The uniform draw behind [`GrayFailure`]: a pure SplitMix64-finalizer
/// hash of `(seed, replica, step start time)` mapped to `[0, 1)`. Both
/// fleet engines compute step start times identically, so the factor is
/// engine-agnostic by construction.
fn gray_unit(seed: u64, replica: usize, t_s: f64) -> f64 {
    let x =
        seed ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t_s.to_bits().rotate_left(17);
    let z = cta_events::mix64(x);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One fault-schedule transition kind. The discriminant order is the tie
/// order at equal `(t, replica)`: crash, recovery, partition start,
/// partition heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Replica crashes (work evicted).
    Down = 0,
    /// Replica recovers from a crash.
    Up = 1,
    /// Host link cut (work stranded).
    PartitionStart = 2,
    /// Host link heals.
    PartitionEnd = 3,
}

/// One fault-schedule transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultEvent {
    pub t_s: f64,
    pub replica: usize,
    pub kind: FaultKind,
}

/// Bounded-retry configuration for requests evicted by a crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum requeue attempts per request before it is shed with
    /// [`ShedReason::ReplicaLost`](crate::ShedReason::ReplicaLost).
    pub max_attempts: u32,
    /// Base delay before the first requeue, seconds.
    pub backoff_s: f64,
    /// Multiplier applied to the delay on each further attempt.
    pub multiplier: f64,
}

impl RetryPolicy {
    /// Ceiling on any single backoff delay, seconds. The geometric
    /// schedule saturates here instead of overflowing to infinity at
    /// large attempt counts (an infinite backoff would schedule a retry
    /// at `t = ∞` and wreck the makespan).
    pub const MAX_BACKOFF_S: f64 = 3600.0;

    /// Default production policy: up to 3 attempts with 100 µs base
    /// backoff doubling per attempt.
    pub fn standard() -> Self {
        Self { max_attempts: 3, backoff_s: 1e-4, multiplier: 2.0 }
    }

    /// No retries: every evicted request is shed immediately.
    pub fn never() -> Self {
        Self { max_attempts: 0, backoff_s: 0.0, multiplier: 1.0 }
    }

    /// Delay before requeue attempt `attempt` (1-based), seconds. The
    /// geometric schedule is clamped to [`Self::MAX_BACKOFF_S`]: the
    /// exponent saturates rather than wrapping (`attempt` may exceed
    /// `i32::MAX`) and an overflowed product saturates rather than
    /// returning `∞`.
    ///
    /// # Panics
    ///
    /// Panics if `attempt == 0`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        assert!(attempt > 0, "attempts are 1-based");
        let exp = (attempt - 1).min(i32::MAX as u32) as i32;
        let raw = self.backoff_s * self.multiplier.powi(exp);
        if raw.is_finite() {
            raw.min(Self::MAX_BACKOFF_S)
        } else {
            Self::MAX_BACKOFF_S
        }
    }
}

/// One exponential sample with mean `mean_s` via inverse transform; the
/// uniform is clamped away from 0 so `ln` stays finite (mirrors the
/// loadgen sampler).
fn exp_sample(rng: &mut StdRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln() * mean_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_validates() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        plan.validate(1);
        assert!(plan.timeline().is_empty());
        assert_eq!(plan.step_factor(0, 1.0), 1.0);
        assert_eq!(plan.link_factor(0, 1.0), 1.0);
    }

    #[test]
    fn seeded_is_deterministic_and_well_formed() {
        let a = FaultPlan::seeded(4, 100.0, 20.0, 2.0, 9);
        let b = FaultPlan::seeded(4, 100.0, 20.0, 2.0, 9);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(4, 100.0, 20.0, 2.0, 10));
        a.validate(4);
        assert!(!a.is_empty(), "100 s horizon at 20 s MTBF crashes essentially surely");
        for c in &a.crashes {
            assert!(c.down_s < 100.0, "crashes start inside the horizon");
        }
    }

    #[test]
    fn timeline_is_sorted_with_down_before_up() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow { replica: 1, down_s: 1.0, up_s: Some(3.0) },
                CrashWindow { replica: 0, down_s: 2.0, up_s: None },
            ],
            ..FaultPlan::none()
        };
        plan.validate(2);
        let tl = plan.timeline();
        let shape: Vec<(f64, usize, FaultKind)> =
            tl.iter().map(|e| (e.t_s, e.replica, e.kind)).collect();
        assert_eq!(
            shape,
            vec![(1.0, 1, FaultKind::Down), (2.0, 0, FaultKind::Down), (3.0, 1, FaultKind::Up)]
        );
    }

    #[test]
    fn zone_outage_expands_to_member_replicas() {
        let plan = FaultPlan {
            zones: vec![0, 1, 0],
            zone_outages: vec![ZoneOutage { zone: 0, down_s: 5.0, up_s: Some(7.0) }],
            ..FaultPlan::none()
        };
        plan.validate(3);
        assert!(!plan.is_empty());
        let tl = plan.timeline();
        let shape: Vec<(f64, usize, FaultKind)> =
            tl.iter().map(|e| (e.t_s, e.replica, e.kind)).collect();
        assert_eq!(
            shape,
            vec![
                (5.0, 0, FaultKind::Down),
                (5.0, 2, FaultKind::Down),
                (7.0, 0, FaultKind::Up),
                (7.0, 2, FaultKind::Up)
            ],
            "replica 1 (zone 1) is untouched; zone members fall and rise together"
        );
    }

    #[test]
    fn partition_events_flank_the_window() {
        let plan = FaultPlan {
            partitions: vec![Partition { replica: 1, from_s: 2.0, until_s: 4.0 }],
            ..FaultPlan::none()
        };
        plan.validate(2);
        let tl = plan.timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!((tl[0].t_s, tl[0].replica, tl[0].kind), (2.0, 1, FaultKind::PartitionStart));
        assert_eq!((tl[1].t_s, tl[1].replica, tl[1].kind), (4.0, 1, FaultKind::PartitionEnd));
    }

    #[test]
    fn factors_multiply_inside_windows_only() {
        let plan = FaultPlan {
            slowdowns: vec![
                Slowdown { replica: 0, from_s: 1.0, until_s: 2.0, factor: 3.0 },
                Slowdown { replica: 0, from_s: 1.5, until_s: 2.5, factor: 2.0 },
            ],
            link_stalls: vec![LinkStall { replica: 1, from_s: 0.0, until_s: 1.0, factor: 10.0 }],
            ..FaultPlan::none()
        };
        plan.validate(2);
        assert_eq!(plan.step_factor(0, 1.25), 3.0);
        assert_eq!(plan.step_factor(0, 1.75), 6.0);
        assert_eq!(plan.step_factor(0, 2.0), 2.0, "windows are end-exclusive");
        assert_eq!(plan.step_factor(1, 1.25), 1.0, "other replicas unaffected");
        assert_eq!(plan.link_factor(1, 0.5), 10.0);
        assert_eq!(plan.link_factor(0, 0.5), 1.0);
    }

    #[test]
    fn gray_factor_is_deterministic_bounded_and_windowed() {
        let plan = FaultPlan {
            gray: vec![GrayFailure {
                replica: 0,
                from_s: 1.0,
                until_s: 5.0,
                severity: 0.8,
                seed: 7,
            }],
            ..FaultPlan::none()
        };
        plan.validate(1);
        assert!(!plan.is_empty());
        for i in 0..100 {
            let t = 1.0 + (i as f64) * 0.04;
            let f = plan.step_factor(0, t);
            assert!((1.0..1.8).contains(&f), "stretch in [1, 1+severity): got {f}");
            assert_eq!(f, plan.step_factor(0, t), "pure function of (seed, replica, t)");
        }
        assert_eq!(plan.step_factor(0, 0.5), 1.0, "outside the window");
        assert_eq!(plan.step_factor(0, 5.0), 1.0, "end-exclusive");
        let different_seed = FaultPlan {
            gray: vec![GrayFailure {
                replica: 0,
                from_s: 1.0,
                until_s: 5.0,
                severity: 0.8,
                seed: 8,
            }],
            ..FaultPlan::none()
        };
        assert_ne!(plan.step_factor(0, 2.0), different_seed.step_factor(0, 2.0));
    }

    #[test]
    fn backoff_grows_geometrically() {
        let r = RetryPolicy::standard();
        assert_eq!(r.backoff(1), 1e-4);
        assert_eq!(r.backoff(2), 2e-4);
        assert_eq!(r.backoff(3), 4e-4);
        assert_eq!(RetryPolicy::never().max_attempts, 0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let r = RetryPolicy::standard();
        // 1e-4 · 2^25 ≈ 3355 s is the last un-clamped step; attempt 27
        // would be ≈ 6711 s and saturates.
        assert!(r.backoff(26) < RetryPolicy::MAX_BACKOFF_S);
        assert_eq!(r.backoff(27), RetryPolicy::MAX_BACKOFF_S);
        // Far past f64 overflow (2^1100 and beyond) and past i32::MAX:
        // still finite, still the cap, no wrap, no panic.
        assert_eq!(r.backoff(1_200), RetryPolicy::MAX_BACKOFF_S);
        assert_eq!(r.backoff(u32::MAX), RetryPolicy::MAX_BACKOFF_S);
        for a in 1..100 {
            assert!(r.backoff(a + 1) >= r.backoff(a), "schedule is monotone");
        }
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn overlapping_crash_windows_rejected() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow { replica: 0, down_s: 1.0, up_s: Some(3.0) },
                CrashWindow { replica: 0, down_s: 2.0, up_s: Some(4.0) },
            ],
            ..FaultPlan::none()
        };
        plan.validate(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_replica_rejected() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow { replica: 2, down_s: 1.0, up_s: None }],
            ..FaultPlan::none()
        };
        plan.validate(2);
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn crash_after_permanent_loss_rejected() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow { replica: 0, down_s: 1.0, up_s: None },
                CrashWindow { replica: 0, down_s: 2.0, up_s: Some(3.0) },
            ],
            ..FaultPlan::none()
        };
        plan.validate(1);
    }

    #[test]
    fn typed_errors_name_each_rejection() {
        // Overlapping windows.
        let overlap = FaultPlan {
            crashes: vec![
                CrashWindow { replica: 0, down_s: 1.0, up_s: Some(3.0) },
                CrashWindow { replica: 0, down_s: 2.0, up_s: Some(4.0) },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(
            overlap.try_validate(1),
            Err(FaultPlanError::CrashWindowsUnsorted { replica: 0 })
        );
        // Zero-length outage (up == down).
        let zero = FaultPlan {
            crashes: vec![CrashWindow { replica: 0, down_s: 1.0, up_s: Some(1.0) }],
            ..FaultPlan::none()
        };
        assert_eq!(zero.try_validate(1), Err(FaultPlanError::RecoveryBeforeCrash { replica: 0 }));
        // Negative crash time.
        let neg = FaultPlan {
            crashes: vec![CrashWindow { replica: 0, down_s: -1.0, up_s: None }],
            ..FaultPlan::none()
        };
        assert_eq!(neg.try_validate(1), Err(FaultPlanError::CrashTimeInvalid { replica: 0 }));
        // Zero-length slowdown window.
        let flat = FaultPlan {
            slowdowns: vec![Slowdown { replica: 0, from_s: 2.0, until_s: 2.0, factor: 2.0 }],
            ..FaultPlan::none()
        };
        assert_eq!(
            flat.try_validate(1),
            Err(FaultPlanError::WindowIllOrdered { what: "slowdown", replica: 0 })
        );
        // Negative MTBF / MTTR via the seeded constructor.
        assert_eq!(
            FaultPlan::try_seeded(2, 10.0, -5.0, 1.0, 0),
            Err(FaultPlanError::BadParam { what: "MTBF" })
        );
        assert_eq!(
            FaultPlan::try_seeded(2, 10.0, 5.0, -1.0, 0),
            Err(FaultPlanError::BadParam { what: "MTTR" })
        );
        assert_eq!(
            FaultPlan::try_seeded(2, f64::NAN, 5.0, 1.0, 0),
            Err(FaultPlanError::BadParam { what: "horizon" })
        );
        assert_eq!(FaultPlan::try_seeded(0, 10.0, 5.0, 1.0, 0), Err(FaultPlanError::NoReplicas));
        // A schedule past the window cap stops there instead of filling
        // memory.
        let cap = FaultPlanError::TooManyWindows { cap: MAX_SEEDED_CRASH_WINDOWS };
        assert_eq!(FaultPlan::try_seeded(1, 1.0, 1e-300, 1e-300, 0), Err(cap.clone()));
        assert!(cap.to_string().contains("exceeds 1048576 windows"), "{cap}");
        // Infinite partition.
        let cut = FaultPlan {
            partitions: vec![Partition { replica: 0, from_s: 1.0, until_s: f64::INFINITY }],
            ..FaultPlan::none()
        };
        assert_eq!(cut.try_validate(1), Err(FaultPlanError::PartitionNeverHeals { replica: 0 }));
        // Non-positive gray severity.
        let gray = FaultPlan {
            gray: vec![GrayFailure {
                replica: 0,
                from_s: 1.0,
                until_s: 2.0,
                severity: 0.0,
                seed: 0,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(gray.try_validate(1), Err(FaultPlanError::SeverityNotPositive { replica: 0 }));
        // Zone outages without a complete zone map.
        let unmapped = FaultPlan {
            zone_outages: vec![ZoneOutage { zone: 0, down_s: 1.0, up_s: Some(2.0) }],
            ..FaultPlan::none()
        };
        assert_eq!(
            unmapped.try_validate(2),
            Err(FaultPlanError::ZoneMapIncomplete { mapped: 0, replicas: 2 })
        );
        // Zone outage naming an absent zone.
        let ghost = FaultPlan {
            zones: vec![0, 0],
            zone_outages: vec![ZoneOutage { zone: 3, down_s: 1.0, up_s: Some(2.0) }],
            ..FaultPlan::none()
        };
        assert_eq!(ghost.try_validate(2), Err(FaultPlanError::ZoneUnknown { zone: 3 }));
        // Zone outage colliding with an explicit crash on a member.
        let collide = FaultPlan {
            zones: vec![0, 1],
            crashes: vec![CrashWindow { replica: 0, down_s: 1.0, up_s: Some(3.0) }],
            zone_outages: vec![ZoneOutage { zone: 0, down_s: 2.0, up_s: Some(4.0) }],
            ..FaultPlan::none()
        };
        assert_eq!(
            collide.try_validate(2),
            Err(FaultPlanError::CorrelatedCrashOverlap { replica: 0 })
        );
        // Errors render human-readable messages.
        assert!(FaultPlanError::CrashWindowsUnsorted { replica: 0 }
            .to_string()
            .contains("sorted and non-overlapping"));
        assert!(FaultPlanError::BadParam { what: "MTBF" }
            .to_string()
            .contains("MTBF must be positive and finite"));
    }

    #[test]
    fn fault_windows_cover_every_class() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow { replica: 0, down_s: 1.0, up_s: None }],
            zones: vec![0, 1],
            zone_outages: vec![ZoneOutage { zone: 1, down_s: 2.0, up_s: Some(3.0) }],
            partitions: vec![Partition { replica: 0, from_s: 4.0, until_s: 5.0 }],
            gray: vec![GrayFailure {
                replica: 1,
                from_s: 6.0,
                until_s: 7.0,
                severity: 0.5,
                seed: 1,
            }],
            slowdowns: vec![Slowdown { replica: 0, from_s: 8.0, until_s: 9.0, factor: 2.0 }],
            link_stalls: vec![LinkStall { replica: 1, from_s: 10.0, until_s: 11.0, factor: 2.0 }],
        };
        plan.validate(2);
        let w = plan.fault_windows();
        assert_eq!(w.len(), 6);
        assert!(w.contains(&(0, 1.0, f64::INFINITY)));
        assert!(w.contains(&(1, 2.0, 3.0)));
        assert!(w.contains(&(0, 4.0, 5.0)));
        assert!(w.contains(&(1, 6.0, 7.0)));
    }
}
