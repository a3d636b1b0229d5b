//! Process-wide flow-layer work counters.
//!
//! The verification stack's dominant cost is max-flow, and the PR-level
//! acceptance contracts of this repository are phrased over *work
//! counters*, not wall time: "the read path runs zero flow", "the reuse
//! path builds one network per candidate instance, not one per density
//! probe". This module is the single source of truth for those
//! counters:
//!
//! * `networks_built` — [`crate::Dinic::new`] calls (every flow network
//!   ever constructed, parametric or not);
//! * `arcs_built` — [`crate::Dinic::add_edge`] calls (arc *pairs*; the
//!   implicit reverse arc is not counted separately);
//! * `max_flow_invocations` — [`crate::Dinic::max_flow`] calls;
//! * `warm_solves` / `retract_solves` / `first_build` /
//!   `infeasible_reset` — [`crate::ParametricNetwork`] solve outcomes:
//!   whether the retained residual flow could be kept as-is (rescaled),
//!   kept after cancelling the infeasible excess (the never-reset
//!   path), or discarded — and, for discards, whether that was the
//!   unavoidable first solve on a fresh network or a genuine reset.
//!   [`FlowStats::cold_solves`] derives the historical cold total.
//! * `scale_fallbacks` — [`crate::ParametricNetwork::scale_for`] calls
//!   whose chained-lcm scale would have overflowed and restarted from
//!   the threshold's own denominator (each one forfeits warm starts;
//!   previously silent).
//!
//! All counters are monotone process-wide atomics with relaxed
//! ordering: they are observability, never control flow. Callers that
//! want per-run numbers snapshot [`flow_stats`] before and after the
//! region of interest and subtract with [`FlowStats::since`] — tests
//! only compare values taken on the asserting thread around
//! fully-joined work.

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) static NETWORKS_BUILT: AtomicU64 = AtomicU64::new(0);
pub(crate) static ARCS_BUILT: AtomicU64 = AtomicU64::new(0);
pub(crate) static MAX_FLOW_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static WARM_SOLVES: AtomicU64 = AtomicU64::new(0);
pub(crate) static RETRACT_SOLVES: AtomicU64 = AtomicU64::new(0);
pub(crate) static FIRST_BUILD: AtomicU64 = AtomicU64::new(0);
pub(crate) static INFEASIBLE_RESET: AtomicU64 = AtomicU64::new(0);
pub(crate) static SCALE_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// A snapshot (or a difference of two snapshots) of the flow-layer work
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Flow networks constructed ([`crate::Dinic::new`]).
    pub networks_built: u64,
    /// Arcs added across all networks ([`crate::Dinic::add_edge`]).
    pub arcs_built: u64,
    /// Max-flow solves ([`crate::Dinic::max_flow`]).
    pub max_flow_invocations: u64,
    /// Parametric solves that kept (rescaled) the retained flow as-is.
    pub warm_solves: u64,
    /// Parametric solves that kept the retained flow by cancelling the
    /// capacity-decrease excess along its own flow paths instead of
    /// resetting (the never-reset path).
    pub retract_solves: u64,
    /// Cold solves that were the first on a freshly built network — the
    /// one discard per network no reuse scheme can avoid.
    pub first_build: u64,
    /// Cold solves that discarded a previously retained flow because a
    /// capacity decrease (or a non-multiple scale change) made it
    /// infeasible — the reuse losses `retract_solves` exists to remove.
    pub infeasible_reset: u64,
    /// `scale_for` calls that fell back to a fresh minimal scale because
    /// the chained lcm would have overflowed the scale limit; each one
    /// forfeits the warm/retract start for that solve.
    pub scale_fallbacks: u64,
}

impl FlowStats {
    /// Component-wise difference against an earlier snapshot
    /// (saturating, so a stale snapshot can never underflow).
    pub fn since(&self, earlier: &FlowStats) -> FlowStats {
        FlowStats {
            networks_built: self.networks_built.saturating_sub(earlier.networks_built),
            arcs_built: self.arcs_built.saturating_sub(earlier.arcs_built),
            max_flow_invocations: self
                .max_flow_invocations
                .saturating_sub(earlier.max_flow_invocations),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            retract_solves: self.retract_solves.saturating_sub(earlier.retract_solves),
            first_build: self.first_build.saturating_sub(earlier.first_build),
            infeasible_reset: self
                .infeasible_reset
                .saturating_sub(earlier.infeasible_reset),
            scale_fallbacks: self.scale_fallbacks.saturating_sub(earlier.scale_fallbacks),
        }
    }

    /// Parametric solves that discarded the retained flow (the
    /// historical "cold" total): unavoidable first builds plus genuine
    /// infeasibility resets.
    pub fn cold_solves(&self) -> u64 {
        self.first_build + self.infeasible_reset
    }

    /// Total parametric solves (warm + retract + cold).
    pub fn parametric_solves(&self) -> u64 {
        self.warm_solves + self.retract_solves + self.cold_solves()
    }

    /// Fraction of parametric solves that kept the retained flow —
    /// warm starts plus retractions — out of all parametric solves
    /// (0 when none ran). For reports only — exact counts are the
    /// contract.
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.parametric_solves();
        if total == 0 {
            0.0
        } else {
            (self.warm_solves + self.retract_solves) as f64 / total as f64
        }
    }
}

/// Current process-wide counter values.
///
/// ```
/// use lhcds_flow::{flow_stats, Dinic};
///
/// let before = flow_stats();
/// let mut net = Dinic::new(2);
/// net.add_edge(0, 1, 3);
/// net.max_flow(0, 1);
/// let delta = flow_stats().since(&before);
/// assert_eq!(delta.networks_built, 1);
/// assert_eq!(delta.arcs_built, 1);
/// assert_eq!(delta.max_flow_invocations, 1);
/// ```
pub fn flow_stats() -> FlowStats {
    FlowStats {
        networks_built: NETWORKS_BUILT.load(Ordering::Relaxed),
        arcs_built: ARCS_BUILT.load(Ordering::Relaxed),
        max_flow_invocations: MAX_FLOW_CALLS.load(Ordering::Relaxed),
        warm_solves: WARM_SOLVES.load(Ordering::Relaxed),
        retract_solves: RETRACT_SOLVES.load(Ordering::Relaxed),
        first_build: FIRST_BUILD.load(Ordering::Relaxed),
        infeasible_reset: INFEASIBLE_RESET.load(Ordering::Relaxed),
        scale_fallbacks: SCALE_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Total number of max-flow solves this process has run so far.
///
/// This is observability, not control flow: callers that promise a
/// *flow-free* path (the query side of `lhcds-core`'s decomposition
/// index, served by `lhcds-service`) prove the promise in tests by
/// snapshotting this counter around the queried region and asserting it
/// never moved.
///
/// ```
/// use lhcds_flow::{max_flow_invocations, Dinic};
///
/// let before = max_flow_invocations();
/// let mut net = Dinic::new(2);
/// net.add_edge(0, 1, 3);
/// net.max_flow(0, 1);
/// assert!(max_flow_invocations() > before);
/// ```
pub fn max_flow_invocations() -> u64 {
    MAX_FLOW_CALLS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_saturating_and_componentwise() {
        let a = FlowStats {
            networks_built: 5,
            arcs_built: 100,
            max_flow_invocations: 9,
            warm_solves: 3,
            retract_solves: 2,
            first_build: 1,
            infeasible_reset: 3,
            scale_fallbacks: 1,
        };
        let b = FlowStats {
            networks_built: 2,
            arcs_built: 40,
            max_flow_invocations: 10, // "later" snapshot is behind: saturate
            warm_solves: 1,
            retract_solves: 1,
            first_build: 1,
            infeasible_reset: 1,
            scale_fallbacks: 0,
        };
        let d = a.since(&b);
        assert_eq!(d.networks_built, 3);
        assert_eq!(d.arcs_built, 60);
        assert_eq!(d.max_flow_invocations, 0);
        assert_eq!(d.warm_solves, 2);
        assert_eq!(d.retract_solves, 1);
        assert_eq!(d.first_build, 0);
        assert_eq!(d.infeasible_reset, 2);
        assert_eq!(d.scale_fallbacks, 1);
        assert_eq!(d.cold_solves(), 2);
        assert_eq!(d.parametric_solves(), 5);
        assert!((d.warm_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(FlowStats::default().warm_hit_rate(), 0.0);
    }
}
