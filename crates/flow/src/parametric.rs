//! Reusable parametric flow networks: build the arcs once, re-solve at
//! many capacity settings, warm-starting from the retained flow.
//!
//! The LhCDS verification stack solves the *same* `DeriveCompact`
//! network at a ladder of density thresholds ρ: between consecutive
//! `IsDensest` / `DeriveCompact` / marginal-density probes only the
//! ρ-dependent vertex↔terminal capacities change, while the clique arcs
//! (`s → ψ` and `ψ → v`, one node per clique) — the overwhelming
//! majority — are static. Rebuilding the
//! whole network per probe (nodes, arc pairs, adjacency lists) is pure
//! overhead; this module retains it.
//!
//! ## Model
//!
//! A [`ParametricNetwork`] owns a [`Dinic`] plus the list of its
//! parametric arcs:
//!
//! * **static arcs** ([`ParametricNetwork::add_static`]) carry an
//!   integer unit capacity `c`; at solve scale `D` their capacity is
//!   `c · D`;
//! * **parametric arcs** ([`ParametricNetwork::add_parametric`]) get an
//!   explicit capacity (already expressed at scale `D`) on every solve.
//!
//! The static capacities are kept nowhere but in the network itself, at
//! the current scale: staged at unit scale, then rescaled in place on
//! every solve whose scale differs. No per-arc copy sits next to the
//! network. The one static figure kept aside is the largest unit
//! capacity, which bounds every static product at once (see the
//! overflow rule below).
//!
//! Exactness forces the scale: the sink capacities `ρ` are rational,
//! and each threshold `ρ = a/b` needs `b | D` for integer capacities.
//! Because scaling *all* capacities by a common factor permutes neither
//! the set of minimum cuts nor their canonical minimal / maximal source
//! sides, any valid `D` yields identical cut-side answers — which is
//! what makes the reuse path bit-identical to the rebuild-from-scratch
//! path.
//!
//! ## Warm starts and retraction
//!
//! [`ParametricNetwork::solve`] keeps the previous residual flow when it
//! remains feasible under the new capacities: the retained flow at
//! scale `D₁` is rescaled by the integer `q = D₂/D₁` (conservation is
//! linear, so `q·f` is again a valid s–t flow) and kept iff every
//! parametric arc still covers its rescaled flow (static arcs scale
//! with `D` and can never under-run). This is precisely the monotone
//! regime of Gallo–Grigoriadis–Tarjan: in the Goldberg ladder ρ only
//! grows, sink capacities only grow, and each probe re-solves in time
//! proportional to the *increment*.
//!
//! The rescale runs in place, in two passes. The first only checks:
//! every static product is at most `max_unit · D₂` (a static arc's
//! residual and flow are both at most its total `c · D₁`), so one
//! `checked_mul` covers all of them, and each parametric arc's flow
//! gets its own `checked_mul` by `q`. The second multiplies the
//! residual column by `q` (skipped when `q = 1`, the common case along
//! a ladder) and installs the new parametric capacities; parametric
//! residuals are zeroed first, since their capacity is replaced anyway.
//!
//! Capacity *decreases* keep the rescaled flow as well and *cancel only
//! the infeasible excess* of each shrunk arc along the flow's own
//! support paths (`Dinic::retract_arc`), so the follow-up max-flow
//! starts from a feasible flow that is near-maximal whenever the
//! schedule is near-monotone. Work is proportional to the flow
//! cancelled, not the network size. The flow is discarded only when
//! the new scale is not a multiple of the retained one (or the rescale
//! would overflow): then every static capacity is moved to the new
//! scale exactly (`c · D₁` becomes `c · D₂`) and the solve restarts
//! from zero on the built network.
//!
//! [`crate::flow_stats`] counts all outcomes, splitting cold solves
//! into the unavoidable first build per network vs genuine resets.

use crate::dinic::{ArcId, Dinic};
use crate::stats;

/// Largest solve scale the warm-start chain may compound to. A chained
/// scale is `lcm` of the previous scale and the new denominator, so it
/// can grow along a ladder; past this bound the solver falls back to a
/// fresh minimal scale (cold solve) to keep every capacity product
/// comfortably inside `i128`.
const SCALE_LIMIT: i128 = 1 << 80;

/// `lcm(a, b)` for positive operands, `None` on overflow.
fn checked_lcm(a: i128, b: i128) -> Option<i128> {
    debug_assert!(a > 0 && b > 0);
    (a / crate::rational::gcd(a, b)).checked_mul(b)
}

/// How a [`ParametricNetwork::solve`] call treated the retained flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMode {
    /// The previous residual flow was rescaled and kept; max-flow only
    /// pushed the increment.
    Warm,
    /// A capacity decrease made the rescaled flow infeasible; only the
    /// excess was cancelled along its own flow paths, and max-flow
    /// continued from the retracted flow.
    Retract,
    /// The previous flow was discarded (first solve, or a scale that is
    /// not a multiple of the retained one) and max-flow ran from zero,
    /// but on the already-built network.
    Cold,
}

/// A flow network whose arcs are built once and re-solved at many
/// capacity settings. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct ParametricNetwork {
    net: Dinic,
    s: u32,
    t: u32,
    /// Largest static unit capacity: bounds every static product of a
    /// rescale (module docs).
    max_unit: i128,
    /// Parametric arcs, in `add_parametric` order.
    param_arcs: Vec<ArcId>,
    /// Scale of the currently retained flow/capacities; 0 until the
    /// first solve.
    cur_scale: i128,
}

impl ParametricNetwork {
    /// Creates a network with `nodes` nodes and terminals `s != t`.
    pub fn new(nodes: usize, s: u32, t: u32) -> Self {
        assert!(s != t && (s as usize) < nodes && (t as usize) < nodes);
        ParametricNetwork {
            net: Dinic::new(nodes),
            s,
            t,
            max_unit: 0,
            param_arcs: Vec::new(),
            cur_scale: 0,
        }
    }

    /// Reserves room for `additional` more arcs of either class.
    pub fn reserve(&mut self, additional: usize) {
        self.net.reserve(additional);
    }

    /// Adds a static arc whose capacity at solve scale `D` is
    /// `unit_cap · D`.
    pub fn add_static(&mut self, from: u32, to: u32, unit_cap: i128) -> ArcId {
        assert!(self.cur_scale == 0, "arcs must be added before solving");
        assert!(unit_cap >= 0, "negative capacity");
        self.max_unit = self.max_unit.max(unit_cap);
        self.net.add_edge(from, to, unit_cap)
    }

    /// Adds a parametric arc; its capacity is supplied to every
    /// [`ParametricNetwork::solve`] call at the entry with the returned
    /// index.
    pub fn add_parametric(&mut self, from: u32, to: u32) -> usize {
        assert!(self.cur_scale == 0, "arcs must be added before solving");
        let arc = self.net.add_edge(from, to, 0);
        self.param_arcs.push(arc);
        self.param_arcs.len() - 1
    }

    /// Finishes building: lays the network out for solving (the CSR
    /// freeze of [`Dinic`]). The first solve does it otherwise.
    pub fn freeze(&mut self) {
        self.net.freeze();
    }

    /// Number of parametric arcs (the length `solve` expects of its
    /// capacity slice).
    pub fn param_count(&self) -> usize {
        self.param_arcs.len()
    }

    /// Number of arcs of both classes.
    pub fn arc_count(&self) -> usize {
        self.net.arc_count()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.net.node_count()
    }

    /// The `(s, t)` terminals.
    pub fn terminals(&self) -> (u32, u32) {
        (self.s, self.t)
    }

    /// Chooses the solve scale for a threshold with denominator `den`:
    /// a multiple of `den`, preferring one that is also a multiple of
    /// the retained flow's scale (so the next solve *can* warm-start) as
    /// long as that stays under the overflow guard.
    pub fn scale_for(&self, den: i128) -> i128 {
        assert!(den > 0, "denominator must be positive");
        if self.cur_scale > 0 {
            if let Some(chained) = checked_lcm(den, self.cur_scale) {
                if chained <= SCALE_LIMIT {
                    return chained;
                }
            }
            // The chain would overflow: restart from the minimal scale,
            // forfeiting the retained flow. Previously silent; counted
            // so warm-hit regressions are diagnosable from stats alone.
            stats::SCALE_FALLBACKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        den
    }

    /// Re-tunes every capacity to the positive scale `scale` (use
    /// [`ParametricNetwork::scale_for`]), installs
    /// `param_caps` on the parametric arcs, warm-starts from the
    /// retained flow when it remains feasible — retracting it along its
    /// own paths where a capacity decreased — and runs max-flow.
    pub fn solve(&mut self, scale: i128, param_caps: &[i128]) -> SolveMode {
        assert!(scale > 0, "scale must be positive");
        assert_eq!(param_caps.len(), self.param_arcs.len(), "capacity slice");
        self.net.freeze();
        let first = self.cur_scale == 0;
        // The scale the static capacities are installed at.
        let base = if first { 1 } else { self.cur_scale };

        // Pass 1: the retained flow is reusable iff the scale ratio q is
        // a positive integer and the rescale overflows nowhere. Every
        // static product is at most max_unit · scale; each parametric
        // flow is checked on its own.
        let q = if scale % base == 0 { scale / base } else { 0 };
        let fits = q > 0
            && self.max_unit.checked_mul(scale).is_some()
            && self
                .param_arcs
                .iter()
                .all(|&arc| self.net.current_flow(arc).checked_mul(q).is_some());

        let mode = if fits {
            // Pass 2: keep the rescaled flow under temporarily inflated
            // parametric capacities (still a conserving flow), then
            // retract each oversubscribed arc: the retraction cancels
            // its excess along the flow's own support paths and snaps
            // the inflated capacity down. With no oversubscribed arc
            // the rescaled flow is installed as-is (warm).
            for &arc in &self.param_arcs {
                let flow = self.net.current_flow(arc);
                self.net.set_state(arc, flow, flow);
            }
            if q > 1 {
                self.net.scale_in_place(q);
            }
            let mut oversubscribed = Vec::new();
            for (&arc, &cap) in self.param_arcs.iter().zip(param_caps) {
                let flow = self.net.current_flow(arc);
                self.net.set_state(arc, cap.max(flow), flow);
                if flow > cap {
                    oversubscribed.push((arc, cap));
                }
            }
            for &(arc, cap) in &oversubscribed {
                self.net.retract_arc(arc, cap, self.s, self.t);
            }
            if first {
                SolveMode::Cold
            } else if oversubscribed.is_empty() {
                SolveMode::Warm
            } else {
                SolveMode::Retract
            }
        } else {
            for &arc in &self.param_arcs {
                self.net.set_state(arc, 0, 0);
            }
            self.net.reset_rescaled(base, scale);
            for (&arc, &cap) in self.param_arcs.iter().zip(param_caps) {
                self.net.set_state(arc, cap, 0);
            }
            SolveMode::Cold
        };
        let counter = match mode {
            SolveMode::Warm => &stats::WARM_SOLVES,
            SolveMode::Retract => &stats::RETRACT_SOLVES,
            SolveMode::Cold if first => &stats::FIRST_BUILD,
            SolveMode::Cold => &stats::INFEASIBLE_RESET,
        };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.net.max_flow(self.s, self.t);
        self.cur_scale = scale;
        mode
    }

    /// Value of the flow found by the last solve, in units of that
    /// solve's scale.
    pub fn flow_value(&self) -> i128 {
        debug_assert!(self.cur_scale > 0, "no solve yet");
        self.net.net_flow_into(self.t)
    }

    /// Minimal source side of a minimum cut of the last solve.
    pub fn min_cut_source_side(&self) -> Vec<bool> {
        debug_assert!(self.cur_scale > 0, "no solve yet");
        self.net.min_cut_source_side(self.s)
    }

    /// Maximal source side of a minimum cut of the last solve.
    pub fn max_cut_source_side(&self) -> Vec<bool> {
        debug_assert!(self.cur_scale > 0, "no solve yet");
        self.net.max_cut_source_side(self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clique network in miniature: s=0, two "vertices" 1 and 2, a
    /// middle node 3, t=4. Static arcs of unit capacity 1 and 2;
    /// parametric s→v and v→t arcs.
    fn tiny() -> (ParametricNetwork, [usize; 4]) {
        let mut pn = ParametricNetwork::new(5, 0, 4);
        pn.add_static(1, 3, 1);
        pn.add_static(3, 2, 2);
        let s1 = pn.add_parametric(0, 1);
        let s2 = pn.add_parametric(0, 2);
        let t1 = pn.add_parametric(1, 4);
        let t2 = pn.add_parametric(2, 4);
        (pn, [s1, s2, t1, t2])
    }

    /// A fresh plain Dinic with the same topology at the given scale and
    /// parametric caps, for ground truth.
    fn fresh(scale: i128, caps: &[i128; 4]) -> Dinic {
        let mut d = Dinic::new(5);
        d.add_edge(1, 3, scale);
        d.add_edge(3, 2, 2 * scale);
        d.add_edge(0, 1, caps[0]);
        d.add_edge(0, 2, caps[1]);
        d.add_edge(1, 4, caps[2]);
        d.add_edge(2, 4, caps[3]);
        d
    }

    #[test]
    fn warm_chain_matches_fresh_solves() {
        let (mut pn, _) = tiny();
        // monotone sink ladder at a fixed scale: first solve cold, the
        // rest warm; every cut side must equal a fresh network's
        let schedule: [[i128; 4]; 4] = [[6, 6, 1, 1], [6, 6, 2, 2], [6, 6, 4, 3], [6, 6, 9, 9]];
        for (i, caps) in schedule.iter().enumerate() {
            let scale = pn.scale_for(1);
            assert_eq!(scale, 1);
            let mode = pn.solve(scale, caps);
            assert_eq!(
                mode,
                if i == 0 {
                    SolveMode::Cold
                } else {
                    SolveMode::Warm
                },
                "step {i}"
            );
            let mut d = fresh(scale, caps);
            d.max_flow(0, 4);
            assert_eq!(pn.min_cut_source_side(), d.min_cut_source_side(0));
            assert_eq!(pn.max_cut_source_side(), d.max_cut_source_side(4));
        }
    }

    /// A scale that is not a multiple of the retained one discards the
    /// flow: the already-solved network restarts from zero and must
    /// reach a fresh network's cuts (Dinic's restart path).
    #[test]
    fn incompatible_scale_restarts_cold() {
        let (mut pn, _) = tiny();
        pn.solve(6, &[18, 18, 15, 15]);
        let mode = pn.solve(4, &[12, 12, 2, 2]);
        assert_eq!(mode, SolveMode::Cold);
        let mut d = fresh(4, &[12, 12, 2, 2]);
        let f = d.max_flow(0, 4);
        assert_eq!(pn.flow_value(), f);
        assert_eq!(pn.min_cut_source_side(), d.min_cut_source_side(0));
        assert_eq!(pn.max_cut_source_side(), d.max_cut_source_side(4));
    }

    #[test]
    fn scale_changes_rescale_the_retained_flow() {
        let (mut pn, _) = tiny();
        // denominator 3 → scale 3; then denominator 1 keeps 3 (warm
        // compatible); then denominator 5 → lcm 15, q = 5
        let s1 = pn.scale_for(3);
        assert_eq!(s1, 3);
        pn.solve(s1, &[9, 9, 2, 2]);
        let s2 = pn.scale_for(1);
        assert_eq!(s2, 3, "retained scale already covers den 1");
        assert_eq!(pn.solve(s2, &[9, 9, 3, 3]), SolveMode::Warm);
        let s3 = pn.scale_for(5);
        assert_eq!(s3, 15);
        let mode = pn.solve(s3, &[45, 45, 20, 20]);
        assert_eq!(mode, SolveMode::Warm);
        let mut d = fresh(15, &[45, 45, 20, 20]);
        d.max_flow(0, 4);
        assert_eq!(pn.min_cut_source_side(), d.min_cut_source_side(0));
        assert_eq!(pn.max_cut_source_side(), d.max_cut_source_side(4));
    }

    #[test]
    fn capacity_decreases_retract_instead_of_resetting() {
        // (exact work-counter assertions live in tests/telemetry.rs,
        // which owns its process so the global counters are quiet)
        let (mut pn, _) = tiny();
        let scale = pn.scale_for(1);
        assert_eq!(pn.solve(scale, &[6, 6, 5, 5]), SolveMode::Cold);
        // shrinking the sink arcs below their carried flow retracts —
        // and still matches a fresh solve
        assert_eq!(pn.solve(scale, &[6, 6, 1, 1]), SolveMode::Retract);
        let mut d = fresh(scale, &[6, 6, 1, 1]);
        let f = d.max_flow(0, 4);
        assert_eq!(pn.flow_value(), f);
        assert_eq!(pn.min_cut_source_side(), d.min_cut_source_side(0));
        assert_eq!(pn.max_cut_source_side(), d.max_cut_source_side(4));
        assert_eq!(pn.solve(scale, &[6, 6, 3, 3]), SolveMode::Warm);
    }

    #[test]
    fn retraction_matches_fresh_on_non_monotone_schedules() {
        // zig-zag thresholds with scale changes: every step must agree
        // with a fresh network, whatever mode the solver picked
        let (mut pn, _) = tiny();
        let schedule: [(i128, [i128; 4]); 6] = [
            (1, [6, 6, 2, 2]),
            (3, [18, 18, 12, 12]), // scale 3, growth: warm
            (3, [18, 18, 3, 3]),   // shrink: retract
            (1, [18, 18, 0, 0]),   // shrink to zero
            (5, [90, 90, 60, 45]), // scale 15, growth again
            (2, [90, 90, 10, 80]), // mixed shrink/growth
        ];
        for (i, (den, caps)) in schedule.iter().enumerate() {
            let scale = pn.scale_for(*den);
            pn.solve(scale, caps);
            let mut d = fresh(scale, caps);
            let f = d.max_flow(0, 4);
            assert_eq!(pn.flow_value(), f, "step {i}");
            assert_eq!(
                pn.min_cut_source_side(),
                d.min_cut_source_side(0),
                "step {i}"
            );
            assert_eq!(
                pn.max_cut_source_side(),
                d.max_cut_source_side(4),
                "step {i}"
            );
        }
    }

    #[test]
    fn scale_limit_forces_a_fresh_minimal_scale() {
        let (mut pn, _) = tiny();
        pn.cur_scale = SCALE_LIMIT / 2; // pretend a huge retained chain
                                        // a coprime denominator would chain past the limit → minimal
        let s = pn.scale_for(3);
        assert_eq!(s, 3);
    }
}
