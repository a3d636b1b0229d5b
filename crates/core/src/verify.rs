//! LhCDS verification (§4.4): basic (Algorithm 4) and fast (Algorithm 5).
//!
//! **Precondition** shared by both verifiers: the candidate `S` is
//! connected and h-clique `ρ`-compact for `ρ = d_ψh(G[S])` (equivalently
//! self-densest — callers establish this with the local densest
//! decomposition). What remains to check is *maximality*: no h-clique
//! `ρ`-compact supergraph of `S` exists in `G` (Definition 2, condition
//! 2).
//!
//! * [`SupportVerifier::verify`] (Algorithm 4) runs
//!   `DeriveCompact(G, ρ − 1/|V|², ∅)`, the union of all maximal
//!   `ρ`-compact subgraphs (Theorem 5); `S` is an LhCDS iff it is one of
//!   its connected components.
//! * [`verify_fast_with`] (Algorithm 5) restricts the network to the
//!   neighborhood `T` that could possibly host a `ρ`-compact supergraph:
//!   every vertex of a `ρ`-compact subgraph has compact number `≥ ρ`, so
//!   a BFS from `S` across vertices with upper bound `φ̄(w) ≥ ρ`
//!   provably covers the maximal `ρ`-compact supergraph of `S`. Three
//!   outcomes avoid the flow entirely:
//!   - **early reject**: a vertex adjacent to `S` has lower bound
//!     `φ̲(w) > ρ` — its own compact region merges with `S` into a
//!     larger `ρ`-compact subgraph (the union of two `ρ`-compact
//!     subgraphs joined by an edge is `ρ`-compact), so `S` is not
//!     maximal;
//!   - **early reject**: a vertex adjacent to `S` belongs to an
//!     already-verified LhCDS (its pinned compact number is `≥ ρ` for
//!     the same reason — outputs are emitted densest-first);
//!   - **shortcut accept**: the BFS never leaves `S` — no adjacent
//!     vertex can reach compact number `ρ`, so no supergraph exists.
//!
//!   Otherwise `DeriveCompact(G[T], ρ − 1/|T|², P)` decides exactly.
//!   With this `T` the paper's boundary-clique set `P` (Figure 7) is
//!   provably empty under its own validity rule (a straddling clique
//!   would have a member with `φ̄ < ρ`, which can belong to no
//!   `ρ`-compact subgraph), so the network is the plain
//!   `DeriveCompact` network over `G[T]` ([`crate::compact`]: one
//!   node per clique, the same cuts as Figure 6 up to the factor `h`).
//!
//! ## Why the shared network is exact
//!
//! Both algorithms run on **one** network: the `DeriveCompact` network
//! of a [`SupportVerifier`], built once per run by [`InstanceSolver`] on the
//! **clique support** `U = {v : cliques.degree(v) > 0}`, never on all
//! of `V`.
//!
//! * **Support.** Every threshold either algorithm solves at is
//!   strictly positive: `S` holds at least one instance, so
//!   `ρ ≥ 1/|S|`, while the perturbation is `1/|T|² < 1/|S|` because
//!   `|T| ≥ |S| ≥ h ≥ 2` (Algorithm 4's `1/|U|²` likewise). A vertex
//!   outside `U` would add its positive `v → t` capacity to any cut
//!   that keeps it on the source side and no clique arc to any cut that
//!   drops it, so no maximal min-cut source side ever contains it:
//!   dropping it from the network changes no kept set. For Algorithm 4,
//!   Theorem 5 applied to `G[U]` (which holds every instance) gives the
//!   union of maximal `ρ`-compact subgraphs at `ε = 1/|U|²`, and that
//!   union is the same in `G`, since no vertex outside `U` lies in a
//!   `ρ`-compact subgraph for `ρ > 0`.
//! * **Algorithm 4** is `DeriveCompact(ρ)` on the whole network.
//! * **Algorithm 5** sink-pins every support vertex outside `T`
//!   ([`InstanceSolver::max_source_side`]) and solves at
//!   `ρ − 1/|T|²`. A clique `c` with a member outside `T` can never lie
//!   inside a source side `A ⊆ T`, so it adds the constant 1 to every
//!   such cut (through `s → c`, or through the `c → v` arc of a member
//!   outside `A`). The cut function over `A ⊆ T` is therefore the
//!   reduced network's over `G[T]` plus the number of cliques not
//!   inside `T`, a constant, so the min-cut source sides (the canonical
//!   maximal one included) coincide bit-identically. Clique-free
//!   members of `T` enter only through `|T|` in the perturbation.
//!
//! Re-tunes retract the retained flow instead of resetting it, so the
//! flow survives from candidate to candidate. Algorithm 5 also
//! **memoizes** each flow-deciding call by the exact key
//! `(ρ, sorted T)`. The network's capacities are a function of `T`, `ρ`
//! and the fixed instance store alone — the bounds and the output mask
//! only shape `T`, never a capacity — and the maximal min-cut source
//! side is canonical (the union of all minimum cuts' source sides),
//! whatever flow the retained network carried in from earlier
//! candidates. So the same key always yields the same kept set, and its
//! connected components can be stored and looked up instead of
//! re-solved. Algorithm 4 has no memo. The per-candidate reduced
//! network (`verify_fast_with(.., None)`) is the oracle the shared
//! network is tested against.

use crate::bounds::Bounds;
use crate::compact::{local_instance, InstanceSolver};
use lhcds_clique::CliqueSet;
use lhcds_flow::Ratio;
use lhcds_graph::traversal::components_within;
use lhcds_graph::{CsrGraph, VertexId};
use std::collections::HashMap;

/// Outcome of a verification call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `S` is a locally h-clique densest subgraph.
    Lhcds,
    /// `S` is not maximal: the given strictly-larger vertex set is the
    /// connected component of the union of maximal `ρ`-compact
    /// subgraphs that contains `S` (parent vertex ids, sorted).
    Superset(Vec<VertexId>),
}

/// Counters describing how a fast verification was decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastVerifyInfo {
    /// BFS closure size `|T|`.
    pub t_size: usize,
    /// Whether `DeriveCompact` decided the verdict (a network solve, or
    /// a [`SupportVerifier`] memo hit on the same `(ρ, T)`).
    pub used_flow: bool,
    /// Whether a [`SupportVerifier`] memo hit answered without a solve.
    pub memo_hit: bool,
    /// Whether the shortcut accept fired (`T == S`).
    pub shortcut_accept: bool,
    /// Whether an early bound-based reject fired.
    pub early_reject: bool,
}

/// Both verifiers' flow step on **one** retained `DeriveCompact` network
/// over the clique support (exactness: module docs).
///
/// Algorithm 4 ([`SupportVerifier::verify`]) solves the whole network;
/// Algorithm 5 ([`verify_fast_with`] with a slot for this type) pins
/// the support outside each candidate's `T` to the sink side and
/// memoizes the connected components of each kept set by `(ρ, sorted T)`.
/// The driver owns one per run and never shares it across threads.
#[derive(Debug)]
pub struct SupportVerifier {
    solver: InstanceSolver,
    /// local → parent ids (ascending); its inverse is a binary search.
    map: Vec<VertexId>,
    /// `(ρ, sorted T)` → connected components of the kept set.
    memo: HashMap<(Ratio, Vec<VertexId>), Vec<Vec<VertexId>>>,
}

impl SupportVerifier {
    /// Builds the support instance once; its network is built on the
    /// first solve.
    pub fn new(cliques: &CliqueSet) -> SupportVerifier {
        let support: Vec<VertexId> = (0..cliques.n() as VertexId)
            .filter(|&v| cliques.degree(v) > 0)
            .collect();
        let (inst, map) = {
            let _sp = lhcds_obs::span("local-instance");
            local_instance(cliques, &support)
        };
        debug_assert_eq!(inst.clique_count(), cliques.len());
        SupportVerifier {
            solver: InstanceSolver::new(inst),
            map,
            memo: HashMap::new(),
        }
    }

    /// Basic verification (Algorithm 4): `DeriveCompact` over the
    /// support, no memo. `s_sorted` must be sorted ascending and `g` the
    /// graph the clique store was enumerated from.
    pub fn verify(&mut self, g: &CsrGraph, s_sorted: &[VertexId], rho: Ratio) -> Verdict {
        debug_assert!(s_sorted.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(
            self.map.len() <= g.n() && s_sorted.iter().all(|v| self.map.binary_search(v).is_ok()),
            "verify() must receive the graph this verifier was built from"
        );
        let n = self.map.len() as i128;
        debug_assert!(
            rho - Ratio::new(1, n * n) > Ratio::zero(),
            "DeriveCompact threshold must be positive"
        );
        let membership = self.solver.derive_compact(rho);
        component_verdict(s_sorted, &components_within(g, &self.kept(&membership)))
    }

    /// `DeriveCompact(G[T], ρ − 1/|T|², ∅)` — the union of all maximal
    /// `ρ`-compact subgraphs of `G[T]` — on the retained network, with
    /// no memo: the kept members (parent ids, ascending). `t_sorted`
    /// must be ascending with `|T| ≥ 2` and `ρ > 1/|T|²`.
    pub fn derive_compact_within(&mut self, t_sorted: &[VertexId], rho: Ratio) -> Vec<VertexId> {
        let ts = t_sorted.len() as i128;
        let thr = rho - Ratio::new(1, ts * ts);
        debug_assert!(
            thr > Ratio::zero(),
            "DeriveCompact threshold must be positive"
        );
        let mut sink = vec![true; self.map.len()];
        for v in t_sorted {
            if let Ok(l) = self.map.binary_search(v) {
                sink[l] = false;
            }
        }
        let membership = self.solver.max_source_side(thr.max(Ratio::zero()), &sink);
        self.kept(&membership)
    }

    /// The connected components (in `g`, each ascending) of
    /// [`SupportVerifier::derive_compact_within`], and whether the memo
    /// answered.
    fn compact_components(
        &mut self,
        g: &CsrGraph,
        t_sorted: Vec<VertexId>,
        rho: Ratio,
    ) -> (&[Vec<VertexId>], bool) {
        let key = (rho, t_sorted);
        if self.memo.contains_key(&key) {
            return (&self.memo[&key], true);
        }
        let kept = self.derive_compact_within(&key.1, rho);
        let comps = components_within(g, &kept);
        (self.memo.entry(key).or_insert(comps), false)
    }

    /// Parent ids of the local vertices marked in `membership`.
    fn kept(&self, membership: &[bool]) -> Vec<VertexId> {
        self.map
            .iter()
            .zip(membership)
            .filter(|&(_, &m)| m)
            .map(|(&v, _)| v)
            .collect()
    }
}

/// Fast verification (Algorithm 5). `output_mask[v]` marks vertices of
/// already-verified LhCDSes (used for the early reject — their compact
/// numbers are pinned at densities `≥ ρ`). An early reject still runs
/// the flow step, so a rejection always carries its superset.
///
/// With a `shared` slot, the flow step asks the memoized
/// [`SupportVerifier`] — built on the first flow-deciding call, so
/// candidate streams that resolve entirely by shortcut never pay for
/// it. `None` builds a reduced network over `G[T]` per call: the
/// per-candidate oracle. Verdicts are bit-identical either way.
pub fn verify_fast_with(
    g: &CsrGraph,
    cliques: &CliqueSet,
    s_sorted: &[VertexId],
    rho: Ratio,
    bounds: &Bounds,
    output_mask: &[bool],
    shared: Option<&mut Option<SupportVerifier>>,
) -> (Verdict, FastVerifyInfo) {
    debug_assert!(s_sorted.windows(2).all(|w| w[0] < w[1]));
    let mut info = FastVerifyInfo::default();
    let rho_hi = rho.to_f64() + 1e-9; // reject needs certainty above ρ
    let rho_lo = rho.to_f64() - 1e-9; // expansion includes ties at ρ

    // BFS closure of S across vertices that may reach compact number ρ.
    let mut in_t = vec![false; g.n()];
    let mut in_s = vec![false; g.n()];
    for &v in s_sorted {
        in_t[v as usize] = true;
        in_s[v as usize] = true;
    }
    let mut queue: std::collections::VecDeque<VertexId> = s_sorted.iter().copied().collect();
    let mut t: Vec<VertexId> = s_sorted.to_vec();
    while let Some(v) = queue.pop_front() {
        let v_in_s = in_s[v as usize];
        for &w in g.neighbors(v) {
            if in_t[w as usize] {
                continue;
            }
            let wi = w as usize;
            if v_in_s && (bounds.lower[wi] > rho_hi || output_mask[wi]) {
                // a neighbor of S certainly has compact number ≥ ρ: its
                // compact region merges with S — S is not maximal.
                info.early_reject = true;
            }
            if bounds.upper[wi] >= rho_lo {
                in_t[wi] = true;
                t.push(w);
                queue.push_back(w);
            }
        }
    }
    info.t_size = t.len();

    if !info.early_reject && t.len() == s_sorted.len() {
        info.shortcut_accept = true;
        return (Verdict::Lhcds, info);
    }

    t.sort_unstable();
    info.used_flow = true;
    let verdict = match shared {
        Some(slot) => {
            let sv = slot.get_or_insert_with(|| SupportVerifier::new(cliques));
            let (comps, hit) = sv.compact_components(g, t, rho);
            info.memo_hit = hit;
            component_verdict(s_sorted, comps)
        }
        None => {
            // Reduced flow network over G[T]: the per-candidate oracle.
            let (inst, map) = local_instance(cliques, &t);
            let membership = InstanceSolver::new(inst).derive_compact(rho);
            let kept: Vec<VertexId> = map
                .iter()
                .zip(&membership)
                .filter(|&(_, &m)| m)
                .map(|(&v, _)| v)
                .collect();
            component_verdict(s_sorted, &components_within(g, &kept))
        }
    };
    (verdict, info)
}

/// Shared tail: `S` is an LhCDS iff it equals its connected component
/// within the kept set, given as its components `comps`.
fn component_verdict(s_sorted: &[VertexId], comps: &[Vec<VertexId>]) -> Verdict {
    // S is ρ-compact and connected, so it lies inside one component of
    // the union of maximal ρ-compact subgraphs.
    let first = s_sorted[0];
    let comp = comps
        .iter()
        .find(|c| c.binary_search(&first).is_ok())
        .expect("ρ-compact candidate missing from DeriveCompact output");
    debug_assert!(
        s_sorted.iter().all(|v| comp.binary_search(v).is_ok()),
        "ρ-compact candidate split across DeriveCompact components"
    );
    if comp == s_sorted {
        Verdict::Lhcds
    } else {
        Verdict::Superset(comp.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{initialize_bounds, DEFAULT_SLACK};
    use lhcds_graph::GraphBuilder;

    /// Two K5s connected by a single edge. NOTE: neither K5 alone is an
    /// L3CDS — both are 2-compact and the bridge makes their union a
    /// connected 2-compact supergraph, so the unique L3CDS is the union
    /// of all ten vertices.
    fn two_k5_bridge() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(4, 5);
        b.build()
    }

    /// Two disjoint K5s: each is an L3CDS with density 2.
    fn two_k5_disjoint() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.build()
    }

    fn setup(g: &CsrGraph, h: usize) -> (CliqueSet, Bounds) {
        let cs = CliqueSet::enumerate(g, h);
        let bounds = initialize_bounds(&cs, DEFAULT_SLACK);
        (cs, bounds)
    }

    /// Algorithm 4 on a fresh support network.
    fn basic(g: &CsrGraph, cs: &CliqueSet, s: &[VertexId], rho: Ratio) -> Verdict {
        SupportVerifier::new(cs).verify(g, s, rho)
    }

    /// Algorithm 5 on per-candidate reduced networks (the oracle).
    fn fast(
        g: &CsrGraph,
        cs: &CliqueSet,
        s: &[VertexId],
        rho: Ratio,
        bounds: &Bounds,
        outputs: &[bool],
    ) -> (Verdict, FastVerifyInfo) {
        verify_fast_with(g, cs, s, rho, bounds, outputs, None)
    }

    #[test]
    fn basic_accepts_true_lhcds() {
        let g = two_k5_disjoint();
        let (cs, _) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        assert_eq!(basic(&g, &cs, &s, Ratio::from_int(2)), Verdict::Lhcds);
    }

    #[test]
    fn basic_rejects_bridged_fragment_with_union_superset() {
        // With a bridge, each K5 is 2-compact but not maximal: the
        // verifier must return the full union as the blocking superset.
        let g = two_k5_bridge();
        let (cs, _) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        match basic(&g, &cs, &s, Ratio::from_int(2)) {
            Verdict::Superset(x) => assert_eq!(x, (0..10).collect::<Vec<_>>()),
            other => panic!("expected union superset, got {other:?}"),
        }
    }

    #[test]
    fn basic_rejects_fragment_of_larger_region() {
        // K6: any 5-subset has density 2 but the maximal 2-compact
        // subgraph is all of K6.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let (cs, _) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        // ρ = density of the 5-subset (K5 inside K6) = 10/5 = 2
        match basic(&g, &cs, &s, Ratio::from_int(2)) {
            Verdict::Superset(x) => assert_eq!(x, (0..6).collect::<Vec<_>>()),
            other => panic!("expected superset, got {other:?}"),
        }
    }

    #[test]
    fn fast_matches_basic_on_accept() {
        let g = two_k5_disjoint();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, info) = fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        assert_eq!(verdict, Verdict::Lhcds);
        assert!(info.t_size >= 5);
    }

    #[test]
    fn fast_rejects_bridged_fragment_with_union_superset() {
        let g = two_k5_bridge();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, _) = fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        match verdict {
            Verdict::Superset(x) => assert_eq!(x, (0..10).collect::<Vec<_>>()),
            other => panic!("expected union superset, got {other:?}"),
        }
    }

    #[test]
    fn fast_shortcut_fires_with_tight_bounds() {
        let g = two_k5_bridge();
        let (cs, mut bounds) = setup(&g, 3);
        // pin exact compact numbers: K5 members 2, so the *other* K5
        // (upper = 2 ≥ ρ = 2)… use the bridge structure: give the far
        // side a lower upper bound to force the shortcut.
        for v in 0..5 {
            bounds.pin_exact(v, Ratio::from_int(2));
        }
        for v in 5..10 {
            bounds.pin_exact(v, Ratio::new(3, 2)); // pretend: below ρ
        }
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, info) = fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        assert_eq!(verdict, Verdict::Lhcds);
        assert!(info.shortcut_accept);
        assert!(!info.used_flow);
    }

    #[test]
    fn fast_early_rejects_on_adjacent_output() {
        let g = two_k5_bridge();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let mut outputs = vec![false; g.n()];
        outputs[5..10].fill(true); // the far K5 was already output
        let (verdict, info) = fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        // the early reject still hands back the blocking superset
        assert_eq!(verdict, Verdict::Superset((0..10).collect()));
        assert!(info.early_reject);
        assert!(!info.shortcut_accept);
    }

    #[test]
    fn fast_rejects_fragment_with_superset() {
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, info) = fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        match verdict {
            Verdict::Superset(x) => assert_eq!(x, (0..6).collect::<Vec<_>>()),
            other => panic!("expected superset, got {other:?}"),
        }
        assert!(info.used_flow);
    }

    /// One `SupportVerifier` across many candidates at different ρ must
    /// answer Algorithm 4 exactly like fresh verifiers.
    #[test]
    fn basic_verifier_reuses_one_network_across_candidates() {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(9, 10); // pendant, no triangles
        let g = b.build();
        let (cs, _) = setup(&g, 3);
        let candidates: [(&[VertexId], Ratio); 3] = [
            (&[0, 1, 2, 3, 4], Ratio::from_int(2)),
            (&[5, 6, 7, 8, 9], Ratio::from_int(2)),
            (&[0, 1, 2], Ratio::from_int(1)),
        ];
        let mut shared = SupportVerifier::new(&cs);
        let verdicts: Vec<Verdict> = candidates
            .iter()
            .map(|&(s, rho)| shared.verify(&g, s, rho))
            .collect();
        // (the one-network-for-all-candidates counter contract lives in
        // the integration tests, whose process owns the global counters)
        for (&(s, rho), verdict) in candidates.iter().zip(&verdicts) {
            assert_eq!(*verdict, basic(&g, &cs, s, rho), "{s:?} at {rho}");
        }
        assert_eq!(verdicts[0], Verdict::Lhcds);
        assert_eq!(verdicts[1], Verdict::Lhcds);
        assert!(matches!(verdicts[2], Verdict::Superset(_)));
    }

    /// The shared `SupportVerifier` must answer Algorithm 5 exactly like
    /// the per-candidate reduced-network path, across a sequence of
    /// candidates on one retained network.
    #[test]
    fn shared_fast_verifier_matches_per_candidate_networks() {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(4, 5); // bridge
        b.add_edge(9, 10).add_edge(10, 11).add_edge(11, 9); // triangle
        let g = b.build();
        let (cs, bounds) = setup(&g, 3);
        let outputs = vec![false; g.n()];
        let mut fv = Some(SupportVerifier::new(&cs));
        let candidates: [(&[VertexId], Ratio); 3] = [
            (&[0, 1, 2, 3, 4], Ratio::from_int(2)),
            (&[5, 6, 7, 8], Ratio::from_int(1)),
            (&[9, 10, 11], Ratio::new(1, 3)),
        ];
        for &(s, rho) in &candidates {
            let (legacy, li) = verify_fast_with(&g, &cs, s, rho, &bounds, &outputs, None);
            let (shared, si) = verify_fast_with(&g, &cs, s, rho, &bounds, &outputs, Some(&mut fv));
            assert_eq!(legacy, shared, "candidate {s:?} at {rho}");
            assert_eq!(li.used_flow, si.used_flow);
            assert_eq!(li.t_size, si.t_size);
        }
    }

    /// Two K5s joined by a bridge, with a clique-free pendant path off
    /// the second: the path lies outside the clique support.
    fn bridged_k5s_with_tail() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(4, 5);
        b.add_edge(9, 10).add_edge(10, 11);
        b.build()
    }

    /// The support-built networks answer like the per-candidate oracle,
    /// also when `T` reaches clique-free vertices the shared network
    /// does not contain (they only enter through `|T|`).
    #[test]
    fn support_universe_matches_reduced_network_oracle() {
        let g = bridged_k5s_with_tail();
        let (cs, mut bounds) = setup(&g, 3);
        // let T run onto the tail
        for v in [10usize, 11] {
            bounds.upper[v] = 10.0;
        }
        let outputs = vec![false; g.n()];
        let mut fv: Option<SupportVerifier> = None;
        let s: Vec<VertexId> = (0..5).collect();
        for rho in [Ratio::from_int(2), Ratio::new(3, 2)] {
            let (oracle, oi) = verify_fast_with(&g, &cs, &s, rho, &bounds, &outputs, None);
            let (shared, si) = verify_fast_with(&g, &cs, &s, rho, &bounds, &outputs, Some(&mut fv));
            assert!(oi.used_flow && oi.t_size == 12, "{oi:?}");
            assert_eq!(oracle, shared, "fast verifier at {rho}");
            assert_eq!(oi.t_size, si.t_size);
            assert_eq!(basic(&g, &cs, &s, rho), oracle, "basic verifier at {rho}");
        }
        // the clique support: the tail is not in the network
        let support = fv.expect("flow-deciding call builds the net").map;
        assert_eq!(support, (0..10).collect::<Vec<_>>());
    }

    /// A `(T, ρ)` pair that recurs after the output mask and the bounds
    /// have changed — and after other candidates moved the retained
    /// flow — is answered by the memo, with the verdict a freshly built
    /// network gives.
    #[test]
    fn memo_hit_after_state_change_matches_fresh_network() {
        let g = bridged_k5s_with_tail();
        let (cs, mut bounds) = setup(&g, 3);
        let mut outputs = vec![false; g.n()];
        let first: Vec<VertexId> = (0..5).collect();
        let other: Vec<VertexId> = (5..10).collect();
        let mut fv: Option<SupportVerifier> = None;
        let (v1, i1) = verify_fast_with(
            &g,
            &cs,
            &first,
            Ratio::from_int(2),
            &bounds,
            &outputs,
            Some(&mut fv),
        );
        assert!(i1.used_flow && !i1.memo_hit);
        let (_, i2) = verify_fast_with(
            &g,
            &cs,
            &other,
            Ratio::new(3, 2),
            &bounds,
            &outputs,
            Some(&mut fv),
        );
        assert!(i2.used_flow && !i2.memo_hit);
        // state change that keeps T: output and pin a member of T, and
        // tighten the bounds of a vertex outside it
        outputs[5] = true;
        bounds.pin_exact(5, Ratio::from_int(2));
        bounds.upper[10] = 0.5;
        let (v3, i3) = verify_fast_with(
            &g,
            &cs,
            &first,
            Ratio::from_int(2),
            &bounds,
            &outputs,
            Some(&mut fv),
        );
        assert!(i3.used_flow && i3.memo_hit && i3.early_reject, "{i3:?}");
        assert_eq!(i3.t_size, i1.t_size);
        assert_eq!(v3, v1);
        let (fresh, fi) = verify_fast_with(
            &g,
            &cs,
            &first,
            Ratio::from_int(2),
            &bounds,
            &outputs,
            Some(&mut None),
        );
        assert!(!fi.memo_hit);
        assert_eq!(v3, fresh, "memo verdict differs from a fresh network");
        let (oracle, _) =
            verify_fast_with(&g, &cs, &first, Ratio::from_int(2), &bounds, &outputs, None);
        assert_eq!(v3, oracle, "memo verdict differs from the reduced network");
        // a ρ not seen before is a different key
        let (_, i4) = verify_fast_with(
            &g,
            &cs,
            &first,
            Ratio::new(7, 4),
            &bounds,
            &outputs,
            Some(&mut fv),
        );
        assert!(!i4.memo_hit);
    }

    /// Randomized equivalence: fast ≡ basic on small random graphs.
    #[test]
    fn fast_equals_basic_randomized() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let n = 8 + (rng() % 5) as usize;
            let mut b = GraphBuilder::new();
            b.ensure_vertex((n - 1) as u32);
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng() % 100 < 45 {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            let (cs, bounds) = setup(&g, 3);
            if cs.is_empty() {
                continue;
            }
            // candidate: the densest decomposition of the whole graph
            let all: Vec<VertexId> = g.vertices().collect();
            let (inst, map) = local_instance(&cs, &all);
            let Some((rho, members)) = InstanceSolver::new(inst).densest_decomposition() else {
                continue;
            };
            let kept: Vec<VertexId> = map
                .iter()
                .zip(&members)
                .filter(|&(_, &m)| m)
                .map(|(&v, _)| v)
                .collect();
            let comps = components_within(&g, &kept);
            let outputs = vec![false; g.n()];
            let mut fv: Option<SupportVerifier> = None;
            for comp in comps {
                let by_basic = basic(&g, &cs, &comp, rho);
                let (by_fast, _) = fast(&g, &cs, &comp, rho, &bounds, &outputs);
                assert_eq!(by_basic, by_fast, "trial {trial}: candidate {comp:?}");
                let (shared, _) =
                    verify_fast_with(&g, &cs, &comp, rho, &bounds, &outputs, Some(&mut fv));
                assert_eq!(by_fast, shared, "trial {trial}: shared {comp:?}");
            }
        }
    }
}
