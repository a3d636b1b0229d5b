//! The `DeriveCompact` flow network, `IsDensest`, and the exact local
//! densest decomposition.
//!
//! All routines operate on a [`LocalInstance`]: a relabelled vertex
//! universe `0..n` with the h-cliques fully inside it.
//!
//! ## Exactness
//! For threshold `ρ = a/b` all capacities are scaled by a multiple `D`
//! of `b`. Every clique arc has capacity 1 at unit scale and `ρ·D` is
//! an integer, so every capacity is an integer `i128`: the min-cut, and
//! therefore every verification decision, is exact.
//!
//! ## The network (one clique node per h-clique `ψ`)
//! `s → ψ` with capacity 1, `ψ → v` with capacity 1 for every member
//! `v`, and `v → t` with `ρ`. A cut that keeps vertex set `A` on the
//! source side puts `ψ` on the sink side unless all of `ψ`'s members
//! are in `A`: a clique with a member outside `A` pays 1 either way
//! (`s → ψ`, or at least one `ψ → v`), and one inside `A` pays nothing
//! on the source side. So the cheapest cut with vertex side `A` costs
//!
//! `cut(A) = |Ψ| − |Ψ(A)| + ρ|A|`,
//!
//! the *minimum* cut maximizes `|Ψ(A)| − ρ|A|`, and:
//!
//! * the minimal source side is the smallest maximizer — empty iff no
//!   subgraph is denser than `ρ` (`IsDensest`, equivalently: `G` is
//!   h-clique `ρ`-compact);
//! * the maximal source side at threshold `ρ − 1/n²` is the union of
//!   all maximal `ρ`-compact subgraphs (Theorem 5).
//!
//! The paper's Figure 6 gadget (`v → ψ` with 1, `ψ → v` with `h − 1`,
//! `s → v` with the clique degree, `v → t` with `ρh`) has the cut
//! `h|Ψ| − h|Ψ(A)| + hρ|A|`: exactly `h · cut(A)`. Both networks
//! therefore have the same minimum cuts over vertex sides, and the same
//! smallest and largest ones, while this one spends `h + 1` arcs per
//! clique instead of `2h`.
//!
//! Both source sides are read off vertex nodes only. Every maximizer
//! `A` is the vertex side of some minimum cut (place each `ψ` as
//! above), so the minimal min-cut source side, which lies inside every
//! minimum cut's, has a vertex side inside every maximizer and is
//! itself one; the maximal side is the largest maximizer likewise.
//!
//! ## The last probe is the answer
//! Write `f_ρ(A) = |Ψ(A)| − ρ|A|`. The Goldberg ladder of
//! [`InstanceSolver::densest_decomposition`] stops at the first probe
//! whose minimal maximizer is empty. There `max f_ρ = 0`: no set is
//! denser than `ρ`, which is the density of a set the ladder found (or
//! of the whole universe), so `ρ = ρ* = p/q` in lowest terms, with
//! `q ≤ n`. The maximizers of `f_ρ*` are `∅` and the densest sets. They
//! are closed under union, so the maximal source side of this probe is
//! the largest densest set `L`.
//!
//! `DeriveCompact(ρ*)` reads the maximal side at `ρ' = ρ* − 1/n²`,
//! where `f_ρ'(A) = f_ρ*(A) + |A|/n²`:
//!
//! * a densest `A` scores `|A|/n²`, so among them `L` alone is best;
//! * any other `A` has `f_ρ*(A) = (q|Ψ(A)| − p|A|)/q ≤ −1/q ≤ −1/n`,
//!   so `f_ρ'(A) ≤ −1/n + |A|/n² ≤ 0 < |L|/n²`.
//!
//! `L` is the unique maximizer at `ρ'`, so both maximal sides are `L`,
//! and the ladder's last probe answers `DeriveCompact(ρ*)` with no
//! further solve. (`ρ* ≥ 1/n > 1/n²`, so the clamp of `ρ'` at 0 never
//! binds.)
//!
//! [`InstanceSolver::next_density_level`] ends the same way, over
//! `A ⊇ F` (the forced set, pinned to the source side) with the
//! marginal `g_ρ(A) = |Ψ(A)| − |Ψ(F)| − ρ(|A| − |F|)`. Its ladder stops
//! at the first `ρ` whose minimal maximizer is `F` itself, so
//! `max g = 0` and `ρ = p/q` with `q ≤ n' = n − |F|`. The maximizers
//! are closed under union, and the largest, `L`, strictly contains `F`:
//! it contains the set whose marginal density `ρ` is (the universe, if
//! the first probe stops). At `ρ − 1/n²` a maximizer scores
//! `(|A| − |F|)/n²`, so `L` is best among them, and any other `A` scores
//! at most `−1/n' + n'/n² ≤ 0 < (|L| − |F|)/n²`.
//!
//! ## Network reuse
//! Every routine above probes the *same* network at several thresholds:
//! the Goldberg ladder of [`InstanceSolver::densest_decomposition`], the
//! marginal-density iteration of
//! [`InstanceSolver::next_density_level`], and the verifier's
//! ε-perturbed `DeriveCompact` probes all share the clique arcs and
//! differ only in the ρ-dependent vertex–terminal capacities.
//! [`InstanceSolver`] therefore builds **one** [`ParametricNetwork`] per
//! instance (lazily, on the first probe) and re-tunes it between
//! solves, warm-starting from the retained residual flow when the
//! change is monotone and retracting it along its own paths when a
//! capacity decreases. Because minimal/maximal min-cut source sides are
//! canonical (flow-independent) and uniform capacity scaling preserves
//! them, the retained network answers exactly like a fresh one per
//! probe — pinned against fresh solvers in this crate's integration
//! tests.
//!
//! ## Pinned vertices
//! Two kinds of probe pin vertices to one side of every minimum cut,
//! each with the same "infinite" capacity at solve scale `D`:
//! `inf = D·(|Ψ| + 1) + ρD·(n + 1) + 1`.
//!
//! * **Source pins** ([`InstanceSolver::next_density_level`]'s higher
//!   levels): `s → v = inf`.
//! * **Sink pins** ([`InstanceSolver::max_source_side`], the fast
//!   verifier's step on its retained clique-support network):
//!   `v → t = inf` (`s → v` stays 0).
//!
//! The all-sink cut costs `D·|Ψ| < inf` (every `s → ψ`); with the
//! source pins instead, the cut whose source side is the pinned set
//! costs at most that plus `ρD·n`, also below `inf`. A minimum cut
//! therefore never cuts a pinned arc: a sink-pinned vertex never lies
//! on a min-cut source side, a source-pinned one always does, and since
//! no flow exceeds the minimum cut, no flow ever comes near a pinned
//! capacity (it is never saturated and never retracted).
//!
//! `inf` is the largest number a solve forms: every capacity is at most
//! `inf`, and every flow at most the minimum cut, below it. So the
//! whole solve stays inside `i128` exactly when `inf` does. A chained
//! `D` stays ≤ `2^80` (the parametric network's scale limit; a fresh
//! one is `den(ρ)`), and every production probe's `ρ` is a density of
//! the instance, at most `|Ψ|`, so `inf` is far from the limit for any
//! instance that fits in memory. It is built with checked arithmetic
//! all the same and panics, naming this bound, if it ever leaves
//! `i128`.

use lhcds_clique::CliqueSet;
use lhcds_flow::{ParametricNetwork, Ratio};
use lhcds_graph::VertexId;

/// A relabelled sub-universe with its interior h-cliques.
#[derive(Debug, Clone)]
pub struct LocalInstance {
    /// Number of local vertices.
    pub n: usize,
    /// Clique size.
    pub h: usize,
    /// Interior cliques, `h` local ids each.
    pub full: Vec<u32>,
}

impl LocalInstance {
    /// Number of interior cliques.
    pub fn clique_count(&self) -> usize {
        self.full.len().checked_div(self.h).unwrap_or(0)
    }

    /// h-clique density of the whole local universe (interior cliques
    /// only). `None` for an empty universe.
    pub fn density(&self) -> Option<Ratio> {
        if self.n == 0 {
            None
        } else {
            Some(Ratio::new(self.clique_count() as i128, self.n as i128))
        }
    }
}

/// Extracts the [`LocalInstance`] induced by `set` (parent vertex ids)
/// from a parent clique store. Returns the instance and the local→parent
/// mapping (ascending).
pub fn local_instance(cliques: &CliqueSet, set: &[VertexId]) -> (LocalInstance, Vec<VertexId>) {
    let mut to_parent: Vec<VertexId> = set.to_vec();
    to_parent.sort_unstable();
    to_parent.dedup();
    let h = cliques.h();
    let mut full = Vec::new();

    // Adaptive id translation: dense arrays are O(n + |Ψ|) per call,
    // which dominates when the pipeline processes many small candidate
    // regions; hash maps keep the cost proportional to the region.
    let dense = to_parent.len().saturating_mul(16) >= cliques.n();
    if dense {
        let mut local = vec![u32::MAX; cliques.n()];
        for (i, &v) in to_parent.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut stamp = vec![false; cliques.len()];
        for &v in &to_parent {
            for &ci in cliques.cliques_of(v) {
                let ci = ci as usize;
                if stamp[ci] {
                    continue;
                }
                stamp[ci] = true;
                let members = cliques.members(ci);
                if members.iter().all(|&w| local[w as usize] != u32::MAX) {
                    for &w in members {
                        full.push(local[w as usize]);
                    }
                }
            }
        }
    } else {
        let local: std::collections::HashMap<VertexId, u32> = to_parent
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for &v in &to_parent {
            for &ci in cliques.cliques_of(v) {
                if !seen.insert(ci) {
                    continue;
                }
                let members = cliques.members(ci as usize);
                if let Some(ids) = members
                    .iter()
                    .map(|w| local.get(w).copied())
                    .collect::<Option<Vec<u32>>>()
                {
                    full.extend(ids);
                }
            }
        }
    }
    (
        LocalInstance {
            n: to_parent.len(),
            h,
            full,
        },
        to_parent,
    )
}

/// A [`LocalInstance`] bundled with its lazily built, reusable flow
/// network: the only builder of the module docs' network.
///
/// Node layout: `0 = s`, `1..=n` local vertices, then clique nodes, `t`
/// last. Clique arcs (`s → ψ`, `ψ → v`) are *static* — expressed once
/// at unit scale; the vertex–terminal arcs (`s → v`, 0 unless
/// source-pinned, and `v → t`) are *parametric* and re-tuned per
/// probe. Every probe of every method reuses the same
/// [`ParametricNetwork`], warm-starting when the capacity change is
/// monotone and retracting the flow on decreases.
#[derive(Debug, Clone)]
pub struct InstanceSolver {
    inst: LocalInstance,
    net: Option<ParametricNetwork>,
}

/// Vertices a solve pins to one side of every minimum cut.
#[derive(Clone, Copy)]
enum Pins<'a> {
    None,
    /// `s → v` infinite: `v` on the source side.
    Source(&'a [bool]),
    /// `v → t` infinite: `v` on the sink side.
    Sink(&'a [bool]),
}

impl InstanceSolver {
    /// Wraps `inst`; the network is built on the first probe.
    pub fn new(inst: LocalInstance) -> InstanceSolver {
        InstanceSolver { inst, net: None }
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &LocalInstance {
        &self.inst
    }

    /// Builds the arc structure once; capacities are installed per
    /// solve.
    fn build_network(inst: &LocalInstance) -> ParametricNetwork {
        let sp = lhcds_obs::span("network");
        let n = inst.n;
        let t = (1 + n + inst.clique_count()) as u32;
        let mut pn = ParametricNetwork::new(t as usize + 1, 0, t);
        pn.reserve(2 * n + inst.clique_count() + inst.full.len());
        // parametric arc layout: [0, n) = s→v; [n, 2n) = v→t
        for v in 0..n as u32 {
            pn.add_parametric(0, v + 1);
        }
        for v in 0..n as u32 {
            pn.add_parametric(v + 1, t);
        }
        for (i, members) in inst.full.chunks_exact(inst.h).enumerate() {
            let cnode = (1 + n + i) as u32;
            pn.add_static(0, cnode, 1);
            for &v in members {
                pn.add_static(cnode, v + 1, 1);
            }
        }
        pn.freeze();
        sp.counter("arcs", pn.arc_count() as u64);
        pn
    }

    /// Re-tunes the network to threshold `rho` under `pins` and solves
    /// it. The pin capacity is the module docs' `inf`.
    fn solve(&mut self, rho: Ratio, pins: Pins<'_>) {
        let inst = &self.inst;
        let pn = self.net.get_or_insert_with(|| Self::build_network(inst));
        let n = inst.n;
        let scale = pn.scale_for(rho.den());
        let vt_cap = rho.scale_to_int(scale);
        assert!(vt_cap >= 0, "threshold must be non-negative");
        let inf = pin_capacity(scale, inst.clique_count(), vt_cap, n);
        let mut caps = Vec::with_capacity(pn.param_count());
        caps.extend((0..n).map(|v| match pins {
            Pins::Source(f) if f[v] => inf,
            _ => 0,
        }));
        caps.extend((0..n).map(|v| match pins {
            Pins::Sink(f) if f[v] => inf,
            _ => vt_cap,
        }));
        let _sp = lhcds_obs::span("max-flow");
        pn.solve(scale, &caps);
    }

    fn vertex_side(&self, side: &[bool]) -> Vec<bool> {
        (0..self.instance().n).map(|v| side[v + 1]).collect()
    }

    /// Minimal maximizer of `|Ψ(A)| − ρ|A|` over vertex subsets: the
    /// minimal min-cut source side. Empty iff the maximum is 0, i.e. no
    /// subgraph has h-clique density exceeding `rho`.
    pub fn max_excess_set(&mut self, rho: Ratio) -> Vec<bool> {
        if self.instance().n == 0 {
            return Vec::new();
        }
        self.solve(rho, Pins::None);
        let side = self.net.as_ref().expect("solved").min_cut_source_side();
        self.vertex_side(&side)
    }

    /// `IsDensest`: whether no subgraph of the local universe has
    /// h-clique density strictly greater than `rho`.
    pub fn is_densest(&mut self, rho: Ratio) -> bool {
        self.max_excess_set(rho).iter().all(|&b| !b)
    }

    /// `DeriveCompact(G, ρ − 1/n², P)`: membership of the union of all
    /// maximal h-clique `ρ`-compact subgraphs (Theorem 5) — the maximal
    /// min-cut source side at the perturbed threshold.
    pub fn derive_compact(&mut self, rho: Ratio) -> Vec<bool> {
        let n = self.inst.n;
        if n == 0 {
            return Vec::new();
        }
        self.solve(perturbed(rho, n), Pins::None);
        let side = self.net.as_ref().expect("solved").max_cut_source_side();
        self.vertex_side(&side)
    }

    /// The maximal min-cut source side at threshold `thr`, with every
    /// vertex of `sink` pinned to the sink side (`s → v = 0`, `v → t`
    /// infinite; module docs). Pinned vertices are never kept. The
    /// unpinned ones keep their whole-instance `s → v` degree, and the
    /// kept set equals the one the network of the sub-instance induced
    /// on them keeps at the same threshold ([`crate::verify`] module
    /// docs): the fast verifier's flow step on a retained network.
    pub fn max_source_side(&mut self, thr: Ratio, sink: &[bool]) -> Vec<bool> {
        debug_assert_eq!(sink.len(), self.inst.n);
        self.solve(thr, Pins::Sink(sink));
        let side = self.net.as_ref().expect("solved").max_cut_source_side();
        let kept = self.vertex_side(&side);
        debug_assert!(kept.iter().zip(sink).all(|(&k, &p)| !(k && p)));
        kept
    }

    /// Exact densest-subgraph decomposition of the local universe by
    /// Goldberg-style iteration: returns `(ρ*, U)` where `ρ*` is the
    /// maximum h-clique density over all subsets and `U` the union of
    /// all maximal `ρ*`-compact subgraphs. `None` when the universe
    /// holds no clique.
    ///
    /// The minimal maximizers are nested as `ρ` increases, so the
    /// iteration performs at most `n` max-flows — all on the one
    /// retained network, warm-started while ρ climbs. The
    /// last probe's maximal source side is `U` itself (module docs), so
    /// no `DeriveCompact` solve follows.
    pub fn densest_decomposition(&mut self) -> Option<(Ratio, Vec<bool>)> {
        if self.instance().n == 0 || self.instance().clique_count() == 0 {
            return None;
        }
        let mut rho = self.instance().density().expect("non-empty");
        let mut guard = 0usize;
        loop {
            let set = self.max_excess_set(rho);
            let size = set.iter().filter(|&&b| b).count();
            if size == 0 {
                break;
            }
            let inside = count_inside(self.instance(), &set);
            let denser = Ratio::new(inside as i128, size as i128);
            debug_assert!(denser > rho, "density must strictly increase");
            rho = denser;
            guard += 1;
            assert!(
                guard <= self.instance().n + 2,
                "densest-subgraph iteration failed to converge"
            );
        }
        // ρ = ρ*, and the last probe's maximal source side is already
        // DeriveCompact(ρ*) (module docs, "The last probe is the
        // answer").
        let side = self.net.as_ref().expect("solved").max_cut_source_side();
        Some((rho, self.vertex_side(&side)))
    }

    /// Marginal-density step of the dense decomposition: given the
    /// union `forced` of all higher levels, finds the next level — the
    /// maximal set `A ⊇ forced` maximizing the marginal density
    /// `(|Ψ(A)| − |Ψ(forced)|) / (|A| − |forced|)` — by Goldberg
    /// iteration with the forced vertices pinned to the source side.
    /// Returns the marginal density and the *new* vertices (level
    /// members), or `None` when no vertex outside `forced` participates
    /// in any clique gain. One retained network serves the whole ladder
    /// across calls with growing `forced` sets.
    pub fn next_density_level(&mut self, forced: &[bool]) -> Option<(Ratio, Vec<bool>)> {
        let n = self.instance().n;
        let forced_count = forced.iter().filter(|&&f| f).count();
        if n == 0 || forced_count == n {
            return None;
        }
        let base_inside = count_inside(self.instance(), forced) as i128;

        // Marginal gain of the full universe; if zero, no further level.
        let full = vec![true; n];
        let total = count_inside(self.instance(), &full) as i128;
        if total == base_inside {
            return None;
        }
        let mut rho = Ratio::new(total - base_inside, (n - forced_count) as i128);

        // Goldberg iteration on the marginal density: the minimal
        // maximizer of |Ψ(A)| − ρ|A| over A ⊇ forced shrinks as ρ grows.
        let mut guard = 0usize;
        loop {
            self.solve(rho, Pins::Source(forced));
            let side = self.net.as_ref().expect("solved").min_cut_source_side();
            let set = self.vertex_side(&side);
            let new_count = set
                .iter()
                .zip(forced)
                .filter(|&(&inside, &f)| inside && !f)
                .count();
            if new_count == 0 {
                break;
            }
            let inside = count_inside(self.instance(), &set) as i128;
            let marginal = Ratio::new(inside - base_inside, new_count as i128);
            // a minimal maximizer beyond `forced` gains strictly: at
            // equality `forced` itself would be a smaller maximizer
            debug_assert!(marginal > rho, "marginal density must strictly increase");
            rho = marginal;
            guard += 1;
            assert!(guard <= n + 2, "marginal-density iteration diverged");
        }

        // The largest maximizer at the final level: the last probe's
        // maximal source side equals the ε-perturbed one (module docs,
        // "The last probe is the answer").
        let side = self.net.as_ref().expect("solved").max_cut_source_side();
        let level: Vec<bool> = (0..n).map(|v| side[v + 1] && !forced[v]).collect();
        debug_assert!(level.iter().any(|&b| b), "level must be non-empty");
        Some((rho, level))
    }
}

/// The pin capacity `inf = D·(|Ψ| + 1) + ρD·(n + 1) + 1` at scale `D`
/// (module docs, "Pinned vertices"), from `ρD = vt_cap`.
fn pin_capacity(scale: i128, cliques: usize, vt_cap: i128, n: usize) -> i128 {
    scale
        .checked_mul(cliques as i128 + 1)
        .zip(vt_cap.checked_mul(n as i128 + 1))
        .and_then(|(a, b)| a.checked_add(b))
        .and_then(|c| c.checked_add(1))
        .unwrap_or_else(|| {
            panic!(
                "pin capacity D·(|Ψ| + 1) + ρD·(n + 1) + 1 overflows i128 \
                 (D = {scale}, |Ψ| = {cliques}, ρD = {vt_cap}, n = {n})"
            )
        })
}

/// `max(ρ − 1/n², 0)`: the `DeriveCompact` threshold on `n` vertices.
fn perturbed(rho: Ratio, n: usize) -> Ratio {
    let n = n as i128;
    (rho - Ratio::new(1, n * n)).max(Ratio::zero())
}

/// Number of cliques fully inside `set`.
pub fn count_inside(inst: &LocalInstance, set: &[bool]) -> u64 {
    let mut c = 0u64;
    'full: for members in inst.full.chunks_exact(inst.h) {
        for &v in members {
            if !set[v as usize] {
                continue 'full;
            }
        }
        c += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::{CsrGraph, GraphBuilder};

    fn instance_of(g: &CsrGraph, h: usize) -> LocalInstance {
        let cs = CliqueSet::enumerate(g, h);
        let all: Vec<VertexId> = g.vertices().collect();
        local_instance(&cs, &all).0
    }

    fn complete(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn local_instance_filters_interior_cliques() {
        // triangle 0-1-2 and triangle 2-3-4; restrict to {0,1,2,3}:
        // only the first triangle is interior.
        let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let cs = CliqueSet::enumerate(&g, 3);
        let (inst, map) = local_instance(&cs, &[0, 1, 2, 3]);
        assert_eq!(inst.n, 4);
        assert_eq!(inst.clique_count(), 1);
        assert_eq!(map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn complete_graph_is_self_densest() {
        let inst = instance_of(&complete(6), 3);
        let rho = inst.density().unwrap();
        assert_eq!(rho, Ratio::new(20, 6));
        assert!(InstanceSolver::new(inst.clone()).is_densest(rho));
        // but not densest at any smaller threshold
        assert!(!InstanceSolver::new(inst.clone()).is_densest(rho - Ratio::new(1, 100)));
    }

    #[test]
    fn pendant_makes_graph_not_self_densest() {
        // K5 + pendant vertex: overall density 10/6 < inner K5's 10/5.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        let inst = instance_of(&b.build(), 3);
        let rho = inst.density().unwrap();
        assert_eq!(rho, Ratio::new(10, 6));
        assert!(!InstanceSolver::new(inst.clone()).is_densest(rho));
        // the excess set is exactly the K5
        let set = InstanceSolver::new(inst.clone()).max_excess_set(rho);
        assert_eq!(set, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn densest_decomposition_finds_inner_k5() {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5).add_edge(5, 6);
        let inst = instance_of(&b.build(), 3);
        let (rho, members) = InstanceSolver::new(inst.clone())
            .densest_decomposition()
            .unwrap();
        assert_eq!(rho, Ratio::from_int(2)); // 10 triangles / 5 vertices
        assert_eq!(members, vec![true, true, true, true, true, false, false]);
    }

    #[test]
    fn decomposition_returns_all_tied_regions() {
        // two disjoint K4s: both maximal 1-compact (4 triangles / 4
        // vertices = 1); the union must contain both.
        let mut b = GraphBuilder::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        let inst = instance_of(&b.build(), 3);
        let (rho, members) = InstanceSolver::new(inst.clone())
            .densest_decomposition()
            .unwrap();
        assert_eq!(rho, Ratio::from_int(1));
        assert!(members.iter().all(|&m| m));
    }

    #[test]
    fn clique_free_universe_has_no_decomposition() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = instance_of(&g, 3);
        assert!(InstanceSolver::new(inst.clone())
            .densest_decomposition()
            .is_none());
    }

    #[test]
    fn figure2_s1_density_13_over_6() {
        // K6 minus two adjacent edges (the paper's S1): 13 triangles on
        // 6 vertices, self-densest at 13/6.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                if (u, v) == (0, 1) || (u, v) == (0, 2) {
                    continue; // remove two edges sharing vertex 0
                }
                b.add_edge(u, v);
            }
        }
        let inst = instance_of(&b.build(), 3);
        let (rho, members) = InstanceSolver::new(inst.clone())
            .densest_decomposition()
            .unwrap();
        assert_eq!(rho, Ratio::new(13, 6));
        assert!(members.iter().all(|&m| m));
        assert!(InstanceSolver::new(inst.clone()).is_densest(rho));
    }

    #[test]
    fn derive_compact_drops_subthreshold_fringe() {
        // K5 with pendant: maximal 2-compact subgraph = the K5 alone.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        let inst = instance_of(&b.build(), 3);
        let kept = InstanceSolver::new(inst.clone()).derive_compact(Ratio::from_int(2));
        assert_eq!(kept, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn retained_network_matches_fresh_solvers_on_a_ladder() {
        // K5 + pendant + tail: the decomposition ladder runs several
        // probes; the one retained network must answer each probe of a
        // non-monotone schedule exactly like a fresh solver.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5).add_edge(5, 6);
        let inst = instance_of(&b.build(), 3);
        let mut retained = InstanceSolver::new(inst.clone());
        assert_eq!(
            retained.densest_decomposition(),
            InstanceSolver::new(inst.clone()).densest_decomposition()
        );
        // (the work-counter contracts — one network per ladder, no
        // resets along it — live in the integration tests, which own
        // their process so the global counters are quiet)
        for rho in [
            Ratio::zero(),
            Ratio::new(5, 2),
            Ratio::new(1, 3),
            Ratio::from_int(2),
            Ratio::new(10, 6),
        ] {
            let fresh = || InstanceSolver::new(inst.clone());
            assert_eq!(retained.max_excess_set(rho), fresh().max_excess_set(rho));
            assert_eq!(retained.derive_compact(rho), fresh().derive_compact(rho));
            assert_eq!(retained.is_densest(rho), fresh().is_densest(rho));
        }
    }

    #[test]
    fn empty_universe_edge_cases() {
        let inst = LocalInstance {
            n: 0,
            h: 3,
            full: Vec::new(),
        };
        assert!(InstanceSolver::new(inst.clone())
            .max_excess_set(Ratio::from_int(1))
            .is_empty());
        assert!(InstanceSolver::new(inst.clone())
            .derive_compact(Ratio::from_int(1))
            .is_empty());
        assert!(inst.density().is_none());
    }
}
