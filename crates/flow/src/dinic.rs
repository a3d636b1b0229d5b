//! Dinic's maximum-flow algorithm on `i128` capacities.
//!
//! Standard level-graph + blocking-flow implementation with paired arcs
//! (`e ^ 1` is the reverse of `e`). In addition to the flow value it
//! exposes both canonical minimum cuts:
//!
//! * [`Dinic::min_cut_source_side`] — vertices reachable from `s` in the
//!   residual graph (the inclusion-*minimal* source side), and
//! * [`Dinic::max_cut_source_side`] — vertices that cannot reach `t` in
//!   the residual graph (the inclusion-*maximal* source side).
//!
//! `DeriveCompact` (Theorem 5 of the LhCDS paper) needs the maximal one:
//! the union of all maximal `ρ`-compact subgraphs is the *largest*
//! maximizer of `|Ψh(S)| − ρ|S|`.

use crate::stats;

/// Arc identifier returned by [`Dinic::add_edge`].
pub type ArcId = usize;

#[derive(Debug, Clone)]
struct Arc {
    to: u32,
    cap: i128,
}

/// Max-flow solver. Build the network with [`Dinic::add_edge`], then call
/// [`Dinic::max_flow`]; cut queries are valid afterwards.
///
/// The solver is *restartable*: [`Dinic::max_flow`] always continues
/// from whatever feasible flow the network currently holds, and
/// [`crate::ParametricNetwork`] re-tunes capacities and retained flow
/// between solves (warm starts, retraction, cold restarts) through the
/// crate-internal `set_state` / `retract_arc` primitives. BFS/DFS scratch state (`level`, `iter`, the
/// BFS queue) lives in the struct and is reused across solves — a
/// network that is solved at many thresholds allocates its scratch
/// once.
#[derive(Debug, Clone)]
pub struct Dinic {
    arcs: Vec<Arc>,
    adj: Vec<Vec<u32>>,
    level: Vec<u32>,
    iter: Vec<usize>,
    queue: std::collections::VecDeque<u32>,
    // Generation-stamped scratch for retraction walks: node v is on the
    // current walk iff walk_gen[v] == gen, at path position walk_pos[v].
    walk_gen: Vec<u64>,
    walk_pos: Vec<usize>,
    gen: u64,
}

impl Dinic {
    /// Creates a network with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        stats::NETWORKS_BUILT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Dinic {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
            queue: std::collections::VecDeque::new(),
            walk_gen: vec![0; n],
            walk_pos: vec![0; n],
            gen: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed arc `from -> to` with capacity `cap` (and its
    /// implicit reverse arc of capacity 0). Returns the arc id; the
    /// residual capacity can later be read with [`Dinic::residual`].
    ///
    /// # Panics
    /// Panics on negative capacity or out-of-range endpoints.
    pub fn add_edge(&mut self, from: u32, to: u32, cap: i128) -> ArcId {
        assert!(cap >= 0, "negative capacity");
        assert!((from as usize) < self.adj.len() && (to as usize) < self.adj.len());
        stats::ARCS_BUILT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let id = self.arcs.len();
        self.arcs.push(Arc { to, cap });
        self.arcs.push(Arc { to: from, cap: 0 });
        self.adj[from as usize].push(id as u32);
        self.adj[to as usize].push(id as u32 + 1);
        id
    }

    /// Remaining capacity of arc `id`.
    pub fn residual(&self, id: ArcId) -> i128 {
        self.arcs[id].cap
    }

    /// Flow currently carried by forward arc `id` (an even id returned
    /// by [`Dinic::add_edge`]): the residual of its paired reverse arc,
    /// whose initial capacity is always 0.
    pub fn current_flow(&self, id: ArcId) -> i128 {
        debug_assert!(id.is_multiple_of(2), "flow is tracked on forward arcs");
        self.arcs[id ^ 1].cap
    }

    /// Sets forward arc `id` to total capacity `cap` carrying exactly
    /// `flow` (`0 ≤ flow ≤ cap`). Used by the parametric warm start to
    /// install a rescaled retained flow; callers must keep the overall
    /// assignment a conserving s–t flow.
    pub(crate) fn set_state(&mut self, id: ArcId, cap: i128, flow: i128) {
        debug_assert!(id.is_multiple_of(2));
        debug_assert!(flow >= 0 && flow <= cap);
        self.arcs[id].cap = cap - flow;
        self.arcs[id ^ 1].cap = flow;
    }

    /// Net flow currently entering node `v` (inflow minus outflow over
    /// all incident arcs). Zero at every inner node of a conserving
    /// flow; at the sink it equals the total flow value.
    pub fn net_flow_into(&self, v: u32) -> i128 {
        let mut net = 0i128;
        for &eid in &self.adj[v as usize] {
            let eid = eid as usize;
            if eid & 1 == 1 {
                // reverse of an arc into v: its residual is that arc's flow
                net += self.arcs[eid].cap;
            } else {
                // forward arc out of v: its flow is the pair's residual
                net -= self.arcs[eid ^ 1].cap;
            }
        }
        net
    }

    /// Lowers the *total* capacity of forward arc `id` to `cap` while
    /// keeping the network a valid conserving `s`–`t` flow: any excess
    /// the arc carried beyond `cap` is cancelled along the retained
    /// flow's own support paths — backwards from the arc's tail towards
    /// `s`, forwards from its head towards `t`, or around flow cycles —
    /// so [`Dinic::max_flow`] can continue warm from the result. This is
    /// the never-reset primitive of Gallo–Grigoriadis–Tarjan: the work
    /// is proportional to the flow cancelled rather than the network
    /// size.
    pub(crate) fn retract_arc(&mut self, id: ArcId, cap: i128, s: u32, t: u32) {
        debug_assert!(id.is_multiple_of(2) && cap >= 0);
        let flow = self.current_flow(id);
        if flow <= cap {
            self.set_state(id, cap, flow);
            return;
        }
        let excess = flow - cap;
        let head = self.arcs[id].to;
        let tail = self.arcs[id ^ 1].to;
        self.set_state(id, cap, cap);
        // `tail` now has `excess` more inflow than outflow, `head` the
        // reverse (the source/sink absorb imbalance by definition).
        let mut surplus = if tail == s { 0 } else { excess };
        let mut deficit = if head == t { 0 } else { excess };
        // Backward walks from the tail terminate at s, at the deficit
        // head (cancelling a head ⇝ tail sub-path fixes both ends), or
        // on a flow cycle. A pseudoflow-decomposition argument shows no
        // other stopping point exists while the imbalance persists.
        while surplus > 0 {
            let (m, ended_at_head) = self.cancel_walk(
                tail,
                s,
                (deficit > 0).then_some(head),
                surplus,
                deficit,
                true,
            );
            surplus -= m;
            if ended_at_head {
                deficit -= m;
            }
        }
        // Once the surplus is gone the only imbalanced node is `head`,
        // so forward walks can only terminate at t or on a cycle.
        while deficit > 0 {
            let (m, _) = self.cancel_walk(head, t, None, deficit, 0, false);
            deficit -= m;
        }
        // A walk may itself route through the retracted arc (it is an
        // in-arc of `head`) and cancel below `cap`; that is still a
        // feasible conserving flow, which is all retraction promises.
        debug_assert!(self.current_flow(id) <= cap);
    }

    /// One retraction walk from `start` along the positive-flow support
    /// (`backward`: against the flow direction via in-arcs; otherwise
    /// with it via out-arcs), cancelling flow on what it finds:
    ///
    /// * reaching `stop` (or `alt`, when set) cancels the walked path by
    ///   `min(path flows, limit[, alt_limit])` and returns that amount
    ///   plus whether `alt` ended the walk;
    /// * closing a flow cycle cancels the cycle by its own bottleneck
    ///   (zeroing at least one arc, which guarantees progress) and
    ///   returns `(0, false)` so the caller retries.
    fn cancel_walk(
        &mut self,
        start: u32,
        stop: u32,
        alt: Option<u32>,
        limit: i128,
        alt_limit: i128,
        backward: bool,
    ) -> (i128, bool) {
        self.gen += 1;
        self.walk_gen[start as usize] = self.gen;
        self.walk_pos[start as usize] = 0;
        // path[k] is the forward arc between walk nodes k and k+1
        // (carrying flow towards node k when walking backward, away
        // from it when walking forward).
        let mut path: Vec<ArcId> = Vec::new();
        let mut v = start;
        loop {
            if v == stop || alt == Some(v) {
                let ended_at_alt = v != stop;
                let mut m = if ended_at_alt {
                    limit.min(alt_limit)
                } else {
                    limit
                };
                for &a in &path {
                    m = m.min(self.current_flow(a));
                }
                debug_assert!(m > 0, "retraction walk cancelled nothing");
                for &a in &path {
                    self.cancel_flow(a, m);
                }
                return (m, ended_at_alt);
            }
            let mut next_arc = None;
            for &eid in &self.adj[v as usize] {
                let eid = eid as usize;
                let is_in_arc = (eid & 1) == 1;
                if is_in_arc == backward && self.arcs[if backward { eid } else { eid ^ 1 }].cap > 0
                {
                    next_arc = Some(if backward { eid ^ 1 } else { eid });
                    break;
                }
            }
            let fwd = next_arc.expect("conservation guarantees a support arc");
            let w = if backward {
                self.arcs[fwd ^ 1].to // the forward arc's tail
            } else {
                self.arcs[fwd].to
            };
            if self.walk_gen[w as usize] == self.gen {
                // flow cycle: path[pos(w)..] plus fwd closes it
                let i = self.walk_pos[w as usize];
                let mut m = self.current_flow(fwd);
                for &a in &path[i..] {
                    m = m.min(self.current_flow(a));
                }
                self.cancel_flow(fwd, m);
                for &a in &path[i..] {
                    self.cancel_flow(a, m);
                }
                return (0, false);
            }
            path.push(fwd);
            self.walk_gen[w as usize] = self.gen;
            self.walk_pos[w as usize] = path.len();
            v = w;
        }
    }

    /// Removes `m` units of flow from forward arc `id`.
    fn cancel_flow(&mut self, id: ArcId, m: i128) {
        self.arcs[id].cap += m;
        self.arcs[id ^ 1].cap -= m;
        debug_assert!(self.arcs[id ^ 1].cap >= 0, "cancelled more than carried");
    }

    fn bfs(&mut self, s: u32, t: u32) -> bool {
        let Dinic {
            arcs,
            adj,
            level,
            queue,
            ..
        } = self;
        level.iter_mut().for_each(|l| *l = u32::MAX);
        queue.clear();
        level[s as usize] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &eid in &adj[v as usize] {
                let arc = &arcs[eid as usize];
                if arc.cap > 0 && level[arc.to as usize] == u32::MAX {
                    level[arc.to as usize] = level[v as usize] + 1;
                    queue.push_back(arc.to);
                }
            }
        }
        level[t as usize] != u32::MAX
    }

    fn dfs(&mut self, v: u32, t: u32, pushed: i128) -> i128 {
        if v == t {
            return pushed;
        }
        while self.iter[v as usize] < self.adj[v as usize].len() {
            let eid = self.adj[v as usize][self.iter[v as usize]] as usize;
            let (to, cap) = (self.arcs[eid].to, self.arcs[eid].cap);
            if cap > 0 && self.level[to as usize] == self.level[v as usize] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > 0 {
                    self.arcs[eid].cap -= d;
                    self.arcs[eid ^ 1].cap += d;
                    return d;
                }
            }
            self.iter[v as usize] += 1;
        }
        0
    }

    /// Computes the maximum `s`–`t` flow, continuing from whatever
    /// feasible flow the network currently holds (zero on a fresh
    /// network). Returns the flow *added by this invocation*; the cut
    /// queries below always describe the resulting maximum flow.
    pub fn max_flow(&mut self, s: u32, t: u32) -> i128 {
        assert_ne!(s, t, "source equals sink");
        stats::MAX_FLOW_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut flow = 0i128;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, i128::MAX);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// Minimal source side of a minimum cut: nodes reachable from `s` in
    /// the residual graph. Call after [`Dinic::max_flow`].
    pub fn min_cut_source_side(&self, s: u32) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &eid in &self.adj[v as usize] {
                let arc = &self.arcs[eid as usize];
                if arc.cap > 0 && !seen[arc.to as usize] {
                    seen[arc.to as usize] = true;
                    queue.push_back(arc.to);
                }
            }
        }
        seen
    }

    /// Maximal source side of a minimum cut: the complement of the set of
    /// nodes that can reach `t` in the residual graph. Call after
    /// [`Dinic::max_flow`].
    pub fn max_cut_source_side(&self, t: u32) -> Vec<bool> {
        // Backward BFS from t across arcs with positive residual pointing
        // *into* the current set: arc (w -> v) is usable iff its residual
        // is positive; it lives as the pair of some arc in adj[v].
        let mut reaches_t = vec![false; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        reaches_t[t as usize] = true;
        queue.push_back(t);
        while let Some(v) = queue.pop_front() {
            for &eid in &self.adj[v as usize] {
                // eid: v -> w; its pair (eid ^ 1): w -> v.
                let w = self.arcs[eid as usize].to;
                let pair = (eid ^ 1) as usize;
                if self.arcs[pair].cap > 0 && !reaches_t[w as usize] {
                    reaches_t[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
        reaches_t.iter().map(|&r| !r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut d = Dinic::new(2);
        d.add_edge(0, 1, 5);
        assert_eq!(d.max_flow(0, 1), 5);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two paths of bottleneck 10 and 4 plus a cross arc.
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 10);
        d.add_edge(0, 2, 4);
        d.add_edge(1, 2, 2);
        d.add_edge(1, 3, 8);
        d.add_edge(2, 3, 10);
        assert_eq!(d.max_flow(0, 3), 14);
    }

    #[test]
    fn disconnected_sink_gets_zero_flow() {
        let mut d = Dinic::new(3);
        d.add_edge(0, 1, 7);
        assert_eq!(d.max_flow(0, 2), 0);
    }

    #[test]
    fn min_cut_sides_bracket_every_min_cut() {
        // Two parallel bottlenecks so several min cuts exist:
        // 0 -> 1 (cap 1) -> 2 (cap 1) -> 3; min cut value 1.
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 1);
        d.add_edge(1, 2, 1);
        d.add_edge(2, 3, 1);
        assert_eq!(d.max_flow(0, 3), 1);
        let lo = d.min_cut_source_side(0);
        let hi = d.max_cut_source_side(3);
        // minimal side = {0}; maximal side = {0, 1, 2}.
        assert_eq!(lo, vec![true, false, false, false]);
        assert_eq!(hi, vec![true, true, true, false]);
        // nesting invariant
        for i in 0..4 {
            assert!(!lo[i] || hi[i]);
        }
    }

    #[test]
    fn cut_capacity_equals_flow() {
        let mut d = Dinic::new(6);
        let caps = [
            (0u32, 1u32, 16i128),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        let mut d2 = Dinic::new(6);
        for &(u, v, c) in &caps {
            d.add_edge(u, v, c);
            d2.add_edge(u, v, c);
        }
        let f = d.max_flow(0, 5);
        assert_eq!(f, 23); // CLRS example
        let side = d.min_cut_source_side(0);
        let cut: i128 = caps
            .iter()
            .filter(|&&(u, v, _)| side[u as usize] && !side[v as usize])
            .map(|&(_, _, c)| c)
            .sum();
        assert_eq!(cut, f);
        // maximal side gives the same cut value
        let _ = d2.max_flow(0, 5);
        let side2 = d2.max_cut_source_side(5);
        let cut2: i128 = caps
            .iter()
            .filter(|&&(u, v, _)| side2[u as usize] && !side2[v as usize])
            .map(|&(_, _, c)| c)
            .sum();
        assert_eq!(cut2, f);
    }

    #[test]
    fn huge_capacities_do_not_overflow() {
        let big = i128::MAX / 4;
        let mut d = Dinic::new(3);
        d.add_edge(0, 1, big);
        d.add_edge(1, 2, big);
        assert_eq!(d.max_flow(0, 2), big);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_rejected() {
        let mut d = Dinic::new(2);
        d.add_edge(0, 1, -1);
    }

    #[test]
    fn residual_tracks_flow() {
        let mut d = Dinic::new(2);
        let e = d.add_edge(0, 1, 5);
        let _ = d.max_flow(0, 1);
        assert_eq!(d.residual(e), 0);
    }

    #[test]
    fn retract_arc_keeps_a_feasible_conserving_flow() {
        // diamond with a cross arc; saturate, then retract one sink arc
        let mut d = Dinic::new(4);
        let _s1 = d.add_edge(0, 1, 10);
        let _s2 = d.add_edge(0, 2, 4);
        d.add_edge(1, 2, 2);
        let e13 = d.add_edge(1, 3, 8);
        let e23 = d.add_edge(2, 3, 10);
        assert_eq!(d.max_flow(0, 3), 14);
        d.retract_arc(e13, 3, 0, 3);
        // conservation restored at the inner nodes, flow within caps
        assert_eq!(d.net_flow_into(1), 0);
        assert_eq!(d.net_flow_into(2), 0);
        assert!(d.current_flow(e13) <= 3);
        assert!(d.current_flow(e23) <= 10);
        // warm continuation reaches the fresh optimum at the new caps
        let warm_total = -d.net_flow_into(0) + d.max_flow(0, 3);
        let mut fresh = Dinic::new(4);
        fresh.add_edge(0, 1, 10);
        fresh.add_edge(0, 2, 4);
        fresh.add_edge(1, 2, 2);
        fresh.add_edge(1, 3, 3);
        fresh.add_edge(2, 3, 10);
        assert_eq!(warm_total, fresh.max_flow(0, 3));
        assert_eq!(d.net_flow_into(3), warm_total);
        assert_eq!(d.min_cut_source_side(0), fresh.min_cut_source_side(0));
        assert_eq!(d.max_cut_source_side(3), fresh.max_cut_source_side(3));
    }

    /// Randomized retraction: after lowering a batch of arcs on a solved
    /// network, conservation holds everywhere, every arc is within its
    /// new capacity, and a warm re-solve matches a fresh network — for
    /// both canonical cut sides.
    #[test]
    fn random_retractions_match_fresh_networks() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let n = 9;
            let (s, t) = (0u32, (n - 1) as u32);
            let mut d = Dinic::new(n);
            let mut arcs = Vec::new();
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    // keep s source-only and t sink-only, like the
                    // instance networks retraction is built for
                    if u != v && v != s && u != t && rng() % 3 == 0 {
                        let c = (rng() % 20) as i128;
                        let id = d.add_edge(u, v, c);
                        arcs.push((u, v, c, id));
                    }
                }
            }
            let _ = d.max_flow(s, t);
            // lower a random subset of caps, retracting each in turn
            let mut caps: Vec<i128> = arcs.iter().map(|&(_, _, c, _)| c).collect();
            for (k, &(_, _, c, id)) in arcs.iter().enumerate() {
                if rng() % 2 == 0 {
                    let nc = (rng() as i128).rem_euclid(c + 1);
                    d.retract_arc(id, nc, s, t);
                    caps[k] = nc;
                }
            }
            // conservation + feasibility before re-solving
            for v in 1..(n - 1) as u32 {
                assert_eq!(d.net_flow_into(v), 0, "round {round}");
            }
            for (k, &(_, _, _, id)) in arcs.iter().enumerate() {
                assert!(d.current_flow(id) >= 0 && d.current_flow(id) <= caps[k]);
            }
            // warm re-solve matches a fresh network at the new caps
            let mut fresh = Dinic::new(n);
            for (k, &(u, v, _, _)) in arcs.iter().enumerate() {
                fresh.add_edge(u, v, caps[k]);
            }
            let ff = fresh.max_flow(s, t);
            let _ = d.max_flow(s, t);
            assert_eq!(d.net_flow_into(t), ff, "round {round}");
            assert_eq!(
                d.min_cut_source_side(s),
                fresh.min_cut_source_side(s),
                "round {round}"
            );
            assert_eq!(
                d.max_cut_source_side(t),
                fresh.max_cut_source_side(t),
                "round {round}"
            );
        }
    }

    /// Randomized check: flow conservation at inner nodes.
    #[test]
    fn conservation_on_random_networks() {
        // simple LCG for determinism without external deps
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let n = 8;
            let mut arcs = Vec::new();
            let mut d = Dinic::new(n);
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if u != v && rng() % 3 == 0 {
                        let c = (rng() % 20) as i128;
                        let id = d.add_edge(u, v, c);
                        arcs.push((u, v, c, id));
                    }
                }
            }
            let f = d.max_flow(0, (n - 1) as u32);
            assert!(f >= 0);
            // net outflow per node
            let mut net = vec![0i128; n];
            for &(u, v, c, id) in &arcs {
                let flow = c - d.residual(id);
                net[u as usize] += flow;
                net[v as usize] -= flow;
            }
            assert_eq!(net[0], f);
            assert_eq!(net[n - 1], -f);
            for x in &net[1..n - 1] {
                assert_eq!(*x, 0);
            }
        }
    }
}
