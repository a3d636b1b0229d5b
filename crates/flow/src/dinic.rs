//! Dinic's maximum-flow algorithm on `i128` capacities, in CSR form.
//!
//! ## Layout
//!
//! [`Dinic::add_edge`] only stages an arc (`from`, `to`, `cap`).
//! The freeze — run by the first [`Dinic::max_flow`], or earlier by
//! [`crate::ParametricNetwork::freeze`] — lays the arcs out once, by a
//! stable counting sort on the tail node, in compressed-sparse-row form
//! with struct-of-arrays columns over *slots* (an arc pair occupies two
//! slots: the arc itself and its reverse residual arc):
//!
//! * `first[v] .. first[v + 1]` — node `v`'s slots: its out-arcs and the
//!   reverse arcs of its in-arcs, in `add_edge` order;
//! * `to[e]` — the slot's head node (`u32`);
//! * `rev[e]` — the paired slot (`u32`);
//! * `cap[e]` — the residual capacity (`i128`); a reverse slot's
//!   residual is the flow its forward arc carries.
//!
//! A slot costs 24 bytes, contiguous per node, and the adjacency needs
//! no per-node allocation. The [`ArcId`] that `add_edge` returns is the
//! arc's insertion index; a pair→slot column maps it to its forward
//! slot, so ids stay valid across the freeze.
//!
//! ## Solving
//!
//! Each phase builds BFS levels over a flat queue, stopping once the
//! sink's level is complete, then finds a blocking flow by an iterative
//! DFS with current-arc pointers: after each augmentation it retreats
//! only to the tail of the first arc the augmentation saturated. Both
//! searches skip nodes at or past the sink's level, which cannot reach
//! it. This pushes exactly the augmenting paths of the textbook
//! recursive DFS, in the same order, without the recursion.
//!
//! Besides the flow value the solver exposes both canonical minimum
//! cuts:
//!
//! * [`Dinic::min_cut_source_side`] — vertices reachable from `s` in the
//!   residual graph (the inclusion-*minimal* source side), and
//! * [`Dinic::max_cut_source_side`] — vertices that cannot reach `t` in
//!   the residual graph (the inclusion-*maximal* source side).
//!
//! `DeriveCompact` (Theorem 5 of the LhCDS paper) needs the maximal one:
//! the union of all maximal `ρ`-compact subgraphs is the *largest*
//! maximizer of `|Ψh(S)| − ρ|S|`.

use std::sync::atomic::Ordering;

use crate::stats;

/// Arc identifier returned by [`Dinic::add_edge`]: the arc's insertion
/// index.
pub type ArcId = usize;

/// Max-flow solver. Build the network with [`Dinic::add_edge`], then call
/// [`Dinic::max_flow`]; cut queries are valid afterwards.
///
/// The solver is *restartable*: [`Dinic::max_flow`] always continues
/// from whatever feasible flow the network currently holds, and
/// [`crate::ParametricNetwork`] re-tunes capacities and retained flow
/// between solves (warm starts, retraction, cold restarts) through
/// crate-internal primitives. BFS/DFS scratch state (levels, current-arc
/// pointers, the BFS queue, the DFS path) lives in the struct and is
/// reused across solves — a network that is solved at many thresholds
/// allocates its scratch once, at the freeze.
#[derive(Debug, Clone)]
pub struct Dinic {
    n: usize,
    /// Staged arcs, moved into the CSR columns by `Dinic::freeze`.
    stage_from: Vec<u32>,
    stage_to: Vec<u32>,
    stage_cap: Vec<i128>,
    frozen: bool,
    first: Vec<u32>,
    to: Vec<u32>,
    rev: Vec<u32>,
    cap: Vec<i128>,
    /// Forward slot of every arc, by [`ArcId`].
    slot: Vec<u32>,
    /// Bit `e` is set iff slot `e` is a reverse arc.
    reverse: Vec<u64>,
    level: Vec<u32>,
    /// Current-arc pointer (a slot) per node.
    cur: Vec<u32>,
    queue: Vec<u32>,
    /// DFS path: the slots from `s` to the node being explored.
    path: Vec<u32>,
    // Generation-stamped scratch for retraction walks: node v is on the
    // current walk iff walk_gen[v] == gen, at path position walk_pos[v].
    walk_gen: Vec<u64>,
    walk_pos: Vec<u32>,
    gen: u64,
}

impl Dinic {
    /// Creates a network with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "too many nodes for u32 ids");
        stats::NETWORKS_BUILT.fetch_add(1, Ordering::Relaxed);
        Dinic {
            n,
            stage_from: Vec::new(),
            stage_to: Vec::new(),
            stage_cap: Vec::new(),
            frozen: false,
            first: Vec::new(),
            to: Vec::new(),
            rev: Vec::new(),
            cap: Vec::new(),
            slot: Vec::new(),
            reverse: Vec::new(),
            level: Vec::new(),
            cur: Vec::new(),
            queue: Vec::new(),
            path: Vec::new(),
            walk_gen: Vec::new(),
            walk_pos: Vec::new(),
            gen: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of arcs added (reverse arcs not counted).
    pub(crate) fn arc_count(&self) -> usize {
        if self.frozen {
            self.slot.len()
        } else {
            self.stage_from.len()
        }
    }

    /// Reserves room for `additional` more arcs, so a builder that knows
    /// its arc count stages them without regrowing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.stage_from.reserve_exact(additional);
        self.stage_to.reserve_exact(additional);
        self.stage_cap.reserve_exact(additional);
    }

    /// Adds a directed arc `from -> to` with capacity `cap` (and its
    /// implicit reverse arc of capacity 0). Returns the arc id; the
    /// residual capacity can later be read with [`Dinic::residual`].
    ///
    /// # Panics
    /// Panics on negative capacity, out-of-range endpoints, or a network
    /// that is already frozen.
    pub fn add_edge(&mut self, from: u32, to: u32, cap: i128) -> ArcId {
        assert!(cap >= 0, "negative capacity");
        assert!((from as usize) < self.n && (to as usize) < self.n);
        assert!(
            !self.frozen,
            "arcs must be added before the network is frozen"
        );
        stats::ARCS_BUILT.fetch_add(1, Ordering::Relaxed);
        self.stage_from.push(from);
        self.stage_to.push(to);
        self.stage_cap.push(cap);
        self.stage_from.len() - 1
    }

    /// Lays the staged arcs out in CSR form (module docs) and allocates
    /// the solve scratch. Idempotent; [`Dinic::max_flow`] calls it, so
    /// [`crate::ParametricNetwork::freeze`] only calls it to pay the
    /// layout cost at a point of its builder's choosing. No arc can be
    /// added afterwards.
    pub(crate) fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        let n = self.n;
        let slots = 2 * self.stage_from.len();
        assert!(slots < u32::MAX as usize, "too many arcs for u32 slot ids");
        let mut first = vec![0u32; n + 1];
        for (&u, &v) in self.stage_from.iter().zip(&self.stage_to) {
            first[u as usize + 1] += 1;
            first[v as usize + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        // Stable placement: each node's slots keep add_edge order.
        let mut fill = first[..n].to_vec();
        let mut to = vec![0u32; slots];
        let mut rev = vec![0u32; slots];
        let mut reverse = vec![0u64; slots.div_ceil(64)];
        let mut slot = Vec::with_capacity(self.stage_from.len());
        for (&u, &v) in self.stage_from.iter().zip(&self.stage_to) {
            let f = fill[u as usize];
            fill[u as usize] += 1;
            let r = fill[v as usize];
            fill[v as usize] += 1;
            to[f as usize] = v;
            to[r as usize] = u;
            rev[f as usize] = r;
            rev[r as usize] = f;
            reverse[r as usize / 64] |= 1 << (r % 64);
            slot.push(f);
        }
        // Release the staged endpoints before the widest column exists.
        self.stage_from = Vec::new();
        self.stage_to = Vec::new();
        let mut cap = vec![0i128; slots];
        for (&f, &c) in slot.iter().zip(&self.stage_cap) {
            cap[f as usize] = c;
        }
        self.stage_cap = Vec::new();
        self.first = first;
        self.to = to;
        self.rev = rev;
        self.cap = cap;
        self.slot = slot;
        self.reverse = reverse;
        self.level = vec![u32::MAX; n];
        self.cur = vec![0; n];
        self.queue = Vec::with_capacity(n);
        self.walk_gen = vec![0; n];
        self.walk_pos = vec![0; n];
    }

    fn slots_of(&self, v: u32) -> std::ops::Range<usize> {
        self.first[v as usize] as usize..self.first[v as usize + 1] as usize
    }

    fn is_reverse(&self, e: usize) -> bool {
        (self.reverse[e / 64] >> (e % 64)) & 1 == 1
    }

    fn assert_frozen(&self) {
        assert!(self.frozen, "cut queries need a solved network");
    }

    /// Remaining capacity of arc `id`.
    pub fn residual(&self, id: ArcId) -> i128 {
        if self.frozen {
            self.cap[self.slot[id] as usize]
        } else {
            self.stage_cap[id]
        }
    }

    /// Flow currently carried by arc `id`: the residual of its paired
    /// reverse arc, whose initial capacity is always 0.
    pub fn current_flow(&self, id: ArcId) -> i128 {
        if self.frozen {
            self.slot_flow(self.slot[id] as usize)
        } else {
            0
        }
    }

    /// Flow carried by the arc at forward slot `f`.
    fn slot_flow(&self, f: usize) -> i128 {
        self.cap[self.rev[f] as usize]
    }

    /// Sets arc `id` to total capacity `cap` carrying exactly `flow`
    /// (`0 ≤ flow ≤ cap`). Used by the parametric warm start to install
    /// a rescaled retained flow; callers must keep the overall
    /// assignment a conserving s–t flow.
    pub(crate) fn set_state(&mut self, id: ArcId, cap: i128, flow: i128) {
        debug_assert!(flow >= 0 && flow <= cap);
        self.freeze();
        let f = self.slot[id] as usize;
        self.cap[f] = cap - flow;
        self.cap[self.rev[f] as usize] = flow;
    }

    /// Multiplies every residual — every arc's remaining capacity and
    /// carried flow — by `q > 0`: the same flow on the network with all
    /// capacities scaled by `q`. The caller guarantees no product
    /// overflows.
    pub(crate) fn scale_in_place(&mut self, q: i128) {
        debug_assert!(q > 0);
        self.freeze();
        for c in &mut self.cap {
            *c *= q;
        }
    }

    /// Discards the flow and moves every arc from capacity scale `from`
    /// to scale `to`: an arc of total capacity `c·from` gets `c·to`
    /// (every total must be a multiple of `from`).
    pub(crate) fn reset_rescaled(&mut self, from: i128, to: i128) {
        debug_assert!(from > 0 && to > 0);
        self.freeze();
        for i in 0..self.slot.len() {
            let f = self.slot[i] as usize;
            let r = self.rev[f] as usize;
            let total = self.cap[f] + self.cap[r];
            debug_assert_eq!(total % from, 0, "capacity off the scale");
            self.cap[f] = total / from * to;
            self.cap[r] = 0;
        }
    }

    /// Net flow currently entering node `v` (inflow minus outflow over
    /// all incident arcs). Zero at every inner node of a conserving
    /// flow; at the sink it equals the total flow value.
    pub fn net_flow_into(&self, v: u32) -> i128 {
        if !self.frozen {
            return 0;
        }
        let mut net = 0i128;
        for e in self.slots_of(v) {
            if self.is_reverse(e) {
                // reverse of an arc into v: its residual is that arc's flow
                net += self.cap[e];
            } else {
                // forward arc out of v: its flow is the pair's residual
                net -= self.slot_flow(e);
            }
        }
        net
    }

    /// Lowers the *total* capacity of arc `id` to `cap` while keeping
    /// the network a valid conserving `s`–`t` flow: any excess the arc
    /// carried beyond `cap` is cancelled along the retained flow's own
    /// support paths — backwards from the arc's tail towards `s`,
    /// forwards from its head towards `t`, or around flow cycles — so
    /// [`Dinic::max_flow`] can continue warm from the result. This is
    /// the never-reset primitive of Gallo–Grigoriadis–Tarjan: the work
    /// is proportional to the flow cancelled rather than the network
    /// size.
    pub(crate) fn retract_arc(&mut self, id: ArcId, cap: i128, s: u32, t: u32) {
        debug_assert!(cap >= 0);
        let flow = self.current_flow(id);
        if flow <= cap {
            self.set_state(id, cap, flow);
            return;
        }
        let excess = flow - cap;
        let f = self.slot[id] as usize;
        let head = self.to[f];
        let tail = self.to[self.rev[f] as usize];
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
        // path[k] is the forward slot between walk nodes k and k+1
        // (carrying flow towards node k when walking backward, away
        // from it when walking forward).
        let mut path: Vec<usize> = Vec::new();
        let mut v = start;
        loop {
            if v == stop || alt == Some(v) {
                let ended_at_alt = v != stop;
                let mut m = if ended_at_alt {
                    limit.min(alt_limit)
                } else {
                    limit
                };
                for &f in &path {
                    m = m.min(self.slot_flow(f));
                }
                debug_assert!(m > 0, "retraction walk cancelled nothing");
                for &f in &path {
                    self.cancel_flow(f, m);
                }
                return (m, ended_at_alt);
            }
            // An in-arc of v is a reverse slot whose residual (the
            // forward arc's flow) is positive; an out-arc is a forward
            // slot whose pair's residual is.
            let fwd = self
                .slots_of(v)
                .find(|&e| {
                    self.is_reverse(e) == backward
                        && self.cap[if backward { e } else { self.rev[e] as usize }] > 0
                })
                .map(|e| if backward { self.rev[e] as usize } else { e })
                .expect("conservation guarantees a support arc");
            let w = if backward {
                self.to[self.rev[fwd] as usize] // the forward arc's tail
            } else {
                self.to[fwd]
            };
            if self.walk_gen[w as usize] == self.gen {
                // flow cycle: path[pos(w)..] plus fwd closes it
                let i = self.walk_pos[w as usize] as usize;
                let mut m = self.slot_flow(fwd);
                for &f in &path[i..] {
                    m = m.min(self.slot_flow(f));
                }
                self.cancel_flow(fwd, m);
                for &f in &path[i..] {
                    self.cancel_flow(f, m);
                }
                return (0, false);
            }
            path.push(fwd);
            self.walk_gen[w as usize] = self.gen;
            self.walk_pos[w as usize] = path.len() as u32;
            v = w;
        }
    }

    /// Removes `m` units of flow from the arc at forward slot `f`.
    fn cancel_flow(&mut self, f: usize, m: i128) {
        let r = self.rev[f] as usize;
        self.cap[f] += m;
        self.cap[r] -= m;
        debug_assert!(self.cap[r] >= 0, "cancelled more than carried");
    }

    /// BFS levels from `s` over positive residuals. Stops once the
    /// sink's level is complete: no node at or beyond it can lie on a
    /// shortest augmenting path.
    fn bfs(&mut self, s: u32, t: u32) -> bool {
        let Dinic {
            first,
            to,
            cap,
            level,
            queue,
            ..
        } = self;
        level.fill(u32::MAX);
        queue.clear();
        level[s as usize] = 0;
        queue.push(s);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let lv = level[v as usize];
            if lv >= level[t as usize] {
                break;
            }
            for e in first[v as usize] as usize..first[v as usize + 1] as usize {
                let w = to[e] as usize;
                if cap[e] > 0 && level[w] == u32::MAX {
                    level[w] = lv + 1;
                    queue.push(w as u32);
                }
            }
        }
        level[t as usize] != u32::MAX
    }

    /// One blocking flow on the current level graph by iterative DFS
    /// with current-arc pointers; returns the flow it pushed.
    fn blocking_flow(&mut self, s: u32, t: u32) -> i128 {
        let Dinic {
            n,
            first,
            to,
            rev,
            cap,
            level,
            cur,
            path,
            ..
        } = self;
        cur.copy_from_slice(&first[..*n]);
        path.clear();
        let lt = level[t as usize];
        let mut pushed = 0i128;
        let mut v = s;
        loop {
            if v == t {
                let d = path.iter().map(|&e| cap[e as usize]).min().expect("s != t");
                for &e in path.iter() {
                    cap[e as usize] -= d;
                    cap[rev[e as usize] as usize] += d;
                }
                pushed += d;
                // Resume at the tail of the first saturated arc: the
                // prefix before it is still a valid level-graph path.
                let k = path
                    .iter()
                    .position(|&e| cap[e as usize] == 0)
                    .expect("the bottleneck saturates");
                path.truncate(k);
                v = path.last().map_or(s, |&e| to[e as usize]);
                continue;
            }
            let lv = level[v as usize];
            let end = first[v as usize + 1];
            let mut e = cur[v as usize];
            while e < end {
                let w = to[e as usize];
                // below the sink's level any next-level node may lead
                // on; at it, only the sink itself
                if cap[e as usize] > 0 && level[w as usize] == lv + 1 && (lv + 1 < lt || w == t) {
                    break;
                }
                e += 1;
            }
            cur[v as usize] = e;
            if e < end {
                path.push(e);
                v = to[e as usize];
            } else {
                // dead end: retreat and skip the arc that led here
                let Some(back) = path.pop() else { break };
                v = to[rev[back as usize] as usize];
                cur[v as usize] += 1;
            }
        }
        pushed
    }

    /// Computes the maximum `s`–`t` flow, continuing from whatever
    /// feasible flow the network currently holds (zero on a fresh
    /// network). Returns the flow *added by this invocation*; the cut
    /// queries below always describe the resulting maximum flow.
    pub fn max_flow(&mut self, s: u32, t: u32) -> i128 {
        assert_ne!(s, t, "source equals sink");
        stats::MAX_FLOW_CALLS.fetch_add(1, Ordering::Relaxed);
        self.freeze();
        let mut flow = 0i128;
        while self.bfs(s, t) {
            flow += self.blocking_flow(s, t);
        }
        flow
    }

    /// Minimal source side of a minimum cut: nodes reachable from `s` in
    /// the residual graph. Call after [`Dinic::max_flow`].
    pub fn min_cut_source_side(&self, s: u32) -> Vec<bool> {
        self.assert_frozen();
        let mut seen = vec![false; self.n];
        let mut queue = vec![s];
        seen[s as usize] = true;
        while let Some(v) = queue.pop() {
            for e in self.slots_of(v) {
                let w = self.to[e] as usize;
                if self.cap[e] > 0 && !seen[w] {
                    seen[w] = true;
                    queue.push(w as u32);
                }
            }
        }
        seen
    }

    /// Maximal source side of a minimum cut: the complement of the set of
    /// nodes that can reach `t` in the residual graph. Call after
    /// [`Dinic::max_flow`].
    pub fn max_cut_source_side(&self, t: u32) -> Vec<bool> {
        self.assert_frozen();
        // Backward search from t: slot e (v -> w) has pair w -> v, which
        // is usable iff the pair's residual is positive.
        let mut reaches_t = vec![false; self.n];
        let mut queue = vec![t];
        reaches_t[t as usize] = true;
        while let Some(v) = queue.pop() {
            for e in self.slots_of(v) {
                let w = self.to[e] as usize;
                if self.cap[self.rev[e] as usize] > 0 && !reaches_t[w] {
                    reaches_t[w] = true;
                    queue.push(w as u32);
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
