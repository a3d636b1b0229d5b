//! kClist-style h-clique enumeration.
//!
//! Vertices are relabelled by degeneracy-peeling rank and every edge is
//! oriented from lower to higher rank, giving a DAG whose out-degrees are
//! bounded by the degeneracy. Each h-clique then corresponds to exactly
//! one increasing rank sequence `r < r₂ < … < r_h`, found once below its
//! lowest-rank member `r`, the *root*.
//!
//! ## The bitset kernel
//!
//! Below a root `r` with `d = |out[r]|` out-neighbors, every further
//! member lies in `out[r]`, so the sweep works in *local positions*:
//! position `p ∈ 0..d` stands for `out[r][p]`. `root_sweep` builds a
//! bit matrix over them, row `p` holding the positions `q` with
//! `out[r][p] → out[r][q]` a DAG arc, in `W = ⌈d/64⌉` words. Row `p` is
//! filled from `out[r][p]`'s own out-list through a rank → position map.
//!
//! The recursion then carries candidate *bitsets*: the root's
//! candidates are all of `0..d`, choosing `p` narrows a candidate set
//! `C` to `C & row[p]`, and a branch whose next set holds fewer members
//! than the clique still needs is cut by a popcount. The last level
//! emits the set bits of `C & row[p]` directly. Row `p` holds only
//! positions above `p` (arcs climb in rank), so no clique is reached
//! twice.
//!
//! **Why the output order is the merge kernel's.** `out[r]` is sorted,
//! so local positions are in rank order, and bits are visited in
//! ascending order at every level. Each clique is therefore emitted as
//! the same ascending-rank sequence, in the same lexicographic order,
//! as a merge-intersection of sorted out-lists would emit it (that
//! kernel survives as the test oracle), and the flat member array of a
//! `CliqueSet` — clique ids, member order, incidence index — is
//! unchanged byte for byte. The popcount cut only skips branches that
//! hold no clique, so it changes the work, never the output.
//!
//! **Memory.** The matrix of a root takes `d·W` words, about `d²/8`
//! bytes, and `d` is at most the degeneracy `D`. A graph with
//! degeneracy `D` has a subgraph of minimum degree `D`, hence at least
//! `D²/2` edges, so the matrix never outgrows the graph's own CSR. The
//! rank → position map is one `u32` per vertex. All of it lives in one
//! `Scratch` per sweep (per worker, in the parallel path), so no
//! size threshold or fallback kernel is needed.

use lhcds_graph::core_decomp::degeneracy_order;
use lhcds_graph::{CsrGraph, VertexId};

/// Degeneracy-oriented DAG in rank space, in CSR form.
///
/// Shared read-only by the serial sweep and the node-parallel workers in
/// [`crate::parallel`]: it holds only plain `Vec`s, so `&Dag` is `Sync`.
pub(crate) struct Dag {
    /// `targets[first[r]..first[r + 1]]` = ranks of the out-neighbors
    /// of the vertex with rank `r`, ascending.
    first: Vec<usize>,
    targets: Vec<u32>,
    /// `orig[r]` = original vertex id of rank `r`.
    orig: Vec<VertexId>,
}

impl Dag {
    /// Number of vertices (ranks).
    pub(crate) fn n(&self) -> usize {
        self.orig.len()
    }

    /// Out-neighbors of rank `r`, ascending.
    #[inline]
    pub(crate) fn out(&self, r: usize) -> &[u32] {
        &self.targets[self.first[r]..self.first[r + 1]]
    }

    /// Largest out-degree: the widest root matrix a sweep builds.
    pub(crate) fn max_out_degree(&self) -> usize {
        self.first
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

pub(crate) fn build_dag(g: &CsrGraph) -> Dag {
    let d = degeneracy_order(g);
    let n = g.n();
    let rank = &d.position;
    let mut first = vec![0usize; n + 1];
    for v in g.vertices() {
        let rv = rank[v as usize];
        let up = g.neighbors(v).iter().filter(|&&w| rank[w as usize] > rv);
        first[rv as usize + 1] = up.count();
    }
    for r in 0..n {
        first[r + 1] += first[r];
    }
    // Filling the lists by ascending source rank leaves each one sorted.
    let mut cursor = first[..n].to_vec();
    let mut targets = vec![0u32; first[n]];
    for (r, &v) in d.order.iter().enumerate() {
        for &w in g.neighbors(v) {
            let rw = rank[w as usize] as usize;
            if rw < r {
                targets[cursor[rw]] = r as u32;
                cursor[rw] += 1;
            }
        }
    }
    Dag {
        first,
        targets,
        orig: d.order,
    }
}

/// Reusable per-sweep (per-worker, in the parallel path) state of the
/// bitset kernel.
///
/// Between roots the partial clique is empty and the rank → position
/// map is all zero. Loading a root of out-degree `d` sizes the matrix to
/// `d·W` words and the candidate stack to `(h − 2)·W` (`W = ⌈d/64⌉`):
/// one set per level that stores one — the root's, then one per level
/// that still has at least three members to choose (the last two levels
/// emit straight from the matrix). The buffers only grow, so a sweep
/// allocates for its widest root once. `h = 2` lists out-arcs directly
/// and touches none of it.
pub(crate) struct Scratch {
    clique: Vec<VertexId>,
    /// `pos[rank]` = 1 + local position of `rank` below the current
    /// root, `0` for ranks outside its out-list. Grown to the DAG's size
    /// on first use.
    pos: Vec<u32>,
    /// `ids[p]` = original vertex id at local position `p`.
    ids: Vec<VertexId>,
    /// The root's bit matrix, row `p` at `rows[p·W..(p + 1)·W]`.
    rows: Vec<u64>,
    /// Candidate sets, `W` words each: the root's first.
    cands: Vec<u64>,
    /// One out-list's positions below the current root.
    hits: Vec<u32>,
    h: usize,
}

impl Scratch {
    pub(crate) fn new(h: usize) -> Self {
        Scratch {
            clique: Vec::with_capacity(h),
            pos: Vec::new(),
            ids: Vec::new(),
            rows: Vec::new(),
            cands: Vec::new(),
            hits: Vec::new(),
            h,
        }
    }

    /// Loads root `r`'s local positions and bit matrix; returns `W`.
    fn load_root(&mut self, dag: &Dag, r: usize) -> usize {
        let out = dag.out(r);
        let d = out.len();
        let words = d.div_ceil(64);
        if self.pos.len() < dag.n() {
            self.pos.resize(dag.n(), 0);
        }
        self.ids.clear();
        for (i, &w) in out.iter().enumerate() {
            self.pos[w as usize] = i as u32 + 1;
            self.ids.push(dag.orig[w as usize]);
        }
        self.rows.clear();
        self.rows.resize(d * words, 0);
        for (i, &v) in out.iter().enumerate() {
            let list = dag.out(v as usize);
            if self.hits.len() < list.len() {
                self.hits.resize(list.len(), 0);
            }
            // Branch-free gather of the list's positions below `r`: most
            // entries miss (15 in 16 on gnp(1400, 0.1)), so a branch on
            // the hit would mispredict.
            let mut k = 0;
            for &w in list {
                let p = self.pos[w as usize];
                self.hits[k] = p.wrapping_sub(1);
                k += (p != 0) as usize;
            }
            let row = &mut self.rows[i * words..(i + 1) * words];
            for &p in &self.hits[..k] {
                row[p as usize / 64] |= 1u64 << (p % 64);
            }
        }
        for &w in out {
            self.pos[w as usize] = 0;
        }
        self.cands.clear();
        self.cands.resize((self.h - 2) * words, 0);
        // the root's candidates: every position
        for p in 0..d {
            self.cands[p / 64] |= 1u64 << (p % 64);
        }
        words
    }
}

/// Full depth-first sweep below one first-level root `r` (`h ≥ 2`).
pub(crate) fn root_sweep<F: FnMut(&[VertexId])>(
    dag: &Dag,
    r: usize,
    h: usize,
    scratch: &mut Scratch,
    f: &mut F,
) {
    debug_assert!(h >= 2 && scratch.h == h);
    let out = dag.out(r);
    if out.len() < h - 1 {
        return;
    }
    scratch.clique.push(dag.orig[r]);
    if h == 2 {
        for &w in out {
            scratch.clique.push(dag.orig[w as usize]);
            f(&scratch.clique);
            scratch.clique.pop();
        }
    } else {
        let words = scratch.load_root(dag, r);
        let (root, spare) = scratch.cands.split_at_mut(words);
        let matrix = RootMatrix {
            rows: &scratch.rows,
            ids: &scratch.ids,
            words,
        };
        matrix.expand(root, spare, h - 1, &mut scratch.clique, f);
    }
    scratch.clique.pop();
}

/// One root's bit matrix and the vertex ids of its positions.
struct RootMatrix<'a> {
    rows: &'a [u64],
    ids: &'a [VertexId],
    words: usize,
}

impl RootMatrix<'_> {
    fn row(&self, p: usize) -> &[u64] {
        &self.rows[p * self.words..(p + 1) * self.words]
    }

    /// Extends `clique` by `remaining ≥ 2` members drawn from `cands`,
    /// in ascending position order.
    fn expand<F: FnMut(&[VertexId])>(
        &self,
        cands: &[u64],
        spare: &mut [u64],
        remaining: usize,
        clique: &mut Vec<VertexId>,
        f: &mut F,
    ) {
        if remaining == 2 {
            for_each_bit(cands.iter().copied(), |p| {
                clique.push(self.ids[p]);
                let last = cands.iter().zip(self.row(p)).map(|(&c, &row)| c & row);
                for_each_bit(last, |q| {
                    clique.push(self.ids[q]);
                    f(clique);
                    clique.pop();
                });
                clique.pop();
            });
            return;
        }
        let (next, deeper) = spare.split_at_mut(self.words);
        for_each_bit(cands.iter().copied(), |p| {
            let mut size = 0;
            for ((n, &c), &row) in next.iter_mut().zip(cands).zip(self.row(p)) {
                *n = c & row;
                size += n.count_ones() as usize;
            }
            // `p` plus `remaining − 1` members of `next`
            if size + 1 >= remaining {
                clique.push(self.ids[p]);
                self.expand(next, deeper, remaining - 1, clique, f);
                clique.pop();
            }
        });
    }
}

/// Calls `f` with every set bit of the bitset `words`, ascending.
#[inline]
fn for_each_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (k, word) in words.enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(k * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Invokes `f` once per h-clique of `g`, passing the member vertices
/// (original ids, ascending degeneracy rank — i.e. an arbitrary but
/// deterministic order, *not* sorted by id).
///
/// `h == 1` yields every vertex; `h == 2` yields every edge.
///
/// For a multi-threaded sweep over large graphs see
/// [`crate::CliqueSet::enumerate_with`], which stores the same cliques
/// in the same order.
///
/// # Panics
/// Panics if `h == 0`.
pub fn for_each_clique<F: FnMut(&[VertexId])>(g: &CsrGraph, h: usize, mut f: F) {
    assert!(h >= 1, "h-cliques require h >= 1");
    if g.n() == 0 {
        return;
    }
    if h == 1 {
        for v in g.vertices() {
            f(&[v]);
        }
        return;
    }
    sweep(&build_dag(g), h, &mut f);
}

/// Serial sweep over every root of `dag`, in rank order (`h ≥ 2`).
pub(crate) fn sweep<F: FnMut(&[VertexId])>(dag: &Dag, h: usize, f: &mut F) {
    let mut scratch = Scratch::new(h);
    for r in 0..dag.n() {
        root_sweep(dag, r, h, &mut scratch, f);
    }
}

/// Total number of h-cliques in `g`.
pub fn count_cliques(g: &CsrGraph, h: usize) -> u64 {
    let mut c = 0u64;
    for_each_clique(g, h, |_| c += 1);
    c
}

/// Per-vertex h-clique degree: `deg_G(v, ψh)` = number of h-cliques
/// containing `v` (Table 1 of the paper).
pub fn count_per_vertex(g: &CsrGraph, h: usize) -> Vec<u64> {
    let mut deg = vec![0u64; g.n()];
    for_each_clique(g, h, |c| {
        for &v in c {
            deg[v as usize] += 1;
        }
    });
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CliqueSet, Parallelism};
    use lhcds_graph::GraphBuilder;

    fn complete(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n as VertexId {
            for v in u + 1..n as VertexId {
                b.add_edge(u, v);
            }
        }
        b.ensure_vertex((n - 1) as VertexId);
        b.build()
    }

    fn binomial(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    /// `G(n, p)` from a fixed seed (splitmix64), for reproducible tests.
    fn gnp(n: usize, p: f64, seed: u64) -> CsrGraph {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut b = GraphBuilder::new();
        b.ensure_vertex((n - 1) as VertexId);
        for u in 0..n as VertexId {
            for v in u + 1..n as VertexId {
                if next() < p {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    /// The merge kernel the bitset kernel replaced: recursive
    /// intersection of sorted out-lists. Kept as the oracle for the
    /// clique order, which the bitset kernel must reproduce exactly.
    mod merge {
        use super::super::Dag;
        use lhcds_graph::VertexId;

        /// Intersection of two ascending `u32` slices into `dst`.
        fn intersect_into(a: &[u32], b: &[u32], dst: &mut Vec<u32>) {
            dst.clear();
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        dst.push(a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }

        /// Flat member array of every h-clique (`h ≥ 2`), roots in rank
        /// order.
        pub(super) fn members(dag: &Dag, h: usize) -> Vec<VertexId> {
            let mut out = Vec::new();
            let mut clique = Vec::with_capacity(h);
            let mut buffers = vec![Vec::new(); h - 2];
            let mut f = |c: &[VertexId]| out.extend_from_slice(c);
            for r in 0..dag.n() {
                clique.push(dag.orig[r]);
                recurse(dag, dag.out(r), h - 1, &mut clique, &mut buffers, &mut f);
                clique.pop();
            }
            out
        }

        fn recurse<F: FnMut(&[VertexId])>(
            dag: &Dag,
            cands: &[u32],
            remaining: usize,
            clique: &mut Vec<VertexId>,
            buffers: &mut [Vec<u32>],
            f: &mut F,
        ) {
            if cands.len() < remaining {
                return;
            }
            if remaining == 1 {
                for &r in cands {
                    clique.push(dag.orig[r as usize]);
                    f(clique);
                    clique.pop();
                }
                return;
            }
            let (buf, rest) = buffers.split_first_mut().expect("buffer per depth");
            for (i, &r) in cands.iter().enumerate() {
                if cands.len() - i < remaining {
                    break;
                }
                intersect_into(&cands[i + 1..], dag.out(r as usize), buf);
                if buf.len() + 1 >= remaining {
                    clique.push(dag.orig[r as usize]);
                    let owned = std::mem::take(buf);
                    recurse(dag, &owned, remaining - 1, clique, rest, f);
                    *buf = owned;
                    clique.pop();
                }
            }
        }
    }

    /// The store the kernel builds at 1, 2 and 4 threads equals the
    /// merge sweep's: members array and every incidence list.
    fn assert_matches_merge(g: &CsrGraph, h: usize) {
        let oracle = CliqueSet::from_flat_members(g.n(), h, merge::members(&build_dag(g), h));
        for t in [1usize, 2, 4] {
            let store = CliqueSet::enumerate_with(g, h, &Parallelism::threads(t));
            assert_eq!(store.len(), oracle.len(), "count, h={h} threads={t}");
            assert!(store.iter().eq(oracle.iter()), "members, h={h} threads={t}");
            for v in g.vertices() {
                assert_eq!(
                    store.cliques_of(v),
                    oracle.cliques_of(v),
                    "incidence of {v}, h={h} threads={t}"
                );
            }
        }
    }

    /// `K_{130,130}`-style bipartite core with K7s planted on one side:
    /// degeneracy ≈ 130, yet cliques of up to 8 vertices stay few (a
    /// clique is a planted clique's subset plus at most one vertex of
    /// the other side).
    fn planted_bipartite() -> CsrGraph {
        let (a, b) = (130u32, 135u32);
        let mut g = GraphBuilder::new();
        for u in 0..a {
            for w in a..a + b {
                g.add_edge(u, w);
            }
        }
        // 18 K7s, members spread across the side: {c, c + 18, …}
        for c in 0..18 {
            let k7: Vec<u32> = (0..7).map(|i| c + 18 * i).collect();
            for i in 0..7 {
                for j in i + 1..7 {
                    g.add_edge(k7[i], k7[j]);
                }
            }
        }
        g.build()
    }

    fn out_degrees(g: &CsrGraph) -> std::collections::BTreeSet<usize> {
        let dag = build_dag(g);
        (0..dag.n()).map(|r| dag.out(r).len()).collect()
    }

    const WORD_BOUNDARIES: [usize; 6] = [63, 64, 65, 127, 128, 129];

    #[test]
    fn kernel_matches_merge_at_word_boundaries_h2_to_8() {
        let g = planted_bipartite();
        let degs = out_degrees(&g);
        for d in WORD_BOUNDARIES {
            assert!(degs.contains(&d), "no root of out-degree {d}: {degs:?}");
        }
        for h in 2..=8 {
            assert_matches_merge(&g, h);
        }
        assert_eq!(count_cliques(&g, 8), 18 * 135);
        assert_eq!(count_cliques(&g, 9), 0);
    }

    #[test]
    fn kernel_matches_merge_on_complete_graphs_across_word_boundaries() {
        // K_n's roots have every out-degree below n
        for n in (62..=66).chain(126..=131) {
            assert_matches_merge(&complete(n), 2);
        }
        for n in 62..=66 {
            assert_matches_merge(&complete(n), 3);
        }
        assert_matches_merge(&complete(131), 3);
    }

    #[test]
    fn kernel_matches_merge_on_dense_gnp() {
        let g = gnp(200, 0.75, 11);
        let degs = out_degrees(&g);
        for d in WORD_BOUNDARIES {
            assert!(degs.contains(&d), "no root of out-degree {d}: {degs:?}");
        }
        for h in 2..=3 {
            assert_matches_merge(&g, h);
        }
    }

    /// Every h-clique exactly once, against all vertex subsets.
    #[test]
    fn kernel_matches_bruteforce_on_small_graphs() {
        for (n, p, seed) in [(8, 0.6, 1), (10, 0.7, 2), (12, 0.8, 3), (12, 0.5, 4)] {
            let g = gnp(n, p, seed);
            for h in 2..=8 {
                let mut got: Vec<Vec<VertexId>> = Vec::new();
                for_each_clique(&g, h, |c| {
                    let mut c = c.to_vec();
                    c.sort_unstable();
                    got.push(c);
                });
                got.sort();
                assert_eq!(got, brute_cliques(&g, h), "n={n} seed={seed} h={h}");
                assert_matches_merge(&g, h);
            }
        }
        assert_matches_merge(&complete(12), 8);
    }

    #[test]
    fn complete_graph_counts_match_binomials() {
        for n in 1..=8usize {
            let g = complete(n);
            for h in 1..=n {
                assert_eq!(
                    count_cliques(&g, h),
                    binomial(n as u64, h as u64),
                    "K{n}, h={h}"
                );
            }
            assert_eq!(count_cliques(&g, n + 1), 0);
        }
    }

    #[test]
    fn per_vertex_degrees_in_complete_graph() {
        let g = complete(6);
        let deg = count_per_vertex(&g, 3);
        // each vertex is in C(5,2)=10 triangles
        assert!(deg.iter().all(|&d| d == 10));
    }

    #[test]
    fn triangle_free_graph_has_no_triangles() {
        // C5 is triangle-free.
        let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(count_cliques(&g, 3), 0);
        assert_eq!(count_cliques(&g, 2), 5);
        assert_eq!(count_cliques(&g, 1), 5);
    }

    #[test]
    fn cliques_are_actual_cliques_and_unique() {
        // Two K4s sharing vertex 3.
        let mut b = GraphBuilder::new();
        for set in [[0u32, 1, 2, 3], [3, 4, 5, 6]] {
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_edge(set[i], set[j]);
                }
            }
        }
        let g = b.build();
        let mut seen = std::collections::HashSet::new();
        for_each_clique(&g, 3, |c| {
            let mut s = c.to_vec();
            s.sort_unstable();
            for i in 0..3 {
                for j in i + 1..3 {
                    assert!(g.has_edge(s[i], s[j]), "non-clique emitted: {s:?}");
                }
            }
            assert!(seen.insert(s), "duplicate clique: {c:?}");
        });
        assert_eq!(seen.len(), 8); // 4 triangles per K4
    }

    #[test]
    fn h_one_lists_vertices_h_two_lists_edges() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(count_cliques(&g, 1), 4);
        assert_eq!(count_cliques(&g, 2), 3);
        let mut edges = Vec::new();
        for_each_clique(&g, 2, |c| {
            let (a, b) = (c[0].min(c[1]), c[0].max(c[1]));
            edges.push((a, b));
        });
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph_and_oversized_h() {
        let g = CsrGraph::from_edges(0, []);
        assert_eq!(count_cliques(&g, 3), 0);
        let g = complete(3);
        assert_eq!(count_cliques(&g, 5), 0);
    }

    #[test]
    #[should_panic(expected = "h >= 1")]
    fn zero_h_panics() {
        let g = complete(3);
        count_cliques(&g, 0);
    }

    /// The scratch sizing contract: loading a root of out-degree `d`
    /// gives `d` matrix rows of `W = ⌈d/64⌉` words and `h − 2`
    /// candidate sets of `W` words; `h = 2` lists out-arcs and builds
    /// nothing. Root 0 of Kn has out-degree `n − 1`, so the sizes cross
    /// the word boundaries, and Kn at h = n forces the deepest
    /// recursion, where a short candidate stack would panic in
    /// `split_at_mut`.
    #[test]
    fn scratch_buffer_count_matches_recursion_depth() {
        for (n, h) in [
            (3usize, 2usize),
            (3, 3),
            (7, 7),
            (20, 8),
            (64, 3),
            (65, 4),
            (66, 3),
            (129, 3),
            (130, 3),
        ] {
            let g = complete(n);
            let dag = build_dag(&g);
            let d = dag.max_out_degree();
            assert_eq!(dag.out(0).len(), d);
            let mut s = Scratch::new(h);
            assert!(s.clique.capacity() >= h);
            let mut count = 0u64;
            let mut f = |_: &[VertexId]| count += 1;
            root_sweep(&dag, 0, h, &mut s, &mut f);
            assert_eq!(count, binomial(n as u64 - 1, h as u64 - 1), "K{n}, h={h}");
            assert!(s.clique.is_empty());
            if h == 2 {
                assert!(s.rows.is_empty() && s.cands.is_empty() && s.pos.is_empty());
                continue;
            }
            let words = d.div_ceil(64);
            assert_eq!(s.rows.len(), d * words, "K{n}, h={h}");
            assert_eq!(s.cands.len(), (h - 2) * words, "K{n}, h={h}");
            assert_eq!(s.ids.len(), d);
            assert_eq!(s.pos.len(), n);
        }
        for n in 3..=7usize {
            assert_eq!(count_cliques(&complete(n), n), 1, "K{n} has one {n}-clique");
        }
    }

    /// A single `Scratch` is reusable across roots and sweeps: the
    /// partial clique unwinds to empty, the rank → position map returns
    /// to all zero after every root, and a narrow root after a wide one
    /// sees no stale bits.
    #[test]
    fn scratch_is_reusable_across_sweeps() {
        let g = planted_bipartite();
        let dag = build_dag(&g);
        let want = merge::members(&dag, 4);
        let mut scratch = Scratch::new(4);
        for sweep in 0..2 {
            let mut got = Vec::new();
            let mut f = |c: &[VertexId]| got.extend_from_slice(c);
            for r in 0..dag.n() {
                root_sweep(&dag, r, 4, &mut scratch, &mut f);
                assert!(scratch.clique.is_empty());
                assert!(scratch.pos.iter().all(|&p| p == 0), "root {r}");
            }
            assert_eq!(got, want, "sweep {sweep}");
        }
        // widest root last: each root's output with the shared scratch
        // equals its output with a fresh one
        for r in (0..dag.n()).rev() {
            let mut shared = Vec::new();
            root_sweep(&dag, r, 4, &mut scratch, &mut |c: &[VertexId]| {
                shared.extend_from_slice(c)
            });
            let mut fresh = Vec::new();
            root_sweep(&dag, r, 4, &mut Scratch::new(4), &mut |c: &[VertexId]| {
                fresh.extend_from_slice(c)
            });
            assert_eq!(shared, fresh, "root {r}");
        }
    }

    /// Brute-force cross-check on a small, irregular graph.
    #[test]
    fn matches_bruteforce_on_irregular_graph() {
        let g = CsrGraph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (4, 6),
                (5, 6),
                (2, 4),
            ],
        );
        for h in 1..=5usize {
            let brute = brute_cliques(&g, h).len() as u64;
            assert_eq!(count_cliques(&g, h), brute, "h={h}");
        }
    }

    /// Every h-clique of `g` as a sorted vertex list, in sorted order.
    fn brute_cliques(g: &CsrGraph, h: usize) -> Vec<Vec<VertexId>> {
        let n = g.n();
        let mut out = Vec::new();
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != h {
                continue;
            }
            let verts: Vec<VertexId> = (0..n as u32).filter(|i| mask & (1 << i) != 0).collect();
            let ok = verts
                .iter()
                .enumerate()
                .all(|(i, &u)| verts[i + 1..].iter().all(|&v| g.has_edge(u, v)));
            if ok {
                out.push(verts);
            }
        }
        out.sort();
        out
    }
}
