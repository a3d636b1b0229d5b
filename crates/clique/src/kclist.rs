//! kClist-style h-clique enumeration.
//!
//! Vertices are relabelled by degeneracy-peeling rank and every edge is
//! oriented from lower to higher rank, giving a DAG whose out-degrees are
//! bounded by the degeneracy. Each h-clique then corresponds to exactly
//! one increasing rank sequence, so recursive intersection of sorted
//! out-neighbor lists enumerates every clique exactly once.

use lhcds_graph::core_decomp::degeneracy_order;
use lhcds_graph::{CsrGraph, VertexId};

/// Degeneracy-oriented DAG in rank space.
///
/// Shared read-only by the serial sweep and the node-parallel workers in
/// [`crate::parallel`]: it holds only plain `Vec`s, so `&Dag` is `Sync`.
pub(crate) struct Dag {
    /// `out[r]` = ranks of out-neighbors of the vertex with rank `r`,
    /// sorted ascending.
    pub(crate) out: Vec<Vec<u32>>,
    /// `orig[r]` = original vertex id of rank `r`.
    pub(crate) orig: Vec<VertexId>,
}

pub(crate) fn build_dag(g: &CsrGraph) -> Dag {
    let d = degeneracy_order(g);
    let n = g.n();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in g.vertices() {
        let rv = d.position[v as usize];
        for &w in g.neighbors(v) {
            let rw = d.position[w as usize];
            if rv < rw {
                out[rv as usize].push(rw);
            }
        }
    }
    for o in &mut out {
        o.sort_unstable();
    }
    Dag { out, orig: d.order }
}

/// Intersection of two ascending `u32` slices into `dst` (cleared first).
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

/// Reusable per-sweep (per-worker, in the parallel path) scratch state:
/// the partial clique plus one intersection buffer per recursion depth.
///
/// Sizing contract: the root level contributes `dag.out[r]` directly and
/// the final level emits without intersecting, so a full sweep for
/// h-cliques needs exactly `h - 2` intersection buffers (`h ≤ 2` needs
/// none). `Scratch::new` is the single place that encodes this — both
/// the serial and parallel enumerators allocate through it.
pub(crate) struct Scratch {
    pub(crate) clique: Vec<VertexId>,
    pub(crate) buffers: Vec<Vec<u32>>,
}

impl Scratch {
    pub(crate) fn new(h: usize) -> Self {
        Scratch {
            clique: Vec::with_capacity(h),
            buffers: vec![Vec::new(); h.saturating_sub(2)],
        }
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
    debug_assert!(h >= 2);
    scratch.clique.push(dag.orig[r]);
    recurse(
        dag,
        &dag.out[r],
        h - 1,
        &mut scratch.clique,
        &mut scratch.buffers,
        f,
    );
    scratch.clique.pop();
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
    let dag = build_dag(g);
    let mut scratch = Scratch::new(h);

    // Iterative setup over the first level; recursion handles the rest.
    for r in 0..dag.out.len() {
        root_sweep(&dag, r, h, &mut scratch, &mut f);
    }
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
    // Split off this depth's scratch buffer so deeper levels get the rest.
    let (buf, rest) = buffers.split_first_mut().expect("buffer per depth");
    for (i, &r) in cands.iter().enumerate() {
        // Candidates after position i keep ascending-rank uniqueness.
        if cands.len() - i < remaining {
            break;
        }
        intersect_into(&cands[i + 1..], &dag.out[r as usize], buf);
        if buf.len() + 1 >= remaining {
            clique.push(dag.orig[r as usize]);
            let owned = std::mem::take(buf);
            recurse(dag, &owned, remaining - 1, clique, rest, f);
            *buf = owned;
            clique.pop();
        }
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

    /// The scratch sizing contract: `h - 2` intersection buffers
    /// (saturating at 0), one slot consumed per recursion depth. A
    /// too-short buffer stack would panic inside `recurse` ("buffer per
    /// depth"), so sweeping Kn at every h also exercises the bound
    /// tightly: enumerating h-cliques of Kh uses all h - 2 buffers.
    #[test]
    fn scratch_buffer_count_matches_recursion_depth() {
        for (h, want) in [(1usize, 0usize), (2, 0), (3, 1), (4, 2), (9, 7)] {
            let s = Scratch::new(h);
            assert_eq!(s.buffers.len(), want, "h={h}");
            assert!(s.clique.capacity() >= h);
            assert!(s.clique.is_empty());
        }
        // depth exercise: Kn at h = n forces the deepest recursion
        for n in 3..=7usize {
            let g = complete(n);
            assert_eq!(count_cliques(&g, n), 1, "K{n} has one {n}-clique");
        }
    }

    /// A single `Scratch` is reusable across roots and sweeps: buffers
    /// are cleared on entry by `intersect_into`, and the partial clique
    /// always unwinds to empty.
    #[test]
    fn scratch_is_reusable_across_sweeps() {
        let g = complete(6);
        let dag = build_dag(&g);
        let mut scratch = Scratch::new(4);
        for sweep in 0..2 {
            let mut count = 0u64;
            let mut f = |_: &[VertexId]| count += 1;
            for r in 0..dag.out.len() {
                root_sweep(&dag, r, 4, &mut scratch, &mut f);
            }
            assert_eq!(count, 15, "sweep {sweep}"); // C(6,4)
            assert!(scratch.clique.is_empty());
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
            let brute = brute_count(&g, h);
            assert_eq!(count_cliques(&g, h), brute, "h={h}");
        }
    }

    fn brute_count(g: &CsrGraph, h: usize) -> u64 {
        let n = g.n();
        let mut count = 0u64;
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
                count += 1;
            }
        }
        count
    }
}
