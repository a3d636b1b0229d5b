//! Explicit h-clique storage with a per-vertex incidence index.

use crate::kclist::build_dag;
use crate::parallel::{collect_members, Parallelism};
use lhcds_graph::{CsrGraph, VertexId};

/// All h-cliques of a graph in a flat array, plus the inverted index
/// `vertex -> clique ids`.
///
/// This is the workhorse shared by SEQ-kClist++ (which walks cliques
/// every iteration), the flow-network builder (one node per clique),
/// the `(k, ψh)`-core peeling, and both verification algorithms. Layout:
/// `members[h·i .. h·(i+1)]` are the vertices of clique `i`.
#[derive(Debug, Clone)]
pub struct CliqueSet {
    h: usize,
    n: usize,
    members: Vec<VertexId>,
    inc_offsets: Vec<usize>,
    inc: Vec<u32>,
}

impl CliqueSet {
    /// Enumerates and stores every h-clique of `g` (single-threaded).
    pub fn enumerate(g: &CsrGraph, h: usize) -> Self {
        Self::enumerate_with(g, h, &Parallelism::serial())
    }

    /// Enumerates with an explicit thread policy. The resulting store is
    /// byte-identical to [`CliqueSet::enumerate`]'s — parallel workers
    /// cover contiguous degeneracy-rank blocks whose member vectors are
    /// concatenated in rank order, preserving clique ids, member order,
    /// and the incidence index exactly.
    pub fn enumerate_with(g: &CsrGraph, h: usize, par: &Parallelism) -> Self {
        assert!(h >= 1, "h-cliques require h >= 1");
        let sp = lhcds_obs::span("kclist");
        let members = if h == 1 {
            g.vertices().collect()
        } else {
            let dag = {
                let _sp = lhcds_obs::span("dag");
                build_dag(g)
            };
            sp.counter("max_out_degree", dag.max_out_degree() as u64);
            let _sp = lhcds_obs::span("sweep");
            collect_members(&dag, h, par.effective_threads(g.n()))
        };
        let set = {
            let _sp = lhcds_obs::span("incidence");
            Self::from_flat_members(g.n(), h, members)
        };
        sp.counter("cliques", set.len() as u64);
        set
    }

    /// Builds a store from pre-collected flat members (`h` consecutive
    /// vertex ids per instance). Also used by `lhcds-patterns` to reuse
    /// the incidence machinery for non-clique patterns.
    pub fn from_flat_members(n: usize, h: usize, members: Vec<VertexId>) -> Self {
        assert!(h >= 1, "instances must have at least one vertex");
        assert_eq!(members.len() % h, 0, "flat member array must be h-aligned");
        let count = members.len() / h;
        let mut deg = vec![0usize; n];
        for &v in &members {
            deg[v as usize] += 1;
        }
        let mut inc_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        inc_offsets.push(0);
        for d in &deg {
            acc += d;
            inc_offsets.push(acc);
        }
        let mut cursor = inc_offsets[..n].to_vec();
        let mut inc = vec![0u32; acc];
        for i in 0..count {
            for &v in &members[i * h..(i + 1) * h] {
                inc[cursor[v as usize]] = i as u32;
                cursor[v as usize] += 1;
            }
        }
        CliqueSet {
            h,
            n,
            members,
            inc_offsets,
            inc,
        }
    }

    /// Clique size h.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored h-cliques (`|Ψh(G)|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len() / self.h
    }

    /// Whether the graph has no h-clique.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member vertices of clique `i`.
    #[inline]
    pub fn members(&self, i: usize) -> &[VertexId] {
        &self.members[i * self.h..(i + 1) * self.h]
    }

    /// Ids of the cliques containing vertex `v`, ascending.
    #[inline]
    pub fn cliques_of(&self, v: VertexId) -> &[u32] {
        &self.inc[self.inc_offsets[v as usize]..self.inc_offsets[v as usize + 1]]
    }

    /// h-clique degree of `v` (`deg_G(v, ψh)`).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.inc_offsets[v as usize + 1] - self.inc_offsets[v as usize]
    }

    /// Iterates cliques as member slices.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        self.members.chunks_exact(self.h)
    }

    /// h-clique density `|Ψh(G[S])| / |S|` restricted to the vertex set
    /// `S`, counting only cliques fully inside `S`. Returns the exact
    /// numerator (clique count); callers divide as needed.
    pub fn cliques_inside(&self, in_set: &[bool]) -> u64 {
        let mut c = 0u64;
        'outer: for cl in self.iter() {
            for &v in cl {
                if !in_set[v as usize] {
                    continue 'outer;
                }
            }
            c += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::GraphBuilder;

    fn k5_plus_edge() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        b.build()
    }

    #[test]
    fn enumeration_counts_and_degrees() {
        let g = k5_plus_edge();
        let cs = CliqueSet::enumerate(&g, 3);
        assert_eq!(cs.len(), 10); // C(5,3)
        assert_eq!(cs.h(), 3);
        for v in 0..5u32 {
            assert_eq!(cs.degree(v), 6); // C(4,2)
        }
        assert_eq!(cs.degree(5), 0);
    }

    #[test]
    fn incidence_index_is_consistent() {
        let g = k5_plus_edge();
        let cs = CliqueSet::enumerate(&g, 4);
        for v in g.vertices() {
            for &ci in cs.cliques_of(v) {
                assert!(cs.members(ci as usize).contains(&v));
            }
        }
        // every clique id appears exactly h times in the incidence lists
        let mut counts = vec![0usize; cs.len()];
        for v in g.vertices() {
            for &ci in cs.cliques_of(v) {
                counts[ci as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn cliques_inside_restricts_to_subset() {
        let g = k5_plus_edge();
        let cs = CliqueSet::enumerate(&g, 3);
        let mut in_set = vec![false; g.n()];
        in_set[0..4].fill(true); // K4 subset
        assert_eq!(cs.cliques_inside(&in_set), 4); // C(4,3)
        in_set[4] = true;
        assert_eq!(cs.cliques_inside(&in_set), 10);
        let none = vec![false; g.n()];
        assert_eq!(cs.cliques_inside(&none), 0);
    }

    #[test]
    fn empty_store_for_clique_free_graph() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        let cs = CliqueSet::enumerate(&g, 3);
        assert!(cs.is_empty());
        assert_eq!(cs.iter().count(), 0);
    }

    #[test]
    fn from_flat_members_round_trip() {
        let members = vec![0u32, 1, 2, 1, 2, 3];
        let cs = CliqueSet::from_flat_members(4, 3, members);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.members(0), &[0, 1, 2]);
        assert_eq!(cs.members(1), &[1, 2, 3]);
        assert_eq!(cs.cliques_of(1), &[0, 1]);
        assert_eq!(cs.cliques_of(3), &[1]);
    }

    #[test]
    #[should_panic(expected = "h-aligned")]
    fn misaligned_members_rejected() {
        CliqueSet::from_flat_members(3, 3, vec![0, 1]);
    }
}
