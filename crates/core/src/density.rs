//! Exact h-clique dense decomposition and compact numbers.
//!
//! The paper's §5.1 connects LhCDS discovery to the *diminishingly
//! dense decomposition* of supermodular functions: the vertex set
//! splits into nested levels of strictly decreasing density, and by
//! Theorem 2 the level value of a vertex is exactly its h-clique
//! compact number `φh` (the optimum `r*` of `CP(G, h)`).
//!
//! This module computes the decomposition **exactly** with max-flow:
//! the first level is the union of all maximal `ρ*`-compact subgraphs
//! at the maximum subgraph density `ρ*`; each subsequent level
//! maximizes the *marginal* density over supersets of the union of the
//! higher levels (the classic principal-partition construction, solved
//! by [`InstanceSolver::next_density_level`] with the higher levels
//! pinned to the source side of the cut). The construction runs once
//! per connected component of the instance hypergraph, each on a
//! network of its own size, and the levels are merged by density.
//!
//! Exact compact numbers are a strictly stronger deliverable than the
//! bounds the IPPV pipeline maintains — they answer "how locally dense
//! is *this* vertex" for every vertex at once — and they provide
//! independent golden values for the pipeline's tests (every LhCDS
//! member's compact number equals the subgraph density, Theorem 1).

use crate::compact::{local_instance, InstanceSolver};
use lhcds_clique::CliqueSet;
use lhcds_flow::Ratio;
use lhcds_graph::{CsrGraph, VertexId};
use std::collections::BTreeMap;

/// One level of the dense decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityLevel {
    /// The level value: the common h-clique compact number of the
    /// level's vertices.
    pub density: Ratio,
    /// Level members (ascending vertex ids).
    pub vertices: Vec<VertexId>,
}

/// The full dense decomposition of a graph.
#[derive(Debug, Clone)]
pub struct DenseDecomposition {
    /// Levels in strictly decreasing density order. Vertices in no
    /// h-clique are omitted (their compact number is 0).
    pub levels: Vec<DensityLevel>,
    /// Exact compact number `φh(v)` per vertex (0 for vertices in no
    /// h-clique).
    pub phi: Vec<Ratio>,
}

/// Computes the exact dense decomposition (and thereby all h-clique
/// compact numbers) of `g`.
pub fn dense_decomposition(g: &CsrGraph, h: usize) -> DenseDecomposition {
    assert!(h >= 2, "h-clique decomposition requires h >= 2");
    let cliques = CliqueSet::enumerate(g, h);
    dense_decomposition_with(g, &cliques)
}

/// Same as [`dense_decomposition`] with a pre-built instance store
/// (also used for general pattern decompositions).
///
/// Runs one marginal-density ladder per connected component of the
/// instance hypergraph (two vertices are joined when they share an
/// instance; for a disconnected custom pattern that is not `G`'s
/// edges). Every instance lies inside one component, so a vertex's
/// level depends on its component alone, and the decomposition of the
/// whole is the components' levels merged by density: equal densities
/// form one level.
pub fn dense_decomposition_with(g: &CsrGraph, cliques: &CliqueSet) -> DenseDecomposition {
    let mut phi = vec![Ratio::zero(); g.n()];
    let mut by_density: BTreeMap<Ratio, Vec<VertexId>> = BTreeMap::new();
    for comp in instance_components(cliques) {
        let (inst, map) = local_instance(cliques, &comp);
        // One retained network serves the component's whole ladder.
        let mut solver = InstanceSolver::new(inst);
        let mut forced = vec![false; map.len()];
        while let Some((density, level_mask)) = solver.next_density_level(&forced) {
            // every vertex left lies in an instance not inside `forced`
            debug_assert!(density > Ratio::zero(), "component levels are positive");
            let vertices = by_density.entry(density).or_default();
            for (local, &m) in level_mask.iter().enumerate() {
                if m {
                    forced[local] = true;
                    phi[map[local] as usize] = density;
                    vertices.push(map[local]);
                }
            }
        }
    }
    let levels = by_density
        .into_iter()
        .rev()
        .map(|(density, mut vertices)| {
            vertices.sort_unstable();
            DensityLevel { density, vertices }
        })
        .collect();
    DenseDecomposition { levels, phi }
}

/// Connected components of the instance hypergraph, each ascending, in
/// order of their smallest vertex. Vertices in no instance are left
/// out.
fn instance_components(cliques: &CliqueSet) -> Vec<Vec<VertexId>> {
    let mut seen = vec![false; cliques.n()];
    let mut expanded = vec![false; cliques.len()];
    let mut comps = Vec::new();
    for root in 0..cliques.n() as VertexId {
        if seen[root as usize] || cliques.degree(root) == 0 {
            continue;
        }
        seen[root as usize] = true;
        let mut comp = vec![root];
        let mut next = 0;
        while next < comp.len() {
            for &ci in cliques.cliques_of(comp[next]) {
                if std::mem::replace(&mut expanded[ci as usize], true) {
                    continue;
                }
                for &w in cliques.members(ci as usize) {
                    if !std::mem::replace(&mut seen[w as usize], true) {
                        comp.push(w);
                    }
                }
            }
            next += 1;
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Exact h-clique compact numbers for every vertex (`φh`, Definition 4).
pub fn compact_numbers(g: &CsrGraph, h: usize) -> Vec<Ratio> {
    dense_decomposition(g, h).phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::GraphBuilder;

    fn complete_on(b: &mut GraphBuilder, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in i + 1..vs.len() {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }

    #[test]
    fn k5_compact_numbers_match_figure4() {
        // Figure 4: every K5 vertex has φ3 = 2.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        let g = b.build();
        let phi = compact_numbers(&g, 3);
        assert!(phi.iter().all(|&p| p == Ratio::from_int(2)));
    }

    #[test]
    fn separated_regions_form_levels() {
        // K5 (φ = 2), disjoint K4 (φ = 1), pendant path (φ = 0)
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(8, 9).add_edge(9, 10);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        assert_eq!(d.levels.len(), 2);
        assert_eq!(d.levels[0].density, Ratio::from_int(2));
        assert_eq!(d.levels[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(d.levels[1].density, Ratio::from_int(1));
        assert_eq!(d.levels[1].vertices, vec![5, 6, 7, 8]);
        assert_eq!(d.phi[9], Ratio::zero());
        assert_eq!(d.phi[10], Ratio::zero());
    }

    #[test]
    fn tied_regions_share_one_level() {
        // two disjoint K4s at φ = 1: one level with both
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        assert_eq!(d.levels.len(), 1);
        assert_eq!(d.levels[0].vertices.len(), 8);
        assert_eq!(d.levels[0].density, Ratio::from_int(1));
    }

    #[test]
    fn levels_strictly_decrease_and_cover_clique_vertices() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4, 5]);
        complete_on(&mut b, &[6, 7, 8, 9]);
        b.add_edge(5, 6);
        b.add_edge(9, 10).add_edge(10, 11).add_edge(11, 9);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        for w in d.levels.windows(2) {
            assert!(w[0].density > w[1].density);
        }
        let covered: usize = d.levels.iter().map(|l| l.vertices.len()).sum();
        let with_cliques = lhcds_clique::count_per_vertex(&g, 3)
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert_eq!(covered, with_cliques);
    }

    #[test]
    fn lhcds_members_have_phi_equal_density() {
        // Theorem 1 cross-check against the pipeline.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(9, 10);
        let g = b.build();
        let phi = compact_numbers(&g, 3);
        let res = crate::pipeline::top_k_lhcds(
            &g,
            3,
            usize::MAX,
            &crate::pipeline::IppvConfig::default(),
        );
        for s in &res.subgraphs {
            for &v in &s.vertices {
                assert_eq!(phi[v as usize], s.density, "vertex {v}");
            }
        }
    }

    #[test]
    fn h2_decomposition_on_star() {
        // star K1,4 at h = 2: the whole star has edge density 4/5 and
        // every subgraph is sparser; φ2 = 4/5 for all 5 vertices.
        let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let d = dense_decomposition(&g, 2);
        assert_eq!(d.levels.len(), 1);
        assert_eq!(d.levels[0].density, Ratio::new(4, 5));
        assert_eq!(d.levels[0].vertices.len(), 5);
    }

    #[test]
    fn retained_ladder_matches_fresh_solvers_per_level() {
        // K5, K4, triangle at distinct levels: a multi-level ladder.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(9, 10).add_edge(10, 11).add_edge(11, 9);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        assert_eq!(d.levels.len(), 3);
        // oracle: a fresh solver (and network) for every level
        let cliques = CliqueSet::enumerate(&g, 3);
        let all: Vec<VertexId> = g.vertices().collect();
        let (inst, map) = local_instance(&cliques, &all);
        let mut forced = vec![false; inst.n];
        for level in &d.levels {
            let (rho, mask) = InstanceSolver::new(inst.clone())
                .next_density_level(&forced)
                .expect("one more level");
            let vertices: Vec<VertexId> =
                (0..inst.n).filter(|&l| mask[l]).map(|l| map[l]).collect();
            assert_eq!((rho, vertices), (level.density, level.vertices.clone()));
            for (f, m) in forced.iter_mut().zip(&mask) {
                *f |= m;
            }
        }
        // (the one-network-per-ladder counter contract lives in the
        // integration tests, which own their process's counters)
    }

    /// The decomposition as one marginal-density ladder over the whole
    /// graph, on one network.
    fn one_ladder(g: &CsrGraph, h: usize) -> Vec<DensityLevel> {
        let cliques = CliqueSet::enumerate(g, h);
        let all: Vec<VertexId> = g.vertices().collect();
        let (inst, map) = local_instance(&cliques, &all);
        let mut solver = InstanceSolver::new(inst);
        let mut forced = vec![false; map.len()];
        let mut levels = Vec::new();
        while let Some((density, mask)) = solver.next_density_level(&forced) {
            let vertices: Vec<VertexId> = (0..map.len())
                .filter(|&l| mask[l])
                .map(|l| map[l])
                .collect();
            for (f, m) in forced.iter_mut().zip(&mask) {
                *f |= m;
            }
            levels.push(DensityLevel { density, vertices });
        }
        levels
    }

    #[test]
    fn component_ladders_equal_one_ladder() {
        // disjoint K5, K4, K4 (a tie across components), a triangle with
        // a pendant, a bridged pair of K4s, and seeded random graphs
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        complete_on(&mut b, &[9, 10, 11, 12]);
        complete_on(&mut b, &[13, 14, 15]);
        b.add_edge(15, 16);
        complete_on(&mut b, &[17, 18, 19, 20]);
        complete_on(&mut b, &[21, 22, 23, 24]);
        b.add_edge(20, 21);
        let mut graphs = vec![b.build()];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..6 {
            let mut b = GraphBuilder::new();
            b.ensure_vertex(29);
            for u in 0..30u32 {
                for v in u + 1..30 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (state >> 33) % 100 < 18 {
                        b.add_edge(u, v);
                    }
                }
            }
            graphs.push(b.build());
        }
        for g in &graphs {
            for h in 2..=4 {
                let d = dense_decomposition(g, h);
                assert_eq!(d.levels, one_ladder(g, h), "h = {h}");
                let mut phi = vec![Ratio::zero(); g.n()];
                for level in &d.levels {
                    for &v in &level.vertices {
                        phi[v as usize] = level.density;
                    }
                }
                assert_eq!(d.phi, phi, "h = {h}");
            }
        }
    }

    #[test]
    fn clique_free_graph_has_empty_decomposition() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let d = dense_decomposition(&g, 3);
        assert!(d.levels.is_empty());
        assert!(d.phi.iter().all(|&p| p == Ratio::zero()));
    }
}
