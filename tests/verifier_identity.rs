//! The verify phase's shared networks must be *invisible*. By default
//! the fast verifier answers every flow-deciding candidate from one
//! network built on the clique support `{v : cliques.degree(v) > 0}`,
//! memoized per `(ρ, T)`; the basic verifier likewise builds one
//! support network per run. The oracle is the per-candidate reduced
//! network (`top_k_reference`, i.e. `verify_fast_with(.., None)`): a
//! fresh network over each candidate's own `T`, never shared and never
//! memoized. Both verifier families must print the oracle's answers
//! bit for bit, and the fast one must follow its verify schedule. The
//! surfaces built on the pipeline — the frozen decomposition index and
//! the dense decomposition's one retained network — are pinned against
//! the same oracle. Checked on the paper's Figure 2 worked example, on
//! generated community graphs, and on random graphs at h ∈ {2, 3, 4}.

use lhcds::clique::CliqueSet;
use lhcds::core::compact::{local_instance, InstanceSolver};
use lhcds::core::density::dense_decomposition_with;
use lhcds::core::index::{DecompositionIndex, IndexConfig};
use lhcds::core::pipeline::{top_k_lhcds, top_k_reference, IppvConfig, IppvResult};
use lhcds::data::figure2_graph;
use lhcds::data::gen::planted_communities;
use lhcds::graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

fn check_graph(g: &CsrGraph, h: usize) -> IppvResult {
    let oracle = top_k_reference(g, h, usize::MAX, &IppvConfig::default());
    assert_eq!(oracle.stats.memo_hits, 0, "the oracle has no memo");
    for fast_verify in [true, false] {
        let cfg = IppvConfig {
            fast_verify,
            ..IppvConfig::default()
        };
        let res = top_k_lhcds(g, h, usize::MAX, &cfg);
        assert_eq!(
            res.subgraphs, oracle.subgraphs,
            "h={h} fast={fast_verify}: output differs from the reduced-network oracle"
        );
        if fast_verify {
            let (a, b) = (&res.stats, &oracle.stats);
            assert_eq!(
                (a.verifications, a.flow_verifications),
                (b.verifications, b.flow_verifications),
                "h={h}: verify schedule differs from the oracle"
            );
            assert!(a.memo_hits <= a.flow_verifications);
        }
    }
    oracle
}

/// The index and the dense decomposition against the oracle: the built
/// index freezes exactly the oracle's decomposition, the decomposition
/// ladder on one retained network equals a fresh solver per level, and
/// every oracle LhCDS member's compact number is its density
/// (Theorem 1).
fn check_surfaces(g: &CsrGraph, h: usize) {
    let oracle = check_graph(g, h);
    let index = DecompositionIndex::build(g, h, &IndexConfig::default());
    let frozen = DecompositionIndex::from_subgraphs(
        g.n(),
        h,
        IndexConfig::default().k_max,
        &oracle.subgraphs,
    );
    assert_eq!(
        index.as_parts(),
        frozen.as_parts(),
        "h={h}: index parts diverged"
    );

    let cliques = CliqueSet::enumerate(g, h);
    let d = dense_decomposition_with(g, &cliques);
    let all: Vec<VertexId> = g.vertices().collect();
    let (inst, map) = local_instance(&cliques, &all);
    let mut forced = vec![false; inst.n];
    for level in &d.levels {
        let (rho, mask) = InstanceSolver::new(inst.clone())
            .next_density_level(&forced)
            .expect("a fresh solver finds the level too");
        let vertices: Vec<VertexId> = (0..inst.n).filter(|&l| mask[l]).map(|l| map[l]).collect();
        assert_eq!(
            (rho, vertices),
            (level.density, level.vertices.clone()),
            "h={h}: ladder level diverged from a fresh solver"
        );
        for (f, m) in forced.iter_mut().zip(&mask) {
            *f |= m;
        }
    }
    for s in &oracle.subgraphs {
        for &v in &s.vertices {
            assert_eq!(d.phi[v as usize], s.density, "h={h}: φ({v})");
        }
    }
}

#[test]
fn figure2_verifier_networks_are_invisible_across_h() {
    let g = figure2_graph();
    for h in [2usize, 3, 4] {
        check_graph(&g, h);
    }
    // and the default still reproduces the paper's top-1
    let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
    assert_eq!(res.subgraphs[0].vertices, vec![11, 12, 13, 14, 15, 16]);
    assert_eq!(res.subgraphs[0].density.to_string(), "13/6");
}

#[test]
fn figure2_index_and_ladder_match_the_oracle_across_h() {
    let g = figure2_graph();
    for h in [2usize, 3, 4] {
        check_surfaces(&g, h);
    }
}

#[test]
fn planted_communities_index_and_ladder_match_the_oracle() {
    let g = planted_communities(250, 3, &[(12, 0.9), (9, 0.95)], 0xACE);
    check_surfaces(&g, 3);
}

#[test]
fn planted_communities_verifier_networks_are_invisible() {
    // sparse inter-community fill leaves plenty of vertices outside the
    // triangle support, and the absorptions make (ρ, T) pairs recur
    let g = planted_communities(250, 3, &[(12, 0.9), (9, 0.95)], 0xACE);
    check_graph(&g, 3);
    let res = top_k_lhcds(&g, 3, usize::MAX, &IppvConfig::default());
    assert!(res.stats.flow_verifications > 0, "{:?}", res.stats);
}

#[test]
fn fringe_trees_fall_out_of_the_support() {
    // K5 with a long pendant path and an isolated vertex: at h = 3 the
    // support is exactly the K5, so the networks drop the entire fringe
    let mut b = GraphBuilder::new();
    for u in 0..5u32 {
        for v in u + 1..5 {
            b.add_edge(u, v);
        }
    }
    b.add_edge(4, 5).add_edge(5, 6).add_edge(6, 7);
    b.ensure_vertex(8);
    let g = b.build();
    for h in [2usize, 3, 4] {
        check_graph(&g, h);
    }
}

fn graph_from_bits(n: usize, bits: &[bool]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertex((n - 1) as VertexId);
    let mut idx = 0;
    for u in 0..n as VertexId {
        for v in u + 1..n as VertexId {
            if bits[idx] {
                b.add_edge(u, v);
            }
            idx += 1;
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse random graphs, h = 3 — most vertices miss the support.
    #[test]
    fn verifier_networks_invisible_h3(bits in prop::collection::vec(prop::bool::weighted(0.35), 45)) {
        check_graph(&graph_from_bits(10, &bits), 3);
    }

    /// h = 2: the support is the non-isolated vertices.
    #[test]
    fn verifier_networks_invisible_h2(bits in prop::collection::vec(prop::bool::weighted(0.3), 45)) {
        check_graph(&graph_from_bits(10, &bits), 2);
    }

    /// Dense random graphs, h = 4.
    #[test]
    fn verifier_networks_invisible_h4(bits in prop::collection::vec(prop::bool::weighted(0.5), 45)) {
        check_graph(&graph_from_bits(10, &bits), 4);
    }
}
