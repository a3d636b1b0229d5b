//! The verify phase's shared networks must be *invisible*. By default
//! the fast verifier answers every flow-deciding candidate from one
//! network built on the clique support `{v : cliques.degree(v) > 0}`,
//! memoized per `(ρ, T)`; the basic verifier likewise builds one
//! support network per run. The oracle is the per-candidate reduced
//! network (`FlowReuse::Scratch`, i.e. `verify_fast_with(.., None)`):
//! a fresh network over each candidate's own `T`, never shared and
//! never memoized. Every configuration must print the oracle's answers
//! bit for bit, and the fast ones must follow its verify schedule.
//! Pinned on the paper's Figure 2 worked example, on generated
//! community graphs, and on random graphs at h ∈ {2, 3, 4}, for both
//! verifier families.

use lhcds::core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds::core::FlowReuse;
use lhcds::data::figure2_graph;
use lhcds::data::gen::planted_communities;
use lhcds::graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

fn check_graph(g: &CsrGraph, h: usize) {
    let mk = |fast_verify: bool, flow_reuse: FlowReuse| IppvConfig {
        fast_verify,
        flow_reuse,
        ..IppvConfig::default()
    };
    let oracle = top_k_lhcds(g, h, usize::MAX, &mk(true, FlowReuse::Scratch));
    assert_eq!(oracle.stats.memo_hits, 0, "the oracle has no memo");
    for fast in [true, false] {
        for tier in [FlowReuse::Scratch, FlowReuse::Warm, FlowReuse::Ggt] {
            let res = top_k_lhcds(g, h, usize::MAX, &mk(fast, tier));
            assert_eq!(
                res.subgraphs, oracle.subgraphs,
                "h={h} fast={fast} tier={tier}: output differs from the reduced-network oracle"
            );
            if fast {
                let (a, b) = (&res.stats, &oracle.stats);
                assert_eq!(
                    (a.verifications, a.flow_verifications),
                    (b.verifications, b.flow_verifications),
                    "h={h} tier={tier}: verify schedule differs from the oracle"
                );
                assert!(a.memo_hits <= a.flow_verifications);
            }
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
