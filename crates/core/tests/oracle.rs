//! Exactness anchor: the IPPV pipeline must agree with the
//! definition-level brute-force oracle on random small graphs, for every
//! verifier configuration.

use lhcds_clique::Parallelism;
use lhcds_core::bruteforce::all_lhcds_bruteforce;
use lhcds_core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Builds a random graph from a boolean edge matrix (upper triangle).
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

fn check_graph(g: &CsrGraph, h: usize, cfg: &IppvConfig) {
    let expected = all_lhcds_bruteforce(g, h);
    let got = top_k_lhcds(g, h, usize::MAX, cfg);
    assert_eq!(
        got.subgraphs.len(),
        expected.len(),
        "h={h}, edges={:?}: pipeline found {:?}, oracle {:?}",
        g.edges().collect::<Vec<_>>(),
        got.subgraphs,
        expected
    );
    for (p, o) in got.subgraphs.iter().zip(&expected) {
        assert_eq!(p.density, o.density, "density mismatch");
        assert_eq!(p.vertices, o.vertices, "vertex set mismatch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn pipeline_matches_oracle_h3(bits in prop::collection::vec(any::<bool>(), 45)) {
        // n = 10, 45 potential edges
        let g = graph_from_bits(10, &bits);
        check_graph(&g, 3, &IppvConfig::default());
    }

    #[test]
    fn pipeline_matches_oracle_h2(bits in prop::collection::vec(prop::bool::weighted(0.35), 36)) {
        let g = graph_from_bits(9, &bits);
        check_graph(&g, 2, &IppvConfig::default());
    }

    #[test]
    fn pipeline_matches_oracle_h4(bits in prop::collection::vec(prop::bool::weighted(0.55), 45)) {
        let g = graph_from_bits(10, &bits);
        check_graph(&g, 4, &IppvConfig::default());
    }

    #[test]
    fn basic_verifier_matches_oracle(bits in prop::collection::vec(any::<bool>(), 36)) {
        let g = graph_from_bits(9, &bits);
        let cfg = IppvConfig { fast_verify: false, ..IppvConfig::default() };
        check_graph(&g, 3, &cfg);
    }

    #[test]
    fn few_cp_iterations_still_exact(bits in prop::collection::vec(any::<bool>(), 36)) {
        // Exactness must not depend on CP convergence quality.
        let g = graph_from_bits(9, &bits);
        let cfg = IppvConfig { cp_iterations: 1, ..IppvConfig::default() };
        check_graph(&g, 3, &cfg);
    }

    #[test]
    fn many_cp_iterations_still_exact(bits in prop::collection::vec(prop::bool::weighted(0.45), 36)) {
        let g = graph_from_bits(9, &bits);
        let cfg = IppvConfig { cp_iterations: 120, ..IppvConfig::default() };
        check_graph(&g, 3, &cfg);
    }

    #[test]
    fn parallel_enumeration_matches_oracle(bits in prop::collection::vec(prop::bool::weighted(0.5), 45)) {
        // Exactness must not depend on the enumeration thread count:
        // multi-threaded runs face the oracle directly, and the full
        // decomposition must also be identical to the serial run's.
        let g = graph_from_bits(10, &bits);
        let serial = top_k_lhcds(&g, 3, usize::MAX, &IppvConfig::default());
        for t in [2usize, 4, 8] {
            let cfg = IppvConfig { parallelism: Parallelism::threads(t), ..IppvConfig::default() };
            check_graph(&g, 3, &cfg);
            let par = top_k_lhcds(&g, 3, usize::MAX, &cfg);
            prop_assert_eq!(&par.subgraphs, &serial.subgraphs, "threads = {}", t);
        }
    }

    #[test]
    fn top_k_prefix_matches_oracle(bits in prop::collection::vec(prop::bool::weighted(0.4), 45), k in 1usize..4) {
        let g = graph_from_bits(10, &bits);
        let expected = {
            let mut all = all_lhcds_bruteforce(&g, 3);
            all.truncate(k);
            all
        };
        let got = top_k_lhcds(&g, 3, k, &IppvConfig::default());
        prop_assert_eq!(got.subgraphs.len(), expected.len());
        for (p, o) in got.subgraphs.iter().zip(&expected) {
            prop_assert_eq!(p.density, o.density);
            prop_assert_eq!(&p.vertices, &o.vertices);
        }
    }
}

/// Dense regular structures with many exact ties — the worst case for
/// ordering and stability logic.
#[test]
fn tie_heavy_structures() {
    // four disjoint triangles: four LhCDSes all at density 1/3
    let mut b = GraphBuilder::new();
    for base in [0u32, 3, 6, 9] {
        b.add_edge(base, base + 1)
            .add_edge(base + 1, base + 2)
            .add_edge(base + 2, base);
    }
    let g = b.build();
    check_graph(&g, 3, &IppvConfig::default());

    // two K4s joined by one bridge: single LhCDS (the union is
    // 1-compact and connected)
    let mut b = GraphBuilder::new();
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(base + i, base + j);
            }
        }
    }
    b.add_edge(3, 4);
    let g = b.build();
    check_graph(&g, 3, &IppvConfig::default());

    // chain of three K4s
    let mut b = GraphBuilder::new();
    for base in [0u32, 4, 8] {
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(base + i, base + j);
            }
        }
    }
    b.add_edge(3, 4).add_edge(7, 8);
    let g = b.build();
    check_graph(&g, 3, &IppvConfig::default());
}

/// Overlapping cliques: candidates that are self-densest but not
/// maximal exercise the superset-absorption path.
#[test]
fn overlapping_cliques_absorption() {
    // two K5s sharing one vertex
    let mut b = GraphBuilder::new();
    for vs in [[0u32, 1, 2, 3, 4], [4, 5, 6, 7, 8]] {
        for i in 0..5 {
            for j in i + 1..5 {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }
    let g = b.build();
    check_graph(&g, 3, &IppvConfig::default());
    check_graph(&g, 4, &IppvConfig::default());

    // K6 with a K5 sharing a triangle
    let mut b = GraphBuilder::new();
    for u in 0..6u32 {
        for v in u + 1..6 {
            b.add_edge(u, v);
        }
    }
    for vs in [[3u32, 4, 5, 6, 7]] {
        for i in 0..5 {
            for j in i + 1..5 {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }
    let g = b.build();
    check_graph(&g, 3, &IppvConfig::default());
}

mod phi_oracle {
    use super::*;
    use lhcds_core::bruteforce::compact_numbers_bruteforce;
    use lhcds_core::density::{compact_numbers, dense_decomposition};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(80))]

        /// The flow-based dense decomposition computes exactly the
        /// definition-level compact numbers.
        #[test]
        fn compact_numbers_match_bruteforce_h3(bits in prop::collection::vec(any::<bool>(), 36)) {
            let g = graph_from_bits(9, &bits);
            let exact = compact_numbers(&g, 3);
            let brute = compact_numbers_bruteforce(&g, 3);
            prop_assert_eq!(exact, brute);
        }

        /// h = 4, where one clique spans half of the 8 vertices.
        #[test]
        fn compact_numbers_match_bruteforce_h4(bits in prop::collection::vec(prop::bool::weighted(0.6), 28)) {
            let g = graph_from_bits(8, &bits);
            let exact = compact_numbers(&g, 4);
            let brute = compact_numbers_bruteforce(&g, 4);
            prop_assert_eq!(exact, brute);
        }

        #[test]
        fn compact_numbers_match_bruteforce_h2(bits in prop::collection::vec(prop::bool::weighted(0.4), 28)) {
            let g = graph_from_bits(8, &bits);
            let exact = compact_numbers(&g, 2);
            let brute = compact_numbers_bruteforce(&g, 2);
            prop_assert_eq!(exact, brute);
        }

        /// Levels strictly decrease, partition clique-covered vertices,
        /// and every LhCDS is fully inside one level at its density.
        #[test]
        fn decomposition_structure(bits in prop::collection::vec(prop::bool::weighted(0.5), 36)) {
            let g = graph_from_bits(9, &bits);
            let d = dense_decomposition(&g, 3);
            for w in d.levels.windows(2) {
                prop_assert!(w[0].density > w[1].density);
            }
            for s in all_lhcds_bruteforce(&g, 3) {
                for &v in &s.vertices {
                    prop_assert_eq!(d.phi[v as usize], s.density);
                }
            }
        }
    }
}
