//! Serial-equivalence harness for the post-enumeration parallel layers
//! — the clique-level harness (`lhcds-clique/tests/parallel.rs`)
//! extended to everything `--threads` reaches after enumeration: the
//! speculative candidate-verification wave.
//!
//! The contract is byte-identity, not approximate agreement: at 1, 2,
//! 4, and 8 threads the full pipeline output (`subgraphs`: members,
//! exact densities, clique counts) must equal the serial run of the
//! per-candidate reference (`top_k_reference`). Scheduling may change
//! wall time and the speculative work counters — never a result.

use lhcds_clique::Parallelism;
use lhcds_core::pipeline::{top_k_lhcds, top_k_reference, IppvConfig};
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(parallelism: Parallelism) -> IppvConfig {
    IppvConfig {
        parallelism,
        ..IppvConfig::default()
    }
}

/// Asserts the full-output equivalence contract on one graph.
fn assert_equivalent(g: &CsrGraph, h: usize) {
    let serial = top_k_reference(g, h, usize::MAX, &cfg(Parallelism::serial()));
    for t in THREAD_COUNTS {
        let par = top_k_lhcds(g, h, usize::MAX, &cfg(Parallelism::threads(t)));
        assert_eq!(
            par.subgraphs, serial.subgraphs,
            "threads={t} h={h}: parallel output diverged from the serial reference"
        );
    }
}

fn figure2() -> CsrGraph {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/fixtures/figure2.txt");
    lhcds_graph::io::read_edge_list_file(&path).expect("figure2 fixture")
}

fn complete_on(b: &mut GraphBuilder, vs: &[u32]) {
    for i in 0..vs.len() {
        for j in i + 1..vs.len() {
            b.add_edge(vs[i], vs[j]);
        }
    }
}

/// The paper's running example, at the paper's h and off-h settings.
#[test]
fn figure2_all_thread_counts() {
    let g = figure2();
    for h in [2usize, 3, 4] {
        assert_equivalent(&g, h);
    }
}

/// Multi-candidate landscapes: several components of different density
/// keep the verification stack non-empty, so the speculative wave
/// actually engages (pinned below) and its commit order matters.
#[test]
fn multi_component_graphs() {
    // two disjoint K5s and a K4, plus a bridged pendant path
    let mut b = GraphBuilder::new();
    complete_on(&mut b, &[0, 1, 2, 3, 4]);
    complete_on(&mut b, &[5, 6, 7, 8, 9]);
    complete_on(&mut b, &[10, 11, 12, 13]);
    b.add_edge(13, 14).add_edge(14, 15);
    let g = b.build();
    for h in [2usize, 3, 4] {
        assert_equivalent(&g, h);
    }

    // the wave must have fired at least once on this shape: >1
    // component is pending whenever the first one is being verified
    let res = top_k_lhcds(&g, 3, usize::MAX, &cfg(Parallelism::threads(4)));
    assert!(
        res.stats.prefetched_decompositions >= 1,
        "speculative verification never engaged: {:?}",
        res.stats.prefetched_decompositions
    );
    let serial = top_k_lhcds(&g, 3, usize::MAX, &cfg(Parallelism::serial()));
    assert_eq!(
        serial.stats.prefetched_decompositions, 0,
        "serial runs must never speculate"
    );
}

/// Overlapping dense regions force candidate refinement (splits,
/// escalation) — the commit path where a stale speculative entry is a
/// miss, never a wrong answer.
#[test]
fn overlapping_cliques_refine_identically() {
    let mut b = GraphBuilder::new();
    complete_on(&mut b, &[0, 1, 2, 3, 4]);
    complete_on(&mut b, &[4, 5, 6, 7, 8]);
    complete_on(&mut b, &[8, 9, 10, 11]);
    let g = b.build();
    for h in [2usize, 3, 4, 5] {
        assert_equivalent(&g, h);
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random graphs: full equivalence at every thread count.
    #[test]
    fn random_graphs_are_equivalent(bits in prop::collection::vec(prop::bool::weighted(0.4), 66)) {
        let g = graph_from_bits(12, &bits);
        for h in 2usize..=4 {
            assert_equivalent(&g, h);
        }
    }

    /// Denser graphs → deeper ladders and more refinement rounds.
    #[test]
    fn dense_random_graphs_are_equivalent(bits in prop::collection::vec(prop::bool::weighted(0.7), 45)) {
        let g = graph_from_bits(10, &bits);
        for h in 3usize..=5 {
            assert_equivalent(&g, h);
        }
    }

    /// Parallel runs are reproducible run-to-run: scheduling must not
    /// leak into any output field.
    #[test]
    fn parallel_runs_are_reproducible(bits in prop::collection::vec(prop::bool::weighted(0.45), 55)) {
        let g = graph_from_bits(11, &bits);
        let c = cfg(Parallelism::threads(4));
        let a = top_k_lhcds(&g, 3, usize::MAX, &c);
        let b = top_k_lhcds(&g, 3, usize::MAX, &c);
        prop_assert_eq!(a.subgraphs, b.subgraphs);
    }
}
