//! Serial-equivalence harness for the node-parallel kClist enumerator.
//!
//! Parallel enumeration is only safe to ship if it is observationally
//! equivalent to the serial one. These tests pin the full contract at
//! 1, 2, 4, and 8 threads:
//!
//! * `par_count_cliques` equals `count_cliques`;
//! * `CliqueSet::enumerate_with` reproduces the serial store exactly —
//!   same flat member array, clique ids, and incidence index — so its
//!   sorted clique multiset equals the serial enumerator's and its
//!   per-vertex degrees equal `count_per_vertex`.
//!
//! Run with `RUST_TEST_THREADS=1` (as CI does) to rule out test-runner
//! interleaving masking nondeterminism in the enumerator itself.

use lhcds_clique::{
    count_cliques, count_per_vertex, for_each_clique, par_count_cliques, CliqueSet, Parallelism,
};
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Sorted multiset of cliques via the serial enumerator.
fn serial_multiset(g: &CsrGraph, h: usize) -> Vec<Vec<VertexId>> {
    let mut cliques = Vec::new();
    for_each_clique(g, h, |c| {
        let mut c = c.to_vec();
        c.sort_unstable();
        cliques.push(c);
    });
    cliques.sort();
    cliques
}

/// Sorted multiset of the cliques in a store.
fn store_multiset(store: &CliqueSet) -> Vec<Vec<VertexId>> {
    let mut cliques: Vec<Vec<VertexId>> = store
        .iter()
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        })
        .collect();
    cliques.sort();
    cliques
}

/// Asserts the complete serial-equivalence contract on one graph.
fn assert_equivalent(g: &CsrGraph, h: usize) {
    let count = count_cliques(g, h);
    let degrees = count_per_vertex(g, h);
    let multiset = serial_multiset(g, h);
    let store = CliqueSet::enumerate(g, h);
    for t in THREAD_COUNTS {
        let par = Parallelism::threads(t);
        assert_eq!(par_count_cliques(g, h, &par), count, "count, threads={t}");
        let par_store = CliqueSet::enumerate_with(g, h, &par);
        assert_eq!(
            store_multiset(&par_store),
            multiset,
            "multiset, threads={t}"
        );
        assert_eq!(par_store.len(), store.len(), "store len, threads={t}");
        for i in 0..store.len() {
            assert_eq!(
                par_store.members(i),
                store.members(i),
                "clique {i}, threads={t}"
            );
        }
        for v in g.vertices() {
            assert_eq!(
                par_store.cliques_of(v),
                store.cliques_of(v),
                "incidence of {v}, threads={t}"
            );
            assert_eq!(
                par_store.degree(v) as u64,
                degrees[v as usize],
                "degree of {v}, threads={t}"
            );
        }
    }
}

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

fn complete_on(b: &mut GraphBuilder, vs: &[u32]) {
    for i in 0..vs.len() {
        for j in i + 1..vs.len() {
            b.add_edge(vs[i], vs[j]);
        }
    }
}

#[test]
fn complete_graphs() {
    for n in 1..=9usize {
        let g = complete(n);
        for h in 1..=n.min(6) {
            assert_equivalent(&g, h);
        }
    }
}

/// The worked-example structures the paper (and this repo's pipeline
/// tests) lean on: overlapping K5s, a bridged K5/K4 pair, a K5 with a
/// pendant path, and two K4s sharing a vertex.
#[test]
fn paper_example_graphs() {
    // two K5s sharing vertex 4 (Figure 1 flavor)
    let mut b = GraphBuilder::new();
    complete_on(&mut b, &[0, 1, 2, 3, 4]);
    complete_on(&mut b, &[4, 5, 6, 7, 8]);
    let shared = b.build();

    // K5 bridged to K4, plus a detached triangle
    let mut b = GraphBuilder::new();
    complete_on(&mut b, &[0, 1, 2, 3, 4]);
    complete_on(&mut b, &[5, 6, 7, 8]);
    b.add_edge(4, 5);
    complete_on(&mut b, &[9, 10, 11]);
    let bridged = b.build();

    // K5 with a pendant path (the pruning example)
    let mut b = GraphBuilder::new();
    complete_on(&mut b, &[0, 1, 2, 3, 4]);
    b.add_edge(4, 5).add_edge(5, 6);
    let pendant = b.build();

    // two K4s sharing vertex 3 (the kClist uniqueness example)
    let mut b = GraphBuilder::new();
    complete_on(&mut b, &[0, 1, 2, 3]);
    complete_on(&mut b, &[3, 4, 5, 6]);
    let two_k4 = b.build();

    for g in [&shared, &bridged, &pendant, &two_k4] {
        for h in 1..=5usize {
            assert_equivalent(g, h);
        }
    }
}

#[test]
fn sparse_and_degenerate_graphs() {
    // triangle-free cycle
    assert_equivalent(
        &CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        3,
    );
    // star (only h = 1, 2 produce anything)
    let star = CsrGraph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
    for h in 1..=3usize {
        assert_equivalent(&star, h);
    }
    // edgeless and empty graphs
    assert_equivalent(&CsrGraph::from_edges(4, []), 2);
    assert_equivalent(&CsrGraph::from_edges(0, []), 3);
    // h larger than the clique number
    assert_equivalent(&complete(4), 6);
}

/// More workers than first-level roots: the queue must starve the extra
/// threads without losing or duplicating blocks.
#[test]
fn more_threads_than_vertices() {
    let g = complete(3);
    let par = Parallelism::threads(8);
    assert_eq!(par_count_cliques(&g, 2, &par), 3);
    let store = CliqueSet::enumerate_with(&g, 3, &par);
    assert_eq!(store.len(), 1);
    assert_eq!(store.members(0).len(), 3);
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (3..=max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        prop::collection::vec(prop::bool::weighted(0.45), pairs).prop_map(move |bits| {
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
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random graphs: full equivalence for h = 2..=5 at every thread
    /// count.
    #[test]
    fn random_graphs_are_equivalent(g in arb_graph(14)) {
        for h in 2usize..=5 {
            assert_equivalent(&g, h);
        }
    }

    /// Denser random graphs push deeper recursion (more buffer reuse
    /// per worker) — a targeted shake-out of shared-scratch bugs.
    #[test]
    fn dense_random_graphs_are_equivalent(g in (6usize..=11).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        prop::collection::vec(prop::bool::weighted(0.8), pairs).prop_map(move |bits| {
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
        })
    })) {
        for h in 3usize..=6 {
            assert_equivalent(&g, h);
        }
    }

    /// Parallel runs are reproducible run-to-run (scheduling must not
    /// leak into any merged result).
    #[test]
    fn parallel_runs_are_reproducible(g in arb_graph(12)) {
        let par = Parallelism::threads(4);
        prop_assert_eq!(par_count_cliques(&g, 3, &par), par_count_cliques(&g, 3, &par));
        let s1 = CliqueSet::enumerate_with(&g, 3, &par);
        let s2 = CliqueSet::enumerate_with(&g, 3, &par);
        prop_assert_eq!(s1.len(), s2.len());
        for i in 0..s1.len() {
            prop_assert_eq!(s1.members(i), s2.members(i));
        }
    }
}
