//! The fast verifier's shared clique-support network against the
//! per-`T` oracle on arbitrary `T` sequences.
//!
//! The pipeline only ever asks the shared network about the `T`s that
//! BFS closures of its candidates produce. Here one retained
//! [`SupportVerifier`] solves a whole random sequence of `T`s — some
//! reaching clique-free vertices, one equal to the whole support — at
//! thresholds `ρ > 1/|T|²`, so the retained flow is moved across
//! arbitrary changes of the sink-pinned set. Every kept set must equal
//! `DeriveCompact(G[T], ρ − 1/|T|²)` on a fresh reduced network.

use lhcds_clique::CliqueSet;
use lhcds_core::compact::{local_instance, InstanceSolver};
use lhcds_core::verify::SupportVerifier;
use lhcds_core::Ratio;
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Vertices of the random part. Vertex `N` is a pendant on vertex 0
/// and `N + 1` is isolated: both are clique-free for h ≥ 3, and `N + 1`
/// for every h.
const N: usize = 11;

fn graph(bits: &[bool]) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertex((N + 1) as VertexId);
    let mut idx = 0;
    for u in 0..N as VertexId {
        for v in u + 1..N as VertexId {
            if bits[idx] {
                b.add_edge(u, v);
            }
            idx += 1;
        }
    }
    b.add_edge(0, N as VertexId);
    b.build()
}

/// One step of a sequence: membership of `T`, a threshold `num/den`,
/// and whether to use `d(G[T])` (a tie at the threshold) instead.
type Step = (Vec<bool>, i128, i128, bool);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            prop::collection::vec(prop::bool::weighted(0.5), N + 2),
            1i128..=12,
            1i128..=4,
            any::<bool>(),
        ),
        1..=6,
    )
}

/// `d(G[T])` over the instances inside `t`.
fn density(cliques: &CliqueSet, t: &[VertexId]) -> Ratio {
    let (inst, _) = local_instance(cliques, t);
    Ratio::new(inst.clique_count() as i128, t.len() as i128)
}

/// Solves the whole sequence on one retained support network and
/// checks each kept set against a fresh reduced network over `G[T]`.
fn check_sequence(bits: &[bool], h: usize, steps: &[Step], whole_at: usize) {
    let g = graph(bits);
    let cliques = CliqueSet::enumerate(&g, h);
    let support: Vec<VertexId> = g.vertices().filter(|&v| cliques.degree(v) > 0).collect();
    if support.len() < 2 {
        return;
    }
    let mut sequence: Vec<(Vec<VertexId>, Ratio)> = Vec::new();
    for (i, (members, num, den, tie)) in steps.iter().enumerate() {
        let t: Vec<VertexId> = (0..(N + 2) as VertexId)
            // the first step always reaches the isolated vertex
            .filter(|&v| members[v as usize] || (i == 0 && v == (N + 1) as VertexId))
            .collect();
        if t.len() < 2 {
            continue;
        }
        let floor = Ratio::new(1, (t.len() * t.len()) as i128);
        let d = density(&cliques, &t);
        let rho = if *tie && d > floor {
            d
        } else {
            Ratio::new(*num, *den)
        };
        if rho > floor {
            sequence.push((t, rho));
        }
    }
    let whole = density(&cliques, &support);
    sequence.insert(whole_at % (sequence.len() + 1), (support, whole));

    let mut shared = SupportVerifier::new(&cliques);
    for (t, rho) in &sequence {
        let kept = shared.derive_compact_within(t, *rho);
        let (inst, map) = local_instance(&cliques, t);
        let membership = InstanceSolver::new(inst).derive_compact(*rho);
        let oracle: Vec<VertexId> = map
            .iter()
            .zip(&membership)
            .filter(|&(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        assert_eq!(kept, oracle, "h = {h}, T = {t:?}, ρ = {rho}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// h = 2: every edge is an instance; only the isolated vertex is
    /// clique-free.
    #[test]
    fn shared_network_matches_oracle_h2(
        bits in prop::collection::vec(prop::bool::weighted(0.3), N * (N - 1) / 2),
        steps in steps(),
        whole_at in 0usize..8,
    ) {
        check_sequence(&bits, 2, &steps, whole_at);
    }

    /// h = 3.
    #[test]
    fn shared_network_matches_oracle_h3(
        bits in prop::collection::vec(prop::bool::weighted(0.45), N * (N - 1) / 2),
        steps in steps(),
        whole_at in 0usize..8,
    ) {
        check_sequence(&bits, 3, &steps, whole_at);
    }

    /// h = 4, denser so that 4-cliques exist.
    #[test]
    fn shared_network_matches_oracle_h4(
        bits in prop::collection::vec(prop::bool::weighted(0.6), N * (N - 1) / 2),
        steps in steps(),
        whole_at in 0usize..8,
    ) {
        check_sequence(&bits, 4, &steps, whole_at);
    }
}
