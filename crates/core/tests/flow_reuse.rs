//! Flow-network reuse must be *invisible*: every output of the
//! verification stack — full decompositions, compact numbers,
//! per-threshold cut sides — is bit-identical across all three
//! `flow_reuse` tiers: `scratch` (one network per probe, the
//! historical cost model), `warm` (networks retained and warm-started
//! across monotone ρ-probes), and `ggt` (one never-reset flow with
//! retraction on decreases and principal-partition recursion, the
//! default). These suites pin that equivalence on fixtures and random
//! graphs at h ∈ {2, 3, 4}, alongside the work-counter contracts that
//! make the reuse tiers worth having.

use std::sync::Mutex;

use lhcds_core::compact::{local_instance, InstanceSolver};
use lhcds_core::density::dense_decomposition_opts;
use lhcds_core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds_core::verify::{verify_basic, BasicVerifier, Verdict};
use lhcds_core::FlowReuse;
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// The flow counters are process-wide; this file owns its process (an
/// integration-test binary), and every test serializes through this
/// mutex so no sibling test's flow work pollutes a measured delta.
static COUNTERS: Mutex<()> = Mutex::new(());

fn quiet_counters() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
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

fn cfg(fast_verify: bool, flow_reuse: FlowReuse) -> IppvConfig {
    IppvConfig {
        fast_verify,
        flow_reuse,
        ..IppvConfig::default()
    }
}

/// Full-decomposition + ladder identity for one (graph, h), under both
/// verifier families and all three tiers, plus the network-count and
/// counter-accounting contracts.
fn check_reuse_invisible(g: &CsrGraph, h: usize) {
    for fast in [true, false] {
        let before = lhcds_flow::flow_stats();
        let scratch = top_k_lhcds(g, h, usize::MAX, &cfg(fast, FlowReuse::Scratch));
        let sd = lhcds_flow::flow_stats().since(&before);
        assert_eq!(
            sd.networks_built, sd.max_flow_invocations,
            "h={h} fast={fast}: scratch rebuilds one network per solve"
        );
        for tier in [FlowReuse::Warm, FlowReuse::Ggt] {
            let before = lhcds_flow::flow_stats();
            let reused = top_k_lhcds(g, h, usize::MAX, &cfg(fast, tier));
            let rd = lhcds_flow::flow_stats().since(&before);
            assert_eq!(
                reused.subgraphs, scratch.subgraphs,
                "h={h} fast={fast} tier={tier}: decomposition diverged"
            );
            assert_eq!(
                rd.max_flow_invocations,
                rd.warm_solves + rd.retract_solves + rd.cold_solves(),
                "h={h} fast={fast} tier={tier}: every max-flow goes through the parametric layer"
            );
            assert!(
                rd.networks_built <= sd.networks_built,
                "h={h} fast={fast} tier={tier}: reuse built more networks than scratch — {rd:?} vs {sd:?}"
            );
            if tier == FlowReuse::Ggt {
                assert_eq!(
                    rd.infeasible_reset, 0,
                    "h={h} fast={fast}: ggt never resets a flow — {rd:?}"
                );
            }
        }
    }
    let cliques = lhcds_clique::CliqueSet::enumerate(g, h);
    let a = dense_decomposition_opts(g, &cliques, FlowReuse::Scratch);
    for tier in [FlowReuse::Warm, FlowReuse::Ggt] {
        let b = dense_decomposition_opts(g, &cliques, tier);
        assert_eq!(
            a.levels, b.levels,
            "h={h} tier={tier}: ladder levels diverged"
        );
        assert_eq!(a.phi, b.phi, "h={h} tier={tier}: compact numbers diverged");
    }
}

/// One network per decomposition ladder, one per basic-verifier run:
/// the fine-grained counter contracts behind the asymptotic claim.
#[test]
fn ladders_and_basic_verifier_build_one_network_each() {
    let _quiet = quiet_counters();
    // K5 + pendant tail: a multi-probe Goldberg ladder
    let mut b = GraphBuilder::new();
    for u in 0..5u32 {
        for v in u + 1..5 {
            b.add_edge(u, v);
        }
    }
    b.add_edge(4, 5).add_edge(5, 6);
    let g = b.build();
    let cliques = lhcds_clique::CliqueSet::enumerate(&g, 3);
    let all: Vec<VertexId> = g.vertices().collect();
    let (inst, _) = local_instance(&cliques, &all);

    let before = lhcds_flow::flow_stats();
    let warm = InstanceSolver::with_reuse(inst.clone(), FlowReuse::Warm).densest_decomposition();
    let wd = lhcds_flow::flow_stats().since(&before);
    let before = lhcds_flow::flow_stats();
    let ggt = InstanceSolver::new(inst.clone()).densest_decomposition();
    let gd = lhcds_flow::flow_stats().since(&before);
    let before = lhcds_flow::flow_stats();
    let scratch =
        InstanceSolver::with_reuse(inst.clone(), FlowReuse::Scratch).densest_decomposition();
    let sd = lhcds_flow::flow_stats().since(&before);
    assert_eq!(warm, scratch);
    assert_eq!(ggt, scratch);
    assert_eq!(
        wd.networks_built, 1,
        "one network for the whole warm ladder"
    );
    assert!(wd.max_flow_invocations > 1);
    assert!(wd.warm_solves >= 1, "{wd:?}");
    assert_eq!(gd.networks_built, 1, "one network for the whole ggt walk");
    assert_eq!(gd.infeasible_reset, 0, "ggt never resets a flow: {gd:?}");
    assert_eq!(sd.networks_built, sd.max_flow_invocations);
    assert_eq!(
        wd.max_flow_invocations, sd.max_flow_invocations,
        "reuse changes construction work, never the probe schedule"
    );

    // the principal-partition recursion: still one network, and the
    // GGT-specific telemetry moves
    let before = lhcds_flow::flow_stats();
    let ladder = InstanceSolver::new(inst.clone()).ggt_ladder();
    let ld = lhcds_flow::flow_stats().since(&before);
    assert!(!ladder.is_empty());
    assert_eq!(ld.networks_built, 1, "one network for the whole recursion");
    assert!(ld.ggt_recursions >= 1, "{ld:?}");
    assert_eq!(ld.infeasible_reset, 0, "{ld:?}");

    // one BasicVerifier across candidates at several ρ: one network
    // (every candidate holds a triangle, the verifier's precondition)
    let candidates: [(&[VertexId], lhcds_core::Ratio); 3] = [
        (&[0, 1, 2, 3, 4], lhcds_core::Ratio::from_int(2)),
        (&[0, 1, 2, 3, 4], lhcds_core::Ratio::new(3, 2)),
        (&[0, 1, 2], lhcds_core::Ratio::from_int(1)),
    ];
    for tier in [FlowReuse::Warm, FlowReuse::Ggt] {
        let before = lhcds_flow::flow_stats();
        let mut shared = BasicVerifier::new(&cliques, tier);
        let verdicts: Vec<Verdict> = candidates
            .iter()
            .map(|&(s, rho)| shared.verify(&g, s, rho))
            .collect();
        let delta = lhcds_flow::flow_stats().since(&before);
        assert_eq!(
            delta.networks_built, 1,
            "tier={tier}: one network for all candidates"
        );
        assert_eq!(delta.max_flow_invocations, candidates.len() as u64);
        for (&(s, rho), verdict) in candidates.iter().zip(&verdicts) {
            assert_eq!(
                *verdict,
                verify_basic(&g, &cliques, s, rho),
                "tier={tier} {s:?}@{rho}"
            );
        }
    }
}

#[test]
fn two_k5_fixtures_are_reuse_invariant() {
    let _quiet = quiet_counters();
    // disjoint: two LhCDSes; bridged: one (the union) — both shapes
    // drive the verifier down different paths (accepts, absorptions)
    for bridged in [false, true] {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        if bridged {
            b.add_edge(4, 5);
        }
        let g = b.build();
        for h in [2usize, 3, 4] {
            check_reuse_invisible(&g, h);
        }
    }
}

/// Per-threshold probes on a shared solver equal fresh solvers at every
/// rho of a mixed (non-monotone) schedule — the raw cut-side identity
/// underlying all higher-level equivalences. Both reuse tiers share one
/// solver: `warm` resets on the decreases, `ggt` retracts through them.
#[test]
fn mixed_threshold_schedule_matches_fresh_solvers() {
    let _quiet = quiet_counters();
    let mut b = GraphBuilder::new();
    for i in 0..6u32 {
        for j in i + 1..6 {
            if (i, j) != (0, 1) {
                b.add_edge(i, j);
            }
        }
    }
    b.add_edge(5, 6).add_edge(6, 7);
    let g = b.build();
    let cliques = lhcds_clique::CliqueSet::enumerate(&g, 3);
    let all: Vec<VertexId> = g.vertices().collect();
    let (inst, _) = local_instance(&cliques, &all);
    let schedule = [
        lhcds_core::Ratio::new(1, 3),
        lhcds_core::Ratio::from_int(2),
        lhcds_core::Ratio::new(13, 6), // up
        lhcds_core::Ratio::new(1, 2),  // down (reset under warm, retract under ggt)
        lhcds_core::Ratio::new(7, 4),  // up again
        lhcds_core::Ratio::zero(),
    ];
    for tier in [FlowReuse::Warm, FlowReuse::Ggt] {
        let mut shared = InstanceSolver::with_reuse(inst.clone(), tier);
        for rho in schedule {
            let mut fresh = InstanceSolver::new(inst.clone());
            assert_eq!(
                shared.max_excess_set(rho),
                fresh.max_excess_set(rho),
                "tier={tier}: max_excess_set at {rho}"
            );
            let mut fresh = InstanceSolver::new(inst.clone());
            assert_eq!(
                shared.derive_compact(rho),
                fresh.derive_compact(rho),
                "tier={tier}: derive_compact at {rho}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs, h = 3: pipeline + ladder reuse-invariance.
    #[test]
    fn reuse_invisible_h3(bits in prop::collection::vec(prop::bool::weighted(0.45), 45)) {
        let _quiet = quiet_counters();
        let g = graph_from_bits(10, &bits);
        check_reuse_invisible(&g, 3);
    }

    /// Random graphs, h = 2 (the classic LDS degeneration).
    #[test]
    fn reuse_invisible_h2(bits in prop::collection::vec(prop::bool::weighted(0.35), 36)) {
        let _quiet = quiet_counters();
        let g = graph_from_bits(9, &bits);
        check_reuse_invisible(&g, 2);
    }

    /// Random dense graphs, h = 4.
    #[test]
    fn reuse_invisible_h4(bits in prop::collection::vec(prop::bool::weighted(0.55), 45)) {
        let _quiet = quiet_counters();
        let g = graph_from_bits(10, &bits);
        check_reuse_invisible(&g, 4);
    }

    /// The solver-level ladder on random instances: one shared network
    /// against a fresh solver per call, across a whole forced-set
    /// progression (the dense-decomposition access pattern).
    #[test]
    fn next_density_level_ladder_matches_fresh(bits in prop::collection::vec(prop::bool::weighted(0.5), 36)) {
        let _quiet = quiet_counters();
        let g = graph_from_bits(9, &bits);
        let cliques = lhcds_clique::CliqueSet::enumerate(&g, 3);
        if cliques.is_empty() {
            return Ok(());
        }
        let all: Vec<VertexId> = g.vertices().collect();
        let (inst, _) = local_instance(&cliques, &all);
        let mut shared = InstanceSolver::new(inst.clone());
        let mut forced = vec![false; inst.n];
        loop {
            let from_shared = shared.next_density_level(&forced);
            let from_fresh = InstanceSolver::new(inst.clone()).next_density_level(&forced);
            prop_assert_eq!(&from_shared, &from_fresh);
            match from_shared {
                None => break,
                Some((_, level)) => {
                    for (f, l) in forced.iter_mut().zip(&level) {
                        *f |= l;
                    }
                }
            }
        }
    }
}
