//! Flow-network reuse must be *invisible*: the production pipeline —
//! one retained network per local decomposition, one memoized
//! clique-support network shared by every flow-deciding fast
//! verification, the same support network per basic-verifier run — must
//! answer exactly like the per-candidate reference
//! (`top_k_reference`: a fresh reduced network per verification), and
//! a retained `InstanceSolver` exactly like a fresh solver per probe.
//! These suites pin that equivalence on fixtures and random graphs at
//! h ∈ {2, 3, 4}, alongside the work-counter contracts that make the
//! reuse worth having: fewer networks than max-flows, and no retained
//! flow ever reset.

use std::sync::Mutex;

use lhcds_clique::Parallelism;
use lhcds_core::compact::{local_instance, InstanceSolver};
use lhcds_core::pipeline::{top_k_lhcds, top_k_reference, IppvConfig};
use lhcds_core::verify::{SupportVerifier, Verdict};
use lhcds_core::{flow_stats, Ratio};
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

fn cfg(fast_verify: bool, parallelism: Parallelism) -> IppvConfig {
    IppvConfig {
        fast_verify,
        parallelism,
        ..IppvConfig::default()
    }
}

/// Production against the reference on one (graph, h), under both
/// verifier families, plus the counter-accounting contracts.
fn check_reuse_invisible(g: &CsrGraph, h: usize) {
    let before = flow_stats();
    let reference = top_k_reference(g, h, usize::MAX, &cfg(true, Parallelism::serial()));
    let rd = flow_stats().since(&before);
    for fast in [true, false] {
        let before = flow_stats();
        let res = top_k_lhcds(g, h, usize::MAX, &cfg(fast, Parallelism::serial()));
        let d = flow_stats().since(&before);
        assert_eq!(
            res.subgraphs, reference.subgraphs,
            "h={h} fast={fast}: output diverged from the reference"
        );
        assert_eq!(
            d.max_flow_invocations,
            d.warm_solves + d.retract_solves + d.cold_solves(),
            "h={h} fast={fast}: every max-flow goes through the parametric layer"
        );
        assert_eq!(
            d.infeasible_reset, 0,
            "h={h} fast={fast}: a flow was reset — {d:?}"
        );
        if fast {
            assert!(
                d.networks_built <= rd.networks_built,
                "h={h}: the shared network built more than the reference — {d:?} vs {rd:?}"
            );
        }
    }
}

/// What a workload's flow counters must show besides "no reset".
enum FlowWork {
    /// Strictly fewer networks than max-flows: the networks are reused.
    Reused,
    /// Exactly this many networks and max-flows.
    Exactly { networks: u64, max_flows: u64 },
}

/// The production pipeline on a sparse planted-community graph (h = 3)
/// and a dense random graph (h = 4): its output equals the
/// per-candidate reference and it never resets a retained flow —
/// serially and with the speculative wave. The planted graph builds
/// strictly fewer networks than it runs max-flows. gnp(200, 0.2) is one
/// local decomposition whose first probe at the graph's own density
/// finds no denser set, and that probe's maximal cut is the answer: one
/// network, one max-flow.
#[test]
fn production_pipeline_reuses_networks_and_matches_the_reference() {
    let _quiet = quiet_counters();
    let workloads = [
        (
            "planted_communities_1200",
            lhcds_data::gen::planted_communities(
                1200,
                3,
                &[(20, 0.9), (16, 0.85), (12, 0.9), (10, 0.95)],
                0xF10,
            ),
            3,
            FlowWork::Reused,
        ),
        (
            "gnp_200_p20",
            lhcds_data::gen::gnp(200, 0.2, 0xF10),
            4,
            FlowWork::Exactly {
                networks: 1,
                max_flows: 1,
            },
        ),
    ];
    for (name, g, h, work) in &workloads {
        let reference = top_k_reference(g, *h, usize::MAX, &cfg(true, Parallelism::serial()));
        assert!(!reference.subgraphs.is_empty(), "{name}");
        for threads in [1usize, 2] {
            let before = flow_stats();
            let res = top_k_lhcds(g, *h, usize::MAX, &cfg(true, Parallelism::threads(threads)));
            let d = flow_stats().since(&before);
            assert_eq!(
                res.subgraphs, reference.subgraphs,
                "{name} threads={threads}: output diverged from the reference"
            );
            match *work {
                FlowWork::Reused => assert!(
                    d.networks_built < d.max_flow_invocations,
                    "{name} threads={threads}: {} networks for {} max-flows",
                    d.networks_built,
                    d.max_flow_invocations
                ),
                FlowWork::Exactly {
                    networks,
                    max_flows,
                } => assert_eq!(
                    (d.networks_built, d.max_flow_invocations),
                    (networks, max_flows),
                    "{name} threads={threads}: networks and max-flows — {d:?}"
                ),
            }
            assert_eq!(
                d.infeasible_reset, 0,
                "{name} threads={threads}: a retained flow was reset — {d:?}"
            );
        }
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

    let before = flow_stats();
    let ladder = InstanceSolver::new(inst.clone()).densest_decomposition();
    let d = flow_stats().since(&before);
    let k5 = vec![true, true, true, true, true, false, false];
    assert_eq!(ladder, Some((Ratio::from_int(2), k5)));
    assert_eq!(d.networks_built, 1, "one network for the whole ladder");
    assert!(d.max_flow_invocations > 1);
    assert!(d.warm_solves >= 1, "{d:?}");
    assert_eq!(d.infeasible_reset, 0, "a retained flow was reset: {d:?}");

    // one SupportVerifier across candidates at several ρ: one network
    // (every candidate holds a triangle, the verifier's precondition)
    let candidates: [(&[VertexId], Ratio); 3] = [
        (&[0, 1, 2, 3, 4], Ratio::from_int(2)),
        (&[0, 1, 2, 3, 4], Ratio::new(3, 2)),
        (&[0, 1, 2], Ratio::from_int(1)),
    ];
    let before = flow_stats();
    let mut shared = SupportVerifier::new(&cliques);
    let verdicts: Vec<Verdict> = candidates
        .iter()
        .map(|&(s, rho)| shared.verify(&g, s, rho))
        .collect();
    let delta = flow_stats().since(&before);
    assert_eq!(delta.networks_built, 1, "one network for all candidates");
    assert_eq!(delta.max_flow_invocations, candidates.len() as u64);
    for (&(s, rho), verdict) in candidates.iter().zip(&verdicts) {
        // a fresh verifier per candidate: the oracle
        let fresh = SupportVerifier::new(&cliques).verify(&g, s, rho);
        assert_eq!(*verdict, fresh, "{s:?}@{rho}");
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

/// Per-threshold probes on one retained solver equal fresh solvers at
/// every ρ of a mixed (non-monotone) schedule — the raw cut-side
/// identity underlying all higher-level equivalences. The decreases
/// retract the retained flow instead of resetting it.
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
        Ratio::new(1, 3),
        Ratio::from_int(2),
        Ratio::new(13, 6), // up
        Ratio::new(1, 2),  // down: retract
        Ratio::new(7, 4),  // up again
        Ratio::zero(),
    ];
    let mut shared = InstanceSolver::new(inst.clone());
    let before = flow_stats();
    for rho in schedule {
        assert_eq!(
            shared.max_excess_set(rho),
            InstanceSolver::new(inst.clone()).max_excess_set(rho),
            "max_excess_set at {rho}"
        );
        assert_eq!(
            shared.derive_compact(rho),
            InstanceSolver::new(inst.clone()).derive_compact(rho),
            "derive_compact at {rho}"
        );
    }
    let d = flow_stats().since(&before);
    assert!(d.retract_solves >= 1, "the schedule decreases: {d:?}");
    assert_eq!(d.infeasible_reset, 0, "{d:?}");
}

/// `densest_decomposition` reads `U` off its last probe at `ρ*`; a
/// fresh solver's `DeriveCompact(ρ*)` at the perturbed threshold must
/// keep the same vertices (`compact.rs`, "The last probe is the
/// answer").
fn last_probe_is_derive_compact(
    g: &CsrGraph,
    h: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let cliques = lhcds_clique::CliqueSet::enumerate(g, h);
    let all: Vec<VertexId> = g.vertices().collect();
    let (inst, _) = local_instance(&cliques, &all);
    match InstanceSolver::new(inst.clone()).densest_decomposition() {
        None => prop_assert!(cliques.is_empty()),
        Some((rho, members)) => {
            prop_assert_eq!(members, InstanceSolver::new(inst).derive_compact(rho));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn last_probe_is_derive_compact_h2(bits in prop::collection::vec(prop::bool::weighted(0.35), 36)) {
        let _quiet = quiet_counters();
        last_probe_is_derive_compact(&graph_from_bits(9, &bits), 2)?;
    }

    #[test]
    fn last_probe_is_derive_compact_h3(bits in prop::collection::vec(prop::bool::weighted(0.45), 45)) {
        let _quiet = quiet_counters();
        last_probe_is_derive_compact(&graph_from_bits(10, &bits), 3)?;
    }

    #[test]
    fn last_probe_is_derive_compact_h4(bits in prop::collection::vec(prop::bool::weighted(0.55), 45)) {
        let _quiet = quiet_counters();
        last_probe_is_derive_compact(&graph_from_bits(10, &bits), 4)?;
    }

    /// Random graphs, h = 3: production against the reference.
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
