//! Cross-crate integration tests: the full pipeline on generated
//! datasets, structural invariants of the outputs, agreement between
//! all exact configurations, and baseline consistency.

use lhcds::baselines::{greedy_top_k_cds, peel_densest, FlowLds};
use lhcds::clique::{CliqueSet, Parallelism};
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig, IppvResult};
use lhcds::data::datasets::by_abbr;
use lhcds::data::gen::{gnp, planted_communities, sbm};
use lhcds::flow::Ratio;
use lhcds::graph::traversal::is_connected_within;
use lhcds::graph::{CsrGraph, InducedSubgraph};

fn check_invariants(g: &CsrGraph, h: usize, res: &IppvResult) {
    let mut seen = vec![false; g.n()];
    let mut last: Option<Ratio> = None;
    for s in &res.subgraphs {
        // pairwise disjoint (Proposition 2)
        for &v in &s.vertices {
            assert!(!seen[v as usize], "overlap at vertex {v}");
            seen[v as usize] = true;
        }
        // connected
        assert!(is_connected_within(g, &s.vertices), "disconnected output");
        // density matches an exact recount on the induced subgraph
        let sub = InducedSubgraph::new(g, &s.vertices);
        let count = CliqueSet::enumerate(&sub.graph, h).len() as i128;
        assert_eq!(
            s.density,
            Ratio::new(count, s.vertices.len() as i128),
            "density mismatch"
        );
        assert_eq!(s.clique_count as i128, count);
        // non-increasing density order
        if let Some(prev) = last {
            assert!(s.density <= prev, "order violated");
        }
        last = Some(s.density);
        // every output has at least one clique
        assert!(s.clique_count > 0);
    }
}

#[test]
fn planted_communities_are_recovered() {
    // two planted near-cliques in a sparse background: the pipeline
    // must find both as the top-2 L3CDSes
    let g = planted_communities(400, 2, &[(18, 0.95), (14, 0.95)], 77);
    let res = top_k_lhcds(&g, 3, 2, &IppvConfig::default());
    assert_eq!(res.subgraphs.len(), 2);
    check_invariants(&g, 3, &res);
    // the top-1 region lives inside the first pocket's id range
    let pocket_a: Vec<u32> = (400..418).collect();
    let hits = res.subgraphs[0]
        .vertices
        .iter()
        .filter(|v| pocket_a.contains(v))
        .count();
    assert!(
        hits >= res.subgraphs[0].vertices.len() * 9 / 10,
        "top-1 should be the big pocket, got {:?}",
        res.subgraphs[0].vertices
    );
}

#[test]
fn invariants_hold_across_h_on_registry_dataset() {
    let d = by_abbr("HA").unwrap().generate_scaled(0.05);
    for h in [2usize, 3, 4, 5] {
        let res = top_k_lhcds(&d.graph, h, 8, &IppvConfig::default());
        check_invariants(&d.graph, h, &res);
    }
}

#[test]
fn all_exact_configurations_agree() {
    let g = planted_communities(250, 3, &[(15, 0.9), (12, 0.85), (10, 0.9)], 42);
    let reference = top_k_lhcds(&g, 3, 10, &IppvConfig::default());
    let configs = [
        IppvConfig {
            fast_verify: false,
            ..IppvConfig::default()
        },
        IppvConfig {
            cp_iterations: 1,
            ..IppvConfig::default()
        },
        IppvConfig {
            cp_iterations: 100,
            ..IppvConfig::default()
        },
        IppvConfig {
            use_prune: false,
            ..IppvConfig::default()
        },
        IppvConfig {
            use_cp: false,
            use_prune: false,
            fast_verify: false,
            ..IppvConfig::default()
        },
    ];
    for (i, cfg) in configs.iter().enumerate() {
        let res = top_k_lhcds(&g, 3, 10, cfg);
        assert_eq!(
            res.subgraphs, reference.subgraphs,
            "config {i} diverged from the reference"
        );
    }
}

#[test]
fn baselines_are_consistent_with_ippv() {
    let (g, _) = sbm(&[40, 40, 40], 0.25, 0.01, 5);
    // LDSflow / LTDS are exact: identical results
    for h in [2usize, 3] {
        let ippv = top_k_lhcds(&g, h, 5, &IppvConfig::default());
        let flow = FlowLds { h }.top_k(&g, 5);
        assert_eq!(ippv.subgraphs, flow.subgraphs, "h={h}");
    }
    // Greedy's first extraction matches the top-1 CDS density
    let ippv = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
    let greedy = greedy_top_k_cds(&g, 3, 1, 30);
    if let (Some(a), Some(b)) = (ippv.subgraphs.first(), greedy.first()) {
        assert_eq!(a.density, b.density);
    }
    // peeling respects the 1/h approximation bound
    if let (Some(opt), Some(peel)) = (ippv.subgraphs.first(), peel_densest(&g, 3)) {
        let bound = opt.density * Ratio::new(1, 3);
        assert!(peel.density >= bound, "peel below 1/h bound");
    }
}

#[test]
fn top1_is_the_global_cds() {
    // the densest subgraph of the whole graph is always the top-1 LhCDS
    let g = planted_communities(300, 3, &[(16, 0.95)], 99);
    let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
    let top = &res.subgraphs[0];
    // no subgraph can be denser: check against the exact densest
    // decomposition over the whole graph
    let cs = CliqueSet::enumerate(&g, 3);
    let all: Vec<u32> = g.vertices().collect();
    let (inst, _) = lhcds::core::compact::local_instance(&cs, &all);
    let (rho_star, _) = lhcds::core::InstanceSolver::new(inst.clone())
        .densest_decomposition()
        .unwrap();
    assert_eq!(top.density, rho_star);
}

/// The full IPPV decomposition (not just the top-k prefix) must be
/// identical whether h-cliques are enumerated serially or on 2/4/8
/// worker threads — the pipeline-level face of the serial-equivalence
/// contract in `crates/clique/tests/parallel.rs`.
#[test]
fn parallel_enumeration_yields_identical_decomposition() {
    let g = planted_communities(350, 3, &[(16, 0.9), (13, 0.85), (11, 0.9)], 2024);
    for h in [2usize, 3, 4] {
        let serial = top_k_lhcds(
            &g,
            h,
            usize::MAX,
            &IppvConfig {
                parallelism: Parallelism::serial(),
                ..IppvConfig::default()
            },
        );
        check_invariants(&g, h, &serial);
        for t in [2usize, 4, 8] {
            let cfg = IppvConfig {
                parallelism: Parallelism::threads(t),
                ..IppvConfig::default()
            };
            let par = top_k_lhcds(&g, h, usize::MAX, &cfg);
            assert_eq!(par.subgraphs, serial.subgraphs, "h={h} threads={t}");
            assert_eq!(par.stats.clique_count, serial.stats.clique_count);
        }
        // the auto policy (whatever it resolves to on this machine) is
        // equivalent too
        let auto = top_k_lhcds(
            &g,
            h,
            usize::MAX,
            &IppvConfig {
                parallelism: Parallelism::auto(),
                ..IppvConfig::default()
            },
        );
        assert_eq!(auto.subgraphs, serial.subgraphs, "h={h} auto");
    }
}

#[test]
fn determinism_across_runs() {
    let g = gnp(300, 0.06, 1234);
    let a = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
    let b = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
    assert_eq!(a.subgraphs, b.subgraphs);
}

#[test]
fn k_larger_than_available_returns_all() {
    let g = planted_communities(150, 2, &[(12, 0.95), (10, 0.95)], 3);
    let all = top_k_lhcds(&g, 3, usize::MAX, &IppvConfig::default());
    let top100 = top_k_lhcds(&g, 3, 100, &IppvConfig::default());
    assert_eq!(all.subgraphs, top100.subgraphs);
    // prefix property: top-k is a prefix of top-(k+1)
    for k in 1..all.subgraphs.len() {
        let partial = top_k_lhcds(&g, 3, k, &IppvConfig::default());
        assert_eq!(partial.subgraphs[..], all.subgraphs[..k]);
    }
}

#[test]
fn dense_sbm_stress() {
    // dense overlapping structure with many ties
    let (g, _) = sbm(&[25, 25], 0.5, 0.1, 21);
    for h in [2usize, 3, 4] {
        let res = top_k_lhcds(&g, h, 10, &IppvConfig::default());
        check_invariants(&g, h, &res);
        let basic = top_k_lhcds(
            &g,
            h,
            10,
            &IppvConfig {
                fast_verify: false,
                ..IppvConfig::default()
            },
        );
        assert_eq!(res.subgraphs, basic.subgraphs, "h={h}");
    }
}
