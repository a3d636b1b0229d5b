//! Exact work-counter contracts of the flow layer.
//!
//! The counters in [`lhcds_flow::stats`] are process-wide, so tests
//! asserting exact deltas must own their process: this file is a
//! dedicated integration-test binary, and its tests additionally
//! serialize through one mutex so the counters are quiet during every
//! measured region.

use std::sync::Mutex;

use lhcds_flow::{flow_stats, Dinic, ParametricNetwork, SolveMode};

static COUNTERS: Mutex<()> = Mutex::new(());

/// s=0, vertices {1, 2}, middle node 3, t=4 — a clique network in
/// miniature, with static unit capacities 1 and 2.
fn tiny() -> ParametricNetwork {
    let mut pn = ParametricNetwork::new(5, 0, 4);
    pn.add_static(1, 3, 1);
    pn.add_static(3, 2, 2);
    for (from, to) in [(0u32, 1u32), (0, 2), (1, 4), (2, 4)] {
        pn.add_parametric(from, to);
    }
    pn
}

#[test]
fn dinic_counts_networks_arcs_and_invocations() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    let mut d = Dinic::new(3);
    d.add_edge(0, 1, 4);
    d.add_edge(1, 2, 4);
    assert_eq!(d.max_flow(0, 2), 4);
    assert_eq!(d.max_flow(0, 2), 0, "a solved network has nothing left");
    let delta = flow_stats().since(&before);
    assert_eq!(delta.networks_built, 1);
    assert_eq!(delta.arcs_built, 2);
    assert_eq!(delta.max_flow_invocations, 2);
    assert_eq!(delta.warm_solves, 0, "plain Dinic is not parametric");
    assert_eq!(delta.retract_solves, 0);
    assert_eq!(delta.cold_solves(), 0);
}

#[test]
fn parametric_counts_builds_and_solve_modes() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    let mut pn = tiny();
    let scale = pn.scale_for(1);
    assert_eq!(pn.solve(scale, &[6, 6, 1, 1]), SolveMode::Cold);
    assert_eq!(pn.solve(scale, &[6, 6, 2, 2]), SolveMode::Warm);
    assert_eq!(pn.solve(scale, &[6, 6, 0, 0]), SolveMode::Retract);
    let d = flow_stats().since(&before);
    assert_eq!(d.networks_built, 1, "one Dinic for three solves");
    assert_eq!(d.arcs_built, 6);
    assert_eq!(d.max_flow_invocations, 3);
    assert_eq!(d.warm_solves, 1);
    assert_eq!(d.retract_solves, 1);
    // the first discard is the unavoidable build; the decrease retracts
    assert_eq!(d.first_build, 1);
    assert_eq!(d.infeasible_reset, 0, "retraction replaces every reset");
    assert!((d.warm_hit_rate() - 2.0 / 3.0).abs() < 1e-12);

    // a scale that is not a multiple of the retained one is the only
    // genuine reset left
    let before = flow_stats();
    assert_eq!(pn.solve(6, &[18, 18, 3, 3]), SolveMode::Warm);
    assert_eq!(pn.solve(4, &[12, 12, 2, 2]), SolveMode::Cold);
    let d = flow_stats().since(&before);
    assert_eq!(d.networks_built, 0);
    assert_eq!(d.infeasible_reset, 1);
    assert_eq!(d.first_build, 0);
}

/// Every `FlowStats` update site is a `fetch_*` atomic RMW, so the
/// accounting invariant `invocations = warm + retract + cold` holds
/// exactly even with solvers racing on the process-wide counters — no
/// lost updates.
#[test]
fn counters_hold_under_four_concurrent_solvers() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    std::thread::scope(|scope| {
        for w in 0..4i128 {
            scope.spawn(move || {
                // each worker owns a network; only the global counters
                // are shared
                let mut pn = tiny();
                let scale = pn.scale_for(1);
                pn.solve(scale, &[4 + w, 4, 1, 1]);
                pn.solve(scale, &[4 + w, 4, 2, 2]);
                pn.solve(scale, &[4 + w, 4, 1, 1]);
            });
        }
    });
    let d = flow_stats().since(&before);
    assert_eq!(d.networks_built, 4, "one parametric network per worker");
    assert_eq!(d.first_build, 4);
    assert_eq!(d.max_flow_invocations, 4 * 3);
    assert!(d.warm_solves >= 4, "each worker warm-solves at least once");
    assert_eq!(d.infeasible_reset, 0);
    assert_eq!(
        d.max_flow_invocations,
        d.warm_solves + d.retract_solves + d.cold_solves(),
        "the accounting invariant must survive 4 concurrent solvers"
    );
}
