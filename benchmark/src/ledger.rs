//! The traced run's per-layer ledger.
//!
//! Each layer is timed from outside, by wrapping the call into its
//! public entry point in a benchmark span: the propose and prune stages
//! are replayed through `CliqueSet::enumerate_with`,
//! `cp::seq_kclist_pp_threaded`, `decompose::tentative_gd` +
//! `stable::derive_stable_groups` and `prune::prune`, in the order the
//! pipeline runs them, and then `top_k_with_instances` runs the whole
//! pipeline on the same instance store. The verify phase has no public
//! entry point of its own, so its figures come from the program's own
//! `verify` span (and its `local-decompose` children) inside that call.
//! Counters are read by name — from the span tree's JSON, from the
//! `Debug` rendering of `IppvStats`, and from the serve protocol's
//! rendering of `FlowStats` — so a counter the program drops becomes a
//! missing metric here, not a build failure.

use std::collections::BTreeMap;

use lhcds::clique::CliqueSet;
use lhcds::core::bounds::initialize_bounds;
use lhcds::core::cp::seq_kclist_pp_threaded;
use lhcds::core::decompose::tentative_gd;
use lhcds::core::pipeline::{top_k_with_instances, IppvConfig, IppvResult};
use lhcds::core::prune::prune;
use lhcds::core::stable::derive_stable_groups;
use lhcds::graph::{CsrGraph, VertexId};
use lhcds::obs;
use lhcds::service::json::Json;
use lhcds::service::protocol::flow_stats_json;

/// One traced solve.
pub struct Solve {
    pub result: IppvResult,
    /// `<layer>.<metric>` → value, for this solve.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Enumeration plus pipeline wall time (the replayed stages
    /// excluded): the traced counterpart of one untraced solve.
    pub solve_ms: f64,
    /// The span tree, as the program exports it.
    pub tree: Json,
    /// Where the replayed stages disagree with the pipeline's own
    /// counters (a broken ledger, not a wrong answer).
    pub replay_mismatch: Option<String>,
}

/// Runs one traced solve of the top-`k` pipeline.
pub fn solve(g: &CsrGraph, h: usize, k: usize, cfg: &IppvConfig) -> Solve {
    obs::set_tracing(true);
    let flow_before = lhcds::core::flow_stats();
    let root = obs::span("solve");
    let cliques = {
        let _s = obs::span("clique");
        CliqueSet::enumerate_with(g, h, &cfg.parallelism)
    };
    let threads = cfg.parallelism.effective_threads(g.n());
    let mut state = {
        let _s = obs::span("core.cp");
        seq_kclist_pp_threaded(&cliques, cfg.cp_iterations, threads)
    };
    let (bounds, groups) = {
        let _s = obs::span("core.decompose");
        let mut bounds = initialize_bounds(&cliques, cfg.bound_slack);
        let decomp = tentative_gd(&cliques, &mut state);
        let stable = derive_stable_groups(&cliques, &state, &decomp, &mut bounds);
        (bounds, stable.groups.len())
    };
    let pruned = {
        let _s = obs::span("core.prune");
        // the pipeline's exact zero-clique rule, then Proposition 5
        let mut alive: Vec<bool> = (0..g.n())
            .map(|v| cliques.degree(v as VertexId) > 0)
            .collect();
        let idle = alive.iter().filter(|&&a| !a).count();
        idle + prune(g, &cliques, &bounds, &mut alive)
    };
    let flow_pipeline = lhcds::core::flow_stats();
    let result = {
        let _s = obs::span("core.pipeline");
        top_k_with_instances(g, &cliques, k, cfg)
    };
    let flow = lhcds::core::flow_stats().since(&flow_pipeline);
    drop(root);
    obs::set_tracing(false);
    let replay_flow = flow_pipeline.since(&flow_before);
    let trace = obs::take_trace().expect("tracing was on");
    let tree = Json::parse(&trace.to_json()).expect("the span tree exports valid JSON");

    let mut m = BTreeMap::new();
    let span = |path: &[&str]| find_path(&tree, path);
    let clique = span(&["solve", "clique"]);
    let pipeline = span(&["solve", "core.pipeline"]);
    let verify = span(&["solve", "core.pipeline", "verify"]);
    m.insert("clique.enumerate_ms", clique.map_or(0.0, dur_ms));
    m.insert("clique.instances", cliques.len() as f64);
    m.insert(
        "core.cp.cp_ms",
        span(&["solve", "core.cp"]).map_or(0.0, dur_ms),
    );
    m.insert(
        "core.decompose.decompose_ms",
        span(&["solve", "core.decompose"]).map_or(0.0, dur_ms),
    );
    m.insert("core.decompose.groups", groups as f64);
    m.insert(
        "core.prune.prune_ms",
        span(&["solve", "core.prune"]).map_or(0.0, dur_ms),
    );
    m.insert("core.prune.pruned_vertices", pruned as f64);

    let stats = format!("{:?}", result.stats);
    if let Some(v) = verify {
        m.insert("core.verify.verify_ms", dur_ms(v));
        m.insert("core.verify.self_ms", self_ms(v));
        let mut local = Vec::new();
        descendants(v, "local-decompose", &mut local);
        m.insert(
            "core.compact.local_decompose_ms",
            local.iter().map(|s| dur_ms(s)).sum(),
        );
        let counters = [
            ("verifications", "core.verify.verifications"),
            ("flow_verifications", "core.verify.flow_verifications"),
            ("local_decompositions", "core.compact.local_decompositions"),
            ("prefetched", "core.compact.prefetched"),
        ];
        for (counter_name, metric) in counters {
            if let Some(x) = counter(v, counter_name) {
                m.insert(metric, x as f64);
            }
        }
        if let Some(used) = counter(v, "local_decompositions") {
            m.insert(
                "core.compact.speculation_waste",
                local.len() as f64 - used as f64,
            );
        }
        if let (Some(all), Some(flow)) = (
            counter(v, "verifications"),
            counter(v, "flow_verifications"),
        ) {
            m.insert("core.verify.flow_share", flow as f64 / all.max(1) as f64);
        }
    }
    for (field, metric) in [
        ("shortcut_accepts", "core.verify.shortcut_accepts"),
        ("early_rejects", "core.verify.early_rejects"),
    ] {
        if let Some(x) = debug_field(&stats, field) {
            m.insert(metric, x);
        }
    }
    let flow = flow_stats_json(&flow);
    let flow_count = |name: &str| flow.get(name).and_then(Json::as_u64);
    for (field, metric) in [
        ("max_flow_invocations", "flow.max_flow_solves"),
        ("networks_built", "flow.networks_built"),
        ("arcs_built", "flow.arcs_built"),
    ] {
        if let Some(x) = flow_count(field) {
            m.insert(metric, x as f64);
        }
    }
    if let (Some(arcs), Some(nets)) = (flow_count("arcs_built"), flow_count("networks_built")) {
        m.insert("flow.arcs_per_network", arcs as f64 / nets.max(1) as f64);
    }

    let mut mismatch = Vec::new();
    let program = |phase: &str, name: &str| {
        span(&["solve", "core.pipeline", phase]).and_then(|s| counter(s, name))
    };
    if program("decompose", "groups").is_some_and(|x| x != groups as u64) {
        mismatch.push(format!("replayed {groups} stable groups"));
    }
    if program("prune", "pruned_vertices").is_some_and(|x| x != pruned as u64) {
        mismatch.push(format!("replayed {pruned} pruned vertices"));
    }
    if replay_flow.max_flow_invocations != 0 {
        mismatch.push("the replayed stages ran max-flow".into());
    }
    Solve {
        result,
        metrics: m,
        solve_ms: clique.map_or(0.0, dur_ms) + pipeline.map_or(0.0, dur_ms),
        tree,
        replay_mismatch: (!mismatch.is_empty()).then(|| mismatch.join("; ")),
    }
}

/// The first root named `path[0]`, then the first child named
/// `path[1]`, and so on.
fn find_path<'a>(tree: &'a Json, path: &[&str]) -> Option<&'a Json> {
    let mut level = tree.get("spans")?.as_array()?;
    let mut found = None;
    for name in path {
        let node = level
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))?;
        level = children(node);
        found = Some(node);
    }
    found
}

fn children(span: &Json) -> &[Json] {
    span.get("children").and_then(Json::as_array).unwrap_or(&[])
}

fn ns(span: &Json, key: &str) -> u64 {
    span.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn dur_ms(span: &Json) -> f64 {
    ns(span, "dur_ns") as f64 / 1e6
}

fn counter(span: &Json, name: &str) -> Option<u64> {
    span.get("counters")?.get(name)?.as_u64()
}

fn descendants<'a>(span: &'a Json, name: &str, out: &mut Vec<&'a Json>) {
    for c in children(span) {
        if c.get("name").and_then(Json::as_str) == Some(name) {
            out.push(c);
        }
        descendants(c, name, out);
    }
}

/// The span's duration minus the part of its interval its children
/// cover (children on worker threads may overlap; their union counts
/// once).
fn self_ms(span: &Json) -> f64 {
    let (start, dur) = (ns(span, "start_ns"), ns(span, "dur_ns"));
    let end = start + dur;
    let mut iv: Vec<(u64, u64)> = children(span)
        .iter()
        .map(|c| {
            let s = ns(c, "start_ns").clamp(start, end);
            (s, (s + ns(c, "dur_ns")).min(end))
        })
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0u64, start);
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    dur.saturating_sub(covered) as f64 / 1e6
}

/// Every span of the tree by its path (`solve/core.pipeline/verify`):
/// how many there were, their summed duration, and their summed self
/// time, in milliseconds. Written out at the end of a traced run.
pub fn layer_table(tree: &Json, out: &mut BTreeMap<String, (u64, f64, f64)>) {
    fn walk(span: &Json, prefix: &str, out: &mut BTreeMap<String, (u64, f64, f64)>) {
        let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        let row = out.entry(path.clone()).or_default();
        row.0 += 1;
        row.1 += dur_ms(span);
        row.2 += self_ms(span);
        for c in children(span) {
            walk(c, &path, out);
        }
    }
    for root in tree.get("spans").and_then(Json::as_array).unwrap_or(&[]) {
        walk(root, "", out);
    }
}

/// A numeric field of a `Debug`-rendered struct (`Name { a: 1, b: 2.5 }`).
fn debug_field(debug: &str, field: &str) -> Option<f64> {
    let at = debug.find(&format!(" {field}: "))? + field.len() + 3;
    let rest = &debug[at..];
    let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, dur: u64, children: Vec<Json>) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str("s".into())),
            ("start_ns".into(), Json::Int(start.into())),
            ("dur_ns".into(), Json::Int(dur.into())),
            ("children".into(), Json::Array(children)),
        ])
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let kids = vec![
            span(1_000_000, 2_000_000, vec![]),
            span(2_000_000, 2_000_000, vec![]),
            span(9_000_000, 5_000_000, vec![]),
        ];
        // children cover 1..4 ms and 9..10 ms of the 0..10 ms parent
        let parent = span(0, 10_000_000, kids);
        assert!((self_ms(&parent) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn debug_fields_are_read_by_name() {
        let d = "IppvStats { h: 3, verifications: 12, verify_ms: 1.5, early_rejects: 4 }";
        assert_eq!(debug_field(d, "verifications"), Some(12.0));
        assert_eq!(debug_field(d, "verify_ms"), Some(1.5));
        assert_eq!(debug_field(d, "early_rejects"), Some(4.0));
        assert_eq!(debug_field(d, "missing"), None);
    }
}
