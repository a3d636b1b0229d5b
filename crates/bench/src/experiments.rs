//! One runner per table/figure of the paper's evaluation (§6).
//!
//! Every runner prints a markdown section comparable to the paper's
//! artifact and returns it as a string (the `harness` binary prints
//! them). Dataset sizes are controlled
//! by [`ExpOptions::scale`]; the defaults keep the full sweep in a
//! minutes-scale budget (the paper's originals ran up to 48 h).

use crate::measure::{fmt_kb, peak_bytes, reset_peak, time_ms, BenchProvenance, MdTable};
use lhcds::baselines::{greedy_top_k_cds, FlowLds};
use lhcds::clique::{count_cliques, par_count_cliques, Parallelism};
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig, IppvResult};
use lhcds::data::datasets::by_abbr;
use lhcds::data::manifest::DatasetRegistry;
use lhcds::data::{polbooks_like, registry, Dataset, LabeledGraph};
use lhcds::graph::properties::{average_clustering, diameter, edge_density};
use lhcds::graph::{CsrGraph, InducedSubgraph};
use lhcds::patterns::{top_k_lhxpds, Pattern};
use lhcds::service::json::Json;

/// Experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Dataset scale factor in `(0, 1]` (background size multiplier).
    pub scale: f64,
    /// Worker threads for `table2real`'s |Ψ3|/|Ψ5| counts (`0` =
    /// serial). Results never depend on it — only wall time does.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 0.08,
            threads: 0,
        }
    }
}

fn dataset(abbr: &str, scale: f64) -> Dataset {
    by_abbr(abbr)
        .unwrap_or_else(|| panic!("unknown dataset {abbr}"))
        .generate_scaled(scale.min(1.0))
}

fn ippv_cfg(fast: bool) -> IppvConfig {
    IppvConfig {
        fast_verify: fast,
        ..IppvConfig::default()
    }
}

fn run(g: &CsrGraph, h: usize, k: usize, fast: bool) -> (IppvResult, f64) {
    let (res, ms) = time_ms(|| top_k_lhcds(g, h, k, &ippv_cfg(fast)));
    (res, ms)
}

/// All experiment ids, paper order.
pub fn all_experiments() -> &'static [&'static str] {
    &[
        "table2",
        "table2real",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "table3",
        "fig13",
        "table4",
        "fig14",
        "table5",
        "fig15",
        "fig16",
        "fig17",
        "ablation",
    ]
}

/// Dispatches an experiment by id.
pub fn run_experiment(name: &str, opts: &ExpOptions) -> Option<String> {
    Some(match name {
        "table2" => table2(opts),
        "table2real" => table2real(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "fig11" => fig11(opts),
        "fig12" => fig12(opts),
        "table3" => table3(opts),
        "fig13" => fig13(opts),
        "table4" => table4(opts),
        "fig14" => fig14(opts),
        "table5" => table5(opts),
        "fig15" => fig15(opts),
        "fig16" => fig16(opts),
        "fig17" => fig17(opts),
        "ablation" => ablation(opts),
        _ => return None,
    })
}

/// Table 2: dataset statistics (`|V|, |E|, |Ψ3|, |Ψ5|`) for the
/// synthetic stand-ins next to the paper's originals.
pub fn table2(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "abbr",
        "stand-in |V|",
        "stand-in |E|",
        "|Ψ3|",
        "|Ψ5|",
        "paper |V|",
        "paper |E|",
    ]);
    for spec in registry() {
        let d = spec.generate_scaled(opts.scale);
        let g = &d.graph;
        t.row([
            spec.abbr.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            count_cliques(g, 3).to_string(),
            count_cliques(g, 5).to_string(),
            spec.paper_n.to_string(),
            spec.paper_m.to_string(),
        ]);
    }
    format!("## Table 2 — dataset statistics\n\n{}", t.render())
}

/// Table 2 on *real* graphs: loads every locally-present dataset from
/// the `datasets.toml` manifest (see `lhcds-data::manifest`), measures
/// load time (through the binary cache), `|V|`, `|E|`, `|Ψ3|`, `|Ψ5|`,
/// and records the rows to `BENCH_table2.json`.
///
/// Hermetic by design: when no manifest exists or no dataset file has
/// been downloaded, the experiment reports a skip note and writes
/// nothing — CI never depends on network downloads.
pub fn table2real(opts: &ExpOptions) -> String {
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    table2real_on(
        opts,
        &DatasetRegistry::default_path(),
        std::path::Path::new(&dir),
    )
}

/// [`table2real`] with explicit manifest and output paths (unit tests
/// point these at fixtures and temp dirs).
fn table2real_on(
    opts: &ExpOptions,
    manifest: &std::path::Path,
    out_dir: &std::path::Path,
) -> String {
    let heading = "## Table 2 (real) — user-provided SNAP graphs";
    let parallelism = if opts.threads > 0 {
        Parallelism::threads(opts.threads)
    } else {
        Parallelism::serial()
    };
    if !manifest.is_file() {
        return format!(
            "{heading}\n\nskipped: no manifest at `{}` — run \
             `lhcds datasets fetch-instructions` to set one up.\n",
            manifest.display()
        );
    }
    let registry = match DatasetRegistry::load(manifest) {
        Ok(r) => r,
        Err(e) => return format!("{heading}\n\nskipped: {e}\n"),
    };

    let mut t = MdTable::new([
        "dataset",
        "|V|",
        "|E|",
        "|Ψ3|",
        "|Ψ5|",
        "load (ms)",
        "source",
    ]);
    let mut json_rows: Vec<Json> = Vec::new();
    let mut absent: Vec<&str> = Vec::new();
    for entry in registry.entries() {
        if !entry.is_present() {
            absent.push(&entry.name);
            continue;
        }
        let (loaded, ms) = time_ms(|| entry.load());
        let (g, status) = match loaded {
            Ok(ok) => ok,
            Err(e) => {
                t.row([
                    entry.name.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{ms:.1}"),
                    format!("FAILED: {e}"),
                ]);
                continue;
            }
        };
        let g = &g.graph;
        let psi3 = par_count_cliques(g, 3, &parallelism);
        let psi5 = par_count_cliques(g, 5, &parallelism);
        let source = match status {
            lhcds::data::CacheStatus::Hit => "cache",
            lhcds::data::CacheStatus::Built => "text (cache written)",
            lhcds::data::CacheStatus::Rebuilt => "text (cache rebuilt)",
            lhcds::data::CacheStatus::Uncached => "text (cache not writable)",
        };
        t.row([
            entry.name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            psi3.to_string(),
            psi5.to_string(),
            format!("{ms:.1}"),
            source.to_string(),
        ]);
        json_rows.push(Json::object([
            ("dataset", Json::Str(entry.name.clone())),
            ("n", Json::Int(g.n() as i128)),
            ("m", Json::Int(g.m() as i128)),
            ("psi3", Json::Int(psi3.into())),
            ("psi5", Json::Int(psi5.into())),
            ("load_us", Json::Int((ms * 1e3).round() as i128)),
            (
                "from_cache",
                Json::Bool(status == lhcds::data::CacheStatus::Hit),
            ),
        ]));
    }

    if t.is_empty() {
        return format!(
            "{heading}\n\nskipped: manifest `{}` lists {} dataset(s) but none are \
             downloaded — see `lhcds datasets fetch-instructions`.\n",
            manifest.display(),
            registry.entries().len()
        );
    }
    // Every present dataset failed to load: report, but never clobber a
    // previously recorded good baseline with an empty rows array.
    if json_rows.is_empty() {
        return format!(
            "{heading}\n\n{}\nno dataset loaded successfully — `BENCH_table2.json` left untouched\n",
            t.render()
        );
    }
    let json = Json::object(
        [("experiment", Json::Str("table2real".into()))]
            .into_iter()
            .chain(BenchProvenance::detect().json_pairs())
            .chain([("rows", Json::Array(json_rows))]),
    );
    let path = out_dir.join("BENCH_table2.json");
    let note = match std::fs::write(&path, json.render() + "\n") {
        Ok(()) => format!("recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    let absent_note = if absent.is_empty() {
        String::new()
    } else {
        format!("\nnot downloaded (skipped): {}\n", absent.join(", "))
    };
    format!("{heading}\n\n{}\n{note}\n{absent_note}", t.render())
}

/// Figure 9: basic vs fast verification runtime across `h ∈ {3,4,5}`
/// and `k ∈ {5,10,15,20}`.
pub fn fig9(opts: &ExpOptions) -> String {
    let panels = ["PC", "HA", "EP", "EN", "GW", "CM", "GQ", "AM"];
    let mut t = MdTable::new(["dataset", "h", "k", "basic (ms)", "fast (ms)", "speedup"]);
    for abbr in panels {
        let d = dataset(abbr, opts.scale);
        for h in [3usize, 4, 5] {
            for k in [5usize, 10, 15, 20] {
                let (res_b, ms_b) = run(&d.graph, h, k, false);
                let (res_f, ms_f) = run(&d.graph, h, k, true);
                assert_eq!(res_b.subgraphs, res_f.subgraphs, "verifiers disagree");
                t.row([
                    abbr.to_string(),
                    h.to_string(),
                    k.to_string(),
                    format!("{ms_b:.1}"),
                    format!("{ms_f:.1}"),
                    format!("{:.2}x", ms_b / ms_f.max(1e-9)),
                ]);
            }
        }
    }
    format!(
        "## Figure 9 — basic vs fast verification (paper: fast ≪ basic, gap grows with k)\n\n{}",
        t.render()
    )
}

/// Figure 10: per-stage runtime breakdown at `h = 3, k = 20`.
pub fn fig10(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "dataset",
        "variant",
        "SEQ-kClist++ (ms)",
        "TentativeGD+DeriveSG (ms)",
        "Prune (ms)",
        "Verify (ms)",
        "total (ms)",
    ]);
    for abbr in ["CM", "GQ", "PC", "HA"] {
        let d = dataset(abbr, opts.scale);
        for (label, fast) in [("basic", false), ("fast", true)] {
            let (res, ms) = run(&d.graph, 3, 20, fast);
            let s = &res.stats;
            t.row([
                abbr.to_string(),
                label.to_string(),
                format!("{:.1}", s.cp_ms),
                format!("{:.1}", s.decompose_ms),
                format!("{:.1}", s.prune_ms),
                format!("{:.1}", s.verify_ms),
                format!("{ms:.1}"),
            ]);
        }
    }
    format!(
        "## Figure 10 — stage breakdown, h=3 k=20 (paper: verification dominates; fast shrinks it)\n\n{}",
        t.render()
    )
}

/// Figure 11: runtime vs edge-sampling density (20%–100%), `h=3, k=5`.
pub fn fig11(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "density", "|E|", "|Ψ3|", "time (ms)"]);
    for abbr in ["AM", "EN", "EP", "DB"] {
        let d = dataset(abbr, opts.scale);
        for pct in [20u32, 40, 60, 80, 100] {
            let g = lhcds::data::gen::sample_edges(&d.graph, pct as f64 / 100.0, 7 + pct as u64);
            let psi = count_cliques(&g, 3);
            let (_, ms) = run(&g, 3, 5, true);
            t.row([
                abbr.to_string(),
                format!("{pct}%"),
                g.m().to_string(),
                psi.to_string(),
                format!("{ms:.1}"),
            ]);
        }
    }
    format!(
        "## Figure 11 — runtime vs graph density (paper: time grows with density/|Ψ3|)\n\n{}",
        t.render()
    )
}

/// Figure 12: IPPV at `h = 2` vs the LDSflow baseline, `k = 5`.
pub fn fig12(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "IPPV h=2 (ms)", "LDSflow (ms)", "speedup"]);
    for abbr in ["PP", "EP", "EN", "GW", "YT", "AM", "LF", "FX"] {
        let d = dataset(abbr, opts.scale);
        let (res_i, ms_i) = run(&d.graph, 2, 5, true);
        let (res_l, ms_l) = time_ms(|| FlowLds::ldsflow().top_k(&d.graph, 5));
        assert_eq!(res_i.subgraphs, res_l.subgraphs, "LDSflow disagrees");
        t.row([
            abbr.to_string(),
            format!("{ms_i:.1}"),
            format!("{ms_l:.1}"),
            format!("{:.2}x", ms_l / ms_i.max(1e-9)),
        ]);
    }
    format!(
        "## Figure 12 — IPPV (h=2) vs LDSflow (paper: IPPV faster everywhere)\n\n{}",
        t.render()
    )
}

/// Table 3: IPPV at `h = 3` vs the LTDS baseline, `k = 5`.
pub fn table3(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "IPPV h=3 (ms)", "LTDS (ms)", "speedup"]);
    for spec in registry() {
        let d = spec.generate_scaled(opts.scale);
        let (res_i, ms_i) = run(&d.graph, 3, 5, true);
        let (res_l, ms_l) = time_ms(|| FlowLds::ltds().top_k(&d.graph, 5));
        assert_eq!(res_i.subgraphs, res_l.subgraphs, "LTDS disagrees");
        t.row([
            spec.abbr.to_string(),
            format!("{ms_i:.1}"),
            format!("{ms_l:.1}"),
            format!("{:.2}x", ms_l / ms_i.max(1e-9)),
        ]);
    }
    format!(
        "## Table 3 — IPPV (h=3) vs LTDS (paper: 1.2x–87x speedups)\n\n{}",
        t.render()
    )
}

fn label_mix(lg: &LabeledGraph, verts: &[lhcds::graph::VertexId]) -> String {
    let mut counts = vec![0usize; lg.label_names.len()];
    for &v in verts {
        counts[lg.labels[v as usize] as usize] += 1;
    }
    lg.label_names
        .iter()
        .zip(&counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(n, c)| format!("{n}:{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Figure 13: polbooks-like case study — top-1/2 LhCDS for h = 2..5
/// with community-label composition.
pub fn fig13(_opts: &ExpOptions) -> String {
    let pb = polbooks_like();
    let mut t = MdTable::new(["h", "rank", "size", "density", "edge density", "labels"]);
    for h in 2usize..=5 {
        let res = top_k_lhcds(&pb.graph, h, 2, &IppvConfig::default());
        for (i, s) in res.subgraphs.iter().enumerate() {
            let sub = InducedSubgraph::new(&pb.graph, &s.vertices);
            t.row([
                h.to_string(),
                format!("top-{}", i + 1),
                s.vertices.len().to_string(),
                format!("{:.3}", s.density.to_f64()),
                format!("{:.3}", edge_density(&sub.graph)),
                label_mix(&pb, &s.vertices),
            ]);
        }
    }
    format!(
        "## Figure 13 — polbooks case study (paper: larger h → more clique-like, multi-category coverage)\n\n{}",
        t.render()
    )
}

/// Table 4: average edge density and diameter of the top-5 LhCDSes for
/// `h ∈ {2, 3, 5, 7, 9}`.
pub fn table4(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "h", "avg edge density", "avg diameter", "found"]);
    for abbr in ["PC", "HA", "PP", "CM", "EP", "WB", "GQ"] {
        let d = dataset(abbr, opts.scale);
        for h in [2usize, 3, 5, 7, 9] {
            let res = top_k_lhcds(&d.graph, h, 5, &IppvConfig::default());
            if res.subgraphs.is_empty() {
                t.row([
                    abbr.into(),
                    h.to_string(),
                    "-".into(),
                    "-".into(),
                    "0".into(),
                ]);
                continue;
            }
            let mut dens = 0.0;
            let mut diam = 0.0;
            let mut diam_n = 0usize;
            for s in &res.subgraphs {
                let sub = InducedSubgraph::new(&d.graph, &s.vertices);
                dens += edge_density(&sub.graph);
                if let Some(dm) = diameter(&sub.graph) {
                    diam += dm as f64;
                    diam_n += 1;
                }
            }
            let found = res.subgraphs.len();
            t.row([
                abbr.to_string(),
                h.to_string(),
                format!("{:.3}", dens / found as f64),
                if diam_n > 0 {
                    format!("{:.2}", diam / diam_n as f64)
                } else {
                    "-".into()
                },
                found.to_string(),
            ]);
        }
    }
    format!(
        "## Table 4 — edge density & diameter of top-5 (paper: density grows with h, diameter ≤ 2)\n\n{}",
        t.render()
    )
}

/// Figure 14: size vs h-clique density, IPPV vs Greedy, `h ∈ {3, 5}`.
pub fn fig14(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "dataset",
        "h",
        "algorithm",
        "rank",
        "size",
        "h-clique density",
    ]);
    for abbr in ["CM", "PC"] {
        let d = dataset(abbr, opts.scale);
        for h in [3usize, 5] {
            let ippv = top_k_lhcds(&d.graph, h, 5, &IppvConfig::default());
            for (i, s) in ippv.subgraphs.iter().enumerate() {
                t.row([
                    abbr.to_string(),
                    h.to_string(),
                    "IPPV".into(),
                    (i + 1).to_string(),
                    s.vertices.len().to_string(),
                    format!("{:.2}", s.density.to_f64()),
                ]);
            }
            let greedy = greedy_top_k_cds(&d.graph, h, 5, 20);
            for (i, s) in greedy.iter().enumerate() {
                t.row([
                    abbr.to_string(),
                    h.to_string(),
                    "Greedy".into(),
                    (i + 1).to_string(),
                    s.vertices.len().to_string(),
                    format!("{:.2}", s.density.to_f64()),
                ]);
            }
            // the headline invariant of Figure 14: top-1 agrees
            if let (Some(a), Some(b)) = (ippv.subgraphs.first(), greedy.first()) {
                assert_eq!(a.density, b.density, "top-1 CDS density must agree");
            }
        }
    }
    format!(
        "## Figure 14 — IPPV vs Greedy subgraph statistics (paper: top-1 identical, Greedy lacks locality)\n\n{}",
        t.render()
    )
}

/// Table 5: average clustering coefficient of all LhCDSes for varying h.
pub fn table5(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "h", "avg clustering coefficient", "found"]);
    for abbr in ["PC", "HA", "PP", "CM", "EP", "WB", "GQ"] {
        let d = dataset(abbr, opts.scale);
        for h in [2usize, 3, 5, 7, 9] {
            let res = top_k_lhcds(&d.graph, h, 5, &IppvConfig::default());
            if res.subgraphs.is_empty() {
                t.row([abbr.into(), h.to_string(), "-".into(), "0".into()]);
                continue;
            }
            let mut cc = 0.0;
            for s in &res.subgraphs {
                let sub = InducedSubgraph::new(&d.graph, &s.vertices);
                cc += average_clustering(&sub.graph);
            }
            t.row([
                abbr.to_string(),
                h.to_string(),
                format!("{:.3}", cc / res.subgraphs.len() as f64),
                res.subgraphs.len().to_string(),
            ]);
        }
    }
    format!(
        "## Table 5 — clustering coefficient vs h (paper: grows with h; h=2 clearly lowest)\n\n{}",
        t.render()
    )
}

/// Figure 15: peak memory, IPPV vs LTDS (`h = 3, k = 5`). Requires the
/// counting allocator (installed by the harness binary).
pub fn fig15(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "IPPV peak (KB)", "LTDS peak (KB)"]);
    for spec in registry() {
        let d = spec.generate_scaled(opts.scale);
        reset_peak();
        let _ = top_k_lhcds(&d.graph, 3, 5, &IppvConfig::default());
        let ippv_peak = peak_bytes();
        reset_peak();
        let _ = FlowLds::ltds().top_k(&d.graph, 5);
        let ltds_peak = peak_bytes();
        t.row([spec.abbr.to_string(), fmt_kb(ippv_peak), fmt_kb(ltds_peak)]);
    }
    format!(
        "## Figure 15 — peak memory (paper: verification dominates; IPPV ≤ LTDS)\n\n{}",
        t.render()
    )
}

/// Figure 16: runtime vs CP iteration count `T`.
pub fn fig16(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "T", "time (ms)"]);
    for abbr in ["EP", "HA", "CM", "PP", "EN", "GW", "AM"] {
        let d = dataset(abbr, opts.scale);
        for iters in [5usize, 10, 15, 20, 40, 60, 80, 100] {
            let cfg = IppvConfig {
                cp_iterations: iters,
                ..IppvConfig::default()
            };
            let (_, ms) = time_ms(|| top_k_lhcds(&d.graph, 3, 20, &cfg));
            t.row([abbr.to_string(), iters.to_string(), format!("{ms:.1}")]);
        }
    }
    format!(
        "## Figure 16 — runtime vs T (paper: optimum around T = 15–20)\n\n{}",
        t.render()
    )
}

/// Figure 17: polbooks-like L4xPDS case study over the six 4-vertex
/// patterns.
pub fn fig17(_opts: &ExpOptions) -> String {
    let pb = polbooks_like();
    let mut t = MdTable::new(["pattern", "rank", "size", "pattern density", "labels"]);
    for p in Pattern::all_four_vertex() {
        let res = top_k_lhxpds(&pb.graph, p, 2, &IppvConfig::default());
        if res.subgraphs.is_empty() {
            t.row([
                p.to_string(),
                "-".into(),
                "0".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        for (i, s) in res.subgraphs.iter().enumerate() {
            t.row([
                p.to_string(),
                format!("top-{}", i + 1),
                s.vertices.len().to_string(),
                format!("{:.2}", s.density.to_f64()),
                label_mix(&pb, &s.vertices),
            ]);
        }
    }
    format!(
        "## Figure 17 — L4xPDS case study (paper: patterns select different regions/sizes)\n\n{}",
        t.render()
    )
}

/// Ablation: verifier configurations on/off. Every configuration is
/// exact, so each must reproduce the default configuration's output.
pub fn ablation(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "dataset",
        "config",
        "time (ms)",
        "flow verifications",
        "shortcut accepts",
    ]);
    for abbr in ["HA", "CM", "EP"] {
        let d = dataset(abbr, opts.scale);
        let configs: [(&str, IppvConfig); 3] = [
            ("fast", IppvConfig::default()),
            (
                "basic",
                IppvConfig {
                    fast_verify: false,
                    ..IppvConfig::default()
                },
            ),
            (
                "no-cp (flow only)",
                IppvConfig {
                    use_cp: false,
                    use_prune: false,
                    fast_verify: false,
                    ..IppvConfig::default()
                },
            ),
        ];
        let reference = top_k_lhcds(&d.graph, 3, 10, &IppvConfig::default());
        for (name, cfg) in configs {
            let (res, ms) = time_ms(|| top_k_lhcds(&d.graph, 3, 10, &cfg));
            assert_eq!(
                res.subgraphs, reference.subgraphs,
                "{abbr}/{name}: results must not depend on configuration"
            );
            t.row([
                abbr.to_string(),
                name.to_string(),
                format!("{ms:.1}"),
                res.stats.flow_verifications.to_string(),
                res.stats.shortcut_accepts.to_string(),
            ]);
        }
    }
    format!(
        "## Ablation — verifier configurations (all exact; cost differs)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ExpOptions = ExpOptions {
        scale: 0.011,
        threads: 0,
    };

    #[test]
    fn experiment_registry_is_complete() {
        for name in all_experiments() {
            // dispatch must know every id (we don't run them all here —
            // that's the harness's job)
            assert!([
                "table2",
                "table2real",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "table3",
                "fig13",
                "table4",
                "fig14",
                "table5",
                "fig15",
                "fig16",
                "fig17",
                "ablation"
            ]
            .contains(name));
        }
        assert_eq!(all_experiments().len(), 15);
        assert!(run_experiment("nope", &TINY).is_none());
    }

    fn fixture() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/fixtures/figure2.txt")
    }

    #[test]
    fn table2real_skips_gracefully_without_files() {
        let dir = std::env::temp_dir().join("lhcds_bench_table2real_skip");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // no manifest at all
        let out = table2real_on(&TINY, &dir.join("none.toml"), &dir);
        assert!(out.contains("skipped: no manifest"));
        assert!(!dir.join("BENCH_table2.json").exists(), "hermetic skip");

        // manifest present, dataset files absent
        let manifest = dir.join("datasets.toml");
        std::fs::write(&manifest, "[gone]\npath = \"gone.txt\"\n").unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("none are"), "{out}");
        assert!(!dir.join("BENCH_table2.json").exists(), "hermetic skip");

        // unparseable manifest also skips rather than panics
        std::fs::write(&manifest, "[broken\n").unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("skipped:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Parses the recorded `BENCH_table2.json`; a file the shared
    /// parser rejects fails the test.
    fn read_table2_json(dir: &std::path::Path) -> (String, Json) {
        let text = std::fs::read_to_string(dir.join("BENCH_table2.json")).unwrap();
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        (text, json)
    }

    /// The single row of a one-dataset recording.
    fn only_row(json: &Json) -> &Json {
        let rows = json.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 1, "{json:?}");
        &rows[0]
    }

    #[test]
    fn table2real_escapes_dataset_names_in_json() {
        let dir = std::env::temp_dir().join("lhcds_bench_table2real_escape");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("g.txt"), "0 1\n1 2\n2 0\n").unwrap();
        let manifest = dir.join("datasets.toml");
        std::fs::write(&manifest, "[we\"ird]\npath = \"g.txt\"\n").unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("recorded"), "{out}");
        let (text, json) = read_table2_json(&dir);
        let row = only_row(&json);
        assert_eq!(
            row.get("dataset").and_then(Json::as_str),
            Some("we\"ird"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table2real_records_present_datasets() {
        let dir = std::env::temp_dir().join("lhcds_bench_table2real_run");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixture(), dir.join("figure2.txt")).unwrap();
        let manifest = dir.join("datasets.toml");
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 20\nedges = 39\n\
             [absent]\npath = \"absent.txt\"\n",
        )
        .unwrap();

        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("| figure2 "), "{out}");
        assert!(out.contains("not downloaded (skipped): absent"), "{out}");
        let (text, json) = read_table2_json(&dir);
        assert_eq!(
            json.get("experiment").and_then(Json::as_str),
            Some("table2real"),
            "{text}"
        );
        let host = json.get("host_parallelism").and_then(Json::as_u64);
        assert!(host.is_some_and(|p| p >= 1), "{text}");
        assert_eq!(
            json.get("recorded_on_single_cpu").and_then(Json::as_bool),
            Some(host == Some(1)),
            "{text}"
        );
        let row = only_row(&json);
        let figure2 = lhcds::data::figure2_graph();
        for (key, want) in [
            ("n", 20),
            ("m", 39),
            ("psi3", count_cliques(&figure2, 3)),
            ("psi5", count_cliques(&figure2, 5)),
        ] {
            assert_eq!(
                row.get(key).and_then(Json::as_u64),
                Some(want),
                "{key}: {text}"
            );
        }
        assert_eq!(row.get("dataset").and_then(Json::as_str), Some("figure2"));
        assert!(
            row.get("load_us").and_then(Json::as_u64).is_some(),
            "{text}"
        );
        assert_eq!(row.get("from_cache").and_then(Json::as_bool), Some(false));

        // second run goes through the cache (and exercises the parallel
        // counting path, which is byte-identical to serial)
        let out = table2real_on(&ExpOptions { threads: 2, ..TINY }, &manifest, &dir);
        assert!(out.contains("cache"), "{out}");
        let (text, json) = read_table2_json(&dir);
        let row = only_row(&json);
        assert_eq!(
            row.get("from_cache").and_then(Json::as_bool),
            Some(true),
            "{text}"
        );

        // when every present dataset fails, the recorded baseline must
        // NOT be clobbered with an empty rows array
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 9999\n",
        )
        .unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("FAILED"), "{out}");
        assert!(out.contains("left untouched"), "{out}");
        let (unchanged, _) = read_table2_json(&dir);
        assert_eq!(unchanged, text, "good baseline must survive a failed run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fig13_and_fig17_run_on_builtin_polbooks() {
        let out = fig13(&TINY);
        assert!(out.contains("top-1"));
        let out = fig17(&TINY);
        assert!(out.contains("4-clique"));
    }

    #[test]
    fn table2_lists_all_datasets() {
        let out = table2(&TINY);
        for abbr in ["HA", "GQ", "WT"] {
            assert!(out.contains(abbr), "missing {abbr}");
        }
    }

    #[test]
    fn ablation_runs_and_agrees() {
        let out = ablation(&TINY);
        // one asserted row per dataset (HA, CM, EP) for each config
        for config in ["fast", "basic", "no-cp (flow only)"] {
            let rows = out
                .lines()
                .filter(|l| l.split('|').nth(2).map(str::trim) == Some(config))
                .count();
            assert_eq!(rows, 3, "{config}");
        }
    }
}
