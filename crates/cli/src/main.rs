//! `lhcds` — command-line locally h-clique densest subgraph discovery.
//!
//! ```text
//! lhcds topk --graph edges.txt --h 3 --k 5 [--threads 4] [--basic] [--pattern 4-loop] [--trace] [--trace-out t.json] [--json]
//! lhcds topk --input web-Stanford.txt [--format snap|csv|auto] [--no-cache] --h 3 --k 5
//! lhcds stats --graph edges.txt [--h 3] [--pattern 4-loop] [--threads 4] [--trace] [--json]
//! lhcds gen --out edges.txt --preset HA [--scale 0.2]
//! lhcds datasets list | fetch-instructions | cache | verify [--manifest datasets.toml] [--name X]
//! lhcds serve --input FILE --h 3 [--pattern 4-loop,3-star] --port 4321 [--k-max 32] [--workers 4] [--slow-query-ms 100] [--max-request-bytes N] [--deadline-ms MS] [--max-pending N] [--fault-schedule SPEC]
//! lhcds query top-k --port 4321 (--h 3 | --pattern 4-loop) --k 5 [--retries N]
//! lhcds query metrics --port 4321
//! lhcds query health --port 4321
//! lhcds help
//! ```
//!
//! Two input paths:
//!
//! * `--graph FILE` — strict already-compact edge list (ids `0..n`,
//!   whitespace-separated, `#`/`%` comments), parsed on every run.
//! * `--input FILE` — the real-dataset ingest path: tolerant streaming
//!   parser (tabs/commas, CRLF, duplicate + reversed edges, self-loops,
//!   arbitrary non-contiguous 64-bit ids remapped to compact ranks)
//!   backed by a binary on-disk cache (`FILE.csrcache`), so large
//!   downloads are parsed once. Reported vertex ids are the *original*
//!   file ids.
//!
//! The `datasets` subcommand manages a `datasets.toml` manifest of real
//! graphs (the paper's Table 2 corpus): `list` shows local status,
//! `fetch-instructions` prints download pointers (or a template
//! manifest), `cache` pre-builds binary snapshots, and `verify`
//! validates loaded graphs against the recorded `|V|`/`|E|` — any
//! mismatch or load failure makes the process exit non-zero.
//!
//! The `serve` subcommand builds (or binary-loads, via the `LHCDSIDX`
//! cache) a decomposition index per requested `h` / `--pattern` name
//! (one daemon hosts one graph under several patterns side by side) and
//! serves the newline-delimited JSON query protocol on a TCP port until
//! SIGTERM / ctrl-c / a protocol `shutdown` request; `query` is the
//! matching one-shot client, naming the index by `--h`, `--pattern`, or
//! both. A served `top_k` answer is string-identical to
//! `lhcds topk --json` on the same graph — the serializer is shared.
//! The daemon's failure model is typed, never wrong: oversized request
//! lines get `too_large`, late answers `deadline_exceeded`, shed
//! connections `overloaded`, and caught request panics `internal`; a
//! per-pattern index-load failure leaves the daemon serving the
//! remaining patterns in a `degraded` state (visible via
//! `query health`) rather than refusing to start. `--fault-schedule`
//! arms the deterministic fault-injection registry (`lhcds-obs`) for
//! chaos testing; `query … --retries N` retries idempotent read ops
//! with capped exponential backoff and deterministic jitter.
//!
//! `--threads N` runs h-clique enumeration *and* the post-enumeration
//! speculative candidate-verification stream on `N` worker threads
//! (`0` = auto-detect); output is byte-identical to the serial default
//! at every `N`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lhcds::core::index::IndexConfig;
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds::data::cache::{cache_path_for, load_or_build, CacheStatus};
use lhcds::data::index_cache::{build_or_load_pattern_index_for, IndexBuildOptions};
use lhcds::data::ingest::{read_graph_file, EdgeListFormat};
use lhcds::data::manifest::{table2_template, DatasetRegistry};
use lhcds::graph::io::{read_edge_list_file, write_edge_list_file};
use lhcds::graph::CsrGraph;
use lhcds::patterns::{build_pattern_index, enumerate_pattern_with, top_k_lhxpds, Pattern};
use lhcds::service::json::Json;
use lhcds::service::protocol::{flow_stats_json, topk_result, AnswerRow, IndexRef, Request};
use lhcds::service::server::{ServeOptions, ServedIndexes, Server};
use lhcds::service::{client, signals};

mod args;
use args::Args;

fn main() -> ExitCode {
    ExitCode::from(run_to_exit_code(std::env::args().skip(1).collect()))
}

/// The whole CLI as a function of argv → process exit code (0 success,
/// 2 any failure — including `datasets verify` finding a `|V|`/`|E|`
/// mismatch). Tests assert on this directly.
fn run_to_exit_code(argv: Vec<String>) -> u8 {
    match run(argv) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    // `datasets` and `query` take their own action word, so they
    // re-parse the tail: `lhcds datasets list --manifest m.toml` →
    // action "list"; `lhcds query top-k --port 4321` → action "top-k".
    if argv.first().map(String::as_str) == Some("datasets") {
        let mut args = Args::parse(argv[1..].to_vec())?;
        return cmd_datasets(&mut args);
    }
    if argv.first().map(String::as_str) == Some("query") {
        let mut args = Args::parse(argv[1..].to_vec())?;
        return cmd_query(&mut args);
    }
    let mut args = Args::parse(argv)?;
    match args.command.as_str() {
        "topk" => cmd_topk(&mut args),
        "stats" => cmd_stats(&mut args),
        "gen" => cmd_gen(&mut args),
        "serve" => cmd_serve(&mut args),
        "help" | "" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' — try `lhcds help`")),
    }
}

fn print_help() {
    println!(
        "lhcds — exact locally h-clique densest subgraph discovery (IPPV)\n\n\
         USAGE:\n  lhcds topk  (--graph FILE | --input FILE [--format F] [--no-cache]) [--h H] [--k K] [--threads N] [--basic] [--pattern NAME] [--trace] [--trace-out FILE] [--quiet] [--json]\n  \
         lhcds stats (--graph FILE | --input FILE [--format F] [--no-cache]) [--h H] [--pattern NAME] [--threads N] [--trace] [--trace-out FILE] [--json]\n  \
         lhcds gen   --out FILE --preset ABBR [--scale F]\n  \
         lhcds datasets (list | fetch-instructions | cache | verify) [--manifest FILE] [--name NAME]\n  \
         lhcds serve (--graph FILE | --input FILE [--format F] [--no-cache]) [--h H[,H...]] [--pattern NAME[,NAME...]] [--k-max K]\n              \
         [--host ADDR] [--port N] [--workers N] [--threads N] [--slow-query-ms MS] [--port-file FILE] [--quiet]\n              \
         [--max-request-bytes N] [--deadline-ms MS] [--max-pending N] [--fault-schedule SPEC]\n  \
         lhcds query (top-k | density-of | membership | stats | metrics | health | ping | shutdown)\n              \
         [--host ADDR] --port N [--h H] [--pattern NAME] [--k K] [--vertex V] [--timeout SECS] [--retries N] [--retry-base-ms MS]\n\n\
         INPUT:    --graph = strict compact edge list; --input = tolerant SNAP ingest with a\n          \
         binary on-disk cache (FILE.csrcache) and original-id reporting\n\
         FORMATS:  auto (default), snap (whitespace), csv\n\
         PATTERNS: edge, triangle, 3-star, 4-path, c3-star, 4-loop, 2-triangle, {{h}}-clique\n\
         PRESETS:  Table 2 abbreviations (HA, GQ, PP, PC, WB, CM, EP, EN, GW, DB, AM, YT, LF, FX, WT)\n\
         THREADS:  worker threads for enumeration AND verification (0 = auto);\n          \
         results never depend on it\n\
         TRACE:    --trace renders a per-phase span tree on stderr; --trace-out FILE also\n          \
         writes the deterministic JSON trace; results never depend on it\n\
         SERVE:    indexes are persisted next to --input files (FILE.hH.lhcdsidx for cliques,\n          \
         FILE.<pattern>.lhcdsidx otherwise) and binary-loaded on restart; one daemon can host\n          \
         several patterns at once; answers match `lhcds topk --json` exactly\n\
         FAULTS:   errors are typed (too_large | deadline_exceeded | overloaded | internal) and\n          \
         the daemon survives all of them; an index that fails to load leaves the daemon\n          \
         `degraded` (see `query health`); --fault-schedule arms deterministic injection,\n          \
         e.g. seed=42,worker_panic=@1,socket_read=0.25; --retries N retries idempotent\n          \
         read ops on connect/timeout/overloaded with capped backoff + deterministic jitter"
    );
}

/// A graph loaded from either input path, with the id mapping needed to
/// report vertices in the caller's namespace.
struct LoadedGraph {
    graph: CsrGraph,
    /// rank → original file id; `None` when ids were already compact
    /// (`--graph` path, or an identity remap).
    original_ids: Option<Vec<u64>>,
    note: String,
}

impl LoadedGraph {
    fn display_id(&self, v: lhcds::graph::VertexId) -> u64 {
        match &self.original_ids {
            Some(ids) => ids[v as usize],
            None => u64::from(v),
        }
    }

    fn display_ids(&self, vs: &[lhcds::graph::VertexId]) -> Vec<u64> {
        vs.iter().map(|&v| self.display_id(v)).collect()
    }
}

/// The shared input options (`--graph` / `--input` / `--format` /
/// `--no-cache`), consumed and validated *before* `args.finish()` so a
/// mistyped flag is reported without first parsing a multi-gigabyte
/// file. Call [`InputSpec::load`] after `finish()` succeeds.
enum InputSpec {
    /// `--graph FILE`: strict compact edge list, parsed every run.
    Strict(String),
    /// `--input FILE`: tolerant ingest path with optional cache bypass.
    Ingest {
        path: String,
        format: EdgeListFormat,
        no_cache: bool,
    },
}

impl InputSpec {
    fn take(args: &mut Args) -> Result<InputSpec, String> {
        let graph_path = args.get("graph");
        let input_path = args.get("input");
        let format = args.get("format");
        let no_cache = args.flag("no-cache");
        match (graph_path, input_path) {
            (Some(_), Some(_)) => Err("--graph and --input are mutually exclusive".into()),
            (None, None) => Err("missing input: pass --graph FILE or --input FILE".into()),
            (Some(path), None) => {
                if format.is_some() || no_cache {
                    return Err("--format/--no-cache only apply to --input".into());
                }
                Ok(InputSpec::Strict(path))
            }
            (None, Some(path)) => Ok(InputSpec::Ingest {
                path,
                format: match format {
                    Some(name) => EdgeListFormat::parse(&name)?,
                    None => EdgeListFormat::Auto,
                },
                no_cache,
            }),
        }
    }

    fn load(self) -> Result<LoadedGraph, String> {
        match self {
            InputSpec::Strict(path) => {
                let g = read_edge_list_file(&path).map_err(|e| e.to_string())?;
                Ok(LoadedGraph {
                    graph: g,
                    original_ids: None,
                    note: format!("loaded {path}"),
                })
            }
            InputSpec::Ingest {
                path,
                format,
                no_cache,
            } => {
                let (remapped, how) = if no_cache {
                    let g = read_graph_file(&path, format).map_err(|e| e.to_string())?;
                    (g, "parsed, cache bypassed".to_string())
                } else {
                    let src = PathBuf::from(&path);
                    let (g, status) =
                        load_or_build(&src, format, None).map_err(|e| e.to_string())?;
                    let cache = cache_path_for(&src);
                    let how = match status {
                        CacheStatus::Hit => format!("cache hit: {}", cache.display()),
                        CacheStatus::Built => {
                            format!("parsed, cache written: {}", cache.display())
                        }
                        CacheStatus::Rebuilt => {
                            format!("stale cache rebuilt: {}", cache.display())
                        }
                        CacheStatus::Uncached => {
                            format!("parsed; cache not writable at {}", cache.display())
                        }
                    };
                    (g, how)
                };
                let identity = remapped.is_identity();
                Ok(LoadedGraph {
                    graph: remapped.graph,
                    original_ids: (!identity).then_some(remapped.original_ids),
                    note: format!("loaded {path} ({how})"),
                })
            }
        }
    }
}

/// The `--trace` / `--trace-out FILE` rider flags shared by `topk` and
/// `stats`: `--trace-out` implies `--trace`.
fn take_trace_flags(args: &mut Args) -> (bool, Option<PathBuf>) {
    let out = args.get("trace-out").map(PathBuf::from);
    let on = args.flag("trace") || out.is_some();
    (on, out)
}

/// Disables tracing, drains the trace, renders the span tree to stderr
/// (unless `quiet`), and writes the deterministic JSON export to `out`
/// when given. Never touches stdout: results stay byte-identical with
/// tracing on or off.
fn report_trace(quiet: bool, out: Option<&PathBuf>) -> Result<(), String> {
    lhcds::obs::set_tracing(false);
    let Some(trace) = lhcds::obs::take_trace() else {
        return Ok(());
    };
    if !quiet {
        eprint!("{}", trace.render());
    }
    if let Some(path) = out {
        let mut json = trace.to_json();
        json.push('\n');
        std::fs::write(path, json)
            .map_err(|e| format!("cannot write --trace-out {}: {e}", path.display()))?;
    }
    Ok(())
}

fn parse_pattern(name: &str) -> Result<Pattern, String> {
    Pattern::parse(name).ok_or_else(|| {
        format!(
            "unknown pattern '{name}' — try edge, triangle, 3-star, 4-path, c3-star, \
             4-loop, 2-triangle, 4-clique, or {{h}}-clique"
        )
    })
}

/// Parses the serve subcommand's `--pattern` list
/// (`"4-loop"` or `"4-loop,2-triangle"`).
fn parse_pattern_list(spec: &str) -> Result<Vec<Pattern>, String> {
    let mut ps = Vec::new();
    for part in spec.split(',') {
        let p = parse_pattern(part.trim())?;
        if !ps.contains(&p) {
            ps.push(p);
        }
    }
    Ok(ps)
}

fn cmd_topk(args: &mut Args) -> Result<(), String> {
    let k = args.get_parsed("k")?.unwrap_or(5usize);
    let h = args.get_parsed("h")?.unwrap_or(3usize);
    let basic = args.flag("basic");
    let quiet = args.flag("quiet");
    let json = args.flag("json");
    let pattern = args.get("pattern");
    let (trace, trace_out) = take_trace_flags(args);
    let parallelism = args.parallelism()?;
    let input = InputSpec::take(args)?;
    args.finish()?;
    let loaded = input.load()?;

    let g = &loaded.graph;
    if !quiet {
        eprintln!("{}: {} vertices, {} edges", loaded.note, g.n(), g.m());
    }
    let cfg = IppvConfig {
        fast_verify: !basic,
        parallelism,
        ..IppvConfig::default()
    };

    if trace {
        lhcds::obs::set_tracing(true);
    }
    let flow_before = lhcds::core::flow_stats();
    // the root span covers the solve only — load and output stay
    // outside, so the phase children account for (almost) all of it
    let root = lhcds::obs::span("topk");
    let (subgraphs, stats, eff_h) = if let Some(pname) = pattern {
        let p = parse_pattern(&pname)?;
        let res = top_k_lhxpds(g, p, k, &cfg);
        // in pattern mode "h" is the pattern arity — what the density
        // denominator’s instance size is
        (res.subgraphs, res.stats, p.arity())
    } else {
        if h < 2 {
            return Err("--h must be at least 2".into());
        }
        let res = top_k_lhcds(g, h, k, &cfg);
        (res.subgraphs, res.stats, h)
    };
    let flow = lhcds::core::flow_stats().since(&flow_before);
    if trace {
        // the flow-layer delta rides on the root span, folding the old
        // stderr flow summary into the one rendered report
        root.counter("networks_built", flow.networks_built);
        root.counter("max_flow_solves", flow.max_flow_invocations);
        root.counter("warm_solves", flow.warm_solves);
        root.counter("retract_solves", flow.retract_solves);
        root.counter("cold_solves", flow.cold_solves());
        root.counter("arcs_built", flow.arcs_built);
    }
    drop(root);

    if json {
        // Machine-readable output, in original file ids — the exact
        // result object the serve protocol returns for the same query
        // (shared serializer; CI diffs the two).
        let ids = |v: lhcds::graph::VertexId| loaded.display_id(v);
        let result = topk_result(
            eff_h,
            k,
            subgraphs.iter().map(|s| AnswerRow {
                vertices: &s.vertices,
                density: s.density,
                clique_count: s.clique_count,
            }),
            &ids,
        );
        println!("{}", result.render());
    } else {
        for (i, s) in subgraphs.iter().enumerate() {
            println!(
                "top-{rank}\tdensity={d}\tsize={n}\tinstances={c}\tvertices={v:?}",
                rank = i + 1,
                d = s.density,
                n = s.vertices.len(),
                c = s.clique_count,
                v = loaded.display_ids(&s.vertices),
            );
        }
    }
    if trace {
        // one report path: the span tree (with the flow counters on
        // the root) replaces the ad-hoc summary lines below
        report_trace(quiet, trace_out.as_ref())?;
    } else if !quiet {
        eprintln!(
            "{} instances enumerated | {} verifications ({} flow, {} memo hits, {} shortcut) | {} vertices pruned",
            stats.clique_count,
            stats.verifications,
            stats.flow_verifications,
            stats.memo_hits,
            stats.shortcut_accepts,
            stats.pruned_vertices,
        );
        eprintln!(
            "flow: {} networks built | {} max-flow solves ({} warm / {} retract / {} cold, {:.0}% warm) | {} arcs",
            flow.networks_built,
            flow.max_flow_invocations,
            flow.warm_solves,
            flow.retract_solves,
            flow.cold_solves(),
            flow.warm_hit_rate() * 100.0,
            flow.arcs_built,
        );
    }
    Ok(())
}

fn cmd_stats(args: &mut Args) -> Result<(), String> {
    let h = args.get_parsed("h")?.unwrap_or(3usize);
    let json = args.flag("json");
    let pattern = args.get("pattern").map(|n| parse_pattern(&n)).transpose()?;
    let (trace, trace_out) = take_trace_flags(args);
    let parallelism = args.parallelism()?;
    let input = InputSpec::take(args)?;
    args.finish()?;
    let loaded = input.load()?;
    let g = &loaded.graph;
    if trace {
        lhcds::obs::set_tracing(true);
    }
    let root = lhcds::obs::span("stats");
    // `--pattern` rides along: the instance count of the named pattern
    // (the |Psi| the LhxPDS pipeline would mine), enumerated with the
    // same `--threads` setting as everything else.
    let pattern_instances =
        pattern.map(|p| (p, enumerate_pattern_with(g, p, &parallelism).len() as u64));
    if !json {
        eprintln!("{}", loaded.note);
    }
    let deg = lhcds::graph::core_decomp::degeneracy_order(g);
    let clique_no = lhcds::clique::clique_number(g);
    let mut psi: Vec<(usize, u64)> = Vec::new();
    for hh in [3usize, h.max(3)] {
        psi.push((hh, lhcds::clique::par_count_cliques(g, hh, &parallelism)));
        if hh == h.max(3) {
            break;
        }
    }
    drop(root);
    if trace {
        report_trace(false, trace_out.as_ref())?;
    }
    // Process-total flow counters, rendered by the same serializer the
    // daemon's `stats` op uses — batch and served telemetry are
    // string-identical. Graph statistics never run max-flow, so on this
    // path every counter stays at its process-start value (zero for a
    // one-shot CLI invocation): the flow-free contract, visible.
    let flow = lhcds::core::flow_stats();
    if json {
        let mut pairs = vec![
            ("vertices", Json::Int(g.n() as i128)),
            ("edges", Json::Int(g.m() as i128)),
            ("max_degree", Json::Int(g.max_degree() as i128)),
            ("degeneracy", Json::Int(deg.degeneracy as i128)),
            ("clique_number", Json::Int(clique_no as i128)),
            (
                "clique_counts",
                Json::Array(
                    psi.iter()
                        .map(|&(hh, c)| {
                            Json::Object(vec![
                                ("h".into(), Json::Int(hh as i128)),
                                ("count".into(), Json::Int(c as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some((p, count)) = &pattern_instances {
            pairs.push(("pattern", Json::Str(p.to_string())));
            pairs.push(("pattern_instances", Json::Int(*count as i128)));
        }
        pairs.push(("flow", flow_stats_json(&flow)));
        let result = Json::object(pairs);
        println!("{}", result.render());
        return Ok(());
    }
    println!("vertices:    {}", g.n());
    println!("edges:       {}", g.m());
    println!("max degree:  {}", g.max_degree());
    println!("degeneracy:  {}", deg.degeneracy);
    println!("clique no.:  {}", clique_no);
    for (hh, c) in psi {
        println!("|Psi_{hh}|:     {c}");
    }
    if let Some((p, count)) = &pattern_instances {
        println!("pattern:     {p} ({count} instances)");
    }
    println!(
        "flow:        {} networks, {} solves ({} warm / {} retract / {} cold)",
        flow.networks_built,
        flow.max_flow_invocations,
        flow.warm_solves,
        flow.retract_solves,
        flow.cold_solves(),
    );
    Ok(())
}

/// Parses the serve subcommand's `--h` list (`"3"` or `"2,3,4"`).
fn parse_h_list(spec: &str) -> Result<Vec<usize>, String> {
    let mut hs = Vec::new();
    for part in spec.split(',') {
        let h: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("invalid clique size '{part}' in --h"))?;
        if h < 2 {
            return Err("--h entries must be at least 2".into());
        }
        if !hs.contains(&h) {
            hs.push(h);
        }
    }
    Ok(hs)
}

/// `lhcds serve` — build/load one decomposition index per requested h
/// and/or pattern, and answer protocol queries until shutdown.
fn cmd_serve(args: &mut Args) -> Result<(), String> {
    let h_spec = args.get("h");
    let pattern_spec = args.get("pattern");
    // `--h 2,3` and `--pattern 4-loop,2-triangle` compose: the daemon
    // hosts one index per entry. With only `--pattern`, no implicit
    // h=3 index is added; with neither, h=3 is the default.
    let hs = match &h_spec {
        Some(spec) => parse_h_list(spec)?,
        None if pattern_spec.is_some() => Vec::new(),
        None => vec![3],
    };
    let mut patterns: Vec<Pattern> = hs.iter().map(|&h| Pattern::Clique(h)).collect();
    if let Some(spec) = &pattern_spec {
        for p in parse_pattern_list(spec)? {
            if !patterns.iter().any(|q| q.key() == p.key()) {
                patterns.push(p);
            }
        }
    }
    let k_max: usize = args.get_parsed("k-max")?.unwrap_or(32);
    if k_max == 0 {
        return Err("--k-max must be at least 1".into());
    }
    let host = args.get("host").unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = args.get_parsed("port")?.unwrap_or(0);
    let workers: usize = args.get_parsed("workers")?.unwrap_or(4);
    let slow_query_ms: u64 = args
        .get_parsed("slow-query-ms")?
        .unwrap_or(ServeOptions::default().slow_query_ms);
    let max_request_bytes: usize = args
        .get_parsed("max-request-bytes")?
        .unwrap_or(ServeOptions::default().max_request_bytes);
    let request_deadline_ms: u64 = args
        .get_parsed("deadline-ms")?
        .unwrap_or(ServeOptions::default().request_deadline_ms);
    let max_pending: usize = args
        .get_parsed("max-pending")?
        .unwrap_or(ServeOptions::default().max_pending);
    let fault_schedule = args.get("fault-schedule");
    let port_file = args.get("port-file").map(PathBuf::from);
    let quiet = args.flag("quiet");
    let parallelism = args.parallelism()?;
    let input = InputSpec::take(args)?;
    args.finish()?;

    // Arm the deterministic fault-injection registry before any index
    // is loaded, so `index_load` / `cache_corrupt` rules can fire
    // during startup too — chaos tests depend on that ordering.
    if let Some(spec) = &fault_schedule {
        let schedule = lhcds::obs::fault::FaultSchedule::parse(spec)
            .map_err(|e| format!("bad --fault-schedule: {e}"))?;
        lhcds::obs::fault::arm(schedule);
        eprintln!("fault injection armed: {spec}");
    }

    let index_config = IndexConfig {
        k_max,
        ippv: IppvConfig {
            parallelism,
            ..IppvConfig::default()
        },
    };
    let note = |msg: &str| {
        if !quiet {
            eprintln!("{msg}");
        }
    };

    // Build or binary-load one index per h / pattern. Only the
    // ingest-with-cache path persists (`FILE.<key>.lhcdsidx`, keyed on
    // the source stamp + pattern key); strict/--no-cache inputs build
    // in memory.
    let served = match input {
        InputSpec::Ingest {
            ref path,
            format,
            no_cache: false,
        } => {
            let src = PathBuf::from(path);
            let opts = IndexBuildOptions {
                config: index_config.clone(),
                cache_path: None,
                no_graph_cache: false,
            };
            // load the (possibly multi-gigabyte) graph exactly once;
            // each pattern then only reads/builds its own index snapshot
            let (remapped, graph_status) =
                load_or_build(&src, format, None).map_err(|e| e.to_string())?;
            note(&format!(
                "graph: {} vertices, {} edges ({graph_status:?})",
                remapped.graph.n(),
                remapped.graph.m()
            ));
            let mut served = ServedIndexes {
                name: path.clone(),
                n: remapped.graph.n(),
                m: remapped.graph.m(),
                original_ids: (!remapped.is_identity()).then_some(remapped.original_ids.clone()),
                indexes: std::collections::BTreeMap::new(),
                failed: std::collections::BTreeMap::new(),
            };
            // A pattern whose index fails to load/build does not kill
            // the daemon: it is recorded as failed (the `health` op
            // reports `degraded`) and the remaining patterns serve.
            for &p in &patterns {
                match build_or_load_pattern_index_for(&src, &remapped, p, &opts) {
                    Ok((idx, status)) => {
                        note(&format!(
                            "index {}: {} subgraphs ({status:?})",
                            p.key(),
                            idx.len()
                        ));
                        served.insert(idx);
                    }
                    Err(e) => {
                        eprintln!("index {}: load failed ({e}); serving degraded", p.key());
                        served.failed.insert(p.key(), e.to_string());
                    }
                }
            }
            if served.indexes.is_empty() {
                return Err("no index loaded successfully; refusing to serve".into());
            }
            served
        }
        other => {
            let name = match &other {
                InputSpec::Strict(p) | InputSpec::Ingest { path: p, .. } => p.clone(),
            };
            let loaded = other.load()?;
            let mut served = ServedIndexes {
                name,
                n: loaded.graph.n(),
                m: loaded.graph.m(),
                original_ids: loaded.original_ids,
                indexes: std::collections::BTreeMap::new(),
                failed: std::collections::BTreeMap::new(),
            };
            for &p in &patterns {
                let idx = build_pattern_index(&loaded.graph, p, &index_config);
                note(&format!(
                    "index {}: {} subgraphs (built in memory)",
                    p.key(),
                    idx.len()
                ));
                served.insert(idx);
            }
            served
        }
    };
    let served_keys: Vec<String> = served.indexes.keys().cloned().collect();

    let opts = ServeOptions {
        workers,
        slow_query_ms,
        max_request_bytes,
        request_deadline_ms,
        max_pending,
        ..ServeOptions::default()
    };
    let server = Server::bind((host.as_str(), port), served, &opts)
        .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
    let addr = server.local_addr();
    // stdout carries exactly one machine-parseable line; everything
    // else goes to stderr
    println!(
        "lhcds-serve listening on {addr} (patterns={served_keys:?}, k_max={k_max}, workers={workers})"
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if let Some(pf) = &port_file {
        std::fs::write(pf, format!("{addr}\n"))
            .map_err(|e| format!("cannot write --port-file {}: {e}", pf.display()))?;
    }

    // SIGTERM/ctrl-c → graceful stop; the protocol `shutdown` op flips
    // the same server-side flag.
    signals::install();
    let handle = server.shutdown_handle();
    while !signals::requested() && !handle.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    note("shutting down: draining in-flight requests…");
    server.join();
    note("shutdown complete");
    if let Some(pf) = &port_file {
        std::fs::remove_file(pf).ok();
    }
    Ok(())
}

/// `lhcds query <action>` — one-shot protocol client.
fn cmd_query(args: &mut Args) -> Result<(), String> {
    let action = args.command.clone();
    let host = args.get("host").unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = args
        .get_parsed("port")?
        .ok_or_else(|| "missing --port (the port `lhcds serve` printed)".to_string())?;
    let timeout: u64 = args.get_parsed("timeout")?.unwrap_or(10);
    let h: Option<usize> = args.get_parsed("h")?;
    let pattern = args.get("pattern");
    let k: usize = args.get_parsed("k")?.unwrap_or(5);
    let vertex: Option<u64> = args.get_parsed("vertex")?;
    let retries: u32 = args.get_parsed("retries")?.unwrap_or(0);
    let retry_base_ms: u64 = args.get_parsed("retry-base-ms")?.unwrap_or(10);
    args.finish()?;

    // `--h`/`--pattern` compose into one IndexRef; the daemon resolves
    // both to the same canonical pattern key. With neither flag the
    // historical default (h = 3) applies.
    let index = match (h, &pattern) {
        (None, None) => IndexRef::clique(3),
        (Some(h), None) => IndexRef::clique(h),
        (h, Some(name)) => IndexRef {
            h,
            pattern: Some(name.clone()),
        },
    };
    let need_vertex = || vertex.ok_or_else(|| format!("'{action}' needs --vertex"));
    let request = match action.as_str() {
        "top-k" => Request::TopK { index, k },
        "density-of" => Request::DensityOf {
            index,
            vertex: need_vertex()?,
        },
        "membership" => Request::Membership {
            index,
            vertex: need_vertex()?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "health" => Request::Health,
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "" => return Err(
            "missing query action: top-k | density-of | membership | stats | metrics | health | ping | shutdown"
                .into(),
        ),
        other => {
            return Err(format!(
                "unknown query action '{other}' — try top-k | density-of | membership | stats | metrics | health | ping | shutdown"
            ))
        }
    };
    let addr = format!("{host}:{port}");
    // `--retries N` wraps the round trip in the capped-backoff policy;
    // only idempotent read ops are ever retried, and only on
    // connect/timeout/`overloaded` — a shutdown is never resent.
    let policy = lhcds::service::RetryPolicy {
        max_attempts: retries.saturating_add(1),
        base_delay: Duration::from_millis(retry_base_ms.max(1)),
        ..lhcds::service::RetryPolicy::default()
    };
    let result = client::query_with_retry(
        &addr,
        &request,
        Duration::from_secs(timeout.max(1)),
        &policy,
    )
    .map_err(|e| e.to_string())?;
    // `metrics` carries a text exposition inside the JSON result —
    // print it raw so the output can be scraped/curled directly
    match request {
        Request::Metrics => match result.get("exposition").and_then(Json::as_str) {
            Some(text) => print!("{text}"),
            None => println!("{}", result.render()),
        },
        _ => println!("{}", result.render()),
    }
    Ok(())
}

/// `lhcds datasets <action>` — manage the real-dataset manifest.
fn cmd_datasets(args: &mut Args) -> Result<(), String> {
    let action = args.command.clone();
    let manifest_path = args
        .get("manifest")
        .map(PathBuf::from)
        .unwrap_or_else(DatasetRegistry::default_path);
    let name = args.get("name");
    args.finish()?;

    // `fetch-instructions` is the one action that works without a
    // manifest: it prints a template to get the user started.
    if action == "fetch-instructions" && !manifest_path.is_file() {
        println!(
            "# No manifest at {} — start from this template:\n",
            manifest_path.display()
        );
        println!("{}", table2_template());
        return Ok(());
    }
    let registry = DatasetRegistry::load(&manifest_path)?;
    let selected: Vec<_> = match &name {
        Some(n) => vec![registry
            .get(n)
            .ok_or_else(|| format!("no dataset '{n}' in {}", manifest_path.display()))?],
        None => registry.entries().iter().collect(),
    };

    match action.as_str() {
        "list" => {
            let header = ["name", "abbr", "|V| expected", "|E| expected", "status"];
            println!(
                "{:<24} {:<6} {:>12} {:>12}  {}",
                header[0], header[1], header[2], header[3], header[4]
            );
            for e in selected {
                let status = if !e.is_present() {
                    "missing".to_string()
                } else if cache_path_for(&e.path).is_file() {
                    "present, cached".to_string()
                } else {
                    "present, no cache".to_string()
                };
                let opt = |v: Option<u64>| v.map_or("-".into(), |x| x.to_string());
                println!(
                    "{:<24} {:<6} {:>12} {:>12}  {}",
                    e.name,
                    e.abbr.as_deref().unwrap_or("-"),
                    opt(e.vertices),
                    opt(e.edges),
                    status
                );
            }
            Ok(())
        }
        "fetch-instructions" => {
            for e in selected {
                let status = if e.is_present() {
                    "already present"
                } else {
                    "missing"
                };
                println!("{} ({status})", e.name);
                println!(
                    "  download page: {}",
                    e.url.as_deref().unwrap_or("(no url recorded)")
                );
                println!("  expected path: {}", e.path.display());
            }
            println!("\nAfter downloading, run `lhcds datasets verify` to validate and cache.");
            Ok(())
        }
        "cache" | "verify" => {
            let mut failures = 0usize;
            let mut skipped = 0usize;
            for e in &selected {
                if !e.is_present() {
                    // explicit --name must fail hard; bulk runs just report
                    if name.is_some() {
                        return Err(format!(
                            "dataset '{}': file not found at {}",
                            e.name,
                            e.path.display()
                        ));
                    }
                    println!("{:<24} skipped (file missing)", e.name);
                    skipped += 1;
                    continue;
                }
                match e.load() {
                    Ok((g, status)) => println!(
                        "{:<24} ok: {} vertices, {} edges ({})",
                        e.name,
                        g.graph.n(),
                        g.graph.m(),
                        match status {
                            CacheStatus::Hit => "cache hit",
                            CacheStatus::Built => "cache built",
                            CacheStatus::Rebuilt => "cache rebuilt",
                            CacheStatus::Uncached => "cache not writable",
                        }
                    ),
                    Err(err) => {
                        println!("{:<24} FAILED: {err}", e.name);
                        failures += 1;
                    }
                }
            }
            if failures > 0 {
                return Err(format!("{failures} dataset(s) failed verification"));
            }
            if skipped > 0 && skipped == selected.len() {
                println!("(no dataset files present — see `lhcds datasets fetch-instructions`)");
            }
            Ok(())
        }
        "" => Err("missing datasets action: list | fetch-instructions | cache | verify".into()),
        other => Err(format!(
            "unknown datasets action '{other}' — try list | fetch-instructions | cache | verify"
        )),
    }
}

fn cmd_gen(args: &mut Args) -> Result<(), String> {
    let out = args.required("out")?;
    let preset = args.required("preset")?;
    let scale: f64 = args.get_parsed("scale")?.unwrap_or(1.0);
    args.finish()?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    let spec = lhcds::data::datasets::by_abbr(&preset)
        .ok_or_else(|| format!("unknown preset '{preset}'"))?;
    let d = spec.generate_scaled(scale);
    write_edge_list_file(&d.graph, &out).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} ({} stand-in, scale {}): {} vertices, {} edges",
        out,
        spec.name,
        scale,
        d.graph.n(),
        d.graph.m()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_names_parse() {
        for (name, arity) in [
            ("3-star", 4),
            ("4-path", 4),
            ("c3-star", 4),
            ("4-loop", 4),
            ("2-triangle", 4),
            ("4-clique", 4),
        ] {
            let p = parse_pattern(name).unwrap();
            assert_eq!(p.arity(), arity, "{name}");
        }
        assert!(parse_pattern("pentagon").is_err());
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(run(vec!["frobnicate".into()]).is_err());
    }

    #[test]
    fn help_runs() {
        assert!(run(vec!["help".into()]).is_ok());
        assert!(run(vec![]).is_ok());
    }

    fn fixture() -> String {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../data/fixtures/figure2.txt")
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn input_path_loads_and_matches_builtin_decomposition() {
        let dir = std::env::temp_dir().join("lhcds_cli_input_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure2.txt");
        std::fs::copy(fixture(), &path).unwrap();
        let path_s = path.to_string_lossy().into_owned();

        // --input works end-to-end, both cold (cache build) and warm (hit)
        for _ in 0..2 {
            run(vec![
                "topk".into(),
                "--input".into(),
                path_s.clone(),
                "--k".into(),
                "2".into(),
                "--quiet".into(),
            ])
            .unwrap();
        }
        run(vec!["stats".into(), "--input".into(), path_s.clone()]).unwrap();
        run(vec![
            "topk".into(),
            "--input".into(),
            path_s.clone(),
            "--no-cache".into(),
            "--format".into(),
            "snap".into(),
            "--k".into(),
            "1".into(),
            "--quiet".into(),
        ])
        .unwrap();

        // acceptance contract: the ingested fixture decomposes exactly
        // like the equivalent builtin graph
        let ingested = read_graph_file(&path, EdgeListFormat::Auto).unwrap();
        let builtin = lhcds::data::figure2_graph();
        assert_eq!(ingested.graph, builtin);
        let a = top_k_lhcds(&ingested.graph, 3, 3, &IppvConfig::default());
        let b = top_k_lhcds(&builtin, 3, 3, &IppvConfig::default());
        assert_eq!(a.subgraphs, b.subgraphs);

        // input-option misuse
        assert!(run(vec![
            "topk".into(),
            "--graph".into(),
            path_s.clone(),
            "--input".into(),
            path_s.clone(),
        ])
        .is_err());
        assert!(run(vec![
            "topk".into(),
            "--graph".into(),
            path_s.clone(),
            "--format".into(),
            "csv".into(),
        ])
        .is_err());
        assert!(run(vec![
            "topk".into(),
            "--input".into(),
            path_s.clone(),
            "--format".into(),
            "xml".into(),
        ])
        .is_err());
        assert!(run(vec!["topk".into(), "--quiet".into()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn datasets_subcommand_lifecycle() {
        let dir = std::env::temp_dir().join("lhcds_cli_datasets_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixture(), dir.join("figure2.txt")).unwrap();
        let manifest = dir.join("datasets.toml");
        std::fs::write(
            &manifest,
            "[figure2]\nabbr = \"F2\"\npath = \"figure2.txt\"\nvertices = 20\nedges = 39\n\
             [absent]\npath = \"not-downloaded.txt\"\n",
        )
        .unwrap();
        let m = manifest.to_string_lossy().into_owned();
        let with_manifest = |action: &str| {
            vec![
                "datasets".into(),
                action.to_string(),
                "--manifest".into(),
                m.clone(),
            ]
        };

        run(with_manifest("list")).unwrap();
        run(with_manifest("fetch-instructions")).unwrap();
        run(with_manifest("cache")).unwrap();
        run(with_manifest("verify")).unwrap();
        // per-name selection
        let mut v = with_manifest("verify");
        v.extend(["--name".into(), "F2".into()]);
        run(v).unwrap();
        // explicit --name on a missing file fails hard
        let mut v = with_manifest("cache");
        v.extend(["--name".into(), "absent".into()]);
        assert!(run(v).is_err());
        // unknown name / action / missing action
        let mut v = with_manifest("verify");
        v.extend(["--name".into(), "nope".into()]);
        assert!(run(v).is_err());
        assert!(run(with_manifest("frobnicate")).is_err());
        assert!(run(vec!["datasets".into()]).is_err());

        // a validation mismatch is a hard error
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 21\n",
        )
        .unwrap();
        assert!(run(with_manifest("verify")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn datasets_verify_exit_code_contract() {
        // The satellite contract: a manifest |V|/|E| mismatch must make
        // the *process exit code* non-zero, not just print a line.
        let dir = std::env::temp_dir().join("lhcds_cli_verify_exit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixture(), dir.join("figure2.txt")).unwrap();
        let manifest = dir.join("datasets.toml");
        let m = manifest.to_string_lossy().into_owned();
        let verify = |m: &str| {
            run_to_exit_code(vec![
                "datasets".into(),
                "verify".into(),
                "--manifest".into(),
                m.into(),
            ])
        };

        // correct expectations → exit 0
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 20\nedges = 39\n",
        )
        .unwrap();
        assert_eq!(verify(&m), 0);

        // wrong |V| → non-zero
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 21\nedges = 39\n",
        )
        .unwrap();
        assert_eq!(verify(&m), 2, "|V| mismatch must fail the process");

        // wrong |E| → non-zero
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 20\nedges = 40\n",
        )
        .unwrap();
        assert_eq!(verify(&m), 2, "|E| mismatch must fail the process");

        // the same contract holds for `cache` (it loads + validates too)
        assert_eq!(
            run_to_exit_code(vec![
                "datasets".into(),
                "cache".into(),
                "--manifest".into(),
                m.clone(),
            ]),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn topk_json_matches_shared_serializer_and_original_ids() {
        let dir = std::env::temp_dir().join("lhcds_cli_json_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // non-contiguous original ids: a triangle on {100, 205, 300}
        let path = dir.join("g.txt");
        std::fs::write(&path, "100 205\n205 300\n300 100\n").unwrap();
        let path_s = path.to_string_lossy().into_owned();

        // --json runs end-to-end on both input paths
        run(vec![
            "topk".into(),
            "--input".into(),
            path_s.clone(),
            "--k".into(),
            "1".into(),
            "--json".into(),
            "--quiet".into(),
        ])
        .unwrap();
        run(vec![
            "stats".into(),
            "--input".into(),
            path_s.clone(),
            "--json".into(),
        ])
        .unwrap();

        // the JSON the CLI prints is exactly the shared serializer's
        // output, with original file ids
        let ingested = read_graph_file(&path, EdgeListFormat::Auto).unwrap();
        let res = top_k_lhcds(&ingested.graph, 3, 1, &IppvConfig::default());
        let ids = |v: lhcds::graph::VertexId| ingested.original_ids[v as usize];
        let expected = topk_result(
            3,
            1,
            res.subgraphs.iter().map(|s| AnswerRow {
                vertices: &s.vertices,
                density: s.density,
                clique_count: s.clique_count,
            }),
            &ids,
        );
        let rendered = expected.render();
        assert!(
            rendered.contains("\"vertices\":[100,205,300]"),
            "{rendered}"
        );

        // pattern mode accepts --json too
        run(vec![
            "topk".into(),
            "--graph".into(),
            {
                let p = dir.join("compact.txt");
                std::fs::write(&p, "0 1\n1 2\n2 0\n2 3\n").unwrap();
                p.to_string_lossy().into_owned()
            },
            "--pattern".into(),
            "4-path".into(),
            "--k".into(),
            "1".into(),
            "--json".into(),
            "--quiet".into(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_flags_write_deterministic_span_json() {
        let dir = std::env::temp_dir().join("lhcds_cli_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json");
        run(vec![
            "topk".into(),
            "--graph".into(),
            fixture(),
            "--k".into(),
            "2".into(),
            "--trace-out".into(),
            out.to_string_lossy().into_owned(),
            "--quiet".into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("{\"spans\":["), "{text}");
        for phase in [
            "\"name\":\"topk\"",
            "\"name\":\"enumerate\"",
            "\"name\":\"verify\"",
        ] {
            assert!(text.contains(phase), "missing {phase} in {text}");
        }
        // the flow counters ride on the root span
        assert!(text.contains("\"max_flow_solves\""), "{text}");
        // --trace alone renders to stderr only; no file, still succeeds
        run(vec![
            "stats".into(),
            "--graph".into(),
            fixture(),
            "--trace".into(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_query_round_trip() {
        use lhcds::service::json::Json;

        let dir = std::env::temp_dir().join("lhcds_cli_serve_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure2.txt");
        std::fs::copy(fixture(), &path).unwrap();
        let path_s = path.to_string_lossy().into_owned();
        let port_file = dir.join("port");

        // daemon on an ephemeral port, address published via --port-file
        let serve_args = vec![
            "serve".into(),
            "--input".into(),
            path_s.clone(),
            "--h".into(),
            "2,3".into(),
            "--pattern".into(),
            "4-loop".into(),
            "--k-max".into(),
            "8".into(),
            "--port".into(),
            "0".into(),
            "--port-file".into(),
            port_file.to_string_lossy().into_owned(),
            // retain every request in the slow-query ring (threshold 0)
            "--slow-query-ms".into(),
            "0".into(),
            "--quiet".into(),
        ];
        let daemon = std::thread::spawn(move || run(serve_args));

        // wait for the daemon to publish its address
        let addr = {
            let mut waited = 0u64;
            loop {
                if let Ok(s) = std::fs::read_to_string(&port_file) {
                    if s.trim().ends_with(|c: char| c.is_ascii_digit()) && !s.trim().is_empty() {
                        break s.trim().to_string();
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
                waited += 20;
                assert!(waited < 30_000, "daemon never published its port");
            }
        };
        let (host, port) = addr.rsplit_once(':').unwrap();
        let base = |action: &str| {
            vec![
                "query".into(),
                action.to_string(),
                "--host".into(),
                host.to_string(),
                "--port".into(),
                port.to_string(),
            ]
        };

        // round trips: ping, top-k, density-of, membership, stats
        run(base("ping")).unwrap();
        let mut v = base("top-k");
        v.extend(["--h".into(), "3".into(), "--k".into(), "2".into()]);
        run(v).unwrap();
        let mut v = base("density-of");
        v.extend(["--h".into(), "3".into(), "--vertex".into(), "11".into()]);
        run(v).unwrap();
        let mut v = base("membership");
        v.extend(["--h".into(), "2".into(), "--vertex".into(), "0".into()]);
        run(v).unwrap();
        let mut v = base("top-k");
        v.extend([
            "--pattern".into(),
            "4-loop".into(),
            "--k".into(),
            "2".into(),
        ]);
        run(v).unwrap();
        run(base("stats")).unwrap();
        run(base("metrics")).unwrap();
        run(base("health")).unwrap();
        // --retries composes with any idempotent action (no fault here;
        // the first attempt simply succeeds)
        let mut v = base("ping");
        v.extend(["--retries".into(), "2".into()]);
        run(v).unwrap();

        // every index loaded, so health reports ok with three ready rows
        let health = client::query(&addr, &Request::Health, Duration::from_secs(10)).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("indexes_ready").unwrap().as_u64(), Some(3));
        assert_eq!(health.get("indexes_failed").unwrap().as_u64(), Some(0));

        // the metrics op exposes Prometheus text with per-op counters
        let metrics = client::query(&addr, &Request::Metrics, Duration::from_secs(10)).unwrap();
        let text = metrics.get("exposition").unwrap().as_str().unwrap();
        assert!(
            text.contains("lhcds_requests_total{op=\"top_k\"}"),
            "{text}"
        );
        assert!(
            text.contains("lhcds_slow_query_threshold_milliseconds 0"),
            "{text}"
        );

        // served answer == batch answer (string-identical result JSON)
        let served = client::query(
            &addr,
            &Request::TopK {
                index: IndexRef::clique(3),
                k: 2,
            },
            Duration::from_secs(10),
        )
        .unwrap();
        let g = lhcds::data::figure2_graph();
        let fresh = top_k_lhcds(&g, 3, 2, &IppvConfig::default());
        let ids = |v: lhcds::graph::VertexId| u64::from(v);
        let batch = topk_result(
            3,
            2,
            fresh.subgraphs.iter().map(|s| AnswerRow {
                vertices: &s.vertices,
                density: s.density,
                clique_count: s.clique_count,
            }),
            &ids,
        );
        assert_eq!(served.render(), batch.render());

        // same for a non-clique pattern: the daemon's 4-loop answer is
        // string-identical to a fresh LhxPDS run
        let served = client::query(
            &addr,
            &Request::TopK {
                index: IndexRef::pattern("4-loop"),
                k: 2,
            },
            Duration::from_secs(10),
        )
        .unwrap();
        let fresh = top_k_lhxpds(&g, Pattern::Cycle4, 2, &IppvConfig::default());
        let batch = topk_result(
            4,
            2,
            fresh.subgraphs.iter().map(|s| AnswerRow {
                vertices: &s.vertices,
                density: s.density,
                clique_count: s.clique_count,
            }),
            &ids,
        );
        assert_eq!(served.render(), batch.render());

        // protocol errors surface as CLI errors (exit non-zero), but do
        // not kill the daemon
        let mut v = base("top-k");
        v.extend(["--h".into(), "9".into()]);
        assert_eq!(run_to_exit_code(v), 2);
        let pong = client::query(&addr, &Request::Ping, Duration::from_secs(10)).unwrap();
        assert_eq!(pong, Json::Str("pong".into()));

        // query usage errors
        assert!(run(base("density-of")).is_err(), "--vertex required");
        assert!(run(base("frobnicate")).is_err());
        assert!(
            run(vec!["query".into(), "ping".into()]).is_err(),
            "--port required"
        );

        // shutdown: daemon drains and the serve command returns Ok
        run(base("shutdown")).unwrap();
        daemon.join().unwrap().unwrap();

        // restart hits the persisted LHCDSIDX (exercised by a second
        // in-memory check: the index cache file exists next to the input)
        assert!(dir.join("figure2.txt.h3.lhcdsidx").is_file());
        assert!(dir.join("figure2.txt.h2.lhcdsidx").is_file());
        assert!(dir.join("figure2.txt.4-loop.lhcdsidx").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_input_validation() {
        // bad h list / k-max / missing input are caught before binding
        assert!(run(vec!["serve".into()]).is_err());
        assert!(run(vec![
            "serve".into(),
            "--graph".into(),
            "nope.txt".into(),
            "--h".into(),
            "1".into(),
        ])
        .is_err());
        assert!(run(vec![
            "serve".into(),
            "--graph".into(),
            "nope.txt".into(),
            "--h".into(),
            "x".into(),
        ])
        .is_err());
        assert!(run(vec![
            "serve".into(),
            "--graph".into(),
            "nope.txt".into(),
            "--k-max".into(),
            "0".into(),
        ])
        .is_err());
        // a malformed --fault-schedule is rejected before anything is
        // armed or loaded (the registry stays untouched for other tests)
        let err = run(vec![
            "serve".into(),
            "--graph".into(),
            "nope.txt".into(),
            "--fault-schedule".into(),
            "bogus_point=1".into(),
        ])
        .unwrap_err();
        assert!(err.contains("bad --fault-schedule"), "{err}");
        assert!(!lhcds::obs::fault::armed());
    }

    #[test]
    fn datasets_fetch_instructions_without_manifest_prints_template() {
        let missing = std::env::temp_dir()
            .join("lhcds_cli_no_such_dir")
            .join("datasets.toml");
        run(vec![
            "datasets".into(),
            "fetch-instructions".into(),
            "--manifest".into(),
            missing.to_string_lossy().into_owned(),
        ])
        .unwrap();
        // but every other action needs the manifest to exist
        assert!(run(vec![
            "datasets".into(),
            "list".into(),
            "--manifest".into(),
            missing.to_string_lossy().into_owned(),
        ])
        .is_err());
    }

    #[test]
    fn gen_and_topk_round_trip() {
        let dir = std::env::temp_dir().join("lhcds_cli_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt").to_string_lossy().into_owned();
        run(vec![
            "gen".into(),
            "--out".into(),
            path.clone(),
            "--preset".into(),
            "HA".into(),
            "--scale".into(),
            "0.05".into(),
        ])
        .unwrap();
        run(vec![
            "topk".into(),
            "--graph".into(),
            path.clone(),
            "--k".into(),
            "2".into(),
            "--quiet".into(),
        ])
        .unwrap();
        run(vec!["stats".into(), "--graph".into(), path.clone()]).unwrap();
        // multi-threaded enumeration accepts the same inputs
        run(vec![
            "topk".into(),
            "--graph".into(),
            path.clone(),
            "--k".into(),
            "2".into(),
            "--threads".into(),
            "4".into(),
            "--quiet".into(),
        ])
        .unwrap();
        run(vec![
            "stats".into(),
            "--graph".into(),
            path.clone(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(run(vec![
            "topk".into(),
            "--graph".into(),
            path.clone(),
            "--threads".into(),
            "lots".into(),
            "--quiet".into(),
        ])
        .is_err());
        // pattern mode
        run(vec![
            "topk".into(),
            "--graph".into(),
            path.clone(),
            "--pattern".into(),
            "2-triangle".into(),
            "--k".into(),
            "1".into(),
            "--quiet".into(),
        ])
        .unwrap();
        // error paths
        assert!(run(vec!["topk".into()]).is_err());
        assert!(run(vec![
            "gen".into(),
            "--out".into(),
            path,
            "--preset".into(),
            "NOPE".into()
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
