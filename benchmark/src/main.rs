//! End-to-end benchmark of the lhcds product surfaces — `lhcds topk`,
//! the full index build behind `lhcds serve`, and the daemon's query
//! path — with a traced per-layer ledger. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload cm-h3-top10 [--seed N] [--graph-seed G] [--seconds S] [--trace 0|1] \
//!     [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones (and writes
//! the span tree to `DIR/<workload>-g<G>-s<N>.trace.json`).
//!
//! `--seed N` relabels the vertices of the generated graph with a
//! seeded permutation and seeds the serve request mix: every seed is
//! the same work on different input bytes. `--graph-seed G` generates a
//! different graph of the same shape (default: the workload's preset
//! seed), to re-check a claim on an unseen graph.

mod alloc;
mod check;
mod ledger;
mod serve;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lhcds::core::index::{DecompositionIndex, IndexConfig};
use lhcds::core::pipeline::top_k_lhcds;
use lhcds::data::cache::SourceStamp;
use lhcds::data::index_cache::{index_path_for, read_index, write_index};
use lhcds::service::json::Json;

use check::{rows_of, Row};
use serve::{Daemon, Expected, Mix, Tally};
use stats::{median, quantile};
use workload::{Focus, Loaded, PhaseMix, Scratch, Seeds, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Measured rounds per run, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Serving time per round, as a share of the round's pipeline time
/// (clamped to [`SERVE_MIN`, `SERVE_MAX`]): every workload serves for
/// about a fifth of its run.
const SERVE_SHARE: f64 = 0.25;
const SERVE_MIN: Duration = Duration::from_millis(300);
const SERVE_MAX: Duration = Duration::from_millis(1500);

/// How long a round serves after `pipeline_ms` of pipeline work.
fn serve_budget(pipeline_ms: f64) -> Duration {
    Duration::from_secs_f64(pipeline_ms * SERVE_SHARE / 1e3).clamp(SERVE_MIN, SERVE_MAX)
}

const USAGE: &str = "usage: lhcds-e2e-benchmark --workload NAME [--seed N] [--graph-seed G] \
                     [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workload: &'static Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut opts: BTreeMap<String, String> = BTreeMap::new();
        while let Some(flag) = argv.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| {
                    ["workload", "seed", "graph-seed", "seconds", "trace", "out"].contains(k)
                })
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            opts.insert(key.to_string(), value);
        }
        let name = opts.get("workload").ok_or("missing --workload")?;
        let workload = Workload::find(name).ok_or_else(|| {
            let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })?;
        let seed = |flag: &str| {
            opts.get(flag)
                .map(|s| {
                    match s.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => s.parse(),
                    }
                    .map_err(|e| format!("--{flag} {s}: {e}"))
                })
                .transpose()
        };
        let seeds = Seeds {
            graph: seed("graph-seed")?.unwrap_or(workload.preset_seed),
            relabel: seed("seed")?,
        };
        let seconds: f64 = match opts.get("seconds") {
            None => 10.0,
            Some(s) => s.parse().map_err(|e| format!("--seconds {s}: {e}"))?,
        };
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        let trace = match opts.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(t) => return Err(format!("--trace {t}: expected 0 or 1")),
        };
        let out = opts.get("out").map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            PathBuf::from,
        );
        Ok(Args {
            workload,
            seeds,
            seconds,
            trace,
            out,
        })
    }
}

/// Checked operations and reported metrics of one run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, …}`. A value that is not a
    /// finite number (a metric with no samples) is printed as 0 and
    /// makes the run incorrect.
    fn metrics_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", metrics.join(", "))
    }

    fn json(&self) -> String {
        let correct = self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

fn same(got: &[Row], want: &[Row]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} rows differ from the warm-up's {}",
            got.len(),
            want.len()
        ))
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The loaded input, the served index and its daemon, and the
/// reference answers every measured operation is checked against.
struct Prepared {
    loaded: Loaded,
    /// The index as the daemon loaded it from its snapshot.
    index: DecompositionIndex,
    daemon: Daemon,
    expected: Expected,
    /// The warm-up top-k answer.
    reference: Vec<Row>,
}

impl Prepared {
    /// A full decomposition must freeze into exactly the served index.
    fn check_index(&self, index: &DecompositionIndex) -> Result<(), String> {
        (*index == self.index)
            .then_some(())
            .ok_or_else(|| "the index differs from the warm-up's".into())
    }
}

/// Per-repetition set-up timings.
#[derive(Default)]
struct Setup {
    total_s: Vec<f64>,
    ingest_ms: Vec<f64>,
    index_write_ms: Vec<f64>,
    index_read_ms: Vec<f64>,
    snapshot_kib: f64,
}

fn index_config(w: &Workload) -> IndexConfig {
    IndexConfig {
        ippv: w.ippv(),
        ..IndexConfig::default()
    }
}

/// Set-up, repeated [`SETUP_REPS`] times: generate the graph from the
/// seed, write it as an edge list, ingest it through `lhcds::data`,
/// write and re-read the LHCDSIDX snapshot, and start the daemon on the
/// loaded index. The index is built once, untimed, in the first
/// repetition; that build is also the index build's warm-up.
fn set_up(
    args: &Args,
    scratch: &Scratch,
    report: &mut Report,
) -> Result<(Setup, Prepared), String> {
    let w = args.workload;
    let mut setup = Setup::default();
    let mut built: Option<DecompositionIndex> = None;
    let mut current: Option<(Loaded, DecompositionIndex, Daemon)> = None;
    for rep in 0..SETUP_REPS {
        drop(current.take());
        let t = Instant::now();
        let loaded = workload::load(w, args.seeds, &scratch.rep_dir(rep))?;
        let mut spent = t.elapsed();
        let built = built
            .get_or_insert_with(|| DecompositionIndex::build(&loaded.graph, w.h, &index_config(w)));
        let t = Instant::now();
        let snapshot = index_path_for(&loaded.source, w.h);
        let stamp = SourceStamp::of(&loaded.source).map_err(|e| e.to_string())?;
        write_index(&snapshot, built, stamp).map_err(|e| e.to_string())?;
        let written = Instant::now();
        let index = read_index(&snapshot).map_err(|e| e.to_string())?.index;
        let read = Instant::now();
        let daemon = Daemon::start(index.clone(), &loaded, w.name)?;
        spent += t.elapsed();
        setup.total_s.push(spent.as_secs_f64());
        setup.ingest_ms.push(loaded.ingest_ms);
        setup.index_write_ms.push((written - t).as_secs_f64() * 1e3);
        setup
            .index_read_ms
            .push((read - written).as_secs_f64() * 1e3);
        let bytes = std::fs::metadata(&snapshot)
            .map_err(|e| e.to_string())?
            .len();
        setup.snapshot_kib = bytes as f64 / 1024.0;
        report.check(
            "snapshot round trip",
            (index == *built)
                .then_some(())
                .ok_or_else(|| "the re-read index differs from the built one".into()),
        );
        current = Some((loaded, index, daemon));
    }
    let (loaded, index, daemon) = current.expect("at least one set-up repetition");

    // Reference answers, untimed; the top-k solve is also its warm-up.
    let warm = top_k_lhcds(&loaded.graph, w.h, w.k, &w.ippv());
    let reference = rows_of(&warm.subgraphs, &loaded.ids);
    let index_rows = check::index_rows(&index, &loaded.ids);
    let generated_id = |id| loaded.generated_id(id);
    let graph_seed = args.seeds.graph;
    report.check(
        "reference top-k",
        check::reference_ok(w.name, graph_seed, "top-k", &reference, &generated_id),
    );
    report.check(
        "reference index",
        check::reference_ok(w.name, graph_seed, "index", &index_rows, &generated_id),
    );
    report.check(
        "index top-k equals a fresh top-k",
        check::index_top_k(&index, w.k, &loaded.ids)
            .map_err(|e| e.to_string())
            .and_then(|rows| same(&rows, &reference)),
    );
    let expected = Expected::render(&index, &loaded.ids)?;
    Ok((
        setup,
        Prepared {
            loaded,
            index,
            daemon,
            expected,
            reference,
        },
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new(&args.out)?;
    let mut report = Report::default();
    let (setup, mut p) = set_up(args, &scratch, &mut report)?;
    if args.trace {
        measure_traced(args, &setup, &mut p, &mut report)?;
    } else {
        measure(args, &setup, &mut p, &mut report);
    }
    Ok(report)
}

/// Runs rounds for `--seconds`, at least [`MIN_ROUNDS`]. A round starts
/// only while at least half of the previous round's time is left, so a
/// run overshoots its budget by half a round at most, on average.
fn rounds(seconds: f64, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut last = Duration::ZERO;
    let mut i = 0;
    while i < MIN_ROUNDS || start.elapsed() + last / 2 < budget {
        let t = Instant::now();
        round(i);
        last = t.elapsed();
        i += 1;
    }
}

/// The untraced run: end-to-end metrics. Each round times one top-k
/// solve and one full index build, then serves (see [`serve_budget`]);
/// interleaving spreads every metric over the whole run.
fn measure(args: &Args, setup: &Setup, p: &mut Prepared, report: &mut Report) {
    let w = args.workload;
    let cfg = w.ippv();
    let index_cfg = index_config(w);
    let mut mix = Mix::new(args.seeds.relabel.unwrap_or(0), w.h, p.loaded.graph.n());
    let mut tally = Tally::default();
    let (mut topk_ms, mut build_ms, mut heap_mb) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    rounds(args.seconds, |i| {
        let g = &p.loaded.graph;
        let ((result, ms), heap) = alloc::peak_heap_mb(|| {
            let t = Instant::now();
            let r = top_k_lhcds(g, w.h, w.k, &cfg);
            (r, ms_since(t))
        });
        topk_ms.push(ms);
        heap_mb.push(heap);
        let rows = rows_of(&result.subgraphs, &p.loaded.ids);
        report.check("top-k answer", same(&rows, &p.reference));

        let ((index, ms), heap) = alloc::peak_heap_mb(|| {
            let t = Instant::now();
            let idx = DecompositionIndex::build(g, w.h, &index_cfg);
            (idx, ms_since(t))
        });
        build_ms.push(ms);
        heap_mb.push(heap);
        report.check("index build", p.check_index(&index));

        let budget = serve_budget(topk_ms[i] + build_ms[i]);
        let (ids, expected) = (&p.loaded.ids, &p.expected);
        p.daemon.burst(budget, &mut mix, ids, expected, &mut tally);
        eprintln!(
            "round {i} ended at {:.1} s: topk {:.1} ms, build {:.1} ms, serve {:.0}/s",
            start.elapsed().as_secs_f64(),
            topk_ms[i],
            build_ms[i],
            tally.burst_qps.last().copied().unwrap_or(0.0),
        );
    });
    report.attempted += tally.requests;
    report.failed += tally.failed;
    report.metric("setup_s", median(&setup.total_s), "s");
    report.metric("topk_ms", median(&topk_ms), "ms");
    report.metric("index_build_ms", median(&build_ms), "ms");
    report.metric("peak_heap_mb", median(&heap_mb), "MiB");
    report.metric("serve_qps", median(&tally.burst_qps), "1/s");
    report.metric("serve_p95_us", median(&tally.burst_p95), "us");
}

/// Per-layer metrics of the traced run, with units, in report order.
const LEDGER_METRICS: &[(&str, &str)] = &[
    ("clique.enumerate_ms", "ms"),
    ("clique.instances", "count"),
    ("core.cp.cp_ms", "ms"),
    ("core.decompose.decompose_ms", "ms"),
    ("core.decompose.groups", "count"),
    ("core.prune.prune_ms", "ms"),
    ("core.prune.pruned_vertices", "count"),
    ("core.verify.verify_ms", "ms"),
    ("core.verify.self_ms", "ms"),
    ("core.verify.verifications", "count"),
    ("core.verify.flow_verifications", "count"),
    ("core.verify.flow_share", "ratio"),
    ("core.verify.shortcut_accepts", "count"),
    ("core.verify.early_rejects", "count"),
    ("core.compact.local_decompose_ms", "ms"),
    ("core.compact.local_decompositions", "count"),
    ("core.compact.prefetched", "count"),
    ("core.compact.speculation_waste", "count"),
    ("flow.max_flow_solves", "count"),
    ("flow.networks_built", "count"),
    ("flow.arcs_built", "count"),
    ("flow.arcs_per_network", "count"),
];

/// The traced run: per-layer metrics, the phase-mix check, and the span
/// tree written out. Each round runs the workload's focus solve once
/// untraced and once through the ledger (alternating which goes first),
/// then serves (see [`serve_budget`]).
fn measure_traced(
    args: &Args,
    setup: &Setup,
    p: &mut Prepared,
    report: &mut Report,
) -> Result<(), String> {
    let w = args.workload;
    let cfg = w.ippv();
    let k = match w.focus {
        Focus::TopK => w.k,
        Focus::Serve => usize::MAX,
    };
    let mut mix = Mix::new(args.seeds.relabel.unwrap_or(0), w.h, p.loaded.graph.n());
    let mut tally = Tally::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut tree = None;
    let mut n_rounds = 0;
    rounds(args.seconds, |round| {
        n_rounds += 1;
        for traced in [round % 2 == 0, round % 2 != 0] {
            let g = &p.loaded.graph;
            let result = if traced {
                let s = ledger::solve(g, w.h, k, &cfg);
                report.check("ledger replay", s.replay_mismatch.map_or(Ok(()), Err));
                traced_ms.push(s.solve_ms);
                for (name, v) in s.metrics {
                    per.entry(name).or_default().push(v);
                }
                tree = Some(s.tree);
                s.result
            } else {
                let t = Instant::now();
                let r = top_k_lhcds(g, w.h, k, &cfg);
                untraced_ms.push(ms_since(t));
                r
            };
            let answer = match w.focus {
                Focus::TopK => same(&rows_of(&result.subgraphs, &p.loaded.ids), &p.reference),
                Focus::Serve => p.check_index(&DecompositionIndex::from_subgraphs(
                    g.n(),
                    w.h,
                    p.index.k_max(),
                    &result.subgraphs,
                )),
            };
            report.check("traced-run answer", answer);
        }
        let pipeline_ms = untraced_ms[round] + traced_ms[round];
        let (ids, expected) = (&p.loaded.ids, &p.expected);
        p.daemon.burst(
            serve_budget(pipeline_ms),
            &mut mix,
            ids,
            expected,
            &mut tally,
        );
    });
    report.attempted += tally.requests;
    report.failed += tally.failed;

    let med = |name: &str| per.get(name).map(|v| median(v));
    let solve_ms = median(&traced_ms);
    let kept = match w.mix {
        PhaseMix::VerifyShare(min) => {
            let share = med("core.verify.verify_ms").unwrap_or(0.0) / solve_ms;
            (share >= min)
                .then_some(())
                .ok_or(format!("verify is {share:.3} of the solve, below {min}"))
        }
        PhaseMix::ProposeShare(min) => {
            let propose =
                med("clique.enumerate_ms").unwrap_or(0.0) + med("core.cp.cp_ms").unwrap_or(0.0);
            let share = propose / solve_ms;
            (share >= min).then_some(()).ok_or(format!(
                "enumerate + cp is {share:.3} of the solve, below {min}"
            ))
        }
        PhaseMix::Speculation => (med("core.compact.prefetched").unwrap_or(0.0) > 0.0)
            .then_some(())
            .ok_or_else(|| "no prefetched local decomposition was committed".into()),
    };
    report.check("phase mix", kept);

    report.metric("data.ingest_ms", median(&setup.ingest_ms), "ms");
    report.metric("data.index_write_ms", median(&setup.index_write_ms), "ms");
    report.metric("data.index_read_ms", median(&setup.index_read_ms), "ms");
    report.metric("data.index_snapshot_kib", setup.snapshot_kib, "KiB");
    for &(name, unit) in LEDGER_METRICS {
        if let Some(v) = med(name) {
            report.metric(name, v, unit);
        }
    }
    let server = p.daemon.server();
    let stats = server.stats();
    let (hits, misses) = server.lru_counters();
    let client_p50 = quantile(&tally.latency_us, 0.5);
    report.metric("service.server_p50_us", stats.latency.p50() as f64, "us");
    report.metric("service.server_p99_us", stats.latency.p99() as f64, "us");
    report.metric(
        "service.transport_us",
        client_p50 - stats.latency.p50() as f64,
        "us",
    );
    report.metric(
        "service.lru_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "service.response_bytes_mean",
        tally.response_bytes as f64 / tally.requests.max(1) as f64,
        "bytes",
    );
    report.metric("service.errors", tally.failed as f64, "count");
    report.metric(
        "obs.trace_overhead_pct",
        (solve_ms / median(&untraced_ms) - 1.0) * 100.0,
        "%",
    );

    let tree = tree.expect("at least one traced round");
    let mut layers = BTreeMap::new();
    ledger::layer_table(&tree, &mut layers);
    let layers: Vec<String> = layers
        .iter()
        .map(|(path, (count, dur, own))| {
            format!("\"{path}\": {{\"count\": {count}, \"dur_ms\": {dur}, \"self_ms\": {own}}}")
        })
        .collect();
    let seed_name = args
        .seeds
        .relabel
        .map_or_else(|| "none".to_string(), |s| s.to_string());
    let path = args.out.join(format!(
        "{}-g{}-s{}.trace.json",
        w.name, args.seeds.graph, seed_name
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"graph_seed\": {}, \"seed\": \"{seed_name}\", \"rounds\": {n_rounds}, \"metrics\": {}, \
         \"last_solve\": {{\"layers\": {{{}}}, \"spans\": {}}}}}\n",
        w.name,
        args.seeds.graph,
        report.metrics_json(),
        layers.join(", "),
        tree.get("spans").map_or_else(|| "[]".into(), Json::render),
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
