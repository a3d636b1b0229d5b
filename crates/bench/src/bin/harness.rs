//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation on the synthetic stand-in datasets.
//!
//! ```text
//! cargo run --release -p lhcds-bench --bin harness -- all
//! cargo run --release -p lhcds-bench --bin harness -- fig9 table3 --scale 0.2
//! cargo run --release -p lhcds-bench --bin harness -- --list
//! ```
//!
//! Output is GitHub-flavored markdown on stdout (tee it into a file to
//! update `EXPERIMENTS.md`). `--scale` multiplies the background size
//! of every dataset stand-in (default 0.08; 1.0 = full stand-in size).
//! `--threads N` adds `N` to the thread sweep of the `kclist`
//! experiment.
//!
//! Four experiments record committed `BENCH_*.json` baselines
//! (directory override: `LHCDS_BENCH_DIR`), each stamped with the
//! recording host's parallelism (`host_parallelism`,
//! `recorded_on_single_cpu`):
//!
//! * `kclist` → `BENCH_kclist.json` — serial vs node-parallel
//!   enumeration;
//! * `table2real` → `BENCH_table2.json` — statistics of any real SNAP
//!   graphs present via the `datasets.toml` manifest (skips gracefully
//!   when none are downloaded, so CI stays hermetic);
//! * `serve_qps` → `BENCH_serve.json` — query-daemon throughput plus
//!   server-side histogram p50/p99/p999 tail latency (`lhcds-service`),
//!   and a 2× overload burst against a starved daemon recording the
//!   shed rate and admitted-request p99;
//! * `obs` → `BENCH_obs.json` — `lhcds_obs` tracing cost, off vs on:
//!   asserts traced and untraced pipelines agree byte-for-byte and
//!   that disabled instrumentation — span guards and disarmed
//!   fault-injection checks alike — stays under 1% of wall.

use lhcds_bench::experiments::{all_experiments, run_experiment, ExpOptions};
use lhcds_bench::measure::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExpOptions::default();
    let mut chosen: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for e in all_experiments() {
                    println!("{e}");
                }
                return;
            }
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage("--scale needs a value"));
                opts.scale = v
                    .parse()
                    .unwrap_or_else(|_| usage("--scale expects a float in (0, 1]"));
                if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                    usage("--scale expects a float in (0, 1]");
                }
            }
            "--threads" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                opts.threads = v
                    .parse()
                    .unwrap_or_else(|_| usage("--threads expects a non-negative integer"));
            }
            "--help" | "-h" => usage(""),
            "all" => chosen.extend(all_experiments().iter().map(|s| s.to_string())),
            other => chosen.push(other.to_string()),
        }
    }
    if chosen.is_empty() {
        usage("no experiments selected");
    }
    chosen.dedup();

    println!("# LhCDS experiment harness (scale = {})\n", opts.scale);
    let t0 = std::time::Instant::now();
    for name in &chosen {
        let started = std::time::Instant::now();
        match run_experiment(name, &opts) {
            Some(section) => {
                println!("{section}");
                println!(
                    "_({name} completed in {:.1} s)_\n",
                    started.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!("unknown experiment '{name}' — use --list");
                std::process::exit(2);
            }
        }
    }
    println!("_total harness time: {:.1} s_", t0.elapsed().as_secs_f64());
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: harness [all | <experiment>...] [--scale F] [--threads N] [--list]\n\
         experiments: {}",
        all_experiments().join(", ")
    );
    std::process::exit(2);
}
