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
//! keep a record). `--scale` multiplies the background size
//! of every dataset stand-in (default 0.08; 1.0 = full stand-in size).
//! `--threads N` counts `table2real`'s cliques on `N` threads.
//!
//! `table2real` records `BENCH_table2.json` (directory override:
//! `LHCDS_BENCH_DIR`), stamped with the recording host's parallelism
//! (`host_parallelism`, `recorded_on_single_cpu`): statistics of any
//! real SNAP graphs present via the `datasets.toml` manifest. It skips
//! gracefully when none are downloaded, so CI stays hermetic.
//!
//! The performance of the product surfaces (top-k, index build,
//! serving) is measured by the gated benchmark under `benchmark/` (see
//! `BENCHMARK.json`), not by this harness.

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
