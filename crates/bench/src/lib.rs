//! # lhcds-bench
//!
//! Experiment harness reproducing every table and figure of the LhCDS
//! paper's evaluation (§6). [`experiments::all_experiments`] is the
//! experiment index (`harness --list` prints it).
//!
//! * [`experiments`] — one runner per table/figure; each prints a
//!   markdown table comparable to the paper's.
//! * [`measure`] — wall-clock helpers and a counting global allocator
//!   used by the memory experiment (Figure 15).
//!
//! The `harness` binary drives the runners:
//! `cargo run --release -p lhcds-bench --bin harness -- all`.
//! One experiment records a `BENCH_*.json` file, stamped with the
//! recording host's [`measure::BenchProvenance`]: `table2real`
//! (statistics of locally-present real SNAP graphs, `BENCH_table2.json`;
//! skips gracefully when none are downloaded). The performance of the
//! product surfaces (top-k, index build, serving) is measured by the
//! gated benchmark under `benchmark/` (see `BENCHMARK.json`), not here.
//!
//! This crate is a top-layer consumer: everything reaches it through
//! the `lhcds` facade, keeping the workspace DAG honest.
//!
//! # Example
//!
//! ```
//! use lhcds_bench::experiments::{run_experiment, ExpOptions};
//!
//! // Run the polbooks case study (Figure 13) at default options and
//! // check the harness produced a markdown section.
//! let section = run_experiment("fig13", &ExpOptions::default()).unwrap();
//! assert!(section.contains("## Figure 13"));
//! assert!(run_experiment("no-such-experiment", &ExpOptions::default()).is_none());
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
