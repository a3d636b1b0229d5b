//! Microbenchmarks of the substrate crates: clique enumeration,
//! clique-core decomposition, the convex-program iterations, and the
//! max-flow verification primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lhcds::clique::{clique_core, par_count_per_vertex, CliqueSet, Parallelism};
use lhcds::core::compact::{local_instance, InstanceSolver};
use lhcds::core::cp::seq_kclist_pp;
use lhcds::data::gen::{gnp, planted_communities};
use lhcds::flow::Dinic;
use lhcds::graph::core_decomp::degeneracy_order;
use lhcds::graph::{CsrGraph, VertexId};

fn bench_graph() -> CsrGraph {
    planted_communities(2000, 4, &[(20, 0.9), (16, 0.85), (12, 0.9)], 0xBEEF)
}

fn clique_enumeration(c: &mut Criterion) {
    let g = bench_graph();
    let mut group = c.benchmark_group("sub_kclist");
    group.sample_size(10);
    for h in [3usize, 4, 5] {
        group.bench_with_input(BenchmarkId::new("enumerate", h), &h, |b, &h| {
            b.iter(|| CliqueSet::enumerate(&g, h).len())
        });
    }
    group.finish();
}

/// Serial vs node-parallel enumeration at 1/2/4 threads: same store,
/// same degree vectors — only the wall time may differ.
fn parallel_clique_enumeration(c: &mut Criterion) {
    let g = bench_graph();
    let mut group = c.benchmark_group("sub_kclist_par");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let par = Parallelism::threads(threads);
        group.bench_with_input(
            BenchmarkId::new("enumerate_h4", threads),
            &threads,
            |b, _| b.iter(|| CliqueSet::enumerate_with(&g, 4, &par).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("count_per_vertex_h4", threads),
            &threads,
            |b, _| b.iter(|| par_count_per_vertex(&g, 4, &par)),
        );
    }
    group.finish();
}

fn core_decompositions(c: &mut Criterion) {
    let g = bench_graph();
    let cs = CliqueSet::enumerate(&g, 3);
    let mut group = c.benchmark_group("sub_cores");
    group.sample_size(10);
    group.bench_function("edge_degeneracy", |b| b.iter(|| degeneracy_order(&g)));
    group.bench_function("clique_core_h3", |b| b.iter(|| clique_core(&cs)));
    group.finish();
}

fn cp_iterations(c: &mut Criterion) {
    let g = bench_graph();
    let cs = CliqueSet::enumerate(&g, 3);
    let mut group = c.benchmark_group("sub_cp");
    group.sample_size(10);
    for t in [1usize, 20] {
        group.bench_with_input(BenchmarkId::new("seq_kclist_pp", t), &t, |b, &t| {
            b.iter(|| seq_kclist_pp(&cs, t))
        });
    }
    group.finish();
}

fn flow_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("sub_flow");
    group.sample_size(10);
    // raw Dinic on a layered random network
    group.bench_function("dinic_grid", |b| {
        b.iter(|| {
            let n = 40u32;
            let mut d = Dinic::new((n * n + 2) as usize);
            let id = |r: u32, col: u32| 1 + r * n + col;
            for r in 0..n {
                d.add_edge(0, id(r, 0), 1000);
                d.add_edge(id(r, n - 1), n * n + 1, 1000);
                for col in 0..n - 1 {
                    d.add_edge(id(r, col), id(r, col + 1), ((r + col) % 7 + 1) as i128);
                    if r + 1 < n {
                        d.add_edge(id(r, col), id(r + 1, col), ((r * col) % 5 + 1) as i128);
                    }
                }
            }
            d.max_flow(0, n * n + 1)
        })
    });
    // densest decomposition network on a dense pocket
    let g = gnp(160, 0.35, 0x5EED);
    let cs = CliqueSet::enumerate(&g, 3);
    let all: Vec<VertexId> = g.vertices().collect();
    group.bench_function("densest_decomposition_h3", |b| {
        b.iter(|| {
            let (inst, _) = local_instance(&cs, &all);
            InstanceSolver::new(&inst).densest_decomposition()
        })
    });
    group.finish();
}

criterion_group!(
    substrates,
    clique_enumeration,
    parallel_clique_enumeration,
    core_decompositions,
    cp_iterations,
    flow_primitives
);
criterion_main!(substrates);
