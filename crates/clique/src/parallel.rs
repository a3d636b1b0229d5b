//! Node-parallel kClist enumeration over the degeneracy DAG.
//!
//! The standard parallelization of kClist (Danisch et al.; also the
//! shared-memory densest-subgraph algorithms of Fang et al. and
//! De Zoysa et al.) shards the *first* level of the degeneracy DAG:
//! every h-clique has a unique minimum-rank root, so partitioning the
//! roots partitions the cliques, and workers never synchronize inside a
//! sweep. This module implements that scheme on `std::thread::scope`
//! (no external dependency — the build is offline), with each worker
//! owning its own `Scratch` buffers.
//!
//! ## Thread-safety contract
//!
//! * [`par_collect_blocks`]'s `emit` is `Fn + Sync` (not `FnMut` as
//!   the serial [`crate::for_each_clique`]'s callback): it is invoked
//!   concurrently from worker threads, each call filling its own
//!   buffer.
//! * Each shard emits exactly the serial sweep's cliques for its roots;
//!   only the interleaving of shards differs across runs.
//!
//! ## Deterministic merge
//!
//! Everything merge-based is bit-for-bit reproducible and equal to the
//! serial result:
//!
//! * [`par_count_cliques`] folds per-shard `u64` accumulators; integer
//!   addition is exact and commutative, and partials are combined in
//!   shard order, so the result is byte-identical to the serial count.
//! * `collect_members` (behind `CliqueSet::enumerate_with`) stores one
//!   member vector per *block* of consecutive roots and concatenates the
//!   blocks in ascending rank order — the flat member array, and hence
//!   the whole `CliqueSet` (clique ids, incidence index), is identical
//!   to the serial enumeration's.
//!
//! Work is distributed as contiguous rank blocks claimed from an atomic
//! counter: early (low-rank) roots head the largest subtrees, so static
//! striping would load-balance poorly; small self-scheduled blocks keep
//! all workers busy without per-root contention.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::kclist::{build_dag, count_cliques, root_sweep, sweep, Dag, Scratch};
use lhcds_graph::{CsrGraph, VertexId};

/// Thread-count policy for clique enumeration.
///
/// `Parallelism::serial()` (the `Default`) keeps every code path on the
/// single-threaded enumerator. Explicit thread requests
/// ([`Parallelism::threads`]) always engage; [`Parallelism::auto`]
/// resolves to the machine's available parallelism but falls back to
/// serial below a minimum vertex count, where thread startup would
/// dominate the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Requested worker count; `0` = auto-detect.
    threads: usize,
    /// Graphs with fewer vertices run serially.
    min_vertices: usize,
}

impl Parallelism {
    /// Serial fallback threshold used by [`Parallelism::auto`].
    pub const DEFAULT_MIN_VERTICES: usize = 512;

    /// Always single-threaded (identical to the serial enumerator).
    pub fn serial() -> Self {
        Parallelism {
            threads: 1,
            min_vertices: 0,
        }
    }

    /// Exactly `threads` workers regardless of graph size (`0` = auto).
    pub fn threads(threads: usize) -> Self {
        Parallelism {
            threads,
            min_vertices: 0,
        }
    }

    /// Auto-detected worker count with the tiny-graph serial fallback.
    pub fn auto() -> Self {
        Parallelism {
            threads: 0,
            min_vertices: Self::DEFAULT_MIN_VERTICES,
        }
    }

    /// Worker count actually used for a graph with `n` vertices.
    pub fn effective_threads(&self, n: usize) -> usize {
        if n < self.min_vertices {
            return 1;
        }
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        };
        // more workers than roots would only spin on an empty queue
        requested.max(1).min(n.max(1))
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

/// Self-scheduling queue of contiguous first-level rank blocks.
struct BlockQueue {
    next: AtomicUsize,
    block_size: usize,
    n: usize,
}

impl BlockQueue {
    fn new(n: usize, threads: usize) -> Self {
        // ~16 blocks per worker levels out the rank-skewed subtree
        // sizes while keeping the atomic traffic negligible.
        let block_size = (n / (threads * 16)).max(1);
        BlockQueue {
            next: AtomicUsize::new(0),
            block_size,
            n,
        }
    }

    fn blocks(&self) -> usize {
        self.n.div_ceil(self.block_size)
    }

    /// Claims the next unprocessed block: `(block index, rank range)`.
    fn claim(&self) -> Option<(usize, Range<usize>)> {
        let b = self.next.fetch_add(1, Ordering::Relaxed);
        let lo = b * self.block_size;
        if lo >= self.n {
            return None;
        }
        Some((b, lo..(lo + self.block_size).min(self.n)))
    }
}

/// Runs `worker` on `threads` scoped threads and collects each worker's
/// return value in spawn (shard) order.
fn run_workers<T: Send>(threads: usize, worker: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enumeration worker panicked"))
            .collect()
    })
}

/// Multi-threaded [`count_cliques`]: total number of h-cliques of `g`.
///
/// Per-shard `u64` partials are summed in shard order — byte-identical
/// to the serial count.
pub fn par_count_cliques(g: &CsrGraph, h: usize, par: &Parallelism) -> u64 {
    assert!(h >= 1, "h-cliques require h >= 1");
    if g.n() == 0 {
        return 0;
    }
    let threads = par.effective_threads(g.n());
    if threads <= 1 || h == 1 {
        return count_cliques(g, h);
    }
    let dag = build_dag(g);
    let queue = BlockQueue::new(dag.n(), threads);
    run_workers(threads, |_| {
        let mut scratch = Scratch::new(h);
        let mut local = 0u64;
        let mut tally = |_: &[VertexId]| local += 1;
        while let Some((_, ranks)) = queue.claim() {
            for r in ranks {
                root_sweep(&dag, r, h, &mut scratch, &mut tally);
            }
        }
        local
    })
    .into_iter()
    .sum()
}

/// Process-wide tally of threaded block-collect merges.
static PAR_COLLECTS: AtomicU64 = AtomicU64::new(0);

/// Number of block-collect merges that actually took the multi-threaded
/// path since process start ([`par_collect_blocks`] and the kClist
/// member collect behind `CliqueSet::enumerate_with`).
///
/// Monotone telemetry in the spirit of
/// `lhcds_flow::max_flow_invocations`: tests snapshot it around an
/// enumeration to pin that a requested [`Parallelism`] policy was
/// honored rather than silently dropped to serial.
pub fn parallel_collect_invocations() -> u64 {
    PAR_COLLECTS.load(Ordering::Relaxed)
}

/// Deterministic parallel collect over any indexable outer axis.
///
/// Splits `0..n_items` into contiguous self-scheduled blocks, runs
/// `emit(range, buf)` for each block on up to `threads` scoped worker
/// threads (every block filling its own fresh buffer), and concatenates
/// the per-block buffers in ascending block order. Because the blocks
/// tile `0..n_items` in order, the result is byte-identical to a single
/// `emit(0..n_items, buf)` call whenever `emit` appends the same bytes
/// for a sub-range that a full serial scan would append while passing
/// through it — the same merge discipline `CliqueSet::enumerate_with`
/// uses for rank-sharded kClist, exposed so other crates (the pattern
/// enumerators of `lhcds-patterns`) can shard *their* outer loops
/// (vertex / edge / anchor-clique index blocks) under the identical
/// determinism contract.
///
/// With `threads <= 1` (or nothing to do) `emit` is called exactly once
/// on the calling thread over the full range, so serial callers pay no
/// thread or queue overhead.
pub fn par_collect_blocks<F>(n_items: usize, threads: usize, emit: F) -> Vec<VertexId>
where
    F: Fn(Range<usize>, &mut Vec<VertexId>) + Sync,
{
    if threads <= 1 || n_items == 0 {
        let mut out = Vec::new();
        emit(0..n_items, &mut out);
        return out;
    }
    PAR_COLLECTS.fetch_add(1, Ordering::Relaxed);
    let queue = BlockQueue::new(n_items, threads);
    let mut blocks: Vec<Option<Vec<VertexId>>> = (0..queue.blocks()).map(|_| None).collect();
    let per_worker = run_workers(threads, |_| {
        let mut mine: Vec<(usize, Vec<VertexId>)> = Vec::new();
        while let Some((b, range)) = queue.claim() {
            let mut buf: Vec<VertexId> = Vec::new();
            emit(range, &mut buf);
            mine.push((b, buf));
        }
        mine
    });
    for (b, buf) in per_worker.into_iter().flatten() {
        debug_assert!(blocks[b].is_none(), "block {b} claimed twice");
        blocks[b] = Some(buf);
    }
    let total: usize = blocks.iter().flatten().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for block in blocks.into_iter().flatten() {
        out.extend_from_slice(&block);
    }
    out
}

/// Flat member array of every h-clique (`h ≥ 2`), in the *serial*
/// enumeration order, swept on `threads` workers. Backs
/// `CliqueSet::enumerate_with`.
///
/// Workers collect one member vector per claimed block; blocks cover
/// contiguous ascending rank ranges, so concatenating them by block
/// index reproduces the serial order exactly (clique ids and the
/// incidence index of the resulting store are byte-identical).
pub(crate) fn collect_members(dag: &Dag, h: usize, threads: usize) -> Vec<VertexId> {
    debug_assert!(h >= 2);
    if threads <= 1 {
        let mut members = Vec::new();
        sweep(dag, h, &mut |c: &[VertexId]| members.extend_from_slice(c));
        return members;
    }
    PAR_COLLECTS.fetch_add(1, Ordering::Relaxed);
    let queue = BlockQueue::new(dag.n(), threads);
    let mut blocks: Vec<Option<Vec<VertexId>>> = (0..queue.blocks()).map(|_| None).collect();
    let per_worker = run_workers(threads, |_| {
        let mut scratch = Scratch::new(h);
        let mut mine: Vec<(usize, Vec<VertexId>)> = Vec::new();
        while let Some((b, ranks)) = queue.claim() {
            let mut members: Vec<VertexId> = Vec::new();
            let mut push = |c: &[VertexId]| members.extend_from_slice(c);
            for r in ranks {
                root_sweep(dag, r, h, &mut scratch, &mut push);
            }
            mine.push((b, members));
        }
        mine
    });
    for (b, members) in per_worker.into_iter().flatten() {
        debug_assert!(blocks[b].is_none(), "block {b} claimed twice");
        blocks[b] = Some(members);
    }
    let total: usize = blocks.iter().flatten().map(Vec::len).sum();
    let mut members = Vec::with_capacity(total);
    for block in blocks.into_iter().flatten() {
        members.extend_from_slice(&block);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_policy_is_one_thread() {
        assert_eq!(Parallelism::serial().effective_threads(1_000_000), 1);
        assert_eq!(Parallelism::default(), Parallelism::serial());
    }

    #[test]
    fn explicit_threads_always_engage() {
        let p = Parallelism::threads(4);
        assert_eq!(p.effective_threads(10), 4);
        // ... but never exceed the root count
        assert_eq!(p.effective_threads(2), 2);
        assert_eq!(p.effective_threads(0), 1);
    }

    #[test]
    fn auto_falls_back_to_serial_on_tiny_graphs() {
        let p = Parallelism::auto();
        assert_eq!(
            p.effective_threads(Parallelism::DEFAULT_MIN_VERTICES - 1),
            1
        );
        assert!(p.effective_threads(Parallelism::DEFAULT_MIN_VERTICES) >= 1);
    }

    #[test]
    fn block_queue_partitions_exactly() {
        for (n, threads) in [(1usize, 4usize), (7, 2), (1000, 3), (64, 64)] {
            let q = BlockQueue::new(n, threads);
            let mut seen = vec![false; n];
            let mut last_block = None;
            while let Some((b, ranks)) = q.claim() {
                if let Some(prev) = last_block {
                    assert_eq!(b, prev + 1, "blocks must come out in order");
                }
                last_block = Some(b);
                for r in ranks {
                    assert!(!seen[r], "rank {r} dealt twice");
                    seen[r] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n} threads={threads}");
            assert!(q.claim().is_none(), "queue must stay exhausted");
        }
    }

    #[test]
    fn par_collect_blocks_matches_serial_scan() {
        // emit: each index contributes `index` copies of itself, so any
        // block-boundary mistake shifts bytes visibly.
        let emit = |r: Range<usize>, buf: &mut Vec<VertexId>| {
            for i in r {
                for _ in 0..i {
                    buf.push(i as VertexId);
                }
            }
        };
        let mut serial = Vec::new();
        emit(0..100, &mut serial);
        for threads in [1usize, 2, 3, 4, 8, 64] {
            assert_eq!(
                par_collect_blocks(100, threads, emit),
                serial,
                "threads={threads}"
            );
        }
        assert!(par_collect_blocks(0, 4, emit).is_empty());
    }

    #[test]
    fn zero_sized_inputs() {
        let g = CsrGraph::from_edges(0, []);
        let p = Parallelism::threads(4);
        assert_eq!(par_count_cliques(&g, 3, &p), 0);
        assert!(collect_members(&build_dag(&g), 3, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "h >= 1")]
    fn zero_h_panics_in_parallel_too() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        par_count_cliques(&g, 0, &Parallelism::threads(2));
    }
}
