//! The convex program `CP(G, h)` and its SEQ-kClist++ solver (§4.2.2).
//!
//! Each h-clique distributes one unit of weight among its `h` member
//! vertices (`α[u, ψ] ≥ 0`, `Σ_{u∈ψ} α[u,ψ] = 1`); `r(u)` is the total
//! weight landing on `u`. `CP(G,h)` minimizes `Σ_u r(u)²`, and at the
//! optimum `r*(u)` equals the h-clique compact number `φh(u)`
//! (Theorem 2). SEQ-kClist++ (Sun et al., adapted as the paper's
//! Algorithm 2 lines 5–13) approximates the optimum with Frank–Wolfe
//! style rounds: at round `t` all weights shrink by `1 − γ_t`
//! (`γ_t = 1/(t+1)`) and each clique donates `γ_t` to its currently
//! poorest member — updating `r` *sequentially* within the round, which
//! converges markedly faster than the batch variant and needs no second
//! weight array.

use lhcds_clique::CliqueSet;

/// A feasible solution `(α, r)` of `CP(G, h)`.
#[derive(Debug, Clone)]
pub struct CpState {
    /// `alpha[i*h + j]` = weight clique `i` assigns to its j-th member.
    pub alpha: Vec<f64>,
    /// `r[u]` = Σ of alpha over cliques containing `u`.
    pub r: Vec<f64>,
}

impl CpState {
    /// `α` entries of clique `i`.
    #[inline]
    pub fn alpha_of(&self, h: usize, i: usize) -> &[f64] {
        &self.alpha[i * h..(i + 1) * h]
    }

    /// Recomputes `r` from `alpha` (used after redistribution).
    pub fn recompute_r(&mut self, cliques: &CliqueSet) {
        let h = cliques.h();
        self.r.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..cliques.len() {
            for (j, &v) in cliques.members(i).iter().enumerate() {
                self.r[v as usize] += self.alpha[i * h + j];
            }
        }
    }
}

/// Runs `iterations` rounds of SEQ-kClist++ and returns the feasible
/// solution. With `iterations == 0` this is the uniform initialization
/// (`α = 1/h`, `r(u) = deg(u, ψh)/h`).
///
/// The rounds run on one thread. The donation loop is a strict chain —
/// clique `i`'s argmin reads the `r` updates of every earlier clique in
/// the same round, the "SEQ" that makes it converge faster than the
/// batch variant — and splitting the element-wise shrink across threads
/// measured no faster on two CPUs, even at 158,909 instances.
pub fn seq_kclist_pp(cliques: &CliqueSet, iterations: usize) -> CpState {
    let h = cliques.h();
    let count = cliques.len();
    let mut alpha = vec![1.0 / h as f64; count * h];
    let mut r: Vec<f64> = (0..cliques.n() as u32)
        .map(|v| cliques.degree(v) as f64 / h as f64)
        .collect();

    for t in 1..=iterations {
        let gamma = 1.0 / (t as f64 + 1.0);
        let keep = 1.0 - gamma;
        alpha.iter_mut().for_each(|x| *x *= keep);
        r.iter_mut().for_each(|x| *x *= keep);
        for i in 0..count {
            let members = cliques.members(i);
            // argmin r over members (first minimum wins, deterministic)
            let mut jmin = 0usize;
            let mut rmin = r[members[0] as usize];
            for (j, &v) in members.iter().enumerate().skip(1) {
                let rv = r[v as usize];
                if rv < rmin {
                    rmin = rv;
                    jmin = j;
                }
            }
            alpha[i * h + jmin] += gamma;
            r[members[jmin] as usize] += gamma;
        }
    }

    CpState { alpha, r }
}

/// [`seq_kclist_pp`] under its former threaded name; `threads` is
/// ignored. Kept only because the benchmark package imports it; it goes
/// with the next change under `benchmark/`.
#[doc(hidden)]
pub fn seq_kclist_pp_threaded(cliques: &CliqueSet, iterations: usize, _threads: usize) -> CpState {
    seq_kclist_pp(cliques, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::{CsrGraph, GraphBuilder};

    fn complete(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Weight conservation: Σ_u r(u) = |Ψh| after any number of rounds.
    #[test]
    fn r_mass_is_conserved() {
        let g = complete(6);
        let cs = CliqueSet::enumerate(&g, 3);
        for iters in [0, 1, 5, 40] {
            let st = seq_kclist_pp(&cs, iters);
            let total: f64 = st.r.iter().sum();
            assert!(
                (total - cs.len() as f64).abs() < 1e-9,
                "iters={iters}: Σr = {total}, |Ψ| = {}",
                cs.len()
            );
        }
    }

    /// Per-clique feasibility: Σ_{u∈ψ} α[u,ψ] = 1.
    #[test]
    fn alpha_rows_sum_to_one() {
        let g = complete(5);
        let cs = CliqueSet::enumerate(&g, 3);
        let st = seq_kclist_pp(&cs, 25);
        for i in 0..cs.len() {
            let s: f64 = st.alpha_of(3, i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "clique {i}: Σα = {s}");
            assert!(st.alpha_of(3, i).iter().all(|&a| a >= 0.0));
        }
    }

    /// On a vertex-transitive graph the optimum is uniform: r*(u) =
    /// |Ψ|·h / (h·n) = |Ψ|/n for all u; SEQ-kClist++ should approach it.
    #[test]
    fn converges_to_uniform_on_complete_graph() {
        let g = complete(6);
        let cs = CliqueSet::enumerate(&g, 3);
        let st = seq_kclist_pp(&cs, 200);
        let expect = cs.len() as f64 / 6.0; // 20/6
        for &rv in &st.r {
            assert!((rv - expect).abs() < 0.15, "r = {rv}, expected ≈ {expect}");
        }
    }

    /// Figure 4 of the paper: in K5 with h = 3, the optimal r*(v) = 2
    /// for every vertex.
    #[test]
    fn figure4_k5_r_star_is_two() {
        let g = complete(5);
        let cs = CliqueSet::enumerate(&g, 3);
        let st = seq_kclist_pp(&cs, 300);
        for &rv in &st.r {
            assert!((rv - 2.0).abs() < 0.1, "r = {rv}");
        }
    }

    /// Two cliques of different sizes: r separates the dense region
    /// (higher r) from the sparse one after a few rounds.
    #[test]
    fn separates_dense_from_sparse() {
        // K5 on 0..5 and a lone triangle 5-6-7.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(5, 6).add_edge(6, 7).add_edge(7, 5);
        let cs = CliqueSet::enumerate(&b.build(), 3);
        let st = seq_kclist_pp(&cs, 50);
        let min_dense = st.r[0..5].iter().cloned().fold(f64::MAX, f64::min);
        let max_sparse = st.r[5..8].iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            min_dense > max_sparse,
            "dense {min_dense} should exceed sparse {max_sparse}"
        );
    }

    #[test]
    fn recompute_r_matches_incremental() {
        let g = complete(6);
        let cs = CliqueSet::enumerate(&g, 4);
        let mut st = seq_kclist_pp(&cs, 13);
        let incremental = st.r.clone();
        st.recompute_r(&cs);
        for (a, b) in incremental.iter().zip(&st.r) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// SEQ-kClist++ iterates cliques in store order, so the run is only
    /// reproducible because a parallel-enumerated store is byte-identical
    /// to the serial one — assert that contract end-to-end here.
    #[test]
    fn parallel_store_reproduces_cp_state_exactly() {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in u + 1..8 {
                if (u + v) % 3 != 0 {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build();
        let serial = seq_kclist_pp(&CliqueSet::enumerate(&g, 3), 25);
        for t in [2usize, 4] {
            let cs = CliqueSet::enumerate_with(&g, 3, &lhcds_clique::Parallelism::threads(t));
            let par = seq_kclist_pp(&cs, 25);
            // bit-for-bit, not approximately: same store order ⇒ same
            // float operation sequence
            assert_eq!(par.r, serial.r, "threads={t}");
            assert_eq!(par.alpha, serial.alpha, "threads={t}");
        }
    }

    #[test]
    fn empty_clique_set_is_fine() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2)]);
        let cs = CliqueSet::enumerate(&g, 3);
        let st = seq_kclist_pp(&cs, 10);
        assert!(st.r.iter().all(|&x| x == 0.0));
        assert!(st.alpha.is_empty());
    }
}
