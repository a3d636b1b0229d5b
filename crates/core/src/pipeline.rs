//! The IPPV top-k driver (Algorithm 6) — exact top-k LhCDS discovery.
//!
//! ## Structure
//!
//! **Propose** — enumerate h-cliques, initialize compact-number bounds
//! from `(k, ψh)`-cores (Alg. 1), run SEQ-kClist++ (Alg. 2), decompose
//! tentatively (`TentativeGD`), derive stable groups (`DeriveSG`) and
//! tighten bounds (Thm. 4). **Prune** — drop vertices provably in no
//! LhCDS (Prop. 5). **Verify** — process candidate regions from the
//! densest down; inside each region an exact local densest
//! decomposition (Goldberg-style, [`crate::compact`]) extracts the
//! maximal locally-dense components, which the fast verifier
//! ([`crate::verify`]) accepts or rejects against the *full* graph.
//!
//! ## Exactness invariants (Theorem 7 analog)
//!
//! * every emitted subgraph is verified `ρ`-compact, connected and
//!   maximal by exact integer min-cuts — no float ever decides an
//!   output;
//! * emission order is exact: a verified subgraph is emitted only once
//!   its density dominates the (valid) upper bound of every vertex
//!   still in play, or when no candidates remain (then the buffer is
//!   flushed in exact density order);
//! * no LhCDS is lost: non-pruned vertices always belong to some
//!   candidate; failed candidates are refined (split along the local
//!   decomposition), grown (replaced by the maximal `ρ`-compact
//!   superset the verifier returns), or — only with a proof — killed.
//!   The kill proof: when a candidate region covers a whole connected
//!   component of the remaining universe (the *escalated* state) and
//!   the verifier's superset adds only already-output vertices, any
//!   LhCDS through the candidate would need density above the
//!   component's maximum subgraph density — impossible.
//!
//! Zero-density regions (no h-clique) are never reported: a
//! "locally densest" subgraph without a single h-clique is the trivial
//! whole-component answer and carries no signal.
//!
//! ## Parallel verification
//!
//! The flow-heavy head of every candidate verification — the exact
//! local densest decomposition — is a *pure* function of the component
//! vertex list: it reads only the immutable clique store and builds a
//! private [`InstanceSolver`]. When [`IppvConfig::parallelism`] grants
//! more than one thread, the driver therefore runs these decompositions
//! speculatively on a work-stealing worker pool over the pending
//! candidate stream (each worker owns its flow scratch — one fresh
//! solver per component, never a shared network), caches the results
//! keyed by the exact component, and *commits* verdicts strictly in the
//! serial processing order on the driver thread. A cache hit is always
//! exact (purity), a changed candidate simply misses and recomputes, and
//! the mutable verification state — bounds, output mask, the shared
//! fast-verifier network — is only ever touched by the commit thread.
//! Outputs are byte-identical at every thread count; only wall time and
//! the speculative flow-work counters change.

use crate::bounds::{initialize_bounds, Bounds, DEFAULT_SLACK};
use crate::compact::{local_instance, InstanceSolver};
use crate::cp::seq_kclist_pp;
use crate::decompose::tentative_gd;
use crate::prune::prune;
use crate::stable::derive_stable_groups;
use crate::verify::{verify_fast_with, SupportVerifier, Verdict};
use lhcds_clique::{CliqueSet, Parallelism};
use lhcds_flow::Ratio;
use lhcds_graph::traversal::components_within;
use lhcds_graph::{CsrGraph, VertexId};

/// Tuning knobs of the IPPV pipeline. Defaults match the paper's
/// experimental configuration (`T = 20` CP iterations, fast
/// verification).
#[derive(Debug, Clone)]
pub struct IppvConfig {
    /// Number of SEQ-kClist++ rounds (`T`; Figure 16 sweeps this).
    pub cp_iterations: usize,
    /// Use the reduced-network fast verifier (Algorithm 5) instead of
    /// the full-graph basic verifier (Algorithm 4).
    pub fast_verify: bool,
    /// Safety slack around float-derived bounds (see [`crate::bounds`]).
    pub bound_slack: f64,
    /// Run the convex-program proposal stage (SEQ-kClist++ +
    /// TentativeGD + DeriveSG). Disabling it starts from one whole-graph
    /// candidate with only core-based bounds — the configuration of the
    /// flow-only baselines (LDSflow / LTDS) in `lhcds-baselines`.
    pub use_cp: bool,
    /// Apply Proposition 5 pruning.
    pub use_prune: bool,
    /// Thread policy shared by the h-clique enumeration stage and the
    /// post-enumeration verification stream (speculative parallel local
    /// decompositions; see the module docs). Every stage is
    /// byte-identical for every policy, so this setting affects wall
    /// time only, never results.
    pub parallelism: Parallelism,
}

impl Default for IppvConfig {
    fn default() -> Self {
        IppvConfig {
            cp_iterations: 20,
            fast_verify: true,
            bound_slack: DEFAULT_SLACK,
            use_cp: true,
            use_prune: true,
            parallelism: Parallelism::serial(),
        }
    }
}

/// One verified locally h-clique densest subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lhcds {
    /// Member vertices, ascending.
    pub vertices: Vec<VertexId>,
    /// Exact h-clique density `|Ψh(G[S])| / |S|`.
    pub density: Ratio,
    /// Number of h-cliques inside the subgraph.
    pub clique_count: u64,
}

/// Stage timings and work counters (Figure 10 / Figure 15 material).
#[derive(Debug, Clone, Default)]
pub struct IppvStats {
    /// Clique size h.
    pub h: usize,
    /// Number of h-cliques enumerated.
    pub clique_count: usize,
    /// Milliseconds enumerating cliques.
    pub clique_ms: f64,
    /// Milliseconds in SEQ-kClist++.
    pub cp_ms: f64,
    /// Milliseconds in TentativeGD + DeriveSG.
    pub decompose_ms: f64,
    /// Milliseconds in pruning.
    pub prune_ms: f64,
    /// Milliseconds in verification (local decompositions + verifier).
    pub verify_ms: f64,
    /// Vertices removed by pruning.
    pub pruned_vertices: usize,
    /// Stable groups proposed by the first decomposition.
    pub initial_candidates: usize,
    /// Local densest decompositions run.
    pub local_decompositions: usize,
    /// Local decompositions served from the speculative parallel wave
    /// cache instead of being computed inline (0 on serial runs).
    pub prefetched_decompositions: usize,
    /// Verification calls.
    pub verifications: usize,
    /// Verifications decided by `DeriveCompact` (a flow network solve
    /// or a memo hit on the shared fast verifier).
    pub flow_verifications: usize,
    /// Flow verifications the shared fast verifier answered from its
    /// `(ρ, T)` memo without a solve.
    pub memo_hits: usize,
    /// Fast-verifier shortcut accepts (no flow).
    pub shortcut_accepts: usize,
    /// Fast-verifier early rejects (no flow needed for the verdict).
    pub early_rejects: usize,
    /// Candidates replaced by a strictly larger compact superset.
    pub absorptions: usize,
    /// Escalations (global reprocessing rounds).
    pub escalations: usize,
    /// Vertices proven to belong to no LhCDS during verification.
    pub killed_vertices: usize,
}

/// Result of a top-k run.
#[derive(Debug, Clone)]
pub struct IppvResult {
    /// The top-k LhCDSes, ordered by density descending (ties broken by
    /// smallest member id for determinism).
    pub subgraphs: Vec<Lhcds>,
    /// Stage statistics.
    pub stats: IppvStats,
}

/// Discovers the top-k locally h-clique densest subgraphs of `g`.
///
/// `h ≥ 2` (h-cliques degenerate to vertices at `h = 1`). Use
/// `k = usize::MAX` to list every LhCDS.
pub fn top_k_lhcds(g: &CsrGraph, h: usize, k: usize, cfg: &IppvConfig) -> IppvResult {
    top_k_enumerated(g, h, k, cfg, true)
}

/// [`top_k_lhcds`] with every flow-deciding fast verification on its own
/// per-candidate reduced network (`verify_fast_with(.., None)`) instead
/// of the shared memoized [`SupportVerifier`]: the oracle the production
/// path is tested against. Same driver, same verify schedule, same
/// answers; only the flow work differs.
#[doc(hidden)]
pub fn top_k_reference(g: &CsrGraph, h: usize, k: usize, cfg: &IppvConfig) -> IppvResult {
    top_k_enumerated(g, h, k, cfg, false)
}

fn top_k_enumerated(
    g: &CsrGraph,
    h: usize,
    k: usize,
    cfg: &IppvConfig,
    share_fast: bool,
) -> IppvResult {
    assert!(h >= 2, "LhCDS requires h >= 2 (h = 2 is the classic LDS)");
    let sp = lhcds_obs::span("enumerate");
    let cliques = CliqueSet::enumerate_with(g, h, &cfg.parallelism);
    let clique_ms = sp.elapsed_ms();
    sp.counter("cliques", cliques.len() as u64);
    drop(sp);
    let mut res = run_pipeline(g, &cliques, k, cfg, share_fast);
    res.stats.clique_ms = clique_ms;
    res
}

/// Same as [`top_k_lhcds`] but with a pre-built instance store. This is
/// the entry point `lhcds-patterns` uses to run the pipeline on general
/// pattern instances (Algorithm 7): any [`CliqueSet`]-shaped store of
/// h-vertex instances works, because every stage only consumes
/// membership and incidence.
pub fn top_k_with_instances(
    g: &CsrGraph,
    cliques: &CliqueSet,
    k: usize,
    cfg: &IppvConfig,
) -> IppvResult {
    run_pipeline(g, cliques, k, cfg, true)
}

fn run_pipeline(
    g: &CsrGraph,
    cliques: &CliqueSet,
    k: usize,
    cfg: &IppvConfig,
    share_fast: bool,
) -> IppvResult {
    assert_eq!(cliques.n(), g.n(), "instance store does not match graph");
    let mut stats = IppvStats {
        h: cliques.h(),
        clique_count: cliques.len(),
        ..IppvStats::default()
    };
    if cliques.is_empty() || k == 0 {
        return IppvResult {
            subgraphs: Vec::new(),
            stats,
        };
    }

    // ---- Propose -------------------------------------------------
    let mut bounds = initialize_bounds(cliques, cfg.bound_slack);

    let groups: Vec<Vec<VertexId>> = if cfg.use_cp {
        let sp = lhcds_obs::span("cp");
        let mut state = seq_kclist_pp(cliques, cfg.cp_iterations);
        stats.cp_ms = sp.elapsed_ms();
        sp.counter("iterations", cfg.cp_iterations as u64);
        drop(sp);

        let sp = lhcds_obs::span("decompose");
        let decomp = tentative_gd(cliques, &mut state);
        let stable = derive_stable_groups(cliques, &state, &decomp, &mut bounds);
        stats.decompose_ms = sp.elapsed_ms();
        sp.counter("groups", stable.groups.len() as u64);
        drop(sp);
        stable.groups
    } else {
        // flow-only baseline: one whole-graph candidate
        vec![g.vertices().collect()]
    };
    stats.initial_candidates = groups.len();

    // ---- Prune ---------------------------------------------------
    let sp = lhcds_obs::span("prune");
    let mut eligible = vec![true; g.n()];
    // Vertices in no h-clique at all can never join an LhCDS (every
    // member of a positive-density compact subgraph loses at least one
    // clique when removed, so it must be in one). This cheap exact rule
    // clears the sparse background regardless of `use_prune`.
    for (v, e) in eligible.iter_mut().enumerate() {
        if cliques.degree(v as VertexId) == 0 {
            *e = false;
            stats.pruned_vertices += 1;
        }
    }
    if cfg.use_prune {
        stats.pruned_vertices += prune(g, cliques, &bounds, &mut eligible);
    }
    let pruned: Vec<bool> = eligible.iter().map(|&e| !e).collect();
    stats.prune_ms = sp.elapsed_ms();
    sp.counter("pruned_vertices", stats.pruned_vertices as u64);
    drop(sp);

    // ---- Verify (candidate loop) ----------------------------------
    let sp = lhcds_obs::span("verify");
    // Emission-bound order: eligible vertices by descending upper bound.
    let mut ub_order: Vec<VertexId> = (0..g.n() as VertexId)
        .filter(|&v| !pruned[v as usize])
        .collect();
    ub_order
        .sort_unstable_by(|&a, &b| bounds.upper[b as usize].total_cmp(&bounds.upper[a as usize]));
    let mut driver = Driver {
        g,
        cliques,
        cfg,
        bounds,
        pruned,
        ub_order,
        ub_cursor: 0,
        output: vec![false; g.n()],
        killed: vec![false; g.n()],
        owner: vec![NO_OWNER; g.n()],
        next_id: 0,
        stack: Vec::new(),
        stuck: Vec::new(),
        failed_memo: std::collections::HashSet::new(),
        buffer: Vec::new(),
        results: Vec::new(),
        support: None,
        share_fast,
        threads: cfg.parallelism.effective_threads(g.n()),
        decomp_cache: std::collections::HashMap::new(),
        stats: &mut stats,
    };
    // highest-r group on top of the stack
    for group in groups.iter().rev() {
        let verts: Vec<VertexId> = group
            .iter()
            .copied()
            .filter(|&v| !driver.pruned[v as usize])
            .collect();
        if !verts.is_empty() {
            driver.push_candidate(verts, false);
        }
    }
    driver.run(k);
    let results = std::mem::take(&mut driver.results);
    stats.verify_ms = sp.elapsed_ms();
    sp.counter("verifications", stats.verifications as u64);
    sp.counter("flow_verifications", stats.flow_verifications as u64);
    sp.counter("memo_hits", stats.memo_hits as u64);
    sp.counter("local_decompositions", stats.local_decompositions as u64);
    sp.counter("prefetched", stats.prefetched_decompositions as u64);
    drop(sp);

    IppvResult {
        subgraphs: results,
        stats,
    }
}

const NO_OWNER: u32 = u32::MAX;

struct Candidate {
    id: u32,
    verts: Vec<VertexId>,
    /// Whether this candidate covers entire connected components of the
    /// remaining universe — the state in which failed verifications may
    /// exactly *kill* vertices instead of deferring them.
    escalated: bool,
}

struct Driver<'a> {
    g: &'a CsrGraph,
    cliques: &'a CliqueSet,
    cfg: &'a IppvConfig,
    bounds: Bounds,
    pruned: Vec<bool>,
    /// Non-pruned vertices by descending upper bound, and the position
    /// of the first one that may still be eligible. During verify an
    /// upper bound only changes on a vertex that turns into an output,
    /// and the eligible set only shrinks, so the maximum eligible bound
    /// is found by advancing the cursor (amortised O(n) per run).
    ub_order: Vec<VertexId>,
    ub_cursor: usize,
    output: Vec<bool>,
    killed: Vec<bool>,
    owner: Vec<u32>,
    next_id: u32,
    stack: Vec<Candidate>,
    stuck: Vec<Candidate>,
    buffer: Vec<Lhcds>,
    results: Vec<Lhcds>,
    /// Failed verifications seen so far. A candidate that fails twice
    /// with the same `(vertices, ρ)` is cycling through absorption (its
    /// blocking superset weaves through already-output regions); it is
    /// deferred and later resolved exactly in escalated mode.
    failed_memo: std::collections::HashSet<(Vec<VertexId>, Ratio)>,
    /// The one clique-support network both verifiers solve on, built
    /// lazily on the first flow-deciding verification, so it is
    /// constructed once per run, not once per verification.
    support: Option<SupportVerifier>,
    /// Whether the fast verifier uses `support` (false only for
    /// [`top_k_reference`], the per-candidate oracle).
    share_fast: bool,
    /// Worker threads for the verification stream (1 = serial driver).
    threads: usize,
    /// Pure local-decomposition results computed speculatively by the
    /// wave workers, keyed by the exact component vertex list. A hit is
    /// always exact; a component whose live set changed simply misses.
    decomp_cache: std::collections::HashMap<Vec<VertexId>, Option<(Ratio, Vec<bool>)>>,
    stats: &'a mut IppvStats,
}

impl<'a> Driver<'a> {
    fn push_candidate(&mut self, verts: Vec<VertexId>, escalated: bool) {
        debug_assert!(!verts.is_empty());
        let id = self.next_id;
        self.next_id += 1;
        for &v in &verts {
            self.owner[v as usize] = id;
        }
        self.stack.push(Candidate {
            id,
            verts,
            escalated,
        });
    }

    /// Vertices of `cand` still owned by it and not yet output.
    fn live_verts(&self, cand: &Candidate) -> Vec<VertexId> {
        cand.verts
            .iter()
            .copied()
            .filter(|&v| self.owner[v as usize] == cand.id && !self.output[v as usize])
            .collect()
    }

    /// Upper bound on the density of any *future* LhCDS: max valid
    /// upper bound over vertices that may still appear in one.
    fn remaining_upper_bound(&mut self) -> f64 {
        let eligible = |d: &Self, v: usize| !d.output[v] && !d.killed[v] && !d.pruned[v];
        while let Some(&v) = self.ub_order.get(self.ub_cursor) {
            if eligible(self, v as usize) {
                break;
            }
            self.ub_cursor += 1;
        }
        let ub = self
            .ub_order
            .get(self.ub_cursor)
            .map_or(f64::NEG_INFINITY, |&v| self.bounds.upper[v as usize]);
        debug_assert_eq!(
            ub,
            (0..self.g.n())
                .filter(|&v| eligible(self, v))
                .map(|v| self.bounds.upper[v])
                .fold(f64::NEG_INFINITY, f64::max),
            "incremental emission bound diverged from the full scan"
        );
        ub
    }

    fn flush_buffer(&mut self, k: usize, force: bool) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_by(|a, b| {
            b.density
                .cmp(&a.density)
                .then_with(|| a.vertices[0].cmp(&b.vertices[0]))
        });
        let ub = if force {
            f64::NEG_INFINITY
        } else {
            self.remaining_upper_bound()
        };
        while self.results.len() < k {
            match self.buffer.first() {
                Some(top) if force || top.density.to_f64() >= ub - 1e-12 => {
                    self.results.push(self.buffer.remove(0));
                }
                _ => break,
            }
        }
    }

    fn run(&mut self, k: usize) {
        // Safety valve: the refinement loop provably terminates, but a
        // generous cap turns a logic regression into a loud failure
        // instead of a hang.
        let mut fuel = 64 * self.g.n() + 4096;
        while self.results.len() < k {
            assert!(
                {
                    fuel -= 1;
                    fuel > 0
                },
                "IPPV refinement loop exceeded its fuel budget — this is a bug"
            );
            self.flush_buffer(k, false);
            if self.results.len() >= k {
                break;
            }
            let cand = match self.stack.pop() {
                Some(c) => c,
                None => {
                    if self.stuck.is_empty() {
                        self.flush_buffer(k, true);
                        break;
                    }
                    // Escalate: merge all deferred candidates; their
                    // union covers whole remaining components, enabling
                    // the exact kill rule.
                    self.stats.escalations += 1;
                    let stuck = std::mem::take(&mut self.stuck);
                    let mut verts: Vec<VertexId> = Vec::new();
                    for c in &stuck {
                        verts.extend(self.live_verts(c));
                    }
                    verts.sort_unstable();
                    verts.dedup();
                    if verts.is_empty() {
                        self.flush_buffer(k, true);
                        break;
                    }
                    self.push_candidate(verts, true);
                    continue;
                }
            };
            let verts = self.live_verts(&cand);
            if verts.is_empty() {
                continue;
            }
            let comps = components_within(self.g, &verts);
            if comps.len() > 1 {
                // split; each piece inherits the escalated flag (each is
                // a whole component of the remaining universe iff the
                // parent covered whole components)
                for comp in comps.into_iter().rev() {
                    self.push_candidate(comp, cand.escalated);
                }
                continue;
            }
            let comp = comps.into_iter().next().expect("nonempty candidate");
            self.process_component(comp, cand.escalated);
        }
        self.flush_buffer(k, self.stack.is_empty() && self.stuck.is_empty());
    }

    /// Pure flow-heavy head of a component's verification: builds a
    /// private solver over the component and runs its exact local
    /// densest decomposition. No driver state is read or written, which
    /// is what lets the wave workers run this concurrently.
    fn decompose_component(
        cliques: &CliqueSet,
        comp: &[VertexId],
        parent: lhcds_obs::SpanId,
    ) -> Option<(Ratio, Vec<bool>)> {
        // Explicit parent id: wave workers run this on scoped threads,
        // where the tracer's thread-local nesting would otherwise lose
        // the verify-phase attribution.
        let sp = lhcds_obs::span_under(parent, "local-decompose");
        sp.counter("vertices", comp.len() as u64);
        // no h-clique fits in fewer than h vertices
        if comp.len() < cliques.h() {
            return None;
        }
        // One reusable network serves the component's whole Goldberg
        // ladder (every ρ-probe of the local densest decomposition).
        let (inst, map) = {
            let _sp = lhcds_obs::span("local-instance");
            local_instance(cliques, comp)
        };
        debug_assert_eq!(map, comp, "components are sorted and unique");
        InstanceSolver::new(inst).densest_decomposition()
    }

    /// Speculative verification wave: the component about to be
    /// processed missed the cache, so its decomposition must run now —
    /// run it together with the pending stack candidates' components on
    /// a work-stealing pool (a shared claim counter over the target
    /// list; idle workers steal the next unclaimed component). Each
    /// worker builds its own [`InstanceSolver`] per component — the
    /// per-worker flow-scratch rule — and the driver thread commits the
    /// results in its unchanged serial order, so outputs stay
    /// byte-identical.
    fn prefetch_decompositions(&mut self, first: &[VertexId]) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut targets: Vec<Vec<VertexId>> = vec![first.to_vec()];
        let mut seen: std::collections::HashSet<Vec<VertexId>> = targets.iter().cloned().collect();
        for cand in self.stack.iter().rev() {
            let verts = self.live_verts(cand);
            if verts.is_empty() {
                continue;
            }
            for comp in components_within(self.g, &verts) {
                if !self.decomp_cache.contains_key(&comp) && seen.insert(comp.clone()) {
                    targets.push(comp);
                }
            }
        }
        let workers = self.threads.min(targets.len());
        let cliques = self.cliques;
        let next = AtomicUsize::new(0);
        let targets_ref = &targets;
        let wave_parent = lhcds_obs::current();
        type WaveBatch = Vec<(usize, Option<(Ratio, Vec<bool>)>)>;
        let collected: Vec<WaveBatch> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut acc = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= targets_ref.len() {
                                break;
                            }
                            acc.push((
                                i,
                                Self::decompose_component(cliques, &targets_ref[i], wave_parent),
                            ));
                        }
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verification wave worker panicked"))
                .collect()
        });
        for (i, res) in collected.into_iter().flatten() {
            self.decomp_cache
                .insert(std::mem::take(&mut targets[i]), res);
        }
    }

    fn process_component(&mut self, comp: Vec<VertexId>, escalated: bool) {
        self.stats.local_decompositions += 1;
        if self.threads > 1 && !self.stack.is_empty() && !self.decomp_cache.contains_key(&comp) {
            self.prefetch_decompositions(&comp);
        }
        let decomp = match self.decomp_cache.remove(&comp) {
            Some(d) => {
                self.stats.prefetched_decompositions += 1;
                d
            }
            None => Self::decompose_component(self.cliques, &comp, lhcds_obs::current()),
        };
        let Some((rho_star, members)) = decomp else {
            // No h-clique inside this component.
            if escalated {
                self.kill(&comp);
            } else {
                self.defer(comp);
            }
            return;
        };
        let (mut u, mut rest) = (Vec::new(), Vec::new());
        for (&v, &m) in comp.iter().zip(&members) {
            if m { &mut u } else { &mut rest }.push(v);
        }
        if !rest.is_empty() {
            // Extracting U breaks the whole-component property of rest.
            self.push_candidate(rest, false);
        }
        for m in components_within(self.g, &u) {
            self.verify_candidate(m, rho_star, &comp, escalated);
        }
    }

    /// Verifies one maximal locally-dense component `m` (density exactly
    /// `rho`, `ρ`-compact, connected — guaranteed by the local densest
    /// decomposition over `comp`, sorted ascending).
    ///
    /// On rejection the verifier hands back `X`, the maximal `ρ`-compact
    /// subgraph of `G` containing `m`. Every not-yet-found LhCDS `L`
    /// touching `m` satisfies `L ⊆ X` (its density is `≥ ρ`, so it is
    /// `ρ`-compact and merges with `X` unless contained), avoids output
    /// and killed vertices, and is connected — so `L` lives inside the
    /// connected component `C` of `X ∖ outputs` that contains `m`.
    /// Therefore:
    ///
    /// * if `C` offers no *eligible* vertex outside the decomposed
    ///   component, then `L ⊆ comp`, hence `d(L) ≤ ρ`; combined with
    ///   `m` being the maximal `ρ`-compact component of `comp` this
    ///   forces `L ⊆ m`, and `m` itself is not maximal — no such `L`
    ///   exists and `m`'s vertices are killed (exact);
    /// * otherwise `C` is pushed as a replacement candidate — strict
    ///   progress, since it co-locates `m` with new territory.
    fn verify_candidate(
        &mut self,
        m: Vec<VertexId>,
        rho: Ratio,
        comp: &[VertexId],
        escalated: bool,
    ) {
        self.stats.verifications += 1;
        let verdict = if self.cfg.fast_verify {
            // All flow-deciding fast verifications share one memoized
            // network — built lazily inside the flow tail, so
            // shortcut-resolved candidates never build it.
            let shared = self.share_fast.then_some(&mut self.support);
            let (verdict, info) = verify_fast_with(
                self.g,
                self.cliques,
                &m,
                rho,
                &self.bounds,
                &self.output,
                shared,
            );
            if info.shortcut_accept {
                self.stats.shortcut_accepts += 1;
            }
            if info.early_reject {
                self.stats.early_rejects += 1;
            }
            if info.used_flow {
                self.stats.flow_verifications += 1;
            }
            if info.memo_hit {
                self.stats.memo_hits += 1;
            }
            verdict
        } else {
            self.stats.flow_verifications += 1;
            self.support
                .get_or_insert_with(|| SupportVerifier::new(self.cliques))
                .verify(self.g, &m, rho)
        };
        match verdict {
            Verdict::Lhcds => {
                let count = (rho * Ratio::from_int(m.len() as i128)).num();
                debug_assert!(rho.den() == 1 || (m.len() as i128) % rho.den() == 0);
                for &v in &m {
                    self.output[v as usize] = true;
                    self.bounds.pin_exact(v as usize, rho);
                }
                self.buffer.push(Lhcds {
                    vertices: m,
                    density: rho,
                    clique_count: count as u64,
                });
            }
            Verdict::Superset(x) => {
                let x_live: Vec<VertexId> = x
                    .iter()
                    .copied()
                    .filter(|&v| !self.output[v as usize])
                    .collect();
                // connected component of X ∖ outputs containing m
                let c = components_within(self.g, &x_live)
                    .into_iter()
                    .find(|c| c.binary_search(&m[0]).is_ok())
                    .expect("m survives output removal");
                let grows = c.iter().any(|&v| {
                    let vi = v as usize;
                    comp.binary_search(&v).is_err() && !self.pruned[vi] && !self.killed[vi]
                });
                if !grows || escalated {
                    // No eligible growth beyond the decomposed component
                    // (or the component already covered everything the
                    // remaining universe connects to m): any LhCDS
                    // through m would be confined to the component and
                    // capped at its maximum density, forcing it to be m
                    // itself — which just failed. Exact kill.
                    self.kill(&m);
                } else if !self.failed_memo.insert((m.clone(), rho)) {
                    // Second failure with the same (m, ρ): absorption is
                    // cycling through output-adjacent territory. Defer m
                    // for exact whole-component (escalated) treatment.
                    self.defer(m);
                } else {
                    self.stats.absorptions += 1;
                    self.push_candidate(c, false);
                }
            }
        }
    }

    fn defer(&mut self, verts: Vec<VertexId>) {
        let id = self.next_id;
        self.next_id += 1;
        for &v in &verts {
            self.owner[v as usize] = id;
        }
        self.stuck.push(Candidate {
            id,
            verts,
            escalated: false,
        });
    }

    fn kill(&mut self, verts: &[VertexId]) {
        for &v in verts {
            self.killed[v as usize] = true;
            self.owner[v as usize] = NO_OWNER;
        }
        self.stats.killed_vertices += verts.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::GraphBuilder;

    fn complete_on(b: &mut GraphBuilder, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in i + 1..vs.len() {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }

    #[test]
    fn two_disjoint_triangles() {
        let g = CsrGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 2);
        for s in &res.subgraphs {
            assert_eq!(s.density, Ratio::new(1, 3));
            assert_eq!(s.clique_count, 1);
            assert_eq!(s.vertices.len(), 3);
        }
        let mut all: Vec<u32> = res
            .subgraphs
            .iter()
            .flat_map(|s| s.vertices.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 5, 6, 7]);
    }

    #[test]
    fn k5_beats_k4_disjoint() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 2, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 2);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(res.subgraphs[0].density, Ratio::from_int(2));
        assert_eq!(res.subgraphs[1].vertices, vec![5, 6, 7, 8]);
        assert_eq!(res.subgraphs[1].density, Ratio::from_int(1));
    }

    #[test]
    fn bridged_k4_is_absorbed_not_reported() {
        // A K4 bridged to a K5 is not maximal at its own density (the
        // union is 1-compact), so only the K5 is an LhCDS. This
        // exercises the stuck→escalate→kill path of the driver.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(4, 5); // bridge, no new triangles
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 1);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(res.subgraphs[0].density, Ratio::from_int(2));
    }

    #[test]
    fn top_1_only() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 1);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn k6_is_single_lhcds_not_fragments() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4, 5]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 1);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(res.subgraphs[0].density, Ratio::new(20, 6));
    }

    #[test]
    fn no_cliques_no_output() {
        // star graph: no triangle
        let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let res = top_k_lhcds(&g, 3, 3, &IppvConfig::default());
        assert!(res.subgraphs.is_empty());
    }

    #[test]
    fn h2_degenerates_to_lds() {
        // For h = 2 the density is m/n: K4 (6/4) vs triangle (3/3 = 1).
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3]);
        b.add_edge(4, 5).add_edge(5, 6).add_edge(6, 4);
        let g = b.build();
        let res = top_k_lhcds(&g, 2, 2, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 2);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3]);
        assert_eq!(res.subgraphs[0].density, Ratio::new(6, 4));
        assert_eq!(res.subgraphs[1].vertices, vec![4, 5, 6]);
        assert_eq!(res.subgraphs[1].density, Ratio::from_int(1));
    }

    #[test]
    fn basic_and_fast_configs_agree() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        complete_on(&mut b, &[8, 9, 10]);
        b.add_edge(7, 8);
        let g = b.build();
        let fast = top_k_lhcds(&g, 3, 10, &IppvConfig::default());
        let basic = top_k_lhcds(
            &g,
            3,
            10,
            &IppvConfig {
                fast_verify: false,
                ..IppvConfig::default()
            },
        );
        assert_eq!(fast.subgraphs, basic.subgraphs);
    }

    #[test]
    fn overlapping_k5s_merge_into_one_region() {
        // Two K5s sharing vertex 4: the union is one connected dense
        // region; LhCDSes must be disjoint, so at most one of them can
        // survive as a fragment — the true answer is the maximal
        // 2-compact subgraph containing both (density = 20/9 < 2… check
        // against brute force in integration tests; here: disjointness
        // and verification sanity only).
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7, 8]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        // outputs are pairwise disjoint
        let mut seen = vec![false; g.n()];
        for s in &res.subgraphs {
            for &v in &s.vertices {
                assert!(!seen[v as usize], "overlap at {v}");
                seen[v as usize] = true;
            }
        }
        // densities are non-increasing
        for w in res.subgraphs.windows(2) {
            assert!(w[0].density >= w[1].density);
        }
    }

    #[test]
    fn parallel_enumeration_matches_serial_pipeline() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        complete_on(&mut b, &[8, 9, 10]);
        b.add_edge(7, 8);
        let g = b.build();
        let serial = top_k_lhcds(&g, 3, 10, &IppvConfig::default());
        for t in [2usize, 4, 8] {
            let cfg = IppvConfig {
                parallelism: Parallelism::threads(t),
                ..IppvConfig::default()
            };
            let par = top_k_lhcds(&g, 3, 10, &cfg);
            assert_eq!(par.subgraphs, serial.subgraphs, "threads={t}");
            assert_eq!(par.stats.clique_count, serial.stats.clique_count);
        }
    }

    /// The shared memoized fast-verifier network is invisible in the
    /// outputs and the verify schedule. (The work-counter side of the
    /// contract — fewer networks than ρ-probes — lives in the
    /// integration tests, whose process owns the global flow counters.)
    #[test]
    fn shared_fast_verifier_matches_the_reference() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        complete_on(&mut b, &[8, 9, 10]);
        b.add_edge(7, 8).add_edge(10, 11);
        let g = b.build();
        let cfg = IppvConfig::default();
        let reference = top_k_reference(&g, 3, 10, &cfg);
        assert_eq!(reference.stats.memo_hits, 0, "the oracle has no memo");
        let res = top_k_lhcds(&g, 3, 10, &cfg);
        assert_eq!(res.subgraphs, reference.subgraphs);
        assert_eq!(
            (res.stats.verifications, res.stats.flow_verifications),
            (
                reference.stats.verifications,
                reference.stats.flow_verifications
            )
        );
    }

    #[test]
    fn stats_are_populated() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        b.add_edge(4, 5).add_edge(5, 6);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
        let st = &res.stats;
        assert_eq!(st.h, 3);
        assert_eq!(st.clique_count, 10);
        assert!(st.verifications >= 1);
        assert!(st.initial_candidates >= 1);
    }

    #[test]
    #[should_panic(expected = "h >= 2")]
    fn h1_rejected() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2)]);
        top_k_lhcds(&g, 1, 1, &IppvConfig::default());
    }

    #[test]
    fn k_zero_returns_empty() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let res = top_k_lhcds(&g, 3, 0, &IppvConfig::default());
        assert!(res.subgraphs.is_empty());
    }
}
