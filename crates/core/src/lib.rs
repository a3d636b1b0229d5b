//! # lhcds-core
//!
//! Exact top-k **locally h-clique densest subgraph** (LhCDS) discovery —
//! the IPPV (“Iterative Propose–Prune-and-Verify”) algorithm of
//! *Xu et al., “An Efficient and Exact Algorithm for Locally h-Clique
//! Densest Subgraph Discovery”* (SIGMOD 2025).
//!
//! An LhCDS (Definition 2) is a connected subgraph `G[S]` that is
//! `ρ`-compact for `ρ = d_ψh(G[S])` (removing any `U ⊆ S` destroys at
//! least `ρ·|U|` h-cliques) and maximal with that property. LhCDSes are
//! pairwise disjoint, so the top-k of them describe the k strongest
//! non-overlapping near-clique regions of a graph.
//!
//! Pipeline stages, one module each:
//!
//! | Module | Paper element |
//! |---|---|
//! | [`bounds`] | Algorithm 1 — initial compact-number bounds from `(k, ψh)`-cores |
//! | [`cp`] | §4.2.2 — convex program `CP(G, h)` and the SEQ-kClist++ iterations |
//! | [`decompose`] | §4.2.3 — tentative graph decomposition (`TentativeGD`) |
//! | [`stable`] | §4.2.4 — stable h-clique groups (`DeriveSG`), bound tightening |
//! | [`prune`] | §4.3 — Algorithm 3, Proposition 5 pruning rules |
//! | [`compact`] | `DeriveCompact` flow network (Figure 6, one node per clique), `IsDensest` |
//! | [`verify`] | §4.4 — basic (Alg. 4) and fast (Alg. 5) LhCDS verification |
//! | [`pipeline`] | §4.5 — Algorithm 6, the exact top-k driver |
//! | [`density`] | §5.1 — exact dense decomposition / compact numbers via marginal-density cuts |
//! | [`index`] | servable decomposition index — compute once, query many (flow-free reads) |
//! | [`bruteforce`] | Definition-level oracle for small graphs (test anchor) |
//!
//! ## Quick start
//!
//! ```
//! use lhcds_core::pipeline::{IppvConfig, top_k_lhcds};
//! use lhcds_graph::CsrGraph;
//!
//! // Two disjoint triangles joined by a path: each triangle is a
//! // locally 3-clique densest subgraph with density 1/3.
//! let g = CsrGraph::from_edges(
//!     8,
//!     [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
//! );
//! let result = top_k_lhcds(&g, 3, 2, &IppvConfig::default());
//! assert_eq!(result.subgraphs.len(), 2);
//! assert_eq!(result.subgraphs[0].density.to_string(), "1/3");
//! ```
//!
//! In the workspace DAG this crate consumes `lhcds-graph`,
//! `lhcds-clique`, and `lhcds-flow`, and is consumed by
//! `lhcds-patterns` (which re-instantiates the pipeline over pattern
//! stores) and `lhcds-baselines` (which shares its verification
//! machinery).

#![warn(missing_docs)]

pub mod bounds;
pub mod bruteforce;
pub mod compact;
pub mod cp;
pub mod decompose;
pub mod density;
pub mod index;
pub mod pipeline;
pub mod prune;
pub mod stable;
pub mod verify;

pub use bounds::{initialize_bounds, Bounds};
pub use compact::InstanceSolver;
pub use index::{DecompositionIndex, IndexConfig, QueryError, SubgraphView};
pub use pipeline::{top_k_lhcds, IppvConfig, IppvResult, IppvStats, Lhcds};
// The exact-rational density currency of the whole pipeline and the
// flow-layer work counters (networks/arcs built, flow invocations,
// warm/retract/cold parametric solves). Re-exported so higher layers
// (patterns, baselines, service, the facade's consumers) never need a
// direct dependency on the flow substrate.
pub use lhcds_flow::{flow_stats, FlowStats, Ratio};
