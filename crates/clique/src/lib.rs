//! # lhcds-clique
//!
//! h-clique machinery for LhCDS discovery:
//!
//! * [`kclist`] — kClist-style h-clique enumeration over the degeneracy
//!   DAG (Danisch et al.), with both callback and counting entry points.
//! * [`parallel`] — node-parallel kClist: the first DAG level is sharded
//!   across scoped worker threads ([`Parallelism`] picks the count) with
//!   per-shard accumulators merged deterministically in rank order, so
//!   every counting/collecting entry point is byte-identical to its
//!   serial twin.
//! * [`store`] — [`CliqueSet`], an explicit flat store of all h-cliques
//!   plus a per-vertex incidence index; the convex program
//!   (SEQ-kClist++), the flow networks, and the verification algorithms
//!   all iterate this store.
//! * [`maximal`] — Bron–Kerbosch maximal clique enumeration with
//!   degeneracy ordering and pivoting; bounds the largest useful `h`.
//! * [`core`] — `(k, ψh)`-core decomposition (Definition 5 of the paper,
//!   after Fang et al.): peeling by h-clique degree yields each vertex's
//!   h-clique-core number, the source of the initial compact-number
//!   bounds (Algorithm 1).
//!
//! In the workspace DAG this crate sits directly above `lhcds-graph`
//! (with `lhcds-flow` as its sibling) and below `lhcds-core`, which
//! drives every entry point here from the IPPV pipeline.
//!
//! # Example
//!
//! ```
//! use lhcds_clique::{count_cliques, count_per_vertex, par_count_cliques, Parallelism};
//! use lhcds_graph::CsrGraph;
//!
//! // K4 plus a pendant: C(4,3) = 4 triangles, one 4-clique.
//! let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
//! assert_eq!(count_cliques(&g, 3), 4);
//! assert_eq!(count_cliques(&g, 4), 1);
//! // per-vertex h-clique degrees: the pendant touches no triangle
//! assert_eq!(count_per_vertex(&g, 3), vec![3, 3, 3, 3, 0]);
//! // the parallel twin is byte-identical to serial, any thread count
//! assert_eq!(par_count_cliques(&g, 3, &Parallelism::threads(4)), 4);
//! ```

#![warn(missing_docs)]

pub mod core;
pub mod kclist;
pub mod maximal;
pub mod parallel;
pub mod store;

pub use crate::core::{clique_core, CliqueCore};
pub use kclist::{count_cliques, count_per_vertex, for_each_clique};
pub use maximal::{clique_number, for_each_maximal_clique, maximal_cliques};
pub use parallel::{
    par_collect_blocks, par_count_cliques, parallel_collect_invocations, Parallelism,
};
pub use store::CliqueSet;
