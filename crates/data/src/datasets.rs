//! Registry of named datasets mirroring the paper's Table 2.
//!
//! The original SNAP / Network Repository downloads are unavailable
//! offline, so each entry generates a *seeded synthetic stand-in* with
//! the same abbreviation: a sparse scale-free background plus planted
//! dense communities (the structure LhCDS discovery probes). Sizes are
//! at or below the originals — the largest graphs are scaled to a
//! laptop budget — and each spec records the paper's original `|V|` and
//! `|E|` so harness output can show the substitution explicitly.

use crate::gen::planted_communities;
use lhcds_graph::CsrGraph;

/// A named dataset recipe.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Full name used in the paper.
    pub name: &'static str,
    /// Table 2 abbreviation (HA, GQ, …).
    pub abbr: &'static str,
    /// `|V|` of the paper's original dataset.
    pub paper_n: usize,
    /// `|E|` of the paper's original dataset.
    pub paper_m: usize,
    /// Background size of the stand-in.
    pub n: usize,
    /// Barabási–Albert attachment degree of the background.
    pub ba_attach: usize,
    /// Planted dense communities `(size, p_intra)`.
    pub communities: &'static [(usize, f64)],
    /// Generator seed.
    pub seed: u64,
}

/// A generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The recipe that produced the graph.
    pub spec: DatasetSpec,
    /// The generated graph.
    pub graph: CsrGraph,
}

impl DatasetSpec {
    /// Generates the stand-in graph.
    pub fn generate(&self) -> Dataset {
        Dataset {
            spec: self.clone(),
            graph: planted_communities(self.n, self.ba_attach, self.communities, self.seed),
        }
    }

    /// Generates a reduced-size variant (`scale ∈ (0, 1]` shrinks the
    /// background; communities are kept so the LhCDS structure
    /// survives). Used by the experiment harness (`--scale`) to stay
    /// within budget.
    pub fn generate_scaled(&self, scale: f64) -> Dataset {
        assert!(scale > 0.0 && scale <= 1.0);
        let n = ((self.n as f64 * scale) as usize).max(64);
        Dataset {
            spec: self.clone(),
            graph: planted_communities(n, self.ba_attach, self.communities, self.seed),
        }
    }
}

/// Community blueprints shared between related datasets.
const SOCIAL_POCKETS: &[(usize, f64)] = &[
    (24, 0.9),
    (18, 0.85),
    (16, 0.8),
    (14, 0.8),
    (12, 0.85),
    (12, 0.75),
    (10, 0.9),
    (10, 0.8),
];
const COLLAB_POCKETS: &[(usize, f64)] = &[
    (16, 0.95),
    (13, 0.95),
    (11, 0.9),
    (10, 0.9),
    (9, 0.95),
    (8, 0.95),
    (8, 0.9),
    (7, 1.0),
];
const WEB_POCKETS: &[(usize, f64)] = &[(14, 0.9), (10, 0.85), (8, 0.9), (7, 0.95)];
const SPARSE_POCKETS: &[(usize, f64)] = &[(10, 0.8), (9, 0.8), (8, 0.85), (7, 0.9), (7, 0.85)];

/// The full Table 2 registry (15 datasets, paper order).
pub fn registry() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "soc-hamsterster",
            abbr: "HA",
            paper_n: 2_426,
            paper_m: 16_630,
            n: 2_400,
            ba_attach: 5,
            communities: SOCIAL_POCKETS,
            seed: 0xA001,
        },
        DatasetSpec {
            name: "CA-GrQc",
            abbr: "GQ",
            paper_n: 5_242,
            paper_m: 14_484,
            n: 5_200,
            ba_attach: 2,
            communities: COLLAB_POCKETS,
            seed: 0xA002,
        },
        DatasetSpec {
            name: "fb-pages-politician",
            abbr: "PP",
            paper_n: 5_908,
            paper_m: 41_706,
            n: 5_900,
            ba_attach: 6,
            communities: SOCIAL_POCKETS,
            seed: 0xA003,
        },
        DatasetSpec {
            name: "fb-pages-company",
            abbr: "PC",
            paper_n: 14_113,
            paper_m: 52_126,
            n: 14_000,
            ba_attach: 3,
            communities: SOCIAL_POCKETS,
            seed: 0xA004,
        },
        DatasetSpec {
            name: "web-webbase-2001",
            abbr: "WB",
            paper_n: 16_062,
            paper_m: 25_593,
            n: 16_000,
            ba_attach: 1,
            communities: WEB_POCKETS,
            seed: 0xA005,
        },
        DatasetSpec {
            name: "CA-CondMat",
            abbr: "CM",
            paper_n: 23_133,
            paper_m: 93_439,
            n: 23_000,
            ba_attach: 3,
            communities: COLLAB_POCKETS,
            seed: 0xA006,
        },
        DatasetSpec {
            name: "soc-epinions",
            abbr: "EP",
            paper_n: 26_588,
            paper_m: 100_120,
            n: 26_000,
            ba_attach: 3,
            communities: SOCIAL_POCKETS,
            seed: 0xA007,
        },
        DatasetSpec {
            name: "Email-Enron",
            abbr: "EN",
            paper_n: 36_692,
            paper_m: 183_831,
            n: 36_000,
            ba_attach: 4,
            communities: SOCIAL_POCKETS,
            seed: 0xA008,
        },
        DatasetSpec {
            name: "loc-gowalla",
            abbr: "GW",
            paper_n: 196_591,
            paper_m: 950_327,
            n: 60_000,
            ba_attach: 4,
            communities: SOCIAL_POCKETS,
            seed: 0xA009,
        },
        DatasetSpec {
            name: "DBLP",
            abbr: "DB",
            paper_n: 317_080,
            paper_m: 1_049_866,
            n: 80_000,
            ba_attach: 3,
            communities: COLLAB_POCKETS,
            seed: 0xA00A,
        },
        DatasetSpec {
            name: "Amazon",
            abbr: "AM",
            paper_n: 334_863,
            paper_m: 925_872,
            n: 80_000,
            ba_attach: 2,
            communities: SPARSE_POCKETS,
            seed: 0xA00B,
        },
        DatasetSpec {
            name: "soc-youtube",
            abbr: "YT",
            paper_n: 495_957,
            paper_m: 1_936_748,
            n: 100_000,
            ba_attach: 3,
            communities: SOCIAL_POCKETS,
            seed: 0xA00C,
        },
        DatasetSpec {
            name: "soc-lastfm",
            abbr: "LF",
            paper_n: 1_191_805,
            paper_m: 4_519_330,
            n: 120_000,
            ba_attach: 3,
            communities: SOCIAL_POCKETS,
            seed: 0xA00D,
        },
        DatasetSpec {
            name: "soc-flixster",
            abbr: "FX",
            paper_n: 2_523_386,
            paper_m: 7_918_801,
            n: 140_000,
            ba_attach: 3,
            communities: SOCIAL_POCKETS,
            seed: 0xA00E,
        },
        DatasetSpec {
            name: "soc-wiki-talk",
            abbr: "WT",
            paper_n: 2_394_385,
            paper_m: 4_659_565,
            n: 140_000,
            ba_attach: 2,
            communities: SPARSE_POCKETS,
            seed: 0xA00F,
        },
    ]
}

/// Looks a spec up by its Table 2 abbreviation.
pub fn by_abbr(abbr: &str) -> Option<DatasetSpec> {
    registry().into_iter().find(|s| s.abbr == abbr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2_roster() {
        let r = registry();
        assert_eq!(r.len(), 15);
        let abbrs: Vec<&str> = r.iter().map(|s| s.abbr).collect();
        assert_eq!(
            abbrs,
            vec![
                "HA", "GQ", "PP", "PC", "WB", "CM", "EP", "EN", "GW", "DB", "AM", "YT", "LF", "FX",
                "WT"
            ]
        );
        // stand-ins never exceed the originals
        for s in &r {
            assert!(s.n <= s.paper_n, "{} oversized", s.abbr);
        }
    }

    #[test]
    fn lookup_by_abbr() {
        assert_eq!(by_abbr("HA").unwrap().name, "soc-hamsterster");
        assert!(by_abbr("XX").is_none());
    }

    #[test]
    fn small_dataset_generates_with_triangles() {
        let d = by_abbr("HA").unwrap().generate();
        assert_eq!(
            d.graph.n(),
            2_400 + SOCIAL_POCKETS.iter().map(|c| c.0).sum::<usize>()
        );
        assert!(d.graph.m() > 10_000);
        assert!(lhcds_clique::count_cliques(&d.graph, 3) > 1_000);
    }

    #[test]
    fn scaled_generation_shrinks_background() {
        let spec = by_abbr("CM").unwrap();
        let small = spec.generate_scaled(0.05);
        assert!(small.graph.n() < spec.n / 10);
        // pockets survive scaling
        assert!(lhcds_clique::count_cliques(&small.graph, 4) > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = by_abbr("GQ").unwrap();
        assert_eq!(
            spec.generate_scaled(0.1).graph,
            spec.generate_scaled(0.1).graph
        );
    }
}
