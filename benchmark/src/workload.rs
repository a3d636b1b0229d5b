//! The workloads: which seeded input each one generates, which product
//! surface it exercises, and how its input reaches the program (the
//! CLI's own load path). README.md records why each one was chosen.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lhcds::clique::Parallelism;
use lhcds::core::pipeline::IppvConfig;
use lhcds::data::cache::{load_or_build, CacheStatus};
use lhcds::data::datasets::{by_abbr, DatasetSpec};
use lhcds::data::ingest::EdgeListFormat;
use lhcds::graph::{CsrGraph, VertexId};

/// How a workload's graph is generated from its seed.
pub enum Input {
    /// A Table 2 stand-in, `DatasetSpec { seed, ..by_abbr(abbr) }`.
    Preset(&'static str),
    /// `gen::gnp(n, p, seed)`.
    Gnp { n: usize, p: f64 },
}

/// The surface a workload was chosen for. Every workload measures all
/// three surfaces; the focus picks what its traced ledger solves and
/// which phase mix it must keep.
pub enum Focus {
    /// `lhcds topk`: the traced solve is `top_k_lhcds` with `k`.
    TopK,
    /// `lhcds serve`: the traced solve is the full index build
    /// (k = all).
    Serve,
}

/// The phase mix a workload exists for, checked by every traced run so
/// that a claim measured on one seed can be re-checked on another.
pub enum PhaseMix {
    /// `verify` takes at least this share of the traced solve.
    VerifyShare(f64),
    /// Enumeration plus CP take at least this share of it.
    ProposeShare(f64),
    /// The speculative verification wave commits prefetched local
    /// decompositions.
    Speculation,
}

/// One workload.
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    /// Seed used when `--seed` is not given.
    pub preset_seed: u64,
    pub h: usize,
    /// `k` of the measured top-k solves (and the serve mix's largest k).
    pub k: usize,
    /// `--threads` of the measured pipeline runs.
    pub threads: usize,
    pub focus: Focus,
    pub mix: PhaseMix,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cm-h3-top10",
        input: Input::Preset("CM"),
        preset_seed: 0xA006,
        h: 3,
        k: 10,
        threads: 1,
        focus: Focus::TopK,
        mix: PhaseMix::VerifyShare(0.9),
    },
    Workload {
        name: "gnp-h4-top10",
        input: Input::Gnp { n: 1400, p: 0.1 },
        preset_seed: 0xBEEF,
        h: 4,
        k: 10,
        threads: 2,
        focus: Focus::TopK,
        mix: PhaseMix::ProposeShare(0.1),
    },
    Workload {
        name: "ha-h3-serve",
        input: Input::Preset("HA"),
        preset_seed: 0xA001,
        h: 3,
        k: 10,
        threads: 2,
        focus: Focus::Serve,
        mix: PhaseMix::Speculation,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn generate(&self, seed: u64) -> CsrGraph {
        match self.input {
            Input::Preset(abbr) => {
                DatasetSpec {
                    seed,
                    ..by_abbr(abbr).expect("preset abbreviation is in the registry")
                }
                .generate()
                .graph
            }
            Input::Gnp { n, p } => lhcds::data::gen::gnp(n, p, seed),
        }
    }

    /// Pipeline configuration: the CLI defaults plus `--threads`.
    pub fn ippv(&self) -> IppvConfig {
        let parallelism = match self.threads {
            1 => Parallelism::serial(),
            t => Parallelism::threads(t),
        };
        IppvConfig {
            parallelism,
            ..IppvConfig::default()
        }
    }
}

/// Rank → original vertex id of an ingested graph.
pub struct Ids(Option<Vec<u64>>);

impl Ids {
    pub fn get(&self, v: VertexId) -> u64 {
        match &self.0 {
            Some(ids) => ids[v as usize],
            None => u64::from(v),
        }
    }

    /// The table the server takes (`None` = identity).
    pub fn table(&self) -> Option<Vec<u64>> {
        self.0.clone()
    }
}

/// A graph as the program received it.
pub struct Loaded {
    pub graph: CsrGraph,
    pub ids: Ids,
    /// Written vertex id → generated vertex id (`None`: the same).
    pub generated: Option<Vec<u64>>,
    /// The edge-list file it was ingested from.
    pub source: PathBuf,
    /// Wall time of the ingest alone.
    pub ingest_ms: f64,
}

/// The seeds of one run's input.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Generator seed of the graph (`DatasetSpec::seed`, `gnp` seed).
    pub graph: u64,
    /// Seed of the vertex relabeling applied before the graph is
    /// written (`None`: ids as generated). Also seeds the serve mix.
    pub relabel: Option<u64>,
}

/// SplitMix64: the benchmark's own deterministic generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut p: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        p.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    p
}

/// Writes `g` as a SNAP-style edge list, vertex `v` written as
/// `ids[v]`.
fn write_edges(g: &CsrGraph, ids: Option<&[u64]>, path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "# n={} m={}", g.n(), g.m())?;
    let id = |v: VertexId| ids.map_or(u64::from(v), |ids| ids[v as usize]);
    for (u, v) in g.edges() {
        writeln!(out, "{} {}", id(u), id(v))?;
    }
    out.flush()
}

/// Generates the workload's graph, relabels its vertices, writes it as
/// an edge list under `dir`, and ingests it through `lhcds::data`
/// exactly as `lhcds topk --input FILE` does on first use (parse + CSR
/// cache write). A relabeled graph is isomorphic to the generated one,
/// so every seed gives the same work in a different vertex order.
pub fn load(w: &Workload, seeds: Seeds, dir: &Path) -> Result<Loaded, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let generated = w.generate(seeds.graph);
    let relabel = seeds.relabel.map(|s| permutation(generated.n(), s));
    let source = dir.join(format!("{}.txt", w.name));
    write_edges(&generated, relabel.as_deref(), &source)
        .map_err(|e| format!("{}: {e}", source.display()))?;
    let t = Instant::now();
    let (remapped, status) =
        load_or_build(&source, EdgeListFormat::Auto, None).map_err(|e| e.to_string())?;
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
    if status != CacheStatus::Built {
        return Err(format!(
            "ingest of a fresh file reported {}",
            status.as_str()
        ));
    }
    if remapped.graph.n() != generated.n() || remapped.graph.m() != generated.m() {
        return Err("the ingested graph differs from the generated one".into());
    }
    let ids = Ids((!remapped.is_identity()).then(|| remapped.original_ids.clone()));
    let generated = relabel.map(|p| {
        let mut inverse = vec![0; p.len()];
        for (v, &id) in p.iter().enumerate() {
            inverse[id as usize] = v as u64;
        }
        inverse
    });
    Ok(Loaded {
        graph: remapped.graph,
        ids,
        generated,
        source,
        ingest_ms,
    })
}

impl Loaded {
    /// The generated vertex a written id stands for.
    pub fn generated_id(&self, written: u64) -> u64 {
        self.generated
            .as_ref()
            .map_or(written, |g| g[written as usize])
    }
}

/// A private directory for one run's files, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A fresh subdirectory for set-up repetition `rep`.
    pub fn rep_dir(&self, rep: usize) -> PathBuf {
        self.0.join(format!("setup-{rep}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
