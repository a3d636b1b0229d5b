//! Answer checks. They run outside every timed region: each timed
//! answer is compared with the untimed warm-up answer, the warm-up is
//! checked for well-formedness, and on a workload's preset seed it
//! must also match a digest pinned from the program at the commit that
//! introduced this benchmark.

use lhcds::core::index::{DecompositionIndex, QueryError, SubgraphView};
use lhcds::core::pipeline::Lhcds;
use lhcds::flow::Ratio;
use lhcds::graph::VertexId;

use crate::workload::Ids;

/// One answer row in original vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub density: Ratio,
    pub clique_count: u64,
    pub vertices: Vec<u64>,
}

impl Row {
    fn new(density: Ratio, clique_count: u64, vertices: &[VertexId], ids: &Ids) -> Row {
        Row {
            density,
            clique_count,
            vertices: vertices.iter().map(|&v| ids.get(v)).collect(),
        }
    }

    fn of_view(s: SubgraphView<'_>, ids: &Ids) -> Row {
        Row::new(s.density, s.clique_count, s.vertices, ids)
    }
}

pub fn rows_of(subgraphs: &[Lhcds], ids: &Ids) -> Vec<Row> {
    subgraphs
        .iter()
        .map(|s| Row::new(s.density, s.clique_count, &s.vertices, ids))
        .collect()
}

/// Every row of a full index (its complete decomposition).
pub fn index_rows(index: &DecompositionIndex, ids: &Ids) -> Vec<Row> {
    (0..index.len())
        .map(|r| Row::of_view(index.subgraph(r).expect("rank below len"), ids))
        .collect()
}

/// The index's own top-k answer.
pub fn index_top_k(
    index: &DecompositionIndex,
    k: usize,
    ids: &Ids,
) -> Result<Vec<Row>, QueryError> {
    Ok(index
        .top_k(k)?
        .into_iter()
        .map(|s| Row::of_view(s, ids))
        .collect())
}

/// FNV-1a 64 over `num/den count v1,v2,…` lines, one per row, in
/// generated vertex ids: vertices ascending, rows by density
/// descending then smallest vertex. Relabeling the input does not
/// change it.
pub fn digest(rows: &[Row], generated_id: &dyn Fn(u64) -> u64) -> u64 {
    let mut canon: Vec<(Ratio, u64, Vec<u64>)> = rows
        .iter()
        .map(|r| {
            let mut v: Vec<u64> = r.vertices.iter().map(|&x| generated_id(x)).collect();
            v.sort_unstable();
            (r.density, r.clique_count, v)
        })
        .collect();
    canon.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.2.cmp(&b.2)));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (density, count, vertices) in &canon {
        let verts: Vec<String> = vertices.iter().map(u64::to_string).collect();
        let line = format!("{density} {count} {}\n", verts.join(","));
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Densities non-increasing, vertex sets non-empty, ascending and
/// pairwise disjoint.
pub fn well_formed(rows: &[Row]) -> Result<(), String> {
    for pair in rows.windows(2) {
        if pair[1].density > pair[0].density {
            return Err(format!(
                "densities increase: {} then {}",
                pair[0].density, pair[1].density
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (i, r) in rows.iter().enumerate() {
        if r.vertices.is_empty() || r.vertices.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("row {} is empty or not ascending", i + 1));
        }
        if let Some(v) = r.vertices.iter().find(|&&v| !seen.insert(v)) {
            return Err(format!("vertex {v} appears in two rows"));
        }
    }
    Ok(())
}

/// Pinned answer digests on the preset seeds, of the top-10 rows
/// (`top-k`) and of every row of the full index (`index`).
const PINNED: &[(&str, u64, &str, u64)] = &[
    ("cm-h3-top10", 0xA006, "top-k", 0xb3d5_feb3_692b_37a5),
    ("cm-h3-top10", 0xA006, "index", 0xb3d5_feb3_692b_37a5),
    ("gnp-h4-top10", 0xBEEF, "top-k", 0xb703_000e_b4ba_a6c3),
    ("gnp-h4-top10", 0xBEEF, "index", 0xb703_000e_b4ba_a6c3),
    ("ha-h3-serve", 0xA001, "top-k", 0xbaf7_a1b9_1a93_9952),
    ("ha-h3-serve", 0xA001, "index", 0xbaf7_a1b9_1a93_9952),
];

/// Checks a reference answer: non-empty, well-formed, and equal to the
/// pinned digest when the graph was generated with the workload's
/// preset seed (under any relabeling).
pub fn reference_ok(
    workload: &str,
    graph_seed: u64,
    kind: &str,
    rows: &[Row],
    generated_id: &dyn Fn(u64) -> u64,
) -> Result<(), String> {
    well_formed(rows)?;
    if rows.is_empty() {
        return Err("empty answer".into());
    }
    let got = digest(rows, generated_id);
    let pinned = PINNED
        .iter()
        .find(|p| p.0 == workload && p.1 == graph_seed && p.2 == kind);
    match pinned {
        Some(&(.., want)) if got != want => Err(format!(
            "answer digest {got:#018x} differs from the pinned {want:#018x}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(num: i128, den: i128, vertices: &[u64]) -> Row {
        Row {
            density: Ratio::new(num, den),
            clique_count: 1,
            vertices: vertices.to_vec(),
        }
    }

    #[test]
    fn well_formed_rejects_increasing_densities_and_shared_vertices() {
        assert!(well_formed(&[row(2, 1, &[1, 2]), row(1, 1, &[3])]).is_ok());
        assert!(well_formed(&[row(1, 1, &[1]), row(2, 1, &[2])]).is_err());
        assert!(well_formed(&[row(2, 1, &[1, 2]), row(1, 1, &[2])]).is_err());
        assert!(well_formed(&[row(2, 1, &[2, 1])]).is_err());
    }

    #[test]
    fn digest_ignores_relabeling() {
        // written id = 10 - generated id
        let plain = [row(2, 1, &[1, 2]), row(2, 1, &[5]), row(1, 1, &[7])];
        let relabeled = [row(2, 1, &[5]), row(2, 1, &[8, 9]), row(1, 1, &[3])];
        assert_eq!(digest(&plain, &|v| v), digest(&relabeled, &|v| 10 - v));
        assert_ne!(digest(&plain, &|v| v), digest(&plain[..2], &|v| v));
    }
}
