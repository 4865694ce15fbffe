//! Brute-force verification of 2-hop covers — test infrastructure.
//!
//! These checkers make the paper's correctness theorems executable:
//! Theorem 1/3/5 say every index built by the engines answers all
//! queries exactly; [`check_exact`] tests that against all-pairs BFS /
//! Dijkstra ground truth. [`is_minimal`] checks 2-hop-cover minimality
//! (no entry can be deleted), the property Tables 1–4 illustrate.

use sfgraph::traversal::all_pairs;
use sfgraph::{Graph, VertexId};

use crate::index::LabelIndex;

/// First mismatching query, if any: `(s, t, index_answer, true_answer)`.
pub fn check_exact(g: &Graph, index: &LabelIndex) -> Option<(VertexId, VertexId, u32, u32)> {
    let ap = all_pairs(g);
    let n = g.num_vertices();
    for (s, row) in ap.iter().enumerate().take(n) {
        for (t, &want) in row.iter().enumerate().take(n) {
            let got = index.query(s as VertexId, t as VertexId);
            if got != want {
                return Some((s as VertexId, t as VertexId, got, want));
            }
        }
    }
    None
}

/// Panicking wrapper around [`check_exact`] with a readable message.
pub fn assert_exact(g: &Graph, index: &LabelIndex) {
    if let Some((s, t, got, want)) = check_exact(g, index) {
        panic!("index wrong for dist({s},{t}): got {got}, want {want}");
    }
}

/// Whether the cover is *minimal*: deleting any single non-trivial entry
/// breaks at least one query. Exhaustive — O(entries × n²) — for the
/// worked-example graphs only.
pub fn is_minimal(g: &Graph, index: &LabelIndex) -> bool {
    let mut index = index.clone();
    for side in 0..index.sides().len() {
        for v in 0..index.num_vertices() {
            let entries = index.sides()[side][v].entries().to_vec();
            for e in entries {
                if e.pivot as usize == v {
                    continue; // trivial self-entry: needed, skip
                }
                index.sides_mut()[side][v].retain(|x| x.pivot != e.pivot);
                let still_exact = check_exact(g, &index).is_none();
                index.sides_mut()[side][v].insert_min(e);
                if still_exact {
                    return false; // entry was redundant
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LabelEntry;
    use crate::index::VertexLabels;
    use sfgraph::GraphBuilder;

    /// Hand-built exact cover for the path 0–1–2 (ids already ranked).
    fn path3_cover() -> (Graph, LabelIndex) {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let mut labels: Vec<VertexLabels> =
            (0..3).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
        labels[1].insert_min(LabelEntry::new(0, 1));
        labels[2].insert_min(LabelEntry::new(0, 2)); // wrong rank choice but exact
        labels[2].insert_min(LabelEntry::new(1, 1));
        (g, LabelIndex::from_sides(vec![labels]))
    }

    #[test]
    fn exact_cover_passes() {
        let (g, idx) = path3_cover();
        assert!(check_exact(&g, &idx).is_none());
    }

    #[test]
    fn broken_cover_is_detected() {
        let (g, mut idx) = path3_cover();
        idx.sides_mut()[0][2].retain(|e| e.pivot == 2);
        let (s, t, got, want) = check_exact(&g, &idx).unwrap();
        assert_eq!((s, t), (0, 2));
        assert_eq!(want, 2);
        assert_eq!(got, u32::MAX);
    }

    #[test]
    fn minimal_cover_recognised() {
        // Every entry of the hand cover is load-bearing: L(0) is trivial,
        // so queries from 0 need pivot 0 present in every other label.
        let (g, idx) = path3_cover();
        assert!(is_minimal(&g, &idx));
    }

    #[test]
    fn minimality_detects_redundant_entry() {
        let (g, mut idx) = path3_cover();
        // (1, 1) in L(0) is true but useless: every query involving 0 is
        // already answered via pivot 0 itself.
        idx.sides_mut()[0][0].insert_min(LabelEntry::new(1, 1));
        assert!(check_exact(&g, &idx).is_none());
        assert!(!is_minimal(&g, &idx));
    }

    #[test]
    #[should_panic(expected = "index wrong")]
    fn assert_exact_panics_on_bad_index() {
        let (g, _) = path3_cover();
        let empty = LabelIndex::new(3, false);
        assert_exact(&g, &empty);
    }
}
