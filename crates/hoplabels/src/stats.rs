//! Label statistics: the measurements behind Table 7 and Figures 8–9.
//!
//! A label entry `(v, d)` is *covered by* its pivot `v`. On a
//! rank-relabeled graph the "top x% of vertices" are simply ids
//! `0 .. x·n`, so coverage curves reduce to a prefix-sum over a
//! per-pivot entry count.

use crate::index::LabelIndex;

/// Per-pivot entry counts plus the derived coverage measurements.
#[derive(Clone, Debug)]
pub struct CoverageStats {
    /// `counts[p]` = number of entries whose pivot is vertex `p`
    /// (self-entries excluded — every vertex trivially covers itself).
    counts: Vec<u64>,
    /// Prefix sums of `counts` (len `n + 1`).
    prefix: Vec<u64>,
    /// Total non-trivial entries.
    total: u64,
}

impl CoverageStats {
    /// Gather pivot coverage from an index.
    pub fn from_index(index: &LabelIndex) -> CoverageStats {
        let n = index.num_vertices();
        let mut counts = vec![0u64; n];
        for side in index.sides() {
            for (owner, label) in side.iter().enumerate() {
                for e in label.entries().iter().filter(|e| e.pivot as usize != owner) {
                    counts[e.pivot as usize] += 1;
                }
            }
        }
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0);
        let mut acc = 0u64;
        for &c in &counts {
            acc += c;
            prefix.push(acc);
        }
        CoverageStats { counts, prefix, total: acc }
    }

    /// Total non-trivial entries in the index.
    pub fn total_entries(&self) -> u64 {
        self.total
    }

    /// Fraction of entries covered by the `k` highest-ranked vertices.
    pub fn coverage_of_top(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let k = k.min(self.counts.len());
        self.prefix[k] as f64 / self.total as f64
    }

    /// Smallest number of top-ranked vertices covering at least
    /// `fraction` of all entries — Table 7's "top vertices coverage"
    /// columns use fractions 0.7 / 0.8 / 0.9 and report the result as a
    /// percentage of `|V|`.
    pub fn vertices_for_coverage(&self, fraction: f64) -> usize {
        let want = (self.total as f64 * fraction).ceil() as u64;
        // prefix is non-decreasing: binary search the first k reaching it.
        match self.prefix.binary_search(&want) {
            Ok(mut i) => {
                // Land on the first index achieving the value.
                while i > 0 && self.prefix[i - 1] >= want {
                    i -= 1;
                }
                i
            }
            Err(i) => i,
        }
    }

    /// Percentage (0–100) of `|V|` needed to cover `fraction` of entries.
    pub fn percent_vertices_for_coverage(&self, fraction: f64) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        100.0 * self.vertices_for_coverage(fraction) as f64 / self.counts.len() as f64
    }

    /// Sampled coverage curve for Fig. 8: `points` evenly spaced values
    /// of top-vertex share in `(0, max_frac]`, each mapped to coverage
    /// percent.
    pub fn coverage_curve(&self, max_frac: f64, points: usize) -> Vec<(f64, f64)> {
        let n = self.counts.len();
        (1..=points)
            .map(|i| {
                let frac = max_frac * i as f64 / points as f64;
                let k = ((n as f64 * frac).round() as usize).clamp(1, n.max(1));
                (100.0 * frac, 100.0 * self.coverage_of_top(k))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::LabelEntry;
    use crate::index::{LabelIndex, VertexLabels};
    use sfgraph::VertexId;

    /// Index where pivot 0 covers 8 entries, pivot 1 covers 2.
    fn skewed_index() -> LabelIndex {
        let mut labels: Vec<VertexLabels> =
            (0..10).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
        for v in 2..10 {
            labels[v].insert_min(LabelEntry::new(0, 1));
        }
        for v in 2..4 {
            labels[v].insert_min(LabelEntry::new(1, 2));
        }
        LabelIndex::from_sides(vec![labels])
    }

    #[test]
    fn counts_exclude_self_entries() {
        let s = CoverageStats::from_index(&skewed_index());
        assert_eq!(s.total_entries(), 10);
        assert_eq!(s.counts, [8, 2, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn coverage_prefixes() {
        let s = CoverageStats::from_index(&skewed_index());
        assert!((s.coverage_of_top(1) - 0.8).abs() < 1e-9);
        assert!((s.coverage_of_top(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vertices_for_coverage_thresholds() {
        let s = CoverageStats::from_index(&skewed_index());
        assert_eq!(s.vertices_for_coverage(0.7), 1);
        assert_eq!(s.vertices_for_coverage(0.8), 1);
        assert_eq!(s.vertices_for_coverage(0.9), 2);
        assert!((s.percent_vertices_for_coverage(0.9) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone() {
        let s = CoverageStats::from_index(&skewed_index());
        let curve = s.coverage_curve(1.0, 10);
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-9);
        }
        assert!((curve.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_is_fully_covered() {
        let s = CoverageStats::from_index(&LabelIndex::new(3, false));
        assert_eq!(s.total_entries(), 0);
        assert_eq!(s.vertices_for_coverage(0.9), 0);
        assert!((s.coverage_of_top(1) - 1.0).abs() < 1e-9);
    }
}
