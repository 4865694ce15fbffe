//! A single label entry.

use sfgraph::{Dist, VertexId};

/// One 2-hop label entry `(pivot, dist)`.
///
/// In `Lout(u)` the entry means: there is a (trough) path `u ⇝ pivot` of
/// length `dist` and `r(pivot) > r(u)`. In `Lin(v)` it means a path
/// `pivot ⇝ v` of length `dist` with `r(pivot) > r(v)`. The trivial
/// self-entry `(v, 0)` is always present in the nested index (the paper
/// keeps it for query answering) and implied in the image, which stores
/// only the entries below it (`crate::image`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelEntry {
    /// Pivot vertex (id = rank position; smaller id = higher rank).
    pub pivot: VertexId,
    /// Length of the covered path.
    pub dist: Dist,
}

impl LabelEntry {
    /// Construct an entry.
    #[inline]
    pub fn new(pivot: VertexId, dist: Dist) -> LabelEntry {
        LabelEntry { pivot, dist }
    }

    /// The trivial self-entry `(v, 0)`.
    #[inline]
    pub fn trivial(v: VertexId) -> LabelEntry {
        LabelEntry { pivot: v, dist: 0 }
    }
}

/// The entry a label record holds for the label of its key.
impl From<extmem::LabelRecord> for LabelEntry {
    #[inline]
    fn from(record: extmem::LabelRecord) -> LabelEntry {
        LabelEntry { pivot: record.pivot, dist: record.dist }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_pivot_then_dist() {
        let mut v = vec![LabelEntry::new(3, 0), LabelEntry::new(1, 9), LabelEntry::new(1, 2)];
        v.sort();
        assert_eq!(v, vec![LabelEntry::new(1, 2), LabelEntry::new(1, 9), LabelEntry::new(3, 0)]);
    }

    #[test]
    fn trivial_entry() {
        assert_eq!(LabelEntry::trivial(7), LabelEntry::new(7, 0));
    }
}
