//! Inverted pivot lists with constant-time distance upserts.
//!
//! Rules 2 and 5 need the inverted view "which owners' labels contain
//! pivot `p`" (the label-files-sorted-by-pivot of §4.1). The in-memory
//! engine keeps one list per side and pivot and must *update in place*
//! when a weighted-graph iteration improves the distance of an entry that is
//! already present. The previous implementation found the slot with a
//! linear `iter_mut().find` scan, making every improvement O(|inv|) —
//! hub pivots on weighted graphs have inverted lists with thousands of
//! owners, so upserts degenerated quadratically. This list keeps a
//! per-pivot owner → slot map alongside the entries, making both the
//! append and the improve path O(1) amortized (`bench --bench build`
//! has an `invlist` group measuring the difference against the scan).

use sfgraph::hash::FxHashMap;
use sfgraph::{Dist, VertexId};

/// One pivot's inverted list: `(owner, dist)` pairs with owners unique,
/// in insertion order, plus an owner → slot index for O(1) upserts.
#[derive(Clone, Debug, Default)]
pub struct InvList {
    entries: Vec<(VertexId, Dist)>,
    slot_of: FxHashMap<VertexId, u32>,
}

impl InvList {
    /// The `(owner, dist)` pairs, in first-insertion order.
    #[inline]
    pub fn entries(&self) -> &[(VertexId, Dist)] {
        &self.entries
    }

    /// Number of owners in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no owner labels this pivot yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert `(owner, d)`, or overwrite the owner's distance if it is
    /// already present (distance improvements on weighted graphs).
    #[inline]
    pub fn upsert(&mut self, owner: VertexId, d: Dist) {
        match self.slot_of.entry(owner) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.entries[*slot.get() as usize].1 = d;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.entries.len() as u32);
                self.entries.push((owner, d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_appends_then_updates_in_place() {
        let mut l = InvList::default();
        assert!(l.is_empty());
        l.upsert(3, 10);
        l.upsert(7, 4);
        l.upsert(3, 2); // improvement: same slot, new distance
        assert_eq!(l.len(), 2);
        assert_eq!(l.entries(), &[(3, 2), (7, 4)]);
    }

    #[test]
    fn many_owners_stay_unique() {
        let mut l = InvList::default();
        for round in 0..3u32 {
            for owner in 0..100u32 {
                l.upsert(owner, 100 - round);
            }
        }
        assert_eq!(l.len(), 100);
        assert!(l.entries().iter().all(|&(_, d)| d == 98));
    }
}
