//! Pivot-range sharding of index images.
//!
//! A 2-hop query is `min` over the *common pivots* of `Lout(s)` and
//! `Lin(t)`. Partitioning the pivot universe `[0, n)` into `k`
//! contiguous ranges therefore partitions every label entry into
//! exactly one shard, and
//!
//! ```text
//! dist(s, t) = min over shards j of dist_j(s, t)
//! ```
//!
//! because each candidate pivot contributes to exactly one shard-local
//! join and `INF_DIST` (`u32::MAX`) is the identity of `min`. Each
//! shard produced by [`shard_image`] is itself a complete, valid
//! `HOPIDX03` image over the *same* vertex set (same `n`, same
//! direction flag) — it loads with `FlatIndex::load` and serves with an
//! unmodified `hopdb-server` daemon; only the label entries whose pivot
//! falls in the shard's range are retained. The cutter reads the source
//! through [`crate::image`]'s checked decoder and writes every shard
//! with the one writer, so a shard past the 64 hub pivots is all tail
//! and picks its own hub-distance width and tail shift like any other
//! image.
//!
//! Range boundaries are chosen by entry count, not vertex count: the
//! rank convention front-loads label mass onto the few top-ranked
//! pivots (Table 7's coverage skew), so an even vertex split would put
//! nearly all entries in shard 0. [`shard_image`] walks the pivot
//! histogram and cuts at the entry-count quantiles instead.
//!
//! Each shard image is paired with a [`ShardSpec`] describing its slot
//! in the partition; [`ShardSpec::encode`] serializes it as a tiny
//! `HOPSHRD1` sidecar (stored as `<image>.shard` next to the image, the
//! way rankings are stored as `.rank` sidecars) so a daemon can report
//! its range to the router through the `info` reply.
//!
//! A derived vertex's record is copied into every shard unchanged. The
//! merge stays exact: per pair of parents a record adds the same two
//! offsets in every shard, `min_(i,j) off_i(s) + min_k join_k(p_i(s),
//! p_j(t)) + off_j(t)` is the unsharded least, and where two ends meet
//! at one parent every shard answers the same `off_i(s) + off_j(t)`.
//!
//! The `rank_pruned` flag records a property the router can exploit:
//! when every entry's pivot id is `<=` its vertex id and every parent of
//! every record is `<=` its vertex id (true for any index built under
//! the rank convention whose derived vertices rank below their parents,
//! verified during the split — not assumed: a degree tie can rank a
//! derived vertex above a parent), the winning pivot of `(s, t)` is
//! `<= min(s, t)`,
//! so only shards whose `lo <= min(s, t)` can contribute and the router
//! may skip the rest. The flag is only usable when clients speak rank
//! ids (no `.rank` translation sidecar); otherwise the router must
//! broadcast, which is still exact, just not pruned.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use std::io;

use extmem::wire;
use sfgraph::{Dist, VertexId};

use crate::index::{LabelIndex, VertexLabels};

/// Magic tag opening a serialized [`ShardSpec`] sidecar.
pub const SHARD_MAGIC: &[u8; 8] = b"HOPSHRD1";

/// Serialized [`ShardSpec`] length: magic + 4×u32 + flag + padding.
pub const SHARD_SIDECAR_LEN: usize = 28;

/// One shard's slot in a pivot-range partition of an index image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// First pivot id owned by this shard (inclusive).
    pub lo: VertexId,
    /// One past the last pivot id owned by this shard.
    pub hi: VertexId,
    /// This shard's position in the partition (0-based).
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
    /// Whether every entry in the *source* image satisfied
    /// `pivot <= vertex` (the rank-space pruning invariant).
    pub rank_pruned: bool,
}

impl ShardSpec {
    /// Serialize as a `HOPSHRD1` sidecar blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SHARD_SIDECAR_LEN);
        out.extend_from_slice(SHARD_MAGIC);
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.push(self.rank_pruned as u8);
        out.extend_from_slice(&[0, 0, 0]);
        out
    }

    /// Parse a `HOPSHRD1` sidecar blob, validating every field so a
    /// corrupt sidecar is refused rather than routed on.
    pub fn decode(bytes: &[u8]) -> io::Result<ShardSpec> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if bytes.len() != SHARD_SIDECAR_LEN || bytes.first_chunk::<8>() != Some(SHARD_MAGIC) {
            return Err(bad("not a HOPSHRD1 shard sidecar"));
        }
        let word = |at: usize| wire::u32_at(bytes, at);
        let (Some(lo), Some(hi), Some(index), Some(count)) =
            (word(8), word(12), word(16), word(20))
        else {
            return Err(bad("not a HOPSHRD1 shard sidecar"));
        };
        if lo > hi {
            return Err(bad("shard range is inverted"));
        }
        if count == 0 || index >= count {
            return Err(bad("shard index outside the partition"));
        }
        let pad_ok = bytes.get(25..28) == Some([0u8, 0, 0].as_slice());
        let Some(flag) = wire::u8_at(bytes, 24).filter(|&f| f <= 1 && pad_ok) else {
            return Err(bad("invalid shard flags"));
        };
        Ok(ShardSpec { lo, hi, index, count, rank_pruned: flag != 0 })
    }
}

/// Fold `other` into `acc` pointwise by `min` — the cross-shard answer
/// merge. `INF_DIST` is the identity, so a shard with no common pivot
/// for a pair never disturbs another shard's answer.
///
/// # Panics
/// If the slices disagree in length (shards answer the same batch).
#[expect(
    clippy::disallowed_macros,
    reason = "documented contract: the client session already rejects a reply whose length \
              disagrees with its request, so a mismatch here is a caller bug"
)]
pub fn min_merge(acc: &mut [Dist], other: &[Dist]) {
    assert_eq!(acc.len(), other.len(), "shard answers must align");
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = (*a).min(b);
    }
}

/// Split a serialized index image into `k` shard images by pivot
/// range, balanced by entry count. Returns the shards in partition
/// order; ranges tile `[0, n)` exactly (empty ranges are possible when
/// `k` exceeds the number of populated pivots). The source must pass
/// the same validation a serving load applies.
pub fn shard_image(bytes: &[u8], k: usize) -> io::Result<Vec<(Vec<u8>, ShardSpec)>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if k == 0 {
        return Err(bad("shard count must be at least 1"));
    }
    if k > u32::MAX as usize {
        return Err(bad("shard count exceeds u32"));
    }
    let index = crate::image::read_index(bytes)?;
    let n = index.num_vertices();

    // One pass over every entry: pivot histogram (for balanced cuts)
    // and the rank-pruning invariant check, which records obey too.
    let mut hist = vec![0u64; n];
    let mut rank_pruned = true;
    for side in index.sides() {
        for (v, label) in side.iter().enumerate() {
            rank_pruned &= label
                .record()
                .is_none_or(|r| r.pairs().iter().all(|&(parent, _)| parent as usize <= v));
            for e in label.entries() {
                // The decoder has checked `pivot < n`.
                if let Some(slot) = hist.get_mut(e.pivot as usize) {
                    *slot += 1;
                }
                rank_pruned &= e.pivot as usize <= v;
            }
        }
    }

    // Cut at entry-count quantiles: boundary i is the smallest vertex
    // whose prefix mass reaches total*i/k. Quantile targets are
    // monotone, so the boundaries are too, and they tile [0, n).
    let total: u64 = hist.iter().sum();
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    let mut prefix = 0u64;
    let mut at = 0usize;
    for i in 1..k {
        // u128: `total * i` can exceed u64 for enormous images.
        let target = (total as u128 * i as u128 / k as u128) as u64;
        while prefix < target {
            let Some(&mass) = hist.get(at) else { break };
            prefix += mass;
            at += 1;
        }
        bounds.push(at);
    }
    bounds.push(n);

    let mut shards = Vec::with_capacity(k);
    for (i, (&lo, &hi)) in bounds.iter().zip(bounds.iter().skip(1)).enumerate() {
        let (lo, hi) = (lo as u32, hi as u32);
        let cut = |label: &VertexLabels| {
            if label.record().is_some() {
                return label.clone();
            }
            let kept = label.entries().iter().filter(|e| (lo..hi).contains(&e.pivot));
            VertexLabels::from_entries(kept.copied().collect())
        };
        let shard = LabelIndex::from_sides(
            index.sides().iter().map(|side| side.iter().map(cut).collect()).collect(),
        );
        let mut image = Vec::new();
        shard.write_hopidx(&mut image)?;
        let spec = ShardSpec { lo, hi, index: i as u32, count: k as u32, rank_pruned };
        shards.push((image, spec));
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::{DirectedLabels, LabelIndex, VertexLabels};
    use crate::LabelEntry;
    use sfgraph::INF_DIST;

    fn image_of(index: &LabelIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        index.write_hopidx(&mut bytes).unwrap();
        bytes
    }

    fn small_directed() -> LabelIndex {
        // Path 3 -> 2 -> 1 -> 0 under rank ids (0 highest-ranked).
        let mut d = DirectedLabels {
            in_labels: (0..4).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
            out_labels: (0..4).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
        };
        d.out_labels[1].insert_min(LabelEntry::new(0, 1));
        d.out_labels[2].insert_min(LabelEntry::new(0, 2));
        d.out_labels[2].insert_min(LabelEntry::new(1, 1));
        d.out_labels[3].insert_min(LabelEntry::new(0, 3));
        d.out_labels[3].insert_min(LabelEntry::new(2, 1));
        d.in_labels[0].insert_min(LabelEntry::new(0, 0));
        LabelIndex::Directed(d)
    }

    #[test]
    fn spec_roundtrip_and_rejection() {
        let spec = ShardSpec { lo: 3, hi: 17, index: 1, count: 4, rank_pruned: true };
        let blob = spec.encode();
        assert_eq!(blob.len(), SHARD_SIDECAR_LEN);
        assert_eq!(ShardSpec::decode(&blob).unwrap(), spec);

        assert!(ShardSpec::decode(b"nonsense").is_err());
        let mut inverted =
            ShardSpec { lo: 9, hi: 9, index: 0, count: 1, rank_pruned: false }.encode();
        inverted[8..12].copy_from_slice(&10u32.to_le_bytes()); // lo = 10 > hi = 9
        assert!(ShardSpec::decode(&inverted).is_err());
        let mut out_of_partition = spec.encode();
        out_of_partition[16..20].copy_from_slice(&4u32.to_le_bytes()); // index == count
        assert!(ShardSpec::decode(&out_of_partition).is_err());
        let mut bad_flag = spec.encode();
        bad_flag[24] = 7;
        assert!(ShardSpec::decode(&bad_flag).is_err());
    }

    #[test]
    fn shards_tile_and_min_merge_matches_unsharded() {
        let index = small_directed();
        let bytes = image_of(&index);
        let whole = FlatIndex::from_hopidx_bytes(&bytes).unwrap();
        let pairs: Vec<(u32, u32)> = (0..4).flat_map(|s| (0..4).map(move |t| (s, t))).collect();
        let expect = whole.query_many(&pairs, 1);

        for k in 1..=6 {
            let shards = shard_image(&bytes, k).unwrap();
            assert_eq!(shards.len(), k);
            assert_eq!(shards[0].1.lo, 0);
            assert_eq!(shards[k - 1].1.hi, 4);
            for w in shards.windows(2) {
                assert_eq!(w[0].1.hi, w[1].1.lo, "ranges must tile");
            }
            let mut merged = vec![INF_DIST; pairs.len()];
            for (image, spec) in &shards {
                assert!(spec.rank_pruned, "rank-convention index must verify as pruned");
                let flat = FlatIndex::from_hopidx_bytes(image).unwrap();
                assert_eq!(flat.num_vertices(), 4);
                assert!(flat.is_directed());
                min_merge(&mut merged, &flat.query_many(&pairs, 1));
            }
            assert_eq!(merged, expect, "k = {k}");
        }
    }

    #[test]
    fn non_rank_pruned_image_is_flagged() {
        // An undirected label set where a low vertex cites a higher
        // pivot — legal for querying, but not rank-pruned.
        let mut idx = LabelIndex::new_undirected(3);
        if let LabelIndex::Undirected(u) = &mut idx {
            u.labels[0].insert_min(LabelEntry::new(2, 5));
            u.labels[1].insert_min(LabelEntry::new(2, 1));
        }
        let bytes = image_of(&idx);
        let shards = shard_image(&bytes, 2).unwrap();
        assert!(shards.iter().all(|(_, s)| !s.rank_pruned));
        // Still exact under the merge.
        let whole = FlatIndex::from_hopidx_bytes(&bytes).unwrap();
        let pairs = [(0u32, 1u32), (1, 0), (0, 2), (2, 2)];
        let mut merged = vec![INF_DIST; pairs.len()];
        for (image, _) in &shards {
            min_merge(
                &mut merged,
                &FlatIndex::from_hopidx_bytes(image).unwrap().query_many(&pairs, 1),
            );
        }
        assert_eq!(merged, whole.query_many(&pairs, 1));
    }

    #[test]
    fn records_go_to_every_shard_and_must_obey_the_pruning_rule_too() {
        // A star 1 – {0, 2, 3} with 0 – 4 – 1: 2 and 3 are derived from
        // 1 (parent 1 ≤ 2, 3) and 4 from 0 and 1. In the second index
        // so is 0 — a leaf ranked above its parent, as a degree tie can
        // leave it — and in the third 4's parents are 1 and 5, above it.
        let record = |pairs: &[_]| VertexLabels::from_record(crate::Record::new(pairs));
        let mut labels: Vec<_> = (0..6).map(VertexLabels::with_trivial).collect();
        labels[1].insert_min(LabelEntry::new(0, 3));
        labels[5].insert_min(LabelEntry::new(1, 1));
        labels[2] = record(&[(1, 3)]);
        labels[3] = record(&[(1, 3)]);
        labels[4] = record(&[(0, 2), (1, 2)]);
        let pruned = LabelIndex::Undirected(crate::UndirectedLabels { labels: labels.clone() });
        let mut above = labels.clone();
        above[4] = record(&[(1, 2), (5, 2)]);
        let above = LabelIndex::Undirected(crate::UndirectedLabels { labels: above });
        labels[0] = record(&[(1, 3)]);
        labels[4] = record(&[(1, 2)]);
        let unpruned = LabelIndex::Undirected(crate::UndirectedLabels { labels });
        let pairs: Vec<(u32, u32)> = (0..6).flat_map(|s| (0..6).map(move |t| (s, t))).collect();
        for (index, rank_pruned) in [(pruned, true), (unpruned, false), (above, false)] {
            let bytes = image_of(&index);
            let expect: Vec<_> = pairs.iter().map(|&(s, t)| index.query(s, t)).collect();
            for k in 1..=3 {
                let mut merged = vec![INF_DIST; pairs.len()];
                for (image, spec) in shard_image(&bytes, k).unwrap() {
                    assert_eq!(spec.rank_pruned, rank_pruned, "k = {k}");
                    let flat = FlatIndex::from_hopidx_bytes(&image).unwrap();
                    assert_eq!(flat.query(2, 3), 6, "every shard answers a shared parent");
                    min_merge(&mut merged, &flat.query_many(&pairs, 1));
                }
                assert_eq!(merged, expect, "k = {k}");
            }
        }
    }

    #[test]
    fn garbage_and_zero_shards_are_refused() {
        assert!(shard_image(b"not an index", 2).is_err());
        let bytes = image_of(&small_directed());
        assert!(shard_image(&bytes, 0).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(truncated.len() - 8);
        assert!(shard_image(&truncated, 2).is_err());
    }
}
