//! Delta overlay: a small second index answering queries on a mutated
//! graph without rebuilding the frozen labels.
//!
//! The frozen [`FlatIndex`](crate::flat::FlatIndex) is exact for the
//! graph it was built from. When edges are *inserted* (or an existing
//! edge's weight is decreased — insertions merge by minimum weight),
//! distances can only shrink, and every improved path must cross at
//! least one new edge. [`OverlaySnapshot`] exploits that decomposition:
//! any path in the mutated graph `G' = G ∪ E'` that uses a new edge
//! splits as
//!
//! ```text
//!   s ──old──▶ a ──(G' closure)──▶ b ──old──▶ t
//! ```
//!
//! where `a` is the tail of the *first* new edge on the path and `b`
//! the head of the *last* one. The overlay therefore stores the
//! affected vertex set `A` (endpoints of inserted edges) together with
//! the exact all-pairs closure `D[a][b] = d_G'(a, b)` over `A`, and the
//! serving-time answer becomes
//!
//! ```text
//!   d_G'(s, t) = min( frozen(s, t),
//!                     min over a ∈ tails, b ∈ heads of
//!                         frozen(s, a) + D[a][b] + frozen(b, t) )
//! ```
//!
//! The closure itself is computed the same way: seed an `|A| × |A|`
//! matrix with `min(frozen(x, y), new-edge weight)` and run
//! Floyd–Warshall — old-graph segments between affected vertices are
//! already covered by frozen queries, so the closure is exact for `G'`.
//!
//! Cost model: a snapshot rebuild is `O(|A|²)` frozen queries plus an
//! `O(|A|³)` closure, and each query against a non-empty overlay adds
//! `O(|A|)` frozen point queries plus an `O(|A|²)` scan. Both are
//! intentionally bounded by keeping the overlay small and compacting
//! (full rebuild on the mutated graph, which empties the overlay) once
//! it crosses a threshold.
//!
//! [`LiveIndex`] packages a frozen backend plus one immutable snapshot
//! behind [`QueryBackend`], so the serving tier swaps whole snapshots
//! atomically (copy-on-write) and every pinned `LiveIndex` keeps
//! answering from exactly one consistent state.
//!
//! Everything here operates in *rank space*, like the rest of the
//! crate; id translation stays the caller's job.

use std::io;
use std::sync::Arc;

use sfgraph::{Dist, VertexId, INF_DIST};

use crate::query::QueryBackend;

/// An immutable view of a batch of edge insertions on top of a frozen
/// index: the affected vertices and the exact distance closure among
/// them on the mutated graph. Built once per update batch, then shared
/// read-only by every in-flight query.
#[derive(Debug, Default)]
pub struct OverlaySnapshot {
    directed: bool,
    /// Deduplicated inserted edges, minimum weight per endpoint pair;
    /// undirected edges normalised to `u < v`. Kept so the overlay can
    /// be merged into the next snapshot and replayed by a compactor.
    edges: Vec<(VertexId, VertexId, Dist)>,
    /// Sorted endpoints of all inserted edges (the affected set `A`).
    verts: Vec<VertexId>,
    /// Positions in `verts` that can start an overlay detour: tails of
    /// inserted edges (every endpoint for undirected graphs).
    srcs: Vec<u32>,
    /// Positions in `verts` that can end one: heads of inserted edges.
    dsts: Vec<u32>,
    /// `verts.len()²` row-major mutated-graph distances over `verts`.
    closure: Vec<Dist>,
}

impl OverlaySnapshot {
    /// An overlay with no edges; queries pass through unchanged.
    pub fn empty() -> OverlaySnapshot {
        OverlaySnapshot::default()
    }

    /// Build a snapshot for `edges` (in rank space) over `frozen`.
    ///
    /// Self-loops are dropped and zero weights clamped to 1, mirroring
    /// `sfgraph::GraphBuilder`'s cleaning rules so that a later full
    /// rebuild of the mutated graph answers identically. Duplicate
    /// insertions keep the minimum weight; an edge the frozen graph
    /// already covers with a smaller weight is harmless (the `min`
    /// never loses to it).
    pub fn build(
        frozen: &dyn QueryBackend,
        edges: &[(VertexId, VertexId, Dist)],
    ) -> io::Result<OverlaySnapshot> {
        let directed = frozen.is_directed();
        let mut dedup: std::collections::BTreeMap<(VertexId, VertexId), Dist> =
            std::collections::BTreeMap::new();
        for &(u, v, w) in edges {
            if u == v {
                continue;
            }
            let key = if directed || u < v { (u, v) } else { (v, u) };
            let w = w.max(1);
            let slot = dedup.entry(key).or_insert(w);
            *slot = (*slot).min(w);
        }
        let edges: Vec<(VertexId, VertexId, Dist)> =
            dedup.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        if edges.is_empty() {
            return Ok(OverlaySnapshot { directed, ..OverlaySnapshot::default() });
        }

        let mut verts: Vec<VertexId> = edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        verts.sort_unstable();
        verts.dedup();
        let k = verts.len();
        let pos = |v: VertexId| verts.binary_search(&v).expect("endpoint in verts");

        // Base matrix: old-graph distances between affected vertices,
        // improved by the direct new edges.
        let mut closure = vec![INF_DIST; k * k];
        for (i, &a) in verts.iter().enumerate() {
            for (j, &b) in verts.iter().enumerate() {
                closure[i * k + j] = if i == j { 0 } else { frozen.query(a, b)? };
            }
        }
        for &(u, v, w) in &edges {
            let (pu, pv) = (pos(u), pos(v));
            let forward = &mut closure[pu * k + pv];
            *forward = (*forward).min(w);
            if !directed {
                let backward = &mut closure[pv * k + pu];
                *backward = (*backward).min(w);
            }
        }
        // Floyd–Warshall closes the matrix over paths alternating
        // old-graph segments and new edges — exactly the mutated-graph
        // distances among `verts`.
        for m in 0..k {
            for i in 0..k {
                let dim = closure[i * k + m];
                if dim == INF_DIST {
                    continue;
                }
                for j in 0..k {
                    let cand = dim.saturating_add(closure[m * k + j]);
                    if cand < closure[i * k + j] {
                        closure[i * k + j] = cand;
                    }
                }
            }
        }

        let (srcs, dsts) = if directed {
            let mut srcs: Vec<u32> = edges.iter().map(|&(u, _, _)| pos(u) as u32).collect();
            let mut dsts: Vec<u32> = edges.iter().map(|&(_, v, _)| pos(v) as u32).collect();
            srcs.sort_unstable();
            srcs.dedup();
            dsts.sort_unstable();
            dsts.dedup();
            (srcs, dsts)
        } else {
            let all: Vec<u32> = (0..k as u32).collect();
            (all.clone(), all)
        };
        Ok(OverlaySnapshot { directed, edges, verts, srcs, dsts, closure })
    }

    /// Whether the overlay holds no edges (queries pass through).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Deduplicated inserted-edge count — the compaction trigger metric.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The deduplicated inserted edges, `(u, v, w)` in rank space.
    pub fn edges(&self) -> &[(VertexId, VertexId, Dist)] {
        &self.edges
    }

    /// Number of distinct vertices touched by inserted edges.
    pub fn affected(&self) -> usize {
        self.verts.len()
    }

    /// Heap bytes held by the snapshot (edge list plus closure).
    pub fn resident_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<(VertexId, VertexId, Dist)>()
            + self.verts.len() * std::mem::size_of::<VertexId>()
            + (self.srcs.len() + self.dsts.len()) * std::mem::size_of::<u32>()
            + self.closure.len() * std::mem::size_of::<Dist>()
    }

    /// Improve a frozen answer `base = frozen(s, t)` with paths that
    /// cross inserted edges. Returns `min(base, best overlay detour)`.
    pub fn improve(
        &self,
        frozen: &dyn QueryBackend,
        s: VertexId,
        t: VertexId,
        base: Dist,
    ) -> io::Result<Dist> {
        if self.edges.is_empty() || base == 0 {
            // `base == 0` means `s == t`; weights are ≥ 1 so no detour
            // through a new edge can beat it.
            return Ok(base);
        }
        let k = self.verts.len();
        let mut head_dist = Vec::with_capacity(self.dsts.len());
        for &j in &self.dsts {
            head_dist.push(frozen.query(self.verts[j as usize], t)?);
        }
        let mut best = base;
        for &i in &self.srcs {
            let da = frozen.query(s, self.verts[i as usize])?;
            if da >= best {
                continue;
            }
            let row = &self.closure[i as usize * k..(i as usize + 1) * k];
            for (&j, &db) in self.dsts.iter().zip(&head_dist) {
                if db >= best {
                    continue;
                }
                let cand = da.saturating_add(row[j as usize]).saturating_add(db);
                if cand < best {
                    best = cand;
                }
            }
        }
        Ok(best)
    }

    /// Whether the snapshot was built against a directed backend.
    pub fn is_directed(&self) -> bool {
        self.directed
    }
}

/// A frozen backend plus one immutable overlay snapshot, served as a
/// single [`QueryBackend`]: `query` answers `min(frozen, overlay)`.
///
/// `LiveIndex` is cheap to clone-with-new-overlay (the frozen side is
/// shared through an `Arc`), which is how the serving tier applies an
/// update batch: derive the next snapshot, wrap it in a new `LiveIndex`
/// and publish that atomically. In-flight queries keep the `Arc` they
/// pinned, so each one observes exactly one `(frozen, overlay)` state.
pub struct LiveIndex {
    frozen: Arc<dyn QueryBackend>,
    overlay: Arc<OverlaySnapshot>,
    generation: u64,
}

impl LiveIndex {
    /// Wrap a frozen backend with an empty overlay.
    pub fn new(frozen: Arc<dyn QueryBackend>, generation: u64) -> LiveIndex {
        LiveIndex { frozen, overlay: Arc::new(OverlaySnapshot::empty()), generation }
    }

    /// Wrap a frozen backend with an existing snapshot.
    pub fn with_overlay(
        frozen: Arc<dyn QueryBackend>,
        overlay: Arc<OverlaySnapshot>,
        generation: u64,
    ) -> LiveIndex {
        LiveIndex { frozen, overlay, generation }
    }

    /// A new `LiveIndex` over the same frozen labels whose overlay
    /// covers `edges` (rank space, the *complete* desired edge set —
    /// callers merge old overlay edges with the new batch themselves,
    /// typically by keeping an append-only log).
    pub fn rebuild_overlay(&self, edges: &[(VertexId, VertexId, Dist)]) -> io::Result<LiveIndex> {
        let snapshot = OverlaySnapshot::build(&*self.frozen, edges)?;
        Ok(LiveIndex {
            frozen: Arc::clone(&self.frozen),
            overlay: Arc::new(snapshot),
            generation: self.generation,
        })
    }

    /// The frozen half.
    pub fn frozen(&self) -> &Arc<dyn QueryBackend> {
        &self.frozen
    }

    /// The current overlay snapshot.
    pub fn overlay(&self) -> &Arc<OverlaySnapshot> {
        &self.overlay
    }
}

impl QueryBackend for LiveIndex {
    fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    fn is_directed(&self) -> bool {
        self.frozen.is_directed()
    }

    fn resident_bytes(&self) -> usize {
        self.frozen.resident_bytes() + self.overlay.resident_bytes()
    }

    fn generation_id(&self) -> u64 {
        self.generation
    }

    fn query(&self, s: VertexId, t: VertexId) -> io::Result<Dist> {
        let base = self.frozen.query(s, t)?;
        self.overlay.improve(&*self.frozen, s, t, base)
    }

    fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) -> io::Result<()> {
        // Stage so an overlay I/O error leaves `out` untouched. The
        // overlay pass is per-pair and order-independent, so answers
        // stay bit-identical for any `threads` value the frozen side
        // fans out with.
        let mut staged = Vec::with_capacity(pairs.len());
        self.frozen.query_many_into(pairs, threads, &mut staged)?;
        if !self.overlay.is_empty() {
            for (slot, &(s, t)) in staged.iter_mut().zip(pairs) {
                *slot = self.overlay.improve(&*self.frozen, s, t, *slot)?;
            }
        }
        out.extend_from_slice(&staged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::LabelIndex;
    use crate::LabelEntry;
    use sfgraph::builder::GraphBuilder;
    use sfgraph::traversal::all_pairs;
    use sfgraph::Graph;

    /// A trivially-exact 2-hop cover: every vertex stores the distance
    /// to/from every higher-ranked vertex (id ≤ its own). The
    /// highest-ranked vertex on any shortest path is such a pivot for
    /// both endpoints, so joins are exact.
    fn full_index(g: &Graph) -> LabelIndex {
        let n = g.num_vertices();
        let ap = all_pairs(g);
        let ap_rev: Option<Vec<Vec<Dist>>> = g.is_directed().then(|| {
            (0..n)
                .map(|t| (0..n).map(|s| ap[s][t]).collect::<Vec<Dist>>())
                .collect::<Vec<Vec<Dist>>>()
        });
        let mut idx = if g.is_directed() {
            LabelIndex::new_directed(n)
        } else {
            LabelIndex::new_undirected(n)
        };
        for v in 0..n {
            for p in 0..=v {
                match &mut idx {
                    LabelIndex::Undirected(u) => {
                        if ap[v][p] != INF_DIST {
                            u.labels[v].insert_min(LabelEntry::new(p as VertexId, ap[v][p]));
                        }
                    }
                    LabelIndex::Directed(d) => {
                        if ap[v][p] != INF_DIST {
                            d.out_labels[v].insert_min(LabelEntry::new(p as VertexId, ap[v][p]));
                        }
                        let to_v = ap_rev.as_ref().unwrap()[v][p];
                        if to_v != INF_DIST {
                            d.in_labels[v].insert_min(LabelEntry::new(p as VertexId, to_v));
                        }
                    }
                }
            }
        }
        idx
    }

    fn check_overlay(mut builder: GraphBuilder, inserts: &[(VertexId, VertexId, Dist)]) {
        let g = builder.build_clone();
        let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(&full_index(&g)));
        let live = LiveIndex::new(Arc::clone(&frozen), 1).rebuild_overlay(inserts).unwrap();

        for &(u, v, w) in inserts {
            builder.add_weighted_edge(u, v, w);
        }
        let mutated = builder.build();
        let want = all_pairs(&mutated);

        let n = g.num_vertices();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..n).flat_map(|s| (0..n).map(move |t| (s as VertexId, t as VertexId))).collect();
        let mut got = Vec::new();
        live.query_many_into(&pairs, 1, &mut got).unwrap();
        for (&(s, t), &d) in pairs.iter().zip(&got) {
            assert_eq!(d, want[s as usize][t as usize], "{s}->{t}");
            assert_eq!(live.query(s, t).unwrap(), d, "point query {s}->{t}");
        }
        let mut threaded = Vec::new();
        live.query_many_into(&pairs, 4, &mut threaded).unwrap();
        assert_eq!(got, threaded, "answers must not depend on the thread count");
    }

    #[test]
    fn undirected_overlay_matches_rebuilt_ground_truth() {
        let mut b = GraphBuilder::new_undirected(8).weighted();
        for &(u, v, w) in
            &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 4), (4, 5, 1), (0, 6, 9), (6, 7, 2)]
        {
            b.add_weighted_edge(u, v, w);
        }
        // A shortcut, a brand-new attachment for an isolated-ish tail,
        // and a weight improvement on an existing edge.
        check_overlay(b, &[(0, 4, 1), (5, 7, 2), (0, 6, 3)]);
    }

    #[test]
    fn directed_overlay_matches_rebuilt_ground_truth() {
        let mut b = GraphBuilder::new_directed(7).weighted();
        for &(u, v, w) in &[(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 5), (4, 5, 2), (5, 6, 3)] {
            b.add_weighted_edge(u, v, w);
        }
        // Connect the two components in one direction only and add a
        // back-edge shortcut.
        check_overlay(b, &[(2, 4, 1), (6, 0, 2), (3, 1, 1)]);
    }

    #[test]
    fn empty_overlay_passes_queries_through() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(&full_index(&g)));
        let live = LiveIndex::new(Arc::clone(&frozen), 7);
        assert_eq!(live.generation_id(), 7);
        assert!(live.overlay().is_empty());
        assert_eq!(live.query(0, 2).unwrap(), 2);
        assert_eq!(live.query(0, 3).unwrap(), INF_DIST);
        assert_eq!(live.resident_bytes(), frozen.resident_bytes());
    }

    #[test]
    fn snapshot_dedups_and_cleans_like_graph_builder() {
        let mut b = GraphBuilder::new_undirected(4).weighted();
        b.add_weighted_edge(0, 1, 5);
        let g = b.build();
        let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(&full_index(&g)));
        // Self-loop dropped, duplicates keep min, zero clamps to 1,
        // mirrored undirected edges merge.
        let snap = OverlaySnapshot::build(
            &*frozen,
            &[(2, 2, 1), (1, 2, 9), (2, 1, 4), (3, 2, 0), (1, 2, 6)],
        )
        .unwrap();
        assert_eq!(snap.num_edges(), 2);
        assert_eq!(snap.edges(), &[(1, 2, 4), (2, 3, 1)]);
        assert_eq!(snap.affected(), 3);
        assert_eq!(snap.improve(&*frozen, 0, 3, INF_DIST).unwrap(), 10);
    }
}
