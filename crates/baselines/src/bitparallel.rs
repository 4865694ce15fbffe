//! Bit-parallel label post-processing (Section 6 of the paper).
//!
//! After a 2-hop index `L` is built for an undirected unweighted graph,
//! part of it is converted into PLL-style bit-parallel labels: up to
//! [`MAX_ROOTS`] *roots* `r` are chosen (highest rank first), and for each
//! root up to 64 of its neighbours form the disjoint set `S_r`. A tuple
//! `(r, d_rv, S⁻¹_r(v), S⁰_r(v))` per vertex then replaces every plain
//! entry whose pivot is `r` or lies in `S_r`: bit `i` of `S⁻¹`/`S⁰` says
//! the `i`-th member `u` of `S_r` satisfies `d_uv − d_rv = −1 / 0`
//! (entries with difference `+1` are *discarded* — a path via `u` can
//! never beat the path via `r` because `d_ur = 1`). Queries check common
//! roots with one 64-bit marker intersection and recover the exact
//! distance as `d_sr + d_tr` minus 2 or 1 according to the set overlaps,
//! then take the minimum with the remaining *normal* labels.

use sfgraph::{Dist, Graph, VertexId, INF_DIST};

use hoplabels::index::{merge_join, resolve, LabelIndex, VertexLabels};

/// Maximum number of roots: one bit per root in the per-vertex marker.
pub const MAX_ROOTS: usize = 64;

/// One bit-parallel tuple of `LBP(v)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BpTuple {
    /// Index of the root in [`BitParallelIndex::roots`].
    pub root_idx: u32,
    /// Exact distance `d(root, v)`.
    pub dist: Dist,
    /// Bit `i` ⇔ the `i`-th member `u` of `S_r` has `d_uv = d_rv − 1`.
    pub s_minus: u64,
    /// Bit `i` ⇔ the `i`-th member `u` of `S_r` has `d_uv = d_rv`.
    pub s_zero: u64,
}

/// Bit-parallel index: transformed tuples plus the remaining normal
/// 2-hop labels.
pub struct BitParallelIndex {
    roots: Vec<VertexId>,
    /// Per-vertex tuples, sorted by `root_idx`.
    tuples: Vec<Vec<BpTuple>>,
    /// Bit `i` of `markers[v]` ⇔ `LBP(v)` has a tuple for root `i`.
    markers: Vec<u64>,
    /// The untransformed labels `LN(v)`; a derived vertex keeps its
    /// record here, and no tuples.
    normal: Vec<VertexLabels>,
}

impl BitParallelIndex {
    /// Transform an undirected 2-hop index into bit-parallel form.
    ///
    /// `num_roots` is clamped to [`MAX_ROOTS`] (the paper's default is
    /// 50). Roots are taken in rank order; each root's `S_r` holds up to
    /// 64 neighbours not claimed by an earlier root.
    ///
    /// # Panics
    /// Panics if `index` is directed or `g` is weighted (Section 6
    /// applies to undirected unweighted graphs only) or if `g` and
    /// `index` disagree on the vertex count.
    pub fn build(g: &Graph, index: &LabelIndex, num_roots: usize) -> BitParallelIndex {
        assert!(!index.is_directed(), "bit-parallel labels need an undirected index");
        assert!(!g.is_weighted(), "bit-parallel labels need unit edge lengths");
        assert_eq!(g.num_vertices(), index.num_vertices());
        let n = g.num_vertices();
        let num_roots = num_roots.min(MAX_ROOTS);

        // Choose roots and their disjoint neighbour sets.
        let mut roots: Vec<VertexId> = Vec::with_capacity(num_roots);
        let mut role = vec![Role::Free; n]; // each vertex: root, member, or free
        let mut member_pos = vec![0u8; n];
        let mut member_root = vec![0u32; n];
        let mut sets: Vec<Vec<VertexId>> = Vec::with_capacity(num_roots);
        for v in 0..n as VertexId {
            if roots.len() == num_roots {
                break;
            }
            if role[v as usize] != Role::Free {
                continue;
            }
            let root_idx = roots.len() as u32;
            role[v as usize] = Role::Root;
            let mut set = Vec::new();
            for &u in g.neighbors(v, sfgraph::Direction::Out) {
                if set.len() == 64 {
                    break;
                }
                if role[u as usize] == Role::Free {
                    role[u as usize] = Role::Member;
                    member_pos[u as usize] = set.len() as u8;
                    member_root[u as usize] = root_idx;
                    set.push(u);
                }
            }
            sets.push(set);
            roots.push(v);
        }
        let root_index_of =
            |v: VertexId| -> Option<u32> { roots.iter().position(|&r| r == v).map(|i| i as u32) };

        let labels = &index.sides()[0];

        let mut tuples: Vec<Vec<BpTuple>> = vec![Vec::new(); n];
        let mut markers = vec![0u64; n];
        let mut normal: Vec<VertexLabels> = Vec::with_capacity(n);

        for v in 0..n as VertexId {
            if labels[v as usize].record().is_some() {
                normal.push(labels[v as usize].clone());
                continue;
            }
            let mut keep: Vec<hoplabels::LabelEntry> = Vec::new();
            let mut local: Vec<BpTuple> = Vec::new();
            let find_or_insert = |local: &mut Vec<BpTuple>, root_idx: u32, dist: Dist| -> usize {
                match local.binary_search_by_key(&root_idx, |t| t.root_idx) {
                    Ok(i) => i,
                    Err(i) => {
                        local.insert(i, BpTuple { root_idx, dist, s_minus: 0, s_zero: 0 });
                        i
                    }
                }
            };
            for &e in labels[v as usize].entries() {
                match role[e.pivot as usize] {
                    Role::Root => {
                        let idx = root_index_of(e.pivot).expect("root has an index");
                        find_or_insert(&mut local, idx, e.dist);
                    }
                    Role::Member => {
                        let u = e.pivot;
                        let root_idx = member_root[u as usize];
                        let r = roots[root_idx as usize];
                        // Need d(r, v); exact via the original index (r is
                        // the higher-ranked vertex, so the query resolves).
                        let drv = index.query(r, v);
                        debug_assert_ne!(drv, INF_DIST, "member pivot implies root reachable");
                        let i = find_or_insert(&mut local, root_idx, drv);
                        let bit = 1u64 << member_pos[u as usize];
                        // d_uv − d_rv ∈ {−1, 0, +1} because d(u, r) = 1.
                        if e.dist + 1 == drv {
                            local[i].s_minus |= bit;
                        } else if e.dist == drv {
                            local[i].s_zero |= bit;
                        }
                        // +1 difference: discard — the root tuple covers it.
                    }
                    Role::Free => keep.push(e),
                }
            }
            for t in &local {
                markers[v as usize] |= 1u64 << t.root_idx;
            }
            tuples[v as usize] = local;
            normal.push(VertexLabels::from_entries(keep));
        }

        BitParallelIndex { roots, tuples, markers, normal }
    }

    /// The root vertices, in rank order.
    pub fn roots(&self) -> &[VertexId] {
        &self.roots
    }

    /// Entries remaining in the normal labels.
    pub fn total_normal_entries(&self) -> usize {
        self.normal.iter().map(VertexLabels::len).sum()
    }

    /// Total bit-parallel tuples stored.
    pub fn total_tuples(&self) -> usize {
        self.tuples.iter().map(Vec::len).sum()
    }

    /// Approximate in-memory footprint in bytes (tuples are 24 B, normal
    /// entries 8 B, one 8 B marker per vertex).
    pub fn size_bytes(&self) -> usize {
        self.total_tuples() * std::mem::size_of::<BpTuple>()
            + self.total_normal_entries() * 8
            + self.markers.len() * 8
    }

    /// Exact distance query (Section 6's bit-parallel evaluation): the
    /// record rule of [`resolve`], whose slots are vertices and whose
    /// join is the bit-parallel one, so a derived vertex answers through
    /// its record.
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        let record = |&v: &VertexId| self.normal[v as usize].record();
        resolve(s, t, |v, _| Ok(v), record, |&a, &b| self.core_query(a, b))
            .expect("a record's parent holds a label")
    }

    /// The query between two vertices that carry labels.
    fn core_query(&self, s: VertexId, t: VertexId) -> Dist {
        let (ls, lt) = (&self.normal[s as usize], &self.normal[t as usize]);
        let mut best = merge_join(ls.entries(), lt.entries(), VertexId::MAX, 0);
        if self.markers[s as usize] & self.markers[t as usize] != 0 {
            let (a, b) = (&self.tuples[s as usize], &self.tuples[t as usize]);
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                match a[i].root_idx.cmp(&b[j].root_idx) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let (ts, tt) = (&a[i], &b[j]);
                        let mut d = ts.dist.saturating_add(tt.dist);
                        if ts.s_minus & tt.s_minus != 0 {
                            d = d.saturating_sub(2);
                        } else if (ts.s_minus & tt.s_zero) | (ts.s_zero & tt.s_minus) != 0 {
                            d = d.saturating_sub(1);
                        }
                        best = best.min(d);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        best
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Free,
    Root,
    Member,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoplabels::LabelEntry;
    use sfgraph::traversal::all_pairs;
    use sfgraph::{Graph, GraphBuilder};

    /// Build a correct (canonical-by-rank) 2-hop cover by brute force:
    /// for every pair, label via the highest-ranked vertex on some
    /// shortest path. Small graphs only.
    fn brute_force_cover(g: &Graph) -> LabelIndex {
        let n = g.num_vertices();
        let ap = all_pairs(g);
        let mut labels: Vec<VertexLabels> =
            (0..n).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
        for s in 0..n {
            for t in 0..n {
                if ap[s][t] == INF_DIST || s == t {
                    continue;
                }
                // Highest-ranked vertex on any shortest s-t path.
                let mut best: Option<VertexId> = None;
                for w in 0..n {
                    if ap[s][w] != INF_DIST
                        && ap[w][t] != INF_DIST
                        && ap[s][w] + ap[w][t] == ap[s][t]
                    {
                        best = Some(best.map_or(w as VertexId, |b| b.min(w as VertexId)));
                    }
                }
                let w = best.expect("some vertex lies on the path");
                labels[s].insert_min(LabelEntry::new(w, ap[s][w as usize]));
                labels[t].insert_min(LabelEntry::new(w, ap[w as usize][t]));
            }
        }
        LabelIndex::from_sides(vec![labels])
    }

    fn check_graph(g: &Graph, num_roots: usize) {
        let index = brute_force_cover(g);
        let ap = all_pairs(g);
        let bp = BitParallelIndex::build(g, &index, num_roots);
        for s in 0..g.num_vertices() as VertexId {
            for t in 0..g.num_vertices() as VertexId {
                assert_eq!(
                    bp.query(s, t),
                    ap[s as usize][t as usize],
                    "bp query {s}->{t} (roots={num_roots})"
                );
            }
        }
    }

    #[test]
    fn star_exact_with_roots() {
        let mut b = GraphBuilder::new_undirected(8);
        for leaf in 1..8 {
            b.add_edge(0, leaf);
        }
        check_graph(&b.build(), 1);
    }

    #[test]
    fn path_exact_various_roots() {
        let mut b = GraphBuilder::new_undirected(10);
        for i in 0..9u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        for roots in [0, 1, 2, 5] {
            check_graph(&g, roots);
        }
    }

    #[test]
    fn disconnected_graph() {
        let mut b = GraphBuilder::new_undirected(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        check_graph(&b.build(), 3);
    }

    #[test]
    fn transformation_moves_entries_out_of_normal_labels() {
        let mut b = GraphBuilder::new_undirected(8);
        for leaf in 1..8 {
            b.add_edge(0, leaf);
        }
        let g = b.build();
        let index = brute_force_cover(&g);
        let before = index.total_entries();
        let bp = BitParallelIndex::build(&g, &index, 2);
        assert!(bp.total_normal_entries() < before, "some entries must transform");
        assert_eq!(bp.roots()[0], 0, "rank order: vertex 0 is the first root");
    }

    #[test]
    fn zero_roots_degenerates_to_plain_index() {
        let mut b = GraphBuilder::new_undirected(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 4);
        let g = b.build();
        let index = brute_force_cover(&g);
        let bp = BitParallelIndex::build(&g, &index, 0);
        assert_eq!(bp.total_tuples(), 0);
        assert_eq!(bp.total_normal_entries(), index.total_entries());
    }
}
