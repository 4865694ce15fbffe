//! Label sets, the 2-hop index, and the two rules every label reader,
//! builder and baseline shares: [`merge_join`], the one merge of two
//! pivot-sorted labels (the query of §2 and the prune of §3.3/§4.2), and
//! [`resolve`], the one answer for ends that may be derived vertices, to
//! which each reader — nested, disk, flat, bit-parallel — supplies only
//! how it fetches a slot and how it joins two labels.

use std::cmp::Ordering;
use std::io;

use sfgraph::{Direction, Dist, VertexId, INF_DIST};

use crate::entry::LabelEntry;

/// What a *derived* vertex — one the builders eliminated from the graph
/// (`sfgraph::reduce`) — holds on one side in place of a label: a
/// `(parent, offset)` pair per neighbour it has an arc to (source side)
/// or from (target side), and the weight of that arc. Every distance
/// from (on `Lout`/`L`) or to (on `Lin`) the vertex is the least over
/// its pairs of `offset` plus the parent's, and every parent carries a
/// label. An image holds one or two pairs, parents ascending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// The pairs; a one-pair record's second parent is [`NO_PARENT`].
    pairs: [(VertexId, Dist); RECORD_PAIRS],
}

/// The most pairs a record holds: a derived vertex has at most two
/// neighbours (`sfgraph::reduce::MAX_PARENTS`).
pub(crate) const RECORD_PAIRS: usize = 2;

/// No vertex: `n` is at most `u32::MAX`, so ids are below it.
pub(crate) const NO_PARENT: VertexId = VertexId::MAX;

impl Record {
    /// The record of `pairs`, in the order given.
    ///
    /// # Panics
    /// Unless `pairs` holds one or two pairs, none of them of parent
    /// `u32::MAX` (no vertex id).
    pub fn new(pairs: &[(VertexId, Dist)]) -> Record {
        assert!((1..=RECORD_PAIRS).contains(&pairs.len()), "a record holds one or two pairs");
        assert!(pairs.iter().all(|&(p, _)| p != NO_PARENT), "a parent is a vertex id");
        let mut own = [(NO_PARENT, 0); RECORD_PAIRS];
        own[..pairs.len()].copy_from_slice(pairs);
        Record { pairs: own }
    }

    /// The record of `pairs`, whose second parent is [`NO_PARENT`] when
    /// it has one pair: how a decoder builds one from pairs it has
    /// checked already.
    #[inline]
    pub(crate) fn from_array(pairs: [(VertexId, Dist); RECORD_PAIRS]) -> Record {
        Record { pairs }
    }

    /// The `(parent, offset)` pairs.
    #[inline]
    pub fn pairs(&self) -> &[(VertexId, Dist)] {
        let len = if self.pairs[1].0 == NO_PARENT { 1 } else { 2 };
        &self.pairs[..len]
    }
}

/// One vertex's label: entries sorted by pivot id, pivots unique — or,
/// for a derived vertex, a [`Record`] and no entries.
///
/// Because vertices are rank-relabeled, pivot order is rank order, so two
/// labels can be joined with a linear merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexLabels {
    slot: Slot,
}

/// Entries or a record, never both. An enum rather than an `Option`
/// beside the `Vec`: it keeps every label the size of its `Vec`, which
/// the engines hold one of per vertex per side.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Slot {
    Entries(Vec<LabelEntry>),
    Record(Record),
}

impl Default for VertexLabels {
    fn default() -> VertexLabels {
        VertexLabels { slot: Slot::Entries(Vec::new()) }
    }
}

impl VertexLabels {
    /// Empty label.
    pub fn new() -> VertexLabels {
        VertexLabels::default()
    }

    /// Label containing only the trivial self-entry `(v, 0)`.
    pub fn with_trivial(v: VertexId) -> VertexLabels {
        VertexLabels { slot: Slot::Entries(vec![LabelEntry::trivial(v)]) }
    }

    /// The slot of a derived vertex: `record` and no entries.
    pub fn from_record(record: Record) -> VertexLabels {
        VertexLabels { slot: Slot::Record(record) }
    }

    /// The record of a derived vertex; `None` for a label.
    #[inline]
    pub fn record(&self) -> Option<Record> {
        match self.slot {
            Slot::Record(record) => Some(record),
            Slot::Entries(_) => None,
        }
    }

    /// The sorted entries (none for a record).
    #[inline]
    pub fn entries(&self) -> &[LabelEntry] {
        match &self.slot {
            Slot::Entries(entries) => entries,
            Slot::Record(_) => &[],
        }
    }

    /// The entries to change; a record gaining an entry becomes a label.
    fn entries_mut(&mut self) -> &mut Vec<LabelEntry> {
        if let Slot::Record(_) = self.slot {
            self.slot = Slot::Entries(Vec::new());
        }
        let Slot::Entries(entries) = &mut self.slot else { unreachable!("replaced above") };
        entries
    }

    /// Number of entries (including the self-entry if present).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the slot holds neither an entry nor a record.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty() && self.record().is_none()
    }

    /// Distance recorded for `pivot`, if present.
    pub fn get(&self, pivot: VertexId) -> Option<Dist> {
        let entries = self.entries();
        entries.binary_search_by_key(&pivot, |e| e.pivot).ok().map(|i| entries[i].dist)
    }

    /// Insert `entry`, keeping the minimum distance per pivot.
    ///
    /// Returns `true` if the entry was added or improved an existing one.
    pub fn insert_min(&mut self, entry: LabelEntry) -> bool {
        let entries = self.entries_mut();
        match entries.binary_search_by_key(&entry.pivot, |e| e.pivot) {
            Ok(i) => {
                if entry.dist < entries[i].dist {
                    entries[i].dist = entry.dist;
                    true
                } else {
                    false
                }
            }
            Err(i) => {
                entries.insert(i, entry);
                true
            }
        }
    }

    /// Merge a batch of entries — sorted by pivot, pivots unique — into
    /// the label in one pass, keeping the minimum distance per pivot.
    ///
    /// This is the bulk counterpart of [`VertexLabels::insert_min`] used
    /// by the sharded engine when it applies a merged shard's survivors:
    /// one O(|label| + |batch|) merge instead of |batch| binary-search
    /// inserts, each of which may shift the tail of the entry vector.
    ///
    /// `on_apply(entry, had_existing)` is called for every entry that is
    /// added (`had_existing == false`) or that improves an existing
    /// pivot's distance (`had_existing == true`); entries dominated by
    /// the current label are skipped silently. Returns the number of
    /// applied entries.
    pub fn merge_min_sorted(
        &mut self,
        batch: &[LabelEntry],
        mut on_apply: impl FnMut(LabelEntry, bool),
    ) -> usize {
        debug_assert!(
            batch.windows(2).all(|w| w[0].pivot < w[1].pivot),
            "batch must be strictly sorted by pivot"
        );
        if batch.is_empty() {
            return 0;
        }
        let entries = self.entries_mut();
        // Tiny batches (stepping-heavy rounds produce many 1–2 entry
        // survivor groups) are cheaper as shifted in-place inserts than
        // as a full rebuild of the entry vector.
        if batch.len() <= 4 {
            let mut applied = 0usize;
            for &new in batch {
                match entries.binary_search_by_key(&new.pivot, |e| e.pivot) {
                    Ok(i) => {
                        if new.dist < entries[i].dist {
                            entries[i].dist = new.dist;
                            on_apply(new, true);
                            applied += 1;
                        }
                    }
                    Err(i) => {
                        entries.insert(i, new);
                        on_apply(new, false);
                        applied += 1;
                    }
                }
            }
            return applied;
        }
        let mut merged = Vec::with_capacity(entries.len() + batch.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut applied = 0usize;
        while i < entries.len() && j < batch.len() {
            let (cur, new) = (entries[i], batch[j]);
            match cur.pivot.cmp(&new.pivot) {
                std::cmp::Ordering::Less => {
                    merged.push(cur);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(new);
                    on_apply(new, false);
                    applied += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if new.dist < cur.dist {
                        merged.push(new);
                        on_apply(new, true);
                        applied += 1;
                    } else {
                        merged.push(cur);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&entries[i..]);
        for &new in &batch[j..] {
            merged.push(new);
            on_apply(new, false);
            applied += 1;
        }
        *entries = merged;
        applied
    }

    /// Keep only the entries `keep` accepts, in place and in order; a
    /// record has none to judge.
    pub fn retain(&mut self, keep: impl FnMut(&LabelEntry) -> bool) {
        if let Slot::Entries(entries) = &mut self.slot {
            entries.retain(keep);
        }
    }

    /// Rebuild from possibly unsorted, possibly duplicated entries,
    /// keeping the minimum distance per pivot.
    pub fn from_entries(mut entries: Vec<LabelEntry>) -> VertexLabels {
        entries.sort_unstable();
        entries.dedup_by(|later, first| later.pivot == first.pivot);
        VertexLabels { slot: Slot::Entries(entries) }
    }
}

/// The least `d_a + d_b` over the pivots below `ceiling` that two
/// pivot-sorted labels share — or, once one such sum is at or under
/// `bound`, that sum: the 2-hop query of §2 passes `VertexId::MAX` and
/// 0, and a prune asks only whether the answer is `≤ d` (§3.3/§4.2), so
/// it passes `d` and stops at the first witness. A sum saturates at
/// [`INF_DIST`], which is also the answer when no pivot is shared.
///
/// One linear merge, which also stops at the first pivot past the other
/// label's last: on scale-free graphs a short label routinely ends far
/// before a hub's. The entries are [`LabelEntry`]s or anything that holds
/// one, as the external build's `extmem::LabelRecord` does, and the two
/// labels need not hold the same kind.
#[inline]
pub fn merge_join<A, B>(a: &[A], b: &[B], ceiling: VertexId, bound: Dist) -> Dist
where
    A: Copy + Into<LabelEntry>,
    B: Copy + Into<LabelEntry>,
{
    let (Some(&a_last), Some(&b_last)) = (a.last(), b.last()) else { return INF_DIST };
    // Every pivot both labels hold is below `end`.
    let last = a_last.into().pivot.min(b_last.into().pivot);
    let end = if last < ceiling { last + 1 } else { ceiling };
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = INF_DIST;
    while i < a.len() && j < b.len() {
        let (x, y): (LabelEntry, LabelEntry) = (a[i].into(), b[j].into());
        if x.pivot.max(y.pivot) >= end {
            break;
        }
        match x.pivot.cmp(&y.pivot) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                best = best.min(x.dist.saturating_add(y.dist));
                if best <= bound {
                    break;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

/// [`merge_join`]'s least sum by brute force over every pair of entries,
/// with no early exit: the reference it is tested against.
pub fn merge_join_reference(a: &[LabelEntry], b: &[LabelEntry], ceiling: VertexId) -> Dist {
    let shared = |x: LabelEntry| b.iter().filter(move |y| y.pivot == x.pivot && x.pivot < ceiling);
    let sums = a.iter().flat_map(|&x| shared(x).map(move |y| x.dist.saturating_add(y.dist)));
    sums.min().unwrap_or(INF_DIST)
}

/// [`merge_join`] of two nested labels over every pivot: the join the
/// nested readers hand [`resolve`].
pub(crate) fn join_entries(a: &VertexLabels, b: &VertexLabels) -> Dist {
    merge_join(a.entries(), b.entries(), VertexId::MAX, 0)
}

/// `dist(s, t)` by the record rule, for a reader that supplies how it
/// fetches the slot of `v` on the source or the target side (`slot`),
/// reads the record a slot holds (`record`, `None` for a label) and
/// joins two labels (`join`).
///
/// `s == t` answers 0. An end whose slot is a record continues from each
/// of its parents at that pair's offset; a parent whose slot is a record
/// too is `InvalidData`. Two ends that meet at one vertex need no join,
/// and neither does a pair whose offsets alone already reach the best
/// answer so far. The answer is the least `off(s) + join(p(s), p(t)) +
/// off(t)` — at most four joins — capped at [`INF_DIST`].
#[inline]
pub fn resolve<L>(
    s: VertexId,
    t: VertexId,
    mut slot: impl FnMut(VertexId, bool) -> io::Result<L>,
    record: impl Fn(&L) -> Option<Record>,
    mut join: impl FnMut(&L, &L) -> Dist,
) -> io::Result<Dist> {
    if s == t {
        return Ok(0);
    }
    // Each end's slot, then its parents': a disk cache sees that order.
    let own_s = slot(s, false)?;
    let parents_s = parents(&own_s, false, &mut slot, &record)?;
    let own_t = slot(t, true)?;
    let parents_t = parents(&own_t, true, &mut slot, &record)?;
    // An end that holds a label goes on from itself at offset 0, so two
    // of them are one join.
    let (from, to) = match (parents_s, parents_t) {
        (None, None) => return Ok(join(&own_s, &own_t)),
        (from, to) => {
            (from.unwrap_or([Some((s, 0, own_s)), None]), to.unwrap_or([Some((t, 0, own_t)), None]))
        }
    };
    // Ends in offset order, so that a pair whose offsets alone already
    // meet the best answer so far ends its row: a join adds at least 0.
    let (from, to) = (by_offset(from), by_offset(to));
    let mut best = u64::from(INF_DIST);
    for (ps, ds, a) in from.iter().flatten() {
        for (pt, dt, b) in to.iter().flatten() {
            let offsets = u64::from(*ds) + u64::from(*dt);
            if offsets >= best {
                break;
            }
            let core = if ps == pt { 0 } else { join(a, b) };
            best = best.min(offsets + u64::from(core));
        }
    }
    Ok(best as Dist)
}

/// `ends` with the smaller offset first.
#[inline(always)]
fn by_offset<L>(mut ends: Ends<L>) -> Ends<L> {
    if let [Some((_, first, _)), Some((_, second, _))] = &ends {
        if second < first {
            ends.swap(0, 1);
        }
    }
    ends
}

/// Where a query goes on from an end: per way, a vertex, the offset to it
/// and its label.
type Ends<L> = [Option<(VertexId, Dist, L)>; RECORD_PAIRS];

/// The [`Ends`] of an end whose slot `own` holds a record — its parents —
/// or `None` when `own` holds a label.
#[inline(always)]
fn parents<L>(
    own: &L,
    target_side: bool,
    slot: &mut impl FnMut(VertexId, bool) -> io::Result<L>,
    record: &impl Fn(&L) -> Option<Record>,
) -> io::Result<Option<Ends<L>>> {
    let Some(own_record) = record(own) else { return Ok(None) };
    let mut parents = [None, None];
    for (end, &(parent, offset)) in parents.iter_mut().zip(own_record.pairs()) {
        let label = slot(parent, target_side)?;
        if record(&label).is_some() {
            return Err(crate::image::bad("a record's parent holds a record"));
        }
        *end = Some((parent, offset, label));
    }
    Ok(Some(parents))
}

/// One row of the side table ([`side_table`]): how the labels of one
/// side are joined and how they grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SideRule {
    /// The side this one is joined against: a query joins side 0 of `s`
    /// with side `across(0)` of `t`, and a prune or the canonical filter
    /// judges an entry `(x, v, d)` of this side by `own(x) ⋈ across(v)`.
    pub across: usize,
    /// The arcs this side's entries extend along: an entry of owner `u`
    /// passes to each of `u`'s `step` neighbours — on `Lout` (`In`),
    /// each `x` with an arc `x → u`. A side's seeds are its owners' arcs
    /// the other way (§3.1), and a pruned search that fills this side
    /// from a pivot walks along `step`.
    pub step: Direction,
}

/// The side table, keyed by `directed`: `[Lout, Lin]`, each joined
/// against the other, or `[L]`, joined against itself (§7). `Lout(x)`
/// holds pivots `x` reaches, so its entries pass back along in-arcs;
/// `Lin(x)` holds pivots that reach `x`, so they pass on along out-arcs.
/// Every builder loops over it, and [`LabelIndex::target_labels`]
/// reads its side from it.
pub fn side_table(directed: bool) -> &'static [SideRule] {
    const DIRECTED: [SideRule; 2] =
        [SideRule { across: 1, step: Direction::In }, SideRule { across: 0, step: Direction::Out }];
    const UNDIRECTED: [SideRule; 1] = [SideRule { across: 0, step: Direction::Out }];
    if directed {
        &DIRECTED
    } else {
        &UNDIRECTED
    }
}

/// A complete 2-hop label index for one graph: its sides, one label per
/// vertex each, in [`side_table`] order — `[Lout, Lin]` for a directed
/// graph, `[L]` for an undirected one. `Lout(v)` holds pivots `u` with a
/// path `v ⇝ u`, `Lin(v)` pivots `u` with a path `u ⇝ v`, `L(v)` pivots
/// with a path either way; every pivot outranks its owner, `r(u) >
/// r(v)`, save the self entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelIndex {
    sides: Vec<Box<[VertexLabels]>>,
}

impl LabelIndex {
    /// Fresh index on `n` vertices, trivial self-entries only.
    pub fn new(n: usize, directed: bool) -> LabelIndex {
        let side = || (0..n).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
        LabelIndex { sides: side_table(directed).iter().map(|_| side()).collect() }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.sides[0].len()
    }

    /// Whether this is a directed index: two sides.
    pub fn is_directed(&self) -> bool {
        self.sides.len() == 2
    }

    /// The label joined on the source side of a query: side 0, `Lout(s)`
    /// or `L(s)`.
    #[inline]
    pub fn source_labels(&self, s: VertexId) -> &VertexLabels {
        &self.sides[0][s as usize]
    }

    /// The label joined on the target side of a query: side `across(0)`,
    /// `Lin(t)` or `L(t)`.
    #[inline]
    pub fn target_labels(&self, t: VertexId) -> &VertexLabels {
        &self.sides[side_table(self.is_directed())[0].across][t as usize]
    }

    /// Exact distance query `dist(s, t)`; [`INF_DIST`] when unreachable.
    ///
    /// The answer is [`resolve`]'s over the nested slots, joined by
    /// [`merge_join`]: `s == t` short-circuits to 0, and a derived vertex
    /// answers through its record.
    ///
    /// # Panics
    /// If `s` or `t` is not below [`LabelIndex::num_vertices`], or a
    /// record's parent holds a record too (no build produces one, and
    /// [`LabelIndex::write_hopidx`] refuses it).
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        let n = self.num_vertices();
        assert!((s as usize) < n && (t as usize) < n, "vertex out of range");
        let slot = |v, target_side: bool| {
            Ok(if target_side { self.target_labels(v) } else { self.source_labels(v) })
        };
        resolve(s, t, slot, |label| label.record(), |a, b| join_entries(a, b))
            .expect("a record's parent holds a label")
    }

    /// The sides, in [`side_table`] order, which is also image order.
    pub fn sides(&self) -> &[Box<[VertexLabels]>] {
        &self.sides
    }

    /// [`LabelIndex::sides`], to change.
    pub fn sides_mut(&mut self) -> &mut [Box<[VertexLabels]>] {
        &mut self.sides
    }

    /// The index whose [`LabelIndex::sides`] are `sides`: `[L]` is an
    /// undirected index, `[Lout, Lin]` a directed one.
    ///
    /// # Panics
    /// Unless there are one or two sides.
    pub fn from_sides(sides: Vec<Vec<VertexLabels>>) -> LabelIndex {
        assert!((1..=2).contains(&sides.len()), "an index has one or two sides");
        LabelIndex { sides: sides.into_iter().map(Vec::into_boxed_slice).collect() }
    }

    /// Total number of stored entries (both directions for directed).
    pub fn total_entries(&self) -> usize {
        self.sides().iter().flat_map(|side| side.iter()).map(VertexLabels::len).sum()
    }

    /// Mean entries per vertex — the `Avg |label|` column of Table 7.
    pub fn avg_label_size(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.total_entries() as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A pivot-sorted label from `raw` picks: pivots in `shift..shift +
    /// n`, and distances whose sums reach `INF_DIST − 1` or saturate.
    fn picked_label(raw: &[(u32, u32)], shift: u32, n: u32) -> Vec<LabelEntry> {
        let dists = [0, 1, 2, 7, INF_DIST / 2, INF_DIST / 2 + 1, INF_DIST - 1];
        let entries = raw
            .iter()
            .map(|&(p, d)| LabelEntry::new(shift + p % n, dists[d as usize % dists.len()]));
        VertexLabels::from_entries(entries.collect()).entries().to_vec()
    }

    /// A pivot-sorted label of up to 11 picks from `rng` (see
    /// [`picked_label`]).
    fn random_label(rng: &mut StdRng, shift: u32, n: u32) -> Vec<LabelEntry> {
        let len = rng.gen_range(0usize..12);
        let raw: Vec<_> =
            (0..len).map(|_| (rng.gen_range(0u32..1_000), rng.gen_range(0u32..100))).collect();
        picked_label(&raw, shift, n)
    }

    /// The one merge join against the brute-force reference: empty and
    /// disjoint labels, one past the other's last pivot, sums at
    /// `INF_DIST − 1` and past it, a ceiling of 0, of `n`, anywhere and
    /// of none, and a bound below, at and above the least sum — over
    /// both entry types, alike and mixed.
    #[test]
    fn merge_join_matches_the_brute_force_reference() {
        const SEED: u64 = 0x301e;
        let mut rng = StdRng::seed_from_u64(SEED);
        for case in 0..if cfg!(miri) { 64 } else { 512 } {
            let (n, shift, anywhere) =
                (rng.gen_range(1u32..40), rng.gen_range(0u32..80), rng.gen_range(0u32..130));
            let (a, b) = (random_label(&mut rng, 0, n), random_label(&mut rng, shift, n));
            let (ceiling_pick, bound_pick) = (rng.gen_range(0usize..4), rng.gen_range(0usize..5));
            let ceiling = [0, n, anywhere, VertexId::MAX][ceiling_pick];
            let least = merge_join_reference(&a, &b, ceiling);
            let bound =
                [0, least.saturating_sub(1), least, least.saturating_add(1), INF_DIST][bound_pick];
            let at = format!("seed {SEED:#x} case {case}");
            // Every sum a shared pivot below the ceiling gives.
            let partner = |x: &LabelEntry| b.iter().find(|y| y.pivot == x.pivot);
            let sums: Vec<Dist> = a
                .iter()
                .filter(|x| x.pivot < ceiling)
                .filter_map(|x| partner(x).map(|y| x.dist.saturating_add(y.dist)))
                .collect();
            assert_eq!(sums.iter().copied().min().unwrap_or(INF_DIST), least, "{at}");
            let records = |label: &[LabelEntry]| -> Vec<extmem::LabelRecord> {
                label.iter().map(|e| extmem::LabelRecord::new(7, e.pivot, e.dist)).collect()
            };
            for got in [
                merge_join(&a, &b, ceiling, bound),
                merge_join(&b, &a, ceiling, bound),
                merge_join(&records(&a), &records(&b), ceiling, bound),
                merge_join(&a, &records(&b), ceiling, bound),
                merge_join(&records(&a), &b, ceiling, bound),
            ] {
                if least <= bound {
                    // Stopped at a witness: some sum at or under the bound.
                    let witness = got <= bound && (sums.contains(&got) || got == least);
                    assert!(witness, "{at}: {got}");
                } else {
                    assert_eq!(got, least, "{at}");
                }
            }
        }
    }

    /// The record rule over a toy reader whose labels are vertex ids and
    /// whose join of `a` and `b` is `10a + b + 1`: 0 and 1 hold labels, 2
    /// a record on 0, 3 on 0 and 1, 4 on the record 2, 5 on 1 far away;
    /// 6 cannot be read.
    #[test]
    fn resolve_states_the_record_rule_once() {
        let records = [
            None,
            None,
            Some(Record::new(&[(0, 3)])),
            Some(Record::new(&[(0, 1), (1, INF_DIST - 1)])),
            Some(Record::new(&[(2, 1)])),
            Some(Record::new(&[(1, INF_DIST - 1)])),
        ];
        let answer = |s, t| {
            let mut joins = Vec::new();
            let slot = |v: VertexId, _| match records.get(v as usize) {
                Some(_) => Ok(v),
                None => Err(io::Error::other("unreadable")),
            };
            let record = |&v: &VertexId| records[v as usize];
            let got = resolve(s, t, slot, record, |&a, &b| {
                joins.push((a, b));
                10 * a + b + 1
            });
            (got.map_err(|e| e.kind()), joins)
        };
        for (s, t, want, joins) in [
            (0, 0, 0, vec![]),
            (6, 6, 0, vec![]),
            (0, 1, 2, vec![(0, 1)]),
            (1, 0, 11, vec![(1, 0)]),
            // 2 meets 0 at 0: no join.
            (2, 0, 3, vec![]),
            (2, 1, 3 + 2, vec![(0, 1)]),
            (3, 1, 1 + 2, vec![(0, 1)]),
            (1, 3, 11 + 1, vec![(1, 0)]),
            // 2 and 3 meet at 0 for 3 + 1; the pair of 0 and 1 cannot
            // beat that on its offsets alone, so it is never joined.
            (2, 3, 3 + 1, vec![]),
            // Every sum is past `INF_DIST`, so no pair is worth a join.
            (5, 3, INF_DIST, vec![]),
        ] {
            assert_eq!(answer(s, t), (Ok(want), joins), "{s}->{t}");
        }
        assert_eq!(answer(4, 0).0, Err(io::ErrorKind::InvalidData), "a parent's record");
        assert_eq!(answer(0, 4).0, Err(io::ErrorKind::InvalidData), "a parent's record");
        assert_eq!(answer(6, 0).0, Err(io::ErrorKind::Other), "a read error");
    }

    #[test]
    fn insert_min_keeps_minimum() {
        let mut l = VertexLabels::with_trivial(5);
        assert!(l.insert_min(LabelEntry::new(2, 7)));
        assert!(!l.insert_min(LabelEntry::new(2, 9)));
        assert!(l.insert_min(LabelEntry::new(2, 3)));
        assert_eq!(l.get(2), Some(3));
        assert_eq!(l.get(5), Some(0));
        assert_eq!(l.len(), 2);
        // Entries stay sorted by pivot.
        assert!(l.entries().windows(2).all(|w| w[0].pivot < w[1].pivot));
    }

    #[test]
    fn merge_min_sorted_matches_repeated_insert_min() {
        let base = vec![LabelEntry::new(1, 5), LabelEntry::new(4, 2), LabelEntry::new(9, 9)];
        let batch = vec![
            LabelEntry::new(0, 3),  // new, before everything
            LabelEntry::new(4, 1),  // improves 2 -> 1
            LabelEntry::new(6, 7),  // new, between
            LabelEntry::new(9, 9),  // dominated (equal): skipped
            LabelEntry::new(12, 4), // new, past the end
        ];
        let mut bulk = VertexLabels::from_entries(base.clone());
        let mut seen = Vec::new();
        let applied = bulk.merge_min_sorted(&batch, |e, had| seen.push((e.pivot, had)));
        assert_eq!(applied, 4);
        assert_eq!(seen, vec![(0, false), (4, true), (6, false), (12, false)]);

        let mut one_by_one = VertexLabels::from_entries(base);
        for &e in &batch {
            one_by_one.insert_min(e);
        }
        assert_eq!(bulk, one_by_one);
        assert!(bulk.entries().windows(2).all(|w| w[0].pivot < w[1].pivot));

        // The tiny-batch (≤ 4 entries) in-place path must agree too.
        let tiny = &batch[..3];
        let mut tiny_bulk = one_by_one.clone();
        let mut tiny_seq = one_by_one.clone();
        let applied = tiny_bulk.merge_min_sorted(tiny, |_, _| {});
        assert_eq!(applied, 0, "already-applied batch must be fully dominated");
        tiny_bulk.merge_min_sorted(&[LabelEntry::new(3, 1)], |e, had| {
            assert!(!had);
            assert_eq!(e.pivot, 3);
        });
        tiny_seq.insert_min(LabelEntry::new(3, 1));
        assert_eq!(tiny_bulk, tiny_seq);
    }

    #[test]
    fn merge_min_sorted_into_empty_and_with_empty() {
        let mut l = VertexLabels::new();
        assert_eq!(l.merge_min_sorted(&[], |_, _| unreachable!()), 0);
        let batch = vec![LabelEntry::new(2, 1), LabelEntry::new(5, 3)];
        assert_eq!(l.merge_min_sorted(&batch, |_, had| assert!(!had)), 2);
        assert_eq!(l.entries(), batch.as_slice());
    }

    #[test]
    fn join_min_finds_best_common_pivot() {
        let a = VertexLabels::from_entries(vec![
            LabelEntry::new(0, 4),
            LabelEntry::new(2, 1),
            LabelEntry::new(7, 0),
        ]);
        let b = VertexLabels::from_entries(vec![
            LabelEntry::new(0, 1),
            LabelEntry::new(2, 9),
            LabelEntry::new(5, 0),
        ]);
        assert_eq!(join_entries(&a, &b), 5); // via 0: 4+1
    }

    #[test]
    fn join_min_no_common_pivot() {
        let a = VertexLabels::from_entries(vec![LabelEntry::new(1, 1)]);
        let b = VertexLabels::from_entries(vec![LabelEntry::new(2, 1)]);
        assert_eq!(join_entries(&a, &b), INF_DIST);
    }

    #[test]
    fn query_self_distance_zero() {
        let idx = LabelIndex::new(4, false);
        assert_eq!(idx.query(2, 2), 0);
        assert_eq!(idx.query(1, 2), INF_DIST);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn an_out_of_range_self_query_panics_like_any_other() {
        LabelIndex::new(3, true).query(3 + 5, 3 + 5);
    }

    #[test]
    fn a_record_answers_through_its_parent_one_level() {
        // 0 – 1 – 2 with 3 derived from 1 (offset 4), 4 from 0 (7), and
        // 5 and 6 from both 0 and 2 (offsets 1 and 5, 2 and 1).
        let mut labels: Vec<_> = (0..7).map(VertexLabels::with_trivial).collect();
        labels[1].insert_min(LabelEntry::new(0, 1));
        labels[2].insert_min(LabelEntry::new(0, 2));
        labels[2].insert_min(LabelEntry::new(1, 1));
        labels[3] = VertexLabels::from_record(Record::new(&[(1, 4)]));
        labels[4] = VertexLabels::from_record(Record::new(&[(0, 7)]));
        labels[5] = VertexLabels::from_record(Record::new(&[(0, 1), (2, 5)]));
        labels[6] = VertexLabels::from_record(Record::new(&[(0, 2), (2, 1)]));
        let idx = LabelIndex::from_sides(vec![labels]);
        let want = [
            [0, 1, 2, 5, 7, 1, 2],
            [1, 0, 1, 4, 8, 2, 2],
            [2, 1, 0, 5, 9, 3, 1],
            [5, 4, 5, 0, 12, 6, 6],
            [7, 8, 9, 12, 0, 8, 9],
            [1, 2, 3, 6, 8, 0, 3],
            [2, 2, 1, 6, 9, 3, 0],
        ];
        for (s, row) in want.iter().enumerate() {
            for (t, &d) in row.iter().enumerate() {
                assert_eq!(idx.query(s as VertexId, t as VertexId), d, "{s}->{t}");
            }
        }
        assert_eq!(idx.total_entries(), 3 + 1 + 2, "a record holds no entries");
        assert_eq!(idx.source_labels(3).record().map(|r| r.pairs().to_vec()), Some(vec![(1, 4)]));
        assert_eq!(idx.source_labels(5).record().unwrap().pairs(), [(0, 1), (2, 5)]);
        assert_eq!(idx.source_labels(2).record(), None);
        assert_eq!(std::mem::size_of::<VertexLabels>(), 24, "a record fits beside the Vec");
    }

    #[test]
    fn directed_query_uses_out_then_in() {
        // Path 1 -> 0 -> 2 with pivot 0 (highest rank).
        let mut idx = LabelIndex::new(3, true);
        idx.sides_mut()[0][1].insert_min(LabelEntry::new(0, 1));
        idx.sides_mut()[1][2].insert_min(LabelEntry::new(0, 1));
        assert_eq!(idx.query(1, 2), 2);
        assert_eq!(idx.query(2, 1), INF_DIST); // not symmetric
    }

    /// One side and two: the index reads its sides as [`side_table`]
    /// says, and has no other shape.
    #[test]
    fn an_index_is_its_sides_read_by_the_side_table() {
        // Vertex `v`'s label on side `s` holds the one entry `(0, 10s + v + 1)`.
        let side = |s: u32| -> Vec<VertexLabels> {
            let label =
                |v: u32| VertexLabels::from_entries(vec![LabelEntry::new(0, 10 * s + v + 1)]);
            (0..3).map(label).collect()
        };
        let steps = [Direction::In, Direction::Out];
        for (sides, directed, across) in
            [(vec![side(0)], false, vec![0]), (vec![side(0), side(1)], true, vec![1, 0])]
        {
            let idx = LabelIndex::from_sides(sides.clone());
            assert_eq!(idx.is_directed(), directed);
            assert_eq!(idx.sides().len(), sides.len());
            let table = side_table(directed);
            assert_eq!(table.iter().map(|r| r.across).collect::<Vec<_>>(), across);
            let step: Vec<_> = table.iter().map(|r| r.step).collect();
            assert_eq!(step, if directed { &steps[..] } else { &steps[1..] });
            for v in 0..3 {
                assert_eq!(idx.source_labels(v), &sides[0][v as usize]);
                assert_eq!(idx.target_labels(v), &sides[table[0].across][v as usize]);
                assert_eq!(idx.target_labels(v).get(0), Some(10 * across[0] as u32 + v + 1));
            }
            assert_eq!(LabelIndex::new(3, directed).sides().len(), sides.len());
        }
        for count in [0, 3] {
            let sides = vec![side(0); count];
            let built = std::panic::catch_unwind(|| LabelIndex::from_sides(sides));
            assert!(built.is_err(), "{count} sides");
        }
    }

    #[test]
    fn from_entries_dedups_keeping_min() {
        let l = VertexLabels::from_entries(vec![
            LabelEntry::new(3, 9),
            LabelEntry::new(3, 2),
            LabelEntry::new(1, 5),
        ]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.get(3), Some(2));
    }

    #[test]
    fn counts_and_sizes() {
        let mut idx = LabelIndex::new(2, false);
        idx.sides_mut()[0][1].insert_min(LabelEntry::new(0, 1));
        assert_eq!(idx.total_entries(), 3);
        assert_eq!(idx.avg_label_size(), 1.5);
    }

    #[test]
    fn join_exits_past_the_other_sides_range() {
        // b's pivots all exceed a's last pivot after the first step:
        // the merge must still find nothing and must not panic.
        let a = VertexLabels::from_entries(vec![LabelEntry::new(1, 1), LabelEntry::new(3, 1)]);
        let b = VertexLabels::from_entries(vec![LabelEntry::new(5, 1), LabelEntry::new(9, 1)]);
        assert_eq!(join_entries(&a, &b), INF_DIST);
        assert_eq!(join_entries(&b, &a), INF_DIST);
        // A shared pivot right at the boundary still wins.
        let c = VertexLabels::from_entries(vec![LabelEntry::new(3, 2), LabelEntry::new(9, 1)]);
        assert_eq!(join_entries(&a, &c), 3);
        assert_eq!(join_entries(&VertexLabels::new(), &c), INF_DIST);
    }

    #[test]
    fn remove_entry() {
        let mut l = VertexLabels::with_trivial(1);
        l.insert_min(LabelEntry::new(0, 2));
        l.retain(|e| e.pivot != 0);
        assert_eq!(l.entries(), [LabelEntry::trivial(1)]);
        l.retain(|e| e.pivot != 0);
        assert_eq!(l.len(), 1);
        let mut record = VertexLabels::from_record(Record::new(&[(0, 1)]));
        record.retain(|_| false);
        assert_eq!(record.record(), Some(Record::new(&[(0, 1)])), "a record has no entries");
    }
}
