//! The in-memory iterative labeling engine (Algorithm 1 with the
//! minimized rules of §3.2, the pruning of §3.3, the stepping refinement
//! of §5.1 and the undirected conversion of §7) — one round kernel over
//! one or two *sides*, run one label owner at a time.
//!
//! ## Rank convention
//!
//! Inputs must be *rank-relabeled* graphs (id 0 = highest rank), so
//! `r(u) > r(v)` ⇔ `u < v`.
//!
//! ## Sides
//!
//! A side σ is one label array under construction (`own`), the entries
//! `prev` that the previous iteration added to `own` — grouped by owner,
//! so `prev(u)` is a pivot-sorted slice — and its row of the side table,
//! `hoplabels::index::side_table`: the array it is joined against
//! (`across`) and the edge direction stepping walks (`step`). A directed
//! build is two sides whose `across` is each other; an undirected build
//! (§7) is one side whose `across` is itself. Both engines, the
//! canonical filter and the finished `LabelIndex` read the one table.
//!
//! ## One arc rule
//!
//! The paper states its rules per new entry ("for each `prev` entry,
//! emit …"). Read per *receiving owner* `x` of side σ, they are one rule
//! over the *arcs* `u → x` of weight `w`, and a doubling round is a
//! stepping round whose arcs are label entries:
//!
//! ```text
//! arc (u → x, w), u ≠ x, (v, d) ∈ prev(u), v < x  ⇒  cand (x, v, d + w)
//! prune  cand (x, v, d) is none if own(x) has v at ≤ d; else it dies iff own(x) ⋈ across(v) ≤ d
//! ```
//!
//! | side       | `own`  | `across` | stepping: edges of `x` | doubling: `(x, w) ∈ across(u)` | doubling: `(u, w) ∈ own(x)` |
//! |------------|--------|----------|------------------------|--------------------------------|-----------------------------|
//! | out        | `Lout` | `Lin`    | out-edges              | R1                             | R2                          |
//! | in         | `Lin`  | `Lout`   | in-edges               | R4                             | R5                          |
//! | undirected | `L`    | `L`      | all edges              | converted R1                   | converted R2                |
//!
//! Both engines run this table: this one pulls `prev(u)` by random
//! access per owner, and [`crate::external`] pushes each `prev` group
//! over the same arcs — the graph's from memory, the labels' read as
//! files. `prev(u)` is pivot-sorted, so the
//! `v < x` scans stop at the first `v ≥ x` (for an `own(x)` arc `v < u <
//! x` always holds).
//!
//! A round deals with `x` in two steps (`Engine::gather`,
//! `Engine::prune_owner`) that are at most a block of owners apart:
//! gathered candidates wait in a buffer of `BLOCK_CANDIDATES`, so the
//! phase timers are read per block rather than per owner, and a worker
//! holds O(n) scratch and one block of candidates: of a round's
//! candidates only the survivors are kept.
//!
//! 1. **gather** — the pulled candidates are min-combined in a dense
//!    `best[pivot]` array with a `touched` list; sorting `touched` is the
//!    only sort;
//! 2. **prune** — `own(x)` is written once into a dense `mark[pivot]`
//!    array. A candidate `(v, d)` with `mark[v] ≤ d` is dropped before it
//!    is counted, and so, in a pruned build, is one the hub tables kill
//!    — some hub `h < v` with `T[σ][x][h] + T[across(σ)][v][h] ≤ d`
//!    ([`crate::hubs`]), two `K`-byte rows read instead of a scan of
//!    `across(v)`; otherwise it dies iff some `(w, d_w) ∈ across(v)` has
//!    `mark[w] + d_w ≤ d`, and the scan of `across(v)` returns at the
//!    first such `w`: pivots are rank-sorted, so the hubs that kill most
//!    candidates come first. That is the 2-hop query `own(x) ⋈
//!    across(v)` of §3.3 (restricted as in §4.2 to witnesses outranking
//!    both endpoints). An owner whose candidates are too few to pay for
//!    marking its label (long-diameter stepping: one candidate against a
//!    label of hundreds) takes the one merge join,
//!    `hoplabels::index::merge_join`, instead (`marking_pays`);
//! 3. survivors leave `(owner, pivot)`-sorted, because owners are visited
//!    in order and `touched` was sorted — they are the next `prev` as
//!    they stand, moved in, never copied.
//!
//! A round visits only the owners that can receive a candidate — the
//! heads of the arcs out of `prev`'s owners, found in one pass over them
//! — and every dense array lives for the build and is reset entry by
//! entry, so a round costs what its `prev` costs: stepping down a long
//! path runs hundreds of rounds, none of which pays O(n).
//!
//! The `across(u)` arcs need "who carries pivot `x`", the
//! label-files-sorted-by-pivot of §4.1. Both engines rebuild that view
//! from the labels at the start of every doubling round (here
//! `InvView::of`, one counting sort), which is cheaper than keeping
//! per-pivot lists current entry by entry; this one frees it when the
//! round's gather + prune is done, and a `Strategy::Stepping` build
//! never builds one.
//!
//! ## Parallel construction
//!
//! Gathering and pruning only *read* the label arrays as frozen at the
//! end of the previous iteration (Theorem 3's proof relies on witnesses
//! "from previous iterations" only) — survivors never prune each other,
//! which also keeps this engine bit-identical to the external one, whose
//! pruning joins read frozen label files. With
//! `HopDbConfig::parallelism > 1` a round is two phases around a barrier:
//!
//! 1. **gather + prune** — the round's owners are cut into contiguous
//!    ranges of about equal gather weight (Σ|`prev(u)`| over an owner's
//!    arcs, [`split_by_weight`]), several per worker and dealt out in
//!    turn (`RANGES_PER_WORKER` says why); each worker runs its ranges
//!    against the frozen labels with its own O(n) scratch;
//! 2. **apply** — once every worker is done, each range's survivors
//!    become that range's part of the next `prev`, and each worker merges
//!    the parts of its ranges into those ranges' own `split_at_mut`
//!    slices of the label arrays ([`VertexLabels::merge_min_sorted`]).
//!
//! Every `(owner, pivot)` is reduced by exactly one worker and every
//! reduction is a minimum, so the result is *bit-identical* to the
//! sequential build for every thread count — the single-threaded path is
//! the same two phases with one range, run inline.
//!
//! ## Memory
//!
//! At any moment of a round a build holds:
//!
//! - the labels, which apply grows;
//! - one round's survivors, once: the range buffers gather + prune
//!   filled become the next `prev` by move (`Prev` keeps one part per
//!   owner range and a per-vertex `(part, start, end)`);
//! - the previous `prev`, during gather + prune only: apply frees it
//!   before it grows the labels;
//! - one inverted view per side, during a doubling round's gather +
//!   prune only;
//! - the graph (the core) and the hub tables;
//! - O(n) scratch per worker and one block of candidates.
//!
//! So the peak falls in the gather + prune after the largest round,
//! whose survivors are then in the labels and, as `prev`, once more.
//! `hopdb-cli build` prints the process's peak (`peak memory:`, which
//! also counts reading and ranking the edge list). On an undirected GLP
//! of density 4, at one thread, it is 11.8 MB at 16 000 vertices,
//! 187.5 MB at 200 000 and 1 393 MB at 1 000 000; two threads add
//! ≈ 3 MB at 200 000. There the largest round, the second, keeps
//! 7.64 M survivors: 61 MB.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use hoplabels::index::{merge_join, side_table, LabelIndex, SideRule, VertexLabels};
use hoplabels::parallel::{run_workers, split_by_weight};
use hoplabels::LabelEntry;
use sfgraph::{Direction, Dist, Graph, VertexId, INF_DIST};

use crate::config::HopDbConfig;
use crate::hubs::{HubTable, HUBS};
use crate::iteration::{fixpoint, BuildStats, IterationStats, Rounds};

/// The entries that seed `owner`'s label on a side whose entries extend
/// along `step` (`hoplabels::index::side_table`), one per edge, pivots
/// ascending: its arcs against `step` to higher-ranked (smaller-id)
/// vertices — an edge `u → v` seeds `(v, w) ∈ Lout(u)` when `r(v) >
/// r(u)` and `(u, w) ∈ Lin(v)` otherwise, an undirected edge the
/// lower-ranked endpoint's single label (§3.1, §7). The graph has no
/// self-loops or parallel edges and keeps its adjacency sorted, so
/// walked owner by owner these are a round's survivors like any other.
pub(crate) fn seeds(
    g: &Graph,
    step: Direction,
    owner: VertexId,
) -> impl Iterator<Item = (VertexId, Dist)> + '_ {
    g.edges(owner, step.reverse()).take_while(move |&(v, _)| v < owner)
}

/// Label entries grouped by owner: owners ascending, each owner's
/// entries contiguous and pivot-sorted. A round's candidates, its
/// survivors and therefore the next round's `prev` all have this shape.
#[derive(Default)]
struct Groups {
    entries: Vec<LabelEntry>,
    /// `(owner, end of its group in entries)`, one per non-empty group.
    owners: Vec<(VertexId, u32)>,
}

impl Groups {
    /// Make everything pushed to `entries` since the last close the group
    /// of `owner`; an empty group leaves no trace.
    fn close(&mut self, owner: VertexId) {
        let end = u32::try_from(self.entries.len()).expect("a round's entries fit u32 offsets");
        if self.owners.last().map_or(0, |&(_, closed)| closed) < end {
            self.owners.push((owner, end));
        }
    }

    fn iter(&self) -> impl Iterator<Item = (VertexId, &[LabelEntry])> {
        let mut start = 0usize;
        self.owners.iter().map(move |&(owner, end)| {
            let group = &self.entries[start..end as usize];
            start = end as usize;
            (owner, group)
        })
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.owners.clear();
    }
}

/// The entries the previous iteration added to one side: the survivor
/// groups of its owner ranges as the workers left them, moved in, never
/// copied, with the per-vertex directory that makes `prev(u)` a slice.
struct Prev {
    /// Consecutive owner ranges, in order; never empty, so a vertex
    /// without a group reads part 0's empty range.
    parts: Vec<Groups>,
    /// Per vertex, its group's `(part, start, end)` in that part's
    /// entries; `(0, 0, 0)` for a vertex without one. Only the owners in
    /// `parts` are ever reset.
    range: Vec<(u32, u32, u32)>,
}

impl Prev {
    fn new(n: usize, parts: Vec<Groups>) -> Prev {
        let mut prev = Prev { parts: Vec::new(), range: vec![(0, 0, 0); n] };
        prev.replace(parts);
        prev
    }

    /// `prev(u)`: pivot-sorted, empty when `u` gained nothing.
    #[inline]
    fn of(&self, u: VertexId) -> &[LabelEntry] {
        let (part, start, end) = self.range[u as usize];
        &self.parts[part as usize].entries[start as usize..end as usize]
    }

    fn len(&self) -> usize {
        self.parts.iter().map(|part| part.entries.len()).sum()
    }

    fn iter(&self) -> impl Iterator<Item = (VertexId, &[LabelEntry])> {
        self.parts.iter().flat_map(Groups::iter)
    }

    /// Take `parts` — consecutive owner ranges, in order — as the
    /// contents, freeing the old ones.
    fn replace(&mut self, parts: Vec<Groups>) {
        debug_assert!(!parts.is_empty(), "a round has at least one owner range");
        for part in &self.parts {
            part.owners.iter().for_each(|&(owner, _)| self.range[owner as usize] = (0, 0, 0));
        }
        self.parts = parts;
        for (p, part) in self.parts.iter().enumerate() {
            let mut start = 0u32;
            for &(owner, end) in &part.owners {
                self.range[owner as usize] = (p as u32, start, end);
                start = end;
            }
        }
    }
}

/// "Which owners carry pivot `p`" for one side's labels as of the start
/// of a doubling round, self-entries left out: a CSR keyed by pivot.
struct InvView {
    offsets: Vec<u32>,
    owners: Vec<(VertexId, Dist)>,
}

impl InvView {
    fn of(labels: &[VertexLabels]) -> InvView {
        let carried = |owner: usize| {
            labels[owner].entries().iter().filter(move |e| e.pivot as usize != owner)
        };
        let mut offsets = vec![0u32; labels.len() + 1];
        for owner in 0..labels.len() {
            for e in carried(owner) {
                offsets[e.pivot as usize + 1] += 1;
            }
        }
        for p in 0..labels.len() {
            offsets[p + 1] += offsets[p];
        }
        let mut next = offsets.clone();
        let mut owners = vec![(0, 0); offsets[labels.len()] as usize];
        for owner in 0..labels.len() {
            for e in carried(owner) {
                let slot = &mut next[e.pivot as usize];
                owners[*slot as usize] = (owner as VertexId, e.dist);
                *slot += 1;
            }
        }
        InvView { offsets, owners }
    }

    /// The `(owner, dist)` pairs with `(p, dist) ∈ label(owner)`,
    /// `owner ≠ p`.
    #[inline]
    fn owners_of(&self, p: VertexId) -> &[(VertexId, Dist)] {
        &self.owners[self.offsets[p as usize] as usize..self.offsets[p as usize + 1] as usize]
    }
}

/// One label array under construction; see the module docs.
struct Side {
    /// Its place in the side table and in [`Engine::sides`]: the hub
    /// table it reads.
    index: usize,
    /// Its row of the side table: the side in [`Engine::sides`] it is
    /// joined against, and the edges of a `prev` entry's owner that
    /// stepping extends it over (an owner pulls over the reverse).
    rule: SideRule,
    /// `own`: the labels this side grows.
    labels: Vec<VertexLabels>,
    /// Inverted view of `labels`, built at the start of a doubling round
    /// and freed when its gather + prune is done; `None` otherwise.
    inv: Option<InvView>,
    /// Entries the previous iteration added to `own`.
    prev: Prev,
}

impl Side {
    fn inv(&self) -> &InvView {
        self.inv.as_ref().expect("a doubling round starts by building the inverted views")
    }
}

/// Candidates a worker buffers between gathering and pruning: large
/// enough that the two phase timers are read once per block rather than
/// once per owner, small enough to stay in cache.
const BLOCK_CANDIDATES: usize = 4096;

/// Whether `candidates` candidates against a label of `label` entries
/// are pruned through the marked label (O(label) to mark, then one
/// early-exit scan of `across(v)` per candidate) rather than by a merge
/// join each: marking a label of hundreds for one or two candidates —
/// every owner of a long-diameter stepping round — costs more than
/// those joins. The factor sits on a measured plateau: 8 to 64 build
/// 16k-vertex GLP graphs equally fast (never marking is 2× slower), and
/// above 64 stepping down an 800-vertex path slows (always marking: 4×).
fn marking_pays(candidates: usize, label: usize) -> bool {
    candidates * 32 > label
}

/// One worker's dense scratch: O(n), allocated once per build.
struct Scratch {
    /// `best[v]`: least distance gathered for pivot `v` by the owner in
    /// hand; [`INF_DIST`] for an untouched pivot, which also makes a
    /// candidate whose distance saturates no candidate.
    best: Vec<Dist>,
    /// Pivots with `best[v] < INF_DIST`.
    touched: Vec<VertexId>,
    /// `mark[w]`: distance of pivot `w` in the label being pruned
    /// against; [`INF_DIST`] when it has none.
    mark: Vec<Dist>,
    /// Gathered, not yet pruned candidates.
    block: Groups,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            best: vec![INF_DIST; n],
            touched: Vec::new(),
            mark: vec![INF_DIST; n],
            block: Groups::default(),
        }
    }

    #[inline]
    fn pull(&mut self, v: VertexId, d: Dist) {
        let best = &mut self.best[v as usize];
        if d < *best {
            if *best == INF_DIST {
                self.touched.push(v);
            }
            *best = d;
        }
    }

    /// Move the owner's gathered candidates, pivot-sorted, into the block.
    fn flush(&mut self, owner: VertexId) {
        self.touched.sort_unstable();
        for v in self.touched.drain(..) {
            let best = std::mem::replace(&mut self.best[v as usize], INF_DIST);
            self.block.entries.push(LabelEntry::new(v, best));
        }
        self.block.close(owner);
    }
}

/// The scratch of a build: a dense gather-weight array for planning
/// rounds and one [`Scratch`] per worker that has run so far.
#[derive(Default)]
struct Workspace {
    weight: Vec<u32>,
    workers: Vec<Scratch>,
}

impl Workspace {
    fn sized(&mut self, n: usize, threads: usize) -> (&mut [u32], &mut [Scratch]) {
        self.weight.resize(n, 0);
        while self.workers.len() < threads {
            self.workers.push(Scratch::new(n));
        }
        (&mut self.weight, &mut self.workers[..threads])
    }
}

/// Owner ranges a multi-worker round cuts per worker; worker `w` of `T`
/// takes ranges `w`, `w + T`, … The gather weight that sizes the ranges
/// cannot see which candidates will survive — a survivor costs a whole
/// witness scan, a pruned candidate an early exit — and that changes
/// smoothly with rank (the hubs' candidates die, the tail's live), so
/// one range per worker leaves one worker with most of the time. Dealt
/// out in turn, every worker gets a sample of every rank band.
const RANGES_PER_WORKER: usize = 8;

/// The owners one side visits this round, ascending, cut into
/// contiguous ranges.
struct Plan {
    owners: Vec<VertexId>,
    /// Range `r` is `owners[cuts[r]..cuts[r + 1]]`.
    cuts: Vec<usize>,
}

impl Plan {
    /// First vertex of range `r`'s slice of the label array: the owner
    /// ranges, widened to tile `0..n`.
    fn bound(&self, r: usize, n: usize) -> usize {
        match r {
            0 => 0,
            r if r + 1 == self.cuts.len() => n,
            r => self.owners.get(self.cuts[r]).map_or(n, |&x| x as usize),
        }
    }
}

/// What the gather + prune phase produced for one owner range.
#[derive(Default)]
struct Pruned {
    /// Per side, the survivors of this owner range.
    survivors: Vec<Groups>,
    candidates: u64,
    pruned: u64,
    gather: Duration,
    prune: Duration,
}

/// Worker-thread count for a round with `work` driving entries:
/// parallelism below this many entries costs more in spawning and
/// joining the workers than it saves, so small rounds run on one
/// thread. The decision only affects scheduling, never results.
pub(crate) fn effective_threads(threads: usize, work: usize) -> usize {
    const MIN_WORK_PER_THREAD: usize = 512;
    if work < 2 * MIN_WORK_PER_THREAD {
        1
    } else {
        threads.clamp(1, work / MIN_WORK_PER_THREAD)
    }
}

/// Time since `*clock`, which restarts.
pub(crate) fn lap(clock: &mut Instant) -> Duration {
    let now = Instant::now();
    now - std::mem::replace(clock, now)
}

/// The state of an in-memory build: the graph and the sides grown over it.
struct Engine<'g> {
    g: &'g Graph,
    /// The hub tables a pruned build kills candidates with before its
    /// §3.3 prune; `None` for the unpruned fixpoint, which prunes
    /// nothing.
    hubs: Option<HubTable>,
    /// One side (undirected) or two (directed, out then in).
    sides: Vec<Side>,
    total_entries: u64,
    /// Workers a round may use.
    threads: usize,
    /// Scratch kept from round to round.
    ws: Workspace,
    /// Inverted views built so far, one per side and doubling round.
    #[cfg(test)]
    views_built: usize,
}

/// Build a label index for a rank-relabeled graph, directed or
/// undirected, with `cfg`'s strategy and parallelism: §3.3's prune every
/// round, behind the hub tables of [`HUBS`] hubs. The canonical filter
/// that ends every build is the builders' ([`crate::build_prelabeled`]).
pub fn build_index(g: &Graph, cfg: &HopDbConfig) -> (LabelIndex, BuildStats) {
    build_index_with_hubs(g, cfg, Some(HUBS))
}

/// The unpruned fixpoint of Algorithm 1 (§3.1–3.2, no §3.3) on a
/// rank-relabeled graph, with `cfg`'s strategy and parallelism: every
/// candidate an entry of its own pair does not dominate is kept. That is
/// the complete labeling of the paper's Example 1 / Figure 5 and what
/// Lemmas 3–4 speak of; no builder runs it.
pub fn build_unpruned(g: &Graph, cfg: &HopDbConfig) -> (LabelIndex, BuildStats) {
    build_index_with_hubs(g, cfg, None)
}

/// The engine to its fixpoint: pruned behind a table of `hubs` hubs, or
/// unpruned for `None`. The tables are built after the seeding (built
/// first, they raise the build's peak RSS) and timed apart from its row.
pub(crate) fn build_index_with_hubs(
    g: &Graph,
    cfg: &HopDbConfig,
    hubs: Option<usize>,
) -> (LabelIndex, BuildStats) {
    let started = Instant::now();
    // Iteration 1: initialization — one entry per edge (§3.1).
    let mut e = Engine::seeded(g);
    let threads = cfg.resolved_parallelism();
    e.threads = threads;
    let seeded = IterationStats {
        iteration: 1,
        stepping: true,
        candidates: e.prev_len() as u64,
        inserted: e.prev_len() as u64,
        total_entries: e.total_entries,
        elapsed: started.elapsed(),
        ..IterationStats::default()
    };
    let clock = Instant::now();
    e.hubs = hubs.map(|k| HubTable::new(g, k));
    let hub_tables_elapsed = clock.elapsed();
    let Ok(mut stats) = fixpoint(&mut e, &cfg.strategy, threads, seeded);
    let index = LabelIndex::from_sides(e.sides.into_iter().map(|s| s.labels).collect());
    stats.final_entries = index.total_entries() as u64;
    stats.hub_tables_elapsed = hub_tables_elapsed;
    stats.elapsed = started.elapsed();
    (index, stats)
}

impl<'g> Engine<'g> {
    /// Trivial self-entries plus the initialization entries of `g`, which
    /// are also the first `prev`; unpruned until its hub tables are set.
    fn seeded(g: &'g Graph) -> Engine<'g> {
        let n = g.num_vertices();
        let sides: Vec<Side> = side_table(g.is_directed())
            .iter()
            .enumerate()
            .map(|(index, &rule)| {
                let mut labels: Vec<VertexLabels> =
                    (0..n).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
                let mut first = Groups::default();
                for owner in g.vertices() {
                    let start = first.entries.len();
                    let arcs = seeds(g, rule.step, owner);
                    first.entries.extend(arcs.map(|(v, w)| LabelEntry::new(v, w)));
                    labels[owner as usize].merge_min_sorted(&first.entries[start..], |_, _| {});
                    first.close(owner);
                }
                Side { index, rule, labels, inv: None, prev: Prev::new(n, vec![first]) }
            })
            .collect();
        let total_entries = sides.iter().map(|s| (n + s.prev.len()) as u64).sum();
        Engine {
            g,
            hubs: None,
            sides,
            total_entries,
            threads: 1,
            ws: Workspace::default(),
            #[cfg(test)]
            views_built: 0,
        }
    }

    fn prev_len(&self) -> usize {
        self.sides.iter().map(|s| s.prev.len()).sum()
    }

    /// Per side, the owners that can receive a candidate this round —
    /// the heads of the arcs out of `prev`'s owners — weighed by the `prev`
    /// entries they pull from and cut into ranges of about equal weight,
    /// [`RANGES_PER_WORKER`] per worker. One pass over `prev`'s owners;
    /// `weight` comes in and goes out all zero.
    fn plan(&self, stepping: bool, threads: usize, weight: &mut [u32]) -> Vec<Plan> {
        let ranges = if threads > 1 { threads * RANGES_PER_WORKER } else { 1 };
        let plan = |side: &Side| {
            let mut owners = Vec::new();
            for (u, group) in side.prev.iter() {
                let mut pulls = |x: VertexId| {
                    let w = &mut weight[x as usize];
                    if *w == 0 {
                        owners.push(x);
                    }
                    *w = w.saturating_add(group.len() as u32);
                };
                if stepping {
                    self.g.neighbors(u, side.rule.step).iter().copied().for_each(pulls);
                } else {
                    let label = self.sides[side.rule.across].labels[u as usize].entries();
                    label.iter().map(|e| e.pivot).filter(|&x| x != u).for_each(&mut pulls);
                    side.inv().owners_of(u).iter().map(|&(x, _)| x).for_each(pulls);
                }
            }
            owners.sort_unstable();
            let weights: Vec<u32> =
                owners.iter().map(|&x| std::mem::take(&mut weight[x as usize])).collect();
            Plan { cuts: split_by_weight(&weights, ranges), owners }
        };
        self.sides.iter().map(plan).collect()
    }

    /// Phase one: every worker gathers and prunes its ranges of every
    /// side's plan; the outcomes come back in range order. Reads the
    /// engine, writes only `scratch`.
    fn gather_prune(&self, plans: &[Plan], stepping: bool, scratch: &mut [Scratch]) -> Vec<Pruned> {
        let (threads, ranges) = (scratch.len(), plans[0].cuts.len() - 1);
        let dealt = run_workers(threads > 1, scratch.iter_mut().enumerate().collect(), |(w, s)| {
            let mine = (w..ranges).step_by(threads);
            mine.map(|r| self.gather_prune_range(plans, r, stepping, s)).collect::<Vec<_>>()
        });
        let mut dealt: Vec<_> = dealt.into_iter().map(Vec::into_iter).collect();
        (0..ranges).map(|r| dealt[r % threads].next().expect("every range was run")).collect()
    }

    fn gather_prune_range(
        &self,
        plans: &[Plan],
        r: usize,
        stepping: bool,
        s: &mut Scratch,
    ) -> Pruned {
        let mut out = Pruned::default();
        let mut clock = Instant::now();
        for (side, plan) in self.sides.iter().zip(plans) {
            let mut kept = Groups::default();
            let owners = &plan.owners[plan.cuts[r]..plan.cuts[r + 1]];
            for (i, &x) in owners.iter().enumerate() {
                self.gather(side, x, stepping, s);
                if s.block.entries.len() >= BLOCK_CANDIDATES || i + 1 == owners.len() {
                    out.gather += lap(&mut clock);
                    self.prune_block(side, s, &mut kept, &mut out);
                    out.prune += lap(&mut clock);
                }
            }
            out.survivors.push(kept);
        }
        out
    }

    /// Pull owner `x`'s candidates — `prev(u)` below `x` over every arc
    /// `u → x` of the module docs' table — into `s.block`, min-combined
    /// and pivot-sorted.
    fn gather(&self, side: &Side, x: VertexId, stepping: bool, s: &mut Scratch) {
        let mut over = |u: VertexId, w: Dist| {
            for e in side.prev.of(u).iter().take_while(|e| e.pivot < x) {
                s.pull(e.pivot, e.dist.saturating_add(w));
            }
        };
        if stepping {
            self.g.edges(x, side.rule.step.reverse()).for_each(|(u, w)| over(u, w));
        } else {
            self.sides[side.rule.across].inv().owners_of(x).iter().for_each(|&(u, w)| over(u, w));
            let own = side.labels[x as usize].entries().iter().filter(|e| e.pivot != x);
            own.for_each(|e| over(e.pivot, e.dist));
        }
        s.flush(x);
    }

    /// Prune the block's candidates, appending the survivors to `kept`.
    fn prune_block(&self, side: &Side, s: &mut Scratch, kept: &mut Groups, out: &mut Pruned) {
        for (x, candidates) in s.block.iter() {
            let marked = marking_pays(candidates.len(), side.labels[x as usize].len());
            let (counted, pruned) =
                self.prune_owner(side, x, candidates, marked, &mut s.mark, &mut kept.entries);
            out.candidates += counted;
            out.pruned += pruned;
            kept.close(x);
        }
        s.block.clear();
    }

    /// Prune owner `x`'s gathered `candidates` against the index as of
    /// the end of the previous iteration — through the marked label, or
    /// by a merge join each — pushing the survivors to `kept`. Returns
    /// how many were candidates at all and how many of those died.
    fn prune_owner(
        &self,
        side: &Side,
        x: VertexId,
        candidates: &[LabelEntry],
        marked: bool,
        mark: &mut [Dist],
        kept: &mut Vec<LabelEntry>,
    ) -> (u64, u64) {
        let own = &side.labels[x as usize];
        let (across, hubs) = (&self.sides[side.rule.across].labels, self.hubs.as_ref());
        if marked {
            own.entries().iter().for_each(|e| mark[e.pivot as usize] = e.dist);
        }
        let (mut counted, mut pruned) = (0u64, 0u64);
        for &c in candidates {
            // Same-pair dominance, or a hub's: not a candidate at all.
            let current =
                if marked { mark[c.pivot as usize] } else { own.get(c.pivot).unwrap_or(INF_DIST) };
            if current <= c.dist || hubs.is_some_and(|h| h.kills(side.index, x, c.pivot, c.dist)) {
                continue;
            }
            counted += 1;
            // The entry covers a path between x and c.pivot: prune iff
            // the 2-hop query own(x) ⋈ across(c.pivot) already answers
            // ≤ c.dist (§3.3); the unpruned fixpoint keeps it.
            let witnesses = across[c.pivot as usize].entries();
            let covered = hubs.is_some()
                && if marked {
                    witnesses
                        .iter()
                        .any(|w| mark[w.pivot as usize].saturating_add(w.dist) <= c.dist)
                } else {
                    merge_join(own.entries(), witnesses, VertexId::MAX, c.dist) <= c.dist
                };
            if covered {
                pruned += 1;
            } else {
                kept.push(c);
            }
        }
        if marked {
            own.entries().iter().for_each(|e| mark[e.pivot as usize] = INF_DIST);
        }
        (counted, pruned)
    }

    /// Phase two: each side's survivors become its `prev` by move, which
    /// frees the old `prev` and the inverted views — gather + prune was
    /// their last reader — and then every worker merges its ranges' parts
    /// of `prev` into those ranges' own slices of every side's label
    /// array.
    fn apply(&mut self, plans: &[Plan], outcomes: &mut [Pruned], threads: usize) -> Vec<Applied> {
        let n = self.g.num_vertices();
        let mut jobs: Vec<Vec<ApplyJob>> = (0..threads).map(|_| Vec::new()).collect();
        for (s, (side, plan)) in self.sides.iter_mut().zip(plans).enumerate() {
            side.inv = None;
            side.prev.replace(
                outcomes.iter_mut().map(|o| std::mem::take(&mut o.survivors[s])).collect(),
            );
            let mut rest = &mut side.labels[..];
            for (r, survivors) in side.prev.parts.iter().enumerate() {
                let (base, end) = (plan.bound(r, n), plan.bound(r + 1, n));
                let (labels, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
                rest = tail;
                jobs[r % threads].push(ApplyJob { base, labels, survivors });
            }
        }
        run_workers(threads > 1, jobs, |ranges| {
            let start = Instant::now();
            let (mut inserted, mut added) = (0u64, 0u64);
            for job in ranges {
                for (owner, batch) in job.survivors.iter() {
                    let label = &mut job.labels[owner as usize - job.base];
                    inserted +=
                        label.merge_min_sorted(batch, |_, had| added += u64::from(!had)) as u64;
                }
            }
            Applied { inserted, added, elapsed: start.elapsed() }
        })
    }
}

impl Rounds for Engine<'_> {
    type Error = Infallible;

    fn pending(&self) -> bool {
        self.prev_len() > 0
    }

    /// One iteration over up to `self.threads` workers: plan, gather + prune
    /// against the frozen labels, then — the barrier is the join of the
    /// first phase — the survivors become `prev` and are applied.
    fn round(&mut self, stepping: bool) -> Result<IterationStats, Infallible> {
        let round_start = Instant::now();
        let threads = effective_threads(self.threads, self.prev_len());
        let mut ws = std::mem::take(&mut self.ws);
        let (weight, scratch) = ws.sized(self.g.num_vertices(), threads);
        if !stepping {
            for side in &mut self.sides {
                side.inv = Some(InvView::of(&side.labels));
                #[cfg(test)]
                {
                    self.views_built += 1;
                }
            }
        }
        let plans = self.plan(stepping, threads, weight);
        let planning = round_start.elapsed();
        let mut outcomes = self.gather_prune(&plans, stepping, scratch);
        self.ws = ws;
        let applied = self.apply(&plans, &mut outcomes, threads);
        self.total_entries += applied.iter().map(|a| a.added).sum::<u64>();
        Ok(IterationStats {
            candidates: outcomes.iter().map(|o| o.candidates).sum(),
            pruned: outcomes.iter().map(|o| o.pruned).sum(),
            inserted: applied.iter().map(|a| a.inserted).sum(),
            total_entries: self.total_entries,
            gather: planning + outcomes.iter().map(|o| o.gather).sum::<Duration>(),
            prune: outcomes.iter().map(|o| o.prune).sum(),
            apply: applied.iter().map(|a| a.elapsed).sum(),
            ..IterationStats::default()
        })
    }
}

/// One owner range of one side in the apply phase.
struct ApplyJob<'a> {
    /// Vertex of `labels[0]`.
    base: usize,
    labels: &'a mut [VertexLabels],
    survivors: &'a Groups,
}

/// What one worker's apply phase did.
struct Applied {
    /// Entries added or improved.
    inserted: u64,
    /// Entries added.
    added: u64,
    elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use hoplabels::verify::assert_exact;
    use sfgraph::GraphBuilder;

    type Build = fn(&Graph, &HopDbConfig) -> (LabelIndex, BuildStats);

    /// Every strategy pruned, and the unpruned fixpoint stepping and
    /// doubling.
    fn configs() -> Vec<(Build, HopDbConfig)> {
        let pruned = |s| (build_index as Build, HopDbConfig::with_strategy(s));
        let unpruned = |s| (build_unpruned as Build, HopDbConfig::with_strategy(s));
        vec![
            pruned(Strategy::Stepping),
            pruned(Strategy::Doubling),
            pruned(Strategy::Hybrid { switch_at: 3 }),
            unpruned(Strategy::Stepping),
            unpruned(Strategy::Doubling),
        ]
    }

    /// An engine seeded for a pruned build behind `hubs` hubs.
    fn pruned(g: &Graph, hubs: usize) -> Engine<'_> {
        let mut e = Engine::seeded(g);
        e.hubs = Some(HubTable::new(g, hubs));
        e
    }

    #[test]
    fn effective_threads_scales_with_work() {
        assert_eq!(effective_threads(8, 0), 1);
        assert_eq!(effective_threads(8, 1000), 1);
        assert_eq!(effective_threads(8, 2048), 4);
        assert_eq!(effective_threads(8, 1 << 20), 8);
        assert_eq!(effective_threads(1, 1 << 20), 1);
    }

    #[test]
    fn undirected_path_all_strategies_exact() {
        let mut b = GraphBuilder::new_undirected(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        for (build, cfg) in configs() {
            let (index, _) = build(&g, &cfg);
            assert_exact(&g, &index);
        }
    }

    #[test]
    fn directed_cycle_all_strategies_exact() {
        let mut b = GraphBuilder::new_directed(5);
        for i in 0..5u32 {
            b.add_edge(i, (i + 1) % 5);
        }
        let g = b.build();
        for (build, cfg) in configs() {
            let (index, _) = build(&g, &cfg);
            assert_exact(&g, &index);
        }
    }

    #[test]
    fn weighted_directed_exact() {
        let mut b = GraphBuilder::new_directed(5).weighted();
        b.add_weighted_edge(0, 1, 3);
        b.add_weighted_edge(1, 2, 4);
        b.add_weighted_edge(0, 2, 9);
        b.add_weighted_edge(2, 3, 1);
        b.add_weighted_edge(3, 0, 2);
        b.add_weighted_edge(4, 0, 5);
        let g = b.build();
        for (build, cfg) in configs() {
            let (index, _) = build(&g, &cfg);
            assert_exact(&g, &index);
        }
    }

    #[test]
    fn stepping_iterations_bounded_by_hop_diameter() {
        // Theorem 6: at most D_H iterations (plus init and the final
        // empty round that detects the fixpoint).
        let mut b = GraphBuilder::new_undirected(9);
        for i in 0..8u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build(); // path: D_H = 8
        let (index, stats) = build_index(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
        assert_exact(&g, &index);
        assert!(
            stats.num_iterations() <= 8 + 1,
            "stepping took {} iterations on a diameter-8 path",
            stats.num_iterations()
        );
    }

    #[test]
    fn doubling_iterations_logarithmic() {
        // Theorem 4: at most 2⌈log D_H⌉ iterations (+1 to detect the
        // fixpoint). Path of 33 vertices: D_H = 32, bound = 10.
        let mut b = GraphBuilder::new_undirected(33);
        for i in 0..32u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let (index, stats) = build_index(&g, &HopDbConfig::with_strategy(Strategy::Doubling));
        assert_exact(&g, &index);
        let bound = 2 * 32u32.ilog2() + 1;
        assert!(
            stats.num_iterations() <= bound,
            "doubling took {} iterations, bound {bound}",
            stats.num_iterations()
        );
        // And it must beat stepping's 32 rounds by a wide margin.
        assert!(stats.num_iterations() <= 12);
    }

    #[test]
    fn pruning_shrinks_labels() {
        // Cycle: candidates like (3, 1, 2) on a 4-cycle are covered via
        // the higher-ranked pivot 0, so pruning must drop them while the
        // unpruned engine keeps them.
        let mut b = GraphBuilder::new_undirected(8);
        for i in 0..8u32 {
            b.add_edge(i, (i + 1) % 8);
        }
        let g = b.build();
        let (with, _) = build_index(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
        let (without, _) = build_unpruned(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
        assert_exact(&g, &with);
        assert_exact(&g, &without);
        assert!(
            with.total_entries() < without.total_entries(),
            "pruned {} !< unpruned {}",
            with.total_entries(),
            without.total_entries()
        );
    }

    #[test]
    fn disconnected_components_stay_unreachable() {
        let mut b = GraphBuilder::new_undirected(6);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(4, 5);
        let g = b.build();
        let (index, _) = build_index(&g, &HopDbConfig::default());
        assert_exact(&g, &index);
        assert_eq!(index.query(0, 3), sfgraph::INF_DIST);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let g0 = GraphBuilder::new_undirected(0).build();
        let (i0, s0) = build_index(&g0, &HopDbConfig::default());
        assert_eq!(i0.total_entries(), 0);
        assert_eq!(s0.num_iterations(), 1);

        let g1 = GraphBuilder::new_directed(1).build();
        let (i1, _) = build_index(&g1, &HopDbConfig::default());
        assert_eq!(i1.query(0, 0), 0);
    }

    /// Random graphs: every thread count must reproduce the sequential
    /// index exactly, entry for entry, with matching iteration counters.
    #[test]
    fn parallel_builds_match_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for case in 0..6 {
            let n = rng.gen_range(8..40);
            let directed = case % 2 == 0;
            let mut b = if directed {
                GraphBuilder::new_directed(n).weighted()
            } else {
                GraphBuilder::new_undirected(n).weighted()
            };
            for _ in 0..rng.gen_range(2 * n..6 * n) {
                b.add_weighted_edge(
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(1..8),
                );
            }
            let g = b.build();
            for (build, cfg) in configs() {
                let (seq_index, seq_stats) = build(&g, &cfg);
                for threads in [2usize, 3, 8] {
                    let par_cfg = cfg.clone().with_parallelism(threads);
                    let (par_index, par_stats) = build(&g, &par_cfg);
                    assert_eq!(
                        par_index, seq_index,
                        "case {case}, {threads} threads, {:?}",
                        cfg.strategy
                    );
                    assert_eq!(par_stats.num_iterations(), seq_stats.num_iterations());
                    for (a, b) in par_stats.iterations.iter().zip(&seq_stats.iterations) {
                        assert_eq!(
                            (a.candidates, a.pruned, a.inserted, a.total_entries),
                            (b.candidates, b.pruned, b.inserted, b.total_entries),
                            "case {case}, iteration {} counters diverged",
                            a.iteration
                        );
                    }
                }
            }
        }
    }

    /// A 64-vertex ring with chords of 7: enough work per round that
    /// every one of 4 workers' ranges gets some.
    fn chorded_ring() -> Graph {
        let mut b = GraphBuilder::new_undirected(64);
        for i in 0..64u32 {
            b.add_edge(i, (i + 1) % 64);
            b.add_edge(i, (i + 7) % 64);
        }
        b.build()
    }

    /// Force several workers (small graphs normally fall back to one
    /// thread) and check that their ranges' `Pruned` outcomes — counters
    /// and survivors — add up to the sequential ones.
    #[test]
    fn forced_sharding_splits_the_outcomes_without_changing_them() {
        let g = chorded_ring();
        let e = pruned(&g, 0);
        let mut ws = Workspace::default();
        let mut run = |threads: usize| {
            let (weight, scratch) = ws.sized(64, threads);
            let plans = e.plan(true, threads, weight);
            assert!(weight.iter().all(|&w| w == 0), "planning must hand the weights back zeroed");
            e.gather_prune(&plans, true, scratch)
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!((seq.len(), par.len()), (1, 4 * RANGES_PER_WORKER));
        assert!(par.iter().filter(|o| o.candidates > 0).count() > 4, "the cuts left most empty");
        let sum = |f: fn(&Pruned) -> u64, outcomes: &[Pruned]| outcomes.iter().map(f).sum::<u64>();
        assert!(sum(|o| o.candidates, &seq) > 0);
        assert_eq!(sum(|o| o.candidates, &seq), sum(|o| o.candidates, &par));
        assert_eq!(sum(|o| o.pruned, &seq), sum(|o| o.pruned, &par));
        // Concatenated in range order, the survivors are the sequential
        // ones: the owner ranges are consecutive.
        let flat = |outcomes: &[Pruned]| -> Vec<(VertexId, VertexId, Dist)> {
            let groups = outcomes.iter().flat_map(|o| o.survivors[0].iter());
            groups.flat_map(|(x, g)| g.iter().map(move |e| (x, e.pivot, e.dist))).collect()
        };
        assert_eq!(flat(&seq), flat(&par));
        assert!(flat(&seq).is_sorted());
    }

    /// A round holds each survivor once. At one range and at 4 workers'
    /// forced ranges, stepping and doubling, the survivor buffers that
    /// gather + prune returned become each side's `prev` by move — the
    /// very buffers, one part per range and nothing else — `prev(u)`
    /// reads their concatenation for every `u`, and the round's inverted
    /// views are gone.
    #[test]
    fn survivors_become_prev_by_move() {
        let g = chorded_ring();
        let n = g.num_vertices();
        for threads in [1usize, 4] {
            for stepping in [true, false] {
                let what = format!("{threads} threads, stepping = {stepping}");
                let mut e = pruned(&g, 0);
                let Ok(_) = e.round(true);
                if !stepping {
                    e.sides.iter_mut().for_each(|side| side.inv = Some(InvView::of(&side.labels)));
                }
                let mut ws = Workspace::default();
                let (weight, scratch) = ws.sized(n, threads);
                let plans = e.plan(stepping, threads, weight);
                let mut outcomes = e.gather_prune(&plans, stepping, scratch);
                let buffers = |parts: &mut dyn Iterator<Item = &Groups>| {
                    parts.map(|p| (p.entries.as_ptr(), p.owners.as_ptr())).collect::<Vec<_>>()
                };
                let returned = buffers(&mut outcomes.iter().map(|o| &o.survivors[0]));
                let mut reference = vec![Vec::new(); n];
                for (x, group) in outcomes.iter().flat_map(|o| o.survivors[0].iter()) {
                    reference[x as usize].extend_from_slice(group);
                }
                assert!(reference.iter().any(|r| !r.is_empty()), "{what}: nothing survived");
                let _ = e.apply(&plans, &mut outcomes, threads);
                let side = &e.sides[0];
                assert_eq!(buffers(&mut side.prev.parts.iter()), returned, "{what}");
                for u in g.vertices() {
                    assert_eq!(side.prev.of(u), reference[u as usize], "{what}: prev({u})");
                }
                assert!(side.inv.is_none(), "{what}: an inverted view outlived gather + prune");
            }
        }
    }

    /// Stepping needs up to `D_H` rounds (§5.1): a build must run to the
    /// fixpoint however long that takes (a 256-iteration cap used to
    /// return a partial index that answered `unreachable`).
    #[test]
    fn stepping_runs_past_256_iterations_to_the_fixpoint() {
        let n = 300u32;
        let (mut und, mut dir) =
            (GraphBuilder::new_undirected(300), GraphBuilder::new_directed(300));
        for i in 0..n - 1 {
            und.add_edge(i, i + 1);
            dir.add_edge(i, i + 1);
        }
        for g in [und.build(), dir.build()] {
            let (index, stats) = build_index(&g, &HopDbConfig::with_strategy(Strategy::Stepping));
            assert!(stats.num_iterations() > 256, "a {n}-vertex path has D_H = {}", n - 1);
            assert_eq!(index.query(0, n - 1), n - 1);
            assert_exact(&g, &index);
        }
    }

    /// §7 is the same kernel: an undirected graph and its symmetrised
    /// directed twin (same ids) build the same labels — the twin's two
    /// sides each equal the single undirected side — in the same number
    /// of iterations.
    #[test]
    fn undirected_build_equals_symmetrised_directed_build() {
        use crate::builder::build_prelabeled;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(707);
        for case in 0..6 {
            let n = rng.gen_range(8..40);
            let mut b = GraphBuilder::new_undirected(n).weighted();
            for _ in 0..rng.gen_range(2 * n..5 * n) {
                b.add_weighted_edge(
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(1..6),
                );
            }
            let und = b.build();
            let mut twin = GraphBuilder::new_directed(n).weighted();
            for (u, v, w) in und.edge_list() {
                twin.add_weighted_edge(u, v, w);
                twin.add_weighted_edge(v, u, w);
            }
            let twin = twin.build();
            for strategy in
                [Strategy::Stepping, Strategy::Doubling, Strategy::Hybrid { switch_at: 3 }]
            {
                for threads in [1usize, 4] {
                    let cfg =
                        HopDbConfig::with_strategy(strategy.clone()).with_parallelism(threads);
                    let (und_index, und_stats) = build_prelabeled(&und, &cfg);
                    let (twin_index, twin_stats) = build_prelabeled(&twin, &cfg);
                    let (u, d) = (und_index.sides(), twin_index.sides());
                    assert_eq!(
                        (u.len(), d.len()),
                        (1, 2),
                        "index kinds must follow the graph kinds"
                    );
                    let what = format!("case {case}, {strategy:?}, {threads} threads");
                    assert_eq!(d[0], u[0], "{what}: Lout != L");
                    assert_eq!(d[1], u[0], "{what}: Lin != L");
                    assert_eq!(twin_stats.num_iterations(), und_stats.num_iterations(), "{what}");
                }
            }
        }
    }

    #[test]
    fn vertex_labels_need_init() {
        // The labels the engine prunes against must contain the initial
        // entries, one per merged edge, when the full builder runs.
        let mut b = GraphBuilder::new_undirected(5).weighted();
        b.add_weighted_edge(0, 1, 2);
        b.add_weighted_edge(0, 1, 5); // parallel edge, worse weight
        b.add_weighted_edge(1, 2, 1);
        let g = b.build();
        let (index, _) = build_index(&g, &HopDbConfig::default());
        assert_exact(&g, &index);
    }

    fn ranked(g: &Graph) -> Graph {
        use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
        relabel_by_rank(g, &rank_vertices(g, &RankBy::Degree))
    }

    fn small_glp(n: usize, seed: u64) -> Graph {
        ranked(&graphgen::glp(&graphgen::GlpParams::with_density(n, 2.5, seed)))
    }

    fn small_directed_glp(n: usize, seed: u64) -> Graph {
        let g = graphgen::glp(&graphgen::GlpParams::with_density(n, 2.5, seed));
        ranked(&graphgen::orient_scale_free(&g, 0.25, seed))
    }

    /// An engine `rounds` stepping rounds into a pruned build of `g`,
    /// inverted views built: every rule has something to compose.
    fn mid_build(g: &Graph, rounds: u32) -> Engine<'_> {
        let mut e = pruned(g, 0);
        for _ in 0..rounds {
            let Ok(_) = e.round(true);
        }
        for side in &mut e.sides {
            side.inv = Some(InvView::of(&side.labels));
        }
        e
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Rule {
        Stepping,
        Label,
        Inverted,
    }

    type Candidates = std::collections::BTreeMap<(VertexId, VertexId), Dist>;

    /// The rules as the paper states them, one at a time: per `prev`
    /// entry `(owner u, pivot v, d)`, every emission of one rule,
    /// min-combined into `cands`.
    fn push(e: &Engine, side: &Side, rule: Rule, cands: &mut Candidates) {
        let mut emit = |x: VertexId, v: VertexId, d: Dist| {
            let best = cands.entry((x, v)).or_insert(INF_DIST);
            *best = d.min(*best);
        };
        for (u, group) in side.prev.iter() {
            for &LabelEntry { pivot: v, dist: d } in group {
                match rule {
                    Rule::Stepping => {
                        e.g.edges(u, side.rule.step)
                            .filter(|&(x, _)| x > v)
                            .for_each(|(x, w)| emit(x, v, d + w))
                    }
                    Rule::Label => e.sides[side.rule.across].labels[u as usize]
                        .entries()
                        .iter()
                        .filter(|l| l.pivot > v && l.pivot < u)
                        .for_each(|l| emit(l.pivot, v, d + l.dist)),
                    Rule::Inverted => (0..side.labels.len() as VertexId)
                        .filter(|&x| x != u)
                        .filter_map(|x| Some((x, side.labels[x as usize].get(u)?)))
                        .for_each(|(x, d2)| emit(x, v, d + d2)),
                }
            }
        }
    }

    /// One round's candidates, pulled by every vertex in turn.
    fn pulled(e: &Engine, side: &Side, stepping: bool, s: &mut Scratch) -> Candidates {
        e.g.vertices().for_each(|x| e.gather(side, x, stepping, s));
        let block = std::mem::take(&mut s.block);
        block.iter().flat_map(|(x, g)| g.iter().map(move |c| ((x, c.pivot), c.dist))).collect()
    }

    /// A pulled round — one arc rule over the arcs of its kind — gathers
    /// exactly the min-union of the candidates that round's pushed rules
    /// emit, on every kind of side, and a round's plan visits every owner
    /// that has any.
    #[test]
    fn pulled_rounds_equal_the_pushed_rules() {
        let graphs =
            [graphgen::example_graph_fig3(), small_glp(150, 5), small_directed_glp(150, 9)];
        let mut exercised = std::collections::BTreeSet::new();
        for (gi, g) in graphs.iter().enumerate() {
            for rounds in 0..3 {
                let e = mid_build(g, rounds);
                let n = g.num_vertices();
                let (mut s, mut weight) = (Scratch::new(n), vec![0u32; n]);
                for stepping in [true, false] {
                    let plans = e.plan(stepping, 1, &mut weight);
                    for (si, side) in e.sides.iter().enumerate() {
                        let what = format!("graph {gi}, {rounds} rounds in, side {si}");
                        let rules: &[Rule] = if stepping {
                            &[Rule::Stepping]
                        } else {
                            &[Rule::Label, Rule::Inverted]
                        };
                        let mut pushed = Candidates::new();
                        for &rule in rules {
                            let mut alone = Candidates::new();
                            push(&e, side, rule, &mut alone);
                            if !alone.is_empty() {
                                exercised.insert((e.sides.len(), si, rule));
                            }
                            push(&e, side, rule, &mut pushed);
                        }
                        let pull = pulled(&e, side, stepping, &mut s);
                        assert_eq!(pull, pushed, "{what}, stepping = {stepping}");
                        assert!(
                            pull.keys().all(|(x, _)| plans[si].owners.binary_search(x).is_ok()),
                            "{what}, stepping = {stepping}: the plan skips an owner with candidates"
                        );
                    }
                }
                assert!(s.best.iter().chain(&s.mark).all(|&d| d == INF_DIST), "scratch not reset");
            }
        }
        // Undirected, out and in sides have each composed with each rule.
        assert_eq!(exercised.len(), 9, "{exercised:?}");
    }

    /// `inv` feeds only a doubling round's gather + prune: seeding and
    /// stepping rounds build none, every doubling round builds one per
    /// side, and no round ends with one — it is freed before apply.
    #[test]
    fn each_doubling_round_builds_inverted_views_and_frees_them() {
        for g in [small_glp(200, 3), small_directed_glp(200, 4)] {
            for strategy in
                [Strategy::Stepping, Strategy::Hybrid { switch_at: 3 }, Strategy::Doubling]
            {
                let cfg = HopDbConfig::with_strategy(strategy.clone());
                let mut e = pruned(&g, HUBS);
                assert!(e.sides.iter().all(|s| s.inv.is_none()), "seeding built an inverted view");
                let (mut iter, mut doubling) = (1u32, 0usize);
                while e.pending() {
                    iter += 1;
                    doubling += usize::from(!strategy.steps_at(iter));
                    let Ok(_) = e.round(strategy.steps_at(iter));
                    let at = format!("{strategy:?}, iteration {iter}");
                    assert_eq!(e.views_built, doubling * e.sides.len(), "{at}: views built");
                    assert!(e.sides.iter().all(|s| s.inv.is_none()), "{at}: a view outlived it");
                }
                assert_eq!(doubling == 0, strategy == Strategy::Stepping, "{strategy:?}");
                let (index, _) = build_index(&g, &cfg);
                assert_eq!(
                    LabelIndex::from_sides(e.sides.into_iter().map(|s| s.labels).collect()),
                    index
                );
            }
        }
    }

    /// Both prune paths are the same test: over rounds whose owners fall
    /// on both sides of [`marking_pays`] — scale-free rounds mark, a long
    /// path's one or two candidates per owner join — each owner's candidates
    /// come out the same through the marked label and the merge join.
    #[test]
    fn marked_and_joined_prunes_agree_across_the_switch() {
        let (mut via_mark, mut via_join) = (0, 0);
        let path = ranked(&graphgen::path(300));
        for (g, rounds, stepping) in [
            (&small_glp(300, 11), 1, true),
            (&small_glp(300, 11), 2, false),
            (&small_directed_glp(300, 12), 2, true),
            (&small_directed_glp(300, 12), 1, false),
            (&path, 150, true),
            (&path, 150, false),
        ] {
            let e = mid_build(g, rounds);
            let n = g.num_vertices();
            let (mut s, mut weight) = (Scratch::new(n), vec![0u32; n]);
            for (side, plan) in e.sides.iter().zip(e.plan(stepping, 1, &mut weight)) {
                plan.owners.iter().for_each(|&x| e.gather(side, x, stepping, &mut s));
                for (x, candidates) in s.block.iter() {
                    let run = |marked: bool, mark: &mut [Dist]| {
                        let mut kept = Vec::new();
                        let counts = e.prune_owner(side, x, candidates, marked, mark, &mut kept);
                        (counts, kept)
                    };
                    assert_eq!(run(true, &mut s.mark), run(false, &mut s.mark), "owner {x}");
                    if marking_pays(candidates.len(), side.labels[x as usize].len()) {
                        via_mark += 1;
                    } else {
                        via_join += 1;
                    }
                }
                s.block.clear();
            }
            assert!(s.mark.iter().all(|&d| d == INF_DIST), "marks left behind");
        }
        assert!(via_mark > 100 && via_join > 100, "{via_mark} marked, {via_join} joined");
    }

    /// A trough path found later can beat the edge that seeded the pair:
    /// the round lowers the existing entry in place, which counts as
    /// inserted but adds nothing.
    #[test]
    fn later_round_lowers_an_existing_distance() {
        let mut b = GraphBuilder::new_undirected(3).weighted();
        b.add_weighted_edge(1, 0, 10);
        b.add_weighted_edge(2, 1, 1);
        b.add_weighted_edge(2, 0, 1); // 1 – 2 – 0 costs 2, through lower-ranked 2
        let g = b.build();
        let mut e = pruned(&g, 0);
        assert_eq!(e.sides[0].labels[1].get(0), Some(10));
        let seeded = e.total_entries;
        let Ok(round) = e.round(true);
        assert_eq!((round.candidates, round.pruned, round.inserted), (1, 0, 1));
        assert_eq!(round.total_entries, seeded, "an improvement is not a new entry");
        assert_eq!(e.sides[0].labels[1].get(0), Some(2));
        assert_eq!(e.sides[0].prev.of(1), &[LabelEntry::new(0, 2)]);
        for (build, cfg) in configs() {
            for threads in [1usize, 4] {
                let (index, _) = build(&g, &cfg.clone().with_parallelism(threads));
                assert_exact(&g, &index);
                assert_eq!(index.query(1, 0), 2);
            }
        }
    }

    /// Every arc points at a higher-ranked vertex: all seeds are
    /// out-entries, so the in side's `prev` is empty from the start and
    /// its rounds visit nobody, while the out side still pulls through it.
    #[test]
    fn directed_build_with_one_side_idle() {
        let mut b = GraphBuilder::new_directed(6);
        for (u, v) in [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0), (5, 2), (4, 0)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let e = pruned(&g, 0);
        assert_eq!(e.sides[1].prev.len(), 0);
        for stepping in [true, false] {
            let plans = mid_build(&g, 0).plan(stepping, 2, &mut [0; 6]);
            assert!(!plans[0].owners.is_empty());
            assert!(plans[1].owners.is_empty() && plans[1].cuts == [0; 2 * RANGES_PER_WORKER + 1]);
        }
        for (build, cfg) in configs() {
            let (index, stats) = build(&g, &cfg);
            assert_exact(&g, &index);
            assert!(stats.num_iterations() > 2);
            let lin = &index.sides()[1];
            assert!(lin.iter().all(|l| l.len() == 1), "in-labels grew: {lin:?}");
        }
    }

    /// A hub kills only entries that are never canonical, and the
    /// canonical filter leaves a function of the graph and the order
    /// (`crate::hubs`), so the hub count cannot move the image. On every
    /// undirected graph of up to 4 vertices and every directed one of up
    /// to 3, the engine runs on the whole graph, with no elimination (on
    /// graphs this small it leaves almost no core), at every hub count
    /// from 0 to n, then the filter: each writes `build_index`'s image.
    #[test]
    fn every_hub_count_writes_one_image_on_every_small_graph() {
        let image = |(mut index, _): (LabelIndex, BuildStats)| {
            crate::postprune::post_prune(&mut index, 1);
            let mut bytes = Vec::new();
            index.write_hopidx(&mut bytes).unwrap();
            bytes
        };
        let cfg = HopDbConfig::default();
        for (directed, largest) in [(false, 4), (true, 3)] {
            for n in 1..=largest {
                let pairs = (0..n).flat_map(|u| (0..n).map(move |v| (u, v)));
                let slots: Vec<_> = pairs.filter(|&(u, v)| u < v || directed && u != v).collect();
                for code in 0u32..1 << slots.len() {
                    let mut b = if directed {
                        GraphBuilder::new_directed(n as usize)
                    } else {
                        GraphBuilder::new_undirected(n as usize)
                    };
                    let arcs = slots.iter().enumerate().filter(|&(i, _)| code >> i & 1 == 1);
                    arcs.for_each(|(_, &(u, v))| b.add_edge(u, v));
                    let (_, g) = crate::rank(&b.build(), &cfg);
                    let expect = image(build_index(&g, &cfg));
                    for hubs in 0..=n as usize {
                        let got = image(build_index_with_hubs(&g, &cfg, Some(hubs)));
                        let at = format!("n = {n}, directed = {directed}, code {code}");
                        assert!(got == expect, "{at}: {hubs} hubs wrote another image");
                    }
                }
            }
        }
    }
}
