//! The in-memory iterative labeling engine (Algorithm 1 with the
//! minimized rules of §3.2, the pruning of §3.3, the stepping refinement
//! of §5.1 and the undirected conversion of §7) — one round kernel over
//! one or two *sides*.
//!
//! ## Rank convention
//!
//! Inputs must be *rank-relabeled* graphs (id 0 = highest rank), so
//! `r(u) > r(v)` ⇔ `u < v`.
//!
//! ## Sides
//!
//! A side σ is one label array under construction (`own`), the array it
//! is joined against (`across`), the inverted view `inv` of `own`
//! ("which owners carry pivot `p`" — the label-files-sorted-by-pivot of
//! §4.1, kept as adjacency-style [`InvList`]s), the entries `prev` that
//! the previous iteration added to `own`, and the edge direction
//! stepping walks. A directed build is two sides whose `across` is each
//! other; an undirected build (§7) is one side whose `across` is itself.
//!
//! Every iteration does the same thing on every side. For a `prev` entry
//! `(owner u, pivot v, d)`:
//!
//! ```text
//! stepping  edge (x, w) of u in σ's step direction, x > v  ⇒ cand (v, d+w)  ∈ own(x)
//! doubling  (x, d') ∈ across(u), v < x < u                 ⇒ cand (v, d+d') ∈ own(x)
//!           (u, d') ∈ own(x), read off inv[u]; x > u > v   ⇒ cand (v, d+d') ∈ own(x)
//! prune     cand (v, d) ∈ own(x) dies iff  own(x) ⋈ across(v) ≤ d
//! ```
//!
//! which is the paper's rule set read through this table:
//!
//! | side       | `own`  | `across` | step edges | label rule   | inverted rule |
//! |------------|--------|----------|------------|--------------|---------------|
//! | out        | `Lout` | `Lin`    | in-edges   | R1           | R2            |
//! | in         | `Lin`  | `Lout`   | out-edges  | R4           | R5            |
//! | undirected | `L`    | `L`      | all edges  | converted R1 | converted R2  |
//!
//! In stepping iterations the composed entry is restricted to graph
//! edges, which collapses the label and inverted rules into the single
//! edge extension of the first line. The prune test (§3.3, restricted as
//! in §4.2 to witnesses of higher rank than both endpoints) is exactly
//! the 2-hop query on the index built so far — `Lout(u) ⋈ Lin(v)` for
//! an out-candidate, the same join read from the other end for an
//! in-candidate — and the self-entries extend it to same-pair dominance.
//!
//! ## Parallel construction
//!
//! Both generation and pruning only *read* the label arrays as frozen at
//! the end of the previous iteration (Theorem 3's proof relies on
//! witnesses "from previous iterations" only), so each iteration is
//! embarrassingly parallel per `(side, owner, pivot)` key. With
//! `HopDbConfig::parallelism > 1` the round runs in three phases:
//!
//! 1. **scatter** — every side's `prev` is split into per-worker chunks;
//!    worker *w* generates candidates from chunk *w* of every side into
//!    per-`(side, shard)` pools routed by `owner % shards`
//!    ([`crate::shard`]);
//! 2. **merge + prune** — one worker per shard min-merges every side's
//!    pools for its owners, runs the prune test against the frozen
//!    arrays, and sorts the survivors by `(owner, pivot)`;
//! 3. **apply** — the main thread walks the shards in order, sides in
//!    the fixed order out → in, and merges each owner's sorted survivor
//!    batch into its label ([`VertexLabels::merge_min_sorted`]).
//!
//! Because the shards partition the key space and every per-key
//! reduction is a minimum, the result is *bit-identical* to the
//! sequential build for every thread count — the single-threaded path
//! is literally the same pipeline with one chunk and one shard.

use std::time::{Duration, Instant};

use hoplabels::index::{join_min, DirectedLabels, LabelIndex, UndirectedLabels, VertexLabels};
use hoplabels::LabelEntry;
use sfgraph::hash::FxHashMap;
use sfgraph::{Direction, Dist, Graph, VertexId};

use crate::config::HopDbConfig;
use crate::invlist::InvList;
use crate::iteration::{BuildStats, IterationStats, ShardStats};
use crate::shard;

/// A label entry with its owner: `(owner, pivot, dist)`.
pub(crate) type Entry = (VertexId, VertexId, Dist);

/// How one side of a build starts (§3.1): what it is joined against,
/// how stepping extends it, and one entry per edge that seeds it.
pub(crate) struct SideSeed {
    /// Index of the side whose labels this side is joined against.
    pub(crate) across: usize,
    /// Edges of a `prev` entry's owner that stepping extends it over.
    pub(crate) step: Direction,
    /// The initialization entries, in edge order.
    pub(crate) entries: Vec<Entry>,
}

/// The sides of a build over `g`, in the fixed order out → in: an edge
/// `u → v` seeds `(v, w) ∈ Lout(u)` when `r(v) > r(u)` and
/// `(u, w) ∈ Lin(v)` otherwise; an undirected edge seeds the
/// lower-ranked endpoint's single label (§7).
pub(crate) fn seed_sides(g: &Graph) -> Vec<SideSeed> {
    if !g.is_directed() {
        // `edge_list` is normalised u < v: r(u) > r(v), so (u, w) ∈ L(v).
        let entries = g.edge_list().into_iter().map(|(u, v, w)| (v, u, w)).collect();
        return vec![SideSeed { across: 0, step: Direction::Out, entries }];
    }
    let (mut out, mut inn) = (Vec::new(), Vec::new());
    for u in g.vertices() {
        for (v, w) in g.edges(u, Direction::Out) {
            if v < u {
                out.push((u, v, w));
            } else {
                inn.push((v, u, w));
            }
        }
    }
    vec![
        SideSeed { across: 1, step: Direction::In, entries: out },
        SideSeed { across: 0, step: Direction::Out, entries: inn },
    ]
}

/// The finished index from the sides' label arrays, in [`seed_sides`]
/// order.
pub(crate) fn index_from_sides(labels: Vec<Vec<VertexLabels>>) -> LabelIndex {
    let mut labels = labels.into_iter();
    let first = labels.next().expect("a build has at least one side");
    match labels.next() {
        Some(in_labels) => LabelIndex::Directed(DirectedLabels { in_labels, out_labels: first }),
        None => LabelIndex::Undirected(UndirectedLabels { labels: first }),
    }
}

/// Candidate pool keyed by `(owner, pivot)` keeping the minimum distance.
type CandMap = FxHashMap<(VertexId, VertexId), Dist>;

fn offer(cands: &mut CandMap, owner: VertexId, pivot: VertexId, d: Dist) {
    cands
        .entry((owner, pivot))
        .and_modify(|cur| {
            if d < *cur {
                *cur = d;
            }
        })
        .or_insert(d);
}

/// Min-merge per-worker pools of one shard into a single deduplicated
/// pool, folding into the largest pool to minimise rehashing.
fn merge_cands(mut maps: Vec<CandMap>) -> CandMap {
    let Some(big) = maps.iter().enumerate().max_by_key(|(_, m)| m.len()).map(|(i, _)| i) else {
        return CandMap::default();
    };
    let mut base = maps.swap_remove(big);
    for m in maps {
        for ((owner, pivot), d) in m {
            offer(&mut base, owner, pivot, d);
        }
    }
    base
}

/// Survivors and counters of one shard's merge + prune phase.
struct ShardOutcome {
    shard: usize,
    /// Per side, the survivors owned by this shard, sorted.
    survivors: Vec<Vec<Entry>>,
    candidates: u64,
    pruned: u64,
    elapsed: Duration,
}

impl ShardOutcome {
    fn stats(&self) -> ShardStats {
        ShardStats {
            shard: self.shard,
            candidates: self.candidates,
            pruned: self.pruned,
            elapsed: self.elapsed,
        }
    }
}

fn shard_stats(threads: usize, outcomes: &[ShardOutcome]) -> Vec<ShardStats> {
    if threads > 1 {
        outcomes.iter().map(ShardOutcome::stats).collect()
    } else {
        Vec::new()
    }
}

/// Insert survivors — sorted by `(owner, pivot)` — as per-owner batches,
/// keeping the inverted lists and the entry count in sync. Returns the
/// number of added-or-improved entries.
fn insert_batches(
    survivors: &[Entry],
    labels: &mut [VertexLabels],
    inv: &mut [InvList],
    total: &mut u64,
) -> u64 {
    let mut inserted = 0u64;
    let mut batch = Vec::new();
    let mut i = 0usize;
    while i < survivors.len() {
        let owner = survivors[i].0;
        batch.clear();
        while i < survivors.len() && survivors[i].0 == owner {
            batch.push(LabelEntry::new(survivors[i].1, survivors[i].2));
            i += 1;
        }
        inserted += labels[owner as usize].merge_min_sorted(&batch, |e, had| {
            inv[e.pivot as usize].upsert(owner, e.dist);
            if !had {
                *total += 1;
            }
        }) as u64;
    }
    inserted
}

/// One label array under construction; see the module docs.
struct Side {
    /// Index in [`Engine::sides`] of the side this one is joined against
    /// (the other side of a directed build, itself when undirected).
    across: usize,
    /// Edges of a `prev` entry's owner that stepping extends it over.
    step: Direction,
    /// `own`: the labels this side grows.
    labels: Vec<VertexLabels>,
    /// `inv[p]` = owners `x` (and distances) with `(p, ·) ∈ own(x)`.
    inv: Vec<InvList>,
    /// Entries the previous iteration added to `own`.
    prev: Vec<Entry>,
}

/// The state of an in-memory build: the graph and the sides grown over it.
struct Engine<'g> {
    g: &'g Graph,
    /// One side (undirected) or two (directed, out then in).
    sides: Vec<Side>,
    total_entries: u64,
}

/// Build a label index for a rank-relabeled graph, directed or
/// undirected, honouring `cfg`'s strategy, pruning, and parallelism
/// switches.
pub fn build_index(g: &Graph, cfg: &HopDbConfig) -> (LabelIndex, BuildStats) {
    let started = Instant::now();
    let threads = cfg.resolved_parallelism();
    let mut stats = BuildStats { threads, ..BuildStats::default() };

    // Iteration 1: initialization — one entry per edge (§3.1).
    let init_start = Instant::now();
    let mut e = Engine::seeded(g);
    let init_inserted = e.prev_len() as u64;
    stats.iterations.push(IterationStats {
        iteration: 1,
        stepping: true,
        candidates: init_inserted,
        pruned: 0,
        inserted: init_inserted,
        total_entries: e.total_entries,
        elapsed: init_start.elapsed(),
        io_read_bytes: 0,
        io_write_bytes: 0,
        shards: Vec::new(),
    });

    // Run to the fixpoint: every inserted entry strictly lowers one
    // `(owner, pivot)` distance, so the rounds cannot go on for ever.
    let mut iter = 1u32;
    while e.prev_len() > 0 {
        iter += 1;
        let round_start = Instant::now();
        let stepping = cfg.strategy.steps_at(iter);
        let round_threads = shard::effective_threads(threads, e.prev_len());
        let outcomes = e.run_round(stepping, cfg.prune, round_threads);
        let candidates = outcomes.iter().map(|o| o.candidates).sum();
        let pruned = outcomes.iter().map(|o| o.pruned).sum();
        let shards = shard_stats(round_threads, &outcomes);
        let inserted = e.apply(&outcomes);
        stats.iterations.push(IterationStats {
            iteration: iter,
            stepping,
            candidates,
            pruned,
            inserted,
            total_entries: e.total_entries,
            elapsed: round_start.elapsed(),
            io_read_bytes: 0,
            io_write_bytes: 0,
            shards,
        });
        if inserted == 0 {
            break;
        }
    }

    let index = index_from_sides(e.sides.into_iter().map(|s| s.labels).collect());
    stats.final_entries = index.total_entries() as u64;
    stats.elapsed = started.elapsed();
    (index, stats)
}

impl<'g> Engine<'g> {
    /// Trivial self-entries plus the initialization entries of `g`, which
    /// are also the first `prev`.
    fn seeded(g: &'g Graph) -> Engine<'g> {
        let n = g.num_vertices();
        let sides: Vec<Side> = seed_sides(g)
            .into_iter()
            .map(|seed| {
                let mut labels: Vec<VertexLabels> =
                    (0..n).map(|v| VertexLabels::with_trivial(v as VertexId)).collect();
                let mut inv = vec![InvList::default(); n];
                for &(owner, pivot, w) in &seed.entries {
                    if labels[owner as usize].insert_min(LabelEntry::new(pivot, w)) {
                        inv[pivot as usize].upsert(owner, w);
                    }
                }
                Side { across: seed.across, step: seed.step, labels, inv, prev: seed.entries }
            })
            .collect();
        let total_entries = sides.iter().map(|s| (n + s.prev.len()) as u64).sum();
        Engine { g, sides, total_entries }
    }

    fn prev_len(&self) -> usize {
        self.sides.iter().map(|s| s.prev.len()).sum()
    }

    /// One generate + prune round over `threads` workers; survivors come
    /// back per shard, sorted, ready for [`Engine::apply`].
    fn run_round(&self, stepping: bool, prune: bool, threads: usize) -> Vec<ShardOutcome> {
        if threads == 1 {
            let prev: Vec<&[Entry]> = self.sides.iter().map(|s| &s.prev[..]).collect();
            // One shard: the per-shard pools are the per-worker pools.
            return vec![self.prune_shard(prune, 0, self.scatter(stepping, &prev, 1))];
        }
        // Phase 1: scatter — worker w generates candidates from chunk w
        // of every side into per-(side, shard) pools.
        let chunks: Vec<Vec<&[Entry]>> =
            self.sides.iter().map(|s| shard::chunks(&s.prev, threads)).collect();
        let mut scattered: Vec<Vec<Vec<CandMap>>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let prev: Vec<&[Entry]> = chunks.iter().map(|c| c[w]).collect();
                    sc.spawn(move || self.scatter(stepping, &prev, threads))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scatter worker panicked")).collect()
        });
        // Phase 2: merge + prune — one worker per shard.
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|s| {
                    let pools: Vec<Vec<CandMap>> = (0..self.sides.len())
                        .map(|side| {
                            scattered.iter_mut().map(|w| std::mem::take(&mut w[side][s])).collect()
                        })
                        .collect();
                    sc.spawn(move || self.prune_shard(prune, s, pools))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("prune worker panicked")).collect()
        })
    }

    /// Generate candidates from one chunk of every side's `prev` into
    /// `shards` owner-routed pools per side: `result[side][shard]`.
    fn scatter(&self, stepping: bool, prev: &[&[Entry]], shards: usize) -> Vec<Vec<CandMap>> {
        let mut pools = Vec::with_capacity(self.sides.len());
        for (side, &prev) in self.sides.iter().zip(prev) {
            let mut cands = vec![CandMap::default(); shards];
            let mut emit = |owner: VertexId, pivot: VertexId, d: Dist| {
                // Cheap dominance check against the existing entry before
                // the candidate pool (full pruning happens in
                // `prune_shard`).
                if side.labels[owner as usize].get(pivot).is_none_or(|cur| cur > d) {
                    offer(&mut cands[shard::shard_of(owner, shards)], owner, pivot, d);
                }
            };
            let across = &self.sides[side.across].labels;
            for &(u, v, d) in prev {
                if stepping {
                    // Label and inverted rule composed with single edges.
                    for (x, w) in self.g.edges(u, side.step) {
                        if x > v {
                            emit(x, v, d.saturating_add(w));
                        }
                    }
                } else {
                    // Label rule (R1 / R4): (x, d') ∈ across(u), v < x < u.
                    for e in across[u as usize].entries() {
                        if e.pivot > v && e.pivot < u {
                            emit(e.pivot, v, d.saturating_add(e.dist));
                        }
                    }
                    // Inverted rule (R2 / R5): owners x with (u, d') ∈
                    // own(x); x > u > v holds.
                    for &(x, d2) in side.inv[u as usize].entries() {
                        emit(x, v, d.saturating_add(d2));
                    }
                }
            }
            pools.push(cands);
        }
        pools
    }

    /// Merge one shard's per-worker pools (`pools[side][worker]`) and
    /// prune the candidates against the index as of the end of the
    /// previous iteration (Theorem 3's proof relies on witnesses "from
    /// previous iterations" only) — survivors never prune each other,
    /// which also keeps the in-memory engine bit-identical to the
    /// external one, whose pruning joins read frozen label files.
    fn prune_shard(&self, prune: bool, shard: usize, pools: Vec<Vec<CandMap>>) -> ShardOutcome {
        let start = Instant::now();
        let (mut candidates, mut pruned) = (0u64, 0u64);
        let mut survivors = Vec::with_capacity(pools.len());
        for (side, maps) in self.sides.iter().zip(pools) {
            let merged = merge_cands(maps);
            candidates += merged.len() as u64;
            let across = &self.sides[side.across].labels;
            let mut kept = Vec::with_capacity(merged.len());
            for ((owner, pivot), d) in merged {
                // The entry covers a path between owner and pivot: prune
                // iff the 2-hop query over own(owner) ⋈ across(pivot)
                // already answers ≤ d (§3.3).
                if prune
                    && join_min(
                        side.labels[owner as usize].entries(),
                        across[pivot as usize].entries(),
                    ) <= d
                {
                    pruned += 1;
                } else {
                    kept.push((owner, pivot, d));
                }
            }
            kept.sort_unstable();
            survivors.push(kept);
        }
        ShardOutcome { shard, survivors, candidates, pruned, elapsed: start.elapsed() }
    }

    /// Insert every shard's survivors, in shard order, and make them the
    /// next iteration's `prev` entries.
    fn apply(&mut self, outcomes: &[ShardOutcome]) -> u64 {
        for side in &mut self.sides {
            side.prev.clear();
        }
        let mut inserted = 0u64;
        for o in outcomes {
            for (side, survivors) in self.sides.iter_mut().zip(&o.survivors) {
                inserted += insert_batches(
                    survivors,
                    &mut side.labels,
                    &mut side.inv,
                    &mut self.total_entries,
                );
                side.prev.extend_from_slice(survivors);
            }
        }
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use hoplabels::verify::assert_exact;
    use sfgraph::GraphBuilder;

    fn configs() -> Vec<HopDbConfig> {
        vec![
            HopDbConfig::with_strategy(Strategy::Stepping),
            HopDbConfig::with_strategy(Strategy::Doubling),
            HopDbConfig::with_strategy(Strategy::Hybrid { switch_at: 3 }),
            HopDbConfig::unpruned(Strategy::Stepping),
            HopDbConfig::unpruned(Strategy::Doubling),
        ]
    }

    #[test]
    fn undirected_path_all_strategies_exact() {
        let mut b = GraphBuilder::new_undirected(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        for cfg in configs() {
            let (index, _) = build_index(&g, &cfg);
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
        for cfg in configs() {
            let (index, _) = build_index(&g, &cfg);
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
        for cfg in configs() {
            let (index, _) = build_index(&g, &cfg);
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
        let (without, _) = build_index(&g, &HopDbConfig::unpruned(Strategy::Stepping));
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
            for cfg in configs() {
                let (seq_index, seq_stats) = build_index(&g, &cfg);
                for threads in [2usize, 3, 8] {
                    let par_cfg = cfg.clone().with_parallelism(threads);
                    let (par_index, par_stats) = build_index(&g, &par_cfg);
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

    /// Force the sharded path (small graphs normally fall back to one
    /// thread) and check the per-shard counters add up.
    #[test]
    fn forced_sharding_reports_shard_stats() {
        let mut b = GraphBuilder::new_undirected(64);
        for i in 0..64u32 {
            b.add_edge(i, (i + 1) % 64);
            b.add_edge(i, (i + 7) % 64);
        }
        let g = b.build();
        let side = Side {
            across: 0,
            step: Direction::Out,
            labels: (0..64).map(|v| VertexLabels::with_trivial(v as VertexId)).collect(),
            inv: vec![InvList::default(); 64],
            prev: g.edge_list().into_iter().map(|(u, v, w)| (v, u, w)).collect(),
        };
        let e = Engine { g: &g, sides: vec![side], total_entries: 64 };
        let seq = e.run_round(true, true, 1);
        let par = e.run_round(true, true, 4);
        assert_eq!(par.len(), 4);
        let seq_cands: u64 = seq.iter().map(|o| o.candidates).sum();
        let par_cands: u64 = par.iter().map(|o| o.candidates).sum();
        assert_eq!(seq_cands, par_cands, "sharding must not change the deduplicated pool");
        let mut seq_surv: Vec<_> = seq.into_iter().flat_map(|o| o.survivors).flatten().collect();
        let mut par_surv: Vec<_> = par.into_iter().flat_map(|o| o.survivors).flatten().collect();
        seq_surv.sort_unstable();
        par_surv.sort_unstable();
        assert_eq!(seq_surv, par_surv);
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
                    let (LabelIndex::Undirected(u), LabelIndex::Directed(d)) =
                        (&und_index, &twin_index)
                    else {
                        panic!("index kinds must follow the graph kinds");
                    };
                    let what = format!("case {case}, {strategy:?}, {threads} threads");
                    assert_eq!(d.out_labels, u.labels, "{what}: Lout != L");
                    assert_eq!(d.in_labels, u.labels, "{what}: Lin != L");
                    assert_eq!(twin_stats.num_iterations(), und_stats.num_iterations(), "{what}");
                }
            }
        }
    }

    #[test]
    fn vertex_labels_need_init() {
        // `prev` above is built from edge_list; make sure the labels the
        // engine prunes against contain those initial entries when the
        // full builder runs (regression guard for the refactor: the
        // init loop now feeds the inverted lists through `upsert`).
        let mut b = GraphBuilder::new_undirected(5).weighted();
        b.add_weighted_edge(0, 1, 2);
        b.add_weighted_edge(0, 1, 5); // parallel edge, worse weight
        b.add_weighted_edge(1, 2, 1);
        let g = b.build();
        let (index, _) = build_index(&g, &HopDbConfig::default());
        assert_exact(&g, &index);
    }
}
