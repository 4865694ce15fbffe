//! IS-Label (reference \[18\]; Fu, Wu, Cheng, Wong, VLDB 2013).
//!
//! Builds a vertex hierarchy by repeatedly extracting an *independent
//! set* of low-degree vertices. When a vertex `v` is removed, shortcut
//! edges are added between its in- and out-neighbours (`w(a,v)+w(v,b)`,
//! keeping minima) so distances among the survivors are preserved.
//! Labels are then assigned top-down: a vertex inherits, through each
//! neighbour it had at removal time (all of which sit higher in the
//! hierarchy), that neighbour's label entries plus the connecting edge
//! weight, min-merged per pivot.
//!
//! The weakness the paper demonstrates (§8): on scale-free graphs the
//! neighbourhood cliques created by augmentation grow the intermediate
//! graph instead of shrinking it — "with the dataset Flickr, the
//! intermediate graph G_i has grown to become bigger than the original
//! graph in the second iteration". [`IsLabel::build`] therefore takes an
//! `edge_budget`; exceeding it aborts with [`IsLabelError::Exploded`],
//! which the bench harness reports as DNF, mirroring the paper's
//! 24-hour timeouts.

use hoplabels::index::{side_table, LabelIndex, VertexLabels};
use hoplabels::LabelEntry;
use sfgraph::hash::FxHashMap;
use sfgraph::{Direction, Dist, Graph, VertexId};

use crate::oracle::DistanceOracle;

/// Why an IS-Label build was aborted.
#[derive(Debug, PartialEq, Eq)]
pub enum IsLabelError {
    /// Edge augmentation exceeded the configured budget (the scale-free
    /// blow-up of §8).
    Exploded {
        /// Hierarchy level at which the budget was exceeded.
        level: u32,
        /// Edge count at that point.
        edges: usize,
    },
}

impl std::fmt::Display for IsLabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsLabelError::Exploded { level, edges } => {
                write!(f, "edge augmentation exploded at level {level} ({edges} edges over budget)")
            }
        }
    }
}

impl std::error::Error for IsLabelError {}

/// A complete IS-Label index (full hierarchy, no residual graph).
pub struct IsLabel {
    index: LabelIndex,
    levels: u32,
    /// The vertices, top of the hierarchy first.
    order: Vec<VertexId>,
}

/// Per-vertex state recorded at removal time.
struct Removal {
    /// Out-neighbours `(u, w)` in the graph at removal (higher level).
    out: Vec<(VertexId, Dist)>,
    /// In-neighbours `(u, w)` in the graph at removal (higher level).
    inn: Vec<(VertexId, Dist)>,
    level: u32,
}

impl Removal {
    /// The neighbours at removal in direction `dir`.
    fn neighbours(&self, dir: Direction) -> &[(VertexId, Dist)] {
        match dir {
            Direction::Out => &self.out,
            Direction::In => &self.inn,
        }
    }
}

impl IsLabel {
    /// Build the complete hierarchy and labels.
    ///
    /// `edge_budget` bounds the intermediate graph size (in directed
    /// arcs); pass `usize::MAX` to never abort.
    pub fn build(g: &Graph, edge_budget: usize) -> Result<IsLabel, IsLabelError> {
        let n = g.num_vertices();
        // Residual graph as hash adjacency (augmentation needs random
        // insertion); undirected graphs store both arc directions.
        let mut fwd: Vec<FxHashMap<VertexId, Dist>> = vec![FxHashMap::default(); n];
        let mut bwd: Vec<FxHashMap<VertexId, Dist>> = vec![FxHashMap::default(); n];
        let mut arcs = 0usize;
        let add_arc = |fwd: &mut Vec<FxHashMap<VertexId, Dist>>,
                       bwd: &mut Vec<FxHashMap<VertexId, Dist>>,
                       arcs: &mut usize,
                       a: VertexId,
                       b: VertexId,
                       w: Dist| {
            debug_assert_ne!(a, b);
            if w == Dist::MAX {
                return; // overflowed shortcut can never improve anything
            }
            let slot = fwd[a as usize].entry(b).or_insert(Dist::MAX);
            if *slot == Dist::MAX {
                *arcs += 1;
            }
            if w < *slot {
                *slot = w;
                bwd[b as usize].insert(a, w);
            }
        };
        for u in g.vertices() {
            for (v, w) in g.edges(u, Direction::Out) {
                add_arc(&mut fwd, &mut bwd, &mut arcs, u, v, w);
            }
        }

        let mut alive: Vec<VertexId> = (0..n as VertexId).collect();
        let mut removals: Vec<Option<Removal>> = (0..n).map(|_| None).collect();
        let mut level = 0u32;

        while !alive.is_empty() {
            level += 1;
            // Greedy independent set, lowest current degree first.
            let mut order = alive.clone();
            order.sort_unstable_by_key(|&v| fwd[v as usize].len() + bwd[v as usize].len());
            let mut in_set = vec![false; n];
            let mut blocked = vec![false; n];
            let mut set = Vec::new();
            for &v in &order {
                if blocked[v as usize] {
                    continue;
                }
                in_set[v as usize] = true;
                set.push(v);
                for (&u, _) in fwd[v as usize].iter().chain(bwd[v as usize].iter()) {
                    blocked[u as usize] = true;
                }
            }
            // Remove the set: record neighbourhoods, add shortcuts.
            for &v in &set {
                let out: Vec<(VertexId, Dist)> =
                    fwd[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
                let inn: Vec<(VertexId, Dist)> =
                    bwd[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
                // Distance-preserving shortcuts between in- and
                // out-neighbours (none of which are in the set —
                // independence).
                for &(a, wa) in &inn {
                    for &(b, wb) in &out {
                        if a != b {
                            add_arc(&mut fwd, &mut bwd, &mut arcs, a, b, wa.saturating_add(wb));
                        }
                    }
                }
                // Detach v: arcs v→u live in fwd[v], arcs u→v in fwd[u].
                for &(u, _) in &out {
                    bwd[u as usize].remove(&v);
                }
                for &(u, _) in &inn {
                    if fwd[u as usize].remove(&v).is_some() {
                        arcs -= 1;
                    }
                }
                arcs -= fwd[v as usize].len();
                fwd[v as usize] = FxHashMap::default();
                bwd[v as usize] = FxHashMap::default();
                removals[v as usize] = Some(Removal { out, inn, level });
            }
            alive.retain(|&v| !in_set[v as usize]);
            if arcs > edge_budget {
                return Err(IsLabelError::Exploded { level, edges: arcs });
            }
        }

        // Top-down label assignment: higher levels first.
        let mut by_level: Vec<VertexId> = (0..n as VertexId).collect();
        by_level.sort_unstable_by_key(|&v| {
            std::cmp::Reverse(removals[v as usize].as_ref().expect("all removed").level)
        });
        // Each side's label of `v` inherits through the neighbours its
        // seeds come from: paths `v ⇝ pivot` via out-neighbours on
        // `Lout`, `pivot ⇝ v` via in-neighbours on `Lin`, either on `L`.
        let mut index = LabelIndex::new(n, g.is_directed());
        for &v in &by_level {
            let removal = removals[v as usize].as_ref().expect("all removed");
            for (labels, rule) in index.sides_mut().iter_mut().zip(side_table(g.is_directed())) {
                let mut acc: Vec<LabelEntry> = Vec::new();
                for &(u, w) in removal.neighbours(rule.step.reverse()) {
                    acc.push(LabelEntry::new(u, w));
                    for e in labels[u as usize].entries() {
                        acc.push(LabelEntry::new(e.pivot, e.dist.saturating_add(w)));
                    }
                }
                for e in acc {
                    labels[v as usize].insert_min(e);
                }
            }
        }
        Ok(IsLabel { index, levels: level, order: by_level })
    }

    /// The label index (original vertex ids — IS-Label needs no global
    /// rank relabeling; the hierarchy plays that role).
    pub fn index(&self) -> &LabelIndex {
        &self.index
    }

    /// Number of hierarchy levels extracted.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The index renumbered top of the hierarchy first, and each
    /// original id's new one. A label holds only vertices above its own
    /// in the hierarchy, so here every pivot lies below its vertex, as an
    /// index image requires.
    pub fn leveled(&self) -> (LabelIndex, Vec<VertexId>) {
        let mut new_id = vec![0; self.order.len()];
        for (i, &v) in self.order.iter().enumerate() {
            new_id[v as usize] = i as VertexId;
        }
        let renumber = |labels: &[VertexLabels]| -> Vec<VertexLabels> {
            let entries = |v: VertexId| labels[v as usize].entries().iter();
            let renumbered =
                |v| entries(v).map(|e| LabelEntry::new(new_id[e.pivot as usize], e.dist));
            self.order
                .iter()
                .map(|&v| VertexLabels::from_entries(renumbered(v).collect()))
                .collect()
        };
        let sides = self.index.sides().iter().map(|side| renumber(side)).collect();
        (LabelIndex::from_sides(sides), new_id)
    }
}

impl DistanceOracle for IsLabel {
    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.index.query(s, t)
    }

    fn name(&self) -> &'static str {
        "IS-Label"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfgraph::traversal::all_pairs;
    use sfgraph::GraphBuilder;

    /// FNV-1a over every side's labels, entry by entry.
    fn label_hash(index: &LabelIndex) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for label in index.sides().iter().flat_map(|side| side.iter()) {
            let bytes = label
                .entries()
                .iter()
                .flat_map(|e| e.pivot.to_le_bytes().into_iter().chain(e.dist.to_le_bytes()));
            for b in bytes.chain(u32::MAX.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn exact_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut pins = Vec::new();
        for _ in 0..15 {
            let n = rng.gen_range(3..25);
            let directed = rng.gen_bool(0.5);
            let weighted = rng.gen_bool(0.5);
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            if weighted {
                b = b.weighted();
            }
            for _ in 0..rng.gen_range(n..3 * n) {
                b.add_weighted_edge(
                    rng.gen_range(0..n) as VertexId,
                    rng.gen_range(0..n) as VertexId,
                    if weighted { rng.gen_range(1..9) } else { 1 },
                );
            }
            let g = b.build();
            let truth = all_pairs(&g);
            let isl = IsLabel::build(&g, usize::MAX).unwrap();
            pins.push((directed, isl.index().total_entries(), label_hash(isl.index())));
            // Renumbered, the index has an image, which answers the same.
            let (leveled, id) = isl.leveled();
            let flat = hoplabels::FlatIndex::from_index(&leveled);
            for s in 0..n as VertexId {
                for t in 0..n as VertexId {
                    let want = truth[s as usize][t as usize];
                    let what = format!("{s}->{t} (directed={directed} weighted={weighted})");
                    assert_eq!(isl.distance(s, t), want, "{what}");
                    assert_eq!(flat.query(id[s as usize], id[t as usize]), want, "{what}, leveled");
                }
            }
        }
        // `(directed, total_entries, label hash)` per graph: the labels
        // themselves, not only their answers.
        let recorded = [
            (false, 78, 12809812317806371869),
            (false, 128, 12990013338524206892),
            (false, 89, 10671792096619439002),
            (false, 99, 11414680928635224952),
            (false, 68, 7325464554123919645),
            (true, 29, 4715308279970182306),
            (false, 8, 4030729339319120900),
            (false, 85, 5294155753924830744),
            (false, 81, 8873541473720840183),
            (false, 5, 16456979710638901780),
            (true, 109, 5478391775173433625),
            (false, 5, 8201735569852089114),
            (false, 6, 3089650720019437866),
            (true, 66, 7296436719996364285),
            (true, 187, 13531424313951821985),
        ];
        assert_eq!(pins, recorded);
    }

    #[test]
    fn star_needs_two_levels() {
        // Leaves are one independent set, the hub the next.
        let g = graphgen::star(8);
        let isl = IsLabel::build(&g, usize::MAX).unwrap();
        assert_eq!(isl.levels(), 2);
        assert_eq!(isl.distance(1, 2), 2);
    }

    #[test]
    fn edge_budget_aborts_on_dense_core() {
        // A clique-ish graph forces heavy augmentation.
        let g = graphgen::complete(12);
        match IsLabel::build(&g, 30) {
            Err(IsLabelError::Exploded { edges, .. }) => assert!(edges > 30),
            Ok(_) => panic!("expected the edge budget to abort the build"),
        }
    }

    #[test]
    fn label_sizes_exceed_pll_on_scale_free_graphs() {
        // The paper's observation: IS-Label's covers are much larger
        // than pruned ones on hub-dominated graphs.
        let g = graphgen::glp(&graphgen::GlpParams::with_vertices(300, 9));
        let isl = IsLabel::build(&g, usize::MAX).unwrap();
        let pll = crate::pll::Pll::build(&g);
        assert!(
            isl.index().total_entries() > pll.index().total_entries(),
            "IS-Label {} !> PLL {}",
            isl.index().total_entries(),
            pll.index().total_entries()
        );
    }
}
