//! The end-to-end tests' one reference model. A [`Deployment`] stages a
//! graph the way `hopdb-cli build` does, in a directory removed when it
//! drops — a panicking test included. A [`Model`] holds the served graph
//! and the acknowledged history and answers every pair by
//! `sfgraph::traversal` BFS/Dijkstra, in the ids the wire speaks: the
//! truth Theorem 3 says every served answer equals, whichever path
//! (flat, overlay, compacted, recovered, replica, shard) serves it.
//!
//! The root package's server tests include it as `mod testkit;`,
//! `hopdb-server`'s and `hopdb-cli`'s through `#[path]`, so it uses only
//! crates all three depend on.

// Seven test binaries compile this module, and each uses only part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use extmem::device::TempStore;
use hopdb::{build_prelabeled, HopDbConfig};
use hopdb_server::proto::UNREACHABLE;
use hopdb_server::wal::Durability;
use hopdb_server::{serve, ServerConfig, ServerHandle};
use hoplabels::flat::FlatIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfgraph::builder::GraphBuilder;
use sfgraph::ranking::Ranking;
use sfgraph::traversal::all_pairs;
use sfgraph::{Dist, Graph, VertexId, INF_DIST};

/// A query pair, and an update edge `(u, v, w)`, in wire ids.
pub type Pair = (VertexId, VertexId);
pub type Edge = (VertexId, VertexId, Dist);

/// The ids the staged `.rank` makes the wire speak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ids {
    /// The graph's own ids: the real ranking's `.rank`, as `hopdb-cli
    /// build` writes it.
    Original,
    /// Rank ids: the identity `.rank`, for the tests whose golden bytes
    /// speak them.
    Rank,
}

/// One staged deployment: `graph.txt`, `graph.idx` and its `.rank`, and
/// room for a WAL directory, all in one temp directory of its own.
pub struct Deployment {
    store: TempStore,
    /// The served graph in wire ids; `graph.txt` holds it too.
    served: Graph,
}

impl Deployment {
    /// `g` staged as `hopdb-cli build` stages it: its image built behind
    /// the real ranking, and the `.rank` that `ids` asks for.
    pub fn new(g: &Graph, ids: Ids) -> Deployment {
        let (ranking, relabeled) = hopdb::rank(g, &HopDbConfig::default());
        let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default());
        let (ranking, served) = match ids {
            Ids::Original => (ranking, g.clone()),
            Ids::Rank => (Ranking::identity(g.num_vertices()), relabeled),
        };
        let dep = Deployment::edge_list(&served);
        let mut file = std::fs::File::create(dep.index_path()).expect("create image");
        index.write_hopidx(&mut file).expect("serialize");
        std::fs::write(sidecar(&dep.index_path(), "rank"), ranking.to_sidecar_bytes())
            .expect("write .rank");
        dep
    }

    /// `g`'s edge list alone, for a test that builds
    /// [`Deployment::index_path`] itself, through the real CLI.
    pub fn edge_list(g: &Graph) -> Deployment {
        let store = TempStore::new().expect("create deployment dir");
        let dep = Deployment { store, served: g.clone() };
        let file = std::fs::File::create(dep.graph_path()).expect("create edge list");
        sfgraph::io::write_edge_list(g, std::io::BufWriter::new(file)).expect("write edge list");
        dep
    }

    /// `name` inside the deployment's directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.store.dir().join(name)
    }

    pub fn graph_path(&self) -> PathBuf {
        self.path("graph.txt")
    }

    pub fn index_path(&self) -> PathBuf {
        self.path("graph.idx")
    }

    /// Where a durable config's log lives; nothing creates it up front.
    pub fn wal_dir(&self) -> PathBuf {
        self.path("wal")
    }

    /// The staged image, frozen in memory.
    pub fn flat(&self) -> FlatIndex {
        let image = std::fs::read(self.index_path()).expect("read image");
        FlatIndex::from_hopidx_bytes(&image).expect("flat index")
    }

    /// What this deployment serves before any update.
    pub fn model(&self) -> Model {
        Model::new(self.served.clone())
    }

    /// A daemon over the image on an ephemeral port.
    pub fn serve(&self, config: ServerConfig) -> ServerHandle {
        serve("127.0.0.1:0", &self.index_path(), config).expect("serve")
    }

    /// Compactions rebuild from `graph.txt`, and only on request.
    pub fn compacting(&self) -> ServerConfig {
        ServerConfig {
            source_graph: Some(self.graph_path()),
            compact_threshold: 0,
            ..ServerConfig::default()
        }
    }

    /// [`Deployment::compacting`] with a log in [`Deployment::wal_dir`].
    pub fn durable(&self, durability: Durability) -> ServerConfig {
        ServerConfig { wal_dir: Some(self.wal_dir()), durability, ..self.compacting() }
    }

    /// The image split `k` ways as `hopdb-cli shard` splits it: each
    /// `graph.idx.shard<i>` behind its `.shard` and a copy of the `.rank`.
    pub fn stage_shards(&self, k: usize) -> Vec<PathBuf> {
        let image = std::fs::read(self.index_path()).expect("read image");
        let shards = hoplabels::shard_image(&image, k).expect("shard");
        let rank = std::fs::read(sidecar(&self.index_path(), "rank")).expect("read .rank");
        let stage = |(image, spec): (Vec<u8>, hoplabels::ShardSpec)| {
            let path = sidecar(&self.index_path(), &format!("shard{}", spec.index));
            std::fs::write(&path, image).expect("stage shard");
            std::fs::write(sidecar(&path, "shard"), spec.encode()).expect("stage .shard");
            std::fs::write(sidecar(&path, "rank"), &rank).expect("stage .rank");
            path
        };
        shards.into_iter().map(stage).collect()
    }
}

/// `path` with `.ext` appended to its file name: where a sidecar sits.
pub fn sidecar(path: &Path, ext: &str) -> PathBuf {
    PathBuf::from(format!("{}.{ext}", path.display()))
}

/// The served graph plus every acknowledged update batch since the last
/// swap, answered by BFS (Dijkstra once a weight is in play).
#[derive(Clone)]
pub struct Model {
    served: Graph,
    acked: Vec<Edge>,
    /// `truth[s][t]` of the served graph and the acked edges.
    truth: Vec<Vec<Dist>>,
}

impl Model {
    /// The model of a daemon serving `served`, in wire ids.
    pub fn new(served: Graph) -> Model {
        let truth = all_pairs(&served);
        Model { served, acked: Vec::new(), truth }
    }

    /// An acknowledged update: its edges join the served graph.
    pub fn ack(&mut self, batch: &[Edge]) {
        self.acked.extend_from_slice(batch);
        let (g, n) = (&self.served, self.served.num_vertices());
        let builder = if g.is_directed() {
            GraphBuilder::new_directed(n)
        } else {
            GraphBuilder::new_undirected(n)
        };
        let mut b = builder.weighted();
        for (u, v, w) in g.edge_list().into_iter().chain(self.acked.iter().copied()) {
            b.add_weighted_edge(u, v, w);
        }
        self.truth = all_pairs(&b.build());
    }

    /// A swap: `to`'s image replaces the served one, and the overlay of
    /// edges acked before it is gone with the old generation.
    pub fn swap(&mut self, to: &Deployment) {
        *self = to.model();
    }

    /// The distance the wire answers for `s → t`.
    pub fn dist(&self, s: VertexId, t: VertexId) -> Dist {
        match self.truth[s as usize][t as usize] {
            INF_DIST => UNREACHABLE,
            d => d,
        }
    }

    /// [`Model::dist`] of each pair, in order.
    pub fn answers(&self, pairs: &[Pair]) -> Vec<Dist> {
        pairs.iter().map(|&(s, t)| self.dist(s, t)).collect()
    }

    /// A reachable pair `s ≠ t` at the largest distance, and that distance.
    pub fn farthest(&self) -> (VertexId, VertexId, Dist) {
        let reachable = grid(self.truth.len()).into_iter().filter(|&(s, t)| s != t);
        let far = reachable.map(|(s, t)| (s, t, self.dist(s, t))).filter(|p| p.2 != UNREACHABLE);
        far.max_by_key(|&(_, _, d)| d).expect("a reachable pair")
    }
}

/// One pair per vertex, `(i, (37 i + 11) mod n)`: visits every vertex.
pub fn spread(n: usize) -> Vec<Pair> {
    (0..n as VertexId).map(|i| (i, (i * 37 + 11) % n as VertexId)).collect()
}

/// Every `(s, t)` pair over `n` vertices.
pub fn grid(n: usize) -> Vec<Pair> {
    let n = n as VertexId;
    (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect()
}

/// Three pairs per vertex: itself, a near pair and a far pair.
pub fn triples(n: usize) -> Vec<Pair> {
    let n = n as VertexId;
    (0..n).flat_map(|i| [(i, i), (i, (i * 37 + 11) % n), ((i * 53 + 7) % n, i)]).collect()
}

/// A generator seeded from the clock, the seed printed so that a
/// failing run can be replayed by hand.
pub fn clock_rng() -> StdRng {
    let seed = std::time::UNIX_EPOCH.elapsed().map_or(1, |d| d.as_nanos() as u64);
    println!("seed: {seed:#x}");
    StdRng::seed_from_u64(seed)
}
