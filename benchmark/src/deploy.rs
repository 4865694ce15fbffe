//! One deployment, stage by stage: edge list on disk → rank → build →
//! `HOPIDX01` image → `FlatIndex` → daemon → reads, writes, compaction.
//!
//! Every stage is a call into a layer's public function wrapped in a
//! span, so the end-to-end run (tracer off) and the traced run execute
//! the same code. A *round* runs every stage once; the run repeats
//! rounds for as long as it measures, so the samples of each stage are
//! spread over the whole run and a noisy-neighbour period costs one
//! round of every metric instead of every round of one.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extmem::{ExtMemConfig, TempStore};
use hopdb::external::build_external;
use hopdb::{build_prelabeled, BuildStats, HopDbConfig};
use hopdb_server::{serve, Client, ServerConfig, ServerHandle};
use hoplabels::disk::DiskIndex;
use hoplabels::{FlatIndex, LabelIndex};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy, Ranking};
use sfgraph::traversal::sssp;
use sfgraph::{Direction, Dist, Graph, GraphBuilder, VertexId};

use crate::gen::{self, Edge, Pair, UpdateEdges};
use crate::host::{self, Scratch};
use crate::span::Tracer;
use crate::spec::{WorkloadSpec, EXT_BLOCK_BYTES, EXT_MEMORY_RECORDS};

/// Pairs in each in-process query pass (labels come from L2/L3, not
/// L1). One pass is one sample, 10–20 ms.
pub const QUERY_PAIRS: usize = 1 << 16;
/// Timed query passes per pair set and deployment round.
pub const QUERY_PASSES: usize = 8;
/// `FlatIndex::load` repetitions per deployment round.
pub const LOAD_ROUNDS: usize = 3;
/// Pairs per small wire frame: dominated by parse → queue wait → wake.
pub const SMALL_FRAME: usize = 16;
/// Pairs per large wire frame: reaches `coalesce_pairs`, so no flush wait.
pub const LARGE_FRAME: usize = 4096;
/// Wall time of one wire slice.
pub const WIRE_SLICE: Duration = Duration::from_millis(250);
/// Round trips dropped at the start of each slice (cold connection).
pub const WIRE_WARMUP: usize = 32;
/// Timed round trips a slice takes at least.
pub const WIRE_MIN_TRIPS: usize = 16;
/// Update frames per write cycle.
pub const UPDATE_FRAMES: usize = 32;
/// New edges per update frame.
pub const EDGES_PER_FRAME: usize = 4;
/// Query frames after each update frame.
pub const READS_PER_UPDATE: usize = 6;
/// Pairs per overlay-read frame.
pub const READ_FRAME: usize = 32;
/// BFS/Dijkstra oracle sources.
pub const ORACLE_SOURCES: usize = 50;
/// Oracle targets per source.
pub const ORACLE_TARGETS: usize = 256;
/// Every how-manieth oracle pair is checked exactly through the overlay.
pub const VERIFY_STRIDE: usize = 8;

/// Verified operations: every compared answer is one attempt; a wrong
/// answer, an error reply or a timeout is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Answers compared against an expectation.
    pub attempted: u64,
    /// Answers that differed.
    pub failed: u64,
}

impl Checks {
    /// Compare a batch of answers with what they must be.
    pub fn compare(&mut self, what: &str, got: &[Dist], want: &[Dist]) {
        self.attempted += want.len() as u64;
        let wrong = if got.len() == want.len() {
            got.iter().zip(want).filter(|(g, w)| g != w).count()
        } else {
            want.len()
        };
        if wrong > 0 {
            eprintln!("hopbench: CHECK FAILED: {what}: {wrong} of {} answers wrong", want.len());
            self.failed += wrong as u64;
        }
    }

    /// Record one yes/no check.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.expect_all(what, 1, ok);
    }

    /// Record a yes/no check that covers `answers` answers at once.
    pub fn expect_all(&mut self, what: &str, answers: usize, ok: bool) {
        self.attempted += answers as u64;
        if !ok {
            eprintln!("hopbench: CHECK FAILED: {what}");
            self.failed += 1;
        }
    }
}

/// Named sample vectors gathered over the rounds of a run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Append one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Append many samples.
    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name).or_default().extend(values);
    }

    /// All samples of `name` (empty if none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Move every sample of `other` into `self`.
    pub fn absorb(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }
}

/// Everything generated from the seed before any timing starts.
pub struct Inputs {
    /// The workload being run.
    pub spec: &'static WorkloadSpec,
    /// The graph in original ids.
    pub graph: Graph,
    /// The graph as an edge list on disk — where every deployment starts.
    pub graph_path: PathBuf,
    /// Size of that file.
    pub graph_bytes: u64,
    /// Uniform query pairs (original ids).
    pub uniform: Vec<Pair>,
    /// Hub-source query pairs (original ids).
    pub hub: Vec<Pair>,
    /// Oracle sources.
    pub sources: Vec<VertexId>,
    /// Oracle pairs, `ORACLE_TARGETS` consecutive pairs per source.
    pub pool: Vec<Pair>,
    /// `sssp` distances of `pool` on the unmodified graph.
    pub pool_truth: Vec<Dist>,
    /// Source of update edges, continued from round to round.
    pub updates: UpdateEdges,
}

/// The ranking rule of a deployment: the paper's default per graph kind,
/// and the one the daemon's compactor applies when it rebuilds.
pub fn rank_by(directed: bool) -> RankBy {
    if directed {
        RankBy::DegreeProduct
    } else {
        RankBy::Degree
    }
}

/// `sssp` distances from each source to its targets, in `pool` order.
pub fn oracle_truth(g: &Graph, sources: &[VertexId], pool: &[Pair]) -> Vec<Dist> {
    let mut truth = Vec::with_capacity(pool.len());
    for (s, chunk) in sources.iter().zip(pool.chunks(ORACLE_TARGETS)) {
        let dist = sssp(g, *s, Direction::Out);
        truth.extend(chunk.iter().map(|&(_, t)| dist[t as usize]));
    }
    truth
}

/// `g` plus `edges`, built the way the compactor merges its update log.
pub fn mutated_graph(g: &Graph, edges: &[Edge]) -> Graph {
    let n = g.num_vertices();
    let mut b = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for (u, v, w) in g.edge_list() {
        b.add_weighted_edge(u, v, w);
    }
    for &(u, v, w) in edges {
        b.add_weighted_edge(u, v, w);
    }
    b.build()
}

/// One write cycle's edges and what the oracle says once all are in.
pub struct WriteCycle {
    /// `UPDATE_FRAMES * EDGES_PER_FRAME` new edges, original ids.
    pub edges: Vec<Edge>,
    /// `sssp` distances of the oracle pool on the graph plus `edges`.
    pub after: Vec<Dist>,
    /// Every `VERIFY_STRIDE`-th oracle pair: through a 128-edge overlay a
    /// pair costs tens of µs, so exact checks there take this thinned
    /// pool and only a compacted daemon is asked for all of it.
    pub thin_pool: Vec<Pair>,
    /// `after`, thinned the same way.
    pub thin_after: Vec<Dist>,
}

impl Inputs {
    /// Draw the next write cycle from the update stream.
    pub fn next_cycle(&mut self) -> WriteCycle {
        let edges = self.updates.take(&self.graph, UPDATE_FRAMES * EDGES_PER_FRAME);
        let after = oracle_truth(&mutated_graph(&self.graph, &edges), &self.sources, &self.pool);
        WriteCycle {
            thin_pool: self.pool.iter().step_by(VERIFY_STRIDE).copied().collect(),
            thin_after: after.iter().step_by(VERIFY_STRIDE).copied().collect(),
            edges,
            after,
        }
    }

    /// Generate the workload's graph and, from `seed`, its traffic; write
    /// the edge list.
    pub fn generate(
        spec: &'static WorkloadSpec,
        seed: u64,
        scratch: &Scratch,
    ) -> std::io::Result<Inputs> {
        let graph = gen::graph(spec);
        let n = graph.num_vertices();
        let graph_path = scratch.path("graph.txt");
        let file = std::fs::File::create(&graph_path)?;
        sfgraph::io::write_edge_list(&graph, std::io::BufWriter::new(file))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let graph_bytes = std::fs::metadata(&graph_path)?.len();

        // Hubs: the top 0.1 % of the ranking (at least 8 vertices).
        let ranking = rank_vertices(&graph, &rank_by(spec.directed));
        let hubs: Vec<VertexId> =
            (0..(n / 1000).max(8) as VertexId).map(|r| ranking.vertex_at(r)).collect();

        let (sources, pool) = gen::oracle_pairs(n, ORACLE_SOURCES, ORACLE_TARGETS, seed);
        let pool_truth = oracle_truth(&graph, &sources, &pool);
        Ok(Inputs {
            spec,
            uniform: gen::uniform_pairs(n, QUERY_PAIRS, seed),
            hub: gen::hub_pairs(&hubs, n, QUERY_PAIRS, seed),
            sources,
            pool,
            pool_truth,
            updates: UpdateEdges::new(seed),
            graph,
            graph_path,
            graph_bytes,
        })
    }
}

/// What a build call returned, whichever engine ran it.
pub struct Built {
    /// The finished index.
    pub index: LabelIndex,
    /// Per-iteration statistics.
    pub stats: BuildStats,
    /// External-memory traffic `(read_bytes, write_bytes)`; zero for the
    /// in-memory engine.
    pub ext_io: (u64, u64),
    /// Sorted runs spilled (external engine only).
    pub sort_runs: u64,
    /// K-way merge passes (external engine only).
    pub merge_passes: u64,
}

/// Build the labels of a rank-relabeled graph with the workload's engine.
pub fn build_labels(
    spec: &WorkloadSpec,
    relabeled: &Graph,
    parallelism: usize,
) -> std::io::Result<Built> {
    let cfg = HopDbConfig::default().with_parallelism(parallelism);
    if spec.external {
        let ext = ExtMemConfig { memory_records: EXT_MEMORY_RECORDS, block_bytes: EXT_BLOCK_BYTES };
        let r = build_external(relabeled, &cfg, &ext)?;
        Ok(Built {
            index: r.index,
            stats: r.stats,
            ext_io: (r.io.0, r.io.1),
            sort_runs: r.sort_runs,
            merge_passes: r.merge_passes,
        })
    } else {
        let (index, stats) = build_prelabeled(relabeled, &cfg);
        Ok(Built { index, stats, ext_io: (0, 0), sort_runs: 0, merge_passes: 0 })
    }
}

/// Read the edge list the way `hopdb-cli build` does.
pub fn read_graph(path: &Path, directed: bool) -> std::io::Result<Graph> {
    let file = std::fs::File::open(path)?;
    sfgraph::io::read_edge_list(BufReader::new(file), directed, false)
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Serialize `index` to `<dir>/image-0.bin` with its `.rank` sidecar;
/// returns the image path and the image's size.
pub fn persist_image(
    index: &LabelIndex,
    ranking: &Ranking,
    dir: &Path,
) -> std::io::Result<(PathBuf, u64)> {
    let store = TempStore::in_dir(dir)?;
    let image = DiskIndex::create(index, &store, "image")?.persist();
    std::fs::write(sidecar_path(&image), ranking.to_sidecar_bytes())?;
    let bytes = std::fs::metadata(&image)?.len();
    Ok((image, bytes))
}

/// `<image>.rank`.
pub fn sidecar_path(image: &Path) -> PathBuf {
    let mut s = image.as_os_str().to_os_string();
    s.push(".rank");
    PathBuf::from(s)
}

/// A running daemon that is shut down (and its threads joined) when the
/// guard drops, whatever path leaves the scope.
pub struct Daemon {
    handle: Option<ServerHandle>,
}

impl Daemon {
    /// Boot a daemon on an ephemeral loopback port.
    pub fn boot(image: &Path, config: ServerConfig) -> std::io::Result<Daemon> {
        Ok(Daemon { handle: Some(serve("127.0.0.1:0", image, config)?) })
    }

    /// Where it listens.
    pub fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("daemon is running").local_addr()
    }

    /// Stop it and wait for its threads (what dropping the guard does).
    pub fn shutdown(self) {}
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// A thread that spins until the guard drops — the benchmark's
/// `idle=poll`. At depth 1 only one of client, reactor and executor is
/// runnable at a time; with the second vCPU idle the guest scheduler
/// hands each wake-up to it, and on a virtualised host waking a halted
/// vCPU goes through the hypervisor: 16-pair round trips read 316–411 µs
/// boot to boot in a quiet hour and 1–5 ms in a busy one, against
/// 190–250 µs either way with the second vCPU kept busy. The depth-1
/// wire stages time the daemon's path, not that, so they run with one
/// spinner (client + spinner = the two threads a stage may use); the
/// traced run reports the unspun round trip beside them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Start spinning.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        KeepAwake { stop, spinner: Some(spinner) }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}

/// The daemon configuration of a workload. Everything but the write
/// path's durability is `ServerConfig::default()`; durability is
/// `Batch` (group commit, the default) whenever a WAL directory is set.
pub fn server_config(graph_path: &Path, wal_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        source_graph: Some(graph_path.to_path_buf()),
        compact_threshold: 0,
        wal_dir,
        ..ServerConfig::default()
    }
}

/// Connect with a timeout on every later read and write, so a daemon
/// that goes silent fails the run instead of hanging it.
pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    Client::connect_timeout(&addr, Duration::from_secs(30))
}

/// Closed loop, one connection, one request in flight: send `frame`-pair
/// query frames cut from `pairs` for `slice` (and until at least
/// `WIRE_MIN_TRIPS` are timed, however slow the daemon is), checking
/// every answer against `expect`. Returns the round trips in µs (after
/// the warm-up ones) and the wall time they took.
pub fn wire_slice(
    client: &mut Client,
    pairs: &[Pair],
    expect: &[Dist],
    frame: usize,
    slice: Duration,
    checks: &mut Checks,
) -> std::io::Result<(Vec<f64>, f64)> {
    let session = client.session();
    let mut trips = Vec::new();
    let (mut sent, mut at) = (0usize, 0usize);
    let started = Instant::now();
    let mut timed_from = started;
    while started.elapsed() < slice || trips.len() < WIRE_MIN_TRIPS {
        if at + frame > pairs.len() {
            at = 0;
        }
        let t0 = Instant::now();
        let ticket = session.submit(&pairs[at..at + frame])?;
        let got = session.wait(ticket)?;
        let trip = t0.elapsed();
        checks.compare("wire answer vs in-process query_many", &got, &expect[at..at + frame]);
        at += frame;
        sent += 1;
        if sent == WIRE_WARMUP {
            timed_from = Instant::now();
        } else if sent > WIRE_WARMUP {
            trips.push(trip.as_secs_f64() * 1e6);
        }
    }
    Ok((trips, timed_from.elapsed().as_secs_f64()))
}

/// What one deployment round produced besides its samples.
pub struct RoundFacts {
    /// `HOPIDX01` image size.
    pub image_bytes: u64,
    /// What the build call returned.
    pub built: Built,
    /// The index loaded back from the image.
    pub flat: FlatIndex,
    /// The ranking of this deployment.
    pub ranking: Ranking,
    /// Mean |L(s)|+|L(t)| over the uniform pairs.
    pub scanned_uniform: f64,
    /// Mean |L(s)|+|L(t)| over the hub pairs.
    pub scanned_hub: f64,
}

/// Translate original-id pairs into rank space.
pub fn to_rank_space(ranking: &Ranking, pairs: &[Pair]) -> Vec<Pair> {
    pairs.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect()
}

fn mean_scanned(flat: &FlatIndex, ranked: &[Pair]) -> f64 {
    let total: usize =
        ranked.iter().map(|&(s, t)| flat.out_label_len(s) + flat.in_label_len(t)).sum();
    total as f64 / ranked.len() as f64
}

/// One timed pass of single-thread `FlatIndex::query` over `ranked`;
/// returns ns per query and checks the distance checksum against
/// `expect_sum`.
fn query_pass(flat: &FlatIndex, ranked: &[Pair], expect_sum: u64, checks: &mut Checks) -> f64 {
    let t0 = Instant::now();
    let mut sum = 0u64;
    for &(s, t) in ranked {
        sum = sum.wrapping_add(u64::from(flat.query(s, t)));
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / ranked.len() as f64;
    checks.expect_all(
        "timed FlatIndex::query checksum vs verified answers",
        ranked.len(),
        std::hint::black_box(sum) == expect_sum,
    );
    ns
}

fn checksum(dists: &[Dist]) -> u64 {
    dists.iter().fold(0u64, |acc, &d| acc.wrapping_add(u64::from(d)))
}

/// Run every stage of the deployment once, pushing its samples into
/// `out`. `flip_expectation` corrupts one oracle value on purpose (the
/// self-test behind `--inject-fault`): the run must then report a
/// failed operation.
pub fn round(
    inputs: &mut Inputs,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    out: &mut Samples,
    checks: &mut Checks,
    flip_expectation: bool,
) -> std::io::Result<RoundFacts> {
    let spec = inputs.spec;
    let secs = |t0: Instant| t0.elapsed().as_secs_f64();

    // ---- set-up stages: disk → graph → ranking → labels → image → index
    let t0 = Instant::now();
    let g =
        tracer.span("sfgraph.read_edge_list", |_| read_graph(&inputs.graph_path, spec.directed))?;
    out.push("read_s", secs(t0));

    let t0 = Instant::now();
    let (ranking, relabeled) = tracer.span("sfgraph.rank_relabel", |_| {
        let ranking = rank_vertices(&g, &rank_by(spec.directed));
        let relabeled = relabel_by_rank(&g, &ranking);
        (ranking, relabeled)
    });
    out.push("rank_s", secs(t0));
    drop(g);

    let cpu0 = host::thread_cpu_seconds();
    let t0 = Instant::now();
    let built = tracer.span("core.build", |_| build_labels(spec, &relabeled, 1))?;
    out.push("build_s", secs(t0));
    if let (Some(a), Some(b)) = (cpu0, host::thread_cpu_seconds()) {
        out.push("build_cpu_s", b - a);
    }
    drop(relabeled);

    let image_dir = scratch.fresh_dir("image")?;
    let t0 = Instant::now();
    let (image, image_bytes) = tracer
        .span("hoplabels.serialize", |_| persist_image(&built.index, &ranking, &image_dir))?;
    out.push("persist_s", secs(t0));

    let mut flat = None;
    for _ in 0..LOAD_ROUNDS {
        let t0 = Instant::now();
        flat = Some(tracer.span("hoplabels.flat_load", |_| FlatIndex::load(&image))?);
        out.push("load_s", secs(t0));
    }
    let flat = flat.expect("LOAD_ROUNDS >= 1");

    // ---- the index against the BFS/Dijkstra oracle, through the ranking
    let ranked_pool = to_rank_space(&ranking, &inputs.pool);
    let mut truth = inputs.pool_truth.clone();
    if flip_expectation {
        truth[0] = truth[0].wrapping_add(1);
    }
    checks.compare(
        "FlatIndex vs sssp on the original graph",
        &flat.query_many(&ranked_pool, 1),
        &truth,
    );

    // ---- in-process queries, uniform and hub passes interleaved
    let ranked_uniform = to_rank_space(&ranking, &inputs.uniform);
    let ranked_hub = to_rank_space(&ranking, &inputs.hub);
    let expect_uniform = flat.query_many(&ranked_uniform, 1);
    let expect_hub = flat.query_many(&ranked_hub, 1);
    let (sum_uniform, sum_hub) = (checksum(&expect_uniform), checksum(&expect_hub));
    for _ in 0..QUERY_PASSES {
        out.push("query_uniform_ns", query_pass(&flat, &ranked_uniform, sum_uniform, checks));
        out.push("query_hub_ns", query_pass(&flat, &ranked_hub, sum_hub, checks));
    }

    // ---- the daemon: every write cycle gets a daemon of its own, booted
    // from the image on a fresh WAL directory, so a cycle always starts
    // from the unmodified graph and no boot recovers another's log
    for cycle in 0..spec.write_cycles {
        let wal_dir = if spec.wal { Some(scratch.fresh_dir("wal")?) } else { None };
        let config = server_config(&inputs.graph_path, wal_dir.clone());
        let t0 = Instant::now();
        let (daemon, mut client) = tracer.span("server.boot", |_| -> std::io::Result<_> {
            let daemon = Daemon::boot(&image, config.clone())?;
            let mut client = connect(daemon.addr())?;
            let first = client.query(&inputs.uniform[..SMALL_FRAME])?;
            checks.compare("first wire answer", &first, &expect_uniform[..SMALL_FRAME]);
            Ok((daemon, client))
        })?;
        out.push("boot_s", secs(t0));

        // ---- reads: depth 1, one connection, overlay empty, no
        // pipelined traffic has ever reached this daemon
        let awake = KeepAwake::start();
        if cycle == 0 {
            let (trips, _) = tracer.span("server.wire_small_slice", |_| {
                wire_slice(
                    &mut client,
                    &inputs.uniform,
                    &expect_uniform,
                    SMALL_FRAME,
                    WIRE_SLICE,
                    checks,
                )
            })?;
            out.push("wire_small_p50_us", crate::stats::median(&trips));
            out.extend("wire_small_us", trips);
            let (trips, wall) = tracer.span("server.wire_large_slice", |_| {
                wire_slice(
                    &mut client,
                    &inputs.uniform,
                    &expect_uniform,
                    LARGE_FRAME,
                    WIRE_SLICE,
                    checks,
                )
            })?;
            out.push("wire_large_pairs_per_s", (trips.len() * LARGE_FRAME) as f64 / wall);
        }

        // ---- writes: one cycle walks the overlay from 4 edges to 128
        let WriteCycle { edges, after, thin_pool, thin_after } = inputs.next_cycle();
        let (mut cycle_ms, mut read_ms) = (0.0f64, 0.0f64);
        let mut at = 0usize;
        for frame in edges.chunks(EDGES_PER_FRAME) {
            let t0 = Instant::now();
            let (_, overlay_edges) = tracer.span("server.update", |_| client.update(frame))?;
            let ack = t0.elapsed().as_secs_f64();
            cycle_ms += ack * 1e3;
            out.push("update_ack_us", ack * 1e6);
            checks.expect("update ack reports a growing overlay", overlay_edges > 0);
            for _ in 0..READS_PER_UPDATE {
                if at + READ_FRAME > inputs.pool.len() {
                    at = 0;
                }
                let t0 = Instant::now();
                let got = client.query(&inputs.pool[at..at + READ_FRAME])?;
                read_ms += t0.elapsed().as_secs_f64() * 1e3;
                // Insertions only shorten paths: every answer lies between
                // the final graph's distance and the original graph's.
                let (lo, hi) =
                    (&after[at..at + READ_FRAME], &inputs.pool_truth[at..at + READ_FRAME]);
                let inside = got.len() == READ_FRAME
                    && got.iter().zip(lo).zip(hi).all(|((g, lo), hi)| lo <= g && g <= hi);
                checks.expect_all(
                    "overlay answer between mutated-graph and original-graph distance",
                    READ_FRAME,
                    inside,
                );
                at += READ_FRAME;
            }
        }
        drop(awake);
        out.push("update_cycle_ms", cycle_ms);
        out.push("overlay_read_ms", read_ms);
        checks.compare(
            "overlay answers after the cycle's last update vs sssp",
            &client.query(&thin_pool)?,
            &thin_after,
        );

        // ---- restart on the same directories: the log must bring every
        // acked edge back
        let (daemon, mut client) = if spec.wal {
            drop(client);
            daemon.shutdown();
            let daemon =
                tracer.span("server.recovery", |_| Daemon::boot(&image, config.clone()))?;
            let mut client = connect(daemon.addr())?;
            checks.compare(
                "answers after restart vs sssp on the mutated graph",
                &client.query(&thin_pool)?,
                &thin_after,
            );
            (daemon, client)
        } else {
            (daemon, client)
        };

        // ---- compaction: fold the overlay into a rebuilt frozen generation
        let t0 = Instant::now();
        tracer.span("server.compact", |_| client.compact())?;
        out.push("compact_s", secs(t0));
        checks.compare(
            "answers after compaction vs sssp on the mutated graph",
            &client.query(&inputs.pool)?,
            &after,
        );
        checks.expect("compaction drained the overlay", client.info()?.overlay_edges == 0);

        drop(client);
        daemon.shutdown();
        if let Some(dir) = wal_dir {
            std::fs::remove_dir_all(dir)?;
        }
    }
    std::fs::remove_dir_all(&image_dir)?;

    Ok(RoundFacts {
        image_bytes,
        built,
        scanned_uniform: mean_scanned(&flat, &ranked_uniform),
        scanned_hub: mean_scanned(&flat, &ranked_hub),
        flat,
        ranking,
    })
}
