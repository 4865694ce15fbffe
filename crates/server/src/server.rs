//! The index node: boot and recovery, and the stage behind the shared
//! front (`crate::front`) — the query executor, live updates, hot index
//! swap, and background compaction.
//!
//! Architecture (all `std`, no async runtime):
//!
//! ```text
//! front thread (crate::front)          executor thread
//!   cut frames off every socket ────►    Batcher::next_batch: all queued
//!   answer info inline                   coalesce pairs across conns
//!   flush responses          ◄────────   ONE Generation clone per run
//!          ▲   (Completions + wake)      query_many → encode responses
//!          │                             updates and swaps run here;
//!   compactor thread         ◄────────   a compact job is handed on
//!     rebuild + checkpoint, off both               │
//!     hot paths                                    ▼
//!                                      Published (one Arc<Generation>)
//! ```
//!
//! The node stops the way every endpoint does, from the front: the
//! front drains and stops the batcher, the executor drains it and then
//! stops the compactor.
//!
//! Each query batch clones the current [`Generation`] `Arc` once and
//! answers every pair from it via `FlatIndex::query_many`, so a
//! concurrent swap never mixes two indexes inside one response and
//! never drops a connection: the new generation is loaded *outside* the
//! write lock and promoted with a single pointer swap.
//!
//! Everything a mutation reads or writes is one `Lineage` behind one
//! mutex; its three mutations (`append`, `fold`, `reset`) end in the
//! same `commit`. The lock order is `lineage → current`, and the
//! `Published` type behind `current` keeps it so (see the `backend`
//! module docs).

use std::io::{BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use crate::backend::{poisoned, sibling, Generation, Published};
use crate::batch::{run_batch, BatchWork, QueryJob, Stage};
use crate::front::{self, FrontConfig, FrontHandle, ServerHandle, Service, Traffic};
use crate::proto::{InfoReply, Reply, ResponseBody, DURABILITY_DISABLED, ROUTE_SINGLE};
use crate::wal::{self, Durability, Manifest, Wal, WalEdge};
use extmem::stats::IoStats;
use hoplabels::flat::FlatIndex;
use sfgraph::ranking::Ranking;

/// Tunables for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Threads `query_many` may fan one batch across (0 = all cores).
    /// Leave at 1 when many concurrent connections already saturate the
    /// cores; raise it for few-connection, huge-batch workloads.
    pub batch_threads: usize,
    /// What the serving loop enforces on its peers.
    pub front: FrontConfig,
    /// File promoted by a swap request. `None` = re-load the boot path
    /// (in-place rebuild promotion).
    pub swap_path: Option<PathBuf>,
    /// Source edge list of the boot index, in original vertex ids.
    /// Required for compaction: the compactor re-reads it, adds every
    /// edge accepted since, and rebuilds a frozen index from scratch.
    /// `None` disables compaction (updates still work, the overlay
    /// just grows until a swap).
    pub source_graph: Option<PathBuf>,
    /// Deduplicated overlay edges that trigger a background compaction
    /// (0 = only explicit `compact` requests). Overlay query cost grows
    /// linearly — and snapshot rebuild cost cubically — with the
    /// affected-vertex count, so the default keeps update batches in
    /// the low-millisecond range.
    pub compact_threshold: usize,
    /// Durability directory: every accepted update batch is logged to a
    /// write-ahead log here before it is acknowledged, checkpoints land
    /// here, and startup replays whatever a previous process left
    /// behind. `None` = updates live only in memory (pre-durability
    /// behavior).
    pub wal_dir: Option<PathBuf>,
    /// When the WAL fsyncs relative to the ack (ignored without
    /// `wal_dir`). The default, `batch`, trades a loss window on *power
    /// failure* (a mere process crash loses nothing) for group-commit
    /// throughput: an acked batch is on stable storage within
    /// [`wal::BATCH_SYNC_INTERVAL`] (2 ms) of the sync before it,
    /// whether or not another update follows — the executor syncs an
    /// idle log's tail itself. `always` closes the window per batch.
    pub durability: Durability,
    /// WAL size (bytes) that triggers a background compaction even when
    /// the overlay is under `compact_threshold` — the checkpoint is the
    /// WAL's truncation point, so without this knob a long ingest run
    /// of small, non-improving batches grows the log (and the next
    /// boot's replay) without bound. Requires `source_graph`, like any
    /// compaction. `None` = only the overlay threshold compacts.
    pub wal_max_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            batch_threads: 1,
            front: FrontConfig::default(),
            swap_path: None,
            source_graph: None,
            compact_threshold: 256,
            wal_dir: None,
            durability: Durability::Batch,
            wal_max_bytes: None,
        }
    }
}

/// The durable half of a [`Lineage`]: the live log, its fsync policy,
/// and the directory it and the checkpoint artifacts live in.
struct Durable {
    dir: PathBuf,
    wal: Wal,
    durability: Durability,
}

/// The index node's write side: every edge the lineage has accepted
/// since `--graph` was read, how many of them the frozen image already
/// holds, the live WAL, and the two epochs — all behind the one
/// `lineage` mutex, which a mutation holds from its first read to its
/// commit.
#[derive(Default)]
struct Lineage {
    /// Accepted edges (original ids). `edges[..folded]`, deduplicated
    /// to the least weight per pair, are in the frozen image and, with a
    /// WAL, in the `.edges` file beside it; `edges[folded..]`, in ack
    /// order, are what the overlay covers, what the live log holds and
    /// what a restart replays. A compaction rebuilds from `--graph` plus a
    /// prefix of *all* of them; a swap discards them with the image.
    edges: Vec<WalEdge>,
    folded: usize,
    /// `None` when the server runs without a WAL: the same vector then
    /// simply stays in memory.
    durable: Option<Durable>,
    /// Bumped by every swap so an in-flight compaction can detect that
    /// its build no longer describes the serving index and abort.
    swap_epoch: u64,
    /// Generation number of the newest frozen image.
    generation_seq: u64,
}

/// What a compaction pins before its lock-free build.
struct Pin {
    /// The first `len` accepted edges — all there were at pin time,
    /// folded and pending alike — which the compactor, off the lock,
    /// cuts to one per `(s, t)` at its least weight. That is all a
    /// build keeps of them, and it bounds what an image folds by the
    /// distinct pairs however long the lineage ingests.
    edges: Vec<WalEdge>,
    len: usize,
    swap_epoch: u64,
    /// Where the checkpoint image is staged and the epoch that will own
    /// it (only a swap can take that epoch first, and a swap aborts the
    /// compaction). `None` without a WAL.
    stage: Option<(PathBuf, u64)>,
}

impl Lineage {
    /// Boot: without `wal_dir` an empty lineage on `index_path`. With
    /// it, open (or create) the durability directory and bring the
    /// lineage to a clean, appendable state — read `CURRENT`, read the
    /// checkpoint's folded edges completely or refuse, walk the epoch's
    /// log tolerating a torn tail, validate its header epoch, truncate
    /// the tear, and garbage-collect files from dead epochs (failed
    /// checkpoint or swap attempts). Returns the lineage, the image to
    /// boot from and `[replayed WAL records, dropped WAL bytes]`.
    fn open(
        index_path: &Path,
        config: &ServerConfig,
    ) -> std::io::Result<(Lineage, PathBuf, [u64; 2])> {
        let mut lineage = Lineage { generation_seq: 1, ..Lineage::default() };
        let Some(dir) = config.wal_dir.as_deref() else {
            return Ok((lineage, index_path.to_path_buf(), [0, 0]));
        };
        std::fs::create_dir_all(dir)?;
        let (epoch, boot_path) = match wal::read_manifest(dir)? {
            Some(m) => {
                if !m.index_path.exists() {
                    return Err(std::io::Error::other(format!(
                        "{}/CURRENT points at missing checkpoint image {}",
                        dir.display(),
                        m.index_path.display()
                    )));
                }
                lineage.edges = wal::read_folded(&m.index_path, m.epoch)?;
                lineage.folded = lineage.edges.len();
                (m.epoch, m.index_path)
            }
            None => (0, index_path.to_path_buf()),
        };
        let wal_path = dir.join(wal::wal_file_name(epoch));
        let durability = config.durability;
        let replay = wal::read_wal(&wal_path, IoStats::shared())?;
        let wal = match replay.epoch {
            // Missing log (first boot, or a crash immediately after the
            // manifest flip deleted nothing yet) or an unreadable header:
            // start the epoch's log fresh. Header-less garbage counts as
            // dropped bytes so operators can see it happened.
            None => Wal::create(&wal_path, epoch, durability, IoStats::shared())?,
            Some(e) if e != epoch => {
                return Err(std::io::Error::other(format!(
                    "{} carries epoch {e} but CURRENT says {epoch} — \
                     the durability directory mixes files from different lineages",
                    wal_path.display()
                )));
            }
            Some(_) => Wal::open_after_replay(&wal_path, &replay, durability, IoStats::shared())?,
        };
        wal::gc_dir(dir, epoch);
        let recovered = [replay.batches.len() as u64, replay.dropped_bytes];
        // Flatten by draining: `concat` would briefly hold the batch
        // list AND the flat copy, doubling peak replay memory.
        for mut batch in replay.batches {
            lineage.edges.append(&mut batch);
        }
        lineage.durable = Some(Durable { dir: dir.to_path_buf(), wal, durability });
        Ok((lineage, boot_path, recovered))
    }

    /// The one commit every mutation ends in: mirror the log's counters
    /// for `info`, then publish `next` with a single pointer store.
    fn commit(&self, shared: &Shared, next: Generation) -> Result<Arc<Generation>, String> {
        self.mirror(shared);
        let next = Arc::new(next);
        shared.current.store(Arc::clone(&next))?;
        Ok(next)
    }

    fn mirror(&self, shared: &Shared) {
        if let Some(d) = &self.durable {
            shared.wal_epoch.store(d.wal.epoch(), Ordering::Relaxed);
            shared.wal_records.store(d.wal.records(), Ordering::Relaxed);
            shared.wal_bytes.store(d.wal.bytes(), Ordering::Relaxed);
        }
    }

    /// An update batch: validate, rebuild the overlay over every
    /// unfolded edge plus `batch`, log it, publish a copy-on-write
    /// successor generation. Queries pinned to the old `Arc` finish on
    /// it; nothing is committed if validation, the rebuild or the
    /// append fails.
    fn append(&mut self, shared: &Shared, batch: &[WalEdge]) -> Result<Arc<Generation>, String> {
        validate_update_edges(batch)?;
        let current = shared.current.load()?;
        whole_image(&current)?;
        let accepted = self.edges.len();
        self.edges.extend_from_slice(batch);
        let next = current.with_updates(&self.edges[self.folded..]).and_then(|next| {
            // Make the batch durable *before* it becomes observable:
            // only validated batches reach the WAL, and nothing is
            // published (or acknowledged) unless the append succeeds.
            // Under `always` the record is on stable storage when
            // `append` returns.
            if let Some(d) = &mut self.durable {
                d.wal.append(batch).map_err(|e| format!("wal append: {e}"))?;
            }
            Ok(next)
        });
        if next.is_err() {
            self.edges.truncate(accepted);
        }
        self.commit(shared, next?)
    }

    /// Promote a finished compaction: `flat` was built from `--graph`
    /// plus `pin.edges`. Updates that arrived *during* the build stay
    /// unfolded — the fresh generation's overlay covers them and the
    /// next epoch's log opens with them — so no accepted edge is ever
    /// lost. If a swap promoted a different image mid-build, the stale
    /// result is thrown away.
    fn fold(
        &mut self,
        shared: &Shared,
        pin: Pin,
        flat: FlatIndex,
        ranking: Ranking,
    ) -> Result<Arc<Generation>, String> {
        if self.swap_epoch != pin.swap_epoch {
            return Err("aborted: a swap was promoted during compaction".to_string());
        }
        self.generation_seq += 1;
        let fresh = Generation::from_flat(flat, Some(ranking), self.generation_seq)
            .with_updates(&self.edges[pin.len..])?;
        // Commit the checkpoint to the durable lineage *before*
        // publishing the in-memory state.
        if let Some((image, _)) = pin.stage {
            self.advance(image, pin.len).map_err(|e| format!("checkpoint commit: {e}"))?;
            shared.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        self.folded = pin.edges.len();
        self.edges.splice(..pin.len, pin.edges);
        shared.compactions.fetch_add(1, Ordering::Relaxed);
        self.commit(shared, fresh)
    }

    /// A swap: load the swap path (fallback: the boot path) as a fresh
    /// generation and promote it. It replaces the served graph
    /// *wholesale*: the accepted edges describe the previous image and
    /// are discarded with it (`compact` is the lossless promotion), and
    /// the durable lineage advances the same way — "boot from the
    /// swapped image, nothing to replay". The load happens outside the
    /// `current` write lock, so queries keep flowing on the old index
    /// for the whole load.
    fn reset(&mut self, shared: &Shared) -> std::io::Result<Arc<Generation>> {
        let path = shared.config.swap_path.as_deref().unwrap_or(&shared.index_path);
        self.generation_seq += 1;
        let fresh = Generation::load(path, self.generation_seq)?;
        self.advance(path.to_path_buf(), self.edges.len())?;
        self.edges.clear();
        self.folded = 0;
        self.swap_epoch += 1;
        self.commit(shared, fresh).map_err(std::io::Error::other)
    }

    /// Advance the durable lineage one epoch (a no-op without a WAL):
    /// the next boot loads `image` and replays `edges[tail..]`. The
    /// write order is the commit protocol `wal.rs` documents — the next
    /// epoch's log is created, seeded with the tail and synced; the
    /// manifest flips (the single commit point); only then does the old
    /// log go. A crash before the flip recovers the old image plus the
    /// full old log, after it `image` plus the tail; replay is
    /// idempotent, so straddling updates are safe.
    fn advance(&mut self, image: PathBuf, tail: usize) -> std::io::Result<()> {
        let Some(d) = &mut self.durable else { return Ok(()) };
        let epoch = d.wal.epoch() + 1;
        let path = d.dir.join(wal::wal_file_name(epoch));
        let mut next = Wal::create(&path, epoch, d.durability, IoStats::shared())?;
        if tail < self.edges.len() {
            next.append(&self.edges[tail..])?;
            next.sync()?;
        }
        let manifest = Manifest { epoch, index_path: image };
        wal::write_manifest(&d.dir, &manifest, IoStats::shared())?;
        let old = std::mem::replace(&mut d.wal, next);
        let _ = std::fs::remove_file(old.path());
        wal::gc_dir(&d.dir, epoch);
        Ok(())
    }

    fn pin(&self) -> Pin {
        let stage = self.durable.as_ref().map(|d| {
            let epoch = d.wal.epoch() + 1;
            (d.dir.join(wal::checkpoint_image_name(epoch)), epoch)
        });
        Pin { edges: self.edges.clone(), len: self.edges.len(), swap_epoch: self.swap_epoch, stage }
    }
}

/// State shared by the front, the executor and the compactor.
struct Shared {
    /// The published generation: the only lock the query path takes.
    current: Published,
    /// The write side. Held for the whole of every mutation — update
    /// batch, swap, compaction promote — and never by a query.
    lineage: Mutex<Lineage>,
    config: ServerConfig,
    index_path: PathBuf,
    /// The serving loop's job queue, completion pile, and stop switch.
    front: FrontHandle,
    /// Channel into the compactor thread (`None` once the executor has
    /// stopped it).
    compact_tx: Mutex<Option<mpsc::Sender<CompactMsg>>>,
    compactions: AtomicU64,
    /// Mirrors of the live log's epoch/size, stored by
    /// [`Lineage::mirror`] at every commit, so `info`/`/stats` and the
    /// compaction trigger never wait on a mutation.
    wal_epoch: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    /// Boot-recovery outcome: `[replayed WAL records, dropped bytes]`.
    recovered: [u64; 2],
    checkpoints: AtomicU64,
    aborted_compactions: AtomicU64,
}

impl Shared {
    /// Whether a background compaction is due: the overlay reached
    /// `compact_threshold`, or the log `wal_max_bytes` — a checkpoint
    /// truncates the WAL, so an oversized log compacts even with a
    /// small overlay.
    fn over_threshold(&self) -> bool {
        let threshold = self.config.compact_threshold;
        let overlay_over =
            threshold > 0 && self.current.load().is_ok_and(|g| g.overlay_edges() >= threshold);
        let wal_over = self
            .config
            .wal_max_bytes
            .is_some_and(|cap| self.wal_bytes.load(Ordering::Relaxed) >= cap);
        overlay_over || wal_over
    }

    /// Queue `msg` for the compactor; `false` once the executor has
    /// stopped it.
    fn poke(&self, msg: CompactMsg) -> bool {
        self.compact_tx.lock().is_ok_and(|tx| tx.as_ref().is_some_and(|tx| tx.send(msg).is_ok()))
    }
}

/// Bind `addr`, load the index at `index_path`, and start serving.
///
/// Returns as soon as the listener is bound and the index is loaded;
/// accepting and answering happens on background threads owned by the
/// returned handle. Fails with `ErrorKind::Unsupported` on targets
/// without a readiness API (anything but unix).
pub fn serve(
    addr: impl ToSocketAddrs,
    index_path: &Path,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let front = FrontHandle::new()?;
    let listener = TcpListener::bind(addr)?;
    let (lineage, boot_path, recovered) = Lineage::open(index_path, &config)?;
    // Replay the unfolded edges into the overlay: the recovered daemon
    // answers exactly like the crashed one did after its last ack.
    let boot = Generation::load(&boot_path, 1)?
        .with_updates(&lineage.edges[lineage.folded..])
        .map_err(std::io::Error::other)?;
    let (compact_tx, compact_rx) = mpsc::channel::<CompactMsg>();
    let limits = config.front;
    let shared = Arc::new(Shared {
        current: Published::new(boot),
        lineage: Mutex::new(lineage),
        config,
        index_path: index_path.to_path_buf(),
        front: front.clone(),
        compact_tx: Mutex::new(Some(compact_tx)),
        compactions: AtomicU64::new(0),
        wal_epoch: AtomicU64::new(0),
        wal_records: AtomicU64::new(0),
        wal_bytes: AtomicU64::new(0),
        recovered,
        checkpoints: AtomicU64::new(0),
        aborted_compactions: AtomicU64::new(0),
    });
    shared.lineage.lock().map_err(|e| std::io::Error::other(poisoned(e)))?.mirror(&shared);
    front::spawn(listener, Arc::clone(&shared), front, limits, || {
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(&shared))
        };
        let compactor = std::thread::spawn(move || compactor_loop(&shared, &compact_rx));
        vec![executor, compactor]
    })
}

/// Work order for the background compactor thread.
enum CompactMsg {
    /// The overlay crossed the configured threshold at the time of an
    /// update; compact if it is *still* over (queued pokes dedupe).
    Threshold,
    /// A `compact` job, handed on by the executor: always compacts; the
    /// result goes straight into the front's completion pile, so neither
    /// the front nor the executor ever blocks on a rebuild.
    Admin {
        /// Connection token.
        conn: u64,
        /// How to answer.
        reply: Reply,
    },
    /// The executor has drained and exited.
    Stop,
}

/// The compactor thread: runs at most one compaction at a time, fed by
/// update-threshold pokes and explicit admin requests.
fn compactor_loop(shared: &Shared, rx: &mpsc::Receiver<CompactMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            CompactMsg::Stop => return,
            CompactMsg::Threshold => {
                if shared.over_threshold() {
                    if let Err(e) = do_compact(shared) {
                        eprintln!("hopdb-server: background compaction failed: {e}");
                        // Back off before the retry below so a
                        // persistent build error can't spin the core.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    // Re-arm: an aborted attempt (superseding swap,
                    // build error) — or updates that landed mid-build —
                    // can leave the overlay still over the threshold
                    // with no future update due to poke us. Poke
                    // ourselves instead of idling until the next write.
                    if shared.over_threshold() && !shared.front.stopping() {
                        shared.poke(CompactMsg::Threshold);
                    }
                }
            }
            CompactMsg::Admin { conn, reply } => {
                let body = match do_compact(shared) {
                    Ok((generation, vertices)) => ResponseBody::Compacted { generation, vertices },
                    Err(e) => ResponseBody::Error(format!("compact failed: {e}")),
                };
                shared.front.completions.answer(conn, reply, &body);
            }
        }
    }
}

/// Validate an update batch against the weight invariant
/// `sfgraph::io::read_edge_list` enforces on edge-list files: weights
/// are strictly positive (shortest-path distances are ≥ 1). Weights
/// above `Dist::MAX` are unrepresentable in the wire encoding (`u32`),
/// matching the parser's overflow cap, so only zero can slip through —
/// and used to: the overlay silently clamped it to 1 and a later
/// compaction replayed it into `GraphBuilder`, which rejects it.
/// Rejecting here nacks the batch recoverably before any mutation, on
/// both the HOPQ and HTTP fronts and at the replica router.
pub(crate) fn validate_update_edges(edges: &[WalEdge]) -> Result<(), String> {
    match edges.iter().find(|&&(_, _, w)| w == 0) {
        Some(&(s, t, _)) => Err(format!(
            "edge ({s}, {t}): edge weight 0 (weights must be ≥ 1: \
             shortest-path distances are strictly positive)"
        )),
        None => Ok(()),
    }
}

/// Refuse to mutate one shard of a split image: an edge on one shard
/// breaks the min-merge identity (its overlay would join the shard's
/// upper bounds), and a rebuild would serve the whole graph as shard k.
/// A 1-of-1 shard is the whole image.
fn whole_image(generation: &Generation) -> Result<(), String> {
    match generation.shard().filter(|spec| spec.count > 1) {
        Some(spec) => Err(format!(
            "this node serves shard {} of {}, which takes no updates or compactions: \
             rebuild and re-shard the image",
            spec.index, spec.count
        )),
        None => Ok(()),
    }
}

/// Rebuild the frozen index from the configured source graph plus every
/// edge the lineage has accepted up to the pin — the ones earlier
/// compactions folded in and the pending ones alike — and promote it as
/// a new generation.
///
/// The expensive build runs without holding any lock, so queries and
/// further updates keep flowing; only the pin and the final
/// [`Lineage::fold`] take the lineage lock.
///
/// Id-space note: the rebuilt index serves the source file's vertex
/// ids. That matches the running server when the boot index was built
/// by `hopdb-cli build` from the same file (the `.rank` sidecar maps
/// original ids), which is the supported deployment for `--graph`.
fn do_compact(shared: &Shared) -> Result<(u64, u64), String> {
    do_compact_inner(shared).inspect_err(|_| {
        shared.aborted_compactions.fetch_add(1, Ordering::Relaxed);
    })
}

fn do_compact_inner(shared: &Shared) -> Result<(u64, u64), String> {
    let Some(path) = shared.config.source_graph.as_deref() else {
        return Err("compaction requires the server to be started with --graph".to_string());
    };
    let mut pin = shared.lineage.lock().map_err(poisoned)?.pin();
    pin.edges.sort_unstable();
    pin.edges.dedup_by_key(|&mut (s, t, _)| (s, t));
    let serving = shared.current.load()?;
    whole_image(&serving)?;
    let (directed, serving_n) = (serving.is_directed(), serving.vertices());

    // Build, lock-free. Same pipeline as `hopdb-cli build`: clean the
    // merged edge set, rank, relabel, label — bit-identical output at
    // any parallelism, so a compaction never changes an answer.
    //
    // Whether `hopdb-cli build` read a third column as weights is a fact
    // the frozen index records, not something the file can say (a SNAP
    // temporal list carries a timestamp there): an unweighted build
    // leaves every source edge's endpoints at distance ≤ 1 (folded
    // update edges only ever shorten).
    let read = |weighted: bool| {
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        sfgraph::io::read_edge_list(BufReader::new(file), directed, weighted)
            .map_err(|e| format!("read {}: {e}", path.display()))
    };
    let mut base = read(false)?;
    if serving.frozen_exceeds_one(&base.edge_list())? {
        base = read(true)?;
    }
    let weighted = base.is_weighted() || pin.edges.iter().any(|&(_, _, w)| w != 1);
    let mut builder = if directed {
        sfgraph::GraphBuilder::new_directed(base.num_vertices())
    } else {
        sfgraph::GraphBuilder::new_undirected(base.num_vertices())
    };
    if weighted {
        builder = builder.weighted();
    }
    if serving_n > 0 {
        // Trailing isolated vertices of the serving index must survive
        // the rebuild, or previously valid ids would start erroring.
        builder.ensure_vertex(serving_n as u32 - 1);
    }
    for (u, v, w) in base.edge_list() {
        builder.add_weighted_edge(u, v, w);
    }
    for &(s, t, w) in &pin.edges {
        builder.ensure_vertex(s);
        builder.ensure_vertex(t);
        builder.add_weighted_edge(s, t, w);
    }
    let merged = builder.build();
    let cfg = hopdb::HopDbConfig { parallelism: 0, ..hopdb::HopDbConfig::default() };
    let (ranking, relabeled) = hopdb::rank(&merged, &cfg);
    let (index, _stats) = hopdb::build_prelabeled(&relabeled, &cfg);
    let flat = FlatIndex::from_index(&index);

    // Stage the checkpoint while holding no lock: the image (`flat` is
    // the file, byte for byte), its `.rank` sidecar and the `.edges`
    // file of every edge the image folds, each written under the next
    // epoch's name and synced. Nothing references them until the
    // manifest flips in `fold`, so aborting here merely leaves garbage
    // for the next `gc_dir` sweep.
    if let Some((image, epoch)) = &pin.stage {
        let (rank, folded) = (ranking.to_sidecar_bytes(), wal::encode_folded(*epoch, &pin.edges));
        for (ext, bytes) in [("", flat.as_bytes()), (".rank", &rank), (wal::FOLDED_EXT, &folded)] {
            std::fs::File::create(sibling(image, ext))
                .and_then(|mut file| file.write_all(bytes).and_then(|()| file.sync_data()))
                .map_err(|e| format!("checkpoint staging: {e}"))?;
        }
    }

    // Promote. Everything after this point is cheap.
    let fresh = shared.lineage.lock().map_err(poisoned)?.fold(shared, pin, flat, ranking)?;
    Ok((fresh.generation(), fresh.vertices() as u64))
}

impl Service for Shared {
    const NAME: &'static str = "server";

    /// Everything the node knows about itself; a poisoned `current`
    /// (a panicked writer) reports all zeroes.
    fn info(&self, traffic: Traffic) -> InfoReply {
        let Ok(current) = self.current.load() else { return InfoReply::default() };
        let shard = current.shard();
        InfoReply {
            protocol: crate::proto::VERSION,
            mode: ROUTE_SINGLE,
            generation: current.generation(),
            vertices: current.vertices() as u64,
            directed: current.is_directed(),
            translates_ids: current.translates_ids(),
            resident_bytes: current.resident_bytes() as u64,
            overlay_edges: current.overlay_edges() as u64,
            overlay_affected: current.overlay_affected() as u64,
            compactions: self.compactions.load(Ordering::Relaxed),
            requests: traffic.requests,
            protocol_errors: traffic.protocol_errors,
            durability: match self.config.wal_dir {
                None => DURABILITY_DISABLED,
                Some(_) => self.config.durability.as_u8(),
            },
            wal_epoch: self.wal_epoch.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            recovered_records: self.recovered[0],
            recovered_dropped_bytes: self.recovered[1],
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            aborted_compactions: self.aborted_compactions.load(Ordering::Relaxed),
            shard_lo: shard.map_or(0, |s| s.lo),
            shard_hi: shard.map_or(0, |s| s.hi),
            shard_index: shard.map_or(0, |s| s.index),
            shard_count: shard.map_or(0, |s| s.count),
            rank_pruned: current.shard_rank_pruned(),
            backends: 0,
            failovers: 0,
        }
    }
}

/// The executor thread: take whatever the front has queued, run it,
/// repeat. Its one deadline is not about batching: under `--durability
/// batch` an append inside the group-commit window leaves the log's
/// tail unsynced, and when no later append comes to sync it the wait
/// for jobs ends at [`Wal::sync_due`] and the executor syncs the tail —
/// the policy's loss window holds when ingest goes idle too.
fn executor_loop(shared: &Shared) {
    let (batcher, completions) = (&shared.front.batcher, &shared.front.completions);
    let mut executor = Executor { shared, tail_due: None };
    loop {
        if executor.tail_due.is_some_and(|due| batcher.wait_until(due)) {
            executor.sync_tail();
            continue;
        }
        let Some(jobs) = batcher.next_batch() else { break };
        run_batch(jobs, completions, &mut executor);
    }
    // A clean stop leaves nothing acked unsynced.
    executor.sync_tail();
    // No job is left to hand the compactor work. Dropping the sender
    // ends its loop even if the Stop races a queued threshold poke.
    if let Some(tx) = shared.compact_tx.lock().ok().and_then(|mut tx| tx.take()) {
        let _ = tx.send(CompactMsg::Stop);
    }
}

/// The index node's [`Stage`].
struct Executor<'a> {
    shared: &'a Shared,
    /// The live log's [`Wal::sync_due`] as of the last append: only this
    /// thread appends, and whoever replaces the log leaves it synced.
    tail_due: Option<Instant>,
}

impl Executor<'_> {
    fn sync_tail(&mut self) {
        self.tail_due = None;
        if let Ok(mut lineage) = self.shared.lineage.lock() {
            if let Some(d) = &mut lineage.durable {
                d.wal.sync_tail();
            }
        }
    }
}

impl Stage for Executor<'_> {
    /// A single `Generation` clone pins the whole run to one index, a
    /// single `query_many_into` call answers every pair, and per-job
    /// slices are encoded back out.
    fn queries(&mut self, jobs: Vec<QueryJob>) {
        let shared = self.shared;
        let generation = shared.current.load();
        let n = generation.as_ref().map_or(u64::MAX, |g| g.vertices() as u64);
        let Some(work) = BatchWork::cut(jobs, n, &shared.front.completions) else { return };
        let mut dists = Vec::with_capacity(work.combined.len());
        let threads = shared.config.batch_threads;
        match generation.and_then(|g| g.query_many_into(&work.combined, threads, &mut dists)) {
            Ok(()) => work.complete(&dists),
            Err(msg) => work.fail(&msg),
        }
    }

    fn update(&mut self, edges: Vec<WalEdge>) -> Result<(u64, u64), String> {
        let shared = self.shared;
        let next = {
            let mut lineage = shared.lineage.lock().map_err(poisoned)?;
            let next = lineage.append(shared, &edges);
            self.tail_due = lineage.durable.as_ref().and_then(|d| d.wal.sync_due());
            next?
        };
        // Poke the compactor outside the lock; a stopped compactor is
        // not the client's problem.
        if shared.config.source_graph.is_some() && shared.over_threshold() {
            shared.poke(CompactMsg::Threshold);
        }
        Ok((next.generation(), next.overlay_edges() as u64))
    }

    fn swap(&mut self) -> Result<(u64, u64), String> {
        let shared = self.shared;
        let fresh = shared.lineage.lock().map_err(poisoned)?.reset(shared);
        let fresh = fresh.map_err(|e| e.to_string())?;
        Ok((fresh.generation(), fresh.vertices() as u64))
    }

    fn compact(&mut self, conn: u64, reply: Reply) -> Result<(), String> {
        if self.shared.poke(CompactMsg::Admin { conn, reply }) {
            Ok(())
        } else {
            Err("server is stopping".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_response, Request, RequestBody};

    /// The one stop path runs down the whole chain while a compaction
    /// is owed: `shutdown` stops the front, the front the batcher, the
    /// executor the compactor. It returns once every thread has joined,
    /// and the compaction's answer has reached its connection on the way.
    #[test]
    fn shutdown_mid_compaction_joins_every_thread() {
        let dir = std::env::temp_dir().join(format!("hopdb-stop-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (graph_path, index_path) = (dir.join("g.txt"), dir.join("g.idx"));
        let n = 200;
        let mut builder = sfgraph::GraphBuilder::new_undirected(n as usize);
        for v in 0..n {
            builder.add_edge(v, (v + 1) % n);
            builder.add_edge(v, (v * 7 + 3) % n);
        }
        let g = builder.build();
        let file = std::fs::File::create(&graph_path).unwrap();
        sfgraph::io::write_edge_list(&g, std::io::BufWriter::new(file)).unwrap();
        let cfg = hopdb::HopDbConfig::default();
        let (ranking, relabeled) = hopdb::rank(&g, &cfg);
        let (index, _) = hopdb::build_prelabeled(&relabeled, &cfg);
        index.write_hopidx(&mut std::fs::File::create(&index_path).unwrap()).unwrap();
        std::fs::write(sibling(&index_path, ".rank"), ranking.to_sidecar_bytes()).unwrap();

        let config = ServerConfig {
            source_graph: Some(graph_path),
            compact_threshold: 0,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", &index_path, config).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        // `info` is answered inline: once any answer is back, the
        // `compact` ahead of it has been queued.
        let mut wire = Request { id: 1, body: RequestBody::Compact }.encode();
        wire.extend_from_slice(&Request { id: 2, body: RequestBody::Info }.encode());
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        let mut answers = vec![read_response(&mut reader).unwrap()];
        handle.shutdown();
        if answers[0].id == 2 {
            answers.push(read_response(&mut reader).unwrap());
        }
        let compacted = answers.into_iter().find(|r| r.id == 1).unwrap();
        assert_eq!(compacted.body, ResponseBody::Compacted { generation: 2, vertices: 200 });
        std::fs::remove_dir_all(&dir).ok();
    }
}
