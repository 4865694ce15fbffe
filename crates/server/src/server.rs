//! The index node: boot and recovery, the query executor, live updates,
//! hot index swap, and background compaction.
//!
//! Architecture (all `std`, no async runtime):
//!
//! ```text
//! front thread (crate::front)          executor thread
//!   cut frames off every socket ────►    Batcher::next_batch
//!   answer stats/info inline             coalesce pairs across conns
//!   flush responses          ◄────────   ONE Generation clone per batch
//!          ▲   (Completions + wake)      query_many → encode responses
//!          │                             swaps and updates run here too
//!   compactor thread                               │
//!     rebuild + checkpoint, off both               ▼
//!     hot paths                        RwLock<Arc<Generation>>
//! ```
//!
//! Each query batch clones the current [`Generation`] `Arc` once and
//! answers every pair from it via `FlatIndex::query_many`, so a
//! concurrent swap never mixes two indexes inside one response and
//! never drops a connection: the new generation is loaded *outside* the
//! write lock and promoted with a single pointer swap.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::backend::Generation;
use crate::batch::{Completions, Job, QueryJob};
use crate::front::{self, Admin, FrontHandle, Limits, Outcome, Service, Traffic};
use crate::proto::{
    FieldValue, InfoReply, Response, ResponseBody, RouteReply, StatsReply, DEFAULT_MAX_BATCH,
    DURABILITY_DISABLED, ROUTE_SINGLE,
};
use crate::wal::{self, Durability, Manifest, Wal};
use extmem::stats::IoStats;

/// Tunables for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Threads `query_many` may fan one batch across (0 = all cores).
    /// Leave at 1 when many concurrent connections already saturate the
    /// cores; raise it for few-connection, huge-batch workloads.
    pub batch_threads: usize,
    /// Pairs accepted per query request; larger batches are rejected
    /// with a protocol error. (Per-frame allocation is bounded by the
    /// protocol's [`crate::proto::MAX_PAYLOAD`] cap, not by this knob —
    /// a declared length over the cap closes the connection before any
    /// allocation.)
    pub max_batch: usize,
    /// Admission budget: index files larger than this are served from
    /// disk through the LRU-cached fallback instead of resident memory.
    /// `None` = always resident.
    pub max_resident_bytes: Option<u64>,
    /// File promoted by a swap request. `None` = re-load the boot path
    /// (in-place rebuild promotion).
    pub swap_path: Option<PathBuf>,
    /// Honour remote shutdown frames. Off by default: a query port
    /// should not double as a kill switch unless explicitly enabled.
    pub allow_shutdown: bool,
    /// Longest a queued query waits (µs) for company before its
    /// micro-batch flushes anyway.
    pub flush_us: u64,
    /// Queued pair count that flushes a micro-batch immediately,
    /// without waiting out `flush_us`.
    pub coalesce_pairs: usize,
    /// Unanswered query frames per connection before the server stops
    /// *reading* that connection (pipelining backpressure).
    pub max_inflight: usize,
    /// Evict connections idle longer than this many milliseconds
    /// (0 = never).
    pub idle_timeout_ms: u64,
    /// Source edge list of the boot index, in original vertex ids.
    /// Required for compaction: the compactor re-reads it, applies the
    /// accumulated update log, and rebuilds a frozen index from
    /// scratch. `None` disables compaction (updates still work, the
    /// overlay just grows until a swap).
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
    /// `wal_dir`). The default trades a ~2 ms loss window on *power
    /// failure* (a mere process crash loses nothing) for group-commit
    /// throughput; `always` closes the window per batch.
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
            max_batch: DEFAULT_MAX_BATCH,
            max_resident_bytes: None,
            swap_path: None,
            allow_shutdown: false,
            flush_us: 100,
            coalesce_pairs: 4096,
            max_inflight: 128,
            idle_timeout_ms: 0,
            source_graph: None,
            compact_threshold: 256,
            wal_dir: None,
            durability: Durability::Batch,
            wal_max_bytes: None,
        }
    }
}

/// Mutable durability state: the live WAL handle plus the directory it
/// (and the checkpoint artifacts) live in. Locked *after* `update_log`
/// in the `mutate_serial → update_log → durable → current` order shared
/// by updates, swaps, and checkpoint promotions.
struct DurableState {
    dir: PathBuf,
    wal: Wal,
    stats: Arc<IoStats>,
}

impl DurableState {
    /// Advance the lineage one epoch: the next boot loads `image` and
    /// replays `tail`. The write order is the commit protocol `wal.rs`
    /// documents — the next epoch's log is created, seeded with `tail`
    /// and synced; the manifest flips (the single commit point); only
    /// then does the old log go. A crash before the flip recovers the
    /// old image plus the full old log, after it `image` plus `tail`;
    /// replay is idempotent, so straddling updates are safe.
    fn advance(
        &mut self,
        shared: &Shared,
        image: PathBuf,
        tail: &[(u32, u32, u32)],
    ) -> std::io::Result<()> {
        let epoch = self.wal.epoch() + 1;
        let path = self.dir.join(wal::wal_file_name(epoch));
        let mut next =
            Wal::create(&path, epoch, shared.config.durability, Arc::clone(&self.stats))?;
        if !tail.is_empty() {
            next.append(tail)?;
            next.sync()?;
        }
        let manifest = Manifest { epoch, index_path: image };
        wal::write_manifest(&self.dir, &manifest, Arc::clone(&self.stats))?;
        let old = std::mem::replace(&mut self.wal, next);
        let _ = std::fs::remove_file(old.path());
        wal::gc_dir(&self.dir, epoch);
        shared.wal_epoch.store(epoch, Ordering::Relaxed);
        shared.wal_records.store(self.wal.records(), Ordering::Relaxed);
        shared.wal_bytes.store(self.wal.bytes(), Ordering::Relaxed);
        Ok(())
    }
}

/// State shared by the front, the executor, the compactor, and the
/// handle.
struct Shared {
    current: RwLock<Arc<Generation>>,
    config: ServerConfig,
    index_path: PathBuf,
    local_addr: SocketAddr,
    /// The serving loop's job queue, completion pile, and stop switch.
    front: FrontHandle,
    /// Serializes mutations of the serving pointer — swaps, update
    /// batches, and compaction promotions (queries are never blocked by
    /// this; they only take the brief `current` read lock).
    mutate_serial: Mutex<()>,
    /// Edge insertions (original ids) accepted since the frozen index
    /// was built — replayed into every overlay rebuild, consumed by
    /// compaction, discarded by a swap.
    update_log: Mutex<Vec<(u32, u32, u32)>>,
    /// Bumped by every swap so an in-flight compaction can detect that
    /// its build no longer describes the serving index and abort.
    swap_epoch: AtomicU64,
    /// Channel into the compactor thread (`None` once stopping).
    compact_tx: Mutex<Option<mpsc::Sender<CompactMsg>>>,
    compactions: AtomicU64,
    /// Durability state; `None` when the server runs without a WAL.
    durable: Option<Mutex<DurableState>>,
    /// Mirrors of the WAL's epoch/size so `info`/`/stats` never touch
    /// the durable lock from the read path.
    wal_epoch: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    /// Boot-recovery outcome (constant after `serve` returns).
    recovered_records: AtomicU64,
    recovered_dropped_bytes: AtomicU64,
    checkpoints: AtomicU64,
    aborted_compactions: AtomicU64,
    generation_seq: AtomicU64,
}

/// A running server. Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::shutdown`] (or let a remote shutdown frame stop
/// it) and then [`ServerHandle::wait`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Generation number of the index currently being served.
    pub fn current_generation(&self) -> u64 {
        self.shared.current.read().map(|g| g.generation()).unwrap_or(0)
    }

    /// Promote the configured swap path (or re-load the boot path) to
    /// the serving index *from this process* — the in-process analogue
    /// of the wire swap frame, for supervisors that rebuild and promote
    /// without a client connection. Returns `(generation, vertices)`.
    pub fn swap(&self) -> std::io::Result<(u64, u64)> {
        let fresh = do_swap(&self.shared)?;
        Ok((fresh.generation(), fresh.vertices() as u64))
    }

    /// Ask the daemon to stop and wait for every thread to exit.
    pub fn shutdown(mut self) {
        self.shared.begin_stop();
        self.join_all();
    }

    /// Block until the daemon stops (remote shutdown frame or
    /// [`ServerHandle::shutdown`] from another thread via a clone of
    /// the shared state — in practice: until a shutdown frame arrives).
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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
    let local_addr = listener.local_addr()?;
    let recovery = recover_durable(index_path, &config)?;
    let mut boot = Generation::load(&recovery.boot_path, config.max_resident_bytes, 1)?;
    if !recovery.log.is_empty() {
        // Replay the WAL into the overlay: the recovered daemon answers
        // exactly like the crashed one did after its last ack.
        boot = boot.with_updates(&recovery.log).map_err(std::io::Error::other)?;
    }
    let (compact_tx, compact_rx) = mpsc::channel::<CompactMsg>();
    let shared = Arc::new(Shared {
        current: RwLock::new(Arc::new(boot)),
        config,
        index_path: index_path.to_path_buf(),
        local_addr,
        front: front.clone(),
        mutate_serial: Mutex::new(()),
        update_log: Mutex::new(recovery.log),
        swap_epoch: AtomicU64::new(0),
        compact_tx: Mutex::new(Some(compact_tx)),
        compactions: AtomicU64::new(0),
        wal_epoch: AtomicU64::new(recovery.epoch),
        wal_records: AtomicU64::new(recovery.wal_records),
        wal_bytes: AtomicU64::new(recovery.wal_bytes),
        recovered_records: AtomicU64::new(recovery.recovered_records),
        recovered_dropped_bytes: AtomicU64::new(recovery.recovered_dropped_bytes),
        checkpoints: AtomicU64::new(0),
        aborted_compactions: AtomicU64::new(0),
        durable: recovery.durable.map(Mutex::new),
        generation_seq: AtomicU64::new(1),
    });
    let reactor = front::spawn(listener, Arc::clone(&shared), front)?;
    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || executor_loop(&shared))
    };
    let compactor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || compactor_loop(&shared, &compact_rx))
    };
    Ok(ServerHandle { shared, workers: vec![reactor, executor, compactor] })
}

/// What boot recovery reconstructed from the WAL directory.
struct Recovery {
    /// Index image to boot from: the manifest's checkpoint when one
    /// exists, otherwise the path handed to [`serve`].
    boot_path: PathBuf,
    /// Replayed acknowledged updates, flattened in append order — the
    /// initial `update_log`.
    log: Vec<(u32, u32, u32)>,
    durable: Option<DurableState>,
    epoch: u64,
    wal_records: u64,
    wal_bytes: u64,
    recovered_records: u64,
    recovered_dropped_bytes: u64,
}

/// Open (or create) the durability directory and bring the WAL lineage
/// to a clean, appendable state: read `CURRENT`, walk the epoch's log
/// tolerating a torn tail, validate the header epoch, truncate the
/// tear, and garbage-collect files from dead epochs (failed checkpoint
/// or swap attempts).
fn recover_durable(index_path: &Path, config: &ServerConfig) -> std::io::Result<Recovery> {
    let no_wal = Recovery {
        boot_path: index_path.to_path_buf(),
        log: Vec::new(),
        durable: None,
        epoch: 0,
        wal_records: 0,
        wal_bytes: 0,
        recovered_records: 0,
        recovered_dropped_bytes: 0,
    };
    let Some(dir) = config.wal_dir.as_deref() else {
        return Ok(no_wal);
    };
    std::fs::create_dir_all(dir)?;
    let stats = IoStats::shared();
    let (epoch, boot_path) = match wal::read_manifest(dir)? {
        Some(m) => {
            if !m.index_path.exists() {
                return Err(std::io::Error::other(format!(
                    "{}/CURRENT points at missing checkpoint image {}",
                    dir.display(),
                    m.index_path.display()
                )));
            }
            (m.epoch, m.index_path)
        }
        None => (0, index_path.to_path_buf()),
    };
    let wal_path = dir.join(wal::wal_file_name(epoch));
    let replay = wal::read_wal(&wal_path, Arc::clone(&stats))?;
    let (live, batches, recovered_records, recovered_dropped_bytes) = match replay.epoch {
        // Missing log (first boot, or a crash immediately after the
        // manifest flip deleted nothing yet) or an unreadable header:
        // start the epoch's log fresh. Header-less garbage counts as
        // dropped bytes so operators can see it happened.
        None => {
            let dropped = replay.dropped_bytes;
            let live = Wal::create(&wal_path, epoch, config.durability, Arc::clone(&stats))?;
            (live, Vec::new(), 0, dropped)
        }
        Some(e) if e != epoch => {
            return Err(std::io::Error::other(format!(
                "{} carries epoch {e} but CURRENT says {epoch} — \
                 the durability directory mixes files from different lineages",
                wal_path.display()
            )));
        }
        Some(_) => {
            let live =
                Wal::open_after_replay(&wal_path, &replay, config.durability, Arc::clone(&stats))?;
            let n = replay.batches.len() as u64;
            (live, replay.batches, n, replay.dropped_bytes)
        }
    };
    wal::gc_dir(dir, epoch);
    // Flatten by draining: `concat` would briefly hold the batch list
    // AND the flat copy, doubling peak replay memory on a big log.
    let mut log = Vec::with_capacity(batches.iter().map(Vec::len).sum());
    for mut batch in batches {
        log.append(&mut batch);
    }
    Ok(Recovery {
        boot_path,
        log,
        epoch,
        wal_records: live.records(),
        wal_bytes: live.bytes(),
        recovered_records,
        recovered_dropped_bytes,
        durable: Some(DurableState { dir: dir.to_path_buf(), wal: live, stats }),
    })
}

/// Work order for the background compactor thread.
enum CompactMsg {
    /// The overlay crossed the configured threshold at the time of an
    /// update; compact if it is *still* over (queued pokes dedupe).
    Threshold,
    /// An explicit admin request: always compacts; the result goes
    /// straight into the front's completion pile, so neither the front
    /// nor the executor ever blocks on a rebuild.
    Admin {
        /// Connection token.
        conn: u64,
        /// Client-chosen request id.
        id: u64,
    },
    /// The server is stopping.
    Stop,
}

/// The compactor thread: runs at most one compaction at a time, fed by
/// update-threshold pokes and explicit admin requests.
fn compactor_loop(shared: &Shared, rx: &mpsc::Receiver<CompactMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            CompactMsg::Stop => return,
            CompactMsg::Threshold => {
                let over_threshold = || {
                    let threshold = shared.config.compact_threshold;
                    let overlay_over = threshold > 0
                        && shared
                            .current
                            .read()
                            .map(|g| g.overlay_edges() >= threshold)
                            .unwrap_or(false);
                    // A checkpoint truncates the WAL, so an oversized
                    // log compacts even with a small overlay.
                    let wal_over = shared
                        .config
                        .wal_max_bytes
                        .is_some_and(|cap| shared.wal_bytes.load(Ordering::Relaxed) >= cap);
                    overlay_over || wal_over
                };
                if over_threshold() {
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
                    if over_threshold() && !shared.front.stopping() {
                        if let Ok(tx) = shared.compact_tx.lock() {
                            if let Some(tx) = tx.as_ref() {
                                let _ = tx.send(CompactMsg::Threshold);
                            }
                        }
                    }
                }
            }
            CompactMsg::Admin { conn, id } => {
                let body = match do_compact(shared) {
                    Ok((generation, vertices)) => ResponseBody::Compacted { generation, vertices },
                    Err(e) => ResponseBody::Error(format!("compact failed: {e}")),
                };
                shared.front.completions.answer(conn, (Response { id, body }.encode(), false));
            }
        }
    }
}

/// Load the swap path (fallback: the boot path) as a fresh generation
/// and promote it. The load happens outside the write lock, so queries
/// keep flowing on the old index for the whole load; the promotion
/// itself is one pointer store.
///
/// A swap replaces the served graph *wholesale*: pending overlay edges
/// describe the previous image and are discarded with it (`compact` is
/// the lossless promotion that folds them in).
fn do_swap(shared: &Shared) -> std::io::Result<Arc<Generation>> {
    let _serial =
        shared.mutate_serial.lock().map_err(|_| std::io::Error::other("swap lock poisoned"))?;
    let path = shared.config.swap_path.as_deref().unwrap_or(&shared.index_path);
    let next = shared.generation_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let fresh = Arc::new(Generation::load(path, shared.config.max_resident_bytes, next)?);
    let mut log =
        shared.update_log.lock().map_err(|_| std::io::Error::other("server state poisoned"))?;
    // A swap discards the update log with the image it described; the
    // durable lineage advances the same way: "boot from the swapped
    // image, nothing to replay".
    if let Some(durable) = &shared.durable {
        let mut d = durable.lock().map_err(|_| std::io::Error::other("server state poisoned"))?;
        d.advance(shared, path.to_path_buf(), &[])?;
    }
    log.clear();
    shared.swap_epoch.fetch_add(1, Ordering::SeqCst);
    let mut current =
        shared.current.write().map_err(|_| std::io::Error::other("server state poisoned"))?;
    *current = Arc::clone(&fresh);
    Ok(fresh)
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
pub(crate) fn validate_update_edges(edges: &[(u32, u32, u32)]) -> Result<(), String> {
    match edges.iter().find(|&&(_, _, w)| w == 0) {
        Some(&(s, t, _)) => Err(format!(
            "edge ({s}, {t}): edge weight 0 (weights must be ≥ 1: \
             shortest-path distances are strictly positive)"
        )),
        None => Ok(()),
    }
}

/// Apply one accepted update batch: replay the full log plus the new
/// edges into a fresh overlay snapshot and promote a copy-on-write
/// successor generation. Queries pinned to the old `Arc` finish on it;
/// nothing is committed if validation or the rebuild fails.
fn do_update(shared: &Shared, edges: &[(u32, u32, u32)]) -> Result<(u64, u64), String> {
    validate_update_edges(edges)?;
    let _serial = shared.mutate_serial.lock().map_err(|_| "server state poisoned".to_string())?;
    let current = {
        let guard = shared.current.read().map_err(|_| "server state poisoned".to_string())?;
        Arc::clone(&guard)
    };
    let mut log = shared.update_log.lock().map_err(|_| "server state poisoned".to_string())?;
    let mut candidate = log.clone();
    candidate.extend_from_slice(edges);
    let next = current.with_updates(&candidate)?;
    let generation = next.generation();
    let overlay_edges = next.overlay_edges() as u64;
    // Make the batch durable *before* it becomes observable: only
    // validated batches reach the WAL, and nothing is published (or
    // acknowledged) unless the append succeeds. Under `always` the
    // record is on stable storage when `append` returns.
    if let Some(durable) = &shared.durable {
        let mut d = durable.lock().map_err(|_| "server state poisoned".to_string())?;
        d.wal.append(edges).map_err(|e| format!("wal append: {e}"))?;
        shared.wal_records.store(d.wal.records(), Ordering::Relaxed);
        shared.wal_bytes.store(d.wal.bytes(), Ordering::Relaxed);
    }
    *log = candidate;
    {
        let mut cur = shared.current.write().map_err(|_| "server state poisoned".to_string())?;
        *cur = Arc::new(next);
    }
    drop(log);
    drop(_serial);
    // Poke the compactor outside the serial section; a full channel or
    // stopped compactor is not the client's problem.
    let overlay_over = shared.config.compact_threshold > 0
        && overlay_edges as usize >= shared.config.compact_threshold;
    let wal_over = shared
        .config
        .wal_max_bytes
        .is_some_and(|cap| shared.wal_bytes.load(Ordering::Relaxed) >= cap);
    if (overlay_over || wal_over) && shared.config.source_graph.is_some() {
        if let Ok(tx) = shared.compact_tx.lock() {
            if let Some(tx) = tx.as_ref() {
                let _ = tx.send(CompactMsg::Threshold);
            }
        }
    }
    Ok((generation, overlay_edges))
}

/// Rebuild the frozen index from the configured source graph plus the
/// pinned prefix of the update log, and promote it as a new generation.
///
/// The expensive build runs without holding any lock, so queries and
/// further updates keep flowing; only the final promotion takes the
/// mutation locks. Updates that arrived *during* the build stay in the
/// log and are folded into the fresh generation's overlay, so no
/// accepted edge is ever lost. If a swap promoted a different image
/// mid-build, the stale result is thrown away.
///
/// Id-space note: the rebuilt index serves the source file's vertex
/// ids. That matches the running server when the boot index was built
/// by `hopdb-cli build` from the same file (the `.rank` sidecar maps
/// original ids), which is the supported deployment for `--graph`.
fn do_compact(shared: &Shared) -> Result<(u64, u64), String> {
    let result = do_compact_inner(shared);
    if result.is_err() {
        shared.aborted_compactions.fetch_add(1, Ordering::Relaxed);
    }
    result
}

fn do_compact_inner(shared: &Shared) -> Result<(u64, u64), String> {
    use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
    let Some(path) = shared.config.source_graph.as_deref() else {
        return Err("compaction requires the server to be started with --graph".to_string());
    };
    // Pin: edges up to `pinned_len` go into the rebuilt image; later
    // arrivals fold into the fresh overlay at promotion time.
    let (pinned, epoch) = {
        let log = shared.update_log.lock().map_err(|_| "server state poisoned".to_string())?;
        (log.clone(), shared.swap_epoch.load(Ordering::SeqCst))
    };
    let pinned_len = pinned.len();
    let serving = {
        let cur = shared.current.read().map_err(|_| "server state poisoned".to_string())?;
        Arc::clone(&cur)
    };
    let (directed, serving_n) = (serving.is_directed(), serving.vertices());

    // Build, lock-free. Same pipeline as `hopdb-cli build`: clean the
    // merged edge set, rank, relabel, label — bit-identical output at
    // any parallelism, so a compaction never changes an answer.
    //
    // Whether `hopdb-cli build` read a third column as weights is a fact
    // the frozen index records, not something the file can say (a SNAP
    // temporal list carries a timestamp there): an unweighted build
    // leaves every source edge's endpoints at distance ≤ 1.
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
    let weighted = base.is_weighted() || pinned.iter().any(|&(_, _, w)| w != 1);
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
    for &(s, t, w) in &pinned {
        builder.ensure_vertex(s);
        builder.ensure_vertex(t);
        builder.add_weighted_edge(s, t, w);
    }
    let merged = builder.build();
    let ranking = rank_vertices(&merged, &RankBy::paper_default(&merged));
    let relabeled = relabel_by_rank(&merged, &ranking);
    let cfg = hopdb::HopDbConfig { parallelism: 0, ..hopdb::HopDbConfig::default() };
    let (index, _stats) = hopdb::build_prelabeled(&relabeled, &cfg);
    let flat = hoplabels::flat::FlatIndex::from_index(&index);

    // Stage the checkpoint image while holding no lock: write the
    // rebuilt index (`flat` is the image, byte for byte) and its `.rank`
    // sidecar to fresh files in the WAL directory and fsync them. Nothing references the staged files
    // until the manifest flips below, so aborting here merely leaves
    // garbage for the next `gc_dir` sweep.
    let staged = if let Some(durable) = &shared.durable {
        let dir = {
            let d = durable.lock().map_err(|_| "server state poisoned".to_string())?;
            d.dir.clone()
        };
        let stage = |e: std::io::Error| format!("checkpoint staging: {e}");
        let store = extmem::TempStore::in_dir(&dir).map_err(stage)?;
        let mut file = store.create("ckpt-stage").map_err(stage)?;
        file.write_all(flat.as_bytes()).map_err(stage)?;
        file.persist();
        let image = file.path().to_path_buf();
        let sidecar = {
            let mut s = image.as_os_str().to_os_string();
            s.push(".rank");
            PathBuf::from(s)
        };
        std::fs::write(&sidecar, ranking.to_sidecar_bytes()).map_err(stage)?;
        for path in [&image, &sidecar] {
            std::fs::File::open(path).and_then(|f| f.sync_data()).map_err(stage)?;
        }
        Some((dir, image, sidecar))
    } else {
        None
    };

    // Promote. Everything after this point is cheap.
    let _serial = shared.mutate_serial.lock().map_err(|_| "server state poisoned".to_string())?;
    if shared.swap_epoch.load(Ordering::SeqCst) != epoch {
        return Err("aborted: a swap was promoted during compaction".to_string());
    }
    let mut log = shared.update_log.lock().map_err(|_| "server state poisoned".to_string())?;
    let next_gen = shared.generation_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let mut fresh = Generation::from_flat(flat, Some(ranking), next_gen);
    let remaining: Vec<(u32, u32, u32)> = log[pinned_len..].to_vec();
    if !remaining.is_empty() {
        fresh = fresh.with_updates(&remaining)?;
    }
    let generation = fresh.generation();
    let vertices = fresh.vertices() as u64;
    // Commit the checkpoint to the durable lineage *before* publishing
    // the in-memory state: rename the staged image into its epoch name,
    // then advance the epoch onto it with the unpinned tail.
    if let Some((dir, image, sidecar)) = staged {
        let durable = shared.durable.as_ref().expect("staged implies durable");
        let mut d = durable.lock().map_err(|_| "server state poisoned".to_string())?;
        let commit = |e: std::io::Error| format!("checkpoint commit: {e}");
        let ckpt = dir.join(wal::checkpoint_image_name(d.wal.epoch() + 1));
        let ckpt_rank = {
            let mut s = ckpt.as_os_str().to_os_string();
            s.push(".rank");
            PathBuf::from(s)
        };
        std::fs::rename(&image, &ckpt).map_err(commit)?;
        std::fs::rename(&sidecar, &ckpt_rank).map_err(commit)?;
        d.advance(shared, ckpt, &remaining).map_err(commit)?;
        shared.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
    *log = remaining;
    {
        let mut cur = shared.current.write().map_err(|_| "server state poisoned".to_string())?;
        *cur = Arc::new(fresh);
    }
    shared.compactions.fetch_add(1, Ordering::Relaxed);
    Ok((generation, vertices))
}

impl Service for Shared {
    const NAME: &'static str = "server";

    fn limits(&self) -> Limits {
        Limits {
            max_batch: self.config.max_batch,
            max_inflight: self.config.max_inflight,
            idle_timeout_ms: self.config.idle_timeout_ms,
            allow_shutdown: self.config.allow_shutdown,
        }
    }

    /// Stop the front (it drains what it owes and exits, the batcher
    /// drains) and the compactor. Idempotent.
    fn begin_stop(&self) {
        if !self.front.begin_stop() {
            return;
        }
        // Dropping the sender ends the compactor's recv loop even if
        // the Stop message races a queued threshold poke.
        if let Ok(mut tx) = self.compact_tx.lock() {
            if let Some(tx) = tx.take() {
                let _ = tx.send(CompactMsg::Stop);
            }
        }
    }

    fn refuses_updates(&self) -> Option<&'static str> {
        None
    }

    fn admin(&self, traffic: Traffic, conn: u64, id: u64, kind: Admin) -> Outcome {
        let poisoned = || ResponseBody::Error("server state poisoned".to_string());
        match kind {
            Admin::Swap => Outcome::Submit(Job::Swap { conn, id }),
            Admin::Compact => {
                let queued = self.compact_tx.lock().is_ok_and(|tx| {
                    tx.as_ref().is_some_and(|tx| tx.send(CompactMsg::Admin { conn, id }).is_ok())
                });
                if queued {
                    Outcome::Deferred
                } else {
                    Outcome::Reply(ResponseBody::Error("server is stopping".to_string()))
                }
            }
            Admin::Info => {
                Outcome::Reply(info_of(self, traffic).map_or_else(poisoned, ResponseBody::Info))
            }
            Admin::RouteInfo => {
                Outcome::Reply(route_info_of(self).map_or_else(poisoned, ResponseBody::RouteInfo))
            }
        }
    }

    fn stats_reply(&self, traffic: Traffic) -> StatsReply {
        match self.current.read() {
            Ok(current) => StatsReply {
                generation: current.generation(),
                vertices: current.vertices() as u64,
                directed: current.is_directed(),
                resident: current.is_resident(),
                requests: traffic.requests,
                protocol_errors: traffic.protocol_errors,
            },
            Err(_) => StatsReply::default(),
        }
    }

    /// The `info` fields as one JSON object, minus the `HOPQ` version
    /// an HTTP client has no use for.
    fn stats_json(&self, traffic: Traffic) -> String {
        let info = info_of(self, traffic).unwrap_or_default();
        let members: Vec<String> = info
            .fields()
            .filter(|(name, _)| *name != "protocol")
            .map(|(name, value)| match value {
                FieldValue::Name(text) => format!("\"{name}\":\"{text}\""),
                other => format!("\"{name}\":{other}"),
            })
            .collect();
        format!("{{{}}}", members.join(","))
    }
}

/// The extended `info` snapshot: everything `stats` reports plus
/// overlay, compaction and write-ahead-log state.
fn info_of(shared: &Shared, traffic: Traffic) -> Option<InfoReply> {
    let current = shared.current.read().ok()?;
    Some(InfoReply {
        protocol: crate::proto::VERSION,
        generation: current.generation(),
        vertices: current.vertices() as u64,
        directed: current.is_directed(),
        resident: current.is_resident(),
        resident_bytes: current.resident_bytes() as u64,
        overlay_edges: current.overlay_edges() as u64,
        overlay_affected: current.overlay_affected() as u64,
        compactions: shared.compactions.load(Ordering::Relaxed),
        requests: traffic.requests,
        protocol_errors: traffic.protocol_errors,
        durability: match &shared.durable {
            None => DURABILITY_DISABLED,
            Some(_) => shared.config.durability.as_u8(),
        },
        wal_epoch: shared.wal_epoch.load(Ordering::Relaxed),
        wal_records: shared.wal_records.load(Ordering::Relaxed),
        wal_bytes: shared.wal_bytes.load(Ordering::Relaxed),
        recovered_records: shared.recovered_records.load(Ordering::Relaxed),
        recovered_dropped_bytes: shared.recovered_dropped_bytes.load(Ordering::Relaxed),
        checkpoints: shared.checkpoints.load(Ordering::Relaxed),
        aborted_compactions: shared.aborted_compactions.load(Ordering::Relaxed),
    })
}

/// The serving-topology snapshot: a plain daemon reports
/// [`ROUTE_SINGLE`] plus its shard slot when it serves a split image
/// (`<index>.shard` sidecar); the router module reports its own mode.
fn route_info_of(shared: &Shared) -> Option<RouteReply> {
    let current = shared.current.read().ok()?;
    let shard = current.shard();
    Some(RouteReply {
        mode: ROUTE_SINGLE,
        vertices: current.vertices() as u64,
        directed: current.is_directed(),
        generation: current.generation(),
        shard_lo: shard.map_or(0, |s| s.lo),
        shard_hi: shard.map_or(0, |s| s.hi),
        shard_index: shard.map_or(0, |s| s.index),
        shard_count: shard.map_or(0, |s| s.count),
        rank_pruned: current.shard_rank_pruned(),
    })
}

/// The executor: pull coalesced batches, answer them, run swaps and
/// updates between them.
fn executor_loop(shared: &Shared) {
    let (batcher, completions) = (&shared.front.batcher, &*shared.front.completions);
    let flush_after = Duration::from_micros(shared.config.flush_us.max(1));
    let coalesce = shared.config.coalesce_pairs.max(1);
    while let Some(jobs) = batcher.next_batch(coalesce, flush_after) {
        let mut queries: Vec<QueryJob> = Vec::new();
        for job in jobs {
            match job {
                Job::Query { conn, respond, pairs } => queries.push((conn, respond, pairs)),
                Job::Swap { conn, id } => {
                    // Queries queued before the swap answer on the old
                    // generation; flush them first.
                    run_queries(shared, completions, std::mem::take(&mut queries));
                    let body = match do_swap(shared) {
                        Ok(fresh) => ResponseBody::Swapped {
                            generation: fresh.generation(),
                            vertices: fresh.vertices() as u64,
                        },
                        Err(e) => ResponseBody::Error(format!("swap failed: {e}")),
                    };
                    completions.answer(conn, (Response { id, body }.encode(), false));
                }
                Job::Update { conn, respond, edges } => {
                    // Same ordering contract as a swap: queries
                    // submitted before this frame answer on the
                    // pre-update overlay, queries after it on the
                    // post-update one.
                    run_queries(shared, completions, std::mem::take(&mut queries));
                    completions.answer(conn, respond.outcome(do_update(shared, &edges)));
                }
            }
        }
        run_queries(shared, completions, queries);
    }
}

/// Answer one coalesced batch: a single `Generation` clone pins the
/// whole batch to one index, a single `query_many_into` call answers
/// every pair, and per-job slices are encoded back out.
fn run_queries(shared: &Shared, completions: &Completions, jobs: Vec<QueryJob>) {
    if jobs.is_empty() {
        return;
    }
    let generation = match shared.current.read() {
        Ok(current) => Arc::clone(&current),
        Err(_) => {
            for (conn, respond, _) in jobs {
                completions.answer(conn, respond.error("server state poisoned"));
            }
            return;
        }
    };
    let n = generation.vertices() as u32;
    // Range-check per job so one bad frame can't fail its batchmates.
    let mut combined: Vec<(u32, u32)> = Vec::new();
    let mut plan: Vec<(usize, usize, usize)> = Vec::new();
    for (i, (conn, respond, pairs)) in jobs.iter().enumerate() {
        match pairs.iter().find(|&&(s, t)| s >= n || t >= n) {
            Some(&(s, t)) => {
                let msg = format!("vertex out of range: ({s}, {t}) on a {n}-vertex index");
                completions.answer(*conn, respond.error(&msg));
            }
            None => {
                plan.push((i, combined.len(), pairs.len()));
                combined.extend_from_slice(pairs);
            }
        }
    }
    if combined.is_empty() {
        return;
    }
    let mut dists = Vec::with_capacity(combined.len());
    match generation.query_many_into(&combined, shared.config.batch_threads, &mut dists) {
        Err(msg) => {
            for &(i, _, _) in &plan {
                let (conn, respond, _) = &jobs[i];
                completions.answer(*conn, respond.error(&msg));
            }
        }
        Ok(()) => {
            for &(i, offset, len) in &plan {
                let (conn, respond, pairs) = &jobs[i];
                completions.answer(*conn, respond.distances(pairs, &dists[offset..offset + len]));
            }
        }
    }
}
