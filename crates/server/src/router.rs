//! The scale-out router: one `HOPQ`/HTTP endpoint fanning query batches
//! across N backend daemons.
//!
//! The fleet is a list of pivot ranges, each with the backends that
//! hold it, and one fan-out rule serves both modes:
//!
//! * **replica** — every backend serves the *same* index image: one
//!   range `[0, n)` held by every backend;
//! * **shard** — each backend serves one pivot-range shard split by
//!   `hopdb-cli shard` ([`hoplabels::shard`]): k ranges held by one
//!   backend each.
//!
//! A 2-hop answer is the minimum over the pivots both labels share, so
//! the least of the answers over ranges that together hold every pivot
//! is the exact unsharded answer ([`hoplabels::shard::min_merge`]). So
//! a batch goes whole to every range — clients speak original ids, and
//! a pair's ids say nothing about where its winning pivot lies — each
//! part to the least-loaded holder of its range (round-robin tiebreak),
//! and the parts min-merge back. On a
//! transport error a part is retried on the range's next holder,
//! `max(holders, 2)` attempts in all (queries are idempotent), so
//! killing one of N replicas loses no accepted query, and a dead shard
//! fails only the batches that needed it.
//!
//! Update batches (replica mode) are validated once at the router, then
//! applied to *every* replica behind a dispatch barrier: no later job is
//! dispatched until all replicas acked, so queries submitted after an
//! update observe it on whichever replica answers them. Shard routers
//! reject updates, and each shard backend refuses updates and
//! compactions itself: mutate the source graph and re-shard instead.
//! Rolling generation swaps are *not* routed — operators drive `admin
//! swap`/`admin compact` against each backend in turn while the router
//! keeps serving.
//!
//! The endpoint *is* the single-node daemon's — the same `crate::front`
//! loop, job queue, stop path and [`ServerHandle`], with the router's
//! `Service` (its `info`, and the swaps, compactions and shard-mode
//! updates it refuses) and its dispatcher as the stage — so a router is
//! wire-compatible with a plain daemon for queries, `info`, `GET
//! /stats` and (replica mode) updates: framing (HOPQ and HTTP alike),
//! error discipline, backpressure and the batch hand-off are one
//! implementation. Topology is probed once at startup by reading every
//! backend's `info` and validated hard: the fleet must agree on vertex
//! count and direction, and its ranges must tile the pivot space
//! exactly; `--route` must name what the backends report. Every backend
//! translates ids through its image's `.rank` (a node without one does
//! not boot), so agreeing on the image is agreeing on the id space.
//!
//! ```text
//! front thread           dispatcher thread           worker threads (1/backend)
//!   wait for readiness      next_batch: all queued       own Client per backend
//!   cut frames     ──────►    coalesce + range-check      (plus failover clients)
//!   answer info inline        one part per range + Merge ─► query part, retry on
//!                             (least-inflight holder)       next holder, min-merge
//!   flush responses ◄──────────── Completions + WakeFd wake ◄───┘
//! ```

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use hoplabels::shard::min_merge;
use sfgraph::{Dist, INF_DIST};

use crate::backend::out_of_range;
use crate::batch::{run_batch, BatchWork, QueryJob, Stage};
use crate::client::Client;
use crate::front::{self, FrontConfig, FrontHandle, ServerHandle, Service, Traffic};
use crate::proto::{
    mode_name, InfoReply, RequestBody, DURABILITY_DISABLED, ROUTE_REPLICA, ROUTE_SHARD,
    ROUTE_SINGLE, VERSION,
};
use crate::server::validate_update_edges;

/// What the operator declares the fleet to be. The startup probe holds
/// the backends to it, and a shard router refuses updates; the fan-out
/// itself is the same for both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteMode {
    /// Every backend serves the same image: one range, many holders.
    Replica,
    /// Each backend serves one pivot-range shard: many ranges, one
    /// holder each.
    Shard,
}

impl std::str::FromStr for RouteMode {
    type Err = String;

    fn from_str(s: &str) -> Result<RouteMode, String> {
        match s {
            "replica" => Ok(RouteMode::Replica),
            "shard" => Ok(RouteMode::Shard),
            other => Err(format!("unknown route mode '{other}' (want replica or shard)")),
        }
    }
}

/// Tunables for [`serve_router`]. `front` is the struct
/// [`crate::ServerConfig`] embeds too; the connect knobs govern the
/// startup probe and per-worker backend connections.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Replica fleet or shard fleet.
    pub mode: RouteMode,
    /// Backend daemon addresses (shard mode: one per shard, any order —
    /// ownership comes from each backend's `.shard` sidecar).
    pub backends: Vec<SocketAddr>,
    /// What the serving loop enforces on its peers.
    pub front: FrontConfig,
    /// TCP connect timeout per backend; also installed as each backend
    /// connection's I/O timeout so a hung backend surfaces as
    /// `TimedOut` and fails over instead of wedging a worker.
    pub connect_timeout: Duration,
    /// Extra connect attempts during the startup probe (backends may
    /// still be booting when the router starts).
    pub connect_retries: u32,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            mode: RouteMode::Replica,
            backends: Vec::new(),
            front: FrontConfig::default(),
            connect_timeout: Duration::from_secs(5),
            connect_retries: 20,
        }
    }
}

/// One pivot range of the fleet and the backends that hold it.
struct Range {
    /// How errors name the range: `replica` or `shard <i>`.
    name: String,
    /// Positions in `--backends` of the backends serving the range.
    holders: Vec<usize>,
}

/// What the startup probe learned (constant for the router's lifetime).
struct Topology {
    /// The fleet's part of the router's `info`: everything but the
    /// counters.
    info: InfoReply,
    /// The ranges tiling the pivot space.
    ranges: Vec<Range>,
}

struct RouterShared {
    config: RouterConfig,
    topology: Topology,
    /// The serving loop's job queue, completion pile, and stop switch.
    front: FrontHandle,
    /// Query parts retried after a transport error — the kill-one-
    /// backend observable.
    failovers: AtomicU64,
}

fn other(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

/// Bind `addr`, probe and validate the backend topology, and start
/// routing. Returns once the listener is bound and every backend
/// answered the `info` probe. Fails with `ErrorKind::Unsupported`
/// on targets without a readiness API (anything but unix).
pub fn serve_router(
    addr: impl ToSocketAddrs,
    config: RouterConfig,
) -> std::io::Result<ServerHandle> {
    if config.backends.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one --backends address",
        ));
    }
    let front = FrontHandle::new()?;
    let topology = probe_topology(&config)?;
    let listener = TcpListener::bind(addr)?;
    let limits = config.front;
    let shared = Arc::new(RouterShared {
        config,
        topology,
        front: front.clone(),
        failovers: AtomicU64::new(0),
    });
    front::spawn(listener, Arc::clone(&shared), front, limits, || {
        let mut threads = Vec::new();
        let mut ports = Vec::new();
        for index in 0..shared.config.backends.len() {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            let depth = Arc::new(AtomicUsize::new(0));
            ports.push(WorkerPort { tx, depth: Arc::clone(&depth) });
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared, index, &depth, &rx)));
        }
        threads.push(std::thread::spawn(move || dispatcher_loop(&shared, ports)));
        threads
    })
}

/// Connect to every backend, fetch its `info`, and validate that the
/// set forms the fleet `config.mode` declares: its ranges and the
/// router's `info`.
fn probe_topology(config: &RouterConfig) -> std::io::Result<Topology> {
    let mut infos: Vec<InfoReply> = Vec::new();
    for addr in &config.backends {
        let mut client =
            Client::connect_retry(addr, Some(config.connect_timeout), config.connect_retries)
                .map_err(|e| other(format!("backend {addr}: connect: {e}")))?;
        let info = client.info().map_err(|e| other(format!("backend {addr}: info: {e}")))?;
        if info.mode != ROUTE_SINGLE {
            return Err(other(format!(
                "backend {addr} is itself a router (mode {}); routers do not stack",
                mode_name(info.mode)
            )));
        }
        infos.push(info);
    }
    // One id space: the same image, each behind its `.rank`.
    let first = infos[0];
    let space = |i: &InfoReply| (i.vertices, i.directed);
    for (addr, info) in config.backends.iter().zip(&infos) {
        if space(info) != space(&first) {
            return Err(other(format!(
                "backend {addr} serves {} vertices (directed={}) but backend {} serves {} \
                 (directed={}) — every backend must serve the same image",
                info.vertices, info.directed, config.backends[0], first.vertices, first.directed
            )));
        }
    }
    let k = config.backends.len() as u32;
    let fleet = InfoReply {
        protocol: VERSION,
        generation: infos.iter().map(|i| i.generation).max().unwrap_or(0),
        vertices: first.vertices,
        directed: first.directed,
        durability: DURABILITY_DISABLED,
        backends: k,
        ..InfoReply::default()
    };
    let (ranges, info) = match config.mode {
        RouteMode::Replica => {
            for (addr, info) in config.backends.iter().zip(&infos) {
                if info.shard_count != 0 {
                    return Err(other(format!(
                        "backend {addr} serves shard {}/{} — use --route shard",
                        info.shard_index, info.shard_count
                    )));
                }
            }
            let all = Range { name: "replica".to_string(), holders: (0..infos.len()).collect() };
            (vec![all], InfoReply { mode: ROUTE_REPLICA, ..fleet })
        }
        RouteMode::Shard => {
            let mut seen = vec![false; k as usize];
            for (addr, info) in config.backends.iter().zip(&infos) {
                if info.shard_count != k {
                    return Err(other(format!(
                        "backend {addr} carries a {}-way shard map but {k} backends were given",
                        info.shard_count
                    )));
                }
                if info.shard_index >= k || seen[info.shard_index as usize] {
                    return Err(other(format!(
                        "backend {addr} claims shard slot {} twice or out of range",
                        info.shard_index
                    )));
                }
                seen[info.shard_index as usize] = true;
            }
            let mut tiles: Vec<(u32, u32)> =
                infos.iter().map(|i| (i.shard_lo, i.shard_hi)).collect();
            tiles.sort_unstable();
            let mut expect = 0u32;
            for &(lo, hi) in &tiles {
                if lo != expect {
                    return Err(other(format!(
                        "shard ranges do not tile the pivot space: \
                         range starts at {lo}, expected {expect}"
                    )));
                }
                expect = hi;
            }
            if u64::from(expect) != first.vertices {
                return Err(other(format!(
                    "shard ranges stop at pivot {expect} but the image has {} vertices",
                    first.vertices
                )));
            }
            let ranges = infos
                .iter()
                .enumerate()
                .map(|(b, i)| Range { name: format!("shard {}", i.shard_index), holders: vec![b] })
                .collect();
            let info = InfoReply {
                mode: ROUTE_SHARD,
                shard_hi: first.vertices.min(u64::from(u32::MAX)) as u32,
                shard_count: k,
                ..fleet
            };
            (ranges, info)
        }
    };
    Ok(Topology { info, ranges })
}

// ---------------------------------------------------------------------
// Dispatcher + workers
// ---------------------------------------------------------------------

/// Work handed from the dispatcher to a backend worker.
enum WorkItem {
    /// One range's answer to a query batch, to fold into the batch's
    /// merge.
    Query(Part),
    /// Replica mode: apply an update batch to this worker's backend.
    Update { edges: Arc<Vec<(u32, u32, u32)>>, done: mpsc::Sender<Result<(u64, u64), String>> },
}

/// Range `range`'s share of a batch — all of its pairs — sent first to
/// the range's holder at `at`.
struct Part {
    range: usize,
    at: usize,
    merge: Arc<Merge>,
}

struct WorkerPort {
    tx: mpsc::Sender<WorkItem>,
    /// Queued-but-unfinished items: the least-inflight routing signal.
    depth: Arc<AtomicUsize>,
}

fn send(port: &WorkerPort, item: WorkItem) {
    port.depth.fetch_add(1, Ordering::Relaxed);
    if port.tx.send(item).is_err() {
        port.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Cross-range min-merge state for one batch: the last part to land
/// completes every job (or fails them all if any range was unreachable).
struct Merge {
    work: BatchWork,
    acc: Mutex<MergeAcc>,
}

struct MergeAcc {
    dists: Vec<Dist>,
    pending: usize,
    failed: Option<String>,
}

impl Merge {
    fn fold(&self, part: Result<Vec<Dist>, String>) {
        let mut acc = match self.acc.lock() {
            Ok(acc) => acc,
            Err(poisoned) => poisoned.into_inner(),
        };
        match part {
            Ok(dists) => min_merge(&mut acc.dists, &dists),
            Err(e) => {
                if acc.failed.is_none() {
                    acc.failed = Some(e);
                }
            }
        }
        acc.pending -= 1;
        if acc.pending == 0 {
            let failed = acc.failed.take();
            let dists = std::mem::take(&mut acc.dists);
            drop(acc);
            match failed {
                None => self.work.complete(&dists),
                Some(e) => self.work.fail(&e),
            }
        }
    }
}

fn dispatcher_loop(shared: &RouterShared, ports: Vec<WorkerPort>) {
    let (batcher, completions) = (&shared.front.batcher, &shared.front.completions);
    let mut dispatcher = Dispatcher { shared, ports, rr: 0 };
    while let Some(jobs) = batcher.next_batch() {
        run_batch(jobs, completions, &mut dispatcher);
    }
}

/// The router's [`Stage`]: query runs are forwarded to the workers and
/// answered by them; an update is a barrier across every replica. Swaps
/// and compactions are refused at the front and never reach it.
struct Dispatcher<'a> {
    shared: &'a RouterShared,
    ports: Vec<WorkerPort>,
    /// Where the round-robin tiebreak of the holder pick stands.
    rr: usize,
}

impl Stage for Dispatcher<'_> {
    /// Coalesce `jobs` into as few backend frames as the backends'
    /// batch limit allows — one batch can hold several frames that are
    /// each legal and together are not — and forward each.
    fn queries(&mut self, jobs: Vec<QueryJob>) {
        let sizes: Vec<usize> = jobs.iter().map(|(_, _, pairs)| pairs.len()).collect();
        let mut jobs = jobs.into_iter();
        for group in cut_at_max_batch(&sizes, self.shared.config.front.max_batch) {
            let group = jobs.by_ref().take(group.len()).collect();
            dispatch_group(self.shared, &self.ports, &mut self.rr, group);
        }
    }

    fn update(&mut self, edges: Vec<(u32, u32, u32)>) -> Result<(u64, u64), String> {
        dispatch_update(self.shared, &self.ports, edges)
    }
}

/// Cut a run of query jobs, given by their pair counts, into consecutive
/// groups of at most `max_batch` pairs each, never splitting a job: what
/// a backend accepts as one frame. The front refuses frames above
/// `max_batch`, so a job fits on its own; one that did not would still
/// get a group to itself.
fn cut_at_max_batch(sizes: &[usize], max_batch: usize) -> Vec<std::ops::Range<usize>> {
    let mut groups = Vec::new();
    let (mut start, mut pairs) = (0usize, 0usize);
    for (i, &size) in sizes.iter().enumerate() {
        if i > start && pairs.saturating_add(size) > max_batch {
            groups.push(start..i);
            (start, pairs) = (i, 0);
        }
        pairs = pairs.saturating_add(size);
    }
    if start < sizes.len() {
        groups.push(start..sizes.len());
    }
    groups
}

/// Send one group's pairs, as one part per range, each to the
/// least-inflight holder of its range.
fn dispatch_group(
    shared: &RouterShared,
    ports: &[WorkerPort],
    rr: &mut usize,
    jobs: Vec<QueryJob>,
) {
    let topology = &shared.topology;
    let completions = &shared.front.completions;
    let Some(work) = BatchWork::cut(jobs, topology.info.vertices, completions) else { return };
    if work.combined.is_empty() {
        // Zero-pair jobs: answer without a backend round-trip.
        work.complete(&[]);
        return;
    }
    let merge = Arc::new(Merge {
        acc: Mutex::new(MergeAcc {
            dists: vec![INF_DIST; work.combined.len()],
            pending: topology.ranges.len(),
            failed: None,
        }),
        work,
    });
    for (range, Range { holders, .. }) in topology.ranges.iter().enumerate() {
        // Least-inflight pick with a round-robin tiebreak.
        let (mut at, mut best_depth) = (0usize, usize::MAX);
        for off in 0..holders.len() {
            let h = (*rr + off) % holders.len();
            let d = ports[holders[h]].depth.load(Ordering::Relaxed);
            if d < best_depth {
                (at, best_depth) = (h, d);
            }
        }
        *rr = at + 1;
        let part = Part { range, at, merge: Arc::clone(&merge) };
        send(&ports[holders[at]], WorkItem::Query(part));
    }
}

/// Apply `edges` to every replica; `(generation, overlay edges)`, the
/// largest of each, once all have acked.
fn dispatch_update(
    shared: &RouterShared,
    ports: &[WorkerPort],
    edges: Vec<(u32, u32, u32)>,
) -> Result<(u64, u64), String> {
    // Validate once at the router, before any backend sees the batch:
    // a batch that would be nacked must be nacked *everywhere or
    // nowhere*, never half-applied across replicas.
    validate_update_edges(&edges)?;
    let ends = edges.iter().map(|&(s, t, _)| (s, t));
    if let Some(msg) = out_of_range(ends, shared.topology.info.vertices) {
        return Err(msg);
    }
    let edges = Arc::new(edges);
    let (tx, rx) = mpsc::channel();
    for port in ports {
        send(port, WorkItem::Update { edges: Arc::clone(&edges), done: tx.clone() });
    }
    drop(tx);
    // Barrier: every replica acks (or fails) before any later job is
    // dispatched, so queries submitted after this batch observe it on
    // whichever replica answers them.
    let mut applied: Option<(u64, u64)> = None;
    let mut failed: Vec<String> = Vec::new();
    for _ in 0..ports.len() {
        match rx.recv() {
            Ok(Ok((generation, overlay))) => {
                applied = Some(match applied {
                    None => (generation, overlay),
                    Some((g, o)) => (g.max(generation), o.max(overlay)),
                });
            }
            Ok(Err(e)) => failed.push(e),
            Err(_) => failed.push("worker exited".to_string()),
        }
    }
    if failed.is_empty() {
        applied.ok_or_else(|| "no replica applied the update".to_string())
    } else if applied.is_some() {
        Err(format!(
            "update applied on some replicas but failed on: {} — \
             restart the failed backend(s) before further updates",
            failed.join("; ")
        ))
    } else {
        Err(failed.join("; "))
    }
}

fn worker_loop(
    shared: &Arc<RouterShared>,
    index: usize,
    depth: &AtomicUsize,
    rx: &mpsc::Receiver<WorkItem>,
) {
    let mut clients: Vec<Option<Client>> =
        (0..shared.config.backends.len()).map(|_| None).collect();
    while let Ok(item) = rx.recv() {
        match item {
            WorkItem::Query(part) => run_part(shared, &mut clients, &part),
            WorkItem::Update { edges, done } => {
                let _ = done.send(run_update(shared, &mut clients, index, &edges));
            }
        }
        depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Server-reported errors come back as `InvalidData` (the stream stays
/// frame-aligned); anything else is a transport failure worth a
/// failover or reconnect.
fn is_transport(e: &std::io::Error) -> bool {
    e.kind() != std::io::ErrorKind::InvalidData
}

fn client_for<'a>(
    shared: &RouterShared,
    clients: &'a mut [Option<Client>],
    b: usize,
) -> std::io::Result<&'a mut Client> {
    if clients[b].is_none() {
        clients[b] = Some(Client::connect_timeout(
            &shared.config.backends[b],
            shared.config.connect_timeout,
        )?);
    }
    Ok(clients[b].as_mut().expect("just connected"))
}

/// Run `request` on backend `b`, dropping its connection on a transport
/// error so the next attempt reconnects.
fn call<T>(
    shared: &RouterShared,
    clients: &mut [Option<Client>],
    b: usize,
    request: impl FnOnce(&mut Client) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let result = client_for(shared, clients, b).and_then(request);
    if matches!(&result, Err(e) if is_transport(e)) {
        clients[b] = None;
    }
    result
}

/// Answer one part on its range's holders, from the one at `part.at` on,
/// and fold it into the batch's merge. A transport error moves to the
/// next holder — through a fresh connection, on a range with one
/// holder — for `max(holders, 2)` attempts in all; a server-reported
/// error is the part's answer.
fn run_part(shared: &RouterShared, clients: &mut [Option<Client>], part: &Part) {
    let range = &shared.topology.ranges[part.range];
    let tries = range.holders.len().max(2);
    let mut attempt = 0;
    let answer = loop {
        let b = range.holders[(part.at + attempt) % range.holders.len()];
        match call(shared, clients, b, |c| c.query(&part.merge.work.combined)) {
            Ok(dists) => break Ok(dists),
            Err(e) if is_transport(&e) && attempt + 1 < tries => {
                shared.failovers.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
            }
            Err(e) => break Err(format!("{} ({}): {e}", range.name, shared.config.backends[b])),
        }
    };
    part.merge.fold(answer);
}

fn run_update(
    shared: &RouterShared,
    clients: &mut [Option<Client>],
    own: usize,
    edges: &[(u32, u32, u32)],
) -> Result<(u64, u64), String> {
    let mut result = call(shared, clients, own, |c| c.update(edges));
    if matches!(&result, Err(e) if is_transport(e)) {
        // Overlay insertion dedupes to the minimum weight per pair, so
        // re-sending a possibly-applied batch is idempotent.
        result = call(shared, clients, own, |c| c.update(edges));
    }
    result.map_err(|e| format!("backend {}: {e}", shared.config.backends[own]))
}

// ---------------------------------------------------------------------
// Service (what the shared front asks of a router)
// ---------------------------------------------------------------------

const MSG_SWAP_NOT_ROUTED: &str =
    "swap is not routed: point `admin swap` at each backend in turn (rolling swap)";
const MSG_COMPACT_NOT_ROUTED: &str =
    "compact is not routed: point `admin compact` at each backend in turn";
const MSG_SHARD_NO_UPDATES: &str =
    "a shard router does not take updates: rebuild and re-shard the image, or use --route replica";

impl Service for RouterShared {
    const NAME: &'static str = "router";

    fn refuses(&self, body: &RequestBody) -> Option<&'static str> {
        match body {
            RequestBody::Swap => Some(MSG_SWAP_NOT_ROUTED),
            RequestBody::Compact => Some(MSG_COMPACT_NOT_ROUTED),
            RequestBody::Update(_) if self.config.mode == RouteMode::Shard => {
                Some(MSG_SHARD_NO_UPDATES)
            }
            _ => None,
        }
    }

    /// The fleet-wide view: the probed topology — with the whole pivot
    /// space as a shard router's "shard" — and the router's counters.
    fn info(&self, traffic: Traffic) -> InfoReply {
        InfoReply {
            requests: traffic.requests,
            protocol_errors: traffic.protocol_errors,
            failovers: self.failovers.load(Ordering::Relaxed),
            ..self.topology.info
        }
    }
}

#[cfg(test)]
mod tests {
    use super::cut_at_max_batch;

    #[test]
    fn coalesced_groups_respect_the_backend_batch_limit() {
        const MAX: usize = 65_536;
        // Two legal frames that together are not: one group each.
        assert_eq!(cut_at_max_batch(&[50_000, 50_000], MAX), vec![0..1, 1..2]);
        // A lone maximal job passes; small ones still coalesce around it.
        assert_eq!(cut_at_max_batch(&[MAX], MAX), vec![0..1]);
        assert_eq!(cut_at_max_batch(&[10, MAX, 10, 20], MAX), vec![0..1, 1..2, 2..4]);
        assert_eq!(cut_at_max_batch(&[1; 100], MAX), vec![0..100]);
        assert_eq!(cut_at_max_batch(&[0, 0, 0], MAX), vec![0..3]);
        assert!(cut_at_max_batch(&[], MAX).is_empty());
        // Defensive: an oversized job is forwarded alone, not merged —
        // between others, and when it is all there is.
        assert_eq!(cut_at_max_batch(&[1, MAX + 1, 1], MAX), vec![0..1, 1..2, 2..3]);
        assert_eq!(cut_at_max_batch(&[MAX + 1], MAX), vec![0..1]);

        // In general: the groups tile the jobs in order, none is empty,
        // none carries more than the limit, and none could have taken
        // the next job as well.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for max in [1usize, 7, 100, 1000] {
            let sizes: Vec<usize> = (0..200)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 33) as usize % (max + 1)
                })
                .collect();
            let groups = cut_at_max_batch(&sizes, max);
            let sum = |g: &std::ops::Range<usize>| sizes[g.clone()].iter().sum::<usize>();
            assert_eq!(groups.first().map(|g| g.start), Some(0));
            assert_eq!(groups.last().map(|g| g.end), Some(sizes.len()));
            assert!(groups.windows(2).all(|w| w[0].end == w[1].start), "{groups:?}");
            for g in &groups {
                assert!(!g.is_empty() && sum(g) <= max, "group {g:?} of {} > {max}", sum(g));
                assert!(g.end == sizes.len() || sum(g) + sizes[g.end] > max, "{g:?} cut early");
            }
        }
    }
}
