//! End-to-end router tests: a real listener fronting real backend
//! daemons, asserting the scale-out answer paths are *byte-identical*
//! to a single daemon over the unsharded index — replica and shard
//! modes, directed and undirected, under a concurrent rolling swap —
//! that killing one of two replicas mid-fire loses zero accepted
//! queries, that a dead shard fails only the batches that need it, and
//! that a backend without its `.rank` never boots, so no fleet can mix
//! id spaces.
//!
//! Backends serve images behind an identity `.rank` sidecar, so the
//! wire's ids are the rank ids and the oracle is `FlatIndex::query_many`
//! on the source image directly.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hopdb::{build_prelabeled, HopDbConfig};
use hopdb_server::{
    serve, serve_router, Client, RouteMode, RouterConfig, ServerConfig, ServerHandle,
};
use hoplabels::flat::FlatIndex;
use hoplabels::shard_image;
use sfgraph::builder::GraphBuilder;
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy, Ranking};
use sfgraph::{Dist, VertexId};

const N: usize = 120;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A connected scale-free-ish graph: a ring for connectivity plus
/// random weighted chords, deterministic in `seed`.
fn test_graph(directed: bool, seed: u64) -> sfgraph::Graph {
    let mut rng = Lcg(seed | 1);
    let mut b =
        if directed { GraphBuilder::new_directed(N) } else { GraphBuilder::new_undirected(N) }
            .weighted();
    for v in 0..N as VertexId {
        b.add_weighted_edge(v, (v + 1) % N as VertexId, 1 + rng.below(3) as Dist);
    }
    for _ in 0..3 * N {
        let (s, t) = (rng.below(N as u64) as VertexId, rng.below(N as u64) as VertexId);
        if s != t {
            b.add_weighted_edge(s, t, 1 + rng.below(4) as Dist);
        }
    }
    b.build()
}

struct Fixture {
    dir: PathBuf,
    image: Vec<u8>,
    flat: FlatIndex,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn fixture(tag: &str, directed: bool) -> Fixture {
    let dir = std::env::temp_dir().join(format!("hopdb-router-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("fixture dir");

    let g = test_graph(directed, 0xD15C0);
    let ranking = rank_vertices(&g, &RankBy::paper_default(&g));
    let relabeled = relabel_by_rank(&g, &ranking);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let mut image = Vec::new();
    index.write_hopidx(&mut image).expect("serialize");
    let flat = FlatIndex::from_hopidx_bytes(&image).expect("flat");
    Fixture { dir, image, flat }
}

/// `path` with `ext` appended to its file name: where a sidecar sits.
fn sidecar(path: &Path, ext: &str) -> PathBuf {
    PathBuf::from(format!("{}.{ext}", path.display()))
}

impl Fixture {
    /// Stage `image` at `name`, behind the identity ranking's `.rank`.
    fn stage(&self, name: &str, image: &[u8]) -> PathBuf {
        let path = self.dir.join(name);
        std::fs::write(&path, image).expect("stage image");
        std::fs::write(sidecar(&path, "rank"), Ranking::identity(N).to_sidecar_bytes())
            .expect("stage .rank");
        path
    }

    /// Stage the whole image at `name` and boot a backend over it.
    fn backend(&self, name: &str) -> ServerHandle {
        let path = self.stage(name, &self.image);
        serve("127.0.0.1:0", &path, ServerConfig::default()).expect("backend")
    }

    /// Split into `k` shard images (with `.shard` sidecars) and boot a
    /// stock daemon over each.
    fn shard_backends(&self, k: usize) -> Vec<ServerHandle> {
        self.shard_backends_with(k, &ServerConfig::default())
    }

    fn shard_backends_with(&self, k: usize, config: &ServerConfig) -> Vec<ServerHandle> {
        shard_image(&self.image, k)
            .expect("shard")
            .into_iter()
            .map(|(image, spec)| {
                let path = self.stage(&format!("shard{}.idx", spec.index), &image);
                std::fs::write(sidecar(&path, "shard"), spec.encode()).expect("stage sidecar");
                serve("127.0.0.1:0", &path, config.clone()).expect("shard backend")
            })
            .collect()
    }

    /// Deterministic probe pairs: self pairs, neighbours, far pairs.
    fn probes(&self) -> Vec<(VertexId, VertexId)> {
        let mut pairs = Vec::with_capacity(3 * N);
        for i in 0..N as VertexId {
            pairs.push((i, i));
            pairs.push((i, (i * 37 + 11) % N as VertexId));
            pairs.push(((i * 53 + 7) % N as VertexId, i));
        }
        pairs
    }

    fn oracle(&self, pairs: &[(VertexId, VertexId)]) -> Vec<Dist> {
        self.flat.query_many(pairs, 1)
    }
}

fn router(mode: RouteMode, backends: Vec<SocketAddr>) -> ServerHandle {
    let config = RouterConfig {
        mode,
        backends,
        connect_timeout: Duration::from_secs(10),
        ..RouterConfig::default()
    };
    serve_router("127.0.0.1:0", config).expect("router")
}

/// The shared shape of the identity checks: boot backends, front them
/// with a router, and assert routed answers equal the single-node
/// oracle while each backend is rolling-swapped under fire.
fn assert_routed_identical(mode: RouteMode, directed: bool, tag: &str) {
    let fx = fixture(tag, directed);
    let backends: Vec<ServerHandle> = match mode {
        RouteMode::Replica => vec![fx.backend("a.idx"), fx.backend("b.idx")],
        RouteMode::Shard => fx.shard_backends(2),
    };
    let backend_addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let rt = router(mode, backend_addrs.clone());

    let pairs = fx.probes();
    let expect = fx.oracle(&pairs);

    // Plain identity first, whole batch and split batches.
    let mut client = Client::connect(rt.local_addr()).expect("client");
    assert_eq!(client.query(&pairs).expect("routed batch"), expect, "{tag}: routed batch");
    for (i, chunk) in pairs.chunks(7).enumerate() {
        let at = i * 7;
        let got = client.query(chunk).expect("routed chunk");
        assert_eq!(got, expect[at..at + chunk.len()], "{tag}: chunk {i}");
    }

    // The info a client sees at the router names the mode and the fleet.
    let info = client.info().expect("info");
    let want_mode = match mode {
        RouteMode::Replica => hopdb_server::proto::ROUTE_REPLICA,
        RouteMode::Shard => hopdb_server::proto::ROUTE_SHARD,
    };
    assert_eq!(info.mode, want_mode);
    assert_eq!((info.vertices, info.directed), (N as u64, directed));
    assert_eq!(info.backends, 2);
    let shards = if mode == RouteMode::Shard { 2 } else { 0 };
    assert_eq!((info.shard_count, info.shard_hi), (shards, shards / 2 * N as u32));

    // Rolling swap: promote each backend in turn (no swap path = the
    // boot image reloads, bumping the generation without changing
    // answers) while a fleet keeps firing through the router. Every
    // answer across the promotions must stay byte-identical.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..3)
            .map(|c| {
                let (stop, pairs, expect) = (&stop, &pairs, &expect);
                let addr = rt.local_addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("fleet connect");
                    let mut at = (c * 41) % pairs.len();
                    let mut answered = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let end = (at + 16).min(pairs.len());
                        let got = client.query(&pairs[at..end]).expect("query under swap");
                        assert_eq!(got, expect[at..end], "answer changed under rolling swap");
                        answered += end - at;
                        at = if end == pairs.len() { 0 } else { end };
                    }
                    answered
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(30));
        for addr in &backend_addrs {
            let mut admin = Client::connect(addr).expect("admin connect");
            let (generation, _) = admin.swap().expect("rolling swap");
            assert!(generation >= 2, "swap did not bump the generation");
            std::thread::sleep(Duration::from_millis(30));
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
        let answered: usize = fleet.into_iter().map(|h| h.join().expect("fleet")).sum();
        assert!(answered > 0, "the fleet never got a query through");
    });

    drop(client);
    rt.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn replica_router_is_byte_identical_undirected() {
    assert_routed_identical(RouteMode::Replica, false, "rep-u");
}

#[test]
fn replica_router_is_byte_identical_directed() {
    assert_routed_identical(RouteMode::Replica, true, "rep-d");
}

#[test]
fn shard_router_is_byte_identical_undirected() {
    assert_routed_identical(RouteMode::Shard, false, "shard-u");
}

#[test]
fn shard_router_is_byte_identical_directed() {
    assert_routed_identical(RouteMode::Shard, true, "shard-d");
}

#[test]
fn killing_one_replica_loses_no_accepted_queries() {
    let fx = fixture("kill", false);
    let a = fx.backend("a.idx");
    let b = fx.backend("b.idx");
    let rt = router(RouteMode::Replica, vec![a.local_addr(), b.local_addr()]);

    let pairs = fx.probes();
    let expect = fx.oracle(&pairs);
    let mut client = Client::connect(rt.local_addr()).expect("client");

    // Warm both backend connections, then kill one mid-fire. Every
    // accepted query must still answer, correctly — the router owes the
    // client an answer for everything it has taken, kill or no kill.
    let mut killed = Some(b);
    for round in 0..300 {
        let at = (round * 13) % (pairs.len() - 16);
        let got = client.query(&pairs[at..at + 16]).expect("query across the kill");
        assert_eq!(got, expect[at..at + 16], "round {round}");
        if round == 40 {
            killed.take().expect("one kill").shutdown();
        }
    }
    let failovers = client.info().expect("info").failovers;
    assert!(failovers > 0, "the dead replica was never picked — the kill proved nothing");

    // Updates refuse to silently diverge the fleet: with one replica
    // dead the router applies where it can and *reports* the partial
    // failure instead of acking a half-applied batch.
    let err = client.update(&[(0, 64, 1)]).expect_err("update must report the dead replica");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("failed on"), "{err}");
    // Queries keep flowing after the refused update.
    assert_eq!(client.query(&pairs[..16]).expect("query after"), expect[..16]);

    rt.shutdown();
    a.shutdown();
}

/// Two legal frames that reach the dispatcher in one batch may not be
/// forwarded as one illegal one: the router coalesces only up to the
/// backends' batch limit. Pipelined back to back they usually share a
/// batch and need not — answers equal the oracle in both modes either
/// way; the cut itself is pinned by `router.rs`'s unit test.
#[test]
fn frames_coalesced_past_the_backend_limit_are_cut_on_job_boundaries() {
    const FRAME: usize = 40_000; // two of them exceed DEFAULT_MAX_BATCH = 65 536
    let fx = fixture("cut", false);
    let pairs: Vec<(VertexId, VertexId)> =
        (0..FRAME as u32).map(|i| (i % N as u32, (i * 13 + i / 7) % N as u32)).collect();
    let (first, second) = (&pairs[..], &pairs[1..]);
    for mode in [RouteMode::Replica, RouteMode::Shard] {
        let backends: Vec<ServerHandle> = match mode {
            RouteMode::Replica => vec![fx.backend("a.idx"), fx.backend("b.idx")],
            RouteMode::Shard => fx.shard_backends(2),
        };
        let rt = router(mode, backends.iter().map(|b| b.local_addr()).collect());
        let mut client = Client::connect(rt.local_addr()).expect("client");
        let session = client.session();
        let tickets = [first, second].map(|frame| session.submit(frame).expect("submit"));
        for (ticket, frame) in tickets.into_iter().zip([first, second]) {
            let got = session.wait(ticket).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(got, fx.oracle(frame), "{mode:?}");
        }
        drop(client);
        rt.shutdown();
        for b in backends {
            b.shutdown();
        }
    }
}

#[test]
fn replica_router_fans_updates_and_nacks_bad_weights() {
    let fx = fixture("upd", false);
    let a = fx.backend("a.idx");
    let b = fx.backend("b.idx");
    let rt = router(RouteMode::Replica, vec![a.local_addr(), b.local_addr()]);
    let mut client = Client::connect(rt.local_addr()).expect("client");

    // Pick a pair that is far apart, then insert a direct edge through
    // the router. Every subsequent query must see it no matter which
    // replica answers — fire enough rounds to hit both.
    let (s, t) = (3, 71);
    let before = client.query_one(s, t).expect("before");
    assert!(before > 1, "probe pair is already adjacent; pick another");
    client.update(&[(s, t, 1)]).expect("routed update");
    for round in 0..24 {
        assert_eq!(client.query_one(s, t).expect("after"), 1, "round {round}");
    }

    // A zero-weight edge is nacked as a *recoverable* error: the batch
    // applies nowhere (no replica divergence), the connection lives on.
    let err = client.update(&[(1, 2, 1), (4, 5, 0)]).expect_err("zero weight must nack");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("weight 0"), "{err}");
    let after = client.query_one(1, 2).expect("connection survives the nack");
    // The batch was atomic: the valid half must not have applied on
    // either replica (the pre-update distance still serves everywhere).
    let unrouted = fx.oracle(&[(1, 2)])[0];
    for _ in 0..24 {
        assert_eq!(client.query_one(1, 2).expect("atomic nack"), unrouted);
    }
    assert_eq!(after, unrouted);

    // Admin verbs that must not silently fan out are refused, politely.
    let swap = client.swap().expect_err("swap is not routed");
    assert_eq!(swap.kind(), ErrorKind::InvalidData);
    assert!(swap.to_string().contains("rolling swap"), "{swap}");

    rt.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn shard_router_refuses_updates_and_swaps() {
    let fx = fixture("shard-adm", false);
    let backends = fx.shard_backends(2);
    let rt = router(RouteMode::Shard, backends.iter().map(|b| b.local_addr()).collect());
    let mut client = Client::connect(rt.local_addr()).expect("client");

    let err = client.update(&[(0, 1, 1)]).expect_err("shard updates are refused");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("re-shard"), "{err}");
    let err = client.swap().expect_err("swap is not routed");
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    // The refusals are recoverable: queries still flow afterwards.
    let pairs = fx.probes();
    assert_eq!(client.query(&pairs[..32]).expect("query after nacks"), fx.oracle(&pairs[..32]));

    rt.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A node serving one shard of a split image refuses updates and
/// compactions itself, over `HOPQ` and HTTP alike: an overlay edge would
/// be joined against the shard's upper bounds, and a rebuild would serve
/// the whole graph in the place of shard k. Both are refused even with
/// `--graph` set, and the shard keeps answering as it did.
#[test]
fn shard_backends_refuse_updates_and_compactions() {
    use std::io::{Read as _, Write as _};

    let fx = fixture("shard-mut", false);
    let source = fx.dir.join("source.txt");
    let file = std::fs::File::create(&source).expect("source graph");
    sfgraph::io::write_edge_list(&test_graph(false, 0xD15C0), std::io::BufWriter::new(file))
        .expect("write source graph");
    let config = ServerConfig {
        source_graph: Some(source),
        compact_threshold: 0,
        ..ServerConfig::default()
    };
    let backends = fx.shard_backends_with(2, &config);
    let pairs = fx.probes();
    for backend in &backends {
        let mut client = Client::connect(backend.local_addr()).expect("client");
        let before = client.query(&pairs).expect("shard answers");
        let shard = format!("shard {} of 2", client.info().expect("info").shard_index);

        let err = client.update(&[(0, 64, 1)]).expect_err("a shard takes no update");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&shard) && err.to_string().contains("re-shard"), "{err}");
        let err = client.compact().expect_err("a shard takes no compaction");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&shard) && err.to_string().contains("re-shard"), "{err}");

        let body = r#"{"edges":[[0,64,1]]}"#;
        let mut sock = std::net::TcpStream::connect(backend.local_addr()).expect("http connect");
        write!(
            sock,
            "POST /update HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("http write");
        let mut reply = String::new();
        sock.read_to_string(&mut reply).expect("http read");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains(&shard) && reply.contains("re-shard"), "{reply}");

        let info = client.info().expect("info");
        assert_eq!((info.generation, info.overlay_edges, info.compactions), (1, 0, 0));
        assert_eq!(client.query(&pairs).expect("shard answers after"), before);
    }
    let rt = router(RouteMode::Shard, backends.iter().map(|b| b.local_addr()).collect());
    let mut client = Client::connect(rt.local_addr()).expect("client");
    assert_eq!(client.query(&pairs).expect("routed batch"), fx.oracle(&pairs));

    drop(client);
    rt.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Kill one of two shard backends: a batch that needs it gets an error
/// naming the shard, after one reconnect attempt, instead of hanging;
/// the client's connection to the router lives on.
#[test]
fn a_dead_shard_fails_only_its_batch() {
    let fx = fixture("shard-kill", false);
    let mut backends = fx.shard_backends(2);
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let rt = router(RouteMode::Shard, addrs.clone());
    let mut client = Client::connect(rt.local_addr()).expect("client");
    let pairs = fx.probes();
    assert_eq!(client.query(&pairs).expect("both shards up"), fx.oracle(&pairs));
    assert_eq!(client.info().expect("info").failovers, 0);

    backends.pop().expect("shard 1").shutdown();
    let err = client.query(&pairs).expect_err("a batch that needs the dead shard must fail");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(&format!("shard 1 ({})", addrs[1])), "{err}");
    let info = client.info().expect("the connection outlives the failed batch");
    assert!(info.failovers >= 1, "the dead shard's part was never retried");

    drop(client);
    rt.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A backend whose image lost its `.rank` would answer in rank ids
/// while its peers translate original ids; it refuses to boot instead,
/// naming the missing file, so no router ever sees a fleet of two id
/// spaces.
fn assert_backend_without_its_rank_does_not_boot(mode: RouteMode, tag: &str) {
    let fx = fixture(tag, false);
    let path = match mode {
        RouteMode::Replica => fx.stage("b.idx", &fx.image),
        RouteMode::Shard => {
            let (image, spec) = shard_image(&fx.image, 2).expect("shard").remove(1);
            let path = fx.stage("b.idx", &image);
            std::fs::write(sidecar(&path, "shard"), spec.encode()).expect("stage .shard");
            path
        }
    };
    let rank = sidecar(&path, "rank");
    std::fs::remove_file(&rank).expect("drop .rank");
    let err = serve("127.0.0.1:0", &path, ServerConfig::default()).err().expect("no boot");
    assert_eq!(err.kind(), ErrorKind::NotFound, "{mode:?}: {err}");
    assert!(err.to_string().starts_with(&format!("{}: ", rank.display())), "{mode:?}: {err}");
}

#[test]
fn replica_backend_without_its_rank_does_not_boot() {
    assert_backend_without_its_rank_does_not_boot(RouteMode::Replica, "ids-rep");
}

#[test]
fn shard_backend_without_its_rank_does_not_boot() {
    assert_backend_without_its_rank_does_not_boot(RouteMode::Shard, "ids-shard");
}

#[test]
fn router_serves_the_http_front() {
    use std::io::{Read as _, Write as _};

    let fx = fixture("http", false);
    let a = fx.backend("a.idx");
    let b = fx.backend("b.idx");
    let rt = router(RouteMode::Replica, vec![a.local_addr(), b.local_addr()]);

    let http = |request: String| -> String {
        let mut sock = std::net::TcpStream::connect(rt.local_addr()).expect("http connect");
        sock.write_all(request.as_bytes()).expect("http write");
        let mut reply = String::new();
        sock.read_to_string(&mut reply).expect("http read");
        reply
    };

    let expect = fx.oracle(&[(0, 9)])[0];
    let reply = http("GET /query?s=0&t=9 HTTP/1.1\r\nConnection: close\r\n\r\n".to_string());
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains(&format!("\"dist\":{expect}")), "{reply}");

    // The HTTP update path validates weights at the router too.
    let body = r#"{"edges":[[0,9,0]]}"#;
    let reply = http(format!(
        "POST /update HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("weight 0"), "{reply}");

    rt.shutdown();
    a.shutdown();
    b.shutdown();
}
