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
//! wire's ids are the rank ids and the oracle is the testkit's model of
//! the rank-relabeled graph.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hopdb_server::{
    serve, serve_router, Client, RouteMode, RouterConfig, ServerConfig, ServerHandle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfgraph::builder::GraphBuilder;
use sfgraph::VertexId;

#[path = "../../../tests/testkit/mod.rs"]
mod testkit;
use testkit::{sidecar, triples, Deployment, Ids};

const N: usize = 120;

/// The routed image, served in rank ids: a connected scale-free-ish
/// graph, a ring for connectivity plus random weighted chords.
fn deployment(directed: bool) -> Deployment {
    let mut rng = StdRng::seed_from_u64(0xD15C0);
    let mut b =
        if directed { GraphBuilder::new_directed(N) } else { GraphBuilder::new_undirected(N) }
            .weighted();
    for v in 0..N as VertexId {
        b.add_weighted_edge(v, (v + 1) % N as VertexId, rng.gen_range(1..4));
    }
    for _ in 0..3 * N {
        let (s, t) = (rng.gen_range(0..N as VertexId), rng.gen_range(0..N as VertexId));
        if s != t {
            b.add_weighted_edge(s, t, rng.gen_range(1..5));
        }
    }
    Deployment::new(&b.build(), Ids::Rank)
}

/// One stock daemon over each of `k` shard images.
fn shard_backends(dep: &Deployment, k: usize, config: &ServerConfig) -> Vec<ServerHandle> {
    let shards = dep.stage_shards(k).into_iter();
    shards.map(|path| serve("127.0.0.1:0", &path, config.clone()).expect("shard backend")).collect()
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
    let dep = deployment(directed);
    let backends: Vec<ServerHandle> = match mode {
        RouteMode::Replica => (0..2).map(|_| dep.serve(ServerConfig::default())).collect(),
        RouteMode::Shard => shard_backends(&dep, 2, &ServerConfig::default()),
    };
    let backend_addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let rt = router(mode, backend_addrs.clone());

    let pairs = triples(N);
    let expect = dep.model().answers(&pairs);

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
    let dep = deployment(false);
    let (a, b) = (dep.serve(ServerConfig::default()), dep.serve(ServerConfig::default()));
    let rt = router(RouteMode::Replica, vec![a.local_addr(), b.local_addr()]);

    let pairs = triples(N);
    let expect = dep.model().answers(&pairs);
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
    let dep = deployment(false);
    let model = dep.model();
    let pairs: Vec<(VertexId, VertexId)> =
        (0..FRAME as u32).map(|i| (i % N as u32, (i * 13 + i / 7) % N as u32)).collect();
    let (first, second) = (&pairs[..], &pairs[1..]);
    for mode in [RouteMode::Replica, RouteMode::Shard] {
        let backends: Vec<ServerHandle> = match mode {
            RouteMode::Replica => (0..2).map(|_| dep.serve(ServerConfig::default())).collect(),
            RouteMode::Shard => shard_backends(&dep, 2, &ServerConfig::default()),
        };
        let rt = router(mode, backends.iter().map(|b| b.local_addr()).collect());
        let mut client = Client::connect(rt.local_addr()).expect("client");
        let session = client.session();
        let tickets = [first, second].map(|frame| session.submit(frame).expect("submit"));
        for (ticket, frame) in tickets.into_iter().zip([first, second]) {
            let got = session.wait(ticket).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(got, model.answers(frame), "{mode:?}");
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
    let dep = deployment(false);
    let (a, b) = (dep.serve(ServerConfig::default()), dep.serve(ServerConfig::default()));
    let rt = router(RouteMode::Replica, vec![a.local_addr(), b.local_addr()]);
    let mut model = dep.model();
    let mut client = Client::connect(rt.local_addr()).expect("client");

    // Pick a pair that is far apart, then insert a direct edge through
    // the router. Every subsequent query must see it no matter which
    // replica answers — fire enough rounds to hit both.
    let (s, t) = (3, 71);
    let before = client.query_one(s, t).expect("before");
    assert!(before > 1, "probe pair is already adjacent; pick another");
    assert_eq!(before, model.dist(s, t));
    client.update(&[(s, t, 1)]).expect("routed update");
    model.ack(&[(s, t, 1)]);
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
    let unrouted = model.dist(1, 2);
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
    let dep = deployment(false);
    let backends = shard_backends(&dep, 2, &ServerConfig::default());
    let rt = router(RouteMode::Shard, backends.iter().map(|b| b.local_addr()).collect());
    let mut client = Client::connect(rt.local_addr()).expect("client");

    let err = client.update(&[(0, 1, 1)]).expect_err("shard updates are refused");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("re-shard"), "{err}");
    let err = client.swap().expect_err("swap is not routed");
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    // The refusals are recoverable: queries still flow afterwards.
    let pairs = &triples(N)[..32];
    assert_eq!(client.query(pairs).expect("query after nacks"), dep.model().answers(pairs));

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

    let dep = deployment(false);
    let backends = shard_backends(&dep, 2, &dep.compacting());
    let pairs = triples(N);
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
    assert_eq!(client.query(&pairs).expect("routed batch"), dep.model().answers(&pairs));

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
    let dep = deployment(false);
    let mut backends = shard_backends(&dep, 2, &ServerConfig::default());
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let rt = router(RouteMode::Shard, addrs.clone());
    let mut client = Client::connect(rt.local_addr()).expect("client");
    let pairs = triples(N);
    assert_eq!(client.query(&pairs).expect("both shards up"), dep.model().answers(&pairs));
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
fn assert_backend_without_its_rank_does_not_boot(mode: RouteMode) {
    let dep = deployment(false);
    let path = match mode {
        RouteMode::Replica => dep.index_path(),
        RouteMode::Shard => dep.stage_shards(2).remove(1),
    };
    let rank = sidecar(&path, "rank");
    std::fs::remove_file(&rank).expect("drop .rank");
    let err = serve("127.0.0.1:0", &path, ServerConfig::default()).err().expect("no boot");
    assert_eq!(err.kind(), ErrorKind::NotFound, "{mode:?}: {err}");
    assert!(err.to_string().starts_with(&format!("{}: ", rank.display())), "{mode:?}: {err}");
}

#[test]
fn replica_backend_without_its_rank_does_not_boot() {
    assert_backend_without_its_rank_does_not_boot(RouteMode::Replica);
}

#[test]
fn shard_backend_without_its_rank_does_not_boot() {
    assert_backend_without_its_rank_does_not_boot(RouteMode::Shard);
}

#[test]
fn router_serves_the_http_front() {
    use std::io::{Read as _, Write as _};

    let dep = deployment(false);
    let (a, b) = (dep.serve(ServerConfig::default()), dep.serve(ServerConfig::default()));
    let rt = router(RouteMode::Replica, vec![a.local_addr(), b.local_addr()]);

    let http = |request: String| -> String {
        let mut sock = std::net::TcpStream::connect(rt.local_addr()).expect("http connect");
        sock.write_all(request.as_bytes()).expect("http write");
        let mut reply = String::new();
        sock.read_to_string(&mut reply).expect("http read");
        reply
    };

    let expect = dep.model().dist(0, 9);
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
