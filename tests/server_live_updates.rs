//! Live-update tests for the `hopdb-server` daemon: the overlay-vs-
//! rebuild equivalence oracle (served distances after `update` batches
//! are bit-identical to a from-scratch build of the mutated graph,
//! before and after compaction, directed and undirected, at 1 and 4
//! batch threads), update frames interleaved with pipelined queries on
//! a single connection, and concurrent query fire across ingest and a
//! compaction promotion — every response consistent with exactly one
//! snapshot, never a mix.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb_server::proto::UNREACHABLE;
use hop_doubling::hopdb_server::{Client, ServerConfig};
use hop_doubling::sfgraph::Dist;

mod testkit;
use testkit::{grid, spread, Deployment, Edge, Ids};

#[test]
fn overlay_matches_full_rebuild_oracle() {
    for directed in [false, true] {
        let n = 100;
        let und = glp(&GlpParams::with_density(n, 3.0, if directed { 501 } else { 502 }));
        let g = if directed { orient_scale_free(&und, 0.25, 7) } else { und };
        let tag = if directed { "oracle-d" } else { "oracle-u" };
        let dep = Deployment::new(&g, Ids::Original);

        // Two batches: the second arrives with the first already in the
        // log, and one weight-2 edge exercises the weighted merge path.
        let batch1: Vec<Edge> = vec![(0, 99, 1), (3, 71, 1)];
        let batch2: Vec<Edge> = vec![(12, 44, 2), (99, 50, 1)];
        // A third batch lands after the first compaction; the second
        // compaction must rebuild from the source ∪ all three.
        let batch3: Vec<Edge> = vec![(7, 93, 1), (60, 2, 2)];
        let pairs = grid(n);
        let mut model = dep.model();
        let expect_base = model.answers(&pairs);
        model.ack(&batch1);
        model.ack(&batch2);
        let expect_mutated = model.answers(&pairs);
        model.ack(&batch3);
        let expect_all3 = model.answers(&pairs);
        assert_ne!(expect_base, expect_mutated, "updates must be observable ({tag})");
        assert_ne!(expect_mutated, expect_all3, "batch 3 must be observable ({tag})");

        for batch_threads in [1usize, 4] {
            let handle = dep.serve(ServerConfig { batch_threads, ..dep.compacting() });
            let mut client = Client::connect(handle.local_addr()).expect("connect");

            assert_eq!(client.query(&pairs).expect("base query"), expect_base);
            let (generation, _) = client.update(&batch1).expect("update 1");
            assert_eq!(generation, 1, "updates do not bump the generation");
            let (_, overlay_edges) = client.update(&batch2).expect("update 2");
            assert!(overlay_edges >= 1, "overlay tracks the accumulated log");

            // Overlay answers == from-scratch build of the mutated graph.
            assert_eq!(
                client.query(&pairs).expect("overlay query"),
                expect_mutated,
                "overlay diverges from full rebuild ({tag}, {batch_threads} threads)"
            );

            // Fold the overlay into a fresh frozen generation: answers
            // must not change across the promotion.
            let (generation, vertices) = client.compact().expect("compact");
            assert_eq!((generation, vertices), (2, n as u64), "({tag})");
            assert_eq!(
                client.query(&pairs).expect("compacted query"),
                expect_mutated,
                "compacted index diverges from full rebuild ({tag}, {batch_threads} threads)"
            );
            let info = client.info().expect("info");
            assert_eq!(info.generation, 2, "({tag})");
            assert_eq!(info.overlay_edges, 0, "compaction must drain the overlay ({tag})");
            assert_eq!(info.compactions, 1, "({tag})");

            // `update; compact` once more: the second compaction must
            // still hold what the first one folded in.
            client.update(&batch3).expect("update 3");
            assert_eq!(
                client.query(&pairs).expect("overlay over a compacted image"),
                expect_all3,
                "overlay over the compacted image diverges ({tag}, {batch_threads} threads)"
            );
            let (generation, vertices) = client.compact().expect("second compact");
            assert_eq!((generation, vertices), (3, n as u64), "({tag})");
            assert_eq!(
                client.query(&pairs).expect("twice-compacted query"),
                expect_all3,
                "a second compaction forgot edges ({tag}, {batch_threads} threads)"
            );
            let info = client.info().expect("info");
            assert_eq!(info.overlay_edges, 0, "({tag})");
            assert_eq!(info.compactions, 2, "({tag})");

            handle.shutdown();
        }
    }
}

#[test]
fn update_frames_interleave_with_pipelined_queries() {
    use hop_doubling::hopdb_server::proto::{read_response, Request, RequestBody, ResponseBody};
    use std::collections::HashMap;

    let dep = Deployment::new(&glp(&GlpParams::with_density(80, 3.0, 601)), Ids::Original);
    // A far-apart reachable pair, so the inserted weight-1 edge is
    // observable the instant the update lands.
    let (s, t, base) = dep.model().farthest();
    assert!(base > 1, "need a non-adjacent pair");
    let handle = dep.serve(dep.compacting());

    // One connection, three frames in a single write: query, update
    // inserting (s, t, 1), query again. Queries pipelined before
    // the update answer from the pre-update snapshot; queries after
    // it see the new edge — never the other way around.
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(20))).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&Request { id: 1, body: RequestBody::Query(vec![(s, t)]) }.encode());
    wire.extend_from_slice(&Request { id: 2, body: RequestBody::Update(vec![(s, t, 1)]) }.encode());
    wire.extend_from_slice(&Request { id: 3, body: RequestBody::Query(vec![(s, t)]) }.encode());
    stream.write_all(&wire).expect("pipelined write");

    let mut reader = std::io::BufReader::new(stream);
    let mut got: HashMap<u64, ResponseBody> = HashMap::new();
    for _ in 0..3 {
        let resp = read_response(&mut reader).expect("response frame");
        got.insert(resp.id, resp.body);
    }
    assert_eq!(
        got.get(&1),
        Some(&ResponseBody::Distances(vec![base])),
        "pre-update query answered post-update"
    );
    assert_eq!(got.get(&2), Some(&ResponseBody::Updated { generation: 1, overlay_edges: 1 }));
    assert_eq!(
        got.get(&3),
        Some(&ResponseBody::Distances(vec![1])),
        "post-update query answered pre-update"
    );
    handle.shutdown();
}

/// `compact` is a barrier on the one job queue, like `swap`: pipelined
/// behind an `update` on the same connection, without waiting for its
/// ack, it folds that update — the `Compacted` reply leaves an empty
/// overlay, and answers equal a from-scratch build of the source plus
/// the update.
#[test]
fn pipelined_compact_folds_the_update_queued_before_it() {
    use hop_doubling::hopdb_server::proto::{read_response, Request, RequestBody, ResponseBody};

    let n = 80;
    let dep = Deployment::new(&glp(&GlpParams::with_density(n, 3.0, 611)), Ids::Original);
    let update: Vec<Edge> = vec![(0, 79, 1), (5, 61, 2)];
    let pairs = grid(n);
    let mut model = dep.model();
    let base = model.answers(&pairs);
    model.ack(&update);
    let expect = model.answers(&pairs);
    assert_ne!(expect, base, "the update must be observable");
    let handle = dep.serve(dep.compacting());

    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    let mut wire = Request { id: 1, body: RequestBody::Update(update.clone()) }.encode();
    wire.extend_from_slice(&Request { id: 2, body: RequestBody::Compact }.encode());
    stream.write_all(&wire).expect("pipelined write");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let updated = read_response(&mut reader).expect("update reply");
    assert_eq!(
        (updated.id, updated.body),
        (1, ResponseBody::Updated { generation: 1, overlay_edges: 2 })
    );
    let compacted = read_response(&mut reader).expect("compact reply");
    assert_eq!(
        (compacted.id, compacted.body),
        (2, ResponseBody::Compacted { generation: 2, vertices: n as u64 })
    );

    let mut client = Client::connect(handle.local_addr()).expect("client");
    let info = client.info().expect("info");
    assert_eq!(
        (info.overlay_edges, info.compactions),
        (0, 1),
        "the compaction left the update out"
    );
    assert_eq!(client.query(&pairs).expect("compacted query"), expect);
    handle.shutdown();
}

#[test]
fn concurrent_queries_during_ingest_and_compaction_promotion() {
    let n = 120;
    let dep = Deployment::new(&glp(&GlpParams::with_density(n, 3.0, 701)), Ids::Original);
    let pairs = spread(n);

    // Three update batches, each shortcutting a pair the probe set
    // actually queries, so every snapshot has a distinct answer vector.
    let mut model = dep.model();
    let mut shortcuts: Vec<Edge> = pairs
        .iter()
        .filter(|&&(s, t)| s != t && model.dist(s, t) > 2 && model.dist(s, t) != UNREACHABLE)
        .map(|&(s, t)| (s, t, 1))
        .collect();
    shortcuts.truncate(3);
    assert_eq!(shortcuts.len(), 3, "probe set too easy; reseed the graph");

    // expects[i] = answers after the first i batches; the final vector
    // also covers post-compaction (compaction preserves answers).
    let mut expects: Vec<Vec<Dist>> = vec![model.answers(&pairs)];
    for batch in shortcuts.chunks(1) {
        model.ack(batch);
        expects.push(model.answers(&pairs));
    }
    for w in expects.windows(2) {
        assert_ne!(w[0], w[1], "snapshots must be distinguishable");
    }

    let handle = dep.serve(ServerConfig { batch_threads: 2, ..dep.compacting() });
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for _ in 0..3 {
            let (stop, pairs, expects) = (&stop, &pairs, &expects);
            clients.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut seen = vec![0u32; expects.len()];
                while !stop.load(Ordering::SeqCst) {
                    let got = client.query(pairs).expect("query during ingest/compaction");
                    // Exactly one snapshot per response — never a mix
                    // of overlay states or generations.
                    let which = expects.iter().position(|e| *e == got);
                    let which = which.expect("response matches no snapshot (mixed state?)");
                    seen[which] += 1;
                }
                seen
            }));
        }

        let mut admin = Client::connect(addr).expect("admin connect");
        std::thread::sleep(std::time::Duration::from_millis(100));
        for batch in shortcuts.chunks(1) {
            admin.update(batch).expect("update");
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        // Promote a compaction while the clients keep firing.
        let (generation, vertices) = admin.compact().expect("compact");
        assert_eq!((generation, vertices), (2, n as u64));
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::SeqCst);

        let mut seen = vec![0u32; expects.len()];
        for c in clients {
            for (total, s) in seen.iter_mut().zip(c.join().expect("client thread")) {
                *total += s;
            }
        }
        // The fleet observed both the pre-update state and the final
        // one; every intermediate response matched some prefix.
        assert!(seen[0] > 0, "clients never observed the pre-update snapshot: {seen:?}");
        assert!(
            *seen.last().unwrap() > 0,
            "clients never observed the fully updated snapshot: {seen:?}"
        );

        // After the dust settles: final answers, new generation, empty
        // overlay.
        assert_eq!(admin.query(&pairs).expect("final query"), *expects.last().unwrap());
        let info = admin.info().expect("info");
        assert_eq!(info.generation, 2);
        assert_eq!(info.overlay_edges, 0);
        assert_eq!(info.compactions, 1);
    });

    handle.shutdown();
}

#[test]
fn http_update_roundtrip_on_the_epoll_front() {
    use std::io::Read as _;

    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 801)), Ids::Original);
    let (s, t, base) = dep.model().farthest();
    assert!(base > 1);
    let handle = dep.serve(dep.compacting());

    let roundtrip = |request: String| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(20))).unwrap();
        stream.write_all(request.as_bytes()).expect("write");
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).expect("read");
        let text = String::from_utf8_lossy(&buf).into_owned();
        let code = text.split_whitespace().nth(1).expect("status").parse().expect("status code");
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (code, body)
    };

    let json = format!("{{\"edges\":[[{s},{t},1]]}}");
    let (code, body) = roundtrip(format!(
        "POST /update HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{json}",
        json.len()
    ));
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"generation\":1"), "{body}");
    assert!(body.contains("\"overlay_edges\":1"), "{body}");

    let (code, body) = roundtrip(format!(
        "GET /query?s={s}&t={t} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    ));
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"dist\":1"), "HTTP query missed the live edge: {body}");

    let (code, body) =
        roundtrip("GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_string());
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"overlay_edges\":1"), "{body}");
    assert!(body.contains("\"compactions\":0"), "{body}");

    handle.shutdown();
}

/// Serve `dep` over its edge list, apply `batch`, compact: the overlay
/// and the compacted image must both answer like its model plus `batch`.
fn compacts_to(dep: &Deployment, tag: &str) {
    let batch: Vec<Edge> = vec![(0, 59, 1), (7, 33, 1)];
    let pairs = grid(60);
    let mut model = dep.model();
    model.ack(&batch);
    let expect = model.answers(&pairs);
    let handle = dep.serve(dep.compacting());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.update(&batch).expect("update");
    assert_eq!(client.query(&pairs).expect("overlay query"), expect, "overlay ({tag})");
    client.compact().expect("compact");
    assert_eq!(client.query(&pairs).expect("compacted query"), expect, "compacted ({tag})");
    handle.shutdown();
}

/// The compactor re-reads the source file the way the boot index was
/// built from it, and learns which way that was from the frozen index,
/// not from the file's column count. A three-column list built *without*
/// `--weighted` — SNAP temporal lists carry a timestamp there — stays
/// unweighted, and a `0` in that column (legal as a timestamp, illegal
/// as a weight) does not fail the compaction; the same columns built
/// *with* `--weighted` stay weighted.
#[test]
fn compaction_reads_the_source_the_way_the_index_was_built() {
    let g = glp(&GlpParams::with_density(60, 3.0, 801));
    let stamps: [fn(usize) -> usize; 2] = [|i| 1 + (i * 7) % 5, |i| (i * 7) % 5];
    for (round, stamp) in stamps.into_iter().enumerate() {
        let dep = Deployment::new(&g, Ids::Original);
        let mut file = std::fs::File::create(dep.graph_path()).expect("rewrite edge list");
        for (i, (u, v, _)) in g.edge_list().into_iter().enumerate() {
            writeln!(file, "{u} {v} {}", stamp(i)).expect("write edge");
        }
        drop(file);
        compacts_to(&dep, &format!("stamped-{round}"));
    }

    let weighted =
        Deployment::new(&hop_doubling::graphgen::with_random_weights(&g, 1, 5, 801), Ids::Original);
    compacts_to(&weighted, "weighted");
}
