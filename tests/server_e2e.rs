//! End-to-end tests for the `hopdb-server` daemon: boot it on an
//! ephemeral port against GLP-built indexes, issue single and batched
//! queries from multiple concurrent client threads, and require
//! bit-identical agreement with in-process `FlatIndex::query` and BFS
//! ground truth — directed and undirected, and across a live hot swap.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hopdb_server::{serve, Client, ServerConfig};
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::traversal::all_pairs;
use hop_doubling::sfgraph::{Dist, Graph, VertexId};

/// Build an index for `g` (rank space, no sidecar) and serialize it to
/// a standalone temp file; returns the file and the frozen flat index.
fn build_index_file(g: &Graph, tag: &str) -> (PathBuf, FlatIndex, Graph) {
    let ranking = rank_vertices(g, &RankBy::paper_default(g));
    let relabeled = relabel_by_rank(g, &ranking);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let path = std::env::temp_dir().join(format!("hopdb-e2e-{}-{tag}.idx", std::process::id()));
    index
        .write_hopidx(&mut std::fs::File::create(&path).expect("create index"))
        .expect("serialize");
    (path, FlatIndex::from_index(&index), relabeled)
}

#[test]
fn served_answers_match_flat_and_bfs_truth() {
    for directed in [false, true] {
        let und = glp(&GlpParams::with_density(120, 3.0, if directed { 77 } else { 76 }));
        let g = if directed { orient_scale_free(&und, 0.25, 77) } else { und };
        let tag = if directed { "e2e-d" } else { "e2e-u" };
        let (path, flat, relabeled) = build_index_file(&g, tag);
        let truth = all_pairs(&relabeled);

        let config = ServerConfig { batch_threads: 2, ..ServerConfig::default() };
        let handle = serve("127.0.0.1:0", &path, config).expect("serve");
        let addr = handle.local_addr();

        let n = relabeled.num_vertices() as VertexId;
        let pairs: Vec<(VertexId, VertexId)> =
            (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
        let expect: Vec<Dist> = pairs.iter().map(|&(s, t)| flat.query(s, t)).collect();
        for (&(s, t), &want) in pairs.iter().zip(&expect) {
            assert_eq!(want, truth[s as usize][t as usize], "flat vs BFS {s}->{t}");
        }

        // Four concurrent clients: each answers its slice batched and
        // a subsample as single-pair requests.
        std::thread::scope(|scope| {
            let chunk = pairs.len().div_ceil(4);
            for (pair_slice, expect_slice) in pairs.chunks(chunk).zip(expect.chunks(chunk)) {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let got = client.query(pair_slice).expect("batched query");
                    assert_eq!(got, expect_slice, "batched slice diverges ({tag})");
                    for (&(s, t), &want) in pair_slice.iter().zip(expect_slice).step_by(5) {
                        assert_eq!(
                            client.query_one(s, t).expect("single query"),
                            want,
                            "single {s}->{t} ({tag})"
                        );
                    }
                });
            }
        });

        handle.shutdown();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn hot_swap_promotes_without_mixing_generations() {
    // Two different graphs over the same vertex count, so every pair is
    // valid against both indexes but most distances differ.
    let ga = glp(&GlpParams::with_density(150, 3.0, 1001));
    let gb = glp(&GlpParams::with_density(150, 5.0, 2002));
    let (path_a, flat_a, _) = build_index_file(&ga, "swap-a");
    let (path_b, flat_b, _) = build_index_file(&gb, "swap-b");

    let pairs: Vec<(VertexId, VertexId)> = (0..150u32).map(|i| (i, (i * 37 + 11) % 150)).collect();
    let expect_a = flat_a.query_many(&pairs, 1);
    let expect_b = flat_b.query_many(&pairs, 1);
    assert_ne!(expect_a, expect_b, "test graphs must disagree for the swap to be observable");

    let config = ServerConfig { swap_path: Some(path_b.clone()), ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", &path_a, config).expect("serve");
    let addr = handle.local_addr();
    let generation = || Client::connect(addr).expect("connect").info().expect("info").generation;
    assert_eq!(generation(), 1);

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for _ in 0..3 {
            let (stop, pairs, expect_a, expect_b) = (&stop, &pairs, &expect_a, &expect_b);
            clients.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (mut saw_a, mut saw_b) = (0u32, 0u32);
                while !stop.load(Ordering::SeqCst) {
                    let got = client.query(pairs).expect("mid-swap query");
                    // Every response comes from exactly one generation:
                    // never a mix of the two indexes.
                    if got == *expect_a {
                        saw_a += 1;
                    } else if got == *expect_b {
                        saw_b += 1;
                    } else {
                        panic!("response matches neither index (mixed generations?)");
                    }
                }
                (saw_a, saw_b)
            }));
        }

        // Let the clients observe generation 1, promote B mid-flight,
        // then let them observe generation 2.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let mut admin = Client::connect(addr).expect("admin connect");
        let (generation, vertices) = admin.swap().expect("swap");
        assert_eq!((generation, vertices), (2, 150));
        assert_eq!(admin.info().expect("info").generation, 2);
        // Requests issued strictly after the swap ack must be served by
        // the new index.
        assert_eq!(admin.query(&pairs).expect("post-swap query"), expect_b);
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::SeqCst);

        let (mut total_a, mut total_b) = (0u32, 0u32);
        for c in clients {
            let (a, b) = c.join().expect("client thread");
            (total_a, total_b) = (total_a + a, total_b + b);
        }
        assert!(total_a > 0, "clients never observed the pre-swap index");
        assert!(total_b > 0, "clients never observed the post-swap index");
    });

    assert_eq!(generation(), 2);
    handle.shutdown();
    for p in [path_a, path_b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn malformed_frames_error_cleanly_and_never_hang() {
    use std::io::{Read, Write};

    let g = glp(&GlpParams::with_density(60, 3.0, 5));
    let (path, flat, _) = build_index_file(&g, "malformed");
    let handle = serve("127.0.0.1:0", &path, ServerConfig::default()).expect("serve");
    let addr = handle.local_addr();
    let timeout = Some(std::time::Duration::from_secs(10));

    // Garbage magic: one error frame (HOPR, status error), then EOF —
    // the server closes rather than guessing at realignment.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(timeout).unwrap();
    raw.write_all(b"definitely not a HOPQ frame").unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read error frame then EOF, not a hang");
    assert_eq!(&reply[..4], b"HOPR", "error frame magic");
    assert_eq!(reply[5], 0, "kind byte says error");

    // Zero-pair batch: a clean per-request error, connection stays up
    // and the next (valid) request is answered.
    let mut client = Client::connect(addr).expect("connect");
    let err = client.query(&[]).expect_err("zero-pair batch must be rejected");
    assert!(err.to_string().contains("zero pairs"), "{err}");
    assert_eq!(client.query_one(1, 1).expect("connection survives"), 0);
    assert_eq!(client.query_one(0, 1).unwrap(), flat.query(0, 1));

    // Out-of-range vertices: an error response, not a dropped frame.
    let err = client.query(&[(0, 60)]).expect_err("out of range must be rejected");
    assert!(err.to_string().contains("out of range"), "{err}");
    drop(client);

    // A frame cut short by the peer's EOF can never complete: the fatal
    // `truncated frame` answer (id 0), then close — not a silent drop.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(timeout).unwrap();
    let whole = hop_doubling::hopdb_server::proto::Request {
        id: 5,
        body: hop_doubling::hopdb_server::proto::RequestBody::Query(vec![(0, 1)]),
    }
    .encode();
    raw.write_all(&whole[..whole.len() - 3]).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read error frame then EOF, not a hang");
    assert_eq!(&reply[..4], b"HOPR");
    assert_eq!(reply[5], 0);
    assert_eq!(&reply[6..14], &0u64.to_le_bytes(), "fatal errors carry id 0");
    assert!(String::from_utf8_lossy(&reply[18..]).contains("truncated frame"));

    // Oversized declared payload: error frame, then close.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(timeout).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(b"HOPQ");
    frame.push(hop_doubling::hopdb_server::proto::VERSION);
    frame.push(1); // query
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&frame).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read error frame then EOF, not a hang");
    assert_eq!(&reply[..4], b"HOPR");
    assert_eq!(reply[5], 0);
    assert!(String::from_utf8_lossy(&reply[18..]).contains("cap"));

    // A frame from a build that spoke an earlier version: refused whole
    // with the fatal version error, then a close — never half-understood.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(timeout).unwrap();
    let mut stale = hop_doubling::hopdb_server::proto::Request {
        id: 6,
        body: hop_doubling::hopdb_server::proto::RequestBody::Info,
    }
    .encode();
    stale[4] = 5;
    raw.write_all(&stale).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read error frame then EOF, not a hang");
    assert_eq!((&reply[..4], reply[5]), (&b"HOPR"[..], 0));
    assert!(String::from_utf8_lossy(&reply[18..]).contains("unsupported protocol version 5"));

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
