//! Edge-case tests for the serving loop: a golden transcript of one
//! pipelined script, partial frames split at arbitrary byte boundaries,
//! pipelined out-of-order correlation, write backpressure against
//! never-reading clients, idle eviction, hot swap under pipelined load,
//! and the HTTP/JSON front. The framing, in-flight-cap, backpressure
//! and idle cases run twice — against the daemon, and against a replica
//! router in front of it — since both endpoints are the same loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb::{build_prelabeled, HopDbConfig};
use hop_doubling::hopdb_server::client::Session;
use hop_doubling::hopdb_server::proto::{
    Request, RequestBody, Response, ResponseBody, HEADER_LEN, UNREACHABLE,
};
use hop_doubling::hopdb_server::{
    serve, serve_router, Client, FrontConfig, RouteMode, RouterConfig, RouterHandle, ServerConfig,
    ServerHandle,
};
use hop_doubling::hoplabels::flat::FlatIndex;
use hop_doubling::sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
use hop_doubling::sfgraph::{Graph, VertexId};

/// Build an index for `g` and serialize it to a standalone temp file;
/// returns the file and the frozen flat index.
fn build_index_file(g: &Graph, tag: &str) -> (PathBuf, FlatIndex) {
    let ranking = rank_vertices(g, &RankBy::paper_default(g));
    let relabeled = relabel_by_rank(g, &ranking);
    let (index, _) = build_prelabeled(&relabeled, &HopDbConfig::default());
    let path = std::env::temp_dir().join(format!("hopdb-rx-{}-{tag}.idx", std::process::id()));
    index
        .write_hopidx(&mut std::fs::File::create(&path).expect("create index"))
        .expect("serialize");
    (path, FlatIndex::from_index(&index))
}

/// What the client under test connects to.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// The index node itself.
    Daemon,
    /// A replica router with the index node as its only backend.
    ReplicaRouter,
}

const BOTH: [Via; 2] = [Via::Daemon, Via::ReplicaRouter];

struct Endpoint {
    addr: SocketAddr,
    router: Option<RouterHandle>,
    daemon: ServerHandle,
}

impl Endpoint {
    /// Boot with `front` — the loop limits a test tightens — on the
    /// loop the client talks to: the daemon's own, or the router's in
    /// front of a stock daemon.
    fn boot(via: Via, index: &Path, front: FrontConfig) -> Endpoint {
        match via {
            Via::Daemon => {
                let config = ServerConfig { front, ..ServerConfig::default() };
                let daemon = serve("127.0.0.1:0", index, config).expect("serve");
                Endpoint { addr: daemon.local_addr(), router: None, daemon }
            }
            Via::ReplicaRouter => {
                let daemon = serve("127.0.0.1:0", index, ServerConfig::default()).expect("serve");
                let config = RouterConfig {
                    mode: RouteMode::Replica,
                    backends: vec![daemon.local_addr()],
                    front,
                    ..RouterConfig::default()
                };
                let router = serve_router("127.0.0.1:0", config).expect("router");
                Endpoint { addr: router.local_addr(), router: Some(router), daemon }
            }
        }
    }

    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.daemon.shutdown();
    }
}

fn query_frame(id: u64, pairs: &[(VertexId, VertexId)]) -> Vec<u8> {
    Request { id, body: RequestBody::Query(pairs.to_vec()) }.encode()
}

/// Read exactly `count` complete `HOPR` frames off `stream`, each
/// returned as its raw bytes (header + payload).
fn read_frames(stream: &mut TcpStream, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut frame = vec![0u8; HEADER_LEN];
            stream.read_exact(&mut frame).expect("frame header");
            let len = u32::from_le_bytes(frame[14..18].try_into().unwrap()) as usize;
            frame.resize(HEADER_LEN + len, 0);
            stream.read_exact(&mut frame[HEADER_LEN..]).expect("frame payload");
            frame
        })
        .collect()
}

fn frame_id(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[6..14].try_into().unwrap())
}

/// Distances payload of a `HOPR` frame: count, then the values.
fn frame_dists(frame: &[u8]) -> Vec<u32> {
    let count = u32::from_le_bytes(frame[18..22].try_into().unwrap()) as usize;
    let dists: Vec<u32> =
        frame[22..].chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(dists.len(), count, "distance count matches payload");
    dists
}

#[test]
fn pipelined_script_matches_the_golden_transcript() {
    for directed in [false, true] {
        let und = glp(&GlpParams::with_density(70, 3.0, if directed { 41 } else { 40 }));
        let g = if directed { orient_scale_free(&und, 0.25, 41) } else { und };
        let tag = if directed { "eq-d" } else { "eq-u" };
        let (path, flat) = build_index_file(&g, tag);
        let n = 70u32;

        // One pipelined request script: batches, single pairs, an
        // out-of-range error, and a recoverable zero-pair error, all
        // written before any response is read. The golden transcript is
        // what the codec and the in-process index say each answer is.
        let mut script = Vec::new();
        let mut golden = Vec::new();
        for id in 1..=6u64 {
            let k = id as u32;
            let pairs: Vec<(u32, u32)> =
                (0..17u32).map(|i| ((i * k) % n, (i * 7 + k) % n)).collect();
            script.extend_from_slice(&query_frame(id, &pairs));
            let body = ResponseBody::Distances(flat.query_many(&pairs, 1));
            golden.push(Response { id, body }.encode());
        }
        script.extend_from_slice(&query_frame(7, &[(0, n)]));
        let out_of_range = format!("vertex out of range: (0, {n}) on a {n}-vertex index");
        golden.push(Response { id: 7, body: ResponseBody::Error(out_of_range) }.encode());
        script.extend_from_slice(&query_frame(8, &[]));
        let zero_pairs = "query batch declares zero pairs".to_string();
        golden.push(Response { id: 8, body: ResponseBody::Error(zero_pairs) }.encode());
        script.extend_from_slice(&query_frame(9, &[(1, 2)]));
        let body = ResponseBody::Distances(vec![flat.query(1, 2)]);
        golden.push(Response { id: 9, body }.encode());

        let handle = serve("127.0.0.1:0", &path, ServerConfig::default()).expect("serve");
        let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        raw.write_all(&script).expect("write script");
        // Pipelined responses may legally arrive out of order
        // (parse-level errors are answered inline); the transcript is
        // compared per request id.
        let mut replies = read_frames(&mut raw, golden.len());
        replies.sort_by_key(|f| frame_id(f));
        assert_eq!(replies, golden, "served frames diverge from the golden transcript ({tag})");
        drop(raw);
        handle.shutdown();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn partial_frames_at_arbitrary_byte_boundaries() {
    let g = glp(&GlpParams::with_density(60, 3.0, 5));
    let (path, flat) = build_index_file(&g, "drip");
    for via in BOTH {
        partial_frames(via, &path, &flat);
    }
    std::fs::remove_file(&path).ok();
}

fn partial_frames(via: Via, path: &Path, flat: &FlatIndex) {
    let endpoint = Endpoint::boot(via, path, FrontConfig::default());
    let mut raw = TcpStream::connect(endpoint.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    raw.set_nodelay(true).unwrap();

    // One frame dripped a byte at a time — the decoder must hold the
    // partial prefix across an arbitrary number of reads.
    let frame = query_frame(3, &[(1, 4), (0, 2)]);
    for &b in &frame {
        raw.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_micros(300));
    }
    let reply = read_frames(&mut raw, 1);
    assert_eq!(frame_dists(&reply[0]), vec![flat.query(1, 4), flat.query(0, 2)]);

    // Two frames whose concatenation is split inside the *second*
    // header: the leftover after frame one must be kept and completed.
    let mut two = query_frame(10, &[(2, 3)]);
    two.extend_from_slice(&query_frame(11, &[(3, 2)]));
    let cut = query_frame(10, &[(2, 3)]).len() + 7; // mid second header
    raw.write_all(&two[..cut]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    raw.write_all(&two[cut..]).unwrap();
    let reply = read_frames(&mut raw, 2);
    assert_eq!(frame_id(&reply[0]), 10);
    assert_eq!(frame_id(&reply[1]), 11, "second dripped frame answered with its own id");
    assert_eq!(frame_dists(&reply[0]), vec![flat.query(2, 3)]);
    assert_eq!(frame_dists(&reply[1]), vec![flat.query(3, 2)], "{via:?}");

    drop(raw);
    endpoint.shutdown();
}

#[test]
fn pipelined_session_correlates_out_of_order_waits() {
    let g = glp(&GlpParams::with_density(80, 3.0, 6));
    let (path, flat) = build_index_file(&g, "pipeline");
    let handle = serve("127.0.0.1:0", &path, ServerConfig::default()).expect("serve");

    let mut session = Session::connect(handle.local_addr()).expect("connect");
    session.set_io_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for k in 0..10u32 {
        let pairs: Vec<(u32, u32)> = (0..=k).map(|i| ((i * 3 + k) % 80, (i * 11) % 80)).collect();
        expected.push(flat.query_many(&pairs, 1));
        tickets.push(session.submit(&pairs).expect("submit"));
    }
    assert_eq!(session.in_flight(), 10);
    // Redeem strictly in reverse: every answer must land on the ticket
    // that asked for it, regardless of arrival order.
    for (ticket, want) in tickets.into_iter().zip(expected).rev() {
        assert_eq!(session.wait(ticket).expect("wait"), want, "ticket {}", ticket.id());
    }
    assert_eq!(session.in_flight(), 0);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn inflight_cap_pauses_reads_but_answers_everything() {
    let g = glp(&GlpParams::with_density(60, 3.0, 7));
    let (path, flat) = build_index_file(&g, "cap");
    for via in BOTH {
        inflight_cap(via, &path, &flat);
    }
    std::fs::remove_file(&path).ok();
}

fn inflight_cap(via: Via, path: &Path, flat: &FlatIndex) {
    let endpoint =
        Endpoint::boot(via, path, FrontConfig { max_inflight: 2, ..FrontConfig::default() });

    // 16 pipelined frames against a cap of 2: the loop must pause
    // reading at the cap and resume as completions drain, answering
    // every frame exactly once and in submission order.
    let mut raw = TcpStream::connect(endpoint.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut script = Vec::new();
    for id in 1..=16u64 {
        script.extend_from_slice(&query_frame(id, &[(id as u32 % 60, 3)]));
    }
    raw.write_all(&script).unwrap();
    let reply = read_frames(&mut raw, 16);
    for (i, frame) in reply.iter().enumerate() {
        let id = frame_id(frame);
        assert_eq!(id, i as u64 + 1, "responses echo ids in submission order ({via:?})");
        assert_eq!(frame_dists(frame), vec![flat.query(id as u32 % 60, 3)]);
    }

    drop(raw);
    endpoint.shutdown();
}

#[test]
fn never_reading_client_backpressures_without_stalling_the_reactor() {
    let g = glp(&GlpParams::with_density(60, 3.0, 8));
    let (path, flat) = build_index_file(&g, "bp");
    for via in BOTH {
        never_reading_client(via, &path, &flat);
    }
    std::fs::remove_file(&path).ok();
}

fn never_reading_client(via: Via, path: &Path, flat: &FlatIndex) {
    let endpoint = Endpoint::boot(via, path, FrontConfig::default());
    let addr = endpoint.addr;

    // Each response is ~195 KiB; eight of them (~1.6 MiB) exceed the
    // loop's 1 MiB write high-water mark, so with the client not
    // reading, the loop must park the connection instead of buffering
    // without bound — and keep serving *other* connections meanwhile.
    let pairs: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i % 60, (i * 13 + 1) % 60)).collect();
    let expect = flat.query_many(&pairs, 1);
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let script: Vec<u8> = (1..=8u64).flat_map(|id| query_frame(id, &pairs)).collect();
    let writer = std::thread::spawn({
        let mut half = stalled.try_clone().expect("clone");
        move || half.write_all(&script).expect("write big script")
    });

    // While the stalled connection is parked, the loop must still
    // answer a fresh connection promptly.
    std::thread::sleep(Duration::from_millis(300));
    let mut admin = Client::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    assert_eq!(admin.stats().expect("stats while peer is stalled").generation, 1);
    assert_eq!(admin.query_one(1, 1).expect("query while peer is stalled"), 0);

    // Start reading: the parked connection must drain completely, every
    // answer intact and in order.
    let reply = read_frames(&mut stalled, 8);
    writer.join().expect("writer thread");
    for (i, frame) in reply.iter().enumerate() {
        assert_eq!(frame.len(), HEADER_LEN + 4 + 4 * pairs.len());
        assert_eq!(frame_id(frame), i as u64 + 1);
        assert_eq!(frame_dists(frame), expect, "stalled frame {} diverges ({via:?})", i + 1);
    }

    drop(stalled);
    endpoint.shutdown();
}

#[test]
fn idle_timeout_evicts_quiet_connections_only() {
    let g = glp(&GlpParams::with_density(60, 3.0, 9));
    let (path, _) = build_index_file(&g, "idle");
    for via in BOTH {
        idle_eviction(via, &path);
    }
    std::fs::remove_file(&path).ok();
}

fn idle_eviction(via: Via, path: &Path) {
    let endpoint =
        Endpoint::boot(via, path, FrontConfig { idle_timeout_ms: 150, ..FrontConfig::default() });
    let addr = endpoint.addr;

    let mut quiet = Client::connect(addr).expect("connect");
    quiet.set_io_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(quiet.query_one(1, 1).expect("warm-up query"), 0);

    let mut busy = Client::connect(addr).expect("connect");
    busy.set_io_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..12 {
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(busy.query_one(2, 2).expect("busy client must survive"), 0);
    }

    // The quiet connection sat idle well past the timeout: its next
    // query must fail (EOF or reset), never hang.
    let err = quiet.query_one(1, 1);
    assert!(err.is_err(), "idle connection should have been evicted ({via:?})");

    drop(busy);
    endpoint.shutdown();
}

#[test]
fn hot_swap_during_pipelined_batches_never_mixes_generations() {
    let ga = glp(&GlpParams::with_density(120, 3.0, 1001));
    let gb = glp(&GlpParams::with_density(120, 5.0, 2002));
    let (path_a, flat_a) = build_index_file(&ga, "rxswap-a");
    let (path_b, flat_b) = build_index_file(&gb, "rxswap-b");

    let pairs: Vec<(u32, u32)> = (0..120u32).map(|i| (i, (i * 37 + 11) % 120)).collect();
    let expect_a = flat_a.query_many(&pairs, 1);
    let expect_b = flat_b.query_many(&pairs, 1);
    assert_ne!(expect_a, expect_b, "test graphs must disagree");

    let config = ServerConfig { swap_path: Some(path_b.clone()), ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", &path_a, config).expect("serve");
    let addr = handle.local_addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut session = Session::connect(addr).expect("connect");
            session.set_io_timeout(Some(Duration::from_secs(20))).unwrap();
            let (mut saw_a, mut saw_b) = (0u32, 0u32);
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                // Keep a pipeline of 6 batches in flight across the
                // swap; every response must match exactly one index.
                let tickets: Vec<_> =
                    (0..6).map(|_| session.submit(&pairs).expect("submit")).collect();
                for t in tickets {
                    let got = session.wait(t).expect("wait");
                    if got == expect_a {
                        saw_a += 1;
                    } else if got == expect_b {
                        saw_b += 1;
                    } else {
                        panic!("pipelined response matches neither generation");
                    }
                }
            }
            (saw_a, saw_b)
        });

        std::thread::sleep(Duration::from_millis(150));
        let mut admin = Client::connect(addr).expect("admin connect");
        let (generation, vertices) = admin.swap().expect("swap");
        assert_eq!((generation, vertices), (2, 120));
        assert_eq!(admin.query(&pairs).expect("post-swap query"), expect_b);
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, std::sync::atomic::Ordering::SeqCst);

        let (saw_a, saw_b) = worker.join().expect("worker");
        assert!(saw_a > 0, "never observed the pre-swap index");
        assert!(saw_b > 0, "never observed the post-swap index");
    });

    handle.shutdown();
    for p in [path_a, path_b] {
        std::fs::remove_file(p).ok();
    }
}

/// Send one HTTP request, read status line + headers + body.
fn http_roundtrip(stream: &mut TcpStream, request: &str) -> (u16, String) {
    stream.write_all(request.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "EOF before response head completed");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("UTF-8 head");
    let code: u16 = head.split_whitespace().nth(1).expect("status code").parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .map(|v| v.trim().parse().unwrap())
        .unwrap_or(0);
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF before response body completed");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + content_length].to_vec()).unwrap();
    (code, body)
}

#[test]
fn http_front_serves_json_on_the_same_port() {
    let g = glp(&GlpParams::with_density(60, 3.0, 10));
    let (path, flat) = build_index_file(&g, "http");
    let handle = serve("127.0.0.1:0", &path, ServerConfig::default()).expect("serve");
    let addr = handle.local_addr();

    let mut http = TcpStream::connect(addr).expect("connect");
    http.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    // GET /query, keep-alive: two requests on one connection.
    let d01 = flat.query(0, 1);
    let (code, body) = http_roundtrip(&mut http, "GET /query?s=0&t=1 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(code, 200);
    assert_eq!(body, format!("{{\"s\":0,\"t\":1,\"dist\":{d01}}}"));
    let (code, body) = http_roundtrip(&mut http, "GET /query?s=2&t=2 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((code, body.as_str()), (200, "{\"s\":2,\"t\":2,\"dist\":0}"));

    // POST /query_many with both accepted JSON shapes.
    let want: Vec<String> = [(0u32, 1u32), (1, 2), (2, 0)]
        .iter()
        .map(|&(s, t)| {
            let d = flat.query(s, t);
            if d == UNREACHABLE {
                "null".into()
            } else {
                d.to_string()
            }
        })
        .collect();
    let expected = format!("{{\"dists\":[{}]}}", want.join(","));
    for payload in ["[[0,1],[1,2],[2,0]]", "{\"pairs\":[[0,1],[1,2],[2,0]]}"] {
        let request = format!(
            "POST /query_many HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        let (code, body) = http_roundtrip(&mut http, &request);
        assert_eq!((code, body.as_str()), (200, expected.as_str()), "payload {payload}");
    }

    // GET /stats returns the serving counters as JSON.
    let (code, body) = http_roundtrip(&mut http, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(code, 200);
    assert!(body.contains("\"generation\":1"), "{body}");
    assert!(body.contains("\"vertices\":60"), "{body}");

    // While HTTP requests flow, a binary HOPQ client shares the port.
    let mut hopq = Client::connect(addr).expect("connect");
    assert_eq!(hopq.query_one(0, 1).expect("binary query"), d01);

    // Unknown endpoint: 404, and the error response closes the stream.
    let (code, _) = http_roundtrip(&mut http, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(code, 404);
    let mut tail = Vec::new();
    http.read_to_end(&mut tail).expect("read to EOF after error");
    assert!(tail.is_empty(), "no bytes after an error response");

    // Out-of-range vertices surface as a JSON-visible 400.
    let mut http = TcpStream::connect(addr).expect("connect");
    http.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let (code, body) = http_roundtrip(&mut http, "GET /query?s=0&t=60 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(code, 400);
    assert!(body.contains("out of range"), "{body}");

    drop(hopq);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
