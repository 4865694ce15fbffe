//! Edge-case tests for the serving loop: golden transcripts of one
//! pipelined `HOPQ` script and one HTTP script, partial frames split at
//! arbitrary byte boundaries, pipelined out-of-order correlation, write
//! backpressure against never-reading clients, idle eviction, hot swap
//! under pipelined load, the HTTP/JSON front, and `--max-batch` and
//! truncation over both framings. The framing, in-flight-cap, backpressure
//! and idle cases run twice — against the daemon, and against a replica
//! router in front of it — since both endpoints are the same loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hop_doubling::graphgen::{glp, orient_scale_free, GlpParams};
use hop_doubling::hopdb_server::client::Session;
use hop_doubling::hopdb_server::proto::{
    Request, RequestBody, Response, ResponseBody, HEADER_LEN, UNREACHABLE,
};
use hop_doubling::hopdb_server::{
    serve, serve_router, Client, FrontConfig, RouteMode, RouterConfig, ServerConfig, ServerHandle,
};
use hop_doubling::sfgraph::{Graph, VertexId};

mod testkit;
use testkit::{spread, Deployment, Ids};

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
    router: Option<ServerHandle>,
    daemon: ServerHandle,
}

impl Endpoint {
    /// Boot with `front` — the loop limits a test tightens — on the
    /// loop the client talks to: the daemon's own, or the router's in
    /// front of a stock daemon.
    fn boot(via: Via, dep: &Deployment, front: FrontConfig) -> Endpoint {
        match via {
            Via::Daemon => {
                let daemon = dep.serve(ServerConfig { front, ..ServerConfig::default() });
                Endpoint { addr: daemon.local_addr(), router: None, daemon }
            }
            Via::ReplicaRouter => {
                let daemon = dep.serve(ServerConfig::default());
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
        let dep = Deployment::new(&g, Ids::Rank);
        let model = dep.model();
        let n = 70u32;

        // One pipelined request script: batches, single pairs, an
        // out-of-range error, and a recoverable zero-pair error, all
        // written before any response is read. The golden transcript is
        // what the codec and the model say each answer is.
        let mut script = Vec::new();
        let mut golden = Vec::new();
        for id in 1..=6u64 {
            let k = id as u32;
            let pairs: Vec<(u32, u32)> =
                (0..17u32).map(|i| ((i * k) % n, (i * 7 + k) % n)).collect();
            script.extend_from_slice(&query_frame(id, &pairs));
            let body = ResponseBody::Distances(model.answers(&pairs));
            golden.push(Response { id, body }.encode());
        }
        script.extend_from_slice(&query_frame(7, &[(0, n)]));
        let out_of_range = format!("vertex out of range: (0, {n}) on a {n}-vertex index");
        golden.push(Response { id: 7, body: ResponseBody::Error(out_of_range) }.encode());
        script.extend_from_slice(&query_frame(8, &[]));
        let zero_pairs = "query batch declares zero pairs".to_string();
        golden.push(Response { id: 8, body: ResponseBody::Error(zero_pairs) }.encode());
        script.extend_from_slice(&query_frame(9, &[(1, 2)]));
        let body = ResponseBody::Distances(vec![model.dist(1, 2)]);
        golden.push(Response { id: 9, body }.encode());

        let handle = dep.serve(ServerConfig::default());
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
    }
}

#[test]
fn partial_frames_at_arbitrary_byte_boundaries() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 5)), Ids::Rank);
    for via in BOTH {
        partial_frames(via, &dep);
    }
}

fn partial_frames(via: Via, dep: &Deployment) {
    let (endpoint, model) = (Endpoint::boot(via, dep, FrontConfig::default()), dep.model());
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
    assert_eq!(frame_dists(&reply[0]), model.answers(&[(1, 4), (0, 2)]));

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
    assert_eq!(frame_dists(&reply[0]), vec![model.dist(2, 3)]);
    assert_eq!(frame_dists(&reply[1]), vec![model.dist(3, 2)], "{via:?}");

    drop(raw);
    endpoint.shutdown();
}

#[test]
fn pipelined_session_correlates_out_of_order_waits() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(80, 3.0, 6)), Ids::Rank);
    let (handle, model) = (dep.serve(ServerConfig::default()), dep.model());

    let mut session = Session::connect(handle.local_addr()).expect("connect");
    session.set_io_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for k in 0..10u32 {
        let pairs: Vec<(u32, u32)> = (0..=k).map(|i| ((i * 3 + k) % 80, (i * 11) % 80)).collect();
        expected.push(model.answers(&pairs));
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
}

#[test]
fn inflight_cap_pauses_reads_but_answers_everything() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 7)), Ids::Rank);
    for via in BOTH {
        inflight_cap(via, &dep);
    }
}

fn inflight_cap(via: Via, dep: &Deployment) {
    let endpoint =
        Endpoint::boot(via, dep, FrontConfig { max_inflight: 2, ..FrontConfig::default() });
    let model = dep.model();

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
        assert_eq!(frame_dists(frame), vec![model.dist(id as u32 % 60, 3)]);
    }

    drop(raw);
    endpoint.shutdown();
}

#[test]
fn never_reading_client_backpressures_without_stalling_the_reactor() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 8)), Ids::Rank);
    for via in BOTH {
        never_reading_client(via, &dep);
    }
}

fn never_reading_client(via: Via, dep: &Deployment) {
    let endpoint = Endpoint::boot(via, dep, FrontConfig::default());
    let addr = endpoint.addr;

    // Each response is ~195 KiB; eight of them (~1.6 MiB) exceed the
    // loop's 1 MiB write high-water mark, so with the client not
    // reading, the loop must park the connection instead of buffering
    // without bound — and keep serving *other* connections meanwhile.
    let pairs: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i % 60, (i * 13 + 1) % 60)).collect();
    let expect = dep.model().answers(&pairs);
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
    assert_eq!(admin.info().expect("info while peer is stalled").generation, 1);
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

/// Kinds 3 and 8 (the retired `stats` and `route_info`) are unknown
/// request kinds: an error answer carrying the frame's id, and the same
/// connection goes on to answer a query.
#[test]
fn retired_kinds_are_recoverable_errors() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 11)), Ids::Rank);
    for via in BOTH {
        let endpoint = Endpoint::boot(via, &dep, FrontConfig::default());
        let mut raw = TcpStream::connect(endpoint.addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        for kind in [3u8, 8] {
            let mut retired = Request { id: kind.into(), body: RequestBody::Info }.encode();
            retired[5] = kind;
            raw.write_all(&retired).unwrap();
            raw.write_all(&query_frame(100, &[(1, 4)])).unwrap();
            let mut reply = read_frames(&mut raw, 2);
            reply.sort_by_key(|f| frame_id(f));
            let msg = format!("unknown request kind {kind}");
            let refused = Response { id: kind.into(), body: ResponseBody::Error(msg) }.encode();
            assert_eq!(reply[0], refused, "{via:?}");
            assert_eq!(frame_dists(&reply[1]), vec![dep.model().dist(1, 4)], "{via:?}");
        }
        drop(raw);
        endpoint.shutdown();
    }
}

#[test]
fn idle_timeout_evicts_quiet_connections_only() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 9)), Ids::Rank);
    for via in BOTH {
        idle_eviction(via, &dep);
    }
}

fn idle_eviction(via: Via, dep: &Deployment) {
    let endpoint =
        Endpoint::boot(via, dep, FrontConfig { idle_timeout_ms: 150, ..FrontConfig::default() });
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
    let (a, b) = (Deployment::new(&ga, Ids::Rank), Deployment::new(&gb, Ids::Rank));

    let pairs = spread(120);
    let mut model = a.model();
    let expect_a = model.answers(&pairs);
    model.swap(&b);
    let expect_b = model.answers(&pairs);
    assert_ne!(expect_a, expect_b, "test graphs must disagree");

    let handle =
        a.serve(ServerConfig { swap_path: Some(b.index_path()), ..ServerConfig::default() });
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
}

/// Send one HTTP request on a keep-alive connection: its status code
/// and body.
fn http_roundtrip(stream: &mut TcpStream, request: &str) -> (u16, String) {
    let response = http_exchange(stream, request);
    let code = response.split(' ').nth(1).expect("status code").parse().unwrap();
    let (_, body) = response.split_once("\r\n\r\n").expect("end of head");
    (code, body.to_string())
}

#[test]
fn http_front_serves_json_on_the_same_port() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 10)), Ids::Rank);
    let (handle, model) = (dep.serve(ServerConfig::default()), dep.model());
    let addr = handle.local_addr();

    let mut http = TcpStream::connect(addr).expect("connect");
    http.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    // GET /query, keep-alive: two requests on one connection.
    let d01 = model.dist(0, 1);
    let (code, body) = http_roundtrip(&mut http, "GET /query?s=0&t=1 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(code, 200);
    assert_eq!(body, format!("{{\"s\":0,\"t\":1,\"dist\":{d01}}}"));
    let (code, body) = http_roundtrip(&mut http, "GET /query?s=2&t=2 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((code, body.as_str()), (200, "{\"s\":2,\"t\":2,\"dist\":0}"));

    // POST /query_many with both accepted JSON shapes.
    let want: Vec<String> = [(0u32, 1u32), (1, 2), (2, 0)]
        .iter()
        .map(|&(s, t)| {
            let d = model.dist(s, t);
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
}

/// Write `request` and read one whole response — status line, headers
/// and `Content-Length` body — off a keep-alive connection.
fn http_exchange(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let text = String::from_utf8_lossy(&buf);
        if let Some(head_end) = text.find("\r\n\r\n") {
            let length = text[..head_end]
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .map_or(0, |v| v.parse::<usize>().expect("Content-Length"));
            if buf.len() >= head_end + 4 + length {
                assert_eq!(buf.len(), head_end + 4 + length, "bytes past the response");
                return text.into_owned();
            }
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "EOF inside a response: {text}");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Send `request` on a fresh connection and read to EOF: the whole
/// response of a request that closes the connection.
fn http_closing(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(request).expect("write request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read to EOF");
    reply
}

/// Two components, `{0..=5}` and `{6..=9}` before ranking, each drawn
/// as one walk; the wire speaks rank ids (an identity `.rank`).
fn two_component_graph() -> Graph {
    let mut b = hop_doubling::sfgraph::builder::GraphBuilder::new_undirected(10);
    for walk in [&[0, 1, 2, 3, 0, 4, 5, 2][..], &[6, 7, 8, 9, 6, 8]] {
        for step in walk.windows(2) {
            b.add_edge(step[0], step[1]);
        }
    }
    b.build()
}

fn post(path: &str, body: &str) -> String {
    format!("POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}", body.len())
}

/// The HTTP script: each request and its whole response, in order.
/// The first five share one keep-alive connection; every other request
/// gets a connection of its own, which the response closes.
fn http_script(addr: SocketAddr) -> Vec<(String, String)> {
    let mut script = Vec::new();
    let mut keep = TcpStream::connect(addr).expect("connect");
    keep.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    for request in [
        "GET /query?s=0&t=1 HTTP/1.1\r\nHost: x\r\n\r\n".to_string(),
        "GET /query?s=0&t=9 HTTP/1.1\r\nHost: x\r\n\r\n".to_string(),
        post("/query_many", "{\"pairs\":[[0,1],[1,9],[4,4]]}"),
        post("/update", "{\"edges\":[[1,9,2]]}"),
        "GET /query?s=0&t=9 HTTP/1.1\r\nHost: x\r\n\r\n".to_string(),
    ] {
        let response = http_exchange(&mut keep, &request);
        script.push((request, response));
    }
    let mut oversized_head = b"GET /query?s=1&t=2 HTTP/1.1\r\n".to_vec();
    oversized_head.extend(std::iter::repeat_n(b'a', (8 << 10) + 1));
    for request in [
        b"GET /nope HTTP/1.1\r\n\r\n".to_vec(),
        b"DELETE /query HTTP/1.1\r\n\r\n".to_vec(),
        post("/query_many", "not json").into_bytes(),
        post("/query_many", "[]").into_bytes(),
        b"GET /query?s=0&t=10 HTTP/1.1\r\n\r\n".to_vec(),
        b"POST /query_many HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n".to_vec(),
        oversized_head,
        b"POST /query_many HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        b"GET /query HTTP/9.9\r\n\r\n".to_vec(),
        b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
    ] {
        let response = http_closing(addr, &request);
        let shown = String::from_utf8_lossy(&request[..request.len().min(64)]).into_owned();
        script.push((shown, response));
    }
    script
}

/// A shard router over the one shard of `dep`'s image, and the daemon
/// serving that shard.
fn one_shard_router(dep: &Deployment) -> (ServerHandle, ServerHandle) {
    let shard = dep.stage_shards(1).remove(0);
    let daemon = serve("127.0.0.1:0", &shard, ServerConfig::default()).expect("serve shard");
    let config = RouterConfig {
        mode: RouteMode::Shard,
        backends: vec![daemon.local_addr()],
        ..RouterConfig::default()
    };
    let router = serve_router("127.0.0.1:0", config).expect("shard router");
    (router, daemon)
}

/// What [`http_script`] must read, byte for byte: pinned literals, not
/// the encoder's output. The index node and a replica router answer
/// alike except for `/stats`, whose counters the script fixes: 7
/// requests (`/stats` included) and 8 refusals.
const HTTP_GOLDEN: [&str; 14] = [
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 22\r\nConnection: keep-alive\r\n\r\n\
    {\"s\":0,\"t\":1,\"dist\":2}",
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 25\r\nConnection: keep-alive\r\n\r\n\
    {\"s\":0,\"t\":9,\"dist\":null}",
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 20\r\nConnection: keep-alive\r\n\r\n\
    {\"dists\":[2,null,0]}",
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 34\r\nConnection: keep-alive\r\n\r\n\
    {\"generation\":1,\"overlay_edges\":1}",
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 22\r\nConnection: keep-alive\r\n\r\n\
    {\"s\":0,\"t\":9,\"dist\":4}",
    "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
    Content-Length: 28\r\nConnection: close\r\n\r\n\
    {\"error\":\"unknown endpoint\"}",
    "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
    Content-Length: 30\r\nConnection: close\r\n\r\n\
    {\"error\":\"method not allowed\"}",
    "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
    Content-Length: 42\r\nConnection: close\r\n\r\n\
    {\"error\":\"expected a JSON array of pairs\"}",
    "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
    Content-Length: 30\r\nConnection: close\r\n\r\n\
    {\"error\":\"pair list is empty\"}",
    "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
    Content-Length: 61\r\nConnection: close\r\n\r\n\
    {\"error\":\"vertex out of range: (0, 10) on a 10-vertex index\"}",
    "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
    Content-Length: 34\r\nConnection: close\r\n\r\n\
    {\"error\":\"request body too large\"}",
    "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: application/json\r\n\
    Content-Length: 34\r\nConnection: close\r\n\r\n\
    {\"error\":\"request head too large\"}",
    "HTTP/1.1 501 Not Implemented\r\nContent-Type: application/json\r\n\
    Content-Length: 44\r\nConnection: close\r\n\r\n\
    {\"error\":\"chunked bodies are not supported\"}",
    "HTTP/1.1 505 HTTP Version Not Supported\r\nContent-Type: application/json\r\n\
    Content-Length: 38\r\nConnection: close\r\n\r\n\
    {\"error\":\"only HTTP/1.x is supported\"}",
];

const STATS_NODE: &str = "\
    HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 428\r\nConnection: close\r\n\r\n\
    {\"protocol\":8,\"mode\":\"single\",\"generation\":1,\"vertices\":10,\"directed\":false,\
    \"resident_bytes\":150,\"overlay_edges\":1,\"overlay_affected\":2,\
    \"compactions\":0,\"requests\":7,\"protocol_errors\":8,\"durability\":\"disabled\",\
    \"wal_epoch\":0,\"wal_records\":0,\"wal_bytes\":0,\"recovered_records\":0,\
    \"recovered_dropped_bytes\":0,\"checkpoints\":0,\"aborted_compactions\":0,\"shard_lo\":0,\
    \"shard_hi\":0,\"shard_index\":0,\"shard_count\":0,\"backends\":0,\
    \"failovers\":0}";
const STATS_REPLICA: &str = "\
    HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
    Content-Length: 427\r\nConnection: close\r\n\r\n\
    {\"protocol\":8,\"mode\":\"replica\",\"generation\":1,\"vertices\":10,\"directed\":false,\
    \"resident_bytes\":0,\"overlay_edges\":0,\"overlay_affected\":0,\
    \"compactions\":0,\"requests\":7,\"protocol_errors\":8,\"durability\":\"disabled\",\
    \"wal_epoch\":0,\"wal_records\":0,\"wal_bytes\":0,\"recovered_records\":0,\
    \"recovered_dropped_bytes\":0,\"checkpoints\":0,\"aborted_compactions\":0,\"shard_lo\":0,\
    \"shard_hi\":0,\"shard_index\":0,\"shard_count\":0,\"backends\":1,\
    \"failovers\":0}";
const SHARD_UPDATE_REFUSED: &str = "\
    HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
    Content-Length: 104\r\nConnection: close\r\n\r\n\
    {\"error\":\"a shard router does not take updates: \
    rebuild and re-shard the image, or use --route replica\"}";

#[test]
fn http_script_matches_the_golden_transcript() {
    let dep = Deployment::new(&two_component_graph(), Ids::Rank);
    for (via, stats) in [(Via::Daemon, STATS_NODE), (Via::ReplicaRouter, STATS_REPLICA)] {
        let endpoint = Endpoint::boot(via, &dep, FrontConfig::default());
        let script = http_script(endpoint.addr);
        assert_eq!(script.len(), HTTP_GOLDEN.len() + 1);
        for ((request, got), want) in script.iter().zip(HTTP_GOLDEN.iter().chain([&stats])) {
            assert_eq!(got, want, "{via:?}: {request}");
        }
        endpoint.shutdown();
    }
    let (router, daemon) = one_shard_router(&dep);
    let update = post("/update", "{\"edges\":[[1,9,2]]}");
    assert_eq!(http_closing(router.local_addr(), update.as_bytes()), SHARD_UPDATE_REFUSED);
    router.shutdown();
    daemon.shutdown();
}

/// `--max-batch` binds HTTP as it binds `HOPQ`: at 4, a 5-pair query
/// and a 5-edge update are refused in HOPQ's words over both framings,
/// and a 4-pair query is answered.
#[test]
fn max_batch_binds_both_framings() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 12)), Ids::Rank);
    let model = dep.model();
    let four: Vec<(u32, u32)> = (0..4).map(|i| (i, i + 10)).collect();
    let five: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 10)).collect();
    let json = |pairs: &[(u32, u32)]| {
        let list: Vec<String> = pairs.iter().map(|(s, t)| format!("[{s},{t}]")).collect();
        format!("[{}]", list.join(","))
    };
    for via in BOTH {
        let endpoint =
            Endpoint::boot(via, &dep, FrontConfig { max_batch: 4, ..FrontConfig::default() });
        let mut client = Client::connect(endpoint.addr).expect("connect");
        client.set_io_timeout(Some(Duration::from_secs(20))).unwrap();
        assert_eq!(client.query(&four).expect("4 pairs"), model.answers(&four), "{via:?}");
        let refused = client.query(&five).expect_err("5 pairs").to_string();
        assert!(refused.ends_with("query batch of 5 pairs exceeds limit 4"), "{via:?}: {refused}");
        let refused = client.update(&[(0, 1, 1); 5]).expect_err("5 edges").to_string();
        assert!(refused.ends_with("update batch of 5 edges exceeds limit 4"), "{via:?}: {refused}");

        let mut http = TcpStream::connect(endpoint.addr).expect("connect");
        http.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let answer = http_exchange(&mut http, &post("/query_many", &json(&four)));
        let dists: Vec<String> = model.answers(&four).iter().map(u32::to_string).collect();
        assert!(answer.ends_with(&format!("{{\"dists\":[{}]}}", dists.join(","))), "{answer}");
        let refusal = |request: String| http_closing(endpoint.addr, request.as_bytes());
        let refused = refusal(post("/query_many", &json(&five)));
        assert!(refused.starts_with("HTTP/1.1 400 "), "{via:?}: {refused}");
        assert!(refused.ends_with("{\"error\":\"query batch of 5 pairs exceeds limit 4\"}"));
        let refused = refusal(post("/update", "[[0,1,1],[0,2,1],[0,3,1],[0,4,1],[0,5,1]]"));
        assert!(refused.ends_with("{\"error\":\"update batch of 5 edges exceeds limit 4\"}"));
        drop((client, http));
        endpoint.shutdown();
    }
}

/// A peer that half-closes with part of an HTTP request buffered is
/// answered in HTTP, a 400, and the connection closes.
#[test]
fn truncated_http_request_is_answered_in_http() {
    let dep = Deployment::new(&glp(&GlpParams::with_density(60, 3.0, 13)), Ids::Rank);
    for via in BOTH {
        let endpoint = Endpoint::boot(via, &dep, FrontConfig::default());
        let mut raw = TcpStream::connect(endpoint.addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        raw.write_all(b"GET /query?s=1").unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("read to EOF");
        assert!(reply.starts_with("HTTP/1.1 400 "), "{via:?}: {reply:?}");
        assert!(reply.ends_with("{\"error\":\"truncated frame\"}"), "{via:?}: {reply:?}");
        endpoint.shutdown();
    }
}
