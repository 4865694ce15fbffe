//! Update-path weight validation, end to end on both wire fronts.
//!
//! `sfgraph::io` refuses zero edge weights at parse time; the live
//! update path must enforce the same rule. A batch carrying a zero
//! weight is nacked with a *recoverable* error — no panic, no silent
//! clamp-to-1, no partial application — on the binary `HOPQ` front and
//! on `POST /update`, and the connection (HOPQ) / the daemon (HTTP)
//! keeps serving afterwards.

use std::io::ErrorKind;

use hopdb_server::{Client, ServerConfig};
use sfgraph::builder::GraphBuilder;
use sfgraph::VertexId;

#[path = "../../../tests/testkit/mod.rs"]
mod testkit;
use testkit::{Deployment, Ids};

const N: usize = 40;

/// A weighted ring, served in rank ids: every vertex reachable, no
/// shortcuts, so an accepted update visibly changes a distance and a
/// nacked one visibly does not.
fn ring() -> Deployment {
    let mut b = GraphBuilder::new_undirected(N).weighted();
    for v in 0..N as VertexId {
        b.add_weighted_edge(v, (v + 1) % N as VertexId, 2);
    }
    Deployment::new(&b.build(), Ids::Rank)
}

// Named for the poller Linux runs; the loop above it is the same on
// every unix.
#[test]
fn hopq_zero_weight_is_nacked_epoll_backend() {
    let dep = ring();
    let handle = dep.serve(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let before = client.query_one(0, 3).expect("baseline");
    assert_eq!(before, dep.model().dist(0, 3), "served answers diverge from the model");

    // Pure zero-weight batch, and a mixed batch hiding the zero in the
    // middle: both must nack without applying anything.
    for batch in [vec![(0, 3, 0)], vec![(5, 6, 1), (0, 3, 0), (7, 8, 1)]] {
        let err = client.update(&batch).expect_err("zero weight must nack");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("weight 0"), "{err}");
        assert!(err.to_string().contains("(0, 3)"), "name the offender: {err}");
    }

    // Recoverable: the same connection still answers queries and the
    // nacked batches left no trace — neither the zero edge nor the
    // valid edges that shared a frame with it.
    assert_eq!(client.query_one(0, 3).expect("alive after nack"), before);
    let info = client.info().expect("info");
    assert_eq!(info.overlay_edges, 0, "a nacked batch must apply nothing");

    // A clean batch on the same connection still works.
    client.update(&[(0, 3, 1)]).expect("valid update after nacks");
    assert_eq!(client.query_one(0, 3).expect("updated"), 1);

    handle.shutdown();
}

#[test]
fn http_zero_weight_is_nacked() {
    use std::io::{Read as _, Write as _};

    let dep = ring();
    let handle = dep.serve(ServerConfig::default());
    let addr = handle.local_addr();

    let http = |request: String| -> String {
        let mut sock = std::net::TcpStream::connect(addr).expect("http connect");
        sock.write_all(request.as_bytes()).expect("http write");
        let mut reply = String::new();
        sock.read_to_string(&mut reply).expect("http read");
        reply
    };
    let post_update = |body: &str| -> String {
        http(format!(
            "POST /update HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ))
    };

    let get_dist = || http("GET /query?s=0&t=3 HTTP/1.1\r\nConnection: close\r\n\r\n".to_string());
    let baseline = get_dist();
    assert!(baseline.starts_with("HTTP/1.1 200"), "{baseline}");
    let baseline_dist = baseline.split("\"dist\":").nth(1).expect("dist field").to_string();

    let reply = post_update(r#"{"edges":[[0,3,0]]}"#);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("weight 0"), "{reply}");
    // Mixed batch: the valid edge must not slip through around the nack.
    let reply = post_update(r#"{"edges":[[5,6,1],[0,3,0]]}"#);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // The daemon keeps serving: untouched distance, empty overlay, and
    // a clean update still lands.
    let reply = get_dist();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.ends_with(&baseline_dist), "nacked batch changed an answer: {reply}");
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.info().expect("info").overlay_edges, 0);
    let reply = post_update(r#"{"edges":[[0,3,1]]}"#);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let reply = http("GET /query?s=0&t=3 HTTP/1.1\r\nConnection: close\r\n\r\n".to_string());
    assert!(reply.contains("\"dist\":1"), "{reply}");

    handle.shutdown();
}
