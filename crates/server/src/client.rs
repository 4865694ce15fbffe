//! Clients for the `HOPQ` protocol: a pipelined [`Session`] and the
//! thin blocking [`Client`] wrapper.
//!
//! The protocol is pipelined — request ids are echoed verbatim and the
//! server may answer **out of order** (batches complete
//! independently). [`Session`] exposes that directly:
//!
//! ```text
//! let t1 = session.submit(&pairs_a)?;   // fire...
//! let t2 = session.submit(&pairs_b)?;   // ...and keep firing
//! let b  = session.wait(t2)?;           // answers correlate by id,
//! let a  = session.wait(t1)?;           // any completion order works
//! ```
//!
//! `wait` reads frames off the socket and stashes answers for tickets
//! the caller hasn't asked about yet, so tickets can be awaited in any
//! order. [`Client`] keeps the one-request-at-a-time surface the CLI,
//! tests, and hopbench use — each call is submit-then-wait on an
//! internal session.
//!
//! Both types take an optional I/O timeout ([`Session::set_io_timeout`],
//! [`Client::connect_timeout`]) so admin tooling pointed at a hung
//! server fails with `TimedOut` instead of blocking forever.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use sfgraph::{Dist, VertexId};

use crate::proto::{
    read_response, InfoReply, Request, RequestBody, ResponseBody, RouteReply, StatsReply,
    MAX_PAYLOAD,
};

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Connect errors worth retrying: the listener is not there *yet*
/// (daemon restarting, socket backlog overflowed), as opposed to
/// timeouts and routing errors that a retry will not fix.
fn is_transient_connect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// A claim on one in-flight query batch, returned by
/// [`Session::submit`] and redeemed by [`Session::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    id: u64,
    pairs: usize,
}

impl Ticket {
    /// The wire request id this ticket correlates on.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A pipelined connection: submit many query batches, await their
/// answers in any order.
pub struct Session {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Answers that arrived while waiting for a different ticket.
    stash: HashMap<u64, ResponseBody>,
    /// Ids submitted and not yet redeemed (guards double-waits).
    outstanding: HashMap<u64, usize>,
}

impl Session {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Session> {
        Session::from_stream(TcpStream::connect(addr)?)
    }

    /// Connect with a timeout covering the TCP connect itself; the same
    /// timeout is installed as the session's I/O timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<Session> {
        let mut session = Session::from_stream(TcpStream::connect_timeout(addr, timeout)?)?;
        session.set_io_timeout(Some(timeout))?;
        Ok(session)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Session> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Session {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            stash: HashMap::new(),
            outstanding: HashMap::new(),
        })
    }

    /// Bound every subsequent socket read and write: a server that goes
    /// silent surfaces as `TimedOut`/`WouldBlock` instead of hanging
    /// the caller. `None` restores blocking forever.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// The one place a frame is written. Refuses a body the server could
    /// only treat as stream corruption (declared payload above the wire
    /// cap) while the connection is still healthy, before any byte of
    /// it is sent.
    fn send(&mut self, body: RequestBody) -> std::io::Result<u64> {
        let len = body.payload_len();
        if len > MAX_PAYLOAD as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("a {len}-byte payload exceeds the {MAX_PAYLOAD}-byte wire payload cap"),
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&Request { id, body }.encode())?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Fire one query batch without waiting for its answer. The ticket
    /// is redeemed by [`Session::wait`], in any order relative to other
    /// tickets.
    pub fn submit(&mut self, pairs: &[(VertexId, VertexId)]) -> std::io::Result<Ticket> {
        let id = self.send(RequestBody::Query(pairs.to_vec()))?;
        self.outstanding.insert(id, pairs.len());
        Ok(Ticket { id, pairs: pairs.len() })
    }

    /// Number of submitted-but-unredeemed tickets.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Block until `ticket`'s answer is available and return its
    /// distances (input order, [`crate::proto::UNREACHABLE`] for
    /// disconnected pairs). Answers for *other* tickets read along the
    /// way are stashed for their own `wait` calls.
    pub fn wait(&mut self, ticket: Ticket) -> std::io::Result<Vec<Dist>> {
        if self.outstanding.remove(&ticket.id).is_none() {
            return Err(invalid(format!(
                "ticket {} was never submitted or already redeemed",
                ticket.id
            )));
        }
        let body = self.wait_body(ticket.id)?;
        match body {
            ResponseBody::Distances(dists) if dists.len() == ticket.pairs => Ok(dists),
            ResponseBody::Distances(dists) => {
                Err(invalid(format!("{} answers for {} pairs", dists.len(), ticket.pairs)))
            }
            ResponseBody::Error(msg) => Err(invalid(msg)),
            other => Err(invalid(format!("unexpected response {other:?}"))),
        }
    }

    /// Read frames until the response for `id` arrives, stashing
    /// answers to other in-flight ids.
    fn wait_body(&mut self, id: u64) -> std::io::Result<ResponseBody> {
        if let Some(body) = self.stash.remove(&id) {
            return Ok(body);
        }
        loop {
            let response = read_response(&mut self.reader)?;
            if response.id == id {
                return Ok(response.body);
            }
            if self.outstanding.contains_key(&response.id) {
                self.stash.insert(response.id, response.body);
                continue;
            }
            // Not ours and not in flight: a fatal server error frame
            // (id 0) carries the reason the stream is about to close.
            if let ResponseBody::Error(msg) = response.body {
                return Err(invalid(msg));
            }
            return Err(invalid(format!("response id {} was never requested", response.id)));
        }
    }

    /// Submit-and-wait for one admin request (no pipelining — admin
    /// frames are rare and their ordering matters to the caller) whose
    /// ok reply `pick` recognises. A server-reported error, or a reply
    /// of any other kind, is `InvalidData`.
    fn ask<T>(
        &mut self,
        body: RequestBody,
        pick: impl FnOnce(&ResponseBody) -> Option<T>,
    ) -> std::io::Result<T> {
        let id = self.send(body)?;
        match self.wait_body(id)? {
            ResponseBody::Error(msg) => Err(invalid(msg)),
            reply => pick(&reply).ok_or_else(|| invalid(format!("unexpected response {reply:?}"))),
        }
    }
}

/// A blocking connection to a `hopdb-server` daemon: each call is one
/// request and its answer. Wraps a [`Session`]; use the session
/// directly to pipeline.
pub struct Client {
    session: Session,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Ok(Client { session: Session::connect(addr)? })
    }

    /// Connect with a timeout that also bounds every later read/write —
    /// the variant admin tooling should use so a dead server cannot
    /// hang it.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        Ok(Client { session: Session::connect_timeout(addr, timeout)? })
    }

    /// Like [`Client::connect_timeout`], but retry transient connect
    /// failures (refused/reset/aborted — the daemon is restarting or
    /// not yet listening) up to `retries` additional attempts, sleeping
    /// an exponentially growing, jittered backoff between attempts.
    /// `timeout` stays a *per-attempt* bound (`None` = block forever,
    /// matching [`Client::connect`]); non-transient errors and
    /// per-attempt timeouts fail immediately.
    pub fn connect_retry(
        addr: &SocketAddr,
        timeout: Option<Duration>,
        retries: u32,
    ) -> std::io::Result<Client> {
        // Deterministic tooling doesn't need a real RNG: one LCG step
        // seeded from the clock de-synchronizes concurrent callers.
        let mut jitter_state = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 | 1)
            .unwrap_or(1);
        let mut backoff = Duration::from_millis(50);
        let mut attempt = 0;
        loop {
            let result = match timeout {
                Some(t) => Client::connect_timeout(addr, t),
                None => Client::connect(addr),
            };
            match result {
                Ok(client) => return Ok(client),
                Err(e) if attempt < retries && is_transient_connect_error(&e) => {
                    jitter_state = jitter_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // Sleep backoff ± 25%.
                    let base = backoff.as_millis() as u64;
                    let spread = (base / 2).max(1);
                    let jittered = base - spread / 2 + jitter_state % spread;
                    std::thread::sleep(Duration::from_millis(jittered));
                    backoff = (backoff * 2).min(Duration::from_secs(1));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Bound every subsequent socket read/write (`None` = block forever).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.session.set_io_timeout(timeout)
    }

    /// The underlying pipelined session.
    pub fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Distance of a batch of `(s, t)` pairs, in input order;
    /// [`crate::proto::UNREACHABLE`] marks disconnected pairs.
    pub fn query(&mut self, pairs: &[(VertexId, VertexId)]) -> std::io::Result<Vec<Dist>> {
        let ticket = self.session.submit(pairs)?;
        self.session.wait(ticket)
    }

    /// Distance of a single pair.
    pub fn query_one(&mut self, s: VertexId, t: VertexId) -> std::io::Result<Dist> {
        Ok(self.query(&[(s, t)])?[0])
    }

    /// Trigger a hot index swap; returns `(generation, vertices)` of
    /// the newly promoted index.
    pub fn swap(&mut self) -> std::io::Result<(u64, u64)> {
        self.session.ask(RequestBody::Swap, |reply| match *reply {
            ResponseBody::Swapped { generation, vertices } => Some((generation, vertices)),
            _ => None,
        })
    }

    /// Insert a batch of weighted edges into the live overlay; returns
    /// `(generation, overlay_edges)` — the generation serving the
    /// update (unchanged: updates do not bump it) and the deduplicated
    /// overlay size after the batch.
    pub fn update(&mut self, edges: &[(VertexId, VertexId, Dist)]) -> std::io::Result<(u64, u64)> {
        self.session.ask(RequestBody::Update(edges.to_vec()), |reply| match *reply {
            ResponseBody::Updated { generation, overlay_edges } => {
                Some((generation, overlay_edges))
            }
            _ => None,
        })
    }

    /// Fetch the extended `info` snapshot: stats plus overlay,
    /// compaction and write-ahead-log state.
    pub fn info(&mut self) -> std::io::Result<InfoReply> {
        self.session.ask(RequestBody::Info, |reply| match *reply {
            ResponseBody::Info(info) => Some(info),
            _ => None,
        })
    }

    /// Compact: rebuild the frozen index from the server's source graph
    /// plus the accumulated update log and promote it as a fresh
    /// generation; returns `(generation, vertices)`. Requires the
    /// server to have been started with a source graph.
    pub fn compact(&mut self) -> std::io::Result<(u64, u64)> {
        self.session.ask(RequestBody::Compact, |reply| match *reply {
            ResponseBody::Compacted { generation, vertices } => Some((generation, vertices)),
            _ => None,
        })
    }

    /// Fetch serving statistics.
    pub fn stats(&mut self) -> std::io::Result<StatsReply> {
        self.session.ask(RequestBody::Stats, |reply| match *reply {
            ResponseBody::Stats(stats) => Some(stats),
            _ => None,
        })
    }

    /// Fetch the endpoint's serving-topology description: single node,
    /// replica router, or shard router, plus the shard range when the
    /// endpoint serves a shard image.
    pub fn route_info(&mut self) -> std::io::Result<RouteReply> {
        self.session.ask(RequestBody::RouteInfo, |reply| match *reply {
            ResponseBody::RouteInfo(route) => Some(route),
            _ => None,
        })
    }

    /// Ask the server to stop (requires the server to allow it).
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.session.ask(RequestBody::Shutdown, |reply| match *reply {
            ResponseBody::Bye => Some(()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A body over the wire cap is the caller's mistake, reported as
    /// `InvalidInput` on a healthy connection — for every kind, not
    /// just queries — and not one byte of it reaches the peer, which
    /// could only have answered with a fatal error and a close.
    #[test]
    fn an_oversized_body_of_any_kind_is_refused_before_a_byte_is_written() {
        // A listener that never reads: the handshake completes from the
        // backlog, so whatever the client wrote would sit in the socket.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");

        let cap = MAX_PAYLOAD as usize;
        let edges = vec![(0, 1, 1); (cap - 4) / 12 + 1];
        let pairs = vec![(0, 1); (cap - 4) / 8 + 1];
        for err in [client.update(&edges).unwrap_err(), client.query(&pairs).unwrap_err()] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains("wire payload cap"), "{err}");
        }
        assert_eq!(client.session().in_flight(), 0, "a refused batch leaves no ticket behind");

        drop(client);
        let (mut peer, _) = listener.accept().expect("accept");
        let mut written = Vec::new();
        peer.read_to_end(&mut written).expect("read to the client's close");
        assert!(written.is_empty(), "{} bytes reached the peer", written.len());
    }
}
