//! Per-connection state for the serving loop.
//!
//! A [`Conn`] owns one nonblocking `TcpStream` plus the read and write
//! buffers that turn readiness events into whole protocol requests:
//!
//! * the **read buffer** accumulates bytes until [`Conn::next_request`]
//!   can cut a complete frame (HOPQ binary or HTTP), at arbitrary byte
//!   boundaries — a frame may arrive in one segment or one byte at a
//!   time;
//! * the **write buffer** holds encoded responses the socket was not
//!   ready to take; a cursor tracks the flushed prefix and the buffer
//!   compacts lazily.
//!
//! The protocol spoken is detected from the first bytes: `"HOPQ"` magic
//! selects the binary protocol, an HTTP method selects the HTTP/JSON
//! front, anything else is handed to the binary decoder whose bad-magic
//! path produces the fatal error frame. Detection is per-connection and
//! permanent.
//!
//! The connection itself never decides *policy* — in-flight caps, write
//! high-water backpressure, and idle timeouts are judged by the serving
//! loop reading [`Conn`] fields; this module only does mechanics.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::http::{self, HttpDecoded};
use crate::proto::{decode_request, Decoded, Reply, RequestBody, ResponseBody};

/// Bytes read from a socket per readiness pass. A level-triggered poller
/// re-reports a socket with leftover bytes, so a bounded pass keeps one
/// fire-hose connection from starving the rest.
const READ_PASS_BUDGET: usize = 256 << 10;

/// Pause reading from a connection whose write buffer backs up past
/// this many bytes (a peer that sends queries but never reads answers).
pub const WRITE_HIGH_WATER: usize = 1 << 20;

/// Which protocol the peer speaks, detected from its first bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Not enough bytes yet to tell.
    Unknown,
    /// Binary `HOPQ` frames.
    Hopq,
    /// The HTTP/1.1 JSON front.
    Http,
}

/// A whole request cut from the read buffer, or a stream-level event —
/// the same for either framing.
#[derive(Debug)]
pub enum ConnRequest {
    /// A well-formed request, and how to answer it.
    Request(RequestBody, Reply),
    /// A frame-aligned violation: answer this error through the reply,
    /// keep the connection.
    Bad(Reply, String),
    /// The stream cannot go on (corruption, an HTTP refusal, a request
    /// cut short by EOF): send these final bytes, then close.
    Fatal(Vec<u8>),
}

/// Lifecycle of one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Serving normally.
    Open,
    /// A close was decided (fatal error, HTTP `Connection: close`,
    /// server drain); finish flushing the write buffer, then close.
    /// No further requests are read.
    CloseAfterFlush,
    /// The write side was shut down; discard whatever the peer still
    /// sends (bounded) so the close doesn't RST away the final frames.
    Draining {
        /// Remaining discard budget in bytes.
        budget: usize,
    },
    /// Fully done — the loop should deregister and drop it.
    Dead,
}

/// One nonblocking connection with its buffers and protocol state.
pub struct Conn {
    /// The socket (nonblocking).
    pub stream: TcpStream,
    /// Detected protocol.
    pub mode: Mode,
    /// Lifecycle state.
    pub state: ConnState,
    /// Unanswered requests handed to the batcher. The loop stops
    /// *reading* (not answering) past its cap.
    pub inflight: usize,
    /// Peer closed its write side (EOF seen); finish in-flight work,
    /// flush, then close.
    pub peer_eof: bool,
    /// Last moment bytes arrived or a response was queued — the idle
    /// sweep evicts connections stale past the timeout.
    pub last_activity: Instant,
    /// Interest mask currently registered with the poller (`EV_*`).
    pub registered: u32,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
}

impl Conn {
    /// Wrap an accepted stream (caller has already set nonblocking).
    pub fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            mode: Mode::Unknown,
            state: ConnState::Open,
            inflight: 0,
            peer_eof: false,
            last_activity: now,
            registered: 0,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
        }
    }

    /// Unparsed bytes currently buffered.
    pub fn pending_read_bytes(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    /// Unflushed response bytes currently buffered.
    pub fn pending_write_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the write buffer is past the backpressure high-water
    /// mark (reading should pause until it drains).
    pub fn write_backed_up(&self) -> bool {
        self.pending_write_bytes() > WRITE_HIGH_WATER
    }

    /// Read whatever the socket has, up to the per-pass budget.
    /// Returns the bytes read this pass; sets [`Conn::peer_eof`] on a
    /// clean EOF. `WouldBlock` is "done for now", other errors kill the
    /// connection.
    pub fn fill(&mut self, now: Instant) -> std::io::Result<usize> {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 << 10];
        while total < READ_PASS_BUDGET {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            self.last_activity = now;
        }
        Ok(total)
    }

    /// Drop every buffered byte unread: what a closing connection does
    /// with whatever the peer still sends.
    pub fn discard_read(&mut self) {
        self.rbuf.clear();
        self.rpos = 0;
    }

    /// Cut the next whole request off the read buffer, detecting the
    /// protocol on first contact, with at most `max_batch` pairs or
    /// edges. `None` = need more bytes (or the connection is past
    /// reading).
    pub fn next_request(&mut self, max_batch: usize) -> Option<ConnRequest> {
        if self.state != ConnState::Open {
            return None;
        }
        self.compact_read();
        let buf = &self.rbuf[self.rpos..];
        if self.mode == Mode::Unknown && buf.len() >= 4 {
            self.mode = if http::looks_like_http(buf) { Mode::Http } else { Mode::Hopq };
        }
        let cut = match self.mode {
            // Fewer than 4 bytes: not classified yet, nothing to cut.
            Mode::Unknown => None,
            Mode::Hopq => match decode_request(buf, max_batch) {
                Decoded::Incomplete => None,
                Decoded::Request { request, used } => {
                    Some((ConnRequest::Request(request.body, Reply::Hopq { id: request.id }), used))
                }
                Decoded::Bad { id, msg, used } => {
                    Some((ConnRequest::Bad(Reply::Hopq { id }, msg), used))
                }
                Decoded::Fatal(msg) => Some((self.fatal(msg), 0)),
            },
            Mode::Http => match http::decode_http(buf, max_batch) {
                HttpDecoded::Incomplete => None,
                HttpDecoded::Request { body, reply, used } => {
                    Some((ConnRequest::Request(body, reply), used))
                }
                HttpDecoded::Error(resp) => Some((ConnRequest::Fatal(resp), 0)),
            },
        };
        match cut {
            Some((request, used)) => {
                self.rpos += used;
                Some(request)
            }
            // EOF with a partial request still buffered: the peer can
            // never complete it.
            None if self.peer_eof && self.pending_read_bytes() > 0 => {
                Some(self.fatal("truncated frame".to_string()))
            }
            None => None,
        }
    }

    /// A stream-level error in the framing the peer speaks (`HOPQ`
    /// until it is known to be HTTP), as the connection's last answer.
    fn fatal(&self, msg: String) -> ConnRequest {
        let reply = match self.mode {
            Mode::Http => Reply::Http { close: true, one: None },
            Mode::Hopq | Mode::Unknown => Reply::Hopq { id: 0 },
        };
        ConnRequest::Fatal(reply.encode(&ResponseBody::Error(msg)).0)
    }

    fn compact_read(&mut self) {
        if self.rpos > 0 && (self.rpos == self.rbuf.len() || self.rpos >= 32 << 10) {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Queue encoded response bytes for writing.
    pub fn queue_write(&mut self, bytes: &[u8], now: Instant) {
        // Compact before growing: flushed prefixes of earlier responses
        // must not accumulate under a slow reader.
        if self.wpos > 0 && (self.wpos == self.wbuf.len() || self.wpos >= 32 << 10) {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        self.wbuf.extend_from_slice(bytes);
        self.last_activity = now;
    }

    /// Write as much buffered response data as the socket takes.
    /// Returns `true` when the buffer fully drained. `WouldBlock` is
    /// "socket full", other errors kill the connection.
    pub fn flush(&mut self) -> std::io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use std::net::TcpListener;

    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (Conn::new(server_side, Instant::now()), peer)
    }

    #[test]
    fn detects_protocol_and_cuts_frames_across_boundaries() {
        let (mut conn, mut peer) = pair();
        let frame = Request { id: 5, body: RequestBody::Query(vec![(1, 2)]) }.encode();
        // Drip the frame one byte at a time: never a spurious request,
        // exactly one at the end.
        for (i, b) in frame.iter().enumerate() {
            peer.write_all(std::slice::from_ref(b)).unwrap();
            loop {
                if conn.fill(Instant::now()).unwrap() > 0 {
                    break;
                }
            }
            let got = conn.next_request(1 << 16);
            if i + 1 < frame.len() {
                assert!(got.is_none(), "byte {i}: {got:?}");
            } else {
                match got {
                    Some(ConnRequest::Request(_, reply)) => {
                        assert_eq!(reply, Reply::Hopq { id: 5 })
                    }
                    other => panic!("want request, got {other:?}"),
                }
            }
        }
        assert_eq!(conn.mode, Mode::Hopq);
        assert_eq!(conn.pending_read_bytes(), 0);

        // A second conn speaking HTTP classifies as HTTP.
        let (mut conn2, mut peer2) = pair();
        peer2.write_all(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        while conn2.fill(Instant::now()).unwrap() == 0 {}
        match conn2.next_request(16) {
            Some(ConnRequest::Request(RequestBody::Info, Reply::Http { close: false, .. })) => {}
            other => panic!("want info, got {other:?}"),
        }
        assert_eq!(conn2.mode, Mode::Http);
    }

    #[test]
    fn pipelined_frames_cut_in_order_and_garbage_is_fatal() {
        let (mut conn, mut peer) = pair();
        let mut bytes = Vec::new();
        for id in [10u64, 11, 12] {
            bytes.extend_from_slice(&Request { id, body: RequestBody::Info }.encode());
        }
        peer.write_all(&bytes).unwrap();
        while conn.fill(Instant::now()).unwrap() == 0 {}
        for want in [10u64, 11, 12] {
            match conn.next_request(16) {
                Some(ConnRequest::Request(_, reply)) => assert_eq!(reply, Reply::Hopq { id: want }),
                other => panic!("want {want}, got {other:?}"),
            }
        }
        assert!(conn.next_request(16).is_none());

        let (mut garbage, mut peer3) = pair();
        peer3.write_all(b"XXXXXXXX").unwrap();
        while garbage.fill(Instant::now()).unwrap() == 0 {}
        match garbage.next_request(16) {
            Some(ConnRequest::Fatal(bytes)) => assert_eq!(&bytes[..4], b"HOPR"),
            other => panic!("want a fatal frame, got {other:?}"),
        }
    }

    #[test]
    fn flush_reports_drained_and_eof_is_flagged() {
        let (mut conn, mut peer) = pair();
        conn.queue_write(b"hello", Instant::now());
        assert_eq!(conn.pending_write_bytes(), 5);
        assert!(conn.flush().unwrap());
        assert_eq!(conn.pending_write_bytes(), 0);
        let mut got = [0u8; 5];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");

        drop(peer);
        while !conn.peer_eof {
            conn.fill(Instant::now()).unwrap();
        }
    }
}
