//! The `HOPQ` wire protocol: length-prefixed binary frames.
//!
//! Every frame — request or response — is the same fixed 18-byte
//! header ([`HEADER`]) followed by `payload len` bytes of payload; every
//! integer is little-endian:
//!
//! ```text
//! magic        4 B  "HOPQ" request / "HOPR" response
//! version      1 B  7; any other value is fatal
//! kind         1 B  request kind; in a response 0 = error, else the request kind it answers
//! request id   8 B  u64, chosen by the client, echoed in the response
//! payload len  4 B  u32, at most 16 MiB
//! ```
//!
//! The kind table ([`KINDS`]) is the one extension point; integers
//! without a type are `u32`:
//!
//! | kind | name | request payload | ok reply payload |
//! |------|------|-----------------|------------------|
//! | 1 | query | count, then count × (s, t) | count, then count × dist |
//! | 2 | swap | empty | generation u64, vertices u64 |
//! | 4 | shutdown | empty | empty |
//! | 5 | update | count, then count × (s, t, w) | generation u64, overlay_edges u64 |
//! | 6 | info | empty | InfoReply |
//! | 7 | compact | empty | generation u64, vertices u64 |
//!
//! The kind byte alone names a reply's layout: `0` is an error whose
//! payload is a UTF-8 message, anything else the ok reply of that
//! request kind, and a payload that does not fit the layout is fatal —
//! never a guess at another one. [`InfoReply`] — the one status reply,
//! from an index node and a router alike — is its fields in declaration
//! order, a flag as one byte; a `dist` of [`UNREACHABLE`] marks a
//! disconnected pair. Kinds 3 and 8 (the retired `stats` and
//! `route_info`) are unknown request kinds like any other. There
//! is one version: both ends of a connection are built from this crate,
//! so any other version byte is a stale build and is refused outright.
//! `crates/server/tests/proto.rs` renders both blocks above from the
//! constants and fails when these docs or the README drift from them.
//!
//! ## Pipelining
//!
//! The protocol is *pipelined by design*: the request id in every
//! header is chosen by the client and echoed verbatim in the matching
//! response, so a client may keep many requests in flight on one
//! connection without waiting for answers. Ordering guarantees:
//!
//! * Every well-formed request gets exactly one response carrying its
//!   id (recoverable violations get an error response with the id).
//! * Responses may arrive **out of order**: the server coalesces query
//!   frames from many connections into shared batches, which
//!   complete independently, and parse-level errors are answered
//!   without queueing at all. Clients must correlate by id (see
//!   `client::Session`), never by arrival order.
//! * Servers cap the number of unanswered query frames per connection
//!   (default 128) and stop *reading* — not answering — beyond the cap,
//!   so a well-behaved pipelined client just sees backpressure.
//!
//! Id reuse while a request is still in flight is legal on the wire but
//! makes responses ambiguous to the client; `client::Session` always
//! allocates fresh ids.
//!
//! ## Error discipline
//!
//! Decoding distinguishes *recoverable* violations from *fatal* ones.
//! A frame whose header is well-formed but whose payload is invalid
//! (zero-pair batch, batch over the server limit, payload/count
//! mismatch, unknown kind) has already been consumed in full, so the
//! stream is still frame-aligned: the server answers with an error
//! response and keeps the connection. Bad magic, a version mismatch, a
//! declared length above [`MAX_PAYLOAD`], or EOF mid-frame leave the
//! stream unsynchronizable: the server sends a final error frame (id 0)
//! and closes. Nothing in this module panics on malformed input.
//!
//! Requests are decoded by [`decode_request`], which consumes a byte
//! buffer incrementally and reports `Incomplete` until a whole frame
//! has arrived (the server's per-connection read buffer, where frames
//! arrive split at arbitrary byte boundaries). Responses are decoded by
//! [`read_response`], which blocks on a stream (the client).
//!
//! ## One request, two framings
//!
//! The HTTP front (`crate::http`) is a second framing of the same
//! requests: it decodes into a [`RequestBody`] too, and either framing
//! hands the server a [`Reply`] saying how to answer. Every answer — a
//! stage's, or one the serving loop gives inline — is a
//! [`ResponseBody`] encoded by [`Reply::encode`].

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use extmem::wire;
use std::io::{ErrorKind, Read};

/// Request frame magic.
pub const REQ_MAGIC: [u8; 4] = *b"HOPQ";
/// Response frame magic.
pub const RESP_MAGIC: [u8; 4] = *b"HOPR";
/// The protocol version: byte 4 of every frame in either direction.
/// A frame carrying any other value is fatal.
pub const VERSION: u8 = 7;
/// The frame header in wire order: `(field, bytes)`.
pub const HEADER: [(&str, usize); 5] =
    [("magic", 4), ("version", 1), ("kind", 1), ("request id", 8), ("payload len", 4)];
/// Fixed frame header size: the sum of [`HEADER`].
pub const HEADER_LEN: usize = {
    let [(_, magic), (_, version), (_, kind), (_, id), (_, len)] = HEADER;
    magic + version + kind + id + len
};
/// Hard cap on a declared payload length. A header announcing more is
/// treated as stream corruption (fatal), not as a large request — the
/// cap bounds the allocation a malicious or broken peer can force.
pub const MAX_PAYLOAD: u32 = 1 << 24;
/// Distance value marking an unreachable pair in query responses
/// (numerically identical to `sfgraph::INF_DIST`).
pub const UNREACHABLE: u32 = u32::MAX;
/// Default cap on pairs per query request (servers may lower it).
pub const DEFAULT_MAX_BATCH: usize = 1 << 16;
/// Bytes per `u32`, the unit of every counted payload.
const WORD: usize = std::mem::size_of::<u32>();

const KIND_QUERY: u8 = 1;
const KIND_SWAP: u8 = 2;
const KIND_SHUTDOWN: u8 = 4;
const KIND_UPDATE: u8 = 5;
const KIND_INFO: u8 = 6;
const KIND_COMPACT: u8 = 7;
/// The kind byte of an error response; no request kind uses it.
const REPLY_ERROR: u8 = 0;

/// The kind table: `(kind byte, name, request payload, ok reply
/// payload)`; integers without a type are `u32`. A kind byte that is
/// not in this table is an `unknown request kind` (recoverable) in a
/// request and fatal in a response.
pub const KINDS: [(u8, &str, &str, &str); 6] = [
    (KIND_QUERY, "query", "count, then count × (s, t)", "count, then count × dist"),
    (KIND_SWAP, "swap", "empty", "generation u64, vertices u64"),
    (KIND_SHUTDOWN, "shutdown", "empty", "empty"),
    (KIND_UPDATE, "update", "count, then count × (s, t, w)", "generation u64, overlay_edges u64"),
    (KIND_INFO, "info", "empty", "InfoReply"),
    (KIND_COMPACT, "compact", "empty", "generation u64, vertices u64"),
];

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id echoed in the matching response.
    pub id: u64,
    /// What the client asked for.
    pub body: RequestBody,
}

/// The request kinds a client can send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestBody {
    /// Answer a batch of `(s, t)` distance queries.
    Query(Vec<(u32, u32)>),
    /// Promote the server's configured swap path to the serving index.
    Swap,
    /// Stop the server (honoured only when explicitly allowed).
    Shutdown,
    /// Insert a batch of weighted edges `(s, t, w)` into the live
    /// overlay. Duplicate edges merge keeping the minimum weight.
    Update(Vec<(u32, u32, u32)>),
    /// Report the endpoint's status: its place in the topology, its
    /// index, overlay and write-ahead log, and its request counters.
    Info,
    /// Fold the overlay into a freshly built frozen generation and
    /// promote it.
    Compact,
}

impl RequestBody {
    fn kind(&self) -> u8 {
        match self {
            RequestBody::Query(_) => KIND_QUERY,
            RequestBody::Swap => KIND_SWAP,
            RequestBody::Shutdown => KIND_SHUTDOWN,
            RequestBody::Update(_) => KIND_UPDATE,
            RequestBody::Info => KIND_INFO,
            RequestBody::Compact => KIND_COMPACT,
        }
    }

    /// Bytes of payload this body encodes to. A frame is sendable only
    /// while this stays within [`MAX_PAYLOAD`].
    pub fn payload_len(&self) -> usize {
        match self {
            RequestBody::Query(pairs) => WORD * (1 + 2 * pairs.len()),
            RequestBody::Update(edges) => WORD * (1 + 3 * edges.len()),
            _ => 0,
        }
    }

    /// `Err` when this body carries more than `max_batch` pairs or
    /// edges, worded as a `HOPQ` frame's refusal is.
    pub(crate) fn within(&self, max_batch: usize) -> Result<(), String> {
        match self {
            RequestBody::Query(pairs) => batch_limit(("query", "pair"), pairs.len(), max_batch),
            RequestBody::Update(edges) => batch_limit(("update", "edge"), edges.len(), max_batch),
            _ => Ok(()),
        }
    }
}

/// The refusal of a `count`-item batch over `max_batch`.
fn batch_limit((what, item): (&str, &str), count: usize, max_batch: usize) -> Result<(), String> {
    if count > max_batch {
        return Err(format!("{what} batch of {count} {item}s exceeds limit {max_batch}"));
    }
    Ok(())
}

/// Where a request's answer goes: the framing the request arrived in.
/// [`Reply::encode`] is the one encoder of every answer an endpoint
/// sends, inline or from a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// A `HOPR` frame echoing the request id.
    Hopq {
        /// Client-chosen request id.
        id: u64,
    },
    /// An HTTP/1.1 response with a JSON body.
    Http {
        /// Close the connection after the response (an error always
        /// closes).
        close: bool,
        /// `GET /query`'s pair, answered as one object; `None` answers
        /// distances as a list.
        one: Option<(u32, u32)>,
    },
}

impl Reply {
    /// `body` in this framing, and whether the connection closes after
    /// it.
    pub fn encode(self, body: &ResponseBody) -> (Vec<u8>, bool) {
        match self {
            Reply::Hopq { id } => (body.frame(id), false),
            Reply::Http { close, one } => crate::http::render(body, one, close),
        }
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The answer.
    pub body: ResponseBody,
}

/// One field of a fixed-layout reply as its `fields()` reports it:
/// typed enough to print a flag as `true`/`false` and a code by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// A yes/no field.
    Flag(bool),
    /// A counter, size or id.
    Number(u64),
    /// A code spelled out by the function its declaration names.
    Name(&'static str),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Flag(flag) => flag.fmt(f),
            FieldValue::Number(n) => n.fmt(f),
            FieldValue::Name(name) => f.write_str(name),
        }
    }
}

/// Declare a fixed-layout reply once. The struct, its wire length, its
/// encoder, its total decoder and its `(name, value)` listing all come
/// from the one field list, so the wire layout *is* the declaration
/// order and a new field is one new line here (plus the code that
/// computes it). Fields are `u8`/`u32`/`u64` or `bool` (one byte);
/// `field: ty => f` makes `fields()` show the field as `f(value)` — a
/// code spelled out — instead of as a number.
macro_rules! reply {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ident $(=> $show:path)?,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }

        impl $name {
            /// Bytes this reply occupies on the wire.
            pub const WIRE_LEN: usize = 0 $(+ std::mem::size_of::<$ty>())+;

            fn put(&self, out: &mut Vec<u8>) {
                out.reserve($name::WIRE_LEN);
                $(reply!(@put $ty, self.$field, out);)+
            }

            /// `None` unless `payload` is exactly this layout.
            fn decode(payload: &[u8]) -> Option<$name> {
                let mut at = 0;
                $(
                    let $field = reply!(@at $ty, payload, at)?;
                    at += std::mem::size_of::<$ty>();
                )+
                (at == payload.len()).then_some($name { $($field),+ })
            }

            /// Every field as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, FieldValue)> {
                [$((stringify!($field), reply!(@shown $ty, self.$field $(, $show)?))),+].into_iter()
            }
        }
    };
    (@put bool, $value:expr, $out:expr) => { $out.push(u8::from($value)) };
    (@put $ty:ident, $value:expr, $out:expr) => { $out.extend_from_slice(&$value.to_le_bytes()) };
    (@at bool, $bytes:expr, $at:expr) => { wire::u8_at($bytes, $at).map(|byte| byte != 0) };
    (@at $ty:ident, $bytes:expr, $at:expr) => { wire::array_at($bytes, $at).map($ty::from_le_bytes) };
    (@shown bool, $value:expr) => { FieldValue::Flag($value) };
    (@shown $ty:ident, $value:expr) => { FieldValue::Number($value.into()) };
    (@shown $ty:ident, $value:expr, $show:path) => { FieldValue::Name($show($value)) };
}

reply! {
    /// The payload of the three acknowledgements — swap, update and
    /// compact — whose [`ResponseBody`] variants name `count` for what
    /// it counts.
    pub struct AckReply {
        /// Generation the request produced (swap, compact) or landed in.
        pub generation: u64,
        /// Vertices of that generation; for an update, its overlay edges.
        pub count: u64,
    }
}

/// [`InfoReply::mode`]: a single daemon answering queries itself.
pub const ROUTE_SINGLE: u8 = 0;
/// [`InfoReply::mode`]: a router fanning query batches over replicas.
pub const ROUTE_REPLICA: u8 = 1;
/// [`InfoReply::mode`]: a router min-merging pivot-range shards.
pub const ROUTE_SHARD: u8 = 2;

/// An [`InfoReply::mode`] code as `admin info` and `GET /stats` print
/// it: the `--route` spelling, or `single` for an index node.
pub fn mode_name(code: u8) -> &'static str {
    match code {
        ROUTE_SINGLE => "single",
        ROUTE_REPLICA => "replica",
        ROUTE_SHARD => "shard",
        _ => "unknown",
    }
}

reply! {
    /// The one status reply, answered by an index node and a router
    /// alike: the endpoint's place in a serving topology, its index,
    /// its live overlay and write-ahead log, and its counters. A field
    /// that does not describe the answering endpoint is 0 (a router has
    /// no overlay; a node has no backends). The router reads it from
    /// every backend at startup: the fleet must agree on `vertices`,
    /// `directed` and `translates_ids`, and its `[shard_lo, shard_hi)`
    /// ranges must tile `[0, vertices)` (a replica fleet's one range is
    /// all of it).
    pub struct InfoReply {
        /// The protocol version the server speaks ([`VERSION`]).
        pub protocol: u8,
        /// [`ROUTE_SINGLE`], [`ROUTE_REPLICA`] or [`ROUTE_SHARD`].
        pub mode: u8 => mode_name,
        /// Monotone index generation (bumped by swap and compaction); a
        /// router's is its backends' highest, as probed at startup.
        pub generation: u64,
        /// Vertices covered by the serving index (the *full* vertex set —
        /// shard images keep the unsharded count).
        pub vertices: u64,
        /// Whether the serving index is directed.
        pub directed: bool,
        /// Whether a `.rank` sidecar translates the query ids (else they
        /// are rank ids); a router's is its fleet's, which must agree.
        pub translates_ids: bool,
        /// Bytes the serving generation holds resident (frozen + overlay).
        pub resident_bytes: u64,
        /// Deduplicated edges currently in the overlay.
        pub overlay_edges: u64,
        /// Distinct vertices touched by overlay edges.
        pub overlay_affected: u64,
        /// Compactions promoted since boot.
        pub compactions: u64,
        /// Requests answered since boot (all kinds, errors included).
        pub requests: u64,
        /// Malformed frames seen since boot (recoverable and fatal).
        pub protocol_errors: u64,
        /// Fsync policy of the write-ahead log: 0 = off, 1 = batch,
        /// 2 = always, [`DURABILITY_DISABLED`] = no WAL configured (a
        /// router has none).
        pub durability: u8 => durability_name,
        /// Checkpoint epoch the WAL lineage is at (0 without a WAL).
        pub wal_epoch: u64,
        /// Update records in the live WAL file.
        pub wal_records: u64,
        /// Byte length of the live WAL file, header included.
        pub wal_bytes: u64,
        /// Update records replayed from the WAL at the last boot.
        pub recovered_records: u64,
        /// Torn-tail/corrupt bytes discarded from the WAL at boot.
        pub recovered_dropped_bytes: u64,
        /// Durable checkpoints published since boot.
        pub checkpoints: u64,
        /// Compactions that aborted (superseding swap or build error)
        /// since boot.
        pub aborted_compactions: u64,
        /// First pivot id owned, when serving a shard image (else 0).
        pub shard_lo: u32,
        /// One past the last owned pivot, when serving a shard image; a
        /// shard router's is `vertices`.
        pub shard_hi: u32,
        /// Shard slot in the partition, when serving a shard image.
        pub shard_index: u32,
        /// Shards in the partition; 0 = not serving a shard image.
        pub shard_count: u32,
        /// Whether the rank-space pruning invariant holds *and* queries
        /// arrive in rank ids (no `.rank` translation), so a router may
        /// skip shards with `shard_lo > min(s, t)`.
        pub rank_pruned: bool,
        /// Backends a router fans out to (0 for an index node).
        pub backends: u32,
        /// Query parts a router retried on the next holder of their
        /// range after a transport error, since boot.
        pub failovers: u64,
    }
}

/// [`InfoReply::durability`] value when the server runs without a WAL.
pub const DURABILITY_DISABLED: u8 = 255;

/// An [`InfoReply::durability`] code as `admin info` and `GET /stats`
/// print it: the `--durability` spelling, or `disabled` without a WAL.
pub fn durability_name(code: u8) -> &'static str {
    match code {
        0 => "off",
        1 => "batch",
        2 => "always",
        DURABILITY_DISABLED => "disabled",
        _ => "unknown",
    }
}

/// The response payloads a server can send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// Per-pair distances in input order ([`UNREACHABLE`] = no path).
    Distances(Vec<u32>),
    /// A swap was promoted: the new generation and its vertex count.
    Swapped {
        /// Generation of the newly promoted index.
        generation: u64,
        /// Vertices covered by the newly promoted index.
        vertices: u64,
    },
    /// The server accepted a shutdown request and is stopping.
    Bye,
    /// An update batch was applied to the overlay.
    Updated {
        /// Generation the batch landed in (the one to query for it).
        generation: u64,
        /// Deduplicated overlay edges after applying the batch.
        overlay_edges: u64,
    },
    /// The endpoint's status.
    Info(InfoReply),
    /// A compaction was promoted: scripts poll `info` until they
    /// observe this generation.
    Compacted {
        /// Generation of the freshly built index.
        generation: u64,
        /// Vertices covered by the freshly built index.
        vertices: u64,
    },
    /// The request failed; the payload is a human-readable reason.
    Error(String),
}

impl ResponseBody {
    /// The header's kind byte: the request kind this answers, or
    /// [`REPLY_ERROR`].
    fn kind(&self) -> u8 {
        match self {
            ResponseBody::Distances(_) => KIND_QUERY,
            ResponseBody::Swapped { .. } => KIND_SWAP,
            ResponseBody::Bye => KIND_SHUTDOWN,
            ResponseBody::Updated { .. } => KIND_UPDATE,
            ResponseBody::Info(_) => KIND_INFO,
            ResponseBody::Compacted { .. } => KIND_COMPACT,
            ResponseBody::Error(_) => REPLY_ERROR,
        }
    }
}

/// A malformed response: the stream cannot be trusted to be
/// frame-aligned any more, so the connection must be closed.
fn fatal(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, format!("protocol violation: {msg}"))
}

/// Start a frame: the header for a `payload_len`-byte payload. A length
/// the `u32` cannot hold saturates, so the peer refuses the frame at
/// its [`MAX_PAYLOAD`] check instead of reading a wrapped length.
fn put_header(buf: &mut Vec<u8>, magic: [u8; 4], kind: u8, id: u64, payload_len: usize) {
    buf.extend_from_slice(&magic);
    buf.push(VERSION);
    buf.push(kind);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&u32::try_from(payload_len).unwrap_or(u32::MAX).to_le_bytes());
}

impl Request {
    /// Serialize this request into one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = self.body.payload_len();
        let mut buf = Vec::with_capacity(HEADER_LEN + payload_len);
        put_header(&mut buf, REQ_MAGIC, self.body.kind(), self.id, payload_len);
        match &self.body {
            RequestBody::Query(pairs) => {
                buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(s, t) in pairs {
                    buf.extend_from_slice(&s.to_le_bytes());
                    buf.extend_from_slice(&t.to_le_bytes());
                }
            }
            RequestBody::Update(edges) => {
                buf.extend_from_slice(&(edges.len() as u32).to_le_bytes());
                for &(s, t, w) in edges {
                    buf.extend_from_slice(&s.to_le_bytes());
                    buf.extend_from_slice(&t.to_le_bytes());
                    buf.extend_from_slice(&w.to_le_bytes());
                }
            }
            _ => {}
        }
        buf
    }
}

impl Response {
    /// An error response to request `id`.
    pub fn error(id: u64, msg: &str) -> Response {
        Response { id, body: ResponseBody::Error(msg.to_string()) }
    }

    /// Serialize this response into one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        self.body.frame(self.id)
    }
}

impl ResponseBody {
    /// This body as the wire frame answering request `id`.
    fn frame(&self, id: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            ResponseBody::Distances(dists) => {
                payload.reserve(WORD * (1 + dists.len()));
                payload.extend_from_slice(&(dists.len() as u32).to_le_bytes());
                for &d in dists {
                    payload.extend_from_slice(&d.to_le_bytes());
                }
            }
            ResponseBody::Swapped { generation, vertices: count }
            | ResponseBody::Updated { generation, overlay_edges: count }
            | ResponseBody::Compacted { generation, vertices: count } => {
                AckReply { generation: *generation, count: *count }.put(&mut payload)
            }
            ResponseBody::Info(info) => info.put(&mut payload),
            ResponseBody::Bye => {}
            ResponseBody::Error(msg) => payload.extend_from_slice(msg.as_bytes()),
        }
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        put_header(&mut buf, RESP_MAGIC, self.kind(), id, payload.len());
        buf.extend_from_slice(&payload);
        buf
    }
}

/// Check as much of a frame header as `buf` holds — the magic and the
/// version as soon as their bytes are present — and split a whole one
/// into `(kind, id, payload length)`. `Ok(None)`: not a whole header
/// yet. `Err`: the stream is not (this version of) the protocol.
fn parse_header(buf: &[u8], magic: [u8; 4]) -> Result<Option<(u8, u64, usize)>, String> {
    if buf.first_chunk().is_some_and(|got: &[u8; 4]| *got != magic) {
        return Err("bad frame magic".into());
    }
    if let Some(&version) = buf.get(magic.len()) {
        if version != VERSION {
            return Err(format!("unsupported protocol version {version} (want {VERSION})"));
        }
    }
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    // Irrefutable split of the header bytes: no indexing, so no panic
    // path, and a `HEADER` that stops summing to this pattern's length
    // stops compiling.
    let [_, _, _, _, _, kind, i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3] = *header;
    let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
    if payload_len > MAX_PAYLOAD {
        return Err(format!(
            "declared payload length {payload_len} exceeds the {MAX_PAYLOAD}-byte cap"
        ));
    }
    Ok(Some((kind, u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]), payload_len as usize)))
}

/// Read one response frame: `(kind, id, payload)`.
fn read_frame(r: &mut impl Read) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let truncated = |what: &str| fatal(format!("truncated frame {what}"));
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    let (kind, id, payload_len) = loop {
        let have = header.get(..got).unwrap_or_default();
        if let Some(parsed) = parse_header(have, RESP_MAGIC).map_err(fatal)? {
            break parsed;
        }
        match r.read(header.get_mut(got..).ok_or_else(|| truncated("header"))?) {
            // "No next frame" (a clean close) is the transport's
            // failure; EOF mid-header is the protocol's.
            Ok(0) if got == 0 => {
                return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed"))
            }
            Ok(0) => return Err(truncated("header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => truncated("payload"),
        _ => e,
    })?;
    Ok((kind, id, payload))
}

/// The `u32` words of a `count u32`-prefixed batch of `count` items of
/// `words` words each, after checking the count against `max_batch`
/// and the payload length against the count.
fn counted_words<'a>(
    payload: &'a [u8],
    (what, item): (&str, &str),
    words: usize,
    max_batch: usize,
) -> Result<(usize, impl Iterator<Item = u32> + 'a), String> {
    let Some(count) = wire::u32_at(payload, 0).map(|c| c as usize) else {
        return Err(format!("{what} payload shorter than its {item} count"));
    };
    if count == 0 {
        return Err(format!("{what} batch declares zero {item}s"));
    }
    batch_limit((what, item), count, max_batch)?;
    // In `u64`: no hostile count can overflow the comparison.
    let need = WORD as u64 * (1 + words as u64 * count as u64);
    if payload.len() as u64 != need {
        return Err(format!(
            "{what} payload is {} bytes but {count} {item}s need {need}",
            payload.len()
        ));
    }
    Ok((count, wire::u32s(payload.get(WORD..).unwrap_or_default())))
}

/// Parse a fully-received request payload. Violations are reported as
/// `Err(message)` — recoverable, since the frame was consumed whole.
fn parse_request_payload(
    kind: u8,
    payload: &[u8],
    max_batch: usize,
) -> Result<RequestBody, String> {
    let Some((_, name, ..)) = KINDS.iter().find(|row| row.0 == kind) else {
        return Err(format!("unknown request kind {kind}"));
    };
    match kind {
        KIND_QUERY => {
            let (count, mut words) = counted_words(payload, ("query", "pair"), 2, max_batch)?;
            let mut pairs = Vec::with_capacity(count);
            while let (Some(s), Some(t)) = (words.next(), words.next()) {
                pairs.push((s, t));
            }
            Ok(RequestBody::Query(pairs))
        }
        KIND_UPDATE => {
            let (count, mut words) = counted_words(payload, ("update", "edge"), 3, max_batch)?;
            let mut edges = Vec::with_capacity(count);
            while let (Some(s), Some(t), Some(w)) = (words.next(), words.next(), words.next()) {
                edges.push((s, t, w));
            }
            Ok(RequestBody::Update(edges))
        }
        _ if !payload.is_empty() => {
            Err(format!("{name} takes no payload, got {} bytes", payload.len()))
        }
        KIND_SWAP => Ok(RequestBody::Swap),
        KIND_INFO => Ok(RequestBody::Info),
        KIND_COMPACT => Ok(RequestBody::Compact),
        KIND_SHUTDOWN => Ok(RequestBody::Shutdown),
        _ => Err(format!("{name} is not implemented")),
    }
}

/// Outcome of trying to decode one request frame from the front of a
/// byte buffer.
#[derive(Debug)]
pub enum Decoded {
    /// The buffer does not yet hold a whole frame; read more bytes and
    /// try again. Nothing was consumed.
    Incomplete,
    /// A well-formed request: consume `used` bytes.
    Request {
        /// The decoded request.
        request: Request,
        /// Bytes of the buffer this frame occupied.
        used: usize,
    },
    /// A complete frame with an invalid payload (recoverable): consume
    /// `used` bytes, answer with an error response, keep the stream.
    Bad {
        /// Request id from the offending frame's header.
        id: u64,
        /// What was wrong with the payload.
        msg: String,
        /// Bytes of the buffer this frame occupied.
        used: usize,
    },
    /// Stream corruption (bad magic/version, oversized declared
    /// length): send a final error frame and close.
    Fatal(String),
}

/// Incrementally decode one request frame from the front of `buf`,
/// enforcing `max_batch` pairs per query.
///
/// Never blocks: with fewer bytes than one whole frame it returns
/// [`Decoded::Incomplete`] and consumes nothing. Header-level
/// violations (magic, version, declared length over [`MAX_PAYLOAD`])
/// are detected as soon as the relevant bytes are present, before the
/// payload arrives.
pub fn decode_request(buf: &[u8], max_batch: usize) -> Decoded {
    let (kind, id, payload_len) = match parse_header(buf, REQ_MAGIC) {
        Err(msg) => return Decoded::Fatal(msg),
        Ok(None) => return Decoded::Incomplete,
        Ok(Some(header)) => header,
    };
    let used = HEADER_LEN + payload_len;
    let Some(payload) = buf.get(HEADER_LEN..used) else {
        return Decoded::Incomplete;
    };
    match parse_request_payload(kind, payload, max_batch) {
        Ok(body) => Decoded::Request { request: Request { id, body }, used },
        Err(msg) => Decoded::Bad { id, msg, used },
    }
}

/// Decode one response frame from `r`. The header's kind byte alone
/// selects the reply's layout; a payload that does not fit it — like
/// any other malformed response — is fatal on the client side, which
/// has no one to report it to: `InvalidData`, "protocol violation: …".
/// `UnexpectedEof` is a clean close at a frame boundary — the peer went
/// away, a transport failure a failover path can tell apart — and any
/// other kind is the stream's own error.
pub fn read_response(r: &mut impl Read) -> std::io::Result<Response> {
    let (kind, id, payload) = read_frame(r)?;
    let misfit =
        || fatal(format!("a {}-byte payload does not fit reply kind {kind}", payload.len()));
    let body = match kind {
        REPLY_ERROR => ResponseBody::Error(String::from_utf8_lossy(&payload).into_owned()),
        KIND_QUERY => {
            let count = wire::u32_at(&payload, 0).ok_or_else(misfit)?;
            let dists = payload.get(WORD..).unwrap_or_default();
            if dists.len() as u64 != WORD as u64 * u64::from(count) {
                return Err(misfit());
            }
            ResponseBody::Distances(wire::u32s(dists).collect())
        }
        KIND_SWAP | KIND_UPDATE | KIND_COMPACT => {
            let AckReply { generation, count } = AckReply::decode(&payload).ok_or_else(misfit)?;
            match kind {
                KIND_SWAP => ResponseBody::Swapped { generation, vertices: count },
                KIND_UPDATE => ResponseBody::Updated { generation, overlay_edges: count },
                _ => ResponseBody::Compacted { generation, vertices: count },
            }
        }
        KIND_INFO => ResponseBody::Info(InfoReply::decode(&payload).ok_or_else(misfit)?),
        KIND_SHUTDOWN if payload.is_empty() => ResponseBody::Bye,
        KIND_SHUTDOWN => return Err(misfit()),
        other => return Err(fatal(format!("unknown reply kind {other}"))),
    };
    Ok(Response { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip_all_kinds() {
        for body in [
            RequestBody::Query(vec![(0, 1), (7, 7), (u32::MAX - 1, 3)]),
            RequestBody::Swap,
            RequestBody::Shutdown,
            RequestBody::Update(vec![(0, 9, 1), (5, 2, u32::MAX)]),
            RequestBody::Info,
            RequestBody::Compact,
        ] {
            let req = Request { id: 0xDEAD_BEEF_0BAD_CAFE, body };
            let bytes = req.encode();
            assert_eq!(bytes[4], VERSION);
            match decode_request(&bytes, 1 << 16) {
                Decoded::Request { request, used } => {
                    assert_eq!(request, req);
                    assert_eq!(used, bytes.len());
                }
                other => panic!("want Request, got {other:?}"),
            }
        }
    }

    #[test]
    #[allow(clippy::needless_update)] // a field added to `InfoReply` needs no edit here
    fn response_roundtrip_all_kinds() {
        for body in [
            ResponseBody::Distances(vec![0, 5, UNREACHABLE]),
            ResponseBody::Swapped { generation: 3, vertices: 1000 },
            ResponseBody::Bye,
            ResponseBody::Updated { generation: 4, overlay_edges: 12 },
            ResponseBody::Info(InfoReply {
                protocol: VERSION,
                generation: 9,
                vertices: 777,
                directed: false,
                translates_ids: true,
                resident_bytes: 1 << 20,
                overlay_edges: 3,
                overlay_affected: 5,
                compactions: 2,
                requests: 1000,
                protocol_errors: 1,
                durability: 2,
                wal_epoch: 6,
                wal_records: 40,
                wal_bytes: 4096,
                recovered_records: 7,
                recovered_dropped_bytes: 13,
                checkpoints: 3,
                aborted_compactions: 1,
                ..Default::default()
            }),
            ResponseBody::Info(InfoReply {
                mode: ROUTE_SHARD,
                vertices: 4096,
                directed: true,
                generation: 11,
                shard_lo: 16,
                shard_hi: 900,
                shard_index: 1,
                shard_count: 4,
                rank_pruned: true,
                backends: 4,
                failovers: 2,
                ..Default::default()
            }),
            ResponseBody::Compacted { generation: 5, vertices: 888 },
            ResponseBody::Error("nope".into()),
        ] {
            let resp = Response { id: 99, body };
            let bytes = resp.encode();
            assert_eq!((bytes[4], bytes[5]), (VERSION, resp.body.kind()));
            let got = read_response(&mut Cursor::new(&bytes)).unwrap();
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn reply_encodes_each_body_in_its_framing() {
        for body in [
            ResponseBody::Distances(vec![4]),
            ResponseBody::Updated { generation: 4, overlay_edges: 12 },
            ResponseBody::Info(InfoReply { protocol: VERSION, vertices: 9, ..Default::default() }),
            ResponseBody::Bye,
            ResponseBody::Error("nope".into()),
        ] {
            // HOPQ: the response frame, and the connection stays.
            let frame = Response { id: 5, body: body.clone() }.encode();
            assert_eq!(Reply::Hopq { id: 5 }.encode(&body), (frame, false));
            // HTTP: a response that closes when asked to, or on an error.
            for close in [false, true] {
                let (bytes, closes) = Reply::Http { close, one: Some((1, 2)) }.encode(&body);
                let error = matches!(body, ResponseBody::Error(_));
                assert_eq!(closes, close || error, "{body:?}");
                let status: &[u8] = if error { b"HTTP/1.1 400 " } else { b"HTTP/1.1 200 " };
                assert!(bytes.starts_with(status), "{body:?}");
            }
        }
    }

    #[test]
    fn batch_limit_is_worded_alike_for_both_framings() {
        let frame = Request { id: 3, body: RequestBody::Query(vec![(0, 1); 5]) }.encode();
        let Decoded::Bad { msg, .. } = decode_request(&frame, 4) else { panic!("want Bad") };
        assert_eq!(msg, "query batch of 5 pairs exceeds limit 4");
        assert_eq!(RequestBody::Query(vec![(0, 1); 5]).within(4), Err(msg));
        let edges = RequestBody::Update(vec![(0, 1, 1); 5]);
        assert_eq!(edges.within(4).unwrap_err(), "update batch of 5 edges exceeds limit 4");
        assert_eq!(edges.within(5), Ok(()));
        assert_eq!(RequestBody::Info.within(0), Ok(()));
    }

    #[test]
    fn eof_at_boundary_is_closed_mid_header_is_fatal() {
        // The blocking reader that remains is the client's.
        let closed = read_response(&mut Cursor::new(&[])).unwrap_err();
        assert_eq!(closed.kind(), ErrorKind::UnexpectedEof);
        let frame = Response { id: 1, body: ResponseBody::Bye }.encode();
        for cut in 1..HEADER_LEN {
            let r = read_response(&mut Cursor::new(&frame[..cut]));
            assert!(
                matches!(&r, Err(e) if e.kind() == ErrorKind::InvalidData),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn zero_pair_batch_is_recoverable() {
        for (body, what) in [
            (RequestBody::Query(vec![]), "zero pairs"),
            (RequestBody::Update(vec![]), "zero edges"),
        ] {
            let frame = Request { id: 7, body }.encode();
            match decode_request(&frame, 16) {
                Decoded::Bad { id: 7, msg, .. } => assert!(msg.contains(what), "{msg}"),
                other => panic!("want Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_decode_matches_blocking_at_every_prefix() {
        for body in [
            RequestBody::Query(vec![(0, 1), (7, 7), (u32::MAX - 1, 3)]),
            RequestBody::Swap,
            RequestBody::Shutdown,
            RequestBody::Update(vec![(0, 9, 1), (5, 2, 3)]),
            RequestBody::Info,
            RequestBody::Compact,
        ] {
            let req = Request { id: 0x0123_4567_89AB_CDEF, body };
            let frame = req.encode();
            // Every strict prefix is Incomplete; the full frame decodes.
            for cut in 0..frame.len() {
                assert!(
                    matches!(decode_request(&frame[..cut], 1 << 16), Decoded::Incomplete),
                    "prefix of {cut} bytes must be Incomplete"
                );
            }
            match decode_request(&frame, 1 << 16) {
                Decoded::Request { request, used } => {
                    assert_eq!(request, req);
                    assert_eq!(used, frame.len());
                }
                other => panic!("want Request, got {other:?}"),
            }
            // Trailing bytes of the next frame must not disturb it.
            let mut two = frame.clone();
            two.extend_from_slice(&frame[..7]);
            match decode_request(&two, 1 << 16) {
                Decoded::Request { used, .. } => assert_eq!(used, frame.len()),
                other => panic!("want Request, got {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_decode_flags_header_violations_early() {
        assert!(matches!(decode_request(b"HTTP", 16), Decoded::Fatal(_)), "magic at 4 bytes");
        assert!(matches!(decode_request(b"HOP", 16), Decoded::Incomplete));
        let mut bad_version = REQ_MAGIC.to_vec();
        bad_version.push(99);
        assert!(matches!(decode_request(&bad_version, 16), Decoded::Fatal(_)));
        // Oversized declared payload: fatal with just the header.
        let mut frame = Vec::new();
        put_header(&mut frame, REQ_MAGIC, KIND_QUERY, 1, (MAX_PAYLOAD + 1) as usize);
        assert!(matches!(decode_request(&frame, 16), Decoded::Fatal(_)));
    }

    #[test]
    fn incremental_decode_bad_payload_is_recoverable_with_length() {
        let frame = Request { id: 9, body: RequestBody::Query(vec![]) }.encode();
        match decode_request(&frame, 16) {
            Decoded::Bad { id: 9, msg, used } => {
                assert!(msg.contains("zero pairs"), "{msg}");
                assert_eq!(used, frame.len());
            }
            other => panic!("want Bad, got {other:?}"),
        }
    }
}
