//! The `HOPQ` wire protocol: length-prefixed binary frames.
//!
//! Every frame — request or response — starts with the same fixed
//! 18-byte header followed by a `payload_len`-byte payload:
//!
//! ```text
//! magic        4 bytes   "HOPQ" (request) / "HOPR" (response)
//! version      u8        1 through 4 (see "Versioning" below)
//! kind/status  u8        request kind, or response status
//! request id   u64 LE    echoed verbatim in the response
//! payload_len  u32 LE    bytes following the header (≤ MAX_PAYLOAD)
//! ```
//!
//! Request kinds and their payloads:
//!
//! | kind | name     | since | payload |
//! |------|----------|-------|---------|
//! | 1    | query    | v1    | `count u32 LE`, then `count` × (`s u32 LE`, `t u32 LE`) |
//! | 2    | swap     | v1    | empty — promote the server's configured swap path |
//! | 3    | stats    | v1    | empty |
//! | 4    | shutdown | v1    | empty — honoured only when the server allows it |
//! | 5    | update   | v2    | `count u32 LE`, then `count` × (`s u32 LE`, `t u32 LE`, `w u32 LE`) weighted edge insertions |
//! | 6    | info     | v2    | empty — extended serving/overlay statistics |
//! | 7    | compact  | v2    | empty — fold the overlay into a fresh frozen generation |
//! | 8    | route_info | v4  | empty — describe this endpoint's place in a serving topology |
//!
//! Response statuses: `0` = ok (payload depends on the request kind),
//! `1` = error (payload is a UTF-8 message). A query response carries
//! `count u32 LE` then `count` × `dist u32 LE` in input order, with
//! [`UNREACHABLE`] (`u32::MAX`, numerically equal to
//! `sfgraph::INF_DIST`) marking disconnected pairs.
//!
//! ## Versioning
//!
//! Version 2 is a *minor* bump that only adds frame kinds; every v1
//! frame is unchanged. Decoders accept any version in
//! `MIN_VERSION..=VERSION` and encoders mark each frame with the lowest
//! version that defines its kind — legacy kinds still go out as v1, so
//! a v2 client talking to a v1 server (or through a v1-only proxy)
//! keeps working for everything except the new kinds. A v2-only kind
//! arriving in a v1-marked frame is a *recoverable* `unsupported kind`
//! error: the frame was consumed whole, so the connection survives and
//! old clients get an error response instead of a slammed connection.
//! Versions outside the supported range remain fatal.
//!
//! Version 3 widens one payload: the `info` *response* grew durability
//! fields (WAL epoch/size, recovery and checkpoint counters — see
//! [`InfoReply`]) and is stamped v3; the `info` request is unchanged
//! and still goes out as v2. No other frame changed.
//!
//! Version 4 adds one kind: `route_info` (see [`RouteReply`]), the
//! topology exchange the scale-out router uses to learn each backend's
//! vertex count, direction, and — when the backend serves a pivot-range
//! shard image — its shard slot. Like the v2 bump it adds no wire
//! changes to existing kinds; a `route_info` frame marked with an older
//! version is a recoverable `unsupported kind` error.
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
//!   frames from many connections into shared micro-batches, batches
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

use extmem::wire;
use std::io::Read;

/// Request frame magic.
pub const REQ_MAGIC: [u8; 4] = *b"HOPQ";
/// Response frame magic.
pub const RESP_MAGIC: [u8; 4] = *b"HOPR";
/// Highest protocol version this build speaks. Frames are encoded with
/// the lowest version that defines their kind (see "Versioning").
pub const VERSION: u8 = 4;
/// Lowest protocol version still accepted on the wire.
pub const MIN_VERSION: u8 = 1;
/// Fixed frame header size: magic + version + kind + id + payload len.
pub const HEADER_LEN: usize = 18;
/// Hard cap on a declared payload length. A header announcing more is
/// treated as stream corruption (fatal), not as a large request — the
/// cap bounds the allocation a malicious or broken peer can force.
pub const MAX_PAYLOAD: u32 = 1 << 24;
/// Distance value marking an unreachable pair in query responses
/// (numerically identical to `sfgraph::INF_DIST`).
pub const UNREACHABLE: u32 = u32::MAX;
/// Default cap on pairs per query request (servers may lower it).
pub const DEFAULT_MAX_BATCH: usize = 1 << 16;

const KIND_QUERY: u8 = 1;
const KIND_SWAP: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;
const KIND_UPDATE: u8 = 5;
const KIND_INFO: u8 = 6;
const KIND_COMPACT: u8 = 7;
const KIND_ROUTE_INFO: u8 = 8;

const STATUS_OK: u8 = 0;
const STATUS_ERROR: u8 = 1;

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
    /// Report serving statistics.
    Stats,
    /// Stop the server (honoured only when explicitly allowed).
    Shutdown,
    /// Insert a batch of weighted edges `(s, t, w)` into the live
    /// overlay (v2). Duplicate edges merge keeping the minimum weight.
    Update(Vec<(u32, u32, u32)>),
    /// Report extended serving and overlay statistics (v2).
    Info,
    /// Fold the overlay into a freshly built frozen generation and
    /// promote it (v2).
    Compact,
    /// Describe this endpoint's place in a serving topology (v4):
    /// single daemon, replica router, or shard router/backend.
    RouteInfo,
}

impl RequestBody {
    fn kind(&self) -> u8 {
        match self {
            RequestBody::Query(_) => KIND_QUERY,
            RequestBody::Swap => KIND_SWAP,
            RequestBody::Stats => KIND_STATS,
            RequestBody::Shutdown => KIND_SHUTDOWN,
            RequestBody::Update(_) => KIND_UPDATE,
            RequestBody::Info => KIND_INFO,
            RequestBody::Compact => KIND_COMPACT,
            RequestBody::RouteInfo => KIND_ROUTE_INFO,
        }
    }

    fn min_version(&self) -> u8 {
        match self {
            RequestBody::RouteInfo => 4,
            RequestBody::Update(_) | RequestBody::Info | RequestBody::Compact => 2,
            _ => 1,
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

/// Serving statistics returned by a stats request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Monotone index generation (bumped by every promoted swap).
    pub generation: u64,
    /// Vertices covered by the serving index.
    pub vertices: u64,
    /// Whether the serving index is directed.
    pub directed: bool,
    /// Whether the index is fully resident (`FlatIndex`) as opposed to
    /// the disk-backed LRU fallback.
    pub resident: bool,
    /// Requests answered since boot (all kinds, errors included).
    pub requests: u64,
    /// Malformed frames seen since boot (recoverable and fatal).
    pub protocol_errors: u64,
}

/// Extended serving statistics returned by an info request (v2): the
/// extensible sibling of [`StatsReply`] that also describes the live
/// overlay, so scripts can watch ingest and poll for compaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InfoReply {
    /// Highest protocol version the server speaks.
    pub protocol: u8,
    /// Monotone index generation (bumped by swap and compaction).
    pub generation: u64,
    /// Vertices covered by the serving index.
    pub vertices: u64,
    /// Whether the serving index is directed.
    pub directed: bool,
    /// Whether the frozen index is fully resident in memory.
    pub resident: bool,
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
    /// Fsync policy of the write-ahead log (v3): 0 = off, 1 = batch,
    /// 2 = always, [`DURABILITY_DISABLED`] = no WAL configured.
    pub durability: u8,
    /// Checkpoint epoch the WAL lineage is at (v3; 0 without a WAL).
    pub wal_epoch: u64,
    /// Update records in the live WAL file (v3).
    pub wal_records: u64,
    /// Byte length of the live WAL file, header included (v3).
    pub wal_bytes: u64,
    /// Update records replayed from the WAL at the last boot (v3).
    pub recovered_records: u64,
    /// Torn-tail/corrupt bytes discarded from the WAL at boot (v3).
    pub recovered_dropped_bytes: u64,
    /// Durable checkpoints published since boot (v3).
    pub checkpoints: u64,
    /// Compactions that aborted (superseding swap or build error)
    /// since boot (v3).
    pub aborted_compactions: u64,
}

/// [`InfoReply::durability`] value when the server runs without a WAL.
pub const DURABILITY_DISABLED: u8 = 255;

/// [`RouteReply::mode`]: a single daemon answering queries itself.
pub const ROUTE_SINGLE: u8 = 0;
/// [`RouteReply::mode`]: a router fanning query batches over replicas.
pub const ROUTE_REPLICA: u8 = 1;
/// [`RouteReply::mode`]: a router min-merging pivot-range shards.
pub const ROUTE_SHARD: u8 = 2;

/// Topology description returned by a route_info request (v4). The
/// scale-out router interrogates every backend with this at startup:
/// replica sets must agree on `vertices`/`directed`, and shard sets
/// must tile `[0, vertices)` with their `[shard_lo, shard_hi)` ranges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteReply {
    /// [`ROUTE_SINGLE`], [`ROUTE_REPLICA`], or [`ROUTE_SHARD`].
    pub mode: u8,
    /// Vertices covered by the serving index (the *full* vertex set —
    /// shard images keep the unsharded count).
    pub vertices: u64,
    /// Whether the serving index is directed.
    pub directed: bool,
    /// Current index generation at this endpoint.
    pub generation: u64,
    /// First pivot id owned, when serving a shard image (else 0).
    pub shard_lo: u32,
    /// One past the last owned pivot, when serving a shard image.
    pub shard_hi: u32,
    /// Shard slot in the partition, when serving a shard image.
    pub shard_index: u32,
    /// Shards in the partition; 0 = not serving a shard image.
    pub shard_count: u32,
    /// Whether the rank-space pruning invariant holds *and* queries
    /// arrive in rank ids (no `.rank` translation), so a router may
    /// skip shards with `shard_lo > min(s, t)`.
    pub rank_pruned: bool,
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
    /// Serving statistics.
    Stats(StatsReply),
    /// The server accepted a shutdown request and is stopping.
    Bye,
    /// An update batch was applied to the overlay (v2).
    Updated {
        /// Generation the batch landed in (the one to query for it).
        generation: u64,
        /// Deduplicated overlay edges after applying the batch.
        overlay_edges: u64,
    },
    /// Extended serving statistics (v2).
    Info(InfoReply),
    /// A compaction was promoted (v2): scripts poll `stats`/`info`
    /// until they observe this generation.
    Compacted {
        /// Generation of the freshly built index.
        generation: u64,
        /// Vertices covered by the freshly built index.
        vertices: u64,
    },
    /// Serving-topology description (v4).
    RouteInfo(RouteReply),
    /// The request failed; the payload is a human-readable reason.
    Error(String),
}

impl ResponseBody {
    fn min_version(&self) -> u8 {
        match self {
            ResponseBody::RouteInfo(_) => 4,
            // The info payload gained durability fields in v3.
            ResponseBody::Info(_) => 3,
            ResponseBody::Updated { .. } | ResponseBody::Compacted { .. } => 2,
            _ => 1,
        }
    }
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// Clean EOF at a frame boundary: the peer closed the connection.
    Closed,
    /// The stream cannot be trusted to be frame-aligned any more (bad
    /// magic/version, oversized declared length, EOF mid-frame). The
    /// connection must be closed.
    Fatal(String),
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Fatal(msg) => write!(f, "protocol violation: {msg}"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

fn put_header(
    buf: &mut Vec<u8>,
    magic: [u8; 4],
    version: u8,
    kind: u8,
    id: u64,
    payload_len: usize,
) {
    buf.extend_from_slice(&magic);
    buf.push(version);
    buf.push(kind);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

impl Request {
    /// Serialize this request into one wire frame, marked with the
    /// lowest protocol version that defines its kind.
    pub fn encode(&self) -> Vec<u8> {
        let payload: Vec<u8> = match &self.body {
            RequestBody::Query(pairs) => {
                let mut p = Vec::with_capacity(4 + 8 * pairs.len());
                p.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(s, t) in pairs {
                    p.extend_from_slice(&s.to_le_bytes());
                    p.extend_from_slice(&t.to_le_bytes());
                }
                p
            }
            RequestBody::Update(edges) => {
                let mut p = Vec::with_capacity(4 + 12 * edges.len());
                p.extend_from_slice(&(edges.len() as u32).to_le_bytes());
                for &(s, t, w) in edges {
                    p.extend_from_slice(&s.to_le_bytes());
                    p.extend_from_slice(&t.to_le_bytes());
                    p.extend_from_slice(&w.to_le_bytes());
                }
                p
            }
            RequestBody::Swap
            | RequestBody::Stats
            | RequestBody::Shutdown
            | RequestBody::Info
            | RequestBody::Compact
            | RequestBody::RouteInfo => Vec::new(),
        };
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        put_header(
            &mut buf,
            REQ_MAGIC,
            self.body.min_version(),
            self.body.kind(),
            self.id,
            payload.len(),
        );
        buf.extend_from_slice(&payload);
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
        let (status, payload): (u8, Vec<u8>) = match &self.body {
            ResponseBody::Distances(dists) => {
                let mut p = Vec::with_capacity(4 + 4 * dists.len());
                p.extend_from_slice(&(dists.len() as u32).to_le_bytes());
                for &d in dists {
                    p.extend_from_slice(&d.to_le_bytes());
                }
                (STATUS_OK, p)
            }
            ResponseBody::Swapped { generation, vertices } => {
                let mut p = Vec::with_capacity(17);
                p.push(KIND_SWAP);
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&vertices.to_le_bytes());
                (STATUS_OK, p)
            }
            ResponseBody::Stats(s) => {
                let mut p = Vec::with_capacity(35);
                p.push(KIND_STATS);
                p.extend_from_slice(&s.generation.to_le_bytes());
                p.extend_from_slice(&s.vertices.to_le_bytes());
                p.push(s.directed as u8);
                p.push(s.resident as u8);
                p.extend_from_slice(&s.requests.to_le_bytes());
                p.extend_from_slice(&s.protocol_errors.to_le_bytes());
                (STATUS_OK, p)
            }
            ResponseBody::Bye => (STATUS_OK, vec![KIND_SHUTDOWN]),
            ResponseBody::Updated { generation, overlay_edges } => {
                let mut p = Vec::with_capacity(17);
                p.push(KIND_UPDATE);
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&overlay_edges.to_le_bytes());
                (STATUS_OK, p)
            }
            ResponseBody::Info(i) => {
                let mut p = Vec::with_capacity(125);
                p.push(KIND_INFO);
                p.push(i.protocol);
                p.extend_from_slice(&i.generation.to_le_bytes());
                p.extend_from_slice(&i.vertices.to_le_bytes());
                p.push(i.directed as u8);
                p.push(i.resident as u8);
                p.extend_from_slice(&i.resident_bytes.to_le_bytes());
                p.extend_from_slice(&i.overlay_edges.to_le_bytes());
                p.extend_from_slice(&i.overlay_affected.to_le_bytes());
                p.extend_from_slice(&i.compactions.to_le_bytes());
                p.extend_from_slice(&i.requests.to_le_bytes());
                p.extend_from_slice(&i.protocol_errors.to_le_bytes());
                p.push(i.durability);
                p.extend_from_slice(&i.wal_epoch.to_le_bytes());
                p.extend_from_slice(&i.wal_records.to_le_bytes());
                p.extend_from_slice(&i.wal_bytes.to_le_bytes());
                p.extend_from_slice(&i.recovered_records.to_le_bytes());
                p.extend_from_slice(&i.recovered_dropped_bytes.to_le_bytes());
                p.extend_from_slice(&i.checkpoints.to_le_bytes());
                p.extend_from_slice(&i.aborted_compactions.to_le_bytes());
                (STATUS_OK, p)
            }
            ResponseBody::Compacted { generation, vertices } => {
                let mut p = Vec::with_capacity(17);
                p.push(KIND_COMPACT);
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&vertices.to_le_bytes());
                (STATUS_OK, p)
            }
            ResponseBody::RouteInfo(r) => {
                // 37 bytes: deliberately not 4 + 4k, so the untagged
                // distance fallback in `read_response` can never
                // mistake it for a count-prefixed distance payload.
                let mut p = Vec::with_capacity(37);
                p.push(KIND_ROUTE_INFO);
                p.push(r.mode);
                p.push(r.directed as u8);
                p.push(r.rank_pruned as u8);
                p.extend_from_slice(&r.vertices.to_le_bytes());
                p.extend_from_slice(&r.generation.to_le_bytes());
                p.extend_from_slice(&r.shard_lo.to_le_bytes());
                p.extend_from_slice(&r.shard_hi.to_le_bytes());
                p.extend_from_slice(&r.shard_index.to_le_bytes());
                p.extend_from_slice(&r.shard_count.to_le_bytes());
                p.push(0); // reserved
                (STATUS_OK, p)
            }
            ResponseBody::Error(msg) => (STATUS_ERROR, msg.as_bytes().to_vec()),
        };
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        put_header(&mut buf, RESP_MAGIC, self.body.min_version(), status, self.id, payload.len());
        buf.extend_from_slice(&payload);
        buf
    }
}

/// Read one response frame header + payload. Returns
/// `(version, status, id, payload)`; `Closed` only on EOF before the
/// first header byte.
fn read_frame(r: &mut impl Read) -> Result<(u8, u8, u64, Vec<u8>), ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "no next frame" (clean close) from "EOF mid-header".
    match r.read(&mut header) {
        Ok(0) => return Err(ProtoError::Closed),
        Ok(mut got) => {
            while got < HEADER_LEN {
                let Some(rest) = header.get_mut(got..) else { break };
                match r.read(rest) {
                    Ok(0) => return Err(ProtoError::Fatal("truncated frame header".into())),
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ProtoError::Io(e)),
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(ProtoError::Io(e)),
    }
    // Irrefutable split of the 18 header bytes: magic, version, kind,
    // id, declared payload length. No indexing, so no panic path.
    let [m0, m1, m2, m3, version, kind, i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3] = header;
    if [m0, m1, m2, m3] != RESP_MAGIC {
        return Err(ProtoError::Fatal("bad frame magic".into()));
    }
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(ProtoError::Fatal(format!(
            "unsupported protocol version {version} (want {MIN_VERSION}..={VERSION})"
        )));
    }
    let id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
    if payload_len > MAX_PAYLOAD {
        return Err(ProtoError::Fatal(format!(
            "declared payload length {payload_len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Fatal("truncated frame payload".into())
        } else {
            ProtoError::Io(e)
        }
    })?;
    Ok((version, kind, id, payload))
}

/// Parse a fully-received request payload. Violations are reported as
/// `Err(message)` — recoverable, since the frame was consumed whole.
/// `version` is the frame header's version byte: v2 kinds inside a
/// v1-marked frame are rejected recoverably, which is what an old
/// server relaying a new client's frame reports too.
fn parse_request_payload(
    version: u8,
    kind: u8,
    payload: &[u8],
    max_batch: usize,
) -> Result<RequestBody, String> {
    if version < 2 && matches!(kind, KIND_UPDATE | KIND_INFO | KIND_COMPACT) {
        return Err(format!(
            "unsupported kind {kind} at protocol version {version} (needs version 2)"
        ));
    }
    if version < 4 && kind == KIND_ROUTE_INFO {
        return Err(format!(
            "unsupported kind {kind} at protocol version {version} (needs version 4)"
        ));
    }
    match kind {
        KIND_QUERY => {
            let Some(count) = wire::u32_at(payload, 0).map(|c| c as usize) else {
                return Err("query payload shorter than its pair count".into());
            };
            if count == 0 {
                return Err("query batch declares zero pairs".into());
            }
            if count > max_batch {
                return Err(format!("query batch of {count} pairs exceeds limit {max_batch}"));
            }
            if payload.len() != 4 + 8 * count {
                return Err(format!(
                    "query payload is {} bytes but {count} pairs need {}",
                    payload.len(),
                    4 + 8 * count
                ));
            }
            let mut words = wire::u32s(payload.get(4..).unwrap_or_default());
            let mut pairs = Vec::with_capacity(count);
            while let (Some(s), Some(t)) = (words.next(), words.next()) {
                pairs.push((s, t));
            }
            Ok(RequestBody::Query(pairs))
        }
        KIND_UPDATE => {
            let Some(count) = wire::u32_at(payload, 0).map(|c| c as usize) else {
                return Err("update payload shorter than its edge count".into());
            };
            if count == 0 {
                return Err("update batch declares zero edges".into());
            }
            if count > max_batch {
                return Err(format!("update batch of {count} edges exceeds limit {max_batch}"));
            }
            if payload.len() != 4 + 12 * count {
                return Err(format!(
                    "update payload is {} bytes but {count} edges need {}",
                    payload.len(),
                    4 + 12 * count
                ));
            }
            let mut words = wire::u32s(payload.get(4..).unwrap_or_default());
            let mut edges = Vec::with_capacity(count);
            while let (Some(s), Some(t), Some(w)) = (words.next(), words.next(), words.next()) {
                edges.push((s, t, w));
            }
            Ok(RequestBody::Update(edges))
        }
        KIND_SWAP | KIND_STATS | KIND_SHUTDOWN | KIND_INFO | KIND_COMPACT | KIND_ROUTE_INFO => {
            if !payload.is_empty() {
                return Err(format!("kind {kind} takes no payload, got {}", payload.len()));
            }
            Ok(match kind {
                KIND_SWAP => RequestBody::Swap,
                KIND_STATS => RequestBody::Stats,
                KIND_INFO => RequestBody::Info,
                KIND_COMPACT => RequestBody::Compact,
                KIND_ROUTE_INFO => RequestBody::RouteInfo,
                _ => RequestBody::Shutdown,
            })
        }
        other => Err(format!("unknown request kind {other}")),
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
    // Validate the prefix eagerly: a bad magic or version is fatal on
    // byte 4, not after a full header straggles in.
    if let Some(magic) = buf.first_chunk::<4>() {
        if *magic != REQ_MAGIC {
            return Decoded::Fatal("bad frame magic".into());
        }
    }
    if let Some(&early_version) = buf.get(4) {
        if !(MIN_VERSION..=VERSION).contains(&early_version) {
            return Decoded::Fatal(format!(
                "unsupported protocol version {early_version} (want {MIN_VERSION}..={VERSION})"
            ));
        }
    }
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Decoded::Incomplete;
    };
    let [_, _, _, _, version, kind, i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3] = *header;
    let id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
    if payload_len > MAX_PAYLOAD {
        return Decoded::Fatal(format!(
            "declared payload length {payload_len} exceeds the {MAX_PAYLOAD}-byte cap"
        ));
    }
    let used = HEADER_LEN + payload_len as usize;
    let Some(payload) = buf.get(HEADER_LEN..used) else {
        return Decoded::Incomplete;
    };
    match parse_request_payload(version, kind, payload, max_batch) {
        Ok(body) => Decoded::Request { request: Request { id, body }, used },
        Err(msg) => Decoded::Bad { id, msg, used },
    }
}

/// Decode one response frame from `r`. Malformed responses are always
/// fatal on the client side — a client has no one to report them to.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let (_version, status, id, payload) = read_frame(r)?;
    let bad = |msg: &str| ProtoError::Fatal(msg.to_string());
    let body = match status {
        STATUS_ERROR => ResponseBody::Error(String::from_utf8_lossy(&payload).into_owned()),
        STATUS_OK => {
            // Ok payloads for the empty-bodied kinds are tagged with
            // the request kind so the stream stays self-describing.
            // Each arm's length guard makes the field reads below it
            // infallible, but the reads are total anyway: a guard
            // edited out of step with its fields surfaces as this
            // fatal error, never a slice-index panic.
            let short = || bad("ok response payload shorter than its declared layout");
            let u8f = |at: usize| wire::u8_at(&payload, at).ok_or_else(short);
            let u32f = |at: usize| wire::u32_at(&payload, at).ok_or_else(short);
            let u64f = |at: usize| wire::u64_at(&payload, at).ok_or_else(short);
            match payload.first() {
                None => return Err(bad("empty ok response payload")),
                Some(&KIND_SWAP) if payload.len() == 17 => {
                    ResponseBody::Swapped { generation: u64f(1)?, vertices: u64f(9)? }
                }
                Some(&KIND_STATS) if payload.len() == 35 => ResponseBody::Stats(StatsReply {
                    generation: u64f(1)?,
                    vertices: u64f(9)?,
                    directed: u8f(17)? != 0,
                    resident: u8f(18)? != 0,
                    requests: u64f(19)?,
                    protocol_errors: u64f(27)?,
                }),
                Some(&KIND_SHUTDOWN) if payload.len() == 1 => ResponseBody::Bye,
                Some(&KIND_UPDATE) if payload.len() == 17 => {
                    ResponseBody::Updated { generation: u64f(1)?, overlay_edges: u64f(9)? }
                }
                Some(&KIND_INFO) if payload.len() == 125 => ResponseBody::Info(InfoReply {
                    protocol: u8f(1)?,
                    generation: u64f(2)?,
                    vertices: u64f(10)?,
                    directed: u8f(18)? != 0,
                    resident: u8f(19)? != 0,
                    resident_bytes: u64f(20)?,
                    overlay_edges: u64f(28)?,
                    overlay_affected: u64f(36)?,
                    compactions: u64f(44)?,
                    requests: u64f(52)?,
                    protocol_errors: u64f(60)?,
                    durability: u8f(68)?,
                    wal_epoch: u64f(69)?,
                    wal_records: u64f(77)?,
                    wal_bytes: u64f(85)?,
                    recovered_records: u64f(93)?,
                    recovered_dropped_bytes: u64f(101)?,
                    checkpoints: u64f(109)?,
                    aborted_compactions: u64f(117)?,
                }),
                Some(&KIND_COMPACT) if payload.len() == 17 => {
                    ResponseBody::Compacted { generation: u64f(1)?, vertices: u64f(9)? }
                }
                Some(&KIND_ROUTE_INFO) if payload.len() == 37 => {
                    ResponseBody::RouteInfo(RouteReply {
                        mode: u8f(1)?,
                        directed: u8f(2)? != 0,
                        rank_pruned: u8f(3)? != 0,
                        vertices: u64f(4)?,
                        generation: u64f(12)?,
                        shard_lo: u32f(20)?,
                        shard_hi: u32f(24)?,
                        shard_index: u32f(28)?,
                        shard_count: u32f(32)?,
                    })
                }
                _ => {
                    // Distances: count-prefixed u32s. The tag bytes of
                    // the variants above cannot collide because a
                    // distance payload is always 4 + 4k bytes with a
                    // leading LE count — re-parse as such (a 17-, 35-,
                    // 37-, or 125-byte payload is never 4 + 4k with a
                    // matching count whose low byte equals the tag).
                    let Some(count) = wire::u32_at(&payload, 0).map(|c| c as usize) else {
                        return Err(bad("ok response payload too short"));
                    };
                    if payload.len() != 4 + 4 * count {
                        return Err(bad("distance payload length mismatch"));
                    }
                    ResponseBody::Distances(
                        wire::u32s(payload.get(4..).unwrap_or_default()).collect(),
                    )
                }
            }
        }
        other => return Err(ProtoError::Fatal(format!("unknown response status {other}"))),
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
            RequestBody::Stats,
            RequestBody::Shutdown,
            RequestBody::Update(vec![(0, 9, 1), (5, 2, u32::MAX)]),
            RequestBody::Info,
            RequestBody::Compact,
            RequestBody::RouteInfo,
        ] {
            let req = Request { id: 0xDEAD_BEEF_0BAD_CAFE, body };
            let bytes = req.encode();
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
    fn response_roundtrip_all_kinds() {
        for body in [
            ResponseBody::Distances(vec![0, 5, UNREACHABLE]),
            ResponseBody::Swapped { generation: 3, vertices: 1000 },
            ResponseBody::Stats(StatsReply {
                generation: 2,
                vertices: 42,
                directed: true,
                resident: false,
                requests: 17,
                protocol_errors: 3,
            }),
            ResponseBody::Bye,
            ResponseBody::Updated { generation: 4, overlay_edges: 12 },
            ResponseBody::Info(InfoReply {
                protocol: VERSION,
                generation: 9,
                vertices: 777,
                directed: false,
                resident: true,
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
            }),
            ResponseBody::Compacted { generation: 5, vertices: 888 },
            ResponseBody::RouteInfo(RouteReply {
                mode: ROUTE_SHARD,
                vertices: 4096,
                directed: true,
                generation: 11,
                shard_lo: 16,
                shard_hi: 900,
                shard_index: 1,
                shard_count: 4,
                rank_pruned: true,
            }),
            ResponseBody::Error("nope".into()),
        ] {
            let resp = Response { id: 99, body };
            let bytes = resp.encode();
            let got = read_response(&mut Cursor::new(&bytes)).unwrap();
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn eof_at_boundary_is_closed_mid_header_is_fatal() {
        // The blocking reader that remains is the client's.
        assert!(matches!(read_response(&mut Cursor::new(&[])), Err(ProtoError::Closed)));
        let frame = Response { id: 1, body: ResponseBody::Bye }.encode();
        for cut in 1..HEADER_LEN {
            let r = read_response(&mut Cursor::new(&frame[..cut]));
            assert!(matches!(r, Err(ProtoError::Fatal(_))), "cut at {cut}: {r:?}");
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
            RequestBody::Stats,
            RequestBody::Shutdown,
            RequestBody::Update(vec![(0, 9, 1), (5, 2, 3)]),
            RequestBody::Info,
            RequestBody::Compact,
            RequestBody::RouteInfo,
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
        put_header(&mut frame, REQ_MAGIC, VERSION, KIND_QUERY, 1, (MAX_PAYLOAD + 1) as usize);
        assert!(matches!(decode_request(&frame, 16), Decoded::Fatal(_)));
    }

    #[test]
    fn v2_kinds_in_a_v1_frame_are_recoverable_unsupported_kind() {
        for body in [RequestBody::Update(vec![(1, 2, 3)]), RequestBody::Info, RequestBody::Compact]
        {
            let mut frame = Request { id: 11, body }.encode();
            assert_eq!(frame[4], 2, "v2 kinds must be marked v2");
            frame[4] = 1;
            match decode_request(&frame, 16) {
                Decoded::Bad { id: 11, msg, used } => {
                    assert!(msg.contains("unsupported kind"), "{msg}");
                    assert_eq!(used, frame.len());
                }
                other => panic!("want recoverable Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn v4_kind_in_an_older_frame_is_recoverable_unsupported_kind() {
        let mut frame = Request { id: 21, body: RequestBody::RouteInfo }.encode();
        assert_eq!(frame[4], 4, "route_info must be marked v4");
        for older in 1..4u8 {
            frame[4] = older;
            match decode_request(&frame, 16) {
                Decoded::Bad { id: 21, msg, used } => {
                    assert!(msg.contains("unsupported kind"), "{msg}");
                    assert_eq!(used, frame.len());
                }
                other => panic!("v{older}: want recoverable Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn legacy_kinds_still_encode_as_version_1() {
        for body in [RequestBody::Query(vec![(1, 2)]), RequestBody::Swap, RequestBody::Stats] {
            assert_eq!(Request { id: 1, body }.encode()[4], 1);
        }
        assert_eq!(Response { id: 1, body: ResponseBody::Bye }.encode()[4], 1);
        assert_eq!(
            Response { id: 1, body: ResponseBody::Updated { generation: 1, overlay_edges: 0 } }
                .encode()[4],
            2
        );
        assert_eq!(
            Response { id: 1, body: ResponseBody::Info(InfoReply::default()) }.encode()[4],
            3
        );
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
