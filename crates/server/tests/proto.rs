//! Property tests for the `HOPQ` wire codec: encode/decode round-trips
//! over arbitrary request/response batches, plus a malformed-frame
//! corpus (truncated header, oversized declared length, bad
//! magic/version, zero-pair batch, mutated bytes) that must always
//! yield clean protocol errors — never a panic and never a frame the
//! decoder silently misreads.

use std::io::Cursor;

use hopdb_server::proto::{
    decode_request, read_response, Decoded, InfoReply, Request, RequestBody, Response,
    ResponseBody, RouteReply, StatsReply, HEADER_LEN, MAX_PAYLOAD, VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Decode `bytes` as everything a peer sent before closing its write
/// side — the serving loop's view of a finished stream. A partial frame
/// left in the buffer can never complete, which the loop answers with
/// the fatal `truncated frame` error; an empty buffer is a clean close
/// and stays `Incomplete` (nothing to answer).
fn decode_at_eof(bytes: &[u8], max_batch: usize) -> Decoded {
    match decode_request(bytes, max_batch) {
        Decoded::Incomplete if !bytes.is_empty() => Decoded::Fatal("truncated frame".into()),
        other => other,
    }
}

/// Strategy: an arbitrary request of any kind (v1 and v2 kinds alike).
fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u64..u64::MAX,
        0u8..8,
        vec((0u32..u32::MAX, 0u32..u32::MAX), 1..300),
        vec((0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX), 1..300),
    )
        .prop_map(|(id, kind, pairs, edges)| {
            let body = match kind {
                0 => RequestBody::Query(pairs),
                1 => RequestBody::Swap,
                2 => RequestBody::Stats,
                3 => RequestBody::Shutdown,
                4 => RequestBody::Update(edges),
                5 => RequestBody::Info,
                6 => RequestBody::Compact,
                _ => RequestBody::RouteInfo,
            };
            Request { id, body }
        })
}

/// Strategy: an arbitrary response of any kind (v1 and v2 kinds alike).
fn response_strategy() -> impl Strategy<Value = Response> {
    (0u64..u64::MAX, 0u8..9, vec(0u32..=u32::MAX, 0..300), 0u64..1 << 40, 0u64..1 << 32).prop_map(
        |(id, kind, dists, a, b)| {
            let body = match kind {
                0 => ResponseBody::Distances(dists),
                1 => ResponseBody::Swapped { generation: a, vertices: b },
                2 => ResponseBody::Stats(StatsReply {
                    generation: a,
                    vertices: b,
                    directed: a % 2 == 0,
                    resident: b % 2 == 0,
                    requests: a ^ b,
                    protocol_errors: a.wrapping_mul(b),
                }),
                3 => ResponseBody::Bye,
                4 => ResponseBody::Updated { generation: a, overlay_edges: b },
                5 => ResponseBody::Info(InfoReply {
                    protocol: (a % 250) as u8,
                    generation: a,
                    vertices: b,
                    directed: a % 2 == 1,
                    resident: b % 2 == 0,
                    resident_bytes: a ^ b,
                    overlay_edges: b >> 1,
                    overlay_affected: a >> 3,
                    compactions: a % 17,
                    requests: b % 1009,
                    protocol_errors: a % 13,
                    durability: (b % 4) as u8,
                    wal_epoch: a % 97,
                    wal_records: b % 4093,
                    wal_bytes: a % (1 << 30),
                    recovered_records: b % 211,
                    recovered_dropped_bytes: a % 4096,
                    checkpoints: b % 31,
                    aborted_compactions: a % 7,
                }),
                6 => ResponseBody::Compacted { generation: a, vertices: b },
                7 => ResponseBody::RouteInfo(RouteReply {
                    mode: (a % 3) as u8,
                    vertices: b,
                    directed: a % 2 == 0,
                    generation: a >> 5,
                    shard_lo: (a % (1 << 32)) as u32,
                    shard_hi: (b % (1 << 32)) as u32,
                    shard_index: (a % 7) as u32,
                    shard_count: (b % 11) as u32,
                    rank_pruned: b % 2 == 1,
                }),
                _ => ResponseBody::Error(format!("error {a}")),
            };
            Response { id, body }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let bytes = req.encode();
        match decode_at_eof(&bytes, usize::MAX) {
            Decoded::Request { request, used } => {
                prop_assert_eq!(request, req);
                prop_assert_eq!(used, bytes.len());
            }
            other => panic!("roundtrip: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let bytes = resp.encode();
        let got = read_response(&mut Cursor::new(&bytes)).expect("roundtrip");
        prop_assert_eq!(got, resp);
    }

    #[test]
    fn truncated_request_frames_never_panic(
        (req, keep_millionths) in (request_strategy(), 0u32..1_000_000)
    ) {
        let bytes = req.encode();
        let keep = (bytes.len() as u64 * keep_millionths as u64 / 1_000_000) as usize;
        match decode_at_eof(&bytes[..keep], usize::MAX) {
            Decoded::Request { .. } => {
                prop_assert_eq!(keep, bytes.len(), "decoded from a strict prefix");
            }
            Decoded::Incomplete => prop_assert_eq!(keep, 0),
            Decoded::Fatal(_) => {}
            other @ Decoded::Bad { .. } => panic!("unexpected error class: {other:?}"),
        }
    }

    #[test]
    fn single_byte_corruption_never_panics_or_misparses_silently(
        (req, at_millionths, xor) in (request_strategy(), 0u32..1_000_000, 1u8..=255)
    ) {
        let mut bytes = req.encode();
        let at = (bytes.len() as u64 * at_millionths as u64 / 1_000_000) as usize % bytes.len();
        bytes[at] ^= xor;
        // Any outcome is acceptable except a panic — a flipped byte in
        // the id or pair region still decodes, by design — but a
        // corrupted *header* must never decode as a different frame
        // that re-encodes like the original.
        if let Decoded::Request { request: got, .. } = decode_at_eof(&bytes, usize::MAX) {
            prop_assert!(at >= 4, "corrupt magic byte {at} still decoded");
            if at == 4 {
                // The version byte can flip between the two accepted
                // protocol versions; frame identity is unchanged.
                prop_assert_eq!(got, req);
            } else {
                prop_assert_ne!(got.encode(), req.encode());
            }
        }
    }
}

#[test]
fn truncated_header_every_cut_is_fatal() {
    let frame = Request { id: 3, body: RequestBody::Query(vec![(1, 2)]) }.encode();
    for cut in 1..frame.len() {
        match decode_at_eof(&frame[..cut], 1 << 16) {
            Decoded::Fatal(_) => {}
            other => panic!("cut at {cut}: want Fatal, got {other:?}"),
        }
    }
    assert!(matches!(decode_at_eof(&[], 16), Decoded::Incomplete));
}

#[test]
fn oversized_declared_length_is_fatal_without_allocation() {
    // Header declaring MAX_PAYLOAD + 1 bytes, with no payload behind
    // it: must fail on the declared length, not on the missing bytes
    // (and must not try to allocate the declared amount).
    let mut frame = Vec::new();
    frame.extend_from_slice(b"HOPQ");
    frame.push(VERSION);
    frame.push(1); // query
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    match decode_at_eof(&frame, 1 << 16) {
        Decoded::Fatal(msg) => assert!(msg.contains("cap"), "{msg}"),
        other => panic!("want Fatal, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_version_are_fatal() {
    let good = Request { id: 9, body: RequestBody::Stats }.encode();
    for at in 0..4 {
        let mut bad = good.clone();
        bad[at] ^= 0x20;
        assert!(matches!(decode_at_eof(&bad, 16), Decoded::Fatal(_)), "magic byte {at}");
    }
    let mut wrong_version = good.clone();
    wrong_version[4] = VERSION + 1;
    match decode_at_eof(&wrong_version, 16) {
        Decoded::Fatal(msg) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("want Fatal, got {other:?}"),
    }
}

#[test]
fn payload_level_violations_are_recoverable_with_id() {
    // Zero-pair batch.
    let zero = Request { id: 42, body: RequestBody::Query(vec![]) }.encode();
    match decode_at_eof(&zero, 16) {
        Decoded::Bad { id: 42, msg, .. } => assert!(msg.contains("zero"), "{msg}"),
        other => panic!("want Bad, got {other:?}"),
    }

    // Batch larger than the server's limit.
    let big = Request { id: 7, body: RequestBody::Query(vec![(0, 0); 17]) }.encode();
    match decode_at_eof(&big, 16) {
        Decoded::Bad { id: 7, msg, .. } => assert!(msg.contains("limit"), "{msg}"),
        other => panic!("want Bad, got {other:?}"),
    }

    // Pair count disagreeing with the payload length.
    let mut mismatch = Request { id: 8, body: RequestBody::Query(vec![(1, 2), (3, 4)]) }.encode();
    mismatch[HEADER_LEN] = 3; // claims 3 pairs, carries 2
    match decode_at_eof(&mismatch, 16) {
        Decoded::Bad { id: 8, msg, .. } => assert!(msg.contains("pairs need"), "{msg}"),
        other => panic!("want Bad, got {other:?}"),
    }

    // Unknown request kind (with an empty, fully consumed payload).
    let mut unknown = Request { id: 9, body: RequestBody::Stats }.encode();
    unknown[5] = 99;
    match decode_at_eof(&unknown, 16) {
        Decoded::Bad { id: 9, msg, .. } => assert!(msg.contains("unknown"), "{msg}"),
        other => panic!("want Bad, got {other:?}"),
    }

    // Non-empty payload on an empty-bodied kind.
    let mut stuffed = Request { id: 10, body: RequestBody::Query(vec![(1, 2)]) }.encode();
    stuffed[5] = 2; // swap, but with the query payload still attached
    match decode_at_eof(&stuffed, 16) {
        Decoded::Bad { id: 10, msg, .. } => assert!(msg.contains("no payload"), "{msg}"),
        other => panic!("want Bad, got {other:?}"),
    }
}

#[test]
fn recoverable_errors_leave_the_stream_aligned() {
    // A zero-pair batch followed by a valid request on the same stream:
    // after the Bad error, the next decode must yield the valid frame.
    let mut stream = Vec::new();
    stream.extend_from_slice(&Request { id: 1, body: RequestBody::Query(vec![]) }.encode());
    let good = Request { id: 2, body: RequestBody::Query(vec![(5, 6)]) };
    stream.extend_from_slice(&good.encode());
    let Decoded::Bad { id: 1, used, .. } = decode_at_eof(&stream, 16) else {
        panic!("want Bad for the zero-pair frame");
    };
    match decode_at_eof(&stream[used..], 16) {
        Decoded::Request { request, used: rest } => {
            assert_eq!(request, good);
            assert_eq!(used + rest, stream.len());
        }
        other => panic!("want the valid frame, got {other:?}"),
    }
}
