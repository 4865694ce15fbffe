//! Property tests for the `HOPQ` wire codec: encode/decode round-trips
//! over arbitrary request/response batches, plus a malformed-frame
//! corpus (truncated header, oversized declared length, bad
//! magic/version, zero-pair batch, mutated bytes) that must always
//! yield clean protocol errors — never a panic and never a frame the
//! decoder silently misreads.

use std::io::Cursor;

use hopdb_server::proto::{
    decode_request, read_response, AckReply, Decoded, FieldValue, InfoReply, Request, RequestBody,
    Response, ResponseBody, HEADER, HEADER_LEN, KINDS, MAX_PAYLOAD, REQ_MAGIC, RESP_MAGIC, VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Whether `read_response` refused a frame as a protocol violation (as
/// opposed to a transport failure such as a closed connection).
fn is_fatal(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::InvalidData && e.to_string().contains("protocol violation")
}

/// Cases per property.
const CASES: u32 = 256;

/// An arbitrary request of any kind.
fn random_request(rng: &mut StdRng) -> Request {
    let (id, kind) = (rng.gen_range(0..u64::MAX), rng.gen_range(0u8..6));
    let word = |rng: &mut StdRng| rng.gen_range(0..u32::MAX);
    let len = rng.gen_range(1usize..300);
    let pairs = (0..len).map(|_| (word(rng), word(rng))).collect();
    let len = rng.gen_range(1usize..300);
    let edges = (0..len).map(|_| (word(rng), word(rng), word(rng))).collect();
    let body = match kind {
        0 => RequestBody::Query(pairs),
        1 => RequestBody::Swap,
        2 => RequestBody::Shutdown,
        3 => RequestBody::Update(edges),
        4 => RequestBody::Info,
        _ => RequestBody::Compact,
    };
    Request { id, body }
}

/// An arbitrary response of any kind. `InfoReply` names every
/// field it has today and defaults the rest, so a field added to the
/// declaration round-trips (as zero) without an edit here.
#[allow(clippy::needless_update)]
fn random_response(rng: &mut StdRng) -> Response {
    let (id, kind) = (rng.gen_range(0..u64::MAX), rng.gen_range(0u8..7));
    let len = rng.gen_range(0usize..300);
    let dists = (0..len).map(|_| rng.gen_range(0..=u32::MAX)).collect();
    let (a, b) = (rng.gen_range(0..1u64 << 40), rng.gen_range(0..1u64 << 32));
    let body = match kind {
        0 => ResponseBody::Distances(dists),
        1 => ResponseBody::Swapped { generation: a, vertices: b },
        2 => ResponseBody::Bye,
        3 => ResponseBody::Updated { generation: a, overlay_edges: b },
        4 => ResponseBody::Info(InfoReply {
            protocol: (a % 250) as u8,
            mode: (b % 3) as u8,
            generation: a,
            vertices: b,
            directed: a % 2 == 1,
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
            shard_lo: (a % (1 << 32)) as u32,
            shard_hi: (b % (1 << 32)) as u32,
            shard_index: (a % 7) as u32,
            shard_count: (b % 11) as u32,
            backends: (a % 5) as u32,
            failovers: a ^ b,
            ..Default::default()
        }),
        5 => ResponseBody::Compacted { generation: a, vertices: b },
        _ => ResponseBody::Error(format!("error {a}")),
    };
    Response { id, body }
}

#[test]
fn request_roundtrip() {
    const SEED: u64 = 0x9e01;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let req = random_request(&mut rng);
        let bytes = req.encode();
        match decode_at_eof(&bytes, usize::MAX) {
            Decoded::Request { request, used } => {
                assert_eq!((request, used), (req, bytes.len()), "seed {SEED:#x} case {case}");
            }
            other => panic!("seed {SEED:#x} case {case}: roundtrip: {other:?}"),
        }
    }
}

#[test]
fn response_roundtrip() {
    const SEED: u64 = 0x9e02;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let resp = random_response(&mut rng);
        let bytes = resp.encode();
        let at = format!("seed {SEED:#x} case {case}");
        let got = read_response(&mut Cursor::new(&bytes)).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(got, resp, "{at}");
    }
}

#[test]
fn truncated_request_frames_never_panic() {
    const SEED: u64 = 0x9e03;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let (req, keep_millionths) = (random_request(&mut rng), rng.gen_range(0u64..1_000_000));
        let bytes = req.encode();
        let keep = (bytes.len() as u64 * keep_millionths / 1_000_000) as usize;
        let at = format!("seed {SEED:#x} case {case}: {keep} of {} bytes", bytes.len());
        match decode_at_eof(&bytes[..keep], usize::MAX) {
            Decoded::Request { .. } => assert_eq!(keep, bytes.len(), "{at}: decoded a prefix"),
            Decoded::Incomplete => assert_eq!(keep, 0, "{at}"),
            Decoded::Fatal(_) => {}
            other @ Decoded::Bad { .. } => panic!("{at}: unexpected error class: {other:?}"),
        }
    }
}

#[test]
fn single_byte_corruption_never_panics_or_misparses_silently() {
    const SEED: u64 = 0x9e04;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..CASES {
        let (req, at_millionths) = (random_request(&mut rng), rng.gen_range(0u64..1_000_000));
        let xor = rng.gen_range(1u8..=255);
        let mut bytes = req.encode();
        let at = (bytes.len() as u64 * at_millionths / 1_000_000) as usize % bytes.len();
        bytes[at] ^= xor;
        // Any outcome is acceptable except a panic — a flipped byte in
        // the id or pair region still decodes, by design — but a
        // corrupted magic or version byte must never decode at all, and
        // a corrupted kind or length must never decode as a frame that
        // re-encodes like the original.
        if let Decoded::Request { request: got, .. } = decode_at_eof(&bytes, usize::MAX) {
            assert!(at > 4, "seed {SEED:#x} case {case}: corrupt magic/version byte {at} decoded");
            assert_ne!(got.encode(), req.encode(), "seed {SEED:#x} case {case}: byte {at}");
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
    let good = Request { id: 9, body: RequestBody::Info }.encode();
    for at in 0..4 {
        let mut bad = good.clone();
        bad[at] ^= 0x20;
        assert!(matches!(decode_at_eof(&bad, 16), Decoded::Fatal(_)), "magic byte {at}");
    }
    // One version: its neighbours on either side are fatal in a request
    // and in a response, as soon as the byte is there.
    let reply = Response { id: 9, body: ResponseBody::Bye }.encode();
    for version in [VERSION - 1, VERSION + 1] {
        let mut wrong = good.clone();
        wrong[4] = version;
        for frame in [&wrong[..], &wrong[..5]] {
            match decode_request(frame, 16) {
                Decoded::Fatal(msg) => assert!(msg.contains("version"), "{msg}"),
                other => panic!("version {version}: want Fatal, got {other:?}"),
            }
        }
        let mut wrong = reply.clone();
        wrong[4] = version;
        match read_response(&mut Cursor::new(&wrong)) {
            Err(e) if is_fatal(&e) => assert!(e.to_string().contains("version"), "{e}"),
            other => panic!("version {version}: want Fatal, got {other:?}"),
        }
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

    // Unknown request kinds (with an empty, fully consumed payload) —
    // among them 3 and 8, the retired `stats` and `route_info` — leave
    // the stream aligned on the next frame.
    for kind in [3, 8, 99] {
        let mut stream = Request { id: 9, body: RequestBody::Info }.encode();
        stream[5] = kind;
        let next = Request { id: 10, body: RequestBody::Query(vec![(5, 6)]) };
        stream.extend_from_slice(&next.encode());
        let used = match decode_at_eof(&stream, 16) {
            Decoded::Bad { id: 9, msg, used } => {
                assert_eq!(msg, format!("unknown request kind {kind}"));
                used
            }
            other => panic!("kind {kind}: want Bad, got {other:?}"),
        };
        match decode_at_eof(&stream[used..], 16) {
            Decoded::Request { request, .. } => assert_eq!(request, next, "after kind {kind}"),
            other => panic!("after kind {kind}: want the query, got {other:?}"),
        }
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

/// The length-sniffing decoder this protocol used to have could not have
/// allowed these: three distances and a `(generation, count)`
/// acknowledgement whose payloads are the same 16 bytes. The kind byte
/// tells them apart, so each round-trips to itself.
#[test]
fn byte_identical_payloads_are_told_apart_by_the_kind_byte() {
    let (a, b, c) = (7u64, 0xDEAD_BEEFu64, 41u64);
    let distances = ResponseBody::Distances(vec![a as u32, b as u32, c as u32]);
    let (generation, count) = (3 | (a << 32), b | (c << 32));
    for ack in [
        ResponseBody::Swapped { generation, vertices: count },
        ResponseBody::Updated { generation, overlay_edges: count },
        ResponseBody::Compacted { generation, vertices: count },
    ] {
        let frames = [&distances, &ack].map(|body| Response { id: 1, body: body.clone() }.encode());
        assert_eq!(frames[0][HEADER_LEN..], frames[1][HEADER_LEN..], "the premise: same payload");
        for (frame, body) in frames.iter().zip([&distances, &ack]) {
            assert_eq!(&read_response(&mut Cursor::new(frame)).expect("decodes").body, body);
        }
    }
}

/// What a declared reply promises, checked on `body`, the frame-level
/// form of `reply`: `wire_len` is the encoded length, no strict prefix
/// (and no extension) of the payload decodes — as that reply or as
/// anything else — and `fields` is the struct's fields in declaration
/// order, which is what `derive(Debug)` prints.
fn check_declared_reply(
    body: ResponseBody,
    reply: &dyn std::fmt::Debug,
    wire_len: usize,
    fields: Vec<(&str, FieldValue)>,
) {
    let debug = format!("{reply:?}");
    let frame = Response { id: 5, body: body.clone() }.encode();
    assert_eq!(frame.len() - HEADER_LEN, wire_len, "{debug}");
    assert_eq!(read_response(&mut Cursor::new(&frame)).expect("whole").body, body);
    for keep in 0..wire_len {
        let got = read_response(&mut Cursor::new(&with_payload_len(&frame, keep)));
        assert!(matches!(&got, Err(e) if is_fatal(e)), "{keep} of {wire_len} bytes: {got:?}");
    }
    let got = read_response(&mut Cursor::new(&with_payload_len(&frame, wire_len + 1)));
    assert!(matches!(&got, Err(e) if is_fatal(e)), "one byte too many: {got:?}");

    // `Name { a: 1, b: true }` → [("a", "1"), ("b", "true")].
    let inner = debug.split_once(" { ").and_then(|(_, rest)| rest.strip_suffix(" }"));
    let printed: Vec<(&str, &str)> = inner
        .expect("derive(Debug) shape")
        .split(", ")
        .filter_map(|field| field.split_once(": "))
        .collect();
    assert_eq!(printed.len(), fields.len(), "{debug}");
    for ((name, value), (printed_name, printed_value)) in fields.iter().zip(printed) {
        assert_eq!(*name, printed_name, "{debug}");
        if !matches!(value, FieldValue::Name(_)) {
            assert_eq!(value.to_string(), printed_value, "{name} of {debug}");
        }
    }
}

/// `frame` with its payload cut (or zero-extended) to `len` bytes and
/// the header's declared length fixed up to match — a well-framed
/// payload of the wrong size.
fn with_payload_len(frame: &[u8], len: usize) -> Vec<u8> {
    let mut resized = frame.to_vec();
    resized.resize(HEADER_LEN + len, 0);
    resized[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    resized
}

#[test]
fn declared_replies_keep_their_length_their_totality_and_their_field_list() {
    let node = InfoReply {
        protocol: VERSION,
        generation: 9,
        directed: true,
        wal_bytes: 4096,
        ..Default::default()
    };
    let router = InfoReply {
        mode: 2,
        vertices: 4096,
        shard_hi: 900,
        backends: 2,
        failovers: 7,
        ..Default::default()
    };
    for info in [node, router] {
        check_declared_reply(
            ResponseBody::Info(info),
            &info,
            InfoReply::WIRE_LEN,
            info.fields().collect(),
        );
    }
    // The two fields shown by name rather than by number.
    let named = |info: InfoReply| {
        info.fields().filter_map(|(name, value)| match value {
            FieldValue::Name(text) => Some((name, text)),
            _ => None,
        })
    };
    let named: Vec<_> = named(node).chain(named(router)).collect();
    assert_eq!(
        named,
        [("mode", "single"), ("durability", "off"), ("mode", "shard"), ("durability", "off")]
    );
    let ack = AckReply { generation: 7, count: 300 };
    check_declared_reply(
        ResponseBody::Compacted { generation: 7, vertices: 300 },
        &ack,
        AckReply::WIRE_LEN,
        ack.fields().collect(),
    );
}

/// The header block, as the README and the `proto` module docs print
/// it, rendered from the constants.
fn rendered_header() -> String {
    let magic = |m: [u8; 4]| String::from_utf8_lossy(&m).into_owned();
    let notes = [
        format!("\"{}\" request / \"{}\" response", magic(REQ_MAGIC), magic(RESP_MAGIC)),
        format!("{VERSION}; any other value is fatal"),
        "request kind; in a response 0 = error, else the request kind it answers".to_string(),
        "u64, chosen by the client, echoed in the response".to_string(),
        format!("u32, at most {} MiB", MAX_PAYLOAD >> 20),
    ];
    let lines: Vec<String> = HEADER
        .iter()
        .zip(notes)
        .map(|((field, bytes), note)| format!("{field:<12} {bytes} B  {note}"))
        .collect();
    lines.join("\n")
}

/// The kind table, likewise.
fn rendered_kinds() -> String {
    let mut rows = vec![
        "| kind | name | request payload | ok reply payload |".to_string(),
        "|------|------|-----------------|------------------|".to_string(),
    ];
    rows.extend(KINDS.iter().map(|(number, name, request, reply)| {
        format!("| {number} | {name} | {request} | {reply} |")
    }));
    rows.join("\n")
}

/// The one check that the three descriptions of the protocol agree:
/// the constants are the source, and the README's "Wire protocol"
/// section and the `proto` module docs must each contain, verbatim, the
/// header block and the kind table rendered from them. The table in
/// turn is held to the codec: every row's kind decodes, its neighbours
/// outside the table do not.
#[test]
fn readme_and_module_docs_state_the_constants() {
    assert_eq!(HEADER.iter().map(|(_, bytes)| bytes).sum::<usize>(), HEADER_LEN);
    let readme = include_str!("../../../README.md");
    let section = readme
        .split_once("**Wire protocol**")
        .and_then(|(_, rest)| rest.split_once("**Pipelining**"));
    let section = section.expect("README has a Wire protocol section, then Pipelining").0;
    let module_docs: String = include_str!("../src/proto.rs")
        .lines()
        .map_while(|line| line.strip_prefix("//!"))
        .map(|line| format!("{}\n", line.strip_prefix(' ').unwrap_or(line)))
        .collect();
    for (what, text) in [("README.md", section), ("proto.rs module docs", &module_docs[..])] {
        for rendering in [rendered_header(), rendered_kinds()] {
            assert!(text.contains(&rendering), "{what} must contain, verbatim:\n{rendering}");
        }
        assert!(
            text.contains(&format!("{HEADER_LEN}-byte")),
            "{what} must state the header length"
        );
    }
    // `GET /stats` shows the version it answers with, in the README and
    // in the HTTP front's endpoint table.
    let stats = format!("\"protocol\":{VERSION},");
    let readme_stats = readme.lines().find(|line| line.starts_with("GET  /stats"));
    let readme_stats = readme_stats.expect("README has a `GET  /stats` line");
    let http_stats = include_str!("../src/http.rs")
        .lines()
        .map_while(|line| line.strip_prefix("//!"))
        .find(|line| line.contains("`GET /stats`"))
        .expect("http.rs module docs list `GET /stats`");
    for (what, line) in [("README.md", readme_stats), ("http.rs module docs", http_stats)] {
        assert!(line.contains(&stats), "{what}'s GET /stats line must show {stats}: {line}");
    }

    let numbers: Vec<u8> = KINDS.iter().map(|row| row.0).collect();
    assert!(numbers.windows(2).all(|w| w[0] < w[1]), "kinds ascend: {numbers:?}");
    assert!(!numbers.contains(&0), "0 is the error reply");
    for retired in [3, 8] {
        assert!(!numbers.contains(&retired), "kind {retired} stays retired, never reused");
    }
    for kind in 0..=u8::MAX {
        let mut frame = Request { id: 1, body: RequestBody::Info }.encode();
        frame[5] = kind;
        let outcome = decode_request(&frame, 16);
        match numbers.contains(&kind) {
            // A counted kind with no payload is malformed, but known.
            true => assert!(
                !matches!(&outcome, Decoded::Bad { msg, .. } if msg.contains("unknown") || msg.contains("not implemented")),
                "kind {kind} is in the table: {outcome:?}"
            ),
            false => assert!(
                matches!(&outcome, Decoded::Bad { msg, .. } if msg.contains("unknown request kind")),
                "kind {kind} is not in the table: {outcome:?}"
            ),
        }
    }
}
