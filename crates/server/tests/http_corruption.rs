//! Corruption corpus for the HTTP/1.1 front, mirroring the WAL's
//! `wal_corruption.rs`: `decode_http` consumes bytes straight off a
//! socket, so it must *never* panic — not on truncations, not on bit
//! flips, not on arbitrary garbage — and whenever it does accept a
//! request it must account for a sane number of consumed bytes. Every
//! input is decoded at the default batch limit and at a small one.

use hopdb_server::http::{decode_http, looks_like_http, HttpDecoded, MAX_HEAD};
use hopdb_server::proto::{Reply, RequestBody, DEFAULT_MAX_BATCH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference requests every sweep mutates: each endpoint, both
/// with and without a body, plus header variations the parser handles
/// (connection tokens, case-insensitive names, unknown headers).
fn corpus() -> Vec<Vec<u8>> {
    let pairs_body = r#"{"pairs":[[1,2],[30,40],[5,5]]}"#;
    let edges_body = r#"{"edges":[[1,2,3],[9,8,70]]}"#;
    vec![
        b"GET /query?s=3&t=9 HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        format!(
            "POST /query_many HTTP/1.1\r\nContent-Length: {}\r\n\r\n{pairs_body}",
            pairs_body.len()
        )
        .into_bytes(),
        format!(
            "POST /update HTTP/1.1\r\ncontent-length: {}\r\nX-Junk: ignored\r\n\r\n{edges_body}",
            edges_body.len()
        )
        .into_bytes(),
        b"GET /query?s=0&t=0 HTTP/1.0\r\n\r\n".to_vec(),
    ]
}

/// A batch limit the corpus's lists exceed.
const SMALL_BATCH: usize = 2;

/// Decode at the default limit and at [`SMALL_BATCH`], and check the
/// invariants every outcome shares: an accepted request consumes a
/// positive number of bytes within the buffer, and the small limit
/// accepts exactly what the default accepts with at most that many
/// pairs or edges. (Reaching the return at all is the no-panic
/// property.) Returns the default limit's outcome.
fn decode_checked(buf: &[u8]) -> HttpDecoded {
    let decoded = decode_http(buf, DEFAULT_MAX_BATCH);
    let small = decode_http(buf, SMALL_BATCH);
    match (&decoded, &small) {
        (HttpDecoded::Request { body, reply, used }, small) => {
            assert!(*used > 0 && *used <= buf.len(), "used={used} of {} bytes", buf.len());
            let items = match body {
                RequestBody::Query(pairs) => pairs.len(),
                RequestBody::Update(edges) => edges.len(),
                _ => 0,
            };
            match small {
                HttpDecoded::Request { body: b, reply: r, used: u } => {
                    assert!(items <= SMALL_BATCH);
                    assert_eq!((b, r, u), (body, reply, used));
                }
                HttpDecoded::Error(resp) => {
                    assert!(items > SMALL_BATCH, "refused a batch of {items}");
                    let text = String::from_utf8_lossy(resp);
                    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
                    assert!(text.contains(&format!("exceeds limit {SMALL_BATCH}")), "{text}");
                }
                HttpDecoded::Incomplete => panic!("the small limit wants more bytes"),
            }
        }
        (HttpDecoded::Incomplete, HttpDecoded::Incomplete)
        | (HttpDecoded::Error(_), HttpDecoded::Error(_)) => {}
        (default, small) => panic!("limits disagree: {default:?} vs {small:?}"),
    }
    decoded
}

#[test]
fn corpus_requests_decode_completely() {
    for raw in corpus() {
        match decode_checked(&raw) {
            HttpDecoded::Request { used, .. } => assert_eq!(used, raw.len()),
            other => panic!("corpus request must decode, got {other:?}"),
        }
    }
}

#[test]
fn every_single_byte_truncation_is_handled() {
    for raw in corpus() {
        for cut in 0..raw.len() {
            // A truncated request is incomplete (more bytes may still
            // arrive) or, once the head is whole but the query/body is
            // damaged, an error response — never a panic and never a
            // request that claims bytes beyond the buffer.
            match decode_checked(&raw[..cut]) {
                HttpDecoded::Incomplete | HttpDecoded::Error(_) => {}
                HttpDecoded::Request { used, .. } => {
                    panic!("truncation at {cut} decoded a request using {used} bytes")
                }
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_handled() {
    for raw in corpus() {
        for at in 0..raw.len() {
            for bit in 0..8 {
                let mut mutated = raw.clone();
                mutated[at] ^= 1 << bit;
                // Any outcome is legal — flips in header values or
                // JSON digits can still parse — but it must return.
                let _ = decode_checked(&mutated);
                let _ = looks_like_http(&mutated);
            }
        }
    }
}

#[test]
fn oversized_head_without_terminator_is_rejected_not_buffered_forever() {
    let mut raw = b"GET /query?s=1&t=2 HTTP/1.1\r\n".to_vec();
    raw.extend(std::iter::repeat_n(b'a', MAX_HEAD + 1));
    match decode_checked(&raw) {
        HttpDecoded::Error(resp) => {
            let text = String::from_utf8_lossy(&resp);
            assert!(text.starts_with("HTTP/1.1 431"), "got: {text}");
        }
        other => panic!("unterminated oversized head must be an error, got {other:?}"),
    }
}

#[test]
fn hostile_content_lengths_never_over_read() {
    for hostile in ["18446744073709551616", "999999999999", "1048577", "-3", "0x10", ""] {
        let raw = format!("POST /query_many HTTP/1.1\r\nContent-Length: {hostile}\r\n\r\n");
        match decode_checked(raw.as_bytes()) {
            HttpDecoded::Error(_) => {}
            other => panic!("Content-Length {hostile:?} must be rejected, got {other:?}"),
        }
    }
}

/// `len` uniform bytes, `len` drawn from `lens`.
fn bytes(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

/// Decode 256 inputs drawn by `draw` from `seed`: a panic fails the test
/// naming the seed and the case.
fn fuzz(seed: u64, draw: impl Fn(&mut StdRng) -> Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..256 {
        let raw = draw(&mut rng);
        let decoded = std::panic::catch_unwind(|| (decode_checked(&raw), looks_like_http(&raw)));
        assert!(decoded.is_ok(), "seed {seed:#x} case {case}: {raw:?}");
    }
}

/// Pure fuzz: arbitrary bytes through the full decoder.
#[test]
fn arbitrary_bytes_never_panic() {
    fuzz(0x4771, |rng| bytes(rng, 0..600));
}

/// Structured fuzz: an HTTP-shaped prefix with arbitrary tail, so the
/// head/body split and JSON scanners actually get exercised instead of
/// dying at the request line.
#[test]
fn http_shaped_garbage_never_panics() {
    fuzz(0x4772, |rng| {
        let (mut raw, tail) = (corpus()[rng.gen_range(0usize..5)].clone(), bytes(rng, 0..256));
        let keep = raw.len().saturating_sub(tail.len() % raw.len().max(1));
        raw.truncate(keep);
        raw.extend_from_slice(&tail);
        raw
    });
}

/// Splice arbitrary bytes into the middle of valid requests.
#[test]
fn spliced_corruption_never_panics() {
    fuzz(0x4773, |rng| {
        let (mut raw, at_seed) = (corpus()[rng.gen_range(0usize..5)].clone(), rng.gen::<u16>());
        let patch = bytes(rng, 1..16);
        let at = at_seed as usize % raw.len();
        let end = (at + patch.len()).min(raw.len());
        raw[at..end].copy_from_slice(&patch[..end - at]);
        raw
    });
}

/// The decoder must keep rejecting what it rejects: a mutated request
/// that still decodes must be a *valid* request, never a mangled one
/// silently reinterpreted past its buffer.
#[test]
fn accepted_mutants_are_internally_consistent() {
    let raw = corpus().remove(2); // POST /query_many
    for at in 0..raw.len() {
        let mut mutated = raw.clone();
        mutated[at] = mutated[at].wrapping_add(1);
        if let HttpDecoded::Request { body, reply, used } = decode_checked(&mutated) {
            assert!(used <= mutated.len());
            let Reply::Http { one, .. } = reply else { panic!("an HTTP request wants {reply:?}") };
            match body {
                RequestBody::Query(pairs) => {
                    assert!(!pairs.is_empty());
                    // Only `GET /query` names its one pair in the reply.
                    assert!(one.is_none() || pairs == [one.unwrap()], "{pairs:?} vs {one:?}");
                }
                RequestBody::Update(edges) => assert!(!edges.is_empty() && one.is_none()),
                RequestBody::Info => assert!(one.is_none()),
                other => panic!("HTTP has no request for {other:?}"),
            }
        }
    }
}
