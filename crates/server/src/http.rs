//! A minimal HTTP/1.1 + JSON front for browser and dashboard clients.
//!
//! The serving loop speaks two protocols on one port: the binary
//! `HOPQ` framing and this HTTP front, distinguished by the first bytes
//! a connection sends. The HTTP surface is deliberately small:
//!
//! | endpoint            | answer |
//! |---------------------|--------|
//! | `GET /query?s=S&t=T` | `{"s":S,"t":T,"dist":D}` (`"dist":null` when unreachable) |
//! | `POST /query_many`  | body `{"pairs":[[s,t],...]}` → `{"dists":[...]}` (null = unreachable) |
//! | `POST /update`      | body `{"edges":[[s,t,w],...]}` → `{"generation":G,"overlay_edges":N}` |
//! | `GET /stats`        | the `info` reply as JSON: `{"protocol":8,"mode":"single",...}` |
//!
//! HTTP is a second framing of the `HOPQ` requests, not a second
//! request stack: [`decode_http`] turns a request into the same
//! [`RequestBody`] a binary frame decodes to (`/query` and
//! `/query_many` a `Query`, `/update` an `Update`, `/stats` an `Info`)
//! plus the [`Reply`] that says how to answer it, and `render` is the
//! HTTP arm of [`Reply::encode`]. So HTTP requests ride the same batch
//! path as binary frames and obey the same `--max-batch`, and an answer
//! is one [`ResponseBody`] whichever framing carries it. Keep-alive is
//! honoured (HTTP/1.1 default); HTTP requests on one connection are
//! answered in order, so the per-connection in-flight cap is 1 for HTTP
//! mode — browsers do not pipeline anyway, and it keeps responses
//! ordered without a resequencing buffer.
//!
//! Parsing is hand-rolled (no external dependencies, like the rest of
//! the tree): request line + headers up to a CRLFCRLF, an optional
//! `Content-Length` body, and one JSON list reader for both bodies: a
//! list of fixed-width integer tuples, bare or under one key —
//! `/query_many`'s `pairs` of `[s,t]` and `/update`'s `edges` of
//! `[s,t,w]` — with nothing but whitespace (and the key's closing `}`)
//! after it. Head and body sizes are capped; a peer exceeding them gets
//! a 4xx and the connection closed.

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

use crate::proto::{FieldValue, Reply, RequestBody, ResponseBody};
use sfgraph::{Dist, VertexId, INF_DIST};

/// Cap on the request head (request line + headers).
pub const MAX_HEAD: usize = 8 << 10;
/// Cap on a request body (`POST /query_many`'s pair list, `POST
/// /update`'s edge list). It bounds what a list can allocate before its
/// length is held to `--max-batch`.
pub const MAX_BODY: usize = 1 << 20;

/// Outcome of trying to parse one HTTP request from a buffer prefix.
#[derive(Debug)]
pub enum HttpDecoded {
    /// Need more bytes (head or body still incomplete).
    Incomplete,
    /// A request the server should act on; consume `used` bytes.
    Request {
        /// What was asked.
        body: RequestBody,
        /// How to answer it: `Connection: close` and `GET /query`'s pair.
        reply: Reply,
        /// Bytes consumed from the buffer.
        used: usize,
    },
    /// Answer with this pre-rendered error response, then close.
    Error(Vec<u8>),
}

/// Whether a buffer prefix looks like the start of an HTTP request
/// (used for protocol detection on a fresh connection).
pub fn looks_like_http(prefix: &[u8]) -> bool {
    const METHODS: [&[u8]; 6] = [b"GET ", b"POST", b"HEAD", b"PUT ", b"DELE", b"OPTI"];
    if prefix.len() < 4 {
        return false;
    }
    METHODS.iter().any(|m| prefix.starts_with(m))
}

/// Try to parse one request from the front of `buf`, refusing a pair or
/// edge list longer than `max_batch`.
pub fn decode_http(buf: &[u8], max_batch: usize) -> HttpDecoded {
    let refuse = |code, msg: &str| HttpDecoded::Error(error_response(code, msg));
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return refuse(431, "request head too large");
        }
        return HttpDecoded::Incomplete;
    };
    let Some(head_bytes) = buf.get(..head_len) else {
        return HttpDecoded::Incomplete; // unreachable: head_len <= buf.len()
    };
    let Ok(head) = std::str::from_utf8(head_bytes) else {
        return refuse(400, "request head is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return refuse(400, "malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return refuse(505, "only HTTP/1.x is supported");
    }

    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(v) => content_length = v,
                Err(_) => return refuse(400, "bad Content-Length"),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return refuse(501, "chunked bodies are not supported");
        }
    }
    if content_length > MAX_BODY {
        return refuse(413, "request body too large");
    }
    let total = head_len + 4 + content_length;
    let Some(content) = buf.get(head_len + 4..total) else {
        return HttpDecoded::Incomplete;
    };

    let (path, rawquery) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let (body, one) = match (method, path) {
        ("GET", "/query") => {
            let (mut s, mut t) = (None, None);
            for kv in rawquery.split('&') {
                match kv.split_once('=') {
                    Some(("s", v)) => s = v.parse::<VertexId>().ok(),
                    Some(("t", v)) => t = v.parse::<VertexId>().ok(),
                    _ => {}
                }
            }
            match (s, t) {
                (Some(s), Some(t)) => (RequestBody::Query(vec![(s, t)]), Some((s, t))),
                _ => return refuse(400, "need numeric query parameters s and t"),
            }
        }
        ("POST", "/query_many") => match parse_tuples(content, "pairs", "a pair", ["s", "t"]) {
            Ok(pairs) if pairs.is_empty() => return refuse(400, "pair list is empty"),
            Ok(pairs) => (RequestBody::Query(pairs.iter().map(|&[s, t]| (s, t)).collect()), None),
            Err(msg) => return refuse(400, &msg),
        },
        ("POST", "/update") => match parse_tuples(content, "edges", "an edge", ["s", "t", "w"]) {
            Ok(edges) if edges.is_empty() => return refuse(400, "edge list is empty"),
            Ok(edges) => {
                (RequestBody::Update(edges.iter().map(|&[s, t, w]| (s, t, w)).collect()), None)
            }
            Err(msg) => return refuse(400, &msg),
        },
        ("GET", "/stats") => (RequestBody::Info, None),
        ("GET" | "POST", _) => return refuse(404, "unknown endpoint"),
        _ => return refuse(405, "method not allowed"),
    };
    if let Err(msg) = body.within(max_batch) {
        return refuse(400, &msg);
    }
    HttpDecoded::Request { body, reply: Reply::Http { close, one }, used: total }
}

/// Byte offset of the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let horizon = buf.len().min(MAX_HEAD + 4);
    buf.get(..horizon)?.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse a JSON list of `N`-number tuples without a JSON library: bare
/// (`[[s,t],...]`) or under `key` (`{"pairs":[[s,t],...]}`). `item`
/// names one tuple in errors ("a pair") and `fields` its members. After
/// the list only whitespace may follow, and after the keyed form one
/// closing `}`; anything else is rejected.
fn parse_tuples<const N: usize>(
    body: &[u8],
    key: &str,
    item: &str,
    fields: [&str; N],
) -> Result<Vec<[u32; N]>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let quoted = format!("\"{key}\"");
    let keyed = text.find(&quoted).map(|at| text.get(at + quoted.len()..).unwrap_or_default());
    let mut rest = match keyed {
        Some(after_key) => eat(after_key, ':', || format!(": after {quoted}"))?,
        None => text,
    };
    rest = eat(rest, '[', || format!("a JSON array of {key}"))?;
    let mut tuples = Vec::new();
    // `[]` is valid JSON, refused later as a zero-item batch.
    let mut end = rest.strip_prefix(']');
    while end.is_none() {
        rest = eat(rest, '[', || format!("[{}]", fields.join(",")))?;
        let mut tuple = [0; N];
        for (i, (slot, name)) in tuple.iter_mut().zip(fields).enumerate() {
            let (v, r) = take_number(rest)?;
            *slot = v;
            rest = match fields.get(i + 1) {
                Some(next) => eat(r, ',', || format!(", between {name} and {next}"))?,
                None => eat(r, ']', || format!("] after {name}"))?,
            };
        }
        tuples.push(tuple);
        end = rest.strip_prefix(']');
        if end.is_none() {
            rest = eat(rest, ',', || format!(", or ] after {item}"))?;
        }
    }
    rest = end.unwrap_or_default();
    if keyed.is_some() {
        rest = eat(rest, '}', || "} after the list".into())?;
    }
    match rest.trim_start() {
        "" => Ok(tuples),
        _ => Err("unexpected bytes after the JSON body".into()),
    }
}

/// `rest` past `c` and the whitespace on both sides of it; without `c`
/// the error `expected <what>`.
fn eat(rest: &str, c: char, what: impl FnOnce() -> String) -> Result<&str, String> {
    let eaten = rest.trim_start().strip_prefix(c).map(str::trim_start);
    eaten.ok_or_else(|| format!("expected {}", what()))
}

fn take_number(text: &str) -> Result<(u32, &str), &'static str> {
    let digits = text.len() - text.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return Err("expected a vertex id");
    }
    let (num, rest) = text.split_at_checked(digits).ok_or("expected a vertex id")?;
    let v = num.parse::<u32>().map_err(|_| "vertex id out of range")?;
    Ok((v, rest))
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// A complete response with a JSON body.
fn response(code: u16, body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        status_text(code),
        body.len(),
    )
    .into_bytes()
}

/// An error response. It always closes: the connection state after a
/// refused request is not worth resynchronizing.
fn error_response(code: u16, msg: &str) -> Vec<u8> {
    response(code, &format!("{{\"error\":{}}}", json_string(msg)), true)
}

/// The HTTP arm of [`Reply::encode`]: `body` as a JSON response, and
/// whether the connection closes after it. Distances are `one`'s
/// `{"s":S,"t":T,"dist":D}` for `GET /query`, else a `{"dists":[...]}`
/// list in input order. The info reply is every field under its
/// declared name, in declaration order — the names `admin info` prints
/// — with a code shown by name as a string. An error is a `400` that
/// closes.
pub(crate) fn render(
    body: &ResponseBody,
    one: Option<(VertexId, VertexId)>,
    close: bool,
) -> (Vec<u8>, bool) {
    let json = match body {
        ResponseBody::Error(msg) => return (error_response(400, msg), true),
        ResponseBody::Distances(dists) => match (one, dists.as_slice()) {
            (Some((s, t)), &[d]) => format!("{{\"s\":{s},\"t\":{t},\"dist\":{}}}", json_dist(d)),
            _ => {
                let list: Vec<String> = dists.iter().map(|&d| json_dist(d)).collect();
                format!("{{\"dists\":[{}]}}", list.join(","))
            }
        },
        ResponseBody::Updated { generation, overlay_edges } => {
            format!("{{\"generation\":{generation},\"overlay_edges\":{overlay_edges}}}")
        }
        ResponseBody::Swapped { generation, vertices }
        | ResponseBody::Compacted { generation, vertices } => {
            format!("{{\"generation\":{generation},\"vertices\":{vertices}}}")
        }
        ResponseBody::Info(info) => {
            let members: Vec<String> = info
                .fields()
                .map(|(name, value)| match value {
                    FieldValue::Name(text) => format!("\"{name}\":\"{text}\""),
                    other => format!("\"{name}\":{other}"),
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
        ResponseBody::Bye => "{}".to_string(),
    };
    (response(200, &json, close), close)
}

fn json_dist(d: Dist) -> String {
    if d == INF_DIST {
        "null".to_string()
    } else {
        d.to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DEFAULT_MAX_BATCH;

    fn parse_ok(raw: &[u8]) -> (RequestBody, Reply, usize) {
        match decode_http(raw, DEFAULT_MAX_BATCH) {
            HttpDecoded::Request { body, reply, used } => (body, reply, used),
            other => panic!("want Request, got {other:?}"),
        }
    }

    fn refusal(raw: &[u8], max_batch: usize) -> String {
        match decode_http(raw, max_batch) {
            HttpDecoded::Error(resp) => String::from_utf8(resp).unwrap(),
            other => panic!("{:?}: want Error, got {other:?}", String::from_utf8_lossy(raw)),
        }
    }

    #[test]
    fn get_query_parses_and_is_incremental() {
        let raw = b"GET /query?s=3&t=9 HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 1..raw.len() {
            let decoded = decode_http(&raw[..cut], DEFAULT_MAX_BATCH);
            assert!(matches!(decoded, HttpDecoded::Incomplete), "cut at {cut}");
        }
        let (body, reply, used) = parse_ok(raw);
        assert_eq!(body, RequestBody::Query(vec![(3, 9)]));
        // HTTP/1.1 defaults to keep-alive.
        assert_eq!(reply, Reply::Http { close: false, one: Some((3, 9)) });
        assert_eq!(used, raw.len());

        let (body, reply, _) = parse_ok(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!((body, reply), (RequestBody::Info, Reply::Http { close: true, one: None }));
    }

    #[test]
    fn post_query_many_parses_wrapped_and_bare_lists() {
        for body in ["{\"pairs\":[[0,1],[5,5], [7,42]]}", "[[0,1],[5,5],[7,42]]"] {
            let raw = format!(
                "POST /query_many HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let (req, reply, used) = parse_ok(raw.as_bytes());
            assert_eq!(req, RequestBody::Query(vec![(0, 1), (5, 5), (7, 42)]), "{body}");
            assert_eq!(reply, Reply::Http { close: false, one: None });
            assert_eq!(used, raw.len());
            // The list is held to the caller's limit, in HOPQ's words.
            let refused = refusal(raw.as_bytes(), 2);
            assert!(refused.starts_with("HTTP/1.1 400 "), "{refused}");
            assert!(refused.ends_with("{\"error\":\"query batch of 3 pairs exceeds limit 2\"}"));
            assert!(matches!(decode_http(raw.as_bytes(), 3), HttpDecoded::Request { .. }));
        }
        // Body split across reads: incomplete until the last byte.
        let body = "{\"pairs\":[[1,2]]}";
        let raw =
            format!("POST /query_many HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        let cut = &raw.as_bytes()[..raw.len() - 1];
        assert!(matches!(decode_http(cut, DEFAULT_MAX_BATCH), HttpDecoded::Incomplete));
    }

    #[test]
    fn post_update_parses_wrapped_and_bare_lists() {
        for body in ["{\"edges\":[[0,1,5],[5,5,1], [7,42,3]]}", "[[0,1,5],[5,5,1],[7,42,3]]"] {
            let raw =
                format!("POST /update HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            let (req, _, used) = parse_ok(raw.as_bytes());
            assert_eq!(req, RequestBody::Update(vec![(0, 1, 5), (5, 5, 1), (7, 42, 3)]), "{body}");
            assert_eq!(used, raw.len());
            let refused = refusal(raw.as_bytes(), 2);
            assert!(refused.ends_with("{\"error\":\"update batch of 3 edges exceeds limit 2\"}"));
        }
        // A pair where a weighted triple is required is refused.
        refusal(b"POST /update HTTP/1.1\r\nContent-Length: 7\r\n\r\n[[1,2]]", DEFAULT_MAX_BATCH);
        refusal(b"POST /update HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]", DEFAULT_MAX_BATCH);

        let body = ResponseBody::Updated { generation: 3, overlay_edges: 17 };
        let (ack, _) = render(&body, None, false);
        let ack = String::from_utf8(ack).unwrap();
        assert!(ack.ends_with("\r\n\r\n{\"generation\":3,\"overlay_edges\":17}"), "{ack}");
    }

    /// One reader serves both bodies, so both refuse what follows the
    /// list: only whitespace after a bare one, only `}` (and whitespace)
    /// after the keyed one.
    #[test]
    fn json_lists_with_trailing_bytes_are_refused() {
        let post = |path: &str, body: &str| {
            format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        };
        for (path, list) in [("/query_many", "[[1,2]]"), ("/update", "[[1,2,3]]")] {
            let key = if path == "/update" { "edges" } else { "pairs" };
            for body in [format!("{list} \r\n"), format!(" {{\"{key}\": {list} }}\n")] {
                parse_ok(post(path, &body).as_bytes());
            }
            for (body, error) in [
                (format!("{list}xyz"), "unexpected bytes after the JSON body"),
                (format!("{list}]"), "unexpected bytes after the JSON body"),
                (format!("{{\"{key}\":{list}"), "expected } after the list"),
                (format!("{{\"{key}\":{list},\"x\":1}}"), "expected } after the list"),
                (format!("{{\"{key}\":{list}}}}}"), "unexpected bytes after the JSON body"),
                (format!("{{\"{key}\":[]}} x"), "unexpected bytes after the JSON body"),
            ] {
                let refused = refusal(post(path, &body).as_bytes(), DEFAULT_MAX_BATCH);
                assert!(refused.starts_with("HTTP/1.1 400 "), "{body}: {refused}");
                assert!(refused.ends_with(&format!("{{\"error\":\"{error}\"}}")), "{refused}");
            }
        }
    }

    /// The words of every refusal of a malformed list, per endpoint.
    #[test]
    fn json_list_errors_name_the_endpoint_shape() {
        let cases = [
            ("/query_many", "{\"pairs\" [[1,2]]}", "expected : after \\\"pairs\\\""),
            ("/query_many", "{\"pairs\":{}}", "expected a JSON array of pairs"),
            ("/query_many", "[1,2]", "expected [s,t]"),
            ("/query_many", "[[1 2]]", "expected , between s and t"),
            ("/query_many", "[[1,2,3]]", "expected ] after t"),
            ("/query_many", "[[1,2] [3,4]]", "expected , or ] after a pair"),
            ("/query_many", "[[x,2]]", "expected a vertex id"),
            ("/query_many", "[[1,99999999999]]", "vertex id out of range"),
            ("/update", "{\"edges\" [[1,2,3]]}", "expected : after \\\"edges\\\""),
            ("/update", "{\"edges\":{}}", "expected a JSON array of edges"),
            ("/update", "[1,2,3]", "expected [s,t,w]"),
            ("/update", "[[1,2 3]]", "expected , between t and w"),
            ("/update", "[[1,2,3,4]]", "expected ] after w"),
            ("/update", "[[1,2,3] [4,5,6]]", "expected , or ] after an edge"),
        ];
        for (path, body, error) in cases {
            let raw =
                format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            let refused = refusal(raw.as_bytes(), DEFAULT_MAX_BATCH);
            assert!(refused.ends_with(&format!("{{\"error\":\"{error}\"}}")), "{body}: {refused}");
        }
    }

    #[test]
    fn errors_are_rendered_not_panicked() {
        let cases: &[&[u8]] = &[
            b"GET /nope HTTP/1.1\r\n\r\n",
            b"GET /query?s=x&t=2 HTTP/1.1\r\n\r\n",
            b"DELETE /query HTTP/1.1\r\n\r\n",
            b"GET /query HTTP/9.9\r\n\r\n",
            b"POST /query_many HTTP/1.1\r\nContent-Length: 7\r\n\r\nnot json",
            b"POST /query_many HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]",
            b"POST /query_many HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ];
        for raw in cases {
            let text = refusal(raw, DEFAULT_MAX_BATCH);
            assert!(text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5"));
            assert!(text.contains("Connection: close\r\n"), "{text}");
            assert!(text.contains("\"error\""), "{text}");
        }
    }

    #[test]
    fn renderers_emit_valid_bodies() {
        let text = |body: &ResponseBody, one, close| {
            let (bytes, closes) = render(body, one, close);
            (String::from_utf8(bytes).unwrap(), closes)
        };
        let (one, close) = text(&ResponseBody::Distances(vec![7]), Some((1, 2)), false);
        assert!(one.ends_with("{\"s\":1,\"t\":2,\"dist\":7}") && !close, "{one}");
        let unreachable = ResponseBody::Distances(vec![INF_DIST]);
        let (unreachable, _) = text(&unreachable, Some((1, 2)), false);
        assert!(unreachable.ends_with("\"dist\":null}"), "{unreachable}");
        let (many, close) = text(&ResponseBody::Distances(vec![0, INF_DIST, 3]), None, true);
        assert!(many.ends_with("{\"dists\":[0,null,3]}") && close, "{many}");
        assert!(many.contains("Connection: close"), "{many}");
        // An error is a 400 that closes, whatever the request asked.
        let (error, close) = text(&ResponseBody::Error("no \"way\"".into()), None, false);
        assert!(error.starts_with("HTTP/1.1 400 Bad Request\r\n") && close, "{error}");
        assert!(error.ends_with("{\"error\":\"no \\\"way\\\"\"}"), "{error}");
        // The bodies no HTTP request asks for still render.
        let swapped = ResponseBody::Swapped { generation: 2, vertices: 9 };
        assert!(text(&swapped, None, false).0.ends_with("{\"generation\":2,\"vertices\":9}"));
        assert!(text(&ResponseBody::Bye, None, false).0.ends_with("\r\n\r\n{}"));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn protocol_detection() {
        assert!(looks_like_http(b"GET /query"));
        assert!(looks_like_http(b"POST /query_many"));
        assert!(!looks_like_http(b"HOPQ...."));
        assert!(!looks_like_http(b"GE")); // too short to tell
    }
}
