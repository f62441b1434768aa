//! Minimal HTTP/1.1 framing over blocking streams — just enough protocol
//! for the query API, hand-rolled so the server stays inside the
//! workspace's no-crates.io vendoring discipline.
//!
//! Supported: request line + headers + `Content-Length` bodies, percent
//! decoding of query strings, keep-alive (the HTTP/1.1 default) and
//! `Connection: close`. A request with `Transfer-Encoding` (chunked or
//! any other coding) is refused with 501 and close, and one with two
//! differing `Content-Length` values with 400 and close (RFC 9112 §6.1,
//! §6.3): framing either by a guessed length would run the rest of its
//! body as a second, unseen request on the same connection. Deliberately
//! absent: `Expect: 100-continue`, pipelining beyond one in-flight
//! request, TLS — none of which the loopback/bench/test clients need.
//!
//! Every limit is enforced while reading, so a hostile peer cannot make
//! the server buffer unboundedly: the request head (line + headers) is
//! capped at [`MAX_HEAD_BYTES`], header count at [`MAX_HEADERS`], and the
//! body at the caller's `max_body` (413 on overflow).

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus all headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Protocol violation; maps to 400. The payload names the violation.
    Malformed(&'static str),
    /// The request uses a framing the server does not implement (any
    /// `Transfer-Encoding`); maps to 501. The payload names it.
    Unsupported(&'static str),
    /// Declared `Content-Length` exceeds the configured cap; maps to 413.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The enforced cap.
        limit: usize,
    },
    /// The peer closed or the socket failed mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::Unsupported(what) => write!(f, "not implemented: {what}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component, e.g. `/point/7`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this exchange
    /// (keep-alive is the HTTP/1.1 default).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Whether `e` is a read timeout (`WouldBlock` or `TimedOut`, by platform).
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// When a read that fails after a request's first byte is retried: an
/// interrupted read always, and a timeout until `deadline` has passed since
/// the request's first timeout, unless `stop()` is true.
struct Patience<'a> {
    deadline: Duration,
    stop: &'a dyn Fn() -> bool,
    /// When a read of this request first timed out.
    stalled: Option<Instant>,
}

impl Patience<'_> {
    fn retry(&mut self, e: &std::io::Error) -> bool {
        if e.kind() == std::io::ErrorKind::Interrupted {
            return true;
        }
        is_timeout(e)
            && !(self.stop)()
            && self.stalled.get_or_insert_with(Instant::now).elapsed() < self.deadline
    }
}

/// Reads one request off `stream`. `Ok(None)` is a clean end of the
/// connection (EOF before any request byte); a timeout surfaces as
/// `Err(Io)` with a `WouldBlock`/`TimedOut` kind for the caller's idle
/// loop to distinguish. A timeout after the first byte is a stalled
/// request ([`HttpError::Malformed`]).
///
/// # Errors
///
/// [`HttpError::Malformed`] on protocol violations (over-long head, bad
/// request line, header without `:`, invalid or conflicting
/// `Content-Length`, truncated body), [`HttpError::Unsupported`] for any
/// `Transfer-Encoding`, [`HttpError::BodyTooLarge`] past the `max_body`
/// cap, [`HttpError::Io`] on socket failure.
pub fn read_request(
    stream: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    read_request_within(stream, max_body, Duration::ZERO, &|| true)
}

/// [`read_request`] for a peer that may pause mid-request: after the
/// request's first byte, a timed-out read is retried until `deadline` has
/// passed since the request's first timeout or `stop()` returns true. A
/// timeout before the first byte still surfaces as `Err(Io)` at once.
pub(crate) fn read_request_within(
    stream: &mut impl BufRead,
    max_body: usize,
    deadline: Duration,
    stop: &dyn Fn() -> bool,
) -> Result<Option<Request>, HttpError> {
    let mut patience = Patience {
        deadline,
        stop,
        stalled: None,
    };
    let mut head_budget = MAX_HEAD_BYTES;
    let Some(request_line) = read_crlf_line(stream, &mut head_budget, &mut patience, false)? else {
        return Ok(None);
    };
    let (method, target) = parse_request_line(&request_line)?;

    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(stream, &mut head_budget, &mut patience, true)?
            .ok_or(HttpError::Malformed("connection closed inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // `Transfer-Encoding` overrides `Content-Length` (RFC 9112 §6.3), so
    // framing such a body by its length would desync the connection.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Unsupported("Transfer-Encoding"));
    }
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        // `1*DIGIT`: `usize::from_str` alone also takes a leading `+`.
        let length = match v.parse::<usize>() {
            Ok(length) if v.bytes().all(|b| b.is_ascii_digit()) => length,
            _ => return Err(HttpError::Malformed("invalid Content-Length")),
        };
        if declared.is_some_and(|d| d != length) {
            return Err(HttpError::Malformed("conflicting Content-Length headers"));
        }
        declared = Some(length);
    }
    let content_length = declared.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    // `read_exact` would lose the bytes of a read that times out partway,
    // so track the offset across retries.
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < body.len() {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Malformed("body shorter than Content-Length")),
            Ok(n) => filled += n,
            Err(e) if patience.retry(&e) => {}
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::Malformed("request stalled mid-body"))
            }
            Err(_) => return Err(HttpError::Malformed("body shorter than Content-Length")),
        }
    }

    let (path, query) = split_target(target)?;
    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one CRLF- (or bare-LF-) terminated line, charging `budget`.
/// `begun` says whether the request's first byte came before this line;
/// from that byte on, failed reads are retried as `patience` allows.
/// `Ok(None)` only at immediate EOF.
fn read_crlf_line(
    stream: &mut impl BufRead,
    budget: &mut usize,
    patience: &mut Patience<'_>,
    begun: bool,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("connection closed mid-line"));
            }
            Ok(_) => {}
            Err(e) => {
                // A timeout before the request's first byte is an idle
                // keep-alive connection; after it, a stalled request.
                if !begun && line.is_empty() {
                    return Err(HttpError::Io(e));
                }
                if patience.retry(&e) {
                    continue;
                }
                return Err(HttpError::Malformed("request stalled mid-line"));
            }
        }
        if *budget == 0 {
            return Err(HttpError::Malformed("request head too large"));
        }
        *budget -= 1;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("non-utf8 request head"));
        }
        line.push(byte[0]);
    }
}

fn parse_request_line(line: &str) -> Result<(&str, &str), HttpError> {
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(HttpError::Malformed("bad method token"))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(HttpError::Malformed("bad request target"))?;
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        _ => return Err(HttpError::Malformed("bad HTTP version")),
    }
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line"));
    }
    Ok((method, target))
}

/// Splits `/path?k=v&k2=v2` into the decoded path and parameter list.
fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    // `+` means space only in `application/x-www-form-urlencoded` query
    // pairs (RFC 1866 §8.2.1); in the path it is a literal plus (RFC 3986
    // keeps it in `sub-delims`), so `/point/+7` must reach the route table
    // with its `+` intact.
    let path = percent_decode(raw_path, false)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, query))
}

/// Percent-decodes one URI component; `plus_is_space` selects the
/// form-urlencoded convention used for query keys and values.
fn percent_decode(raw: &str, plus_is_space: bool) -> Result<String, HttpError> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Exactly two hex digits: `from_str_radix` alone also
                // takes a leading `+`.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or(HttpError::Malformed("bad percent escape"))?;
                out.push(hex);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::Malformed("non-utf8 percent escape"))
}

/// Reason phrases for the status codes the API emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response, serialized by [`Response::write_to`].
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (the `/metrics` endpoint).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Serializes the response; `close` emits `Connection: close`. Head
    /// and body go out in one `write_all` of one buffer, so on a
    /// `TCP_NODELAY` socket a response costs one syscall and one segment
    /// rather than two.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        )?;
        out.extend_from_slice(&self.body);
        stream.write_all(&out)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req =
            parse(b"GET /topk?n=5&tenant=acme+corp HTTP/1.1\r\nHost: x\r\nX-Tenant: t1\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/topk");
        assert_eq!(req.query_param("n"), Some("5"));
        assert_eq!(req.query_param("tenant"), Some("acme corp"));
        assert_eq!(req.header("x-tenant"), Some("t1"));
        assert!(!req.wants_close());
    }

    #[test]
    fn plus_is_literal_in_the_path_but_space_in_the_query() {
        let req = parse(b"GET /point/+7?tenant=acme+corp HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/point/+7");
        assert_eq!(req.query_param("tenant"), Some("acme corp"));
    }

    #[test]
    fn parses_post_body_exactly_content_length() {
        let req = parse(b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_shapes() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"GET /%zz HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn percent_escape_takes_exactly_two_hex_digits() {
        let req = parse(b"GET /point/%41?t=%7e HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            (req.path.as_str(), req.query_param("t")),
            ("/point/A", Some("~"))
        );
        for raw in [
            &b"GET /point/%+5 HTTP/1.1\r\n\r\n"[..],
            b"GET /topk?n=%+5 HTTP/1.1\r\n\r\n",
            b"GET /topk?%+5=1 HTTP/1.1\r\n\r\n",
            b"GET /point/%4 HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed("bad percent escape"))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+4", "-4", "", "4 4", "0x4", "4,4"] {
            let raw = format!("POST /ingest HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
            assert!(
                matches!(
                    parse(raw.as_bytes()),
                    Err(HttpError::Malformed("invalid Content-Length"))
                ),
                "{value:?}"
            );
        }
    }

    #[test]
    fn transfer_encoding_is_refused_as_unsupported() {
        for raw in [
            &b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..],
            b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\nabcd",
            b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\ntransfer-encoding: identity\r\n\r\nabcd",
            b"GET /epoch HTTP/1.0\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Unsupported("Transfer-Encoding"))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(
            parse(raw),
            Err(HttpError::Malformed("conflicting Content-Length headers"))
        ));
        // Repeating the same length is not a conflict.
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(parse(raw).unwrap().unwrap().body, b"abcd");
    }

    #[test]
    fn truncated_mid_head_is_malformed() {
        assert!(matches!(parse(b"GET /x HT"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_body_is_rejected_by_declared_length() {
        let raw = b"POST /ingest HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(HttpError::BodyTooLarge {
                declared: 2048,
                limit: 1024
            })
        ));
    }

    #[test]
    fn head_size_cap_is_enforced() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            raw.extend_from_slice(format!("H{i}: {}\r\n", "v".repeat(400)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse(&raw),
            Err(HttpError::Malformed("request head too large"))
        ));
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = parse(b"GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".to_string())
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    /// Records the bytes of every `write` call separately.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_written_in_one_call_with_unchanged_bytes() {
        let cases: [(Response, bool, &str); 3] = [
            (
                Response::json(200, "{\"ok\":true}".to_string()),
                false,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}",
            ),
            (
                Response::json(413, "{\"error\":\"too large\"}".to_string()),
                false,
                "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
                 Content-Length: 21\r\nConnection: keep-alive\r\n\r\n{\"error\":\"too large\"}",
            ),
            (
                Response::text(200, "dpmg_requests 3\n".to_string()),
                true,
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 16\r\nConnection: close\r\n\r\ndpmg_requests 3\n",
            ),
        ];
        for (response, close, want) in cases {
            let mut log = WriteLog::default();
            response.write_to(&mut log, close).unwrap();
            assert_eq!(log.0.len(), 1, "status {}: one write call", response.status);
            assert_eq!(
                String::from_utf8(log.0.concat()).unwrap(),
                want,
                "status {}",
                response.status
            );
        }
    }
}
