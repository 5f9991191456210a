//! `qsc-http` — the workspace's one HTTP/1.1 module, on `std` only: the
//! sweep service (`qsc-serve`), its client (`qsc_bench::client`) and
//! `qsc_sim::RemoteBackend` all frame their messages here.
//!
//! One request per connection: every message carries `Connection: close`,
//! which keeps the protocol surface tiny and the end of a streamed body
//! unambiguous. Untrusted bytes are parsed as bytes, with a bounded head
//! and checked arithmetic, and converted to UTF-8 last, so no input makes
//! a parser panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest accepted request body (spec documents are kilobytes; anything
/// near this is abuse, not a spec).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Largest accepted request-head line, terminator included.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most header fields accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The path without the query string (`/v1/sweeps/job-1`).
    pub path: String,
    /// Query `(key, value)` pairs, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed — already shaped as a response.
#[derive(Debug)]
pub struct BadRequest {
    /// HTTP status to answer with (400, 413 or 431).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

fn bad(status: u16, message: impl Into<String>) -> BadRequest {
    BadRequest {
        status,
        message: message.into(),
    }
}

/// A failed read is answered ([`BadRequest`]) or drops the connection.
enum ReadFailure {
    Bad(BadRequest),
    Io(io::Error),
}

impl From<BadRequest> for ReadFailure {
    fn from(b: BadRequest) -> Self {
        ReadFailure::Bad(b)
    }
}

impl From<io::Error> for ReadFailure {
    fn from(e: io::Error) -> Self {
        ReadFailure::Io(e)
    }
}

/// Reads one request.
///
/// # Errors
///
/// Returns `Ok(Err(BadRequest))` for malformed or oversized requests (the
/// caller answers with the contained status) and `Err` for transport
/// failures (the caller drops the connection).
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Result<Request, BadRequest>> {
    match parse_request(reader) {
        Ok(request) => Ok(Ok(request)),
        Err(ReadFailure::Bad(b)) => Ok(Err(b)),
        Err(ReadFailure::Io(e)) => Err(e),
    }
}

/// One head line without its `\r\n` / `\n` terminator; `None` at end of
/// input before any byte.
fn head_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, ReadFailure> {
    let mut line = Vec::new();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(bad(
            431,
            format!("request head line exceeds {MAX_LINE_BYTES} bytes"),
        )
        .into());
    }
    if line.pop() != Some(b'\n') {
        return Err(bad(400, "truncated request head").into());
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| bad(400, "request head is not UTF-8").into())
}

fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, ReadFailure> {
    let line = head_line(reader)?.ok_or_else(|| bad(400, "empty request"))?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(bad(400, format!("malformed request line `{}`", line.trim())).into());
    };
    let method = method.to_string();
    let (path, query_text) = target.split_once('?').unwrap_or((target, ""));
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k.to_string(), v.to_string())
        })
        .collect();

    // Headers: only Content-Length matters to the service.
    let mut content_length = 0usize;
    let mut fields = 0usize;
    loop {
        let header = head_line(reader)?.ok_or_else(|| bad(400, "truncated headers"))?;
        if header.is_empty() {
            break;
        }
        fields += 1;
        if fields > MAX_HEADERS {
            return Err(bad(431, format!("more than {MAX_HEADERS} header fields")).into());
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(400, "unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        )
        .into());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Response",
    }
}

/// Writes a complete fixed-length response, head and body in one write.
/// `extra_headers` are raw `Name: value` lines (no CRLF).
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &str,
) -> io::Result<()> {
    let mut message = String::with_capacity(128 + body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for header in extra_headers {
        message.push_str(header);
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    w.write_all(message.as_bytes())
}

/// Starts a chunked response; follow with [`write_chunk`] and
/// [`finish_chunks`].
pub fn start_chunked<W: Write>(w: &mut W, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(status)
    );
    w.write_all(head.as_bytes())
}

/// Writes one chunk in one write (empty data is skipped — a zero-length
/// chunk would terminate the body).
pub fn write_chunk<W: Write>(w: &mut W, data: &str) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    w.write_all(format!("{:x}\r\n{data}\r\n", data.len()).as_bytes())?;
    w.flush()
}

/// Terminates a chunked body.
pub fn finish_chunks<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code (200, 400, 429, …).
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The decoded body.
    pub body: String,
}

impl Response {
    /// A header value, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a client call produced no [`Response`].
#[derive(Debug)]
pub enum Error {
    /// Address resolution, connect, write or read failed.
    Io(io::Error),
    /// The peer's bytes are not a well-formed response.
    Protocol(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "connection: {e}"),
            Error::Protocol(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

fn protocol(message: impl Into<String>) -> Error {
    Error::Protocol(message.into())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parses a complete response (everything up to connection close).
///
/// # Errors
///
/// Returns [`Error::Protocol`] for any malformed or truncated response.
pub fn parse_response(raw: &[u8]) -> Result<Response, Error> {
    let head_end =
        find(raw, b"\r\n\r\n").ok_or_else(|| protocol("truncated response (no header end)"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| protocol("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol(format!("bad status line `{status_line}`")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            let (k, v) = line.split_once(':')?;
            Some((k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();

    let payload = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let content_length = headers.iter().find(|(k, _)| k == "content-length");
    let body = if chunked {
        decode_chunked(payload)?
    } else if let Some((_, value)) = content_length {
        let len: usize = value
            .parse()
            .map_err(|_| protocol(format!("unparseable Content-Length `{value}`")))?;
        payload
            .get(..len)
            .ok_or_else(|| protocol(format!("truncated body ({} of {len} bytes)", payload.len())))?
            .to_vec()
    } else {
        // Connection-close delimited.
        payload.to_vec()
    };
    let body = String::from_utf8(body).map_err(|_| protocol("response body is not UTF-8"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn decode_chunked(mut payload: &[u8]) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    loop {
        let line_end =
            find(payload, b"\r\n").ok_or_else(|| protocol("truncated chunk size line"))?;
        let size_text = String::from_utf8_lossy(&payload[..line_end]);
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| protocol(format!("bad chunk size `{size_text}`")))?;
        payload = &payload[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        let end = size
            .checked_add(2)
            .filter(|&end| end <= payload.len())
            .ok_or_else(|| protocol("truncated chunk body"))?;
        if &payload[size..end] != b"\r\n" {
            return Err(protocol("chunk data not followed by CRLF"));
        }
        out.extend_from_slice(&payload[..size]);
        payload = &payload[end..];
    }
}

fn connect(authority: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
    for addr in authority.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One HTTP/1.1 request on a fresh connection to `authority`
/// (`host:port`). A `body` is sent as `application/json`. `timeout`
/// bounds the connect and every read and write.
///
/// # Errors
///
/// Returns [`Error`] for transport failures and malformed responses; any
/// well-formed response, error statuses included, is a [`Response`].
pub fn request(
    authority: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, Error> {
    let mut stream = connect(authority, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;

    let mut message =
        format!("{method} {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n");
    if let Some(body) = body {
        let _ = write!(
            message,
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
    } else {
        message.push_str("\r\n");
    }
    stream.write_all(message.as_bytes())?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &[u8]) -> Result<Request, BadRequest> {
        read_request(&mut &raw[..]).expect("in-memory reads never fail")
    }

    fn status_of(raw: &[u8]) -> u16 {
        read(raw).expect_err("request must be rejected").status
    }

    #[test]
    fn reads_path_query_pairs_and_body() {
        let r = read(
            b"POST /v1/sweeps?scale=quick&flag&format=csv HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/sweeps");
        assert_eq!(
            r.query,
            [("scale", "quick"), ("flag", ""), ("format", "csv")]
                .map(|(k, v)| (k.to_string(), v.to_string()))
        );
        assert_eq!(r.query_param("format"), Some("csv"));
        assert_eq!(r.query_param("missing"), None);
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn request_without_content_length_has_an_empty_body() {
        let r = read(b"GET /v1/healthz HTTP/1.1\nHost: h\n\ntrailing bytes").unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("GET", "/v1/healthz"));
        assert!(r.query.is_empty());
        assert!(r.body.is_empty());
    }

    #[test]
    fn malformed_requests_answer_400() {
        assert_eq!(
            status_of(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            400
        );
        assert_eq!(status_of(b""), 400);
        assert_eq!(status_of(b"\r\n\r\n"), 400);
        // Truncated heads: mid request line, mid headers, before the blank line.
        assert_eq!(status_of(b"GET / HTTP/1.1"), 400);
        assert_eq!(status_of(b"GET / HTTP/1.1\r\nHost: h"), 400);
        assert_eq!(status_of(b"GET / HTTP/1.1\r\nHost: h\r\n"), 400);
        assert_eq!(status_of(b"GET /\xff HTTP/1.1\r\n\r\n"), 400);
    }

    #[test]
    fn body_over_the_limit_answers_413() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(status_of(raw.as_bytes()), 413);
    }

    #[test]
    fn short_body_is_a_transport_failure() {
        let raw: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_request(&mut &raw[..]).is_err());
    }

    #[test]
    fn oversized_head_line_answers_431() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert_eq!(status_of(long_target.as_bytes()), 431);
        let long_header = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "b".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(status_of(long_header.as_bytes()), 431);
        // A line of exactly the limit (terminator included) is accepted.
        let pad = MAX_LINE_BYTES - "X-Pad: \r\n".len();
        let at_limit = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "c".repeat(pad));
        assert!(read(at_limit.as_bytes()).is_ok());
    }

    #[test]
    fn too_many_headers_answer_431() {
        let head = |n: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..n {
                raw.push_str(&format!("X-{i}: v\r\n"));
            }
            raw.push_str("\r\n");
            raw
        };
        assert!(read(head(MAX_HEADERS).as_bytes()).is_ok());
        assert_eq!(status_of(head(MAX_HEADERS + 1).as_bytes()), 431);
    }

    #[test]
    fn fixed_length_response_round_trips() {
        let mut wire = Vec::new();
        respond(
            &mut wire,
            429,
            "application/json",
            &["Retry-After: 2".to_string()],
            "{\"error\":\"é\"}",
        )
        .unwrap();
        let r = parse_response(&wire).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.body, "{\"error\":\"é\"}");
        assert_eq!(r.header("Retry-After"), Some("2"));
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert!(wire.starts_with(b"HTTP/1.1 429 Too Many Requests\r\n"));
    }

    #[test]
    fn chunked_response_round_trips_and_skips_empty_chunks() {
        let mut wire = Vec::new();
        start_chunked(&mut wire, 200, "text/csv").unwrap();
        for data in ["a,b\n", "", "1,2\n", "3,4\n"] {
            write_chunk(&mut wire, data).unwrap();
        }
        finish_chunks(&mut wire).unwrap();
        let r = parse_response(&wire).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("transfer-encoding"), Some("chunked"));
        assert_eq!(r.body, "a,b\n1,2\n3,4\n");
        // The empty chunk wrote nothing: exactly three data chunks precede
        // the terminator.
        let text = String::from_utf8(wire).unwrap();
        assert!(text.ends_with("4\r\na,b\n\r\n4\r\n1,2\n\r\n4\r\n3,4\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn parses_content_length_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{}");
        assert_eq!(r.header("Content-Type"), Some("application/json"));
    }

    #[test]
    fn parses_chunked_response() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\na,b\r\n4\r\n\n1,2\r\n0\r\n\r\n";
        let r = parse_response(raw.as_slice()).unwrap();
        assert_eq!(r.body, "a,b\n1,2");
    }

    #[test]
    fn parses_connection_close_delimited_response() {
        let r = parse_response(b"HTTP/1.1 500 Internal Server Error\r\n\r\noops").unwrap();
        assert_eq!((r.status, r.body.as_str()), (500, "oops"));
    }

    #[test]
    fn truncated_responses_error() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
        assert!(parse_response(b"HTTP/1.1 OK\r\n\r\n").is_err());
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        for tail in [&b""[..], b"5\r\nab", b"2\r\nabX\r\n0\r\n\r\n", b"zz\r\n"] {
            let raw = [&chunked[..], tail].concat();
            assert!(
                matches!(parse_response(&raw), Err(Error::Protocol(_))),
                "{tail:?}"
            );
        }
    }

    #[test]
    fn content_length_cutting_a_utf8_character_is_an_error() {
        // `é` is two bytes; a length of 11 keeps only its first.
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"error\":\"é\"}";
        assert!(matches!(
            parse_response(raw.as_bytes()),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn maximal_chunk_size_is_an_error_not_an_overflow() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nab\r\n0\r\n\r\n";
        assert!(matches!(parse_response(raw), Err(Error::Protocol(_))));
    }
}
