//! A deliberately minimal HTTP/1.1 reader/writer over `std::net`.
//!
//! The service speaks exactly the subset its clients need: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies, and a close-delimited streaming mode for `/batch`. Limits are
//! enforced while reading (header block ≤ 16 KiB, body ≤ 4 MiB) so a
//! misbehaving peer costs a bounded amount of memory.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum accepted header block, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body, in bytes.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request head plus its body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), upper-cased by the client.
    pub method: String,
    /// Request target path with any `?query` stripped.
    pub path: String,
    /// Raw query string (text after `?`, without the `?`), if any.
    pub query: Option<String>,
    /// Header name/value pairs; names lower-cased during parsing.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The first value of a `key=value` query parameter, if present.
    /// (No percent-decoding: this service's parameters are plain tokens.)
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// The body decoded as UTF-8.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::bad("body is not valid UTF-8"))
    }
}

/// A malformed or over-limit request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Suggested response status (400 or 413).
    pub status: u16,
    /// Human-readable description.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> Self {
        HttpError { status: 400, message: message.into() }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// Bytes asked of the stream per `read` while the head is incomplete.
const READ_CHUNK: usize = 4096;

/// Reads one request from the stream.
///
/// The head is read in chunks until its blank line; bytes read past it
/// are the start of the body. I/O failures surface as `Err(Err(io))`;
/// protocol violations as `Err(Ok(HttpError))` so the caller can still
/// answer with a status code (400, 413 or 431).
pub fn read_request<R: Read>(
    stream: &mut R,
) -> Result<HttpRequest, Result<HttpError, std::io::Error>> {
    let mut buf = Vec::with_capacity(READ_CHUNK);
    let mut searched = 0;
    let head_len = loop {
        // A head may end at byte MAX_HEAD at the latest.
        let window = &buf[..buf.len().min(MAX_HEAD)];
        if let Some(at) = window[searched..].windows(4).position(|w| w == b"\r\n\r\n") {
            break searched + at + 4;
        }
        if buf.len() > MAX_HEAD {
            return Err(Ok(HttpError { status: 431, message: "header block too large".into() }));
        }
        // The terminator may straddle the next read.
        searched = window.len().saturating_sub(3);
        let filled = buf.len();
        buf.resize(filled + READ_CHUNK, 0);
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(Ok(HttpError::bad("connection closed mid-request"))),
            Ok(n) => buf.truncate(filled + n),
            Err(e) => return Err(Err(e)),
        }
    };
    let head = &buf[..head_len];
    let head_text = std::str::from_utf8(head).map_err(|_| Ok(HttpError::bad("non-UTF-8 head")))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(Ok(HttpError::bad("malformed request line")));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_owned(), Some(query.to_owned())),
        None => (target.to_owned(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Ok(HttpError::bad("malformed header line")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| Ok(HttpError::bad("bad content-length")))?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(Ok(HttpError { status: 413, message: "request body too large".into() }));
    }
    // Bytes read past the head start the body; any past the body are
    // ignored, as one request is served per connection.
    let mut body = buf.split_off(head_len);
    body.truncate(content_length);
    let received = body.len();
    body.resize(content_length, 0);
    stream.read_exact(&mut body[received..]).map_err(Err)?;
    Ok(HttpRequest { method, path, query, headers, body })
}

/// Reads one request from a socket within `limit` of the call, however
/// slowly the peer sends it: the first read waits up to `limit`, each later
/// read only for the time left, and once that has passed the request fails
/// with [`std::io::ErrorKind::TimedOut`]. A request that arrives in one
/// segment costs one timeout syscall, as a per-read timeout would.
pub fn read_request_within(
    stream: &mut TcpStream,
    limit: Duration,
) -> Result<HttpRequest, Result<HttpError, std::io::Error>> {
    stream.set_read_timeout(Some(limit)).map_err(Err)?;
    read_request(&mut Deadline { stream, deadline: Instant::now() + limit, first: true })
}

/// A socket whose reads after the first share one deadline.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
    first: bool,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timed_out = || std::io::Error::new(std::io::ErrorKind::TimedOut, "request deadline");
        if !std::mem::take(&mut self.first) {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(timed_out());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        match self.stream.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(timed_out()),
            read => read,
        }
    }
}

/// Standard reason phrase for the statuses this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Renders a complete response — head and `Content-Length` body — to bytes
/// ready for a single write. The result cache pre-renders hit responses
/// with this at insert time, so a cache hit is one memcpy and one
/// `write_all` with zero per-request formatting.
#[must_use]
pub fn render_response(
    status: u16,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> Vec<u8> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    response.into_bytes()
}

/// Writes a complete response with a `Content-Length` body and closes the
/// exchange (`Connection: close`). Head and body go out in a single
/// `write_all`, so small responses cost one syscall.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    stream.write_all(&render_response(status, extra_headers, content_type, body))?;
    stream.flush()
}

/// Writes a streaming response head with no `Content-Length`: the body is
/// delimited by connection close (used by `/batch` to stream one JSON line
/// per completed cell).
pub fn write_stream_head(
    stream: &mut TcpStream,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head =
        format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n");
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trickling_peer_times_out_at_the_request_deadline() {
        // One byte every 50 ms never lets a per-read timeout fire, but the
        // whole request must fail within about one read past 300 ms.
        let (interval, limit) = (Duration::from_millis(50), Duration::from_millis(300));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let writer = std::thread::spawn(move || {
            let mut peer = TcpStream::connect(addr).expect("connect loopback");
            for &byte in b"GET /health HTTP/1.1\r\nHost: a-slow-peer\r\n\r\n" {
                if peer.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(interval);
            }
        });
        let (mut stream, _) = listener.accept().expect("accept loopback");
        let started = Instant::now();
        let result = read_request_within(&mut stream, limit);
        let elapsed = started.elapsed();
        match result {
            Err(Err(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut, "{e}"),
            other => panic!("a trickled request must time out, got {other:?}"),
        }
        assert!(elapsed >= limit, "failed before the deadline: {elapsed:?}");
        assert!(elapsed < limit + 3 * interval, "failed {elapsed:?} after the read began");
        drop(stream);
        writer.join().expect("writer thread");
    }
}
