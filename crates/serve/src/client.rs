//! A tiny std-only HTTP client for nvpim-serve.
//!
//! Used by the integration suite and `repro serve-smoke`, so exercising the
//! service never requires external tooling. It speaks the same
//! one-request-per-connection subset the server does and understands both
//! `Content-Length` bodies and close-delimited streams (`/batch`).
//!
//! Failures surface as a typed [`ClientError`] that distinguishes *refused*
//! (the server is down) from *timed out* (the server is slow or wedged)
//! from *malformed* (the server answered garbage — a protocol bug). Plain
//! callers can keep treating errors as strings via the
//! `From<ClientError> for String` impl.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use nvpim_obs::Json;

/// Why a client call failed, by operational category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server actively refused the connection (nothing is listening,
    /// or the host rejected it).
    Refused(String),
    /// The connect or read deadline expired. The server may be up but
    /// slow, wedged, or partitioned away.
    TimedOut(String),
    /// The server answered, but with bytes this client cannot parse as an
    /// HTTP response. A protocol bug, not a liveness problem.
    Malformed(String),
    /// Any other I/O failure (reset mid-stream, route errors, ...).
    Io(String),
}

impl ClientError {
    /// Stable lowercase token (`refused` / `timed_out` / `malformed` /
    /// `io`) for metrics labels and error reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ClientError::Refused(_) => "refused",
            ClientError::TimedOut(_) => "timed_out",
            ClientError::Malformed(_) => "malformed",
            ClientError::Io(_) => "io",
        }
    }

    fn from_io(e: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::ConnectionRefused => ClientError::Refused(e.to_string()),
            ErrorKind::TimedOut | ErrorKind::WouldBlock => ClientError::TimedOut(e.to_string()),
            _ => ClientError::Io(e.to_string()),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Refused(m) => write!(f, "connection refused: {m}"),
            ClientError::TimedOut(m) => write!(f, "timed out: {m}"),
            ClientError::Malformed(m) => write!(f, "malformed reply: {m}"),
            ClientError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for String {
    fn from(e: ClientError) -> String {
        e.to_string()
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// The first header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// Fails when the body is not valid JSON.
    pub fn json(&self) -> Result<Json, String> {
        nvpim_obs::json::parse(&self.text()).map_err(|e| e.to_string())
    }

    /// The body split into parsed NDJSON lines (for `/batch` streams).
    ///
    /// # Errors
    ///
    /// Fails when any non-empty line is not valid JSON.
    pub fn json_lines(&self) -> Result<Vec<Json>, String> {
        self.text()
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| nvpim_obs::json::parse(line).map_err(|e| e.to_string()))
            .collect()
    }
}

/// Connect deadline for every call.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// A client for the server at `addr` with a 5 s connect and 60 s I/O
    /// timeout — generous defaults for interactive callers.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, timeout: Duration::from_secs(60) }
    }

    /// Overrides the per-connection read/write timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Issues `GET path`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ClientError`] for connection and protocol failures.
    pub fn get(&self, path: &str) -> Result<HttpReply, ClientError> {
        self.send("GET", path, None, &[])
    }

    /// Issues `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ClientError`] for connection and protocol failures.
    pub fn post_json(&self, path: &str, body: &str) -> Result<HttpReply, ClientError> {
        self.send("POST", path, Some(body), &[])
    }

    /// Issues `POST path` with a JSON body and extra request headers (e.g.
    /// `X-Trace-Id` to join the request to a caller-owned trace).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ClientError`] for connection and protocol failures.
    pub fn post_json_with_headers(
        &self,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> Result<HttpReply, ClientError> {
        self.send("POST", path, Some(body), headers)
    }

    fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> Result<HttpReply, ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .map_err(|e| ClientError::from_io(&e))?;
        stream.set_read_timeout(Some(self.timeout)).map_err(|e| ClientError::from_io(&e))?;
        stream.set_write_timeout(Some(self.timeout)).map_err(|e| ClientError::from_io(&e))?;
        let body = body.unwrap_or("");
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n",
            self.addr,
            body.len(),
        );
        for (name, value) in extra_headers {
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        stream.write_all(request.as_bytes()).map_err(|e| ClientError::from_io(&e))?;
        stream.flush().map_err(|e| ClientError::from_io(&e))?;
        read_reply(&mut stream)
    }
}

fn read_reply(stream: &mut TcpStream) -> Result<HttpReply, ClientError> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| ClientError::from_io(&e))?;
    let head_end = find_head_end(&raw)
        .ok_or_else(|| ClientError::Malformed("response head never terminated".into()))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| ClientError::Malformed("non-UTF-8 response head".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut tokens = status_line.split_whitespace();
    if !tokens.next().unwrap_or_default().starts_with("HTTP/") {
        return Err(ClientError::Malformed(format!("reply is not HTTP: {status_line}")));
    }
    let status = tokens
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Malformed(format!("malformed status line: {status_line}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let mut body = raw[head_end + 4..].to_vec();
    // Trust Content-Length when present (the server always sends it for
    // non-streaming responses); close-delimited bodies arrive whole via
    // read_to_end.
    if let Some(len) = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        body.truncate(len);
    }
    Ok(HttpReply { status, headers, body })
}

fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Binds an ephemeral port, learns its address, and drops the listener
    /// so nothing answers there.
    fn dead_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
    }

    #[test]
    fn refused_connections_are_typed_refused() {
        let client = Client::new(dead_addr());
        let err = client.get("/health").expect_err("nothing listens there");
        assert_eq!(err.kind(), "refused", "{err}");
    }

    #[test]
    fn a_silent_peer_times_out_rather_than_hanging() {
        // A listener that accepts but never answers: the read deadline must
        // fire and classify as TimedOut.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let client = Client::new(addr).with_timeout(Duration::from_millis(50));
        let err = client.get("/health").expect_err("peer never answers");
        assert_eq!(err.kind(), "timed_out", "{err}");
        drop(hold.join());
    }

    #[test]
    fn garbage_replies_are_typed_malformed() {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Drain the request so the close is not an RST, then answer
            // bytes that are not HTTP.
            let mut scratch = [0u8; 1024];
            let _ = std::io::Read::read(&mut s, &mut scratch);
            let _ = s.write_all(b"SMTP 220 ready\r\n\r\n");
        });
        let client = Client::new(addr).with_timeout(Duration::from_secs(2));
        let err = client.get("/").expect_err("reply is not HTTP");
        assert_eq!(err.kind(), "malformed", "{err}");
        server.join().unwrap();
    }

    #[test]
    fn client_errors_convert_to_strings_for_legacy_callers() {
        let err = ClientError::Refused("no route".into());
        let s: String = err.into();
        assert!(s.contains("refused"));
    }
}
