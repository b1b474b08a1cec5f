//! Hardened, dependency-free HTTP/1.1 reader/writer over std TCP.
//!
//! Scope: exactly what the merge daemon needs — request-line + headers +
//! an optional `Content-Length` body in, status + headers + a fixed or
//! chunked body out. Not a general server. The parsing rules follow the
//! same posture as `crates/wasm/tests/hardening.rs`: malformed,
//! truncated, or oversized input must produce a clean error (mapped to a
//! 4xx by the caller) with **bounded memory** — every limit below is
//! checked *before* the corresponding bytes are read or buffered, so a
//! hostile `Content-Length: 999999999999` costs nothing.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Upper bound on one header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
pub const MAX_HEADERS: usize = 64;
/// Response body chunk size when streaming chunked transfer encoding.
pub const CHUNK: usize = 16 * 1024;

/// Why a request could not be read. The discriminants map onto HTTP
/// statuses in the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Syntactically invalid or truncated request (→ 400).
    Malformed(String),
    /// Declared body larger than the server's limit (→ 413).
    TooLarge { declared: u64, limit: usize },
    /// The client closed the connection before sending a request (clean
    /// end of a keep-alive session, no response owed).
    Closed,
    /// Socket-level failure mid-request (connection is unusable).
    Io(String),
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// The request target path, query string included.
    pub target: String,
    /// Lowercased header names with their raw values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The path without the query string, and the query string (empty if
    /// absent).
    pub fn path_query(&self) -> (&str, &str) {
        match self.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (self.target.as_str(), ""),
        }
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one line (CRLF or bare LF terminated) with a byte cap. Returns
/// `Ok(None)` on clean EOF before any byte.
fn read_line(
    reader: &mut BufReader<&TcpStream>,
    cap: usize,
) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(RequestError::Malformed("truncated line".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| RequestError::Malformed("non-UTF-8 header bytes".into()));
                }
                if line.len() >= cap {
                    return Err(RequestError::Malformed("header line too long".into()));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(RequestError::Io(e.to_string())),
        }
    }
}

/// Reads one request off the stream, enforcing all limits. `max_body`
/// bounds the accepted `Content-Length`.
pub fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_body: usize,
) -> Result<Request, RequestError> {
    let Some(request_line) = read_line(reader, MAX_REQUEST_LINE)? else {
        return Err(RequestError::Closed);
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Malformed(format!("bad request line {request_line:?}")));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!("bad request line {request_line:?}")));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed(format!("bad method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(RequestError::Malformed(format!("bad target {target:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, MAX_HEADER_LINE)? else {
            return Err(RequestError::Malformed("truncated headers".into()));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::Malformed("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request =
        Request { method: method.to_owned(), target: target.to_owned(), headers, body: Vec::new() };

    if request.header("transfer-encoding").is_some() {
        // Chunked *requests* are out of scope; refusing them keeps body
        // accounting trivially bounded.
        return Err(RequestError::Malformed("transfer-encoding requests not supported".into()));
    }
    if let Some(cl) = request.header("content-length") {
        let declared: u64 = cl
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad content-length {cl:?}")))?;
        // The size check precedes any allocation or read: an oversized
        // declaration is rejected having cost only the header bytes.
        if declared > max_body as u64 {
            return Err(RequestError::TooLarge { declared, limit: max_body });
        }
        let mut body = vec![0u8; declared as usize];
        if let Err(e) = reader.read_exact(&mut body) {
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                RequestError::Malformed("body shorter than content-length".into())
            } else {
                RequestError::Io(e.to_string())
            });
        }
        request.body = body;
    }
    Ok(request)
}

/// The reason phrase for the handful of statuses the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Capacity of the response writer: a few [`CHUNK`]s, so a merged
/// module goes out in a handful of writes instead of three per chunk.
const WRITE_BUF: usize = 4 * CHUNK;

/// The status line, `Content-Type`, the framing header, the caller's
/// headers, and the blank line.
fn write_head(
    out: &mut impl Write,
    status: u16,
    headers: &[(&str, String)],
    content_type: &str,
    framing: &str,
) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n{framing}\r\n",
        reason(status)
    )?;
    for (name, value) in headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.write_all(b"\r\n")
}

/// Writes a complete response with a `Content-Length` body.
pub fn write_response(
    stream: &TcpStream,
    status: u16,
    headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(WRITE_BUF, stream);
    let framing = format!("Content-Length: {}", body.len());
    write_head(&mut out, status, headers, content_type, &framing)?;
    out.write_all(body)?;
    out.flush()
}

/// Writes a response body with chunked transfer encoding, [`CHUNK`]
/// bytes per chunk — the daemon's framing for merged-module bodies. The
/// body is already in memory; the chunks go out through one buffered
/// writer a few chunks at a time.
pub fn write_chunked_response(
    stream: &TcpStream,
    status: u16,
    headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(WRITE_BUF, stream);
    write_head(&mut out, status, headers, content_type, "Transfer-Encoding: chunked")?;
    for chunk in body.chunks(CHUNK) {
        write!(out, "{:x}\r\n", chunk.len())?;
        out.write_all(chunk)?;
        out.write_all(b"\r\n")?;
    }
    out.write_all(b"0\r\n\r\n")?;
    out.flush()
}
