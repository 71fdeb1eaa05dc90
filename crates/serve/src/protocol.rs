//! The wire protocol: a minimal line-framed HTTP/1.1 subset.
//!
//! The grammar the parser accepts (and nothing more):
//!
//! ```text
//! request      = request-line *( header CRLF ) CRLF [ body ]
//! request-line = method SP path SP "HTTP/1.1" CRLF
//! method       = "GET" | "POST"
//! header       = name ":" OWS value
//! body         = Content-Length octets (required for POST)
//! ```
//!
//! Lines end in `\r\n` or bare `\n`. Header names are matched
//! case-insensitively. Every way an input can be malformed — a garbled
//! request line, oversized headers, a truncated body, invalid UTF-8, a
//! socket read timeout — maps to a typed [`ProtocolError`]; the parser
//! never panics and, given a reader with a bounded read timeout, never
//! hangs. The proptest fuzz suite in `tests/serve_protocol.rs` drives
//! arbitrary bytes through [`parse_request`] to pin exactly that.

use std::io::{BufRead, Write};

/// Every way a request frame can be rejected. The server maps each
/// variant to an HTTP status; the Display text is the client-visible
/// diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line was not `METHOD SP PATH SP HTTP/1.1`.
    MalformedRequestLine,
    /// The method is not GET or POST.
    UnsupportedMethod(String),
    /// A header line had no `:` separator.
    MalformedHeader,
    /// The header block exceeded the configured byte budget.
    HeadersTooLarge {
        /// The configured budget.
        limit: usize,
    },
    /// A POST arrived without a Content-Length header.
    MissingContentLength,
    /// Content-Length was not a non-negative integer.
    BadContentLength(String),
    /// The declared body exceeds the configured deck-byte budget.
    BodyTooLarge {
        /// The declared Content-Length.
        declared: usize,
        /// The configured budget.
        limit: usize,
    },
    /// The connection closed before the declared body arrived.
    TruncatedBody {
        /// Bytes actually received.
        got: usize,
        /// Bytes the Content-Length promised.
        want: usize,
    },
    /// A header value that must be valid UTF-8 / ASCII was not.
    InvalidHeaderEncoding,
    /// A named header carried an unusable value.
    BadHeaderValue {
        /// The offending header, lowercased.
        name: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The socket's bounded read deadline expired mid-request — the
    /// typed alternative to a wedged worker.
    Timeout,
    /// The peer closed the connection before a full request arrived.
    ConnectionClosed,
    /// Any other I/O failure while reading the frame.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::MalformedRequestLine => {
                write!(f, "malformed request line (want `METHOD PATH HTTP/1.1`)")
            }
            ProtocolError::UnsupportedMethod(m) => {
                write!(f, "unsupported method {m:?} (want GET or POST)")
            }
            ProtocolError::MalformedHeader => write!(f, "malformed header line (missing `:`)"),
            ProtocolError::HeadersTooLarge { limit } => {
                write!(f, "header block exceeds {limit} bytes")
            }
            ProtocolError::MissingContentLength => write!(f, "POST requires Content-Length"),
            ProtocolError::BadContentLength(v) => {
                write!(f, "Content-Length {v:?} is not a non-negative integer")
            }
            ProtocolError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds {limit}-byte limit"
                )
            }
            ProtocolError::TruncatedBody { got, want } => {
                write!(f, "body truncated: got {got} of {want} bytes")
            }
            ProtocolError::InvalidHeaderEncoding => {
                write!(f, "request frame is not valid UTF-8 where it must be")
            }
            ProtocolError::BadHeaderValue { name, reason } => {
                write!(f, "bad {name} header: {reason}")
            }
            ProtocolError::Timeout => write!(f, "read deadline expired mid-request"),
            ProtocolError::ConnectionClosed => {
                write!(f, "connection closed before a full request arrived")
            }
            ProtocolError::Io(e) => write!(f, "i/o error reading request: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `POST`.
    pub method: String,
    /// The request path, e.g. `/run`.
    pub path: String,
    /// Headers as `(lowercased-name, trimmed-value)` in arrival order.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty for GET).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lowercase) name, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Map an I/O error to its typed protocol meaning: timeouts stay
/// timeouts, vanished peers read as closed connections.
#[must_use]
pub fn io_error(e: &std::io::Error) -> ProtocolError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
        std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset => {
            ProtocolError::ConnectionClosed
        }
        _ => ProtocolError::Io(e.to_string()),
    }
}

/// Read one `\n`-terminated line of at most `limit` bytes (terminator
/// excluded, `\r` trimmed). `Ok(None)` = clean EOF before any byte.
fn read_line_bounded(
    reader: &mut impl BufRead,
    limit: usize,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ProtocolError::ConnectionClosed);
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(line));
                }
                if line.len() >= limit {
                    return Err(ProtocolError::HeadersTooLarge { limit });
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(io_error(&e)),
        }
    }
}

/// Parse one request frame from `reader`.
///
/// `max_header_bytes` bounds the request line and the whole header
/// block; `max_body_bytes` bounds the *declared* Content-Length (the
/// body is rejected before a byte of it is read). With a read timeout
/// set on the underlying socket this function always returns in
/// bounded time — every failure mode is a typed [`ProtocolError`].
///
/// # Errors
///
/// See [`ProtocolError`]; one variant per way a frame can go wrong.
pub fn parse_request(
    reader: &mut impl BufRead,
    max_header_bytes: usize,
    max_body_bytes: usize,
) -> Result<Request, ProtocolError> {
    let Some(line) = read_line_bounded(reader, max_header_bytes)? else {
        return Err(ProtocolError::ConnectionClosed);
    };
    let line = String::from_utf8(line).map_err(|_| ProtocolError::InvalidHeaderEncoding)?;
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ProtocolError::MalformedRequestLine);
    };
    if version != "HTTP/1.1" || path.is_empty() || !path.starts_with('/') {
        return Err(ProtocolError::MalformedRequestLine);
    }
    if method != "GET" && method != "POST" {
        return Err(ProtocolError::UnsupportedMethod(method.to_string()));
    }

    let mut headers = Vec::new();
    let mut header_bytes = line.len();
    loop {
        let Some(raw) = read_line_bounded(reader, max_header_bytes)? else {
            return Err(ProtocolError::ConnectionClosed);
        };
        if raw.is_empty() {
            break;
        }
        header_bytes += raw.len();
        if header_bytes > max_header_bytes {
            return Err(ProtocolError::HeadersTooLarge {
                limit: max_header_bytes,
            });
        }
        let raw = String::from_utf8(raw).map_err(|_| ProtocolError::InvalidHeaderEncoding)?;
        let Some((name, value)) = raw.split_once(':') else {
            return Err(ProtocolError::MalformedHeader);
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    if method == "POST" {
        let declared = match headers.iter().find(|(n, _)| n == "content-length") {
            None => return Err(ProtocolError::MissingContentLength),
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| ProtocolError::BadContentLength(v.clone()))?,
        };
        if declared > max_body_bytes {
            return Err(ProtocolError::BodyTooLarge {
                declared,
                limit: max_body_bytes,
            });
        }
        body.resize(declared, 0);
        let mut got = 0;
        while got < declared {
            match reader.read(&mut body[got..]) {
                Ok(0) => {
                    return Err(ProtocolError::TruncatedBody {
                        got,
                        want: declared,
                    })
                }
                Ok(n) => got += n,
                Err(e) => {
                    return match io_error(&e) {
                        // Mid-body, a timeout *is* a truncation with a
                        // better-known cause; keep it distinct.
                        ProtocolError::ConnectionClosed => Err(ProtocolError::TruncatedBody {
                            got,
                            want: declared,
                        }),
                        other => Err(other),
                    };
                }
            }
        }
    }

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Write a complete fixed-length response frame in one write. Written in
/// pieces, the later ones can wait for the peer's acknowledgement of the
/// first (Nagle's algorithm), and an early answer (a `503` sent before
/// the request is read) loses them when the late request resets the
/// closed socket.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut frame = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        frame.push_str(&format!("{name}: {value}\r\n"));
    }
    frame.push_str("\r\n");
    frame.push_str(body);
    w.write_all(frame.as_bytes())?;
    w.flush()
}

/// Escape a string for embedding in a JSON double-quoted literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, ProtocolError> {
        parse_request(&mut Cursor::new(bytes), 4096, 65536)
    }

    #[test]
    fn well_formed_post_parses() {
        let req = parse(b"POST /run HTTP/1.1\r\nContent-Length: 5\r\nX-Tenant: alice\r\n\r\nhello")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn bare_lf_line_endings_parse_too() {
        let req = parse(b"GET /health HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_frames_yield_typed_errors() {
        assert_eq!(
            parse(b"nonsense\r\n\r\n").unwrap_err(),
            ProtocolError::MalformedRequestLine
        );
        assert_eq!(
            parse(b"PUT /run HTTP/1.1\r\n\r\n").unwrap_err(),
            ProtocolError::UnsupportedMethod("PUT".into())
        );
        assert_eq!(
            parse(b"POST /run HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            ProtocolError::MalformedHeader
        );
        assert_eq!(
            parse(b"POST /run HTTP/1.1\r\n\r\n").unwrap_err(),
            ProtocolError::MissingContentLength
        );
        assert_eq!(
            parse(b"POST /run HTTP/1.1\r\nContent-Length: -3\r\n\r\n").unwrap_err(),
            ProtocolError::BadContentLength("-3".into())
        );
        assert!(matches!(
            parse(b"POST /run HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap_err(),
            ProtocolError::BodyTooLarge { .. }
        ));
        assert_eq!(
            parse(b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err(),
            ProtocolError::TruncatedBody { got: 3, want: 10 }
        );
        assert_eq!(
            parse(b"GET /x HTTP/1.1\r\nX: \xff\xfe\r\n\r\n").unwrap_err(),
            ProtocolError::InvalidHeaderEncoding
        );
        assert_eq!(parse(b"").unwrap_err(), ProtocolError::ConnectionClosed);
    }

    #[test]
    fn oversized_headers_are_rejected_before_the_body() {
        let mut frame = b"POST /run HTTP/1.1\r\n".to_vec();
        frame.extend(std::iter::repeat_n(b'a', 5000));
        let err = parse_request(&mut Cursor::new(&frame), 256, 65536).unwrap_err();
        assert!(matches!(err, ProtocolError::HeadersTooLarge { limit: 256 }));
    }

    #[test]
    fn response_frames_are_well_formed() {
        /// Records each write it is handed.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new());
        write_response(&mut out, 200, "OK", &[("Retry-After", "1")], "{}").unwrap();
        assert_eq!(out.0.len(), 1, "a frame is one write");
        let text = String::from_utf8(out.0.concat()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
