//! Incremental HTTP/1.1 request parsing, shared by every transport.
//!
//! The parser owns the per-connection byte buffer and carries partial
//! state across arbitrarily fragmented reads: the threaded transport
//! feeds it from blocking reads, the epoll transport from readiness
//! events, and both observe identical message boundaries, limits, and
//! error statuses because the logic lives here exactly once.
//!
//! Shape: [`RequestParser::feed`] appends raw bytes,
//! [`RequestParser::advance`] drives the state machine as far as the
//! buffered bytes allow — yielding [`Parsed::NeedMore`], a complete
//! [`Parsed::Request`], or a typed error response (431/413/411/400)
//! that the transport writes before closing. Bytes past a completed
//! request stay buffered for the next pipelined request, and the
//! parser tracks the wall-clock start of the in-progress request so
//! transports can enforce [`HttpConfig::request_deadline`] uniformly.

use std::time::Instant;

use super::{HttpConfig, HttpRequest, HttpResponse};

/// Where the in-progress request stands — transports use this to pick
/// timeout/EOF semantics (idle connections close quietly; half-received
/// requests are protocol errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// No byte of a request has arrived.
    Idle,
    /// Some bytes arrived but the header block is incomplete, or the
    /// head is complete and unconsumed bytes are being scanned.
    Headers,
    /// Head parsed; waiting for `Content-Length` body bytes.
    Body,
}

/// One step of [`RequestParser::advance`].
///
/// The size skew is deliberate: a `Parsed` lives only for the one call
/// that destructures it, so boxing the request would trade a stack copy
/// for a per-request heap allocation on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Parsed {
    /// The buffer holds no complete request; feed more bytes.
    NeedMore,
    /// A complete request, plus whether the connection should persist
    /// afterwards (from `Connection:` headers and the HTTP version).
    Request {
        request: HttpRequest,
        keep_alive: bool,
        /// When the request's first byte arrived, or when the transport
        /// turned to it if it was already buffered behind its
        /// predecessor — the start of the trace `parse` span (receive +
        /// parse window).
        received: Instant,
    },
}

/// Parsed request head awaiting its body.
struct Head {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    keep_alive: bool,
}

/// Per-connection incremental parser state.
pub(crate) struct RequestParser {
    /// Unconsumed bytes: the in-progress request plus anything
    /// pipelined behind it.
    buf: Vec<u8>,
    /// How far the header-terminator scan has advanced into `buf`, so
    /// repeated `advance` calls on a dribbling connection stay O(new
    /// bytes) instead of rescanning from the start.
    scanned: usize,
    /// The parsed head once the header block has landed.
    head: Option<Head>,
    /// When the in-progress request's first byte arrived (or, for a
    /// pipelined request, when `advance` first saw it buffered); bounds
    /// the whole receive via [`HttpConfig::request_deadline`].
    started: Option<Instant>,
}

impl RequestParser {
    pub(crate) fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            scanned: 0,
            head: None,
            started: None,
        }
    }

    /// Appends raw bytes off the wire. The first byte of a request
    /// starts its [`HttpConfig::request_deadline`] clock.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.buf.extend_from_slice(bytes);
        self.started.get_or_insert_with(Instant::now);
    }

    /// `true` when no byte of a request is pending (a quiet close is
    /// clean, not a truncation).
    pub(crate) fn is_idle(&self) -> bool {
        self.head.is_none() && self.buf.is_empty()
    }

    pub(crate) fn phase(&self) -> Phase {
        if self.head.is_some() {
            Phase::Body
        } else if self.buf.is_empty() {
            Phase::Idle
        } else {
            Phase::Headers
        }
    }

    /// `true` once the in-progress request has been arriving for
    /// longer than [`HttpConfig::request_deadline`]. The per-read idle
    /// timeout alone cannot stop a slow-drip client (1 byte per
    /// timeout window resets it forever); this bounds the whole
    /// receive.
    pub(crate) fn overdue(&self, config: &HttpConfig) -> bool {
        self.started
            .is_some_and(|t| t.elapsed() > config.request_deadline)
    }

    /// The 408 served when [`RequestParser::overdue`] trips.
    pub(crate) fn deadline_response(config: &HttpConfig) -> HttpResponse {
        HttpResponse::error(408, "request took too long to arrive")
            .with_header("Retry-After", config.retry_after_s.to_string())
    }

    /// The error owed to the client when the connection hits EOF, by
    /// phase: `None` when idle (clean close).
    pub(crate) fn eof_error(&self) -> Option<HttpResponse> {
        match self.phase() {
            Phase::Idle => None,
            Phase::Headers => Some(HttpResponse::error(400, "truncated request")),
            Phase::Body => Some(HttpResponse::error(400, "truncated request body")),
        }
    }

    /// The error owed when no bytes arrive for a full
    /// [`HttpConfig::read_timeout`] mid-request, by phase: `None` when
    /// idle (an idle keep-alive connection just closes).
    pub(crate) fn timeout_error(&self) -> Option<HttpResponse> {
        match self.phase() {
            Phase::Idle => None,
            Phase::Headers => Some(HttpResponse::error(400, "request read timed out")),
            Phase::Body => Some(HttpResponse::error(400, "request body read timed out")),
        }
    }

    /// Drives parsing as far as the buffered bytes allow.
    ///
    /// # Errors
    ///
    /// A typed response (431/413/411/400) the transport must write
    /// before closing; parser state is not meaningful afterwards.
    pub(crate) fn advance(&mut self, config: &HttpConfig) -> Result<Parsed, HttpResponse> {
        if self.head.is_none() {
            if self.buf.is_empty() {
                return Ok(Parsed::NeedMore);
            }
            // Bytes pipelined behind the previous request waited out its
            // handler and write; their clock starts now, when the
            // transport turns to them.
            self.started.get_or_insert_with(Instant::now);
            let Some(end) = self.find_header_end() else {
                if self.buf.len() > config.max_header_bytes {
                    return Err(HttpResponse::error(431, "header block too large"));
                }
                return Ok(Parsed::NeedMore);
            };
            if end > config.max_header_bytes {
                return Err(HttpResponse::error(431, "header block too large"));
            }
            let head = parse_head(&self.buf[..end])?;
            if head.content_length > config.max_body_bytes {
                return Err(HttpResponse::error(413, "request body too large"));
            }
            self.buf.drain(..end + 4);
            self.scanned = 0;
            self.head = Some(head);
        }
        let pending = self.head.as_ref().expect("head was just ensured");
        if self.buf.len() < pending.content_length {
            return Ok(Parsed::NeedMore);
        }
        let head = self.head.take().expect("head is present");
        let body: Vec<u8> = self.buf.drain(..head.content_length).collect();
        let received = self.started.take().unwrap_or_else(Instant::now);
        self.scanned = 0;
        Ok(Parsed::Request {
            request: HttpRequest {
                method: head.method,
                path: head.path,
                query: head.query,
                headers: head.headers,
                body,
                trace: None,
            },
            keep_alive: head.keep_alive,
            received,
        })
    }

    /// Finds `\r\n\r\n`, resuming the scan where the last call left
    /// off (a terminator can straddle the resume point by up to 3
    /// bytes).
    fn find_header_end(&mut self) -> Option<usize> {
        let from = self.scanned.saturating_sub(3);
        match self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            Some(pos) => Some(from + pos),
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }
}

/// Parses a complete header block (request line + headers, excluding
/// the `\r\n\r\n` terminator) into a [`Head`].
fn parse_head(raw: &[u8]) -> Result<Head, HttpResponse> {
    let header_text = std::str::from_utf8(raw)
        .map_err(|_| HttpResponse::error(400, "headers are not valid utf-8"))?;
    let mut lines = header_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpResponse::error(400, "missing request line"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpResponse::error(400, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpResponse::error(400, "missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpResponse::error(400, "missing HTTP version"))?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpResponse::error(400, "unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpResponse::error(400, "malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let header_of = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header_of("transfer-encoding").is_some() {
        return Err(HttpResponse::error(
            411,
            "chunked bodies are not supported; send Content-Length",
        ));
    }
    // RFC 9110 §8.6: duplicate Content-Length headers are a
    // request-smuggling vector (an intermediary honoring a different
    // occurrence desyncs on message boundaries) — reject outright.
    if headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .count()
        > 1
    {
        return Err(HttpResponse::error(400, "duplicate Content-Length"));
    }
    let content_length = match header_of("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpResponse::error(400, "invalid Content-Length"))?,
    };

    let keep_alive = match header_of("connection").map(str::to_ascii_lowercase) {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => version == "HTTP/1.1", // protocol default
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Head {
        method,
        path,
        query,
        headers,
        content_length,
        keep_alive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HttpConfig {
        HttpConfig {
            max_header_bytes: 256,
            max_body_bytes: 64,
            ..HttpConfig::default()
        }
    }

    fn parse_all(parser: &mut RequestParser, cfg: &HttpConfig) -> Vec<(HttpRequest, bool)> {
        let mut out = Vec::new();
        while let Ok(Parsed::Request {
            request,
            keep_alive,
            ..
        }) = parser.advance(cfg)
        {
            out.push((request, keep_alive));
        }
        out
    }

    #[test]
    fn whole_request_in_one_feed() {
        let cfg = config();
        let mut p = RequestParser::new();
        p.feed(b"POST /scan?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello");
        let got = parse_all(&mut p, &cfg);
        assert_eq!(got.len(), 1);
        let (req, ka) = &got[0];
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/scan");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"hello");
        assert!(*ka);
        assert!(p.is_idle());
    }

    #[test]
    fn every_byte_boundary_yields_the_same_request() {
        let cfg = config();
        let raw = b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        for split in 1..raw.len() {
            let mut p = RequestParser::new();
            p.feed(&raw[..split]);
            let first = parse_all(&mut p, &cfg);
            let expect_complete = split == raw.len();
            assert_eq!(first.len(), usize::from(expect_complete), "split {split}");
            p.feed(&raw[split..]);
            let got = parse_all(&mut p, &cfg);
            if !expect_complete {
                assert_eq!(got.len(), 1, "split {split}");
                assert_eq!(got[0].0.body, b"body", "split {split}");
            }
            assert!(p.is_idle(), "split {split}");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let cfg = config();
        let mut p = RequestParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let got = parse_all(&mut p, &cfg);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.path, "/a");
        assert!(got[0].1);
        assert_eq!(got[1].0.path, "/b");
        assert!(!got[1].1);
    }

    #[test]
    fn pipelined_request_clock_starts_when_the_parser_turns_to_it() {
        let cfg = config();
        let mut p = RequestParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert!(matches!(p.advance(&cfg), Ok(Parsed::Request { .. })));
        // The first request's handler and write run here.
        let turned = Instant::now();
        match p.advance(&cfg) {
            Ok(Parsed::Request { received, .. }) => assert!(received >= turned),
            other => panic!("second request: {other:?}"),
        }
    }

    #[test]
    fn oversized_header_block_is_431_even_unterminated() {
        let cfg = config();
        let mut p = RequestParser::new();
        p.feed(format!("GET / HTTP/1.1\r\nX-Big: {}\r\n", "y".repeat(300)).as_bytes());
        let err = p.advance(&cfg).expect_err("431");
        assert_eq!(err.status, 431);
    }

    #[test]
    fn oversized_body_is_413_before_the_body_arrives() {
        let cfg = config();
        let mut p = RequestParser::new();
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        let err = p.advance(&cfg).expect_err("413");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn phase_tracks_request_progress() {
        let cfg = config();
        let mut p = RequestParser::new();
        assert_eq!(p.phase(), Phase::Idle);
        assert!(p.eof_error().is_none());
        p.feed(b"POST / HTTP/1.1\r\nConte");
        assert!(matches!(p.advance(&cfg), Ok(Parsed::NeedMore)));
        assert_eq!(p.phase(), Phase::Headers);
        assert_eq!(p.eof_error().map(|r| r.status), Some(400));
        p.feed(b"nt-Length: 3\r\n\r\nab");
        assert!(matches!(p.advance(&cfg), Ok(Parsed::NeedMore)));
        assert_eq!(p.phase(), Phase::Body);
        assert!(p.timeout_error().is_some());
        p.feed(b"c");
        assert!(matches!(p.advance(&cfg), Ok(Parsed::Request { .. })));
        assert_eq!(p.phase(), Phase::Idle);
    }
}
