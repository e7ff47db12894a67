//! A minimal blocking HTTP/1.1 client over [`std::net::TcpStream`] —
//! just enough to drive the daemon from `perfbench`, the integration
//! tests, smoke checks and the fleet router. Keep-alive by
//! default: one [`HttpClient`] holds one connection and pipelines
//! sequential request/response pairs over it.
//!
//! # Retry semantics
//!
//! A keep-alive peer may close the connection between our requests (its
//! per-connection request cap, an idle timeout, a drain) — and a
//! replica that is restarting refuses connections for a moment. Neither
//! should surface as a user-visible error for an idempotent request, so
//! [`HttpClient::request`] retries **exactly once** on
//! `ConnectionRefused` / `UnexpectedEof` (and their keep-alive cousins
//! `ConnectionReset` / `BrokenPipe`) after a short jittered backoff,
//! over a *fresh* connection. The retry only happens when no byte of a
//! response was consumed, so a half-read reply can never be mistaken
//! for a fresh one — but "no response byte arrived" does **not** prove
//! the request wasn't processed (the peer may have acted and died
//! before answering). Resending is therefore gated on the caller's
//! `retry_safe` claim: scans are pure and reload/install converge, so
//! the default is to retry, but a caller for whom double-delivery is
//! unacceptable (the fleet's artifact push) passes `retry_safe = false`
//! via [`HttpClient::request_raw_opts`] and handles the ambiguity
//! itself.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Base of the jittered pre-retry backoff; the jitter adds up to the
/// same amount again so racing clients do not reconnect in lockstep.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// One response: status code, headers and body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lowercased, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body (UTF-8; the daemon only serves text/JSON).
    pub body: String,
}

impl ClientResponse {
    /// First header with `name` (case-insensitive), if present — how
    /// callers read `x-trace-id` off a traced response.
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == wanted)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to one daemon (reconnecting: see the module
/// docs for the one-shot retry semantics).
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<Conn>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects with a read/write timeout suited to loopback testing.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// [`HttpClient::connect`] with an explicit timeout.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<HttpClient> {
        Ok(HttpClient {
            addr,
            timeout,
            conn: Some(open_conn(addr, timeout)?),
        })
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Re-arms the read/write/connect timeout, applying it to the live
    /// connection too. The fleet router uses this to shrink a pooled
    /// connection's I/O deadline to a request's remaining budget.
    pub fn set_io_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
        if let Some(conn) = &self.conn {
            let stream = conn.reader.get_ref();
            if stream.set_read_timeout(Some(timeout)).is_err()
                || conn.writer.set_write_timeout(Some(timeout)).is_err()
            {
                // A socket that rejects timeout changes cannot honor the
                // deadline; drop it and reconnect lazily.
                self.conn = None;
            }
        }
    }

    /// Sends one request and reads the full response (keep-alive: the
    /// connection stays usable for the next call). Retries once over a
    /// fresh connection on `ConnectionRefused`/`UnexpectedEof`-class
    /// failures — see the module docs.
    ///
    /// # Errors
    ///
    /// I/O failures (after the one retry) and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.request_raw(method, path, body.unwrap_or("").as_bytes(), &[])
    }

    /// [`HttpClient::request`] with a binary body and extra headers —
    /// the artifact-push path (`PUT /models/<id>` carries raw
    /// `ModelArtifact` bytes plus the FNV-1a handshake header).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HttpClient::request`].
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        self.request_raw_opts(method, path, body, extra_headers, true)
    }

    /// [`HttpClient::request_raw`] with the resend decision exposed:
    /// `retry_safe = false` turns the one-shot retry off, for requests
    /// where a duplicate delivery is worse than a reported failure
    /// (non-idempotent writes like the fleet's artifact push).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HttpClient::request`]; with
    /// `retry_safe = false`, transport failures surface immediately.
    pub fn request_raw_opts(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
        retry_safe: bool,
    ) -> std::io::Result<ClientResponse> {
        match self.try_once(method, path, body, extra_headers) {
            Ok(response) => Ok(response),
            Err(e) if retry_safe && is_retryable(&e) => {
                // The connection died before any response byte arrived:
                // back off briefly (jittered so a fleet of clients does
                // not stampede a restarting replica), reconnect, resend.
                self.conn = None;
                std::thread::sleep(jittered_backoff(self.addr));
                self.try_once(method, path, body, extra_headers)
            }
            Err(e) => Err(e),
        }
    }

    fn try_once(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        if self.conn.is_none() {
            self.conn = Some(open_conn(self.addr, self.timeout)?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let result = round_trip(conn, method, path, body, extra_headers);
        if result.is_err() {
            // Whatever state the connection is in, it is not trustworthy
            // for another request.
            self.conn = None;
        }
        result
    }
}

fn open_conn(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok(Conn {
        reader: BufReader::new(stream),
        writer,
    })
}

/// Failures worth one resend over a fresh connection: the peer was
/// down/restarting (`ConnectionRefused`) or closed a keep-alive
/// connection before answering (`UnexpectedEof` from an empty read,
/// `ConnectionReset`/`BrokenPipe` from racing the close).
fn is_retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionRefused
            | ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::BrokenPipe
    )
}

/// Deterministic-enough jitter without a RNG dependency: the clock's
/// sub-millisecond bits, folded with the target address so distinct
/// clients spread out even when started in the same instant.
fn jittered_backoff(addr: SocketAddr) -> Duration {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64);
    let salt = u64::from(addr.port());
    let jitter_ms = (nanos ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        % (RETRY_BACKOFF_BASE.as_millis() as u64 + 1);
    RETRY_BACKOFF_BASE + Duration::from_millis(jitter_ms)
}

fn round_trip(
    conn: &mut Conn,
    method: &str,
    path: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> std::io::Result<ClientResponse> {
    // Head and body leave in one write: with Nagle off, two writes are
    // two segments, and the peer wakes for a head it cannot act on.
    let mut message = Vec::with_capacity(128 + body.len());
    write!(
        message,
        "{method} {path} HTTP/1.1\r\nHost: scamdetect\r\nContent-Length: {}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    message.extend_from_slice(b"\r\n");
    message.extend_from_slice(body);
    conn.writer.write_all(&message)?;

    let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
    let mut status_line = String::new();
    if conn.reader.read_line(&mut status_line)? == 0 {
        // The peer closed the keep-alive connection before answering —
        // the classic stale-connection race, reported as UnexpectedEof
        // so the caller's retry path can distinguish it from a
        // malformed-but-live response.
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let mut line = String::new();
        if conn.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "connection closed mid-headers",
            ));
        }
        if line == "\r\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| bad("invalid content-length"))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    conn.reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body: String::from_utf8(body).map_err(|_| bad("non-utf8 body"))?,
    })
}

/// One-shot convenience: fresh connection, one request, done.
///
/// # Errors
///
/// Same failure modes as [`HttpClient::request`].
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    HttpClient::connect(addr)?.request(method, path, body)
}

/// [`http_call`] with an explicit connect/read timeout — the fleet's
/// health prober needs a much shorter deadline than the 10s test
/// default.
///
/// # Errors
///
/// Same failure modes as [`HttpClient::request`].
pub fn http_call_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    HttpClient::connect_with_timeout(addr, timeout)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConfig, HttpRequest, HttpResponse, HttpServer};
    use std::sync::Arc;

    /// A tiny echo server whose connections die after ONE request — the
    /// worst-case keep-alive peer. The client's stale-connection retry
    /// must make sequential requests over one `HttpClient` succeed
    /// anyway.
    #[test]
    fn stale_keep_alive_connection_is_retried_once_transparently() {
        let server = HttpServer::bind(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_requests_per_conn: 1,
            read_timeout: Duration::from_millis(300),
            ..HttpConfig::default()
        })
        .expect("binds");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            server.serve(Arc::new(|req: &HttpRequest| {
                HttpResponse::text(200, format!("len={}", req.body.len()))
            }))
        });

        let mut client = HttpClient::connect(addr).expect("connects");
        for i in 0..4usize {
            // Request 1 closes the connection (cap = 1); request 2 hits
            // the stale socket, gets the UnexpectedEof/BrokenPipe class,
            // reconnects and succeeds. And so on.
            let reply = client
                .request("POST", "/echo", Some(&"x".repeat(i)))
                .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, format!("len={i}"));
        }
        handle.shutdown();
        let stats = join.join().expect("joins");
        assert_eq!(stats.requests, 4);
        assert!(stats.connections >= 4, "each request used a fresh conn");
    }

    /// With `retry_safe = false` the stale-connection class surfaces as
    /// an error instead of a transparent resend — the guarantee the
    /// fleet's artifact push relies on to never double-send.
    #[test]
    fn non_retry_safe_request_surfaces_stale_connection_instead_of_resending() {
        let server = HttpServer::bind(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_requests_per_conn: 1,
            read_timeout: Duration::from_millis(300),
            ..HttpConfig::default()
        })
        .expect("binds");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            server.serve(Arc::new(|_req: &HttpRequest| HttpResponse::text(200, "ok")))
        });

        let mut client = HttpClient::connect(addr).expect("connects");
        let first = client
            .request_raw_opts("PUT", "/models/x", b"artifact", &[], false)
            .expect("first request on a fresh connection succeeds");
        assert_eq!(first.status, 200);
        // The server closed after request 1 (cap = 1). The second
        // attempt hits the stale socket and MUST error rather than
        // silently resend over a fresh connection.
        let second = client.request_raw_opts("PUT", "/models/x", b"artifact", &[], false);
        assert!(
            second.is_err(),
            "a non-retry-safe request must not transparently resend: {second:?}"
        );
        // The client recovers on the next call (fresh connection).
        let third = client
            .request_raw_opts("PUT", "/models/x", b"artifact", &[], false)
            .expect("fresh connection after the surfaced error");
        assert_eq!(third.status, 200);

        handle.shutdown();
        let stats = join.join().expect("joins");
        assert_eq!(stats.requests, 2, "exactly two PUTs reached the server");
    }

    /// A dead address stays an error: the retry is one reconnect, not a
    /// loop.
    #[test]
    fn refused_connection_errors_after_one_retry() {
        // Bind-then-drop: the port is real but nothing listens.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
            listener.local_addr().expect("addr")
        };
        let started = std::time::Instant::now();
        let result = http_call_with_timeout(addr, "GET", "/healthz", None, Duration::from_secs(2));
        assert!(result.is_err(), "nothing listens there");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "a refused connection must fail fast, not spin"
        );
    }
}
