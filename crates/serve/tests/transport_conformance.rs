//! Backend-parameterized conformance suite: every protocol behavior a
//! client can observe must be identical on [`ThreadedTransport`] and
//! [`EpollTransport`] — keep-alive reuse, pipelining, partial reads
//! split at every byte boundary, slowloris → 408, truncated body →
//! 400, admission shed → 429, size limits, panic isolation, and the
//! per-connection request cap, and the `parse` span of a pipelined
//! request. The cases drive raw `TcpStream`s so the
//! wire bytes themselves are pinned, and each runs against both
//! backends (epoll cases skip on non-Linux, where `bind` reports
//! `Unsupported`).
//!
//! The epoll backend's reason to exist gets its own proof: a soak that
//! parks **5000 idle keep-alive connections** on one server and
//! asserts the process thread count stays at worker-pool size — under
//! the threaded backend those connections would each pin a thread.
//!
//! [`ThreadedTransport`]: scamdetect_serve::ThreadedTransport
//! [`EpollTransport`]: scamdetect_serve::EpollTransport

use scamdetect::trace::{Stage, TraceId};
use scamdetect_serve::http::{
    Handler, HttpConfig, HttpRequest, HttpResponse, HttpServer, LoadGauge, ShutdownHandle,
    TraceHub, TransportKind,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A conformance server running one transport on an ephemeral port.
struct TestServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    load: Arc<LoadGauge>,
    trace: Arc<TraceHub>,
    thread: Option<std::thread::JoinHandle<scamdetect_serve::http::ServerStats>>,
}

impl TestServer {
    /// Binds and serves the conformance handler on `kind`; `None` when
    /// the transport is unsupported on this platform (skip the case).
    fn start(kind: TransportKind, tune: impl FnOnce(&mut HttpConfig)) -> Option<TestServer> {
        let mut config = HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            transport: kind,
            workers: 2,
            ..HttpConfig::default()
        };
        tune(&mut config);
        let server = match HttpServer::bind(config) {
            Ok(server) => server,
            Err(e) if e.kind() == ErrorKind::Unsupported => {
                eprintln!("skipping {kind}: {e}");
                return None;
            }
            Err(e) => panic!("bind failed: {e}"),
        };
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let load = server.load_gauge();
        let trace = server.trace_hub();
        let thread = std::thread::spawn(move || server.serve(conformance_handler()));
        Some(TestServer {
            addr,
            shutdown,
            load,
            trace,
            thread: Some(thread),
        })
    }

    fn stop(mut self) {
        self.shutdown.shutdown();
        self.thread
            .take()
            .expect("not yet joined")
            .join()
            .expect("server thread exits cleanly");
    }
}

fn conformance_handler() -> Handler {
    Arc::new(
        |request: &HttpRequest| match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/ok") => HttpResponse::text(200, "ok"),
            ("POST", "/echo") => {
                HttpResponse::text(200, String::from_utf8_lossy(&request.body).into_owned())
            }
            ("GET", "/sleep") => {
                let ms: u64 = request
                    .query
                    .strip_prefix("ms=")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(500);
                std::thread::sleep(Duration::from_millis(ms));
                HttpResponse::text(200, "slept")
            }
            ("GET", "/panic") => panic!("conformance-deliberate-panic"),
            _ => HttpResponse::error(404, "no such route"),
        },
    )
}

/// Both backends, in one place: a case runs against each available
/// transport with its name folded into assertion messages.
fn on_both_transports(tune: fn(&mut HttpConfig), case: fn(&TestServer, &str)) {
    for kind in [TransportKind::Threaded, TransportKind::Epoll] {
        let Some(server) = TestServer::start(kind, tune) else {
            continue;
        };
        case(&server, kind.as_str());
        server.stop();
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// Reads exactly one HTTP/1.1 response (headers + `Content-Length`
/// body) off the stream, leaving pipelined successors unread.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Byte-at-a-time until the blank line, so we never consume into a
    // following pipelined response.
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            Ok(_) => panic!("connection closed mid-response-header: {raw:?}"),
            Err(e) => panic!("read failed mid-response-header: {e}"),
        }
    }
    let head = String::from_utf8(raw.clone()).expect("response head is utf-8");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .map(|v| v.trim().parse().expect("content-length parses"))
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("response body arrives");
    raw.extend_from_slice(&body);
    String::from_utf8(raw).expect("response is utf-8")
}

/// Reads everything until the server closes the connection.
fn read_to_close(stream: &mut TcpStream) -> String {
    let mut reply = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
        }
    }
    String::from_utf8_lossy(&reply).into_owned()
}

fn status_of(response: &str) -> u16 {
    response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response:?}"))
}

// ───────────────────────── the conformance cases ─────────────────────────

#[test]
fn keep_alive_connection_serves_many_requests() {
    on_both_transports(
        |_| {},
        |server, kind| {
            let mut stream = connect(server.addr);
            for i in 0..5 {
                let body = format!("hello-{i}");
                let request = format!(
                    "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(request.as_bytes()).expect("writes");
                let response = read_one_response(&mut stream);
                assert_eq!(status_of(&response), 200, "[{kind}] request {i}");
                assert!(
                    response.ends_with(&body),
                    "[{kind}] echo mismatch on request {i}: {response:?}"
                );
                assert!(
                    response.contains("Connection: keep-alive"),
                    "[{kind}] connection must persist: {response:?}"
                );
            }
        },
    );
}

#[test]
fn pipelined_requests_answered_in_order() {
    on_both_transports(
        |_| {},
        |server, kind| {
            let mut stream = connect(server.addr);
            // Two complete requests plus the head of a third in ONE
            // write: responses must come back in order and the parser
            // must hold the partial third until its body arrives.
            let burst = "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nfirst\
                         GET /ok HTTP/1.1\r\nHost: x\r\n\r\n\
                         POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nthi";
            stream.write_all(burst.as_bytes()).expect("writes");
            let first = read_one_response(&mut stream);
            assert_eq!(status_of(&first), 200, "[{kind}]");
            assert!(first.ends_with("first"), "[{kind}] got: {first:?}");
            let second = read_one_response(&mut stream);
            assert_eq!(status_of(&second), 200, "[{kind}]");
            assert!(second.ends_with("ok"), "[{kind}] got: {second:?}");
            // Finish the third request only now.
            stream.write_all(b"rd").expect("writes");
            let third = read_one_response(&mut stream);
            assert_eq!(status_of(&third), 200, "[{kind}]");
            assert!(third.ends_with("third"), "[{kind}] got: {third:?}");
        },
    );
}

#[test]
fn pipelined_request_parse_span_excludes_its_predecessor() {
    on_both_transports(
        |config| config.trace_sample = 1,
        |server, kind| {
            let mut stream = connect(server.addr);
            // The second request is buffered while the first one's
            // handler sleeps: its clock must start when the transport
            // turns to it, not when the first one left the parser.
            stream
                .write_all(
                    b"GET /sleep?ms=50 HTTP/1.1\r\nHost: x\r\n\r\n\
                      GET /ok HTTP/1.1\r\nHost: x\r\n\r\n",
                )
                .expect("writes");
            let slow = read_one_response(&mut stream);
            assert_eq!(status_of(&slow), 200, "[{kind}] got: {slow:?}");
            let fast = read_one_response(&mut stream);
            assert_eq!(status_of(&fast), 200, "[{kind}] got: {fast:?}");
            let id = fast
                .lines()
                .find_map(|l| l.strip_prefix("x-trace-id: "))
                .and_then(TraceId::parse)
                .unwrap_or_else(|| panic!("[{kind}] traced response has an id: {fast:?}"));
            // The trace is sealed just after its bytes hit the socket.
            let deadline = Instant::now() + Duration::from_secs(5);
            let trace = loop {
                if let Some(trace) = server.trace.find(id) {
                    break trace;
                }
                assert!(
                    Instant::now() < deadline,
                    "[{kind}] trace {id:?} never kept"
                );
                std::thread::sleep(Duration::from_millis(5));
            };
            let parse = trace
                .spans
                .iter()
                .find(|span| span.stage == Stage::Parse)
                .unwrap_or_else(|| panic!("[{kind}] no parse span: {trace:?}"));
            assert!(
                parse.duration_us < 10_000,
                "[{kind}] parse span {}µs includes the predecessor's 50ms handler",
                parse.duration_us
            );
        },
    );
}

#[test]
fn request_fragmented_at_every_byte_boundary_still_parses() {
    on_both_transports(
        |config| {
            // Dribbling ~80 bytes with pauses must not trip deadlines.
            config.request_deadline = Duration::from_secs(30);
        },
        |server, kind| {
            let mut stream = connect(server.addr);
            let request = "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nfragments";
            // One byte per write with a real pause every few bytes, so
            // the server observes many partial reads across readiness
            // events (TCP may coalesce the rest — that variety is the
            // point).
            for (i, byte) in request.as_bytes().iter().enumerate() {
                stream
                    .write_all(std::slice::from_ref(byte))
                    .expect("writes");
                if i % 7 == 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
            }
            let response = read_one_response(&mut stream);
            assert_eq!(status_of(&response), 200, "[{kind}]");
            assert!(
                response.ends_with("fragments"),
                "[{kind}] got: {response:?}"
            );
        },
    );
}

#[test]
fn slowloris_dribble_gets_408_with_retry_after() {
    on_both_transports(
        |config| {
            config.request_deadline = Duration::from_millis(400);
            config.retry_after_s = 3;
        },
        |server, kind| {
            let mut stream = connect(server.addr);
            let started = Instant::now();
            // One header byte per 100ms: each byte defeats the idle
            // timeout, so only the request deadline can end this.
            for byte in b"GET /ok HTTP/1.1\r\nX-Slow: ".iter() {
                if stream.write_all(std::slice::from_ref(byte)).is_err() {
                    break; // server already gave up on us — expected
                }
                std::thread::sleep(Duration::from_millis(100));
                if started.elapsed() > Duration::from_secs(3) {
                    break;
                }
            }
            let response = read_to_close(&mut stream);
            assert_eq!(status_of(&response), 408, "[{kind}] got: {response:?}");
            assert!(
                response.contains("Retry-After: 3"),
                "[{kind}] 408 must carry Retry-After: {response:?}"
            );
        },
    );
}

#[test]
fn truncated_body_gets_400_not_a_hang() {
    on_both_transports(
        |_| {},
        |server, kind| {
            let mut stream = connect(server.addr);
            stream
                .write_all(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\nonly-this")
                .expect("writes");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let response = read_to_close(&mut stream);
            assert_eq!(status_of(&response), 400, "[{kind}] got: {response:?}");
            assert!(
                response.contains("truncated request body"),
                "[{kind}] got: {response:?}"
            );
        },
    );
}

#[test]
fn truncated_headers_get_400_not_a_hang() {
    on_both_transports(
        |_| {},
        |server, kind| {
            let mut stream = connect(server.addr);
            stream
                .write_all(b"GET /ok HTTP/1.1\r\nHost: incompl")
                .expect("writes");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let response = read_to_close(&mut stream);
            assert_eq!(status_of(&response), 400, "[{kind}] got: {response:?}");
            assert!(
                response.contains("truncated request"),
                "[{kind}] got: {response:?}"
            );
        },
    );
}

#[test]
fn admission_gate_sheds_past_the_watermark_with_429() {
    on_both_transports(
        |config| {
            config.workers = 1;
            config.shed_watermark = 1;
            config.retry_after_s = 2;
        },
        |server, kind| {
            // Occupy the single worker…
            let mut busy = connect(server.addr);
            busy.write_all(b"GET /sleep?ms=1500 HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            std::thread::sleep(Duration::from_millis(300));
            // …queue one complete request behind it (reaches the
            // watermark on both backends: a queued connection under
            // threads, a queued parsed request under epoll)…
            let mut queued = connect(server.addr);
            queued
                .write_all(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            std::thread::sleep(Duration::from_millis(300));
            // …so the next arrival must be shed immediately.
            let mut shed = connect(server.addr);
            shed.write_all(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            let response = read_to_close(&mut shed);
            assert_eq!(status_of(&response), 429, "[{kind}] got: {response:?}");
            assert!(
                response.contains("Retry-After: 2"),
                "[{kind}] 429 must carry Retry-After: {response:?}"
            );
            assert!(
                server.load.shed_total.load(Ordering::Relaxed) >= 1,
                "[{kind}] shed counter must record the rejection"
            );
            // The accepted requests still complete.
            let busy_response = read_one_response(&mut busy);
            assert_eq!(status_of(&busy_response), 200, "[{kind}]");
            let queued_response = read_one_response(&mut queued);
            assert_eq!(status_of(&queued_response), 200, "[{kind}]");
        },
    );
}

#[test]
fn oversized_headers_and_body_are_rejected() {
    on_both_transports(
        |config| {
            config.max_header_bytes = 256;
            config.max_body_bytes = 64;
        },
        |server, kind| {
            // 431: a header block that can never fit the cap.
            let mut stream = connect(server.addr);
            let request = format!("GET /ok HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(512));
            stream.write_all(request.as_bytes()).expect("writes");
            let response = read_to_close(&mut stream);
            assert_eq!(status_of(&response), 431, "[{kind}] got: {response:?}");
            assert!(
                response.contains("header block too large"),
                "[{kind}] got: {response:?}"
            );

            // 413: an honest Content-Length past the body cap, refused
            // before the body is even sent.
            let mut stream = connect(server.addr);
            stream
                .write_all(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n")
                .expect("writes");
            let response = read_to_close(&mut stream);
            assert_eq!(status_of(&response), 413, "[{kind}] got: {response:?}");
            assert!(
                response.contains("request body too large"),
                "[{kind}] got: {response:?}"
            );
        },
    );
}

#[test]
fn handler_panic_stays_on_its_request() {
    on_both_transports(
        |_| {},
        |server, kind| {
            let mut stream = connect(server.addr);
            stream
                .write_all(b"GET /panic HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            let response = read_one_response(&mut stream);
            assert_eq!(status_of(&response), 500, "[{kind}] got: {response:?}");
            assert!(
                response.contains("handler panicked"),
                "[{kind}] got: {response:?}"
            );
            // The worker survived and the connection is still usable.
            stream
                .write_all(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            let response = read_one_response(&mut stream);
            assert_eq!(status_of(&response), 200, "[{kind}] got: {response:?}");
        },
    );
}

#[test]
fn request_cap_closes_the_connection_honestly() {
    on_both_transports(
        |config| {
            config.max_requests_per_conn = 2;
        },
        |server, kind| {
            let mut stream = connect(server.addr);
            stream
                .write_all(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            let first = read_one_response(&mut stream);
            assert!(
                first.contains("Connection: keep-alive"),
                "[{kind}] first of two: {first:?}"
            );
            stream
                .write_all(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("writes");
            let rest = read_to_close(&mut stream);
            assert_eq!(status_of(&rest), 200, "[{kind}]");
            assert!(
                rest.contains("Connection: close"),
                "[{kind}] cap-exhausting response must announce the close: {rest:?}"
            );
        },
    );
}

#[test]
fn http_1_0_defaults_to_close() {
    on_both_transports(
        |_| {},
        |server, kind| {
            let mut stream = connect(server.addr);
            stream
                .write_all(b"GET /ok HTTP/1.0\r\nHost: x\r\n\r\n")
                .expect("writes");
            let response = read_to_close(&mut stream);
            assert_eq!(status_of(&response), 200, "[{kind}]");
            assert!(
                response.contains("Connection: close"),
                "[{kind}] HTTP/1.0 must not keep-alive by default: {response:?}"
            );
        },
    );
}

// ───────────────────────────── the soak ─────────────────────────────

#[cfg(target_os = "linux")]
fn current_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .map(|v| v.trim().parse().expect("thread count parses"))
        .expect("Threads line present")
}

/// The tentpole's load-bearing claim: 5000 idle keep-alive connections
/// on the epoll backend cost epoll registrations, not threads. The
/// threaded backend would need 5000 pool workers for the same park.
#[test]
#[cfg(target_os = "linux")]
fn epoll_holds_5000_idle_connections_with_a_pool_sized_thread_count() {
    const IDLE_CONNECTIONS: usize = 5000;
    let server = TestServer::start(TransportKind::Epoll, |config| {
        config.workers = 2;
        // Idle keep-alive connections must outlive the whole soak.
        config.read_timeout = Duration::from_secs(120);
        config.request_deadline = Duration::from_secs(120);
    })
    .expect("epoll is supported on linux");

    let before = current_thread_count();
    let mut herd = Vec::with_capacity(IDLE_CONNECTIONS);
    for i in 0..IDLE_CONNECTIONS {
        // Loopback connects can transiently fail while the accept
        // queue churns; retry briefly rather than flake.
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(server.addr) {
                Ok(stream) => break stream,
                Err(e) if attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    if attempt == 50 {
                        panic!("connect {i} kept failing: {e}");
                    }
                }
                Err(e) => panic!("connect {i} failed: {e}"),
            }
        };
        // First request proves the connection is admitted and served;
        // afterwards it parks idle in keep-alive.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        herd.push(stream);
    }
    // Exercise a sample end-to-end so "held" means "serving", not just
    // "open": every probed connection answers on the first try.
    for i in (0..IDLE_CONNECTIONS).step_by(IDLE_CONNECTIONS / 25) {
        let stream = &mut herd[i];
        stream
            .write_all(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("idle connection writes");
        let response = read_one_response(stream);
        assert_eq!(status_of(&response), 200, "connection {i} must be live");
    }

    let during = current_thread_count();
    let grown = during.saturating_sub(before);
    // The budget: the event loop + shedder + 2 pool workers, plus slack
    // for the test harness. 5000 parked connections must contribute
    // *zero* threads — any per-connection thread blows this bound.
    assert!(
        grown <= 16,
        "thread count grew by {grown} (from {before} to {during}) while \
         {IDLE_CONNECTIONS} connections were parked — the epoll backend must \
         not spend threads on idle connections"
    );

    drop(herd);
    server.stop();
}
