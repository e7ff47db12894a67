//! The blocking worker-pool transport: the portable default.
//!
//! The accept loop runs on the serving thread and hands admitted
//! connections to N pool workers over a channel; a worker owns its
//! connection for the whole keep-alive lifetime, blocking on reads
//! with a short poll timeout so shutdown and deadlines are noticed
//! promptly. Simple and portable — but every parked keep-alive
//! connection pins a worker, so connection counts must stay near the
//! pool size. When they don't (fleet fronts, long-poll clients), use
//! [`EpollTransport`](super::EpollTransport).

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use scamdetect::trace::{Note, Stage};

use super::parser::{Parsed, Phase, RequestParser};
use super::{
    attach_trace, finish_rejected, finish_trace, is_timeout, shed_connection, write_response,
    DrainBudget, Handler, HttpConfig, HttpRequest, HttpResponse, LoadGauge, ServerStats,
    ShutdownHandle, TraceHub, Transport, TransportHost, READ_POLL,
};

/// The blocking worker-pool backend; see the module docs.
pub struct ThreadedTransport;

impl Transport for ThreadedTransport {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn serve(&self, host: TransportHost, handler: Handler) -> std::io::Result<ServerStats> {
        let TransportHost {
            listener,
            config,
            shutdown,
            protocol_errors,
            load,
            trace,
        } = host;
        let workers = config.resolved_workers();
        // Each queued connection carries its accept instant so the
        // worker can record the queue-wait span it just ended.
        let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
        let rx = Arc::new(Mutex::new(rx));
        let (shed_tx, shed_rx) = mpsc::channel::<TcpStream>();
        let requests = Arc::new(AtomicU64::new(0));
        let mut connections = 0u64;

        std::thread::scope(|scope| {
            // One dedicated shedder: rejected connections cost the
            // accept loop a channel send and nothing more, so a shed
            // storm cannot delay the admission of acceptable traffic.
            let retry_after_s = config.retry_after_s;
            scope.spawn(move || {
                while let Ok(stream) = shed_rx.recv() {
                    shed_connection(stream, retry_after_s);
                }
            });
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let config = &config;
                let shutdown = shutdown.clone();
                let requests = Arc::clone(&requests);
                let protocol_errors = Arc::clone(&protocol_errors);
                let load = Arc::clone(&load);
                let trace = Arc::clone(&trace);
                scope.spawn(move || loop {
                    // Hold the receiver lock only for the dequeue.
                    let (conn, accepted) = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv()
                    {
                        Ok(conn) => conn,
                        Err(_) => break, // accept loop closed the channel
                    };
                    load.queued.fetch_sub(1, Ordering::Relaxed);
                    let served = serve_connection(
                        conn,
                        accepted,
                        config,
                        &handler,
                        &shutdown,
                        &protocol_errors,
                        &load,
                        &trace,
                    );
                    requests.fetch_add(served, Ordering::Relaxed);
                });
            }

            for conn in listener.incoming() {
                if shutdown.is_shutdown() {
                    break; // the wake connection (or any racer) lands here
                }
                match conn {
                    Ok(stream) => {
                        // Admission gate: past the watermark a queued
                        // connection would wait for a worker with no
                        // bound, so shed it *now* with an honest 429.
                        if config.shed_watermark > 0
                            && load.queued.load(Ordering::Relaxed) >= config.shed_watermark
                        {
                            load.shed_total.fetch_add(1, Ordering::Relaxed);
                            let _ = shed_tx.send(stream);
                            continue;
                        }
                        connections += 1;
                        load.queued.fetch_add(1, Ordering::Relaxed);
                        if tx.send((stream, Instant::now())).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                    Err(_) => break,
                }
            }
            drop(tx); // workers drain queued connections, then exit
            drop(shed_tx); // the shedder drains its backlog, then exits
        });

        Ok(ServerStats {
            connections,
            requests: requests.load(Ordering::Relaxed),
        })
    }
}

/// Serves one connection for its keep-alive lifetime; returns how many
/// requests were answered.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: TcpStream,
    accepted: Instant,
    config: &HttpConfig,
    handler: &Handler,
    shutdown: &ShutdownHandle,
    protocol_errors: &AtomicU64,
    load: &LoadGauge,
    trace: &TraceHub,
) -> u64 {
    let _ = stream.set_read_timeout(Some(READ_POLL.min(config.read_timeout)));
    let _ = stream.set_nodelay(true);
    let mut served = 0u64;
    let mut parser = RequestParser::new();
    // The accept→worker handoff only the connection's first request
    // waited through; consumed by that request's queue-wait span.
    let mut queue_wait = Some((accepted, Instant::now()));
    while served < config.max_requests_per_conn as u64 && !shutdown.is_shutdown() {
        let (mut request, keep_alive, received) =
            match read_request(&mut stream, &mut parser, config, shutdown) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => break, // orderly close, idle timeout or drain
                Err(failure) => {
                    protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = write_response(&mut stream, &failure, false, None);
                    // RST-safe close: stop the client and discard what it
                    // already sent — bounded — so the close degrades to
                    // FIN and the status line survives.
                    finish_rejected(&mut stream, DrainBudget::for_rejection(config));
                    served += 1;
                    break;
                }
            };
        let parsed_at = Instant::now();
        // The trace's time axis starts where the request's wait did:
        // at accept for the connection's first request, at first byte
        // for keep-alive successors.
        let origin = match queue_wait {
            Some((enqueued, _)) => enqueued.min(received),
            None => received,
        };
        attach_trace(trace, &mut request, origin);
        let handler_span = request.trace_mut().map(|at| {
            if let Some((enqueued, dequeued)) = queue_wait {
                at.record(Stage::QueueWait, enqueued, dequeued);
            }
            at.record(Stage::Parse, received, parsed_at);
            at.record_note(
                Stage::Admission,
                parsed_at,
                parsed_at,
                Note::Load {
                    queued: load.queued.load(Ordering::Relaxed),
                    in_flight: load.in_flight.load(Ordering::Relaxed),
                    watermark: config.shed_watermark,
                },
            );
            at.begin(Stage::Handler)
        });
        queue_wait = None;
        // A handler panic must not take the worker down with it: catch,
        // serve a 500, keep the connection policy honest.
        load.in_flight.fetch_add(1, Ordering::Relaxed);
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)))
            .unwrap_or_else(|_| HttpResponse::error(500, "handler panicked"));
        load.in_flight.fetch_sub(1, Ordering::Relaxed);
        // A traced response echoes its id; the encoder writes the header.
        let trace_id = request.trace_mut().map(|at| {
            if let Some(span) = handler_span {
                at.end_with_note(span, Note::Status(response.status));
            }
            at.id()
        });
        // The advertised connection state must match what happens next:
        // the response that exhausts the per-connection request cap (or
        // lands during a drain) says `Connection: close`.
        let keep_alive = keep_alive
            && !shutdown.is_shutdown()
            && served + 1 < config.max_requests_per_conn as u64;
        served += 1;
        let write_start = Instant::now();
        let wrote = write_response(&mut stream, &response, keep_alive, trace_id);
        if let Some(cell) = request.trace.take() {
            finish_trace(trace, cell, write_start);
        }
        if wrote.is_err() || !keep_alive {
            break;
        }
    }
    served
}

/// Reads one request off the connection, feeding the shared
/// incremental parser from blocking reads. `Ok(None)` = clean end of
/// the keep-alive conversation (EOF, idle timeout before any byte, or
/// a shutdown drain reaching an idle connection); `Err(response)` = a
/// protocol violation to report before closing.
///
/// The socket's read timeout is the short [`READ_POLL`] interval, so
/// blocked reads are really a poll loop: each wake re-checks the
/// shutdown flag (an idle connection never delays a drain) and the
/// accumulated idle time against [`HttpConfig::read_timeout`].
fn read_request(
    stream: &mut TcpStream,
    parser: &mut RequestParser,
    config: &HttpConfig,
    shutdown: &ShutdownHandle,
) -> Result<Option<(HttpRequest, bool, Instant)>, HttpResponse> {
    let mut last_activity = std::time::Instant::now();
    loop {
        // Consume buffered bytes first: a pipelined request may already
        // be complete, and limit violations (431/413/…) must trip
        // before waiting on the socket.
        if let Parsed::Request {
            request,
            keep_alive,
            received,
        } = parser.advance(config)?
        {
            return Ok(Some((request, keep_alive, received)));
        }
        if parser.overdue(config) {
            return Err(RequestParser::deadline_response(config));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return match parser.eof_error() {
                    None => Ok(None),
                    Some(failure) => Err(failure),
                };
            }
            Ok(n) => {
                parser.feed(&chunk[..n]);
                last_activity = std::time::Instant::now();
            }
            Err(e) if is_timeout(&e) => {
                if parser.is_idle() && shutdown.is_shutdown() {
                    return Ok(None); // drain reached an idle connection
                }
                if last_activity.elapsed() < config.read_timeout {
                    continue; // poll tick, not a real timeout
                }
                return match parser.timeout_error() {
                    None => Ok(None), // idle keep-alive: close quietly
                    Some(failure) => Err(failure),
                };
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // Mid-body connection errors are reported (the client
                // committed to a body it never delivered); otherwise
                // close quietly like the EOF path.
                return match parser.phase() {
                    Phase::Body => Err(HttpResponse::error(400, "connection error mid-body")),
                    _ => Ok(None),
                };
            }
        }
    }
}
