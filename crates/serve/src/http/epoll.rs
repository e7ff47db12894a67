//! The event-driven `epoll` transport (Linux).
//!
//! One event-loop thread owns every connection: a nonblocking listener
//! and all admitted sockets are registered with a hand-rolled `epoll`
//! (raw `epoll_create1`/`epoll_ctl`/`epoll_wait` through `extern "C"`
//! — the workspace is offline and std-only, the same technique the
//! signal hook uses for `signal()`). Each readiness event feeds the
//! connection's incremental [`parser::RequestParser`](super::parser);
//! only *complete* requests are handed to the worker pool, so an idle
//! keep-alive connection costs an epoll registration and a parser
//! buffer instead of a parked thread — 10k idle connections,
//! worker-pool-sized thread count.
//!
//! Life of a connection:
//!
//! * **Accept.** Listener readiness drains `accept` until
//!   `WouldBlock`. The admission gate runs here exactly as in the
//!   threaded backend: past [`HttpConfig::shed_watermark`] queued
//!   jobs, the connection is shed with `429 + Retry-After` on the
//!   dedicated shedder thread. Admitted sockets go nonblocking and
//!   into a slab slot; the epoll token packs `slot | generation << 32`
//!   so events and worker completions for a recycled slot are
//!   discarded instead of misdelivered.
//! * **Read → parse → dispatch.** Readable connections are drained to
//!   `WouldBlock` into the parser. A complete request moves the
//!   connection to `InHandler`, clears its epoll interest (no HTTP/1.1
//!   multiplexing — pipelined bytes wait in the parser), and queues a
//!   job. Workers run the handler (panic-caught, `in_flight`-gauged),
//!   push the response to a completion list, and wake the loop via an
//!   `eventfd`.
//! * **Write.** Responses are serialized and written nonblocking;
//!   `WouldBlock` arms `EPOLLOUT` and resumes on writability. After a
//!   keep-alive response the parser is re-advanced immediately, so
//!   pipelined requests are served without waiting for new bytes.
//! * **Deadlines.** `epoll_wait` ticks at least every
//!   [`READ_POLL`](super::READ_POLL); a sweep applies the same budgets
//!   as the threaded backend: idle keep-alive close, per-phase 400
//!   read timeouts, [`HttpConfig::request_deadline`] → 408, and the
//!   bounded RST-safe drain after rejections.
//! * **Shutdown.** The [`ShutdownHandle`](super::ShutdownHandle) wake
//!   connection lands on the listener and wakes `epoll_wait`; the loop
//!   stops accepting, closes idle connections, lets in-flight requests
//!   finish (their responses say `Connection: close`), then joins the
//!   workers.
//!
//! [`HttpConfig::shed_watermark`]: super::HttpConfig::shed_watermark
//! [`HttpConfig::request_deadline`]: super::HttpConfig::request_deadline

use super::{Handler, ServerStats, Transport, TransportHost};

/// The event-driven epoll backend (Linux only); see the module docs.
/// On other platforms the type exists but [`Transport::serve`] (and
/// [`HttpServer::bind`](super::HttpServer::bind) with
/// [`TransportKind::Epoll`](super::TransportKind::Epoll)) return
/// `ErrorKind::Unsupported`.
pub struct EpollTransport;

impl Transport for EpollTransport {
    fn name(&self) -> &'static str {
        "epoll"
    }

    fn serve(&self, host: TransportHost, handler: Handler) -> std::io::Result<ServerStats> {
        #[cfg(target_os = "linux")]
        {
            linux::serve(host, handler)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (host, handler);
            Err(unsupported())
        }
    }
}

/// Cheap availability check run at bind time, so `serve` cannot fail
/// after a successful bind.
pub(crate) fn probe() -> std::io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        linux::Epoll::new().map(|_| ())
    }
    #[cfg(not(target_os = "linux"))]
    {
        Err(unsupported())
    }
}

#[cfg(not(target_os = "linux"))]
fn unsupported() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the epoll transport requires Linux; use the threaded transport",
    )
}

#[cfg(target_os = "linux")]
mod linux {
    use std::fs::File;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc, Mutex, PoisonError};
    use std::time::Instant;

    use scamdetect::trace::{ActiveTrace, Note, Stage};

    use crate::http::parser::{Parsed, Phase, RequestParser};
    use crate::http::{
        attach_trace, encode_response, shed_connection, DrainBudget, Handler, HttpConfig,
        HttpRequest, HttpResponse, LoadGauge, ServerStats, ShutdownHandle, TraceHub, TransportHost,
        READ_POLL,
    };

    // ───────────────────────── raw syscalls ─────────────────────────

    /// `struct epoll_event`: packed on x86-64 (the kernel ABI demands
    /// it there), naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// An owned epoll instance (closed on drop via [`OwnedFd`]).
    pub(super) struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        pub(super) fn new() -> std::io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Epoll {
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        fn del(&self, fd: RawFd) {
            // Deregistration failure is unrecoverable but harmless:
            // closing the fd removes it from the interest set anyway.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Waits up to `timeout_ms`; EINTR reads as "no events".
        fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(n as usize)
        }
    }

    /// The worker→loop wakeup: an `eventfd` the workers write after
    /// pushing a completion, registered for readability like any
    /// socket. Wrapped in [`File`] so reads/writes need no new FFI.
    struct WakeFd {
        file: Arc<File>,
    }

    impl WakeFd {
        fn new() -> std::io::Result<WakeFd> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(WakeFd {
                file: Arc::new(unsafe { File::from_raw_fd(fd) }),
            })
        }

        /// A cloneable signaller for the worker threads.
        fn signaller(&self) -> Arc<File> {
            Arc::clone(&self.file)
        }

        /// Consumes pending signals (one read zeroes the counter).
        fn drain(&self) {
            let mut buf = [0u8; 8];
            let _ = (&*self.file).read(&mut buf);
        }
    }

    fn signal_wake(file: &File) {
        let _ = { file }.write_all(&1u64.to_ne_bytes());
    }

    // ──────────────────────── the event loop ────────────────────────

    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKE: u64 = u64::MAX - 1;

    fn token(slot: usize, generation: u32) -> u64 {
        slot as u64 | (u64::from(generation) << 32)
    }

    /// A complete request bound for the worker pool.
    struct Job {
        slot: usize,
        generation: u32,
        request: HttpRequest,
        /// When the request entered the job queue — the start of its
        /// trace `queue_wait` span, ended by the worker's dequeue.
        queued_at: Instant,
    }

    /// A handler result bound for the event loop.
    struct Done {
        slot: usize,
        generation: u32,
        response: HttpResponse,
        /// The request's span collector, riding back so the event loop
        /// can record the `write` span and seal the trace once the
        /// response bytes hit the socket.
        trace: Option<ActiveTrace>,
    }

    /// What happens when a response finishes writing.
    #[derive(Clone, Copy)]
    enum AfterWrite {
        /// Re-arm for reading (and serve any pipelined request).
        KeepAlive,
        /// Orderly close (client asked, cap reached, or drain).
        Close,
        /// Protocol rejection: half-close then the bounded RST-safe
        /// drain, exactly the [`DrainBudget::for_rejection`] policy.
        Drain,
    }

    enum State {
        /// Registered for readability, accumulating a request.
        Reading,
        /// A complete request is with the worker pool; epoll interest
        /// is cleared (pipelined bytes wait in the parser).
        InHandler { keep_alive: bool },
        /// A serialized response is being written out.
        Writing {
            buf: Vec<u8>,
            off: usize,
            then: AfterWrite,
            /// The request's trace (collector + write-start instant),
            /// sealed when the final byte lands.
            trace: Option<(ActiveTrace, Instant)>,
        },
        /// Rejection sent and FIN'd; discarding the client's in-flight
        /// bytes within budget so the close stays RST-safe.
        Draining { deadline: Instant, remaining: usize },
    }

    /// Why the read side of a connection ended.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum PeerGone {
        /// Clean FIN.
        Eof,
        /// A hard socket error.
        Error,
    }

    struct Conn {
        stream: TcpStream,
        parser: RequestParser,
        generation: u32,
        state: State,
        /// Last byte movement in either direction; drives idle/read
        /// timeouts and the write-stall guard.
        last_activity: Instant,
        served: u64,
        /// Currently armed epoll interest mask.
        interest: u32,
        /// Set once the peer's read side ended; acted on only after
        /// buffered bytes are fully parsed (a complete request that
        /// arrived with a trailing FIN is still served).
        peer_gone: Option<PeerGone>,
    }

    /// What `advance_conn` decided while the connection was borrowed.
    enum ParseOutcome {
        Wait,
        Dispatch(HttpRequest, bool, Instant),
        Reject(HttpResponse),
        Close,
    }

    struct EventLoop {
        ep: Epoll,
        listener: TcpListener,
        wake: WakeFd,
        config: HttpConfig,
        shutdown: ShutdownHandle,
        protocol_errors: Arc<AtomicU64>,
        load: Arc<LoadGauge>,
        trace: Arc<TraceHub>,
        slots: Vec<Option<Conn>>,
        /// Per-slot generation counters, persisting across reuse.
        generations: Vec<u32>,
        free: Vec<usize>,
        live: usize,
        job_tx: Option<mpsc::Sender<Job>>,
        shed_tx: Option<mpsc::Sender<TcpStream>>,
        completions: Arc<Mutex<Vec<Done>>>,
        /// The completion list's other half: [`EventLoop::apply_completions`]
        /// swaps it in for the workers' list and drains it, so neither
        /// list reallocates once warm.
        drained: Vec<Done>,
        connections: u64,
        requests: u64,
        /// Set once the listener has been deregistered for shutdown.
        draining: bool,
        /// Last full slab sweep — throttles [`EventLoop::sweep`] to the
        /// [`READ_POLL`] cadence so a busy loop (which returns from
        /// `epoll_wait` far more often than the tick) does not rescan
        /// thousands of idle slots per event batch.
        last_sweep: Instant,
    }

    pub(super) fn serve(host: TransportHost, handler: Handler) -> std::io::Result<ServerStats> {
        let TransportHost {
            listener,
            config,
            shutdown,
            protocol_errors,
            load,
            trace,
        } = host;
        listener.set_nonblocking(true)?;
        let ep = Epoll::new()?;
        let wake = WakeFd::new()?;
        ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        ep.add(wake.file.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;

        let workers = config.resolved_workers();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (shed_tx, shed_rx) = mpsc::channel::<TcpStream>();
        let completions: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
        let retry_after_s = config.retry_after_s;

        let mut el = EventLoop {
            ep,
            listener,
            wake,
            config,
            shutdown,
            protocol_errors,
            load: Arc::clone(&load),
            trace,
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
            job_tx: Some(job_tx),
            shed_tx: Some(shed_tx),
            completions: Arc::clone(&completions),
            drained: Vec::new(),
            connections: 0,
            requests: 0,
            draining: false,
            last_sweep: Instant::now(),
        };

        let run = std::thread::scope(|scope| {
            // The same dedicated shedder as the threaded backend: shed
            // storms cost the event loop a channel send and nothing
            // more. (Accepted sockets start blocking — nonblocking is
            // only set on admission — so the shedder's timeout-bounded
            // blocking writes work unchanged.)
            scope.spawn(move || {
                while let Ok(stream) = shed_rx.recv() {
                    shed_connection(stream, retry_after_s);
                }
            });
            let watermark = el.config.shed_watermark;
            for _ in 0..workers {
                let job_rx = Arc::clone(&job_rx);
                let handler = Arc::clone(&handler);
                let load = Arc::clone(&load);
                let completions = Arc::clone(&completions);
                let wake = el.wake.signaller();
                scope.spawn(move || loop {
                    // Hold the receiver lock only for the dequeue.
                    let mut job = match job_rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                        Ok(job) => job,
                        Err(_) => break, // event loop dropped the sender
                    };
                    let dequeued = Instant::now();
                    load.queued.fetch_sub(1, Ordering::Relaxed);
                    load.in_flight.fetch_add(1, Ordering::Relaxed);
                    let handler_span = job.request.trace_mut().map(|at| {
                        at.record(Stage::QueueWait, job.queued_at, dequeued);
                        at.record_note(
                            Stage::Admission,
                            dequeued,
                            dequeued,
                            Note::Load {
                                queued: load.queued.load(Ordering::Relaxed),
                                in_flight: load.in_flight.load(Ordering::Relaxed),
                                watermark,
                            },
                        );
                        at.begin(Stage::Handler)
                    });
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handler(&job.request)
                    }))
                    .unwrap_or_else(|_| HttpResponse::error(500, "handler panicked"));
                    load.in_flight.fetch_sub(1, Ordering::Relaxed);
                    let trace = job
                        .request
                        .trace
                        .take()
                        .map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner))
                        .map(|mut at| {
                            if let Some(span) = handler_span {
                                at.end_with_note(span, Note::Status(response.status));
                            }
                            at
                        });
                    completions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Done {
                            slot: job.slot,
                            generation: job.generation,
                            response,
                            trace,
                        });
                    signal_wake(&wake);
                });
            }
            let run = el.run();
            // Closing the channels releases the workers and the
            // shedder whether the loop ended cleanly or not.
            el.job_tx = None;
            el.shed_tx = None;
            run
        });

        run.map(|()| ServerStats {
            connections: el.connections,
            requests: el.requests,
        })
    }

    impl EventLoop {
        fn run(&mut self) -> std::io::Result<()> {
            let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
            loop {
                let n = self.ep.wait(&mut events, READ_POLL.as_millis() as i32)?;
                for ev in events.iter().take(n) {
                    let tok = ev.data;
                    match tok {
                        TOKEN_LISTENER => self.accept_ready(),
                        TOKEN_WAKE => self.wake.drain(),
                        _ => self.conn_ready(tok),
                    }
                }
                self.apply_completions();
                if self.last_sweep.elapsed() >= READ_POLL {
                    self.sweep();
                    self.last_sweep = Instant::now();
                }
                if self.shutdown.is_shutdown() {
                    self.begin_drain();
                    if self.live == 0 {
                        return Ok(());
                    }
                }
            }
        }

        /// Drains `accept` to `WouldBlock`, shedding past the
        /// admission watermark exactly as the threaded backend does.
        fn accept_ready(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.shutdown.is_shutdown() {
                            // The shutdown wake connection (or any
                            // racer): drop unserved, like the threaded
                            // accept loop breaking.
                            drop(stream);
                            continue;
                        }
                        if self.config.shed_watermark > 0
                            && self.load.queued.load(Ordering::Relaxed)
                                >= self.config.shed_watermark
                        {
                            self.load.shed_total.fetch_add(1, Ordering::Relaxed);
                            if let Some(tx) = &self.shed_tx {
                                let _ = tx.send(stream);
                            }
                            continue;
                        }
                        self.admit(stream);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                        ) =>
                    {
                        continue
                    }
                    // Transient accept failures (fd exhaustion and
                    // kin): give up on this readiness round; the
                    // level-triggered listener retries next wake.
                    Err(_) => break,
                }
            }
        }

        fn admit(&mut self, stream: TcpStream) {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            let _ = stream.set_nodelay(true);
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.slots.push(None);
                    self.generations.push(0);
                    self.slots.len() - 1
                }
            };
            let generation = self.generations[slot].wrapping_add(1);
            self.generations[slot] = generation;
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .ep
                .add(stream.as_raw_fd(), interest, token(slot, generation))
                .is_err()
            {
                self.free.push(slot);
                return;
            }
            self.slots[slot] = Some(Conn {
                stream,
                parser: RequestParser::new(),
                generation,
                state: State::Reading,
                last_activity: Instant::now(),
                served: 0,
                interest,
                peer_gone: None,
            });
            self.live += 1;
            self.connections += 1;
        }

        /// Routes a readiness event to the connection's current state;
        /// stale tokens (recycled slots) are dropped here.
        fn conn_ready(&mut self, tok: u64) {
            let slot = (tok & u64::from(u32::MAX)) as usize;
            let generation = (tok >> 32) as u32;
            let Some(conn) = self.slots.get(slot).and_then(Option::as_ref) else {
                return;
            };
            if conn.generation != generation {
                return;
            }
            match conn.state {
                State::Reading => self.do_read(slot),
                // Interest is cleared in-handler, but EPOLLERR/HUP are
                // always delivered; defer to the write attempt, which
                // observes the dead socket and closes.
                State::InHandler { .. } => {}
                State::Writing { .. } => self.do_write(slot),
                State::Draining { .. } => self.do_drain(slot),
            }
        }

        /// Reads to `WouldBlock`, feeding the parser, then advances.
        fn do_read(&mut self, slot: usize) {
            loop {
                let Some(conn) = self.slots[slot].as_mut() else {
                    return;
                };
                let mut chunk = [0u8; 4096];
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_gone = Some(PeerGone::Eof);
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&chunk[..n]);
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.peer_gone = Some(PeerGone::Error);
                        break;
                    }
                }
            }
            self.advance_conn(slot);
        }

        /// Drives the parser: dispatches a complete request, reports a
        /// violation, or — when the bytes ran out — applies deadline
        /// and peer-gone semantics. Mirrors the threaded backend's
        /// `read_request` decision order exactly.
        fn advance_conn(&mut self, slot: usize) {
            let outcome = {
                let Some(conn) = self.slots[slot].as_mut() else {
                    return;
                };
                if !matches!(conn.state, State::Reading) {
                    return;
                }
                match conn.parser.advance(&self.config) {
                    Err(failure) => ParseOutcome::Reject(failure),
                    Ok(Parsed::Request {
                        request,
                        keep_alive,
                        received,
                    }) => ParseOutcome::Dispatch(request, keep_alive, received),
                    Ok(Parsed::NeedMore) => {
                        if conn.parser.overdue(&self.config) {
                            ParseOutcome::Reject(RequestParser::deadline_response(&self.config))
                        } else {
                            match conn.peer_gone {
                                None => ParseOutcome::Wait,
                                Some(PeerGone::Eof) => match conn.parser.eof_error() {
                                    Some(failure) => ParseOutcome::Reject(failure),
                                    None => ParseOutcome::Close, // clean FIN while idle
                                },
                                // Mid-body connection errors are
                                // reported (the client committed to a
                                // body it never delivered); otherwise
                                // close quietly like the EOF path.
                                Some(PeerGone::Error) => match conn.parser.phase() {
                                    Phase::Body => ParseOutcome::Reject(HttpResponse::error(
                                        400,
                                        "connection error mid-body",
                                    )),
                                    _ => ParseOutcome::Close,
                                },
                            }
                        }
                    }
                }
            };
            match outcome {
                ParseOutcome::Wait => {}
                ParseOutcome::Dispatch(request, keep_alive, received) => {
                    self.dispatch(slot, request, keep_alive, received)
                }
                ParseOutcome::Reject(failure) => self.reject(slot, failure),
                ParseOutcome::Close => self.close(slot),
            }
        }

        /// Hands a complete request to the worker pool and parks the
        /// connection (interest cleared) until the response lands.
        fn dispatch(
            &mut self,
            slot: usize,
            mut request: HttpRequest,
            keep_alive: bool,
            received: Instant,
        ) {
            let generation = {
                let Some(conn) = self.slots[slot].as_mut() else {
                    return;
                };
                conn.state = State::InHandler { keep_alive };
                conn.generation
            };
            self.set_interest(slot, 0);
            // Under epoll the trace's time axis starts at the request's
            // first byte (connections idle in the slab for free, so
            // accept time would charge keep-alive idle to the request).
            let parsed_at = Instant::now();
            attach_trace(&self.trace, &mut request, received);
            if let Some(at) = request.trace_mut() {
                at.record(Stage::Parse, received, parsed_at);
            }
            self.load.queued.fetch_add(1, Ordering::Relaxed);
            let sent = match &self.job_tx {
                Some(tx) => tx
                    .send(Job {
                        slot,
                        generation,
                        request,
                        queued_at: Instant::now(),
                    })
                    .is_ok(),
                None => false,
            };
            if !sent {
                self.load.queued.fetch_sub(1, Ordering::Relaxed);
                self.close(slot);
            }
        }

        /// Applies finished handler results, discarding any whose
        /// connection died (generation mismatch) in the meantime.
        fn apply_completions(&mut self) {
            let mut done = std::mem::take(&mut self.drained);
            std::mem::swap(
                &mut done,
                &mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()),
            );
            for item in done.drain(..) {
                let request_keep_alive = {
                    let Some(conn) = self.slots.get_mut(item.slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    if conn.generation != item.generation {
                        continue;
                    }
                    let State::InHandler { keep_alive } = &conn.state else {
                        continue;
                    };
                    let keep_alive = *keep_alive;
                    conn.served += 1;
                    // The advertised connection state must match what
                    // happens next: the response that exhausts the
                    // per-connection cap (or lands during a drain)
                    // says `Connection: close` — the threaded
                    // backend's rule exactly.
                    keep_alive && conn.served < self.config.max_requests_per_conn as u64
                };
                self.requests += 1;
                let keep_alive = request_keep_alive && !self.shutdown.is_shutdown();
                let then = if keep_alive {
                    AfterWrite::KeepAlive
                } else {
                    AfterWrite::Close
                };
                self.start_write(item.slot, &item.response, keep_alive, then, item.trace);
            }
            self.drained = done;
        }

        /// A protocol rejection (431/413/411/400/408): count it, write
        /// the response, then the RST-safe bounded drain.
        fn reject(&mut self, slot: usize, failure: HttpResponse) {
            self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            self.requests += 1;
            if let Some(conn) = self.slots[slot].as_mut() {
                conn.served += 1;
            }
            self.start_write(slot, &failure, false, AfterWrite::Drain, None);
        }

        fn start_write(
            &mut self,
            slot: usize,
            response: &HttpResponse,
            keep_alive: bool,
            then: AfterWrite,
            trace: Option<ActiveTrace>,
        ) {
            {
                let Some(conn) = self.slots[slot].as_mut() else {
                    return;
                };
                conn.state = State::Writing {
                    // A traced response echoes its id in `x-trace-id`.
                    buf: encode_response(response, keep_alive, trace.as_ref().map(ActiveTrace::id)),
                    off: 0,
                    then,
                    trace: trace.map(|active| (active, Instant::now())),
                };
                conn.last_activity = Instant::now();
            }
            self.do_write(slot);
        }

        /// Writes to completion or `WouldBlock` (arming `EPOLLOUT`).
        fn do_write(&mut self, slot: usize) {
            enum Step {
                Finished(AfterWrite),
                Blocked,
                Broken,
                Progress,
            }
            loop {
                let step = {
                    let Some(conn) = self.slots[slot].as_mut() else {
                        return;
                    };
                    let State::Writing { buf, off, then, .. } = &mut conn.state else {
                        return;
                    };
                    if *off >= buf.len() {
                        Step::Finished(*then)
                    } else {
                        match conn.stream.write(&buf[*off..]) {
                            Ok(n) => {
                                *off += n;
                                conn.last_activity = Instant::now();
                                Step::Progress
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => Step::Blocked,
                            Err(e) if e.kind() == ErrorKind::Interrupted => Step::Progress,
                            Err(_) => Step::Broken,
                        }
                    }
                };
                match step {
                    Step::Progress => continue,
                    Step::Finished(then) => {
                        self.finish_write(slot, then);
                        return;
                    }
                    Step::Blocked => {
                        self.set_interest(slot, EPOLLOUT);
                        return;
                    }
                    Step::Broken => {
                        self.close(slot);
                        return;
                    }
                }
            }
        }

        fn finish_write(&mut self, slot: usize, then: AfterWrite) {
            // Every response byte is on the socket: record the write
            // span and seal the trace before the state transition.
            let sealed = self.slots[slot]
                .as_mut()
                .and_then(|conn| match &mut conn.state {
                    State::Writing { trace, .. } => trace.take(),
                    _ => None,
                });
            if let Some((mut active, write_start)) = sealed {
                active.record(Stage::Write, write_start, Instant::now());
                self.trace.finish(active);
            }
            match then {
                AfterWrite::Close => self.close(slot),
                AfterWrite::KeepAlive => {
                    {
                        let Some(conn) = self.slots[slot].as_mut() else {
                            return;
                        };
                        conn.state = State::Reading;
                        conn.last_activity = Instant::now();
                    }
                    self.set_interest(slot, EPOLLIN | EPOLLRDHUP);
                    // Pipelined bytes may already hold the next
                    // request — serve it without waiting for new data.
                    self.advance_conn(slot);
                }
                AfterWrite::Drain => {
                    let budget = DrainBudget::for_rejection(&self.config);
                    {
                        let Some(conn) = self.slots[slot].as_mut() else {
                            return;
                        };
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.state = State::Draining {
                            deadline: Instant::now() + budget.window,
                            remaining: budget.max_bytes,
                        };
                    }
                    self.set_interest(slot, EPOLLIN | EPOLLRDHUP);
                    self.do_drain(slot);
                }
            }
        }

        /// The nonblocking arm of the shared RST-safe close policy:
        /// discard the client's in-flight bytes within the
        /// [`DrainBudget`] so the final close degrades to FIN and the
        /// rejection response survives.
        fn do_drain(&mut self, slot: usize) {
            enum Step {
                Finished,
                Waiting,
                Progress,
            }
            loop {
                let step = {
                    let Some(conn) = self.slots[slot].as_mut() else {
                        return;
                    };
                    let State::Draining {
                        deadline,
                        remaining,
                    } = &mut conn.state
                    else {
                        return;
                    };
                    if *remaining == 0 || Instant::now() >= *deadline {
                        Step::Finished
                    } else {
                        let mut chunk = [0u8; 4096];
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => Step::Finished, // client saw our FIN
                            Ok(n) => {
                                *remaining = remaining.saturating_sub(n);
                                Step::Progress
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => Step::Waiting,
                            Err(e) if e.kind() == ErrorKind::Interrupted => Step::Progress,
                            Err(_) => Step::Finished,
                        }
                    }
                };
                match step {
                    Step::Progress => continue,
                    Step::Waiting => return,
                    Step::Finished => {
                        self.close(slot);
                        return;
                    }
                }
            }
        }

        /// Applies time budgets across the slab; runs at least every
        /// [`READ_POLL`]. `InHandler` connections are exempt — their
        /// request fully arrived and the handler owns the clock.
        fn sweep(&mut self) {
            enum Due {
                Nothing,
                Close,
                Reject(HttpResponse),
            }
            let shutting_down = self.shutdown.is_shutdown();
            for slot in 0..self.slots.len() {
                let due = {
                    let Some(conn) = self.slots[slot].as_ref() else {
                        continue;
                    };
                    let quiet_for = conn.last_activity.elapsed();
                    match &conn.state {
                        State::Reading => {
                            if conn.parser.is_idle() {
                                if shutting_down || quiet_for > self.config.read_timeout {
                                    Due::Close // quiet idle close
                                } else {
                                    Due::Nothing
                                }
                            } else if conn.parser.overdue(&self.config) {
                                Due::Reject(RequestParser::deadline_response(&self.config))
                            } else if quiet_for > self.config.read_timeout {
                                match conn.parser.timeout_error() {
                                    Some(failure) => Due::Reject(failure),
                                    None => Due::Nothing,
                                }
                            } else {
                                Due::Nothing
                            }
                        }
                        State::InHandler { .. } => Due::Nothing,
                        // A client that stops reading its response
                        // gets the request deadline as a stall bound,
                        // then a hard close (no response can be
                        // delivered anyway).
                        State::Writing { .. } => {
                            if quiet_for > self.config.request_deadline {
                                Due::Close
                            } else {
                                Due::Nothing
                            }
                        }
                        State::Draining { deadline, .. } => {
                            if Instant::now() >= *deadline {
                                Due::Close
                            } else {
                                Due::Nothing
                            }
                        }
                    }
                };
                match due {
                    Due::Nothing => {}
                    Due::Close => self.close(slot),
                    Due::Reject(failure) => self.reject(slot, failure),
                }
            }
        }

        /// One-time shutdown work: stop watching the listener. Idle
        /// connections are closed by the sweep's `shutting_down` arm;
        /// mid-request and in-flight connections finish under their
        /// deadlines with `Connection: close` responses.
        fn begin_drain(&mut self) {
            if self.draining {
                return;
            }
            self.draining = true;
            self.ep.del(self.listener.as_raw_fd());
        }

        fn set_interest(&mut self, slot: usize, events: u32) {
            let (fd, tok, current) = {
                let Some(conn) = self.slots[slot].as_ref() else {
                    return;
                };
                (
                    conn.stream.as_raw_fd(),
                    token(slot, conn.generation),
                    conn.interest,
                )
            };
            if current == events {
                return;
            }
            if self.ep.modify(fd, events, tok).is_ok() {
                if let Some(conn) = self.slots[slot].as_mut() {
                    conn.interest = events;
                }
            }
        }

        fn close(&mut self, slot: usize) {
            if let Some(conn) = self.slots[slot].take() {
                self.ep.del(conn.stream.as_raw_fd());
                self.live -= 1;
                self.free.push(slot);
            }
        }
    }
}
