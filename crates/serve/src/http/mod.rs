//! A hand-rolled HTTP/1.1 server on [`std::net::TcpListener`], with
//! pluggable connection transports.
//!
//! The workspace is offline and std-only — no tokio, no hyper — and the
//! daemon's needs are narrow: small JSON requests, keep-alive, bounded
//! inputs, graceful shutdown. The server splits those needs across two
//! layers:
//!
//! * **The protocol layer** (this module + the private `parser`
//!   submodule): request/response
//!   types, bounded incremental HTTP/1.1 parsing, admission shedding,
//!   deadline budgets, and the RST-safe rejection close. This is shared
//!   verbatim by every transport, so limits (431/413/411/408) and drain
//!   semantics cannot drift between backends.
//! * **The connection layer** (the [`Transport`] trait): who owns the
//!   accept/read/write/shutdown lifecycle. Two backends ship:
//!   [`ThreadedTransport`] — a blocking worker pool where each worker
//!   owns a connection for its keep-alive lifetime (portable, the
//!   default) — and [`EpollTransport`] — a nonblocking `epoll`
//!   readiness loop (Linux) where idle connections cost a registration
//!   and a parser buffer instead of a thread, and only *complete*
//!   requests are handed to the worker pool.
//!
//! Select a backend with [`HttpConfig::transport`] (or the
//! `SCAMDETECT_TRANSPORT` environment variable, which the default
//! honors so whole test suites can be pointed at a backend without
//! touching call sites). Both backends serve identical responses for
//! identical inputs; the conformance suite in
//! `tests/transport_conformance.rs` holds them to that.

mod epoll;
mod parser;
mod threaded;

pub use epoll::EpollTransport;
pub use threaded::ThreadedTransport;

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::LatencyHistogram;
use scamdetect::trace::{ActiveTrace, Note, Sampler, Stage, Trace, TraceId, TraceRing};

/// Which connection backend a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Blocking worker pool: one pool thread owns each admitted
    /// connection for its whole keep-alive lifetime. Portable, simple,
    /// and right-sized when connection counts stay near worker counts.
    Threaded,
    /// Nonblocking `epoll` readiness loop (Linux only): one event-loop
    /// thread owns every connection and hands complete requests to the
    /// worker pool, so 10k idle keep-alive connections cost 10k epoll
    /// registrations, not 10k threads.
    Epoll,
}

impl TransportKind {
    /// The flag/env spelling of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportKind::Threaded => "threads",
            TransportKind::Epoll => "epoll",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TransportKind, String> {
        match s {
            "threads" | "threaded" => Ok(TransportKind::Threaded),
            "epoll" => Ok(TransportKind::Epoll),
            other => Err(format!(
                "unknown transport '{other}' (expected 'threads' or 'epoll')"
            )),
        }
    }
}

impl Default for TransportKind {
    /// Honors `SCAMDETECT_TRANSPORT` (`threads` | `epoll`) so existing
    /// suites and deployments can switch backends without touching
    /// call sites; anything unset or unrecognized means [`Threaded`],
    /// the portable backend.
    ///
    /// [`Threaded`]: TransportKind::Threaded
    fn default() -> TransportKind {
        std::env::var("SCAMDETECT_TRANSPORT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(TransportKind::Threaded)
    }
}

/// Server knobs. The defaults suit a loopback scanning daemon.
///
/// Construct via [`HttpConfig::builder`] for validated settings, or
/// `Default` + struct-update syntax when the values are known-good
/// literals (tests, fixed deployments).
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads owning request handling; 0 = available
    /// parallelism.
    pub workers: usize,
    /// Largest accepted request body (413 beyond). Bytecode arrives
    /// hex- or base64-encoded, so 8 MiB covers multi-megabyte contracts.
    pub max_body_bytes: usize,
    /// Largest accepted header block (431 beyond).
    pub max_header_bytes: usize,
    /// Idle keep-alive / mid-request read timeout (no bytes at all for
    /// this long ends the read).
    pub read_timeout: Duration,
    /// Hard wall-clock cap on receiving one complete request. The idle
    /// timeout alone cannot stop a slow-drip client (1 byte per
    /// `read_timeout` resets it forever, pinning a pool worker); once a
    /// request's first byte arrives, the whole thing must land within
    /// this deadline or the connection gets a 408 and closes.
    pub request_deadline: Duration,
    /// Requests served per connection before an orderly close (bounds
    /// the damage of a client that never disconnects).
    pub max_requests_per_conn: usize,
    /// Admission watermark: work queued at the accept→worker handoff
    /// beyond which new connections are **shed** with
    /// `429 + Retry-After` instead of queueing unboundedly. Under the
    /// threaded backend the queue holds connections waiting for a
    /// worker; under epoll it holds complete requests waiting for one —
    /// either way, past the watermark the wait is unbounded and an
    /// honest early 429 beats a silent queue. `0` disables shedding
    /// (the pre-admission-control behavior).
    pub shed_watermark: usize,
    /// Seconds suggested in `Retry-After` on shed (429) and
    /// slow-request (408) responses.
    pub retry_after_s: u32,
    /// Which connection backend serves this config. Defaults to
    /// [`TransportKind::Threaded`] unless `SCAMDETECT_TRANSPORT`
    /// overrides it.
    pub transport: TransportKind,
    /// Head-sampling cadence for request tracing: keep 1 trace in every
    /// `trace_sample` into the completed-trace ring. `0` disables
    /// tracing entirely (no spans recorded, no `x-trace-id` echoed).
    /// Requests slower than [`HttpConfig::trace_slow_us`] and requests
    /// arriving with an `x-trace-id` header are kept regardless.
    pub trace_sample: u32,
    /// Slow-trace override, µs: a request whose end-to-end time meets
    /// this threshold is kept even when head sampling passed on it.
    /// `0` disables the override.
    pub trace_slow_us: u64,
    /// Capacity of the bounded completed-trace ring served by
    /// `GET /trace/recent` and `GET /trace/<id>`.
    pub trace_ring: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            max_body_bytes: 8 << 20,
            max_header_bytes: 16 << 10,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            max_requests_per_conn: 10_000,
            shed_watermark: 256,
            retry_after_s: 1,
            transport: TransportKind::default(),
            trace_sample: 16,
            trace_slow_us: 50_000,
            trace_ring: 256,
        }
    }
}

impl HttpConfig {
    /// A validating builder: the setters accept anything, and
    /// [`HttpConfigBuilder::build`] rejects configurations that would
    /// bind a server only to misbehave (zero workers, a shed watermark
    /// below the pool size, zero timeouts or limits).
    pub fn builder() -> HttpConfigBuilder {
        HttpConfigBuilder {
            config: HttpConfig::default(),
            workers_explicit: false,
        }
    }

    /// The worker-thread count this config resolves to (0 = available
    /// parallelism, floor 2 — shared by every transport so pool sizing
    /// cannot drift between backends).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            self.workers
        }
    }
}

/// A rejected [`HttpConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers(0)` was requested explicitly. Zero is the *internal*
    /// "auto" sentinel; a caller writing 0 almost always meant a
    /// computed value that collapsed unexpectedly — omit the call to
    /// get auto-sizing instead.
    ZeroWorkers,
    /// The shed watermark is below the worker-pool size: the server
    /// would shed traffic while workers sit idle.
    WatermarkBelowWorkers { watermark: usize, workers: usize },
    /// A timeout was zero (`read_timeout` / `request_deadline`), which
    /// would time out every request instantly.
    ZeroTimeout(&'static str),
    /// A size or count limit was zero (`max_body_bytes`,
    /// `max_header_bytes`, `max_requests_per_conn`), which would
    /// reject or close everything.
    ZeroLimit(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => {
                write!(
                    f,
                    "workers must be nonzero (omit the setting for auto-sizing)"
                )
            }
            ConfigError::WatermarkBelowWorkers { watermark, workers } => write!(
                f,
                "shed watermark {watermark} is below the worker pool size {workers}: \
                 the server would shed while workers sit idle"
            ),
            ConfigError::ZeroTimeout(name) => write!(f, "{name} must be nonzero"),
            ConfigError::ZeroLimit(name) => write!(f, "{name} must be nonzero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`HttpConfig`]; see [`HttpConfig::builder`].
#[derive(Debug, Clone)]
pub struct HttpConfigBuilder {
    config: HttpConfig,
    workers_explicit: bool,
}

impl HttpConfigBuilder {
    /// Bind address; port 0 picks an ephemeral port.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Worker threads. Omit for auto-sizing (available parallelism);
    /// an explicit 0 is rejected at [`HttpConfigBuilder::build`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self.workers_explicit = true;
        self
    }

    /// Largest accepted request body (413 beyond).
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.config.max_body_bytes = bytes;
        self
    }

    /// Largest accepted header block (431 beyond).
    pub fn max_header_bytes(mut self, bytes: usize) -> Self {
        self.config.max_header_bytes = bytes;
        self
    }

    /// Idle keep-alive / mid-request read timeout.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Hard wall-clock cap on receiving one complete request.
    pub fn request_deadline(mut self, deadline: Duration) -> Self {
        self.config.request_deadline = deadline;
        self
    }

    /// Requests served per connection before an orderly close.
    pub fn max_requests_per_conn(mut self, limit: usize) -> Self {
        self.config.max_requests_per_conn = limit;
        self
    }

    /// Admission watermark (0 disables shedding).
    pub fn shed_watermark(mut self, watermark: usize) -> Self {
        self.config.shed_watermark = watermark;
        self
    }

    /// Seconds suggested in `Retry-After` on 429/408 responses.
    pub fn retry_after_s(mut self, seconds: u32) -> Self {
        self.config.retry_after_s = seconds;
        self
    }

    /// Which connection backend serves this config.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.config.transport = transport;
        self
    }

    /// Head-sampling cadence: keep 1 trace in `every` (0 disables
    /// tracing).
    pub fn trace_sample(mut self, every: u32) -> Self {
        self.config.trace_sample = every;
        self
    }

    /// Slow-trace keep threshold, µs (0 disables the override).
    pub fn trace_slow_us(mut self, micros: u64) -> Self {
        self.config.trace_slow_us = micros;
        self
    }

    /// Completed-trace ring capacity.
    pub fn trace_ring(mut self, capacity: usize) -> Self {
        self.config.trace_ring = capacity;
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on zero workers (explicitly set), a shed
    /// watermark below an explicitly sized pool, or zero
    /// timeouts/limits.
    pub fn build(self) -> Result<HttpConfig, ConfigError> {
        let c = &self.config;
        if self.workers_explicit && c.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if c.shed_watermark > 0 && c.workers > 0 && c.shed_watermark < c.workers {
            return Err(ConfigError::WatermarkBelowWorkers {
                watermark: c.shed_watermark,
                workers: c.workers,
            });
        }
        if c.read_timeout.is_zero() {
            return Err(ConfigError::ZeroTimeout("read_timeout"));
        }
        if c.request_deadline.is_zero() {
            return Err(ConfigError::ZeroTimeout("request_deadline"));
        }
        if c.max_body_bytes == 0 {
            return Err(ConfigError::ZeroLimit("max_body_bytes"));
        }
        if c.max_header_bytes == 0 {
            return Err(ConfigError::ZeroLimit("max_header_bytes"));
        }
        if c.max_requests_per_conn == 0 {
            return Err(ConfigError::ZeroLimit("max_requests_per_conn"));
        }
        Ok(self.config)
    }
}

/// Live load observed by the server, shared out for metrics scrapes
/// and the admission gate. All relaxed atomics — the counters steer
/// shedding and dashboards, not correctness.
#[derive(Debug, Default)]
pub struct LoadGauge {
    /// Work handed to the accept→worker channel and not yet picked up
    /// by a worker (the unbounded queue the shed watermark bounds):
    /// connections under the threaded backend, complete requests under
    /// epoll.
    pub queued: AtomicUsize,
    /// Requests currently inside a route handler.
    pub in_flight: AtomicUsize,
    /// Connections answered `429 + Retry-After` at the admission gate.
    pub shed_total: AtomicU64,
}

/// The server's tracing surface: the head sampler, the bounded
/// completed-trace ring, and per-stage latency histograms folded from
/// every finished trace (sampled or not — recording is per-request,
/// *keeping* is sampled/slow/forced). One hub per [`HttpServer`],
/// shared by the transport, the route handler (for `/trace/*`) and the
/// metrics scrape.
///
/// Every request of a traced server pays for an id, a span collector
/// carried inside the request (no heap allocation, no formatting) and
/// the stage-histogram updates at finish. Only a kept trace pays for
/// the immutable [`Trace`]: its span list, its note texts, a wall-clock
/// read and a ring slot.
#[derive(Debug)]
pub struct TraceHub {
    sampler: Sampler,
    ring: TraceRing,
    stage_hist: Vec<LatencyHistogram>,
}

impl TraceHub {
    pub fn new(sample_every: u32, slow_us: u64, ring_capacity: usize) -> TraceHub {
        TraceHub {
            sampler: Sampler::new(sample_every, slow_us),
            ring: TraceRing::new(ring_capacity),
            stage_hist: Stage::ALL.iter().map(|_| LatencyHistogram::new()).collect(),
        }
    }

    fn from_config(config: &HttpConfig) -> TraceHub {
        TraceHub::new(config.trace_sample, config.trace_slow_us, config.trace_ring)
    }

    /// False when tracing is disabled (`trace_sample == 0`).
    pub fn enabled(&self) -> bool {
        self.sampler.enabled()
    }

    /// The configured head-sampling cadence (0 = off).
    pub fn sample_every(&self) -> u32 {
        self.sampler.every()
    }

    /// The slow-trace keep threshold, µs.
    pub fn slow_us(&self) -> u64 {
        self.sampler.slow_us()
    }

    /// Opens a trace for one request. `forced` carries an upstream id
    /// from `x-trace-id` — such traces are always kept, so a router (or
    /// an operator with `curl -H`) can demand capture end to end.
    /// Returns `None` when tracing is disabled.
    pub fn begin(&self, origin: Instant, forced: Option<TraceId>) -> Option<ActiveTrace> {
        if !self.sampler.enabled() {
            return None;
        }
        let sampled = self.sampler.sample();
        Some(match forced {
            Some(id) => ActiveTrace::start(id, origin, sampled, true),
            None => ActiveTrace::start(TraceId::generate(), origin, sampled, false),
        })
    }

    /// Seals a trace: folds every span into the per-stage histograms,
    /// then keeps it in the ring iff head-sampled, slow, or forced. A
    /// trace that is not kept is never built.
    pub fn finish(&self, active: ActiveTrace) {
        let id = Some(active.id());
        let kept = active.seal(Instant::now(), self.sampler.slow_us(), |stage, us| {
            self.stage_hist[stage.index()].record_with_trace(us, id)
        });
        if let Some(trace) = kept {
            self.ring.push(Arc::new(trace));
        }
    }

    /// Newest-first snapshot of up to `limit` kept traces.
    pub fn recent(&self, limit: usize) -> Vec<Arc<Trace>> {
        self.ring.recent(limit)
    }

    /// A kept trace by id, if still in the ring.
    pub fn find(&self, id: TraceId) -> Option<Arc<Trace>> {
        self.ring.find(id)
    }

    /// Traces kept in / dropped at the ring since start.
    pub fn ring_counts(&self) -> (u64, u64) {
        (self.ring.kept(), self.ring.dropped())
    }

    /// Per-stage duration histograms in [`Stage::ALL`] order, for the
    /// metrics scrape.
    pub fn stage_histograms(&self) -> impl Iterator<Item = (Stage, &LatencyHistogram)> {
        Stage::ALL.iter().copied().zip(self.stage_hist.iter())
    }
}

/// Attaches a span collector to a freshly parsed request when the hub
/// elects to trace it. `origin` anchors the trace's time axis (accept
/// time for a connection's first request, first byte otherwise).
pub(crate) fn attach_trace(hub: &TraceHub, request: &mut HttpRequest, origin: Instant) {
    let forced = request.header("x-trace-id").and_then(TraceId::parse);
    if let Some(active) = hub.begin(origin, forced) {
        request.trace = Some(Mutex::new(active));
    }
}

/// Seals a request's trace after its response bytes hit the socket:
/// records the `write` span and hands the trace to the hub.
pub(crate) fn finish_trace(hub: &TraceHub, cell: Mutex<ActiveTrace>, write_start: Instant) {
    let mut active = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
    active.record(Stage::Write, write_start, Instant::now());
    hub.finish(active);
}

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Header list with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// The request's span collector when tracing elected it, attached
    /// by the transport before dispatch. Handlers receive `&HttpRequest`
    /// so the collector sits behind a `Mutex` — uncontended in practice
    /// (one request, one thread at a time), it exists purely for
    /// interior mutability.
    pub trace: Option<Mutex<ActiveTrace>>,
}

impl HttpRequest {
    /// First header value under `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Runs `f` against the span collector, if this request is traced.
    pub fn with_trace<R>(&self, f: impl FnOnce(&mut ActiveTrace) -> R) -> Option<R> {
        self.trace
            .as_ref()
            .map(|cell| f(&mut cell.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// The span collector, when traced, without taking its lock: the
    /// transport owns the request outside the handler.
    pub(crate) fn trace_mut(&mut self) -> Option<&mut ActiveTrace> {
        self.trace
            .as_mut()
            .map(|cell| cell.get_mut().unwrap_or_else(PoisonError::into_inner))
    }

    /// This request's trace id, when traced.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.with_trace(|at| at.id())
    }

    /// Records an already-measured interval as a closed child span.
    pub fn trace_record(&self, stage: Stage, start: Instant, end: Instant) {
        self.with_trace(|at| at.record(stage, start, end));
    }

    /// [`HttpRequest::trace_record`] with a note.
    pub fn trace_record_note(
        &self,
        stage: Stage,
        start: Instant,
        end: Instant,
        note: impl Into<Note>,
    ) {
        self.with_trace(|at| at.record_note(stage, start, end, note));
    }
}

/// One response to write.
#[derive(Debug)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value) beyond the always-present
    /// `Content-Type`/`Content-Length`/`Connection` trio — e.g. the
    /// fleet router's `Retry-After` on 503.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, value: &crate::json::Json) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: value.render().into_bytes(),
        }
    }

    /// A JSON response whose body is already rendered.
    pub fn json_rendered(status: u16, body: String) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse::json(
            status,
            &crate::json::obj([("error", crate::json::Json::from(message))]),
        )
    }

    /// Attaches one extra response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> HttpResponse {
        self.headers.push((name, value.into()));
        self
    }
}

pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The route handler: pure request → response. Panics inside the
/// handler are caught per request and served as 500s (the worker and
/// its connection survive).
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// Cloneable trigger for a graceful stop. Triggering is cheap,
/// idempotent and safe from any thread (an atomic store plus a wake
/// connection), so signal watchers and tests share the same mechanism.
/// The wake connection lands on the listener, which unblocks both the
/// threaded backend's `accept` and the epoll backend's `epoll_wait`.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ShutdownState>,
}

struct ShutdownState {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown: no new connections are accepted, in-flight
    /// requests finish, [`HttpServer::serve`] returns after joining its
    /// workers.
    pub fn shutdown(&self) {
        if !self.state.flag.swap(true, Ordering::SeqCst) {
            // Wake the blocked accept/poll with a throwaway connection;
            // if the listener is already gone the store alone suffices.
            let _ = TcpStream::connect_timeout(&self.state.addr, Duration::from_millis(250));
        }
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.flag.load(Ordering::SeqCst)
    }
}

/// Counters accumulated over a server's lifetime, returned by
/// [`HttpServer::serve`] so callers can assert on clean shutdown.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (shed connections are not counted).
    pub connections: u64,
    /// Requests parsed and answered (any status).
    pub requests: u64,
}

/// Everything a [`Transport`] needs to run a bound server: the
/// listener plus the shared observability and control surfaces
/// [`HttpServer`] exposes. Handed to [`Transport::serve`] by
/// [`HttpServer::serve_with`].
pub struct TransportHost {
    /// The bound listener the transport accepts on.
    pub listener: TcpListener,
    /// The server's configuration.
    pub config: HttpConfig,
    /// The graceful-stop flag; transports must re-check it between
    /// requests and drain promptly when it flips.
    pub shutdown: ShutdownHandle,
    /// Counter of rejections decided below the route handler
    /// (malformed request lines, 431/413/411/408).
    pub protocol_errors: Arc<AtomicU64>,
    /// Queue-depth / in-flight / shed gauges feeding the admission
    /// gate and metrics.
    pub load: Arc<LoadGauge>,
    /// The tracing surface: sampler, completed-trace ring, per-stage
    /// histograms. Transports attach collectors to elected requests and
    /// seal them after the response write.
    pub trace: Arc<TraceHub>,
}

/// A connection backend: owns the accept → read → dispatch → write →
/// shutdown lifecycle for every connection of a running server.
///
/// Implementations must preserve the protocol layer's observable
/// behavior — identical status codes and bodies for identical inputs,
/// admission shedding at [`HttpConfig::shed_watermark`], deadline
/// budgets, and graceful drain — so callers can switch backends
/// freely. The conformance suite (`tests/transport_conformance.rs`)
/// runs the same cases against every shipped backend.
pub trait Transport {
    /// The backend's flag/env spelling (`"threads"`, `"epoll"`).
    fn name(&self) -> &'static str;

    /// Serves until shutdown, then returns lifetime counters.
    ///
    /// # Errors
    ///
    /// Setup failures only (e.g. the backend is unsupported on this
    /// platform); once serving, errors are per-connection and
    /// swallowed.
    fn serve(&self, host: TransportHost, handler: Handler) -> std::io::Result<ServerStats>;
}

/// A bound-but-not-yet-serving HTTP server.
pub struct HttpServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: HttpConfig,
    shutdown: ShutdownHandle,
    /// Rejections decided *below* the route handler (malformed request
    /// line, 431/413/411/408): the handler's own error accounting never
    /// sees these, so the count is shared out via
    /// [`HttpServer::protocol_error_counter`] for metrics scrapes.
    protocol_errors: Arc<AtomicU64>,
    /// Queue depth / in-flight / shed counters, shared out via
    /// [`HttpServer::load_gauge`].
    load: Arc<LoadGauge>,
    /// Tracing surface, shared out via [`HttpServer::trace_hub`].
    trace: Arc<TraceHub>,
}

impl HttpServer {
    /// Binds the configured address (resolving `:0` to a real port)
    /// and verifies the configured transport is available, so
    /// [`HttpServer::serve`] cannot fail after a successful bind.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; `ErrorKind::Unsupported` when
    /// [`HttpConfig::transport`] is [`TransportKind::Epoll`] on a
    /// platform without epoll.
    pub fn bind(config: HttpConfig) -> std::io::Result<HttpServer> {
        if config.transport == TransportKind::Epoll {
            epoll::probe()?;
        }
        let addr =
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidInput, "unresolvable address")
            })?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let trace = Arc::new(TraceHub::from_config(&config));
        Ok(HttpServer {
            listener,
            local_addr,
            config,
            shutdown: ShutdownHandle {
                state: Arc::new(ShutdownState {
                    flag: AtomicBool::new(false),
                    addr: local_addr,
                }),
            },
            protocol_errors: Arc::new(AtomicU64::new(0)),
            load: Arc::new(LoadGauge::default()),
            trace,
        })
    }

    /// The bound address (the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops this server gracefully.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Live count of protocol-level rejections (4xx decided before the
    /// route handler runs: malformed request lines, 431/413/411/408).
    /// Clone it before [`HttpServer::serve`] to fold into metrics.
    pub fn protocol_error_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.protocol_errors)
    }

    /// Live queue-depth / in-flight / shed counters (clone before
    /// [`HttpServer::serve`] to fold into metrics).
    pub fn load_gauge(&self) -> Arc<LoadGauge> {
        Arc::clone(&self.load)
    }

    /// The tracing surface (sampler, completed-trace ring, per-stage
    /// histograms). Clone before [`HttpServer::serve`] to route
    /// `/trace/*` requests and fold stage histograms into metrics.
    pub fn trace_hub(&self) -> Arc<TraceHub> {
        Arc::clone(&self.trace)
    }

    /// Serves until shutdown on the transport named by
    /// [`HttpConfig::transport`], returns lifetime counters.
    pub fn serve(self, handler: Handler) -> ServerStats {
        let transport: &dyn Transport = match self.config.transport {
            TransportKind::Threaded => &ThreadedTransport,
            TransportKind::Epoll => &EpollTransport,
        };
        self.serve_with(transport, handler)
            .expect("transport availability was verified at bind time")
    }

    /// Serves until shutdown on an explicit [`Transport`] (the seam
    /// for out-of-tree backends; [`HttpServer::serve`] is this with
    /// the configured built-in).
    ///
    /// # Errors
    ///
    /// The transport's setup failure, if any.
    pub fn serve_with(
        self,
        transport: &dyn Transport,
        handler: Handler,
    ) -> std::io::Result<ServerStats> {
        transport.serve(
            TransportHost {
                listener: self.listener,
                config: self.config,
                shutdown: self.shutdown,
                protocol_errors: self.protocol_errors,
                load: self.load,
                trace: self.trace,
            },
            handler,
        )
    }
}

/// How often a blocked read wakes to re-check the shutdown flag (and
/// the epoll loop's poll tick). A connection parked idle notices a
/// drain within this interval instead of holding shutdown hostage for
/// the full idle timeout.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// Bounds on the post-rejection drain: how many client bytes to
/// discard, for how long, before closing a connection that was just
/// served an error. One policy shared by the shed path and both
/// transports' error paths, so the 429/408 close semantics cannot
/// drift.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrainBudget {
    /// Discard at most this many bytes.
    pub max_bytes: usize,
    /// Stop draining after this long regardless.
    pub window: Duration,
}

impl DrainBudget {
    /// The budget after a protocol-error response: the client may have
    /// a whole announced body in flight (a 413's natural fate), so
    /// allow one max body plus slack, bounded by the read timeout.
    pub(crate) fn for_rejection(config: &HttpConfig) -> DrainBudget {
        DrainBudget {
            max_bytes: config.max_body_bytes + (64 << 10),
            window: config.read_timeout,
        }
    }

    /// The budget after an admission-gate 429: the connection was shed
    /// *before* reading anything, so whatever is in flight is small —
    /// keep the shedder thread's per-connection cost tightly bounded.
    pub(crate) fn for_shed() -> DrainBudget {
        DrainBudget {
            max_bytes: 64 << 10,
            window: Duration::from_millis(250),
        }
    }
}

/// Finishes a connection that was just served a rejection (429, 408,
/// 4xx protocol error): half-close, drain within `budget`, close.
///
/// The close must not be an immediate teardown: closing a socket with
/// the client's unread request bytes still buffered makes the kernel
/// send RST, which can destroy the response before the client reads
/// it. Sending FIN first and then draining (briefly — the budget
/// bounds a malicious dribbler) lets the response land and the
/// connection die with a clean FIN exchange.
pub(crate) fn finish_rejected(stream: &mut TcpStream, budget: DrainBudget) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(READ_POLL.min(budget.window)));
    let deadline = Instant::now() + budget.window;
    let mut remaining = budget.max_bytes;
    let mut chunk = [0u8; 4096];
    while remaining > 0 && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => break, // client saw our FIN and closed too
            Ok(n) => remaining = remaining.saturating_sub(n),
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Answers a connection the admission gate rejected: a one-line 429
/// with `Retry-After`, then the RST-safe [`finish_rejected`] close.
/// Runs on a dedicated shedder thread with every step timeout-bounded,
/// so a slow client can neither stall the accept path nor hold the
/// shedder hostage.
pub(crate) fn shed_connection(mut stream: TcpStream, retry_after_s: u32) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let response = HttpResponse::error(429, "server saturated; retry later")
        .with_header("Retry-After", retry_after_s.to_string());
    let _ = write_response(&mut stream, &response, false, None);
    finish_rejected(&mut stream, DrainBudget::for_shed());
}

pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Head bytes of every response besides its variable parts: the status
/// line, the three framing headers and the blank line, with room for a
/// five-digit status and a twenty-digit length.
const HEAD_FIXED_BYTES: usize =
    "HTTP/1.1 00000 \r\nContent-Type: \r\nContent-Length: \r\nConnection: \r\n\r\n".len() + 20;

/// The `x-trace-id` header line with its 16 digits.
const TRACE_HEADER_BYTES: usize = "x-trace-id: \r\n".len() + 16;

/// Serializes the status line, framing headers, extras, the request's
/// `x-trace-id` (after the extras, when the request is traced) and the
/// body into one buffer sized up front — the one wire encoding both
/// transports emit.
pub(crate) fn encode_response(
    response: &HttpResponse,
    keep_alive: bool,
    trace: Option<TraceId>,
) -> Vec<u8> {
    use std::io::Write as _;
    let reason = status_reason(response.status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let extras: usize = response
        .headers
        .iter()
        .map(|(name, value)| name.len() + ": \r\n".len() + value.len())
        .sum();
    let mut out = Vec::with_capacity(
        HEAD_FIXED_BYTES
            + reason.len()
            + response.content_type.len()
            + connection.len()
            + extras
            + trace.map_or(0, |_| TRACE_HEADER_BYTES)
            + response.body.len(),
    );
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        response.status,
        response.content_type,
        response.body.len(),
    );
    for (name, value) in &response.headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    if let Some(id) = trace {
        out.extend_from_slice(b"x-trace-id: ");
        out.extend_from_slice(&id.hex_digits());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
    out
}

pub(crate) fn write_response(
    stream: &mut TcpStream,
    response: &HttpResponse,
    keep_alive: bool,
    trace: Option<TraceId>,
) -> std::io::Result<()> {
    stream.write_all(&encode_response(response, keep_alive, trace))?;
    stream.flush()
}

// ───────────────────────── signal handling ─────────────────────────

/// The process-wide "a termination signal arrived" flag. Signal
/// handlers may only do async-signal-safe work; a relaxed store is.
static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_termination_signal(_signum: i32) {
    SIGNAL_FLAG.store(true, Ordering::Relaxed);
}

/// Installs SIGINT/SIGTERM hooks (libc `signal`, linked by std on every
/// unix target — no crate dependency) and spawns a watcher thread that
/// converts the flag into a graceful [`ShutdownHandle::shutdown`].
///
/// On non-unix targets this is a no-op: ctrl-c falls back to the OS
/// default of killing the process.
pub fn shutdown_on_signals(handle: ShutdownHandle) {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_termination_signal);
            signal(SIGTERM, on_termination_signal);
        }
    }
    std::thread::spawn(move || loop {
        // `swap` consumes the flag: a later daemon in the same process
        // must not be shut down by a signal its predecessor absorbed.
        if SIGNAL_FLAG.swap(false, Ordering::Relaxed) || handle.is_shutdown() {
            handle.shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, Json};
    use std::io::{BufRead, BufReader};

    fn echo_server(
        config: HttpConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServerStats>,
    ) {
        let server = HttpServer::bind(config).expect("binds");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || {
            server.serve(Arc::new(|req: &HttpRequest| match req.path.as_str() {
                "/echo" => HttpResponse::json(
                    200,
                    &obj([
                        ("method", Json::from(req.method.as_str())),
                        ("len", Json::from(req.body.len())),
                    ]),
                ),
                "/panic" => panic!("handler exploded"),
                _ => HttpResponse::error(404, "no such route"),
            }))
        });
        (addr, handle, join)
    }

    fn raw_round_trip(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(request.as_bytes()).expect("writes");
        let mut reply = String::new();
        let mut reader = BufReader::new(stream);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => reply.push_str(&line),
                Err(_) => break,
            }
        }
        reply
    }

    #[test]
    fn serves_parses_and_shuts_down_cleanly() {
        let (addr, handle, join) = echo_server(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            read_timeout: Duration::from_millis(500),
            ..HttpConfig::default()
        });

        let reply = raw_round_trip(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains(r#""len":5"#), "{reply}");

        let reply = raw_round_trip(addr, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");

        handle.shutdown();
        let stats = join.join().expect("server thread joins");
        assert!(stats.requests >= 2);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let (addr, handle, join) = echo_server(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            read_timeout: Duration::from_millis(500),
            ..HttpConfig::default()
        });
        let mut stream = TcpStream::connect(addr).expect("connects");
        for i in 0..3 {
            let body = "x".repeat(i + 1);
            let req = format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(req.as_bytes()).expect("writes");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut status = String::new();
            reader.read_line(&mut status).expect("status line");
            assert!(status.starts_with("HTTP/1.1 200"), "req {i}: {status}");
            // Drain headers + the exact body, leaving the stream clean.
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("header line");
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().expect("length");
                }
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).expect("body");
        }
        handle.shutdown();
        let stats = join.join().expect("joins");
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn size_limits_and_bad_requests_are_typed_statuses() {
        let (addr, handle, join) = echo_server(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_body_bytes: 64,
            max_header_bytes: 256,
            read_timeout: Duration::from_millis(300),
            ..HttpConfig::default()
        });

        let reply = raw_round_trip(
            addr,
            "POST /echo HTTP/1.1\r\nContent-Length: 100000\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

        let big_header = format!("GET /echo HTTP/1.1\r\nX-Big: {}\r\n\r\n", "y".repeat(1000));
        let reply = raw_round_trip(addr, &big_header);
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");

        let reply = raw_round_trip(addr, "BROKEN\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

        // Duplicate Content-Length is a smuggling vector: rejected.
        let reply = raw_round_trip(
            addr,
            "POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 20\r\n\r\nhi",
        );
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

        // An oversized upload must still *receive* its 413: the server
        // drains the announced body instead of RST-ing the response.
        let mut stream = TcpStream::connect(addr).expect("connects");
        let body = vec![b'x'; 300];
        stream
            .write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 300\r\n\r\n")
            .expect("head");
        stream.write_all(&body).expect("body");
        let mut reply = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut reply).expect("status line arrives");
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

        let reply = raw_round_trip(
            addr,
            "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 411"), "{reply}");

        handle.shutdown();
        join.join().expect("joins");
    }

    #[test]
    fn handler_panic_becomes_500_not_a_dead_worker() {
        let (addr, handle, join) = echo_server(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            read_timeout: Duration::from_millis(500),
            ..HttpConfig::default()
        });
        let reply = raw_round_trip(addr, "GET /panic HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        // The single worker must still be alive to serve this.
        let reply = raw_round_trip(
            addr,
            "POST /echo HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        handle.shutdown();
        join.join().expect("joins");
    }

    #[test]
    fn admission_gate_sheds_past_the_watermark_with_429() {
        let server = HttpServer::bind(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            shed_watermark: 1,
            retry_after_s: 3,
            read_timeout: Duration::from_millis(500),
            transport: TransportKind::Threaded,
            ..HttpConfig::default()
        })
        .expect("binds");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let load = server.load_gauge();
        let join = std::thread::spawn(move || {
            server.serve(Arc::new(|_req: &HttpRequest| {
                std::thread::sleep(Duration::from_millis(600));
                HttpResponse::text(200, "finally")
            }))
        });

        // Occupy the single worker and wait until its handler is truly
        // in flight (so the next connection parks in the queue instead
        // of racing the dequeue).
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut busy = TcpStream::connect(addr).expect("connects");
        busy.write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("writes");
        while load.in_flight.load(Ordering::Relaxed) < 1 {
            assert!(
                Instant::now() < deadline,
                "the busy request never reached the handler"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Park one more connection in the queue: that reaches the
        // watermark. (Transport pinned to threaded above: only there
        // does a connection itself occupy the queue — under epoll the
        // queue holds complete requests, covered by the conformance
        // suite.)
        let _parked = TcpStream::connect(addr).expect("connects");
        while load.queued.load(Ordering::Relaxed) < 1 {
            assert!(
                Instant::now() < deadline,
                "the parked connection never reached the queue"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // The next connection must be shed immediately with 429.
        let reply = raw_round_trip(addr, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 429"), "{reply}");
        assert!(reply.contains("Retry-After: 3"), "{reply}");
        assert_eq!(load.shed_total.load(Ordering::Relaxed), 1);

        handle.shutdown();
        join.join().expect("joins");
    }

    #[test]
    fn shutdown_without_traffic_returns_promptly() {
        let (_, handle, join) = echo_server(HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..HttpConfig::default()
        });
        handle.shutdown();
        handle.shutdown(); // idempotent
        let stats = join.join().expect("joins");
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn builder_accepts_reasonable_configs_and_defaults() {
        let config = HttpConfig::builder()
            .addr("127.0.0.1:0")
            .workers(4)
            .shed_watermark(64)
            .transport(TransportKind::Threaded)
            .build()
            .expect("valid");
        assert_eq!(config.workers, 4);
        assert_eq!(config.shed_watermark, 64);
        // Unset knobs keep their defaults.
        assert_eq!(config.max_body_bytes, HttpConfig::default().max_body_bytes);
        // Omitting workers() keeps the auto sentinel without tripping
        // the explicit-zero check.
        let auto = HttpConfig::builder().build().expect("auto workers");
        assert_eq!(auto.workers, 0);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            HttpConfig::builder().workers(0).build().unwrap_err(),
            ConfigError::ZeroWorkers
        );
        assert_eq!(
            HttpConfig::builder()
                .workers(8)
                .shed_watermark(2)
                .build()
                .unwrap_err(),
            ConfigError::WatermarkBelowWorkers {
                watermark: 2,
                workers: 8
            }
        );
        assert_eq!(
            HttpConfig::builder()
                .read_timeout(Duration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroTimeout("read_timeout")
        );
        assert_eq!(
            HttpConfig::builder()
                .request_deadline(Duration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroTimeout("request_deadline")
        );
        assert_eq!(
            HttpConfig::builder().max_body_bytes(0).build().unwrap_err(),
            ConfigError::ZeroLimit("max_body_bytes")
        );
        assert_eq!(
            HttpConfig::builder()
                .max_requests_per_conn(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroLimit("max_requests_per_conn")
        );
        // Watermark 0 means "shedding disabled", not "watermark below
        // pool": valid.
        assert!(HttpConfig::builder()
            .workers(8)
            .shed_watermark(0)
            .build()
            .is_ok());
    }

    /// The encoder as it was: a `format!`ed head, each extra header
    /// `write!`n after it, the trace id pushed as the last extra.
    fn reference_encode(
        response: &HttpResponse,
        keep_alive: bool,
        trace: Option<TraceId>,
    ) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut headers = response.headers.clone();
        if let Some(id) = trace {
            headers.push(("x-trace-id", id.to_hex()));
        }
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            response.status,
            status_reason(response.status),
            response.content_type,
            response.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&response.body);
        out
    }

    #[test]
    fn encoder_matches_the_formatted_head_in_one_allocation() {
        let bodies = [
            String::new(),
            "{\"score\":0.5}".to_string(),
            "x".repeat(70_000),
        ];
        let statuses = [200, 404, 429, 503, 0, 99, 1000, u16::MAX];
        for status in statuses {
            for body in &bodies {
                for extras in [0, 1, 2] {
                    let mut response = HttpResponse::text(status, body.clone());
                    if extras > 0 {
                        response = response.with_header("Retry-After", "7");
                    }
                    if extras > 1 {
                        response = response.with_header("X-Extra", "a b: c");
                    }
                    for keep_alive in [false, true] {
                        for trace in [
                            None,
                            TraceId::from_raw(0xc0ffee),
                            TraceId::from_raw(u64::MAX),
                        ] {
                            let encoded = encode_response(&response, keep_alive, trace);
                            assert_eq!(
                                encoded,
                                reference_encode(&response, keep_alive, trace),
                                "status {status}, {extras} extras, trace {trace:?}"
                            );
                            assert!(
                                encoded.capacity() - encoded.len() <= HEAD_FIXED_BYTES,
                                "sized once, with at most the head's slack"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transport_kind_parses_its_flag_spellings() {
        assert_eq!("threads".parse(), Ok(TransportKind::Threaded));
        assert_eq!("threaded".parse(), Ok(TransportKind::Threaded));
        assert_eq!("epoll".parse(), Ok(TransportKind::Epoll));
        assert!("uring".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Epoll.to_string(), "epoll");
    }
}
