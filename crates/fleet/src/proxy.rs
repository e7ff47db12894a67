//! The front-door router: one HTTP endpoint that looks exactly like a
//! `scamdetect-serve` replica to clients, but fans `/scan` and `/batch`
//! across the fleet by skeleton-hash ownership.
//!
//! # Request path
//!
//! 1. Decode the scan request just far enough to compute
//!    [`scamdetect::request_fingerprint`] — the *same* equivalence the
//!    replicas' verdict/prep caches key on, so one skeleton always
//!    lands on the replica whose caches are warm for it.
//! 2. Look up the owner in the live ring ([`FleetState`]).
//! 3. Forward the original JSON over a pooled keep-alive connection.
//!
//! A forward failure (after the serve client's own one-shot retry)
//! feeds the replica's [`crate::breaker::CircuitBreaker`]; a tripped
//! breaker ejects the replica, rebalances the ring, and the request
//! re-routes to the new owner — bounded attempts, never a spin. Every
//! request carries a **deadline budget** (the `x-deadline-ms` header,
//! defaulting to the forward timeout): each attempt's socket timeout
//! is the *remaining* budget, so a retry can never stretch the
//! client's wait beyond its original deadline — when the budget runs
//! out mid-re-route the router answers **503 with `Retry-After`**
//! instead of silently overshooting. Replica replies are validated
//! before passing through (parseable JSON, and a `score` on a 200
//! scan): a torn or corrupted body counts as a transport failure and
//! re-routes rather than reaching the client. When no replica is up,
//! the router degrades the same honest way: 503 + `Retry-After`.
//!
//! `/batch` is split by ownership into per-replica sub-batches and the
//! replies merged back in slot order, so batch dedup still happens on
//! the replica that owns each skeleton. Verdict JSON passes through the
//! bit-exact float round-trip of [`scamdetect_serve::json`], so routed
//! scores are bit-identical to direct ones.

use crate::breaker::BreakerConfig;
use crate::health::{FleetState, HealthMonitor};
use scamdetect::detect_platform;
use scamdetect::trace::{Note, Stage, TraceId};
use scamdetect_serve::client::{ClientResponse, HttpClient};
use scamdetect_serve::http::{
    HttpConfig, HttpRequest, HttpResponse, HttpServer, ServerStats, ShutdownHandle, TraceHub,
    TransportKind,
};
use scamdetect_serve::json::{obj, Json};
use scamdetect_serve::wire;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Keep-alive connections retained per replica (beyond this, extra
/// connections are simply dropped after use).
const POOL_PER_REPLICA: usize = 8;

/// Everything the router needs to run.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address for the router itself (e.g. `127.0.0.1:0`).
    pub addr: String,
    /// The replica fleet (each a running `scamdetect-serve`).
    pub replicas: Vec<SocketAddr>,
    /// Virtual nodes per replica on the ring.
    pub vnodes: usize,
    /// Router worker threads (0 = HTTP default).
    pub workers: usize,
    /// Connection backend for the router's own listener. A front door
    /// is exactly the fan-in point where idle client keep-alive
    /// connections dwarf the worker pool, so `epoll` pays off here
    /// first; `threads` stays the portable default.
    pub transport: TransportKind,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Per-probe timeout (keep well under the interval).
    pub probe_timeout: Duration,
    /// Per-forward timeout, and the default deadline budget for
    /// requests that do not send an `x-deadline-ms` header.
    pub forward_timeout: Duration,
    /// Seconds suggested in `Retry-After` when the fleet is down.
    pub retry_after_s: u32,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Head-sampling rate for the router's own request traces: keep
    /// 1-in-N. `0` disables tracing entirely (`/trace/*` answers 409).
    pub trace_sample: u32,
    /// Requests slower than this (µs, wire-observed at the router) are
    /// kept regardless of sampling.
    pub trace_slow_us: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            replicas: Vec::new(),
            vnodes: crate::ring::DEFAULT_VNODES,
            workers: 0,
            transport: TransportKind::default(),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(250),
            forward_timeout: Duration::from_secs(10),
            retry_after_s: 2,
            breaker: BreakerConfig::default(),
            trace_sample: 16,
            trace_slow_us: 50_000,
        }
    }
}

/// Router-side counters, rendered on the router's own `/metrics`.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// `/scan` requests routed.
    pub routed_scan: AtomicU64,
    /// `/batch` requests routed.
    pub routed_batch: AtomicU64,
    /// Forwards that failed transport-level (each marks a replica
    /// down).
    pub forward_failures: AtomicU64,
    /// Requests that were re-routed to a different owner after a
    /// failure.
    pub reroutes: AtomicU64,
    /// Requests answered 503 because no replica was up.
    pub unavailable: AtomicU64,
    /// Requests answered 503 because their deadline budget ran out
    /// before any replica produced a sound reply.
    pub deadline_exhausted: AtomicU64,
    /// Everything else (`/fleet`, `/healthz`, `/metrics`, 404s).
    pub requests_other: AtomicU64,
}

/// A router bound and serving on a background thread.
pub struct RunningRouter {
    /// The bound address (real port when `:0` was configured).
    pub addr: SocketAddr,
    /// Graceful-stop trigger for the HTTP front end.
    pub shutdown: ShutdownHandle,
    /// Shared fleet state (tests read and poke this).
    pub state: Arc<FleetState>,
    /// Router counters.
    pub metrics: Arc<RouterMetrics>,
    monitor: Option<HealthMonitor>,
    thread: std::thread::JoinHandle<ServerStats>,
}

impl RunningRouter {
    /// Stops the prober and the HTTP server; returns final stats.
    ///
    /// # Errors
    ///
    /// The server thread's panic payload, if it panicked.
    pub fn stop(mut self) -> std::thread::Result<ServerStats> {
        if let Some(monitor) = self.monitor.take() {
            monitor.stop();
        }
        self.shutdown.shutdown();
        self.thread.join()
    }

    /// Blocks until the HTTP server stops (a signal handler or another
    /// clone of [`RunningRouter::shutdown`] triggers it), then stops
    /// the prober; returns final stats. The foreground counterpart of
    /// [`RunningRouter::stop`].
    ///
    /// # Errors
    ///
    /// The server thread's panic payload, if it panicked.
    pub fn join(mut self) -> std::thread::Result<ServerStats> {
        let stats = self.thread.join();
        if let Some(monitor) = self.monitor.take() {
            monitor.stop();
        }
        stats
    }
}

/// Binds the router and serves on a background thread.
///
/// # Errors
///
/// Bind failures.
pub fn spawn_router(config: RouterConfig) -> std::io::Result<RunningRouter> {
    let state = Arc::new(FleetState::with_breaker(
        &config.replicas,
        config.vnodes,
        config.breaker.clone(),
    ));
    let metrics = Arc::new(RouterMetrics::default());
    let mut http = HttpConfig::builder()
        .addr(config.addr.clone())
        .transport(config.transport)
        .trace_sample(config.trace_sample)
        .trace_slow_us(config.trace_slow_us);
    if config.workers > 0 {
        http = http.workers(config.workers);
    }
    let http = http
        .build()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let server = HttpServer::bind(http)?;
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let monitor = HealthMonitor::spawn(
        Arc::clone(&state),
        config.probe_interval,
        config.probe_timeout,
    );
    let ctx = Arc::new(RouterCtx {
        state: Arc::clone(&state),
        metrics: Arc::clone(&metrics),
        pool: ConnPool::new(config.forward_timeout),
        retry_after_s: config.retry_after_s,
        forward_timeout: config.forward_timeout,
        attempts_per_replica: config.breaker.consecutive_failures.max(1) as usize,
        trace: server.trace_hub(),
    });
    let handler_ctx = Arc::clone(&ctx);
    let thread = std::thread::spawn(move || {
        server.serve(Arc::new(move |request: &HttpRequest| {
            route(&handler_ctx, request)
        }))
    });
    Ok(RunningRouter {
        addr,
        shutdown,
        state,
        metrics,
        monitor: Some(monitor),
        thread,
    })
}

struct RouterCtx {
    state: Arc<FleetState>,
    metrics: Arc<RouterMetrics>,
    pool: ConnPool,
    retry_after_s: u32,
    /// Per-attempt timeout cap and the default deadline budget.
    forward_timeout: Duration,
    /// How many failures it takes to trip one replica's breaker —
    /// bounds the re-route loop at `replicas × this` attempts.
    attempts_per_replica: usize,
    /// The router's own completed-trace ring (same hub the transport
    /// layer samples into); `/trace/*` reads it.
    trace: Arc<TraceHub>,
}

/// A tiny keep-alive connection pool, one stack of clients per
/// replica. `HttpClient` already reconnects once on stale connections,
/// so pooled clients can sit idle across probe intervals safely.
///
/// Sizing note: each idle pooled connection parks one replica worker
/// in its keep-alive read until the replica's idle timeout expires, so
/// replicas behind a router should run with `--http-workers` safely
/// above the router's concurrent-forward count — otherwise health
/// probes queue behind idle pool connections and a loaded replica can
/// be marked down spuriously.
struct ConnPool {
    timeout: Duration,
    idle: Mutex<HashMap<SocketAddr, Vec<HttpClient>>>,
}

impl ConnPool {
    fn new(timeout: Duration) -> ConnPool {
        ConnPool {
            timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// One request over a pooled (or fresh) connection; the connection
    /// returns to the pool only on success. `timeout` is this attempt's
    /// I/O deadline — the caller passes its request's *remaining*
    /// budget, so a pooled connection never waits longer than the
    /// client would. `headers` rides along verbatim — the forward path
    /// uses it to propagate `x-trace-id` to the owning replica.
    fn roundtrip(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        let pooled = self
            .idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&addr)
            .and_then(Vec::pop);
        let mut client = match pooled {
            Some(client) => client,
            None => HttpClient::connect_with_timeout(addr, timeout)?,
        };
        client.set_io_timeout(timeout);
        let reply = client.request_raw(method, path, body, headers)?;
        // Pooled connections revert to the default forward timeout so a
        // short-budget request cannot poison the next user's deadline.
        client.set_io_timeout(self.timeout);
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let stack = idle.entry(addr).or_default();
        if stack.len() < POOL_PER_REPLICA {
            stack.push(client);
        }
        Ok(reply)
    }
}

fn route(ctx: &RouterCtx, request: &HttpRequest) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/scan") => {
            ctx.metrics.routed_scan.fetch_add(1, Ordering::Relaxed);
            handle_scan(ctx, request)
        }
        ("POST", "/batch") => {
            ctx.metrics.routed_batch.fetch_add(1, Ordering::Relaxed);
            handle_batch(ctx, request)
        }
        ("GET", "/fleet") => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_fleet(ctx)
        }
        ("GET", "/healthz") => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            let (up, total) = ctx.state.up_counts();
            HttpResponse::json(
                200,
                &obj([
                    ("status", Json::from(if up > 0 { "ok" } else { "degraded" })),
                    ("role", Json::from("router")),
                    ("replicas_up", Json::from(up as u64)),
                    ("replicas_total", Json::from(total as u64)),
                ]),
            )
        }
        ("GET", "/metrics") => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::text(200, render_router_metrics(ctx))
        }
        ("GET", "/trace/recent") => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_trace_recent(ctx)
        }
        ("GET", path) if path.strip_prefix("/trace/").is_some_and(|s| !s.is_empty()) => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_trace_by_id(ctx, path.strip_prefix("/trace/").expect("guard matched"))
        }
        (_, "/scan" | "/batch") => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use POST")
        }
        (_, path)
            if path == "/fleet"
                || path == "/healthz"
                || path == "/metrics"
                || path.starts_with("/trace/") =>
        {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use GET")
        }
        _ => {
            ctx.metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(
                404,
                "no such route (router exposes /scan /batch /fleet /healthz /metrics /trace)",
            )
        }
    }
}

/// Router-side `/trace/recent`: the most recent kept traces from the
/// router's own ring (summaries only; fetch `/trace/<id>` for spans).
fn handle_trace_recent(ctx: &RouterCtx) -> HttpResponse {
    if !ctx.trace.enabled() {
        return HttpResponse::error(409, "tracing disabled (serve with trace sampling > 0)");
    }
    let (kept, dropped) = ctx.trace.ring_counts();
    let recent = ctx.trace.recent(wire::TRACE_RECENT_LIMIT);
    HttpResponse::json(200, &wire::render_trace_recent(&recent, kept, dropped))
}

/// Router-side `/trace/<id>`: the full span tree for one kept trace.
/// The `forward` span notes name the owning replica, which is what
/// `scamdetect-cli trace` follows to stitch the cross-process timeline.
fn handle_trace_by_id(ctx: &RouterCtx, raw: &str) -> HttpResponse {
    if !ctx.trace.enabled() {
        return HttpResponse::error(409, "tracing disabled (serve with trace sampling > 0)");
    }
    let Some(id) = TraceId::parse(raw) else {
        return HttpResponse::error(400, "trace id must be 1-16 hex digits");
    };
    match ctx.trace.find(id) {
        Some(trace) => HttpResponse::json(200, &wire::render_trace(&trace)),
        None => HttpResponse::error(
            404,
            "no kept trace with that id (sampled away, evicted, or never seen)",
        ),
    }
}

/// The degradation path: every slice needs an owner and none is up.
fn unavailable(ctx: &RouterCtx) -> HttpResponse {
    ctx.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
    HttpResponse::error(503, "no replica available for this key slice; retry later")
        .with_header("Retry-After", ctx.retry_after_s.to_string())
}

/// The deadline path: the request's budget ran out before any replica
/// produced a sound reply. Still a well-formed 503 + Retry-After — the
/// router never lets a retry overshoot the client's deadline silently.
fn deadline_exhausted(ctx: &RouterCtx) -> HttpResponse {
    ctx.metrics
        .deadline_exhausted
        .fetch_add(1, Ordering::Relaxed);
    HttpResponse::error(503, "deadline budget exhausted before a replica answered")
        .with_header("Retry-After", ctx.retry_after_s.to_string())
}

/// This request's deadline: the client's `x-deadline-ms` header when
/// present (clamped to something sane), else the forward timeout.
fn deadline_of(ctx: &RouterCtx, request: &HttpRequest) -> Instant {
    let budget = request
        .header("x-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(ctx.forward_timeout)
        .clamp(Duration::from_millis(1), Duration::from_secs(300));
    Instant::now() + budget
}

/// Budget left before `deadline`, if any useful amount remains.
fn remaining_budget(deadline: Instant) -> Option<Duration> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    (remaining >= Duration::from_millis(1)).then_some(remaining)
}

/// Re-emits a replica reply, parsed by [`sound_body`], through the
/// router's own JSON writer. The writer round-trips `f64` bit-exactly,
/// so a routed score equals the direct one to the last bit.
/// Backpressure statuses re-attach `Retry-After` (the replica's copy of
/// the header does not survive the hop).
fn passthrough(ctx: &RouterCtx, status: u16, body: &Json) -> HttpResponse {
    let response = HttpResponse::json(status, body);
    if matches!(status, 408 | 429 | 503) {
        response.with_header("Retry-After", ctx.retry_after_s.to_string())
    } else {
        response
    }
}

/// A replica reply's body, parsed, if the reply is fit to pass through.
/// A torn, truncated or corrupted body must read as a *transport*
/// failure (feed the breaker, re-route), never reach the client: the
/// body must parse as JSON, and a `200` scan verdict must actually
/// carry a `score`.
fn sound_body(path: &str, reply: &ClientResponse) -> Option<Json> {
    let parsed = Json::parse(&reply.body).ok()?;
    (reply.status != 200 || path != "/scan" || parsed.get("score").is_some()).then_some(parsed)
}

/// Forwards `body` to the owner of `key` within the request's deadline
/// budget, feeding every outcome to the owner's breaker and re-routing
/// after trips. Attempts are bounded by `replicas × failures-to-trip`
/// (each replica leaves the ring after at most that many failures) and
/// by the deadline itself, so the loop can neither spin nor overshoot
/// the client's wait.
fn forward_owned(
    ctx: &RouterCtx,
    request: &HttpRequest,
    key: u64,
    path: &str,
    body: &[u8],
    deadline: Instant,
) -> HttpResponse {
    // The replica treats a client-sent `x-trace-id` as *forced* capture,
    // so a trace the router kept is guaranteed to have its child spans
    // kept replica-side — that is what makes stitching deterministic.
    let trace_digits = request.trace_id().map(TraceId::hex_digits);
    let trace_header;
    let forward_headers: &[(&str, &str)] = match &trace_digits {
        Some(digits) => {
            trace_header = [(
                "x-trace-id",
                std::str::from_utf8(digits).expect("hex digits are ASCII"),
            )];
            &trace_header
        }
        None => &[],
    };
    let (_, total) = ctx.state.up_counts();
    let max_attempts = total * ctx.attempts_per_replica + 1;
    for attempt in 0..max_attempts {
        let attempt_start = Instant::now();
        let Some(remaining) = remaining_budget(deadline) else {
            return deadline_exhausted(ctx);
        };
        let Some((owner_id, owner_addr)) = ctx.state.owner_of(key) else {
            return unavailable(ctx);
        };
        // A replica's ring id is its address, so the note keeps the
        // address and renders the id only if the trace is kept.
        request.trace_record_note(
            Stage::Route,
            attempt_start,
            Instant::now(),
            Note::Route {
                owner: owner_addr,
                attempt,
            },
        );
        let timeout = remaining.min(ctx.forward_timeout);
        let forward_start = Instant::now();
        let outcome = ctx
            .pool
            .roundtrip(owner_addr, "POST", path, body, timeout, forward_headers);
        let sound = outcome
            .as_ref()
            .ok()
            .and_then(|reply| sound_body(path, reply));
        match (outcome, sound) {
            (Ok(reply), Some(parsed)) => {
                // Note format is a contract: `scamdetect-cli trace`
                // parses `replica=<addr>` to find the owning replica's
                // child spans.
                request.trace_record_note(
                    Stage::Forward,
                    forward_start,
                    Instant::now(),
                    Note::Forward {
                        replica: owner_addr,
                        status: reply.status,
                        attempt,
                    },
                );
                ctx.state.record_success(&owner_id);
                if attempt > 0 {
                    ctx.metrics.reroutes.fetch_add(1, Ordering::Relaxed);
                    request.trace_record_note(
                        Stage::Retry,
                        attempt_start,
                        Instant::now(),
                        format!("attempts={}", attempt + 1),
                    );
                }
                return passthrough(ctx, reply.status, &parsed);
            }
            (outcome, _) => {
                let detail = match &outcome {
                    Ok(reply) => format!(
                        "replica={owner_addr} status={} attempt={attempt} unsound",
                        reply.status
                    ),
                    Err(e) => {
                        format!(
                            "replica={owner_addr} attempt={attempt} error={:?}",
                            e.kind()
                        )
                    }
                };
                request.trace_record_note(Stage::Forward, forward_start, Instant::now(), detail);
                ctx.metrics.forward_failures.fetch_add(1, Ordering::Relaxed);
                let breaker_start = Instant::now();
                ctx.state.record_failure(&owner_id);
                request.trace_record_note(
                    Stage::Breaker,
                    breaker_start,
                    Instant::now(),
                    format!("replica={owner_id} failure recorded"),
                );
            }
        }
    }
    unavailable(ctx)
}

/// The routing key for one decoded request: the exact cache-key
/// equivalence the replica will use.
fn routing_key(wire_request: &wire::WireScanRequest) -> u64 {
    let platform = wire_request
        .platform
        .unwrap_or_else(|| detect_platform(&wire_request.bytes));
    scamdetect::request_fingerprint(platform, &wire_request.bytes)
}

fn parse_json_body(request: &HttpRequest) -> Result<Json, HttpResponse> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| HttpResponse::error(400, "request body is not valid utf-8"))?;
    Json::parse(text).map_err(|e| HttpResponse::error(400, &format!("invalid JSON: {e}")))
}

fn handle_scan(ctx: &RouterCtx, request: &HttpRequest) -> HttpResponse {
    let body = match parse_json_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    // Decode only as far as the routing key; the original body is what
    // gets forwarded (the replica re-validates it anyway).
    let wire_request = match wire::parse_scan_request(&body) {
        Ok(parsed) => parsed,
        Err(message) => return HttpResponse::error(400, &message),
    };
    let deadline = deadline_of(ctx, request);
    forward_owned(
        ctx,
        request,
        routing_key(&wire_request),
        "/scan",
        &request.body,
        deadline,
    )
}

fn handle_batch(ctx: &RouterCtx, request: &HttpRequest) -> HttpResponse {
    let body = match parse_json_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let Some(items) = body.get("requests").and_then(Json::as_array) else {
        return HttpResponse::error(400, "missing 'requests' array");
    };
    if items.len() > wire::MAX_BATCH_REQUESTS {
        return HttpResponse::error(
            413,
            &format!(
                "batch of {} exceeds the {} request cap",
                items.len(),
                wire::MAX_BATCH_REQUESTS
            ),
        );
    }

    // Per slot: undecodable → local error (same message the replica
    // would produce, it is the same parser); decodable → routing key.
    let mut results: Vec<Option<Json>> = vec![None; items.len()];
    let mut pending: Vec<(usize, u64)> = Vec::with_capacity(items.len());
    for (slot, item) in items.iter().enumerate() {
        match wire::parse_scan_request(item) {
            Ok(wire_request) => pending.push((slot, routing_key(&wire_request))),
            Err(message) => results[slot] = Some(obj([("error", Json::from(message))])),
        }
    }

    let deadline = deadline_of(ctx, request);
    let trace_hex = request.trace_id().map(|id| id.to_hex());
    let forward_headers: Vec<(&str, &str)> = trace_hex
        .as_deref()
        .map(|hex| ("x-trace-id", hex))
        .into_iter()
        .collect();
    let mut model: Option<(String, u64)> = None;
    // Ownership can shift mid-batch (a forward failure rebalances), so
    // group → forward → regroup leftovers, bounded by fleet size times
    // the breaker's failures-to-trip, and by the deadline budget.
    let (_, total) = ctx.state.up_counts();
    for _round in 0..(total * ctx.attempts_per_replica + 1) {
        if pending.is_empty() {
            break;
        }
        // Group the still-unanswered slots by current owner.
        let mut groups: HashMap<String, (SocketAddr, Vec<(usize, u64)>)> = HashMap::new();
        let mut unowned = false;
        for &(slot, key) in &pending {
            match ctx.state.owner_of(key) {
                Some((id, addr)) => {
                    groups
                        .entry(id)
                        .or_insert_with(|| (addr, Vec::new()))
                        .1
                        .push((slot, key));
                }
                None => unowned = true,
            }
        }
        if unowned || groups.is_empty() {
            return unavailable(ctx);
        }
        let mut still_pending: Vec<(usize, u64)> = Vec::new();
        let mut owner_ids: Vec<&String> = groups.keys().collect();
        owner_ids.sort(); // deterministic forward order
        let owner_ids: Vec<String> = owner_ids.into_iter().cloned().collect();
        for owner_id in owner_ids {
            let (addr, slots) = groups.remove(&owner_id).expect("grouped");
            let Some(remaining) = remaining_budget(deadline) else {
                return deadline_exhausted(ctx);
            };
            let sub_body = Json::Obj(vec![(
                "requests".to_string(),
                Json::Arr(slots.iter().map(|&(slot, _)| items[slot].clone()).collect()),
            )])
            .render();
            let timeout = remaining.min(ctx.forward_timeout);
            let forward_start = Instant::now();
            let outcome = ctx.pool.roundtrip(
                addr,
                "POST",
                "/batch",
                sub_body.as_bytes(),
                timeout,
                &forward_headers,
            );
            request.trace_record_note(
                Stage::Forward,
                forward_start,
                Instant::now(),
                match &outcome {
                    Ok(reply) => format!(
                        "replica={addr} status={} slots={}",
                        reply.status,
                        slots.len()
                    ),
                    Err(e) => format!("replica={addr} slots={} error={:?}", slots.len(), e.kind()),
                },
            );
            // A 200 with results for every slot settles the group; a
            // transport error, a torn/short body, or a backpressure
            // status (408/429/503) feeds the breaker and re-pends the
            // slots for the next round's (possibly rebalanced) owner.
            let mut settled = false;
            if let Ok(reply) = &outcome {
                if reply.status == 200 {
                    if let Ok(parsed) = Json::parse(&reply.body) {
                        let sub_results = parsed.get("results").and_then(Json::as_array);
                        if let Some(sub_results) = sub_results {
                            if sub_results.len() == slots.len() {
                                if model.is_none() {
                                    let id =
                                        parsed.get("model").and_then(Json::as_str).unwrap_or("");
                                    let epoch = parsed
                                        .get("model_epoch")
                                        .and_then(Json::as_f64)
                                        .unwrap_or(0.0)
                                        as u64;
                                    model = Some((id.to_string(), epoch));
                                }
                                for (&(slot, _), result) in slots.iter().zip(sub_results) {
                                    results[slot] = Some(result.clone());
                                }
                                ctx.state.record_success(&owner_id);
                                settled = true;
                            }
                        }
                    }
                } else if !matches!(reply.status, 408 | 429 | 503) {
                    // The replica is alive and deliberately rejected the
                    // sub-batch; that is a real (non-transport) error —
                    // surface it rather than retrying a hopeless send.
                    return HttpResponse::error(
                        502,
                        &format!(
                            "replica {owner_id} answered {}: {}",
                            reply.status, reply.body
                        ),
                    );
                }
            }
            if !settled {
                ctx.metrics.forward_failures.fetch_add(1, Ordering::Relaxed);
                ctx.state.record_failure(&owner_id);
                ctx.metrics.reroutes.fetch_add(1, Ordering::Relaxed);
                still_pending.extend(slots);
            }
        }
        pending = still_pending;
    }
    if !pending.is_empty() {
        return unavailable(ctx);
    }

    let (model_id, model_epoch) = model.unwrap_or_default();
    HttpResponse::json(
        200,
        &obj([
            ("model", Json::from(model_id)),
            ("model_epoch", Json::from(model_epoch)),
            (
                "results",
                Json::Arr(
                    results
                        .into_iter()
                        .map(|r| r.expect("every slot filled"))
                        .collect(),
                ),
            ),
        ]),
    )
}

fn handle_fleet(ctx: &RouterCtx) -> HttpResponse {
    let statuses = ctx.state.statuses();
    let shares: HashMap<String, usize> = ctx.state.shares().into_iter().collect();
    let replicas: Vec<Json> = statuses
        .iter()
        .map(|s| {
            obj([
                ("id", Json::from(s.id.as_str())),
                ("up", Json::from(s.up)),
                ("breaker", Json::from(s.breaker.as_str())),
                (
                    "slices",
                    Json::from(shares.get(&s.id).copied().unwrap_or(0) as u64),
                ),
                (
                    "consecutive_failures",
                    Json::from(u64::from(s.consecutive_failures)),
                ),
                ("recoveries", Json::from(u64::from(s.recoveries))),
                ("model", s.model.as_deref().map_or(Json::Null, Json::from)),
                ("model_epoch", s.model_epoch.map_or(Json::Null, Json::from)),
            ])
        })
        .collect();
    let (up, total) = ctx.state.up_counts();
    HttpResponse::json(
        200,
        &obj([
            ("vnodes", Json::from(ctx.state.vnodes() as u64)),
            (
                "slices",
                Json::from((ctx.state.vnodes() * crate::ring::SLICES_PER_VNODE) as u64),
            ),
            ("replicas_up", Json::from(up as u64)),
            ("replicas_total", Json::from(total as u64)),
            ("rebalances", Json::from(ctx.state.rebalances())),
            ("replicas", Json::Arr(replicas)),
        ]),
    )
}

fn render_router_metrics(ctx: &RouterCtx) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let mut metric = |name: &str, kind: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    };
    let m = &ctx.metrics;
    metric(
        "scamdetect_fleet_scan_requests_total",
        "counter",
        "scan requests routed",
        m.routed_scan.load(Ordering::Relaxed),
    );
    metric(
        "scamdetect_fleet_batch_requests_total",
        "counter",
        "batch requests routed",
        m.routed_batch.load(Ordering::Relaxed),
    );
    metric(
        "scamdetect_fleet_forward_failures_total",
        "counter",
        "transport-level forward failures (each marks a replica down)",
        m.forward_failures.load(Ordering::Relaxed),
    );
    metric(
        "scamdetect_fleet_reroutes_total",
        "counter",
        "requests re-routed to a rebalanced owner after a failure",
        m.reroutes.load(Ordering::Relaxed),
    );
    metric(
        "scamdetect_fleet_unavailable_total",
        "counter",
        "requests answered 503 (no up replica for the slice)",
        m.unavailable.load(Ordering::Relaxed),
    );
    metric(
        "scamdetect_fleet_deadline_exhausted_total",
        "counter",
        "requests answered 503 because their deadline budget ran out",
        m.deadline_exhausted.load(Ordering::Relaxed),
    );
    metric(
        "scamdetect_fleet_rebalances_total",
        "counter",
        "ring membership flips",
        ctx.state.rebalances(),
    );
    metric(
        "scamdetect_fleet_flaps_total",
        "counter",
        "post-recovery down flips (a flapping replica re-trips its breaker)",
        ctx.state.flaps(),
    );
    let (open, half_open) = ctx.state.breaker_counts();
    metric(
        "scamdetect_fleet_breaker_open",
        "gauge",
        "replicas whose circuit breaker is open",
        open as u64,
    );
    metric(
        "scamdetect_fleet_breaker_half_open",
        "gauge",
        "replicas whose circuit breaker is half-open (probation)",
        half_open as u64,
    );
    let (up, total) = ctx.state.up_counts();
    metric(
        "scamdetect_fleet_replicas_up",
        "gauge",
        "replicas currently in the ring",
        up as u64,
    );
    metric(
        "scamdetect_fleet_replicas_total",
        "gauge",
        "replicas configured",
        total as u64,
    );
    if ctx.trace.enabled() {
        let (kept, dropped) = ctx.trace.ring_counts();
        metric(
            "scamdetect_fleet_traces_kept_total",
            "counter",
            "router request traces kept in the ring",
            kept,
        );
        metric(
            "scamdetect_fleet_traces_dropped_total",
            "counter",
            "router request traces dropped (ring contention)",
            dropped,
        );
    }

    // ── Lifecycle roll-up ──────────────────────────────────────────
    // The one registration point in the serve crate
    // (`LIFECYCLE_COUNTERS`) drives the fleet aggregation too: every
    // counter in the family is scraped from each up replica and summed
    // under a `scamdetect_fleet_` prefix, so feedback volume and
    // shadow agreement are fleet-wide reads off one endpoint. The
    // family is label-free by construction, which is what makes the
    // bare-name `parse_metric` sum sound.
    let mut sums = vec![0u64; scamdetect_serve::LIFECYCLE_COUNTERS.len()];
    let mut scraped = 0u64;
    for status in ctx.state.statuses().iter().filter(|s| s.up) {
        let Ok(reply) = ctx.pool.roundtrip(
            status.addr,
            "GET",
            "/metrics",
            &[],
            ctx.forward_timeout,
            &[],
        ) else {
            continue;
        };
        if reply.status != 200 {
            continue;
        }
        scraped += 1;
        for (sum, def) in sums.iter_mut().zip(scamdetect_serve::LIFECYCLE_COUNTERS) {
            if let Some(value) = crate::client::parse_metric(&reply.body, def.name) {
                *sum += value as u64;
            }
        }
    }
    metric(
        "scamdetect_fleet_lifecycle_scrape_replicas",
        "gauge",
        "up replicas whose lifecycle counters landed in this scrape",
        scraped,
    );
    for (def, sum) in scamdetect_serve::LIFECYCLE_COUNTERS.iter().zip(&sums) {
        let name = format!(
            "scamdetect_fleet_{}",
            def.name.trim_start_matches("scamdetect_")
        );
        metric(&name, "counter", def.help, *sum);
    }
    out
}
