//! The scanning daemon: routes, lifecycle, and the `serve` entry point.
//!
//! Endpoints (see [`crate::wire`] for the JSON schema):
//!
//! | Route                 | Method | Purpose                                     |
//! |-----------------------|--------|---------------------------------------------|
//! | `/scan`               | POST   | score one contract                          |
//! | `/batch`              | POST   | score many (dedup + parallel workers)       |
//! | `/models`             | GET    | artifacts on disk + which one is active     |
//! | `/models/reload`      | POST   | re-resolve (or pin via body), hot-swap      |
//! | `/models/<id>`        | PUT    | install pushed artifact bytes (no swap)     |
//! | `/models/<id>`        | DELETE | delete an idle artifact                     |
//! | `/feedback`           | POST   | record a verdict correction (lifecycle)     |
//! | `/shadow`             | GET    | shadow-session status                       |
//! | `/shadow/start`       | POST   | load a candidate for shadow scoring         |
//! | `/shadow/stop`        | POST   | end the shadow session                      |
//! | `/shadow/promote`     | POST   | thresholded candidate → champion hot swap   |
//! | `/healthz`            | GET    | liveness + model/epoch/cache snapshot       |
//! | `/metrics`            | GET    | Prometheus text format                      |
//! | `/trace/recent`       | GET    | recently kept request traces (span trees)   |
//! | `/trace/<id>`         | GET    | one kept trace by its hex id                |
//!
//! Every scan response names the `model`/`model_epoch` that produced
//! it: handlers snapshot the registry's `Arc<ServingModel>` once per
//! request, so a hot swap never tears a response and in-flight scans
//! finish on the model they started with.

use crate::http::{
    Handler, HttpConfig, HttpRequest, HttpResponse, HttpServer, LoadGauge, ServerStats,
    ShutdownHandle, TraceHub,
};
use crate::json::{obj, Json};
use crate::lifecycle::LifecycleConfig;
use crate::metrics::{LifecycleCounter, Metrics, ShadowScrape};
use crate::registry::{
    ModelRegistry, RegistryConfig, ServeError, ShadowState, SHADOW_MIN_AGREEMENT_DEFAULT,
    SHADOW_MIN_SAMPLES_DEFAULT,
};
use crate::wire;
use scamdetect::lifecycle::{FeedbackLog, FeedbackRecord, FEEDBACK_FSYNC_EVERY};
use scamdetect::trace::{Stage, TraceId};
use scamdetect::ScanRequest;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The feedback log as the router holds it: appended under a mutex
/// (corrections are rare, human-scale events; scans never touch it).
type SharedFeedbackLog = Arc<Mutex<FeedbackLog>>;

/// Everything `serve` needs: where to listen, where the models live.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// HTTP server knobs (bind address, transport, workers, limits).
    pub http: HttpConfig,
    /// Model registry knobs (models dir, pinned id, cache sizes).
    pub registry: RegistryConfig,
    /// Model lifecycle knobs (feedback log path, fsync bound).
    pub lifecycle: LifecycleConfig,
}

/// A daemon that has been bound and spawned onto a background thread —
/// the embedded form used by tests, `perfbench` and the CLI (which
/// just blocks on [`RunningDaemon::join`]).
pub struct RunningDaemon {
    /// The bound address (real port when `:0` was configured).
    pub addr: std::net::SocketAddr,
    /// Graceful-stop trigger.
    pub shutdown: ShutdownHandle,
    /// The registry backing the daemon (tests swap through this).
    pub registry: Arc<ModelRegistry>,
    /// Live daemon counters.
    pub metrics: Arc<Metrics>,
    thread: std::thread::JoinHandle<ServerStats>,
}

impl RunningDaemon {
    /// Blocks until the daemon shuts down; returns the final counters.
    ///
    /// # Errors
    ///
    /// The server thread's panic payload, if it panicked.
    pub fn join(self) -> std::thread::Result<ServerStats> {
        self.thread.join()
    }

    /// Requests shutdown and joins — the orderly stop used by tests.
    ///
    /// # Errors
    ///
    /// The server thread's panic payload, if it panicked.
    pub fn stop(self) -> std::thread::Result<ServerStats> {
        self.shutdown.shutdown();
        self.join()
    }
}

/// Binds the address, loads the registry and serves on a background
/// thread. [`serve`] is the foreground convenience over this.
///
/// # Errors
///
/// Registry errors (no artifacts, bad artifact) and bind failures.
pub fn spawn(config: ServeConfig) -> Result<RunningDaemon, ServeError> {
    let registry = Arc::new(ModelRegistry::open(config.registry)?);
    let metrics = Arc::new(Metrics::default());
    let feedback = match &config.lifecycle.feedback_log {
        Some(path) => {
            let fsync_every = if config.lifecycle.fsync_every == 0 {
                FEEDBACK_FSYNC_EVERY
            } else {
                config.lifecycle.fsync_every
            };
            let log = FeedbackLog::open(path, fsync_every).map_err(|e| ServeError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            Some(Arc::new(Mutex::new(log)))
        }
        None => None,
    };
    let server = HttpServer::bind(config.http).map_err(|e| ServeError::Io {
        path: "bind".to_string(),
        message: e.to_string(),
    })?;
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let handler = router(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        server.protocol_error_counter(),
        server.load_gauge(),
        feedback,
        server.trace_hub(),
    );
    let thread = std::thread::spawn(move || server.serve(handler));
    Ok(RunningDaemon {
        addr,
        shutdown,
        registry,
        metrics,
        thread,
    })
}

/// Runs the daemon in the foreground until SIGTERM/SIGINT (unix) or a
/// shutdown triggered through some other clone of the handle; prints
/// one line per lifecycle event to stderr.
///
/// # Errors
///
/// Everything [`spawn`] can raise.
pub fn serve(config: ServeConfig) -> Result<ServerStats, ServeError> {
    let transport = config.http.transport;
    let daemon = spawn(config)?;
    eprintln!(
        "scamdetect-serve: listening on http://{} (model '{}', kind {}, transport {})",
        daemon.addr,
        daemon.registry.model().id,
        daemon.registry.model().kind,
        transport,
    );
    crate::http::shutdown_on_signals(daemon.shutdown.clone());
    let stats = daemon
        .join()
        .unwrap_or_else(|_| panic!("server thread panicked"));
    eprintln!(
        "scamdetect-serve: drained and stopped ({} connections, {} requests)",
        stats.connections, stats.requests
    );
    Ok(stats)
}

/// Builds the route handler over a registry + metrics pair.
/// `protocol_errors` is the HTTP layer's below-the-router rejection
/// counter ([`crate::http::HttpServer::protocol_error_counter`]) and
/// `load` its admission-gate gauge
/// ([`crate::http::HttpServer::load_gauge`]), both folded into
/// `/metrics` scrapes.
pub fn router(
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    protocol_errors: Arc<std::sync::atomic::AtomicU64>,
    load: Arc<LoadGauge>,
    feedback: Option<SharedFeedbackLog>,
    trace: Arc<TraceHub>,
) -> Handler {
    Arc::new(move |request: &HttpRequest| {
        let response = route(
            &registry,
            &metrics,
            &protocol_errors,
            &load,
            feedback.as_ref(),
            &trace,
            request,
        );
        if response.status >= 400 {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        response
    })
}

fn route(
    registry: &ModelRegistry,
    metrics: &Metrics,
    protocol_errors: &std::sync::atomic::AtomicU64,
    load: &LoadGauge,
    feedback: Option<&SharedFeedbackLog>,
    trace: &TraceHub,
    request: &HttpRequest,
) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/scan") => {
            metrics.requests_scan.fetch_add(1, Ordering::Relaxed);
            handle_scan(registry, metrics, request)
        }
        ("POST", "/batch") => {
            metrics.requests_batch.fetch_add(1, Ordering::Relaxed);
            handle_batch(registry, metrics, request)
        }
        ("GET", "/models") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_models(registry)
        }
        ("POST", "/models/reload") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_reload(registry, metrics, request)
        }
        ("POST", "/feedback") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_feedback(registry, metrics, feedback, request)
        }
        ("GET", "/shadow") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_shadow_status(registry)
        }
        ("POST", "/shadow/start") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_shadow_start(registry, metrics, request)
        }
        ("POST", "/shadow/stop") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::json(200, &obj([("stopped", Json::from(registry.shadow_stop()))]))
        }
        ("POST", "/shadow/promote") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_shadow_promote(registry, metrics, request)
        }
        // `/models/reload` is claimed by the arm above; any other
        // non-empty suffix is a model id ("reload" itself can never be
        // an artifact name over the wire).
        ("PUT", path) if model_id_of(path).is_some() => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_install(
                registry,
                metrics,
                model_id_of(path).expect("guard"),
                request,
            )
        }
        ("DELETE", path) if model_id_of(path).is_some() => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_remove(registry, model_id_of(path).expect("guard"))
        }
        ("GET", "/trace/recent") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_trace_recent(trace)
        }
        ("GET", path) if path.strip_prefix("/trace/").is_some_and(|s| !s.is_empty()) => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            handle_trace_by_id(trace, path.strip_prefix("/trace/").expect("guard"))
        }
        ("GET", "/healthz") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            // The full snapshot a router needs for staleness-aware
            // decisions — plain `status == ok` + HTTP 200 still works
            // for old probes that ignore the rest.
            let model = registry.model();
            let shadow_state = registry
                .shadow()
                .map(|s| Json::from(s.model.id.as_str()))
                .unwrap_or_else(|| Json::from("off"));
            HttpResponse::json(
                200,
                &obj([
                    ("status", Json::from("ok")),
                    ("model", Json::from(model.id.as_str())),
                    ("model_epoch", Json::from(model.epoch)),
                    ("kind", Json::from(model.kind.as_str())),
                    ("threshold", Json::from(model.threshold)),
                    ("swaps", Json::from(registry.swap_count())),
                    ("uptime_s", Json::from(registry.uptime_s())),
                    (
                        "verdict_cache_entries",
                        Json::from(model.scanner.cache_len() as u64),
                    ),
                    (
                        "prep_cache_entries",
                        Json::from(registry.prep_cache().len() as u64),
                    ),
                    ("shadow", shadow_state),
                ]),
            )
        }
        ("GET", "/metrics") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            let model = registry.model();
            // The local keeps the shadow candidate's id alive for the
            // borrow in ShadowScrape.
            let shadow = registry.shadow();
            let shadow_scrape = shadow.as_ref().map(|s| ShadowScrape {
                candidate: &s.model.id,
                candidate_epoch: s.model.epoch,
                samples: s.counters.samples.load(Ordering::Relaxed),
                agreements: s.counters.agreements.load(Ordering::Relaxed),
                disagreements: s.counters.disagreements.load(Ordering::Relaxed),
                failures: s.counters.failures.load(Ordering::Relaxed),
                dropped: s.counters.dropped.load(Ordering::Relaxed),
                latency_delta_us: s.counters.latency_delta_us.load(Ordering::Relaxed),
            });
            let feedback_log_records =
                feedback.map(|log| log.lock().unwrap_or_else(|e| e.into_inner()).len());
            HttpResponse::text(
                200,
                metrics.render_prometheus(&crate::metrics::ScrapeSnapshot {
                    model_id: &model.id,
                    model_epoch: model.epoch,
                    uptime_s: registry.uptime_s(),
                    verdict_cache_len: model.scanner.cache_len(),
                    prep_cache_len: registry.prep_cache().len(),
                    protocol_errors: protocol_errors.load(Ordering::Relaxed),
                    load,
                    shadow: shadow_scrape,
                    feedback_log_records,
                    trace: Some(trace),
                }),
            )
        }
        (_, "/scan" | "/batch" | "/models/reload" | "/feedback") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use POST")
        }
        (_, "/shadow/start" | "/shadow/stop" | "/shadow/promote") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use POST")
        }
        (_, path) if model_id_of(path).is_some() => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use PUT or DELETE")
        }
        (_, "/models" | "/healthz" | "/metrics" | "/shadow") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use GET")
        }
        (_, path) if path == "/trace/recent" || path.starts_with("/trace/") => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(405, "use GET")
        }
        _ => {
            metrics.requests_other.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(404, "no such route")
        }
    }
}

/// The `<id>` of a `/models/<id>` path, `None` for `/models/reload`
/// (that is an action, not an artifact) and for paths outside the
/// models namespace. Id *validity* is the registry's call.
fn model_id_of(path: &str) -> Option<&str> {
    path.strip_prefix("/models/")
        .filter(|id| !id.is_empty() && *id != "reload")
}

/// `GET /trace/recent`: the most recently kept traces, newest first,
/// as summaries (fetch a full span tree via `/trace/<id>`).
fn handle_trace_recent(trace: &TraceHub) -> HttpResponse {
    if !trace.enabled() {
        return HttpResponse::error(409, "tracing disabled (serve with --trace-sample > 0)");
    }
    let recent = trace.recent(wire::TRACE_RECENT_LIMIT);
    let (kept, dropped) = trace.ring_counts();
    HttpResponse::json(200, &wire::render_trace_recent(&recent, kept, dropped))
}

/// `GET /trace/<id>`: one kept trace as a full span tree.
fn handle_trace_by_id(trace: &TraceHub, raw: &str) -> HttpResponse {
    if !trace.enabled() {
        return HttpResponse::error(409, "tracing disabled (serve with --trace-sample > 0)");
    }
    let Some(id) = TraceId::parse(raw) else {
        return HttpResponse::error(400, "trace id must be 1-16 hex digits");
    };
    match trace.find(id) {
        Some(t) => HttpResponse::json(200, &wire::render_trace(&t)),
        None => HttpResponse::error(
            404,
            "no kept trace with that id (sampled away, evicted, or never seen)",
        ),
    }
}

fn parse_body(request: &HttpRequest) -> Result<Json, HttpResponse> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| HttpResponse::error(400, "request body is not valid utf-8"))?;
    Json::parse(text).map_err(|e| HttpResponse::error(400, &format!("invalid JSON: {e}")))
}

fn handle_scan(registry: &ModelRegistry, metrics: &Metrics, request: &HttpRequest) -> HttpResponse {
    // Prep: body decode — JSON parse plus hex/base64 bytecode decode.
    let prep_start = Instant::now();
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let wire_request = match wire::parse_scan_request(&body) {
        Ok(parsed) => parsed,
        Err(message) => {
            metrics.scan_failures.fetch_add(1, Ordering::Relaxed);
            return HttpResponse::error(400, &message);
        }
    };
    request.trace_record(Stage::Prep, prep_start, Instant::now());
    // One snapshot for the whole request: the response's model/epoch
    // fields name exactly the weights that scored it.
    let model = registry.model();
    let started = Instant::now();
    let mut scan = ScanRequest::new(&wire_request.bytes);
    if let Some(platform) = wire_request.platform {
        scan = scan.on(platform);
    }
    let outcome = model.scanner.scan_request(&scan);
    let scanned_at = Instant::now();
    let elapsed_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    metrics
        .scan_latency
        .record_with_trace(elapsed_us, request.trace_id());
    metrics.scans_total.fetch_add(1, Ordering::Relaxed);
    match outcome {
        Ok(report) => {
            let cache_hit = report.cache == scamdetect::CacheStatus::CacheHit;
            if request.trace.is_some() {
                // The scan window splits on the report's own compute
                // time: everything outside it is fingerprint + cache
                // probe, everything inside is model scoring (zero on a
                // cache hit, which therefore records no score span).
                let score_start = scanned_at.checked_sub(report.elapsed).unwrap_or(started);
                request.trace_record_note(
                    Stage::CacheLookup,
                    started,
                    score_start,
                    format!("cache={:?}", report.cache),
                );
                if !report.elapsed.is_zero() {
                    request.trace_record(Stage::Score, score_start, scanned_at);
                }
            }
            if cache_hit {
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            if report.is_malicious() {
                metrics.malicious_verdicts.fetch_add(1, Ordering::Relaxed);
            }
            metrics.drift.observe_score(
                report.verdict.platform,
                report.verdict.malicious_probability,
                cache_hit,
            );
            if let Some(shadow) = registry.shadow() {
                shadow.submit(
                    wire_request.bytes.clone(),
                    wire_request.platform,
                    report.is_malicious(),
                    elapsed_us,
                    &metrics.lifecycle,
                );
            }
            let serialize_start = Instant::now();
            let response = HttpResponse::json(200, &wire::render_report(&report, &model));
            request.trace_record(Stage::Serialize, serialize_start, Instant::now());
            response
        }
        Err(e) => {
            metrics.scan_failures.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error(422, &format!("scan failed: {e}"))
        }
    }
}

fn handle_batch(
    registry: &ModelRegistry,
    metrics: &Metrics,
    request: &HttpRequest,
) -> HttpResponse {
    let batch_start = Instant::now();
    let prep_start = batch_start;
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let items = match body.get("requests").and_then(Json::as_array) {
        Some(items) => items,
        None => return HttpResponse::error(400, "missing 'requests' array"),
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

    // Decode every slot first; a malformed slot degrades to a per-slot
    // error without failing its neighbours (mirroring ScanOutcome).
    let decoded: Vec<Result<wire::WireScanRequest, String>> =
        items.iter().map(wire::parse_scan_request).collect();
    let scannable: Vec<(usize, &wire::WireScanRequest)> = decoded
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().map(|req| (i, req)))
        .collect();
    let requests: Vec<ScanRequest> = scannable
        .iter()
        .map(|(_, w)| {
            let mut scan = ScanRequest::new(&w.bytes);
            if let Some(platform) = w.platform {
                scan = scan.on(platform);
            }
            scan
        })
        .collect();

    request.trace_record_note(
        Stage::Prep,
        prep_start,
        Instant::now(),
        format!("contracts={}", items.len()),
    );

    let model = registry.model();
    let started = Instant::now();
    let outcomes = model.scanner.scan_batch(&requests);
    request.trace_record(Stage::Score, started, Instant::now());
    // The scan histogram feeds the *per-scan* p50/p99 gauges; a whole
    // batch is many scans, so record its amortised per-contract cost
    // rather than one giant sample that would masquerade as a slow scan.
    if !requests.is_empty() {
        let per_contract_us =
            (started.elapsed().as_micros() / requests.len() as u128).min(u128::from(u64::MAX));
        metrics.record_latency_us(per_contract_us as u64);
    }

    let mut results: Vec<Json> = decoded
        .iter()
        .map(|slot| match slot {
            Ok(_) => Json::Null, // placeholder, filled below
            Err(message) => {
                metrics.scan_failures.fetch_add(1, Ordering::Relaxed);
                obj([("error", Json::from(message.as_str()))])
            }
        })
        .collect();
    let shadow = registry.shadow();
    for ((slot, wire_request), outcome) in scannable.iter().zip(outcomes) {
        metrics.scans_total.fetch_add(1, Ordering::Relaxed);
        results[*slot] = match outcome {
            Ok(report) => {
                let mut cache_hit = false;
                match report.cache {
                    scamdetect::CacheStatus::CacheHit => {
                        cache_hit = true;
                        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    scamdetect::CacheStatus::BatchHit => {
                        cache_hit = true;
                        metrics.batch_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    scamdetect::CacheStatus::Miss => {}
                }
                if report.is_malicious() {
                    metrics.malicious_verdicts.fetch_add(1, Ordering::Relaxed);
                }
                metrics.drift.observe_score(
                    report.verdict.platform,
                    report.verdict.malicious_probability,
                    cache_hit,
                );
                if let Some(shadow) = &shadow {
                    shadow.submit(
                        wire_request.bytes.clone(),
                        wire_request.platform,
                        report.is_malicious(),
                        report.elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                        &metrics.lifecycle,
                    );
                }
                wire::render_report(&report, &model)
            }
            Err(e) => {
                metrics.scan_failures.fetch_add(1, Ordering::Relaxed);
                obj([("error", Json::from(format!("scan failed: {e}")))])
            }
        };
    }
    let serialize_start = Instant::now();
    let response = HttpResponse::json(
        200,
        &obj([
            ("model", Json::from(model.id.as_str())),
            ("model_epoch", Json::from(model.epoch)),
            ("results", Json::Arr(results)),
        ]),
    );
    request.trace_record(Stage::Serialize, serialize_start, Instant::now());
    // The whole-request histogram (per endpoint) complements the
    // amortised per-contract sample recorded above.
    metrics.batch_latency.record_with_trace(
        batch_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        request.trace_id(),
    );
    response
}

fn handle_models(registry: &ModelRegistry) -> HttpResponse {
    match registry.list() {
        Ok(entries) => {
            let active = registry.model();
            let models: Vec<Json> = entries
                .iter()
                .map(|e| {
                    obj([
                        ("id", Json::from(e.id.as_str())),
                        ("bytes", Json::from(e.bytes)),
                        ("active", Json::from(e.active)),
                    ])
                })
                .collect();
            // The shadow candidate rides along so one GET answers the
            // operator's whole question: what is on disk, what serves,
            // and what is being auditioned.
            let shadow = registry
                .shadow()
                .map(|s| shadow_status_json(&s))
                .unwrap_or(Json::Null);
            HttpResponse::json(
                200,
                &obj([
                    ("active", Json::from(active.id.as_str())),
                    ("kind", Json::from(active.kind.as_str())),
                    ("threshold", Json::from(active.threshold)),
                    ("model_epoch", Json::from(active.epoch)),
                    ("models", Json::Arr(models)),
                    ("shadow", shadow),
                ]),
            )
        }
        Err(e) => HttpResponse::error(500, &format!("cannot list models: {e}")),
    }
}

/// The JSON summary of a live shadow session, shared by `GET /shadow`
/// and the `shadow` field of `GET /models`.
fn shadow_status_json(state: &ShadowState) -> Json {
    let samples = state.counters.samples.load(Ordering::Relaxed);
    let latency_delta = state.counters.latency_delta_us.load(Ordering::Relaxed);
    let mean_delta = if samples == 0 {
        0.0
    } else {
        latency_delta as f64 / samples as f64
    };
    obj([
        ("candidate", Json::from(state.model.id.as_str())),
        ("candidate_kind", Json::from(state.model.kind.as_str())),
        ("candidate_epoch", Json::from(state.model.epoch)),
        ("samples", Json::from(samples)),
        (
            "agreements",
            Json::from(state.counters.agreements.load(Ordering::Relaxed)),
        ),
        (
            "disagreements",
            Json::from(state.counters.disagreements.load(Ordering::Relaxed)),
        ),
        ("agreement", Json::from(state.counters.agreement())),
        (
            "failures",
            Json::from(state.counters.failures.load(Ordering::Relaxed)),
        ),
        (
            "dropped",
            Json::from(state.counters.dropped.load(Ordering::Relaxed)),
        ),
        ("latency_delta_us_avg", Json::from(mean_delta)),
    ])
}

/// `GET /shadow`: the live session summary, or `{"active": false}`.
fn handle_shadow_status(registry: &ModelRegistry) -> HttpResponse {
    match registry.shadow() {
        Some(state) => {
            // Flatten the shared summary under a top-level `active` flag.
            let mut fields = vec![("active".to_string(), Json::from(true))];
            if let Json::Obj(pairs) = shadow_status_json(&state) {
                fields.extend(pairs);
            }
            HttpResponse::json(200, &Json::Obj(fields))
        }
        None => HttpResponse::json(200, &obj([("active", Json::from(false))])),
    }
}

/// Installs pushed artifact bytes as `<id>.scam`. The body is the raw
/// binary artifact; an optional `x-artifact-fnv1a` header (hex, with or
/// without `0x`) is the end-to-end checksum handshake — mismatch is a
/// 409 and nothing lands on disk.
fn handle_install(
    registry: &ModelRegistry,
    metrics: &Metrics,
    id: &str,
    request: &HttpRequest,
) -> HttpResponse {
    let expected = match request.header("x-artifact-fnv1a") {
        Some(raw) => {
            let digits = raw.strip_prefix("0x").unwrap_or(raw);
            match u64::from_str_radix(digits, 16) {
                Ok(v) => Some(v),
                Err(_) => {
                    return HttpResponse::error(
                        400,
                        "x-artifact-fnv1a must be a hex u64 (e.g. 0x1a2b3c)",
                    )
                }
            }
        }
        None => None,
    };
    if request.body.is_empty() {
        return HttpResponse::error(400, "empty body: expected ModelArtifact bytes");
    }
    match registry.install_artifact(id, &request.body, expected) {
        Ok(outcome) => {
            metrics.model_installs.fetch_add(1, Ordering::Relaxed);
            HttpResponse::json(
                200,
                &obj([
                    ("installed", Json::from(outcome.id.as_str())),
                    ("bytes", Json::from(outcome.bytes)),
                    (
                        "fnv1a",
                        Json::from(format!("{:#018x}", outcome.fingerprint)),
                    ),
                    ("replaced", Json::from(outcome.replaced)),
                ]),
            )
        }
        Err(e @ ServeError::ChecksumMismatch { .. }) => HttpResponse::error(409, &e.to_string()),
        Err(e @ ServeError::InvalidModelId { .. }) => HttpResponse::error(400, &e.to_string()),
        Err(e @ ServeError::Artifact(_)) => {
            HttpResponse::error(422, &format!("artifact rejected: {e}"))
        }
        Err(e) => HttpResponse::error(500, &e.to_string()),
    }
}

fn handle_remove(registry: &ModelRegistry, id: &str) -> HttpResponse {
    match registry.remove_artifact(id) {
        Ok(()) => HttpResponse::json(200, &obj([("deleted", Json::from(id))])),
        Err(e @ ServeError::ActiveModel { .. }) => HttpResponse::error(409, &e.to_string()),
        Err(e @ ServeError::UnknownModel { .. }) => HttpResponse::error(404, &e.to_string()),
        Err(e @ ServeError::InvalidModelId { .. }) => HttpResponse::error(400, &e.to_string()),
        Err(e) => HttpResponse::error(500, &e.to_string()),
    }
}

/// `POST /models/reload`: empty body re-resolves the directory (pin or
/// sort order); a `{"model": "<id>"}` body is a one-shot pin to exactly
/// that artifact — the canary/rollback primitive.
fn handle_reload(
    registry: &ModelRegistry,
    metrics: &Metrics,
    request: &HttpRequest,
) -> HttpResponse {
    let pin: Option<String> = if request.body.is_empty() {
        None
    } else {
        let body = match parse_body(request) {
            Ok(body) => body,
            Err(response) => return response,
        };
        match body.get("model") {
            Some(Json::Str(id)) => Some(id.clone()),
            Some(_) => return HttpResponse::error(400, "'model' must be a string"),
            None => None,
        }
    };
    match registry.reload_with(pin.as_deref()) {
        Ok(outcome) => {
            if outcome.swapped {
                metrics.model_swaps.fetch_add(1, Ordering::Relaxed);
            }
            HttpResponse::json(
                200,
                &obj([
                    ("swapped", Json::from(outcome.swapped)),
                    ("active", Json::from(outcome.active.as_str())),
                    ("model_epoch", Json::from(outcome.epoch)),
                ]),
            )
        }
        // The old model keeps serving on a failed reload; 409 tells the
        // operator the swap did not happen without killing traffic.
        Err(e) => HttpResponse::error(409, &format!("reload failed (still serving): {e}")),
    }
}

/// Parses a `"platform"` JSON field: `"evm"` or `"wasm"`.
fn parse_platform_field(value: &Json) -> Result<scamdetect_ir::Platform, HttpResponse> {
    match value.as_str() {
        Some("evm") => Ok(scamdetect_ir::Platform::Evm),
        Some("wasm") => Ok(scamdetect_ir::Platform::Wasm),
        _ => Err(HttpResponse::error(
            400,
            "'platform' must be \"evm\" or \"wasm\"",
        )),
    }
}

/// `POST /feedback`: records a verdict correction into the feedback log.
///
/// The correction carries a `label` (`"malicious"` / `"benign"`) and
/// identifies the contract either by `bytecode` (re-scored by the
/// champion, so the served verdict/score and the cache fingerprint are
/// recovered exactly) or by `skeleton` + `platform` (the fingerprint a
/// previous scan response reported; `score`/`served_verdict` optional —
/// without `served_verdict` the disagreement counter is not advanced
/// and the response's `disagreement` is `null`).
fn handle_feedback(
    registry: &ModelRegistry,
    metrics: &Metrics,
    feedback: Option<&SharedFeedbackLog>,
    request: &HttpRequest,
) -> HttpResponse {
    let Some(log) = feedback else {
        return HttpResponse::error(
            409,
            "feedback ingestion disabled (start the daemon with --feedback-log <path>)",
        );
    };
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let label = match body.get("label").and_then(Json::as_str) {
        Some("malicious") => scamdetect::lifecycle::ContractLabel::Malicious,
        Some("benign") => scamdetect::lifecycle::ContractLabel::Benign,
        _ => {
            return HttpResponse::error(400, "missing 'label': \"malicious\" or \"benign\"");
        }
    };
    let model = registry.model();

    // Resolve (platform, fingerprint, disputed score, disagreement).
    let (platform, fingerprint, score, disagreement) = if body.get("bytecode").is_some() {
        // Keyed by bytes: re-score with the champion so the correction
        // disputes exactly what the wire served (cache included).
        let wire_request = match wire::parse_scan_request(&body) {
            Ok(parsed) => parsed,
            Err(message) => return HttpResponse::error(400, &message),
        };
        let mut scan = ScanRequest::new(&wire_request.bytes);
        if let Some(platform) = wire_request.platform {
            scan = scan.on(platform);
        }
        match model.scanner.scan_request(&scan) {
            Ok(report) => {
                let disagreement = (report.verdict.label != label) as u8;
                (
                    report.verdict.platform,
                    report.skeleton,
                    report.verdict.malicious_probability,
                    Some(disagreement == 1),
                )
            }
            Err(e) => {
                return HttpResponse::error(422, &format!("cannot score feedback subject: {e}"))
            }
        }
    } else if let Some(skeleton) = body.get("skeleton") {
        let Some(hex) = skeleton.as_str() else {
            return HttpResponse::error(400, "'skeleton' must be a hex string");
        };
        let digits = hex.strip_prefix("0x").unwrap_or(hex);
        let Ok(fingerprint) = u64::from_str_radix(digits, 16) else {
            return HttpResponse::error(400, "'skeleton' must be a hex u64");
        };
        let Some(platform_field) = body.get("platform") else {
            return HttpResponse::error(400, "skeleton feedback requires 'platform'");
        };
        let platform = match parse_platform_field(platform_field) {
            Ok(p) => p,
            Err(response) => return response,
        };
        let score = body.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let disagreement = match body.get("served_verdict").and_then(Json::as_str) {
            Some("malicious") => Some(label != scamdetect::lifecycle::ContractLabel::Malicious),
            Some("benign") => Some(label != scamdetect::lifecycle::ContractLabel::Benign),
            Some(_) => {
                return HttpResponse::error(
                    400,
                    "'served_verdict' must be \"malicious\" or \"benign\"",
                )
            }
            None => None,
        };
        (platform, fingerprint, score, disagreement)
    } else {
        return HttpResponse::error(400, "feedback requires 'bytecode' or 'skeleton'");
    };

    let record = FeedbackRecord {
        fingerprint,
        platform,
        label,
        score,
        model_epoch: model.epoch,
        model_id: model.id.clone(),
    };
    let records = {
        let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = log.append(&record) {
            return HttpResponse::error(500, &format!("feedback log write failed: {e}"));
        }
        log.len()
    };
    metrics.lifecycle.incr(LifecycleCounter::Feedback);
    if disagreement == Some(true) {
        metrics
            .lifecycle
            .incr(LifecycleCounter::FeedbackDisagreements);
    }
    HttpResponse::json(
        200,
        &obj([
            ("recorded", Json::from(true)),
            ("skeleton", Json::from(format!("{fingerprint:016x}"))),
            ("platform", Json::from(platform.to_string())),
            (
                "disagreement",
                disagreement.map(Json::from).unwrap_or(Json::Null),
            ),
            ("log_records", Json::from(records)),
        ]),
    )
}

/// `POST /shadow/start`: loads `{"model": "<id>"}` as the shadow
/// candidate and begins mirroring served scans to it.
fn handle_shadow_start(
    registry: &ModelRegistry,
    metrics: &Metrics,
    request: &HttpRequest,
) -> HttpResponse {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let Some(id) = body.get("model").and_then(Json::as_str) else {
        return HttpResponse::error(400, "missing 'model': the candidate artifact id");
    };
    match registry.shadow_start(id, Arc::clone(&metrics.lifecycle)) {
        Ok(state) => HttpResponse::json(
            200,
            &obj([
                ("shadowing", Json::from(state.model.id.as_str())),
                ("candidate_kind", Json::from(state.model.kind.as_str())),
                ("candidate_epoch", Json::from(state.model.epoch)),
            ]),
        ),
        Err(e @ ServeError::UnknownModel { .. }) => HttpResponse::error(404, &e.to_string()),
        Err(e @ ServeError::ActiveModel { .. }) => HttpResponse::error(409, &e.to_string()),
        Err(e @ ServeError::InvalidModelId { .. }) => HttpResponse::error(400, &e.to_string()),
        Err(e @ ServeError::Artifact(_)) => {
            HttpResponse::error(422, &format!("candidate rejected: {e}"))
        }
        Err(e) => HttpResponse::error(500, &e.to_string()),
    }
}

/// `POST /shadow/promote`: the thresholded candidate → champion swap.
/// Body optional: `{"min_samples": n, "min_agreement": x}` override the
/// defaults (32 samples, 0.95 agreement).
fn handle_shadow_promote(
    registry: &ModelRegistry,
    metrics: &Metrics,
    request: &HttpRequest,
) -> HttpResponse {
    let (min_samples, min_agreement) = if request.body.is_empty() {
        (SHADOW_MIN_SAMPLES_DEFAULT, SHADOW_MIN_AGREEMENT_DEFAULT)
    } else {
        let body = match parse_body(request) {
            Ok(body) => body,
            Err(response) => return response,
        };
        let min_samples = match body.get("min_samples") {
            Some(v) => match v.as_f64() {
                Some(n) if n >= 0.0 => n as u64,
                _ => {
                    return HttpResponse::error(400, "'min_samples' must be a non-negative number")
                }
            },
            None => SHADOW_MIN_SAMPLES_DEFAULT,
        };
        let min_agreement = match body.get("min_agreement") {
            Some(v) => match v.as_f64() {
                Some(x) if (0.0..=1.0).contains(&x) => x,
                _ => return HttpResponse::error(400, "'min_agreement' must be in [0, 1]"),
            },
            None => SHADOW_MIN_AGREEMENT_DEFAULT,
        };
        (min_samples, min_agreement)
    };
    match registry.shadow_promote(min_samples, min_agreement) {
        Ok(outcome) => {
            if outcome.swapped {
                metrics.model_swaps.fetch_add(1, Ordering::Relaxed);
            }
            HttpResponse::json(
                200,
                &obj([
                    ("promoted", Json::from(outcome.active.as_str())),
                    ("swapped", Json::from(outcome.swapped)),
                    ("model_epoch", Json::from(outcome.epoch)),
                ]),
            )
        }
        Err(e @ (ServeError::ShadowUnavailable | ServeError::ShadowNotReady { .. })) => {
            HttpResponse::error(409, &e.to_string())
        }
        Err(e) => HttpResponse::error(409, &format!("promotion failed (still serving): {e}")),
    }
}
