//! # scamdetect-serve
//!
//! The long-running scanning daemon: a **std-only** HTTP/1.1 server
//! (the workspace is offline — no tokio, no hyper, no serde) exposing
//! the [`scamdetect`] scanner behind a hot-swappable model registry.
//! This is the serving half of *train once, serve anywhere*: training
//! writes a versioned `ModelArtifact`, and a fleet of these daemons
//! serves it with bit-identical verdicts, swapping to new artifacts
//! mid-traffic without dropping a request.
//!
//! ## Serving quickstart
//!
//! ```text
//! # 1. Train once, persist the artifact into a models directory.
//! scamdetect-cli train --save models/rf-v1.scam --model rf
//!
//! # 2. Serve it (lexicographically last *.scam stem wins; pin with --model).
//! scamdetect-cli serve --models-dir models --addr 127.0.0.1:7878
//!
//! # 3. Scan over HTTP.
//! curl -s -X POST http://127.0.0.1:7878/scan \
//!      -d '{"bytecode": "0x363d3d373d3d3d363d73bebebebebebebebebebebebebebebebebebebebe5af43d82803e903d91602b57fd5bf3"}'
//! # → {"verdict":"benign","score":0.142…,"threshold":0.5,"platform":"evm",
//! #    "cache":"miss","model":"rf-v1","model_epoch":0,"skeleton":"…",
//! #    "blocks":…,"instructions":…,"elapsed_us":…}
//!
//! # 4. Ship a new model and hot-swap it under live traffic.
//! scamdetect-cli train --save models/rf-v2.scam --model rf --seed 43
//! curl -s -X POST http://127.0.0.1:7878/models/reload
//! # → {"swapped":true,"active":"rf-v2","model_epoch":1}
//! ```
//!
//! `GET /healthz` answers liveness, `GET /metrics` is Prometheus text
//! (request counters, cache hit ratio, p50/p99 scan latency, swap
//! count), `GET /models` lists the directory, and `POST /batch` scans
//! many contracts with skeleton dedup + parallel workers. The full
//! JSON wire schema is documented in [`wire`].
//!
//! ## Architecture
//!
//! * [`http`] — hand-rolled HTTP/1.1 on `std::net::TcpListener`, split
//!   into a protocol layer and a connection layer behind the
//!   [`http::Transport`] seam. The protocol layer (incremental
//!   request parser, size limits, deadlines, keep-alive rules,
//!   graceful shutdown on SIGTERM/ctrl-c) is shared; the connection
//!   layer is pluggable: [`http::ThreadedTransport`] is the portable
//!   blocking worker pool, [`http::EpollTransport`] is an
//!   event-driven `epoll` readiness loop (Linux) where idle
//!   keep-alive connections cost a registration + parser buffer
//!   instead of a thread. Select with [`HttpConfig::transport`]
//!   (`--transport {threads,epoll}` on the CLI, or the
//!   `SCAMDETECT_TRANSPORT` env var).
//! * [`json`] — minimal JSON value/writer/tolerant reader; float
//!   rendering round-trips `f64` bit-exactly, so served scores equal
//!   library scores to the last bit.
//! * [`registry`] — the [`ModelRegistry`]:
//!   versioned artifacts on disk, one `Arc<ServingModel>` snapshot in
//!   memory. Swaps are a pointer store; readers clone the `Arc` and
//!   never block on a swap. Verdict caches die with their snapshot (a
//!   stale score cannot outlive its model) while the shared
//!   prepared-input cache ([`scamdetect::PrepCache`]) survives, so a
//!   swap costs one re-score per warm skeleton instead of a re-lift.
//! * [`metrics`] — relaxed-atomic counters + log-linear latency
//!   histograms, rendered as Prometheus text.
//! * [`daemon`] — the routes, [`daemon::ServeConfig`], and the
//!   [`daemon::serve`] / [`daemon::spawn`] entry points (foreground
//!   CLI use vs. embedded tests/benches).
//!
//! The `serve_smoke` integration test gates this surface over the
//! wire: golden score bits through JSON, `/batch` dedup, `/metrics`,
//! a hot reload and a clean drain. The serving path's speed is
//! measured by `perfbench` (the repository's benchmark harness, its
//! own package under `perfbench/`), which drives a loopback daemon
//! with a keep-alive client and reports scans/s and p50/p99.
//!
//! ## Operating under load
//!
//! The daemon degrades *explicitly*, never silently, and the policy is
//! transport-independent: both backends enforce the same admission
//! gate, deadlines, and drain semantics, so switching transports is a
//! capacity decision, not a behavior change.
//!
//! * **Choosing a transport.** `threads` (the default) parks one pool
//!   worker per live connection — simple, portable, and right when
//!   connection counts stay near the pool size. `epoll` multiplexes
//!   every connection onto one event-loop thread and hands only
//!   *complete* requests to the same worker pool — right for fleet
//!   fronts and long-poll clients where idle keep-alive connections
//!   dwarf the pool (thousands of open connections, worker-pool-sized
//!   thread count). The epoll backend is Linux-only;
//!   [`HttpServer::bind`](http::HttpServer::bind) fails fast with
//!   `Unsupported` elsewhere, and `threads` remains the portable
//!   fallback.
//! * **Admission control.** Connections queue at the accept→worker
//!   handoff; past [`HttpConfig::shed_watermark`] queued jobs
//!   (default 256, `--shed-watermark` on the CLI, `0` disables) new
//!   arrivals are shed immediately with `429 Too Many Requests` plus a
//!   `Retry-After: <s>` header ([`HttpConfig::retry_after_s`]). An
//!   honest early 429 beats an unbounded queue: the client can back
//!   off or re-route while accepted requests keep their latency.
//! * **Slow-client defense.** A request that does not fully arrive
//!   within [`HttpConfig::request_deadline`] gets `408 + Retry-After`
//!   and the connection closes — a slowloris dribbling one byte per
//!   idle-timeout cannot pin a pool worker forever, and healthy
//!   requests on other connections are unaffected.
//! * **Observability.** `GET /metrics` exposes the live gauge:
//!   `scamdetect_queue_depth`, `scamdetect_in_flight_requests`, and
//!   the `scamdetect_requests_shed_total` counter, alongside p50/p99
//!   scan latency. Watch shed-total's rate to size the fleet.
//! * **Retry semantics.** 408/429 responses always carry `Retry-After`;
//!   clients should treat them as backpressure, not failure. The
//!   bundled [`client::HttpClient`] resends idempotent requests once
//!   over a fresh connection and exposes
//!   [`client::HttpClient::request_raw_opts`] with `retry_safe = false`
//!   for writes that must never double-send.
//!
//! Shedding is gated by `overload::saturated_daemon_sheds_429_then_recovers`
//! (429 + `Retry-After`, the shed counted on `/metrics`, recovery once
//! the worker frees) and, on both transports, by
//! `transport_conformance::admission_gate_sheds_past_the_watermark_with_429`.
//! The idle-connection claim for `epoll` is gated by
//! `transport_conformance::epoll_holds_5000_idle_connections_with_a_pool_sized_thread_count`.
//!
//! ## Model lifecycle
//!
//! Serving is not the end of a model's life: verdicts come back as
//! corrections, corrections become the next model, and the next model
//! must prove itself on real traffic before it answers the wire. The
//! [`lifecycle`] module (with [`scamdetect::lifecycle`] underneath)
//! closes that loop in three stages:
//!
//! * **Feedback ingestion.** `POST /feedback` records ground-truth
//!   corrections — keyed by the same skeleton fingerprint the caches
//!   shard on — into an append-only, length+checksum-framed log
//!   ([`scamdetect::lifecycle::FeedbackLog`], enabled with
//!   `--feedback-log <path>`). Replay tolerates torn tails and
//!   detects corruption, in the same crash-safety style as the model
//!   artifact format. Disagreement with the serving champion is
//!   counted as it happens (`scamdetect_feedback_total`,
//!   `scamdetect_feedback_disagreements_total`).
//! * **Shadow scoring.** `POST /shadow/start` loads a candidate
//!   artifact beside the champion; every scan is mirrored to it off
//!   the response path (a bounded queue that drops rather than
//!   blocks — serving latency is never taxed, and champion scores
//!   stay bit-identical shadow on or off). `POST /shadow/promote`
//!   refuses until the candidate has scored enough mirrored traffic
//!   at high enough agreement, then performs the usual epoch-bumped
//!   hot swap. The wire details live in [`wire`].
//! * **Drift telemetry.** [`DriftTelemetry`] keeps per-platform score
//!   histograms for the current window against a trailing baseline,
//!   cache-hit-rate decay, and the feedback disagreement rate —
//!   `/metrics` surfaces all three so dashboards see a model aging
//!   before operators do.
//!
//! Every lifecycle counter is declared once, in
//! [`LIFECYCLE_COUNTERS`] — the daemon's `/metrics` renderer, the
//! fleet router's roll-up, and the CLI all read that one table, so a
//! new counter cannot silently miss an aggregation point.
//!
//! The operator's loop, end to end:
//!
//! ```text
//! # 1. Serve with feedback ingestion on.
//! scamdetect-cli serve --models-dir models --feedback-log feedback.log
//!
//! # 2. File corrections as they come back from analysts.
//! curl -s -X POST http://127.0.0.1:7878/feedback \
//!      -d '{"bytecode": "0x6001600155", "label": "malicious"}'
//!
//! # 3. Retrain with the log folded into the corpus (deterministic
//! #    given --seed and the log), saving a candidate artifact.
//! scamdetect-cli retrain --feedback-log feedback.log \
//!     --save models/rf-v4.scam --model rf --seed 44
//!
//! # 4. Shadow it on real traffic; watch agreement; promote when ready.
//! scamdetect-cli shadow start --model rf-v4
//! scamdetect-cli shadow status
//! scamdetect-cli shadow promote --min-samples 256 --min-agreement 0.98
//! ```
//!
//! Fleet-wide, `scamdetect-cli fleet rollout --shadow` runs the same
//! gate per replica inside the staged rollout. The `lifecycle_smoke`
//! integration test gates the loop over the wire:
//! `feedback_retrain_shadow_promote_closes_the_lifecycle_loop` drives
//! feedback → retrain → shadow → promote, and
//! `concurrent_shadow_scoring_leaves_champion_scores_bit_identical`
//! proves champion scores bit-identical with the shadow on, off and
//! stopped.
//!
//! ## Observability
//!
//! Every request can carry a distributed trace: a [`scamdetect::trace::TraceId`]
//! plus a tree of stage spans (accept → parse → queue wait → admission
//! → handler → cache lookup → prep → score → serialize → write)
//! recorded with monotonic timestamps on both transports. The span
//! machinery is std-only ([`scamdetect::trace`]); completed traces
//! drain into a bounded in-memory ring ([`http::TraceHub`]) that
//! *drops* under pressure rather than blocking a worker.
//!
//! * **Sampling.** Head-based: 1 in [`HttpConfig::trace_sample`]
//!   requests is captured (`--trace-sample <n>` on the CLI; default 16,
//!   `0` disables tracing entirely and the `/trace/*` routes answer
//!   `409`). Two overrides force capture regardless of the sampler: a
//!   client-sent `x-trace-id` header (honored verbatim, echoed on the
//!   response — this is how the fleet router propagates one id across
//!   processes), and any request slower than
//!   [`HttpConfig::trace_slow_us`] (`--trace-slow-ms`, default 50 ms) —
//!   the tail you most want to explain is always kept.
//! * **Reading a trace.** `GET /trace/recent` lists the ring's newest
//!   traces (plus kept/dropped totals); `GET /trace/<id>` returns one
//!   full span tree. Both are documented in [`wire`]. For a routed
//!   request, `scamdetect-cli trace <id> --router <addr>` stitches the
//!   cross-process timeline: it fetches the router's trace, follows
//!   each forward span's `replica=<addr>` note to the replica that
//!   served it, and splices the replica's spans under the forward span
//!   on one shifted clock — queue wait, cache lookup, and scoring time
//!   line up against the wire latency in a single indented tree.
//! * **Cost.** With tracing on, *every* request records a trace, and
//!   what it pays is small and fixed: a trace id (a counter and a
//!   mix; the wall clock is read once per process), a span collector
//!   that reuses a buffer from its thread's pool instead of
//!   allocating, one clock read per span, notes kept as raw numbers
//!   and addresses rather than text, the `x-trace-id` header written
//!   from the id's digits straight into the response buffer, and the
//!   per-stage histogram updates at finish. Only a *kept* trace
//!   (sampled, forced or slow) pays for the rest: its immutable
//!   [`scamdetect::trace::Trace`] with an owned span list, its note
//!   texts, one wall-clock read for `unix_start_us`, and a ring slot.
//!   The `hit_path_allocations` test holds a cache hit, tracing
//!   included, to an allocation budget on both transports.
//! * **`parse`** runs from a request's first byte to its parsed head
//!   and body. A request pipelined behind another starts its clock
//!   when the transport turns to it, so neither its `parse` span nor
//!   its `request` span holds its predecessor's handler and write
//!   (`transport_conformance` gates this on both transports).
//! * **Histograms.** `/metrics` renders real log-linear latency
//!   histograms ([`metrics::LatencyHistogram`]) as Prometheus
//!   `_bucket`/`_sum`/`_count` series — per endpoint
//!   (`scamdetect_request_duration_us`: scanner compute for `scan`,
//!   the whole handler for `batch`) and per pipeline stage
//!   (`scamdetect_stage_duration_us`) — so dashboards aggregate true
//!   percentiles across the fleet instead of averaging per-replica
//!   p99s. Each slowest-bucket gauge carries a `trace_id` exemplar
//!   label: from a latency spike on a dashboard to the exact span tree
//!   that caused it is one `scamdetect-cli trace` away.
//!
//! The fleet crate's `trace_smoke` integration test gates trace
//! propagation, stitching and read-back (`/trace/recent`,
//! `/trace/<id>`), and its `metrics_conformance` test gates the
//! histogram series' text format. `perfbench --trace 1` times each
//! layer of the serving path from outside the daemon.
//!
//! Embedded use (tests, benches, other daemons):
//!
//! ```no_run
//! use scamdetect_serve::daemon::{spawn, ServeConfig};
//!
//! # fn main() -> Result<(), scamdetect_serve::registry::ServeError> {
//! let mut config = ServeConfig::default();
//! config.http.addr = "127.0.0.1:0".to_string(); // ephemeral port
//! config.registry.models_dir = "models".into();
//! let daemon = spawn(config)?;
//! println!("serving on {}", daemon.addr);
//! daemon.stop().expect("clean shutdown");
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod daemon;
pub mod http;
pub mod json;
pub mod lifecycle;
pub mod metrics;
pub mod registry;
pub mod wire;

pub use daemon::{serve, spawn, RunningDaemon, ServeConfig};
pub use http::{
    ConfigError, EpollTransport, HttpConfig, HttpConfigBuilder, LoadGauge, ShutdownHandle,
    ThreadedTransport, TraceHub, Transport, TransportKind,
};
pub use lifecycle::{DriftTelemetry, LifecycleConfig};
pub use metrics::{LifecycleCounter, LifecycleCounters, MetricDef, LIFECYCLE_COUNTERS};
pub use registry::{ModelRegistry, RegistryConfig, ServeError, ServingModel};
