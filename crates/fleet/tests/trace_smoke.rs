//! The CI trace-smoke gate: one real replica behind a real router on
//! loopback, a traced scan through the router, and the cross-process
//! span timeline read back over the wire.
//!
//! What it pins, end to end:
//!
//! * every routed response echoes `x-trace-id`; a client-sent id is
//!   honored verbatim and forces capture on both processes;
//! * the router's kept trace carries `route` and `forward` spans, and
//!   the forward note's `replica=<addr>` names the replica that
//!   actually served the request — the stitching contract
//!   `scamdetect-cli trace` relies on;
//! * the replica's kept trace (same id) covers the serve stages
//!   (queue wait, parse, handler, the scan pipeline, write) with
//!   consistent nesting — every parent resolves and children sit
//!   inside their parents' windows;
//! * each process's stage spans fit inside its trace total, and both
//!   totals fit inside the wire-observed latency (plus scheduling
//!   slack);
//! * `/trace/recent` lists the trace, an unknown id answers 404, and a
//!   tracing-disabled daemon answers 409;
//! * forced traces of a daemon miss, a daemon hit and a routed scan
//!   read back every note's exact text: admission load, cache status,
//!   handler status, and the router's owner and forward notes.
//!
//! The transport is env-driven (`SCAMDETECT_TRANSPORT`), so CI re-runs
//! this same body under the epoll backend.

use scamdetect::trace::TraceId;
use scamdetect_fleet::proxy::{spawn_router, RouterConfig};
use scamdetect_serve::client::{http_call, HttpClient};
use scamdetect_serve::daemon::{spawn, RunningDaemon, ServeConfig};
use scamdetect_serve::http::HttpConfig;
use scamdetect_serve::json::Json;
use scamdetect_serve::wire::encode_hex;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Same committed fixture as `fleet_smoke.rs`.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden-logreg-unified-v1.scam"
);

/// A decoded span row from a `/trace/<id>` reply.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    stage: String,
    start_us: u64,
    duration_us: u64,
    note: Option<String>,
}

fn spawn_replica(dir: &std::path::Path, trace_sample: u32) -> RunningDaemon {
    std::fs::create_dir_all(dir).expect("models dir");
    let golden = std::fs::read(GOLDEN_PATH).expect("golden fixture is committed");
    std::fs::write(dir.join("golden-v1.scam"), &golden).expect("stage artifact");
    let mut config = ServeConfig::default();
    config.http.addr = "127.0.0.1:0".to_string();
    config.http.workers = 4;
    config.http.trace_sample = trace_sample;
    config.registry.models_dir = dir.to_path_buf();
    spawn(config).expect("replica spawns")
}

fn scan_body() -> String {
    // Any valid contract works; reuse the corpus generator for a real
    // EVM body so the full lift → score pipeline runs.
    let corpus = scamdetect_dataset::Corpus::generate(&scamdetect_dataset::CorpusConfig {
        size: 1,
        seed: 0x7247,
        ..scamdetect_dataset::CorpusConfig::default()
    });
    format!(
        r#"{{"bytecode": "{}"}}"#,
        encode_hex(&corpus.contracts()[0].bytes)
    )
}

/// Fetches `/trace/<id>` until it lands in the ring (the trace is
/// pushed *after* the response write, so the client can win the race).
fn fetch_trace(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reply = http_call(addr, "GET", &format!("/trace/{id}"), None).expect("trace fetch");
        if reply.status == 200 {
            return Json::parse(&reply.body).expect("trace JSON");
        }
        assert!(
            Instant::now() < deadline,
            "{addr} never kept trace {id}: last answer {} {}",
            reply.status,
            reply.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spans_of(trace: &Json) -> Vec<Span> {
    trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .map(|s| Span {
            id: s.get("id").and_then(Json::as_f64).expect("span id") as u64,
            parent: s.get("parent").and_then(Json::as_f64).map(|p| p as u64),
            stage: s
                .get("stage")
                .and_then(Json::as_str)
                .expect("span stage")
                .to_string(),
            start_us: s.get("start_us").and_then(Json::as_f64).expect("start") as u64,
            duration_us: s.get("duration_us").and_then(Json::as_f64).expect("dur") as u64,
            note: s.get("note").and_then(Json::as_str).map(str::to_string),
        })
        .collect()
}

/// Every parent id resolves, and every child's window sits inside its
/// parent's — the wire-level mirror of `Trace::nesting_consistent`.
fn assert_nesting_consistent(spans: &[Span], who: &str) {
    for span in spans {
        let Some(parent_id) = span.parent else {
            continue;
        };
        let parent = spans
            .iter()
            .find(|s| s.id == parent_id)
            .unwrap_or_else(|| panic!("{who}: span {} orphaned (parent {parent_id})", span.id));
        assert!(
            span.start_us >= parent.start_us,
            "{who}: span {} ({}) starts before its parent {} ({})",
            span.id,
            span.stage,
            parent.id,
            parent.stage
        );
        assert!(
            span.start_us + span.duration_us <= parent.start_us + parent.duration_us,
            "{who}: span {} ({}) ends after its parent {} ({})",
            span.id,
            span.stage,
            parent.id,
            parent.stage
        );
    }
}

fn stage_set(spans: &[Span]) -> Vec<&str> {
    spans.iter().map(|s| s.stage.as_str()).collect()
}

#[test]
fn traced_scan_through_router_stitches_a_cross_process_timeline() {
    let base = std::env::temp_dir().join(format!("scamdetect-trace-smoke-{}", std::process::id()));
    let replica = spawn_replica(&base.join("models"), 16);
    let router = spawn_router(RouterConfig {
        replicas: vec![replica.addr],
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(150),
        ..RouterConfig::default()
    })
    .expect("router spawns");
    let front = router.addr;

    // A client-chosen id: forced capture on the router, and the router
    // forwards it so capture is forced on the replica too.
    let forced = TraceId::parse("c0ffee").expect("valid hex id");
    let forced_hex = forced.to_hex();
    let body = scan_body();
    let mut client = HttpClient::connect(front).expect("client connects");
    let sent = Instant::now();
    let reply = client
        .request_raw(
            "POST",
            "/scan",
            body.as_bytes(),
            &[("x-trace-id", &forced_hex)],
        )
        .expect("routed scan");
    let wire_us = sent.elapsed().as_micros() as u64;
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply.header("x-trace-id"),
        Some(forced_hex.as_str()),
        "routed response must echo the client's trace id"
    );

    // ── the router's half of the timeline ───────────────────────────
    let router_trace = fetch_trace(front, &forced_hex);
    assert_eq!(
        router_trace.get("trace_id").and_then(Json::as_str),
        Some(forced_hex.as_str())
    );
    assert_eq!(
        router_trace.get("forced").and_then(Json::as_bool),
        Some(true)
    );
    let router_spans = spans_of(&router_trace);
    assert_nesting_consistent(&router_spans, "router");
    let stages = stage_set(&router_spans);
    for want in ["request", "route", "forward"] {
        assert!(
            stages.contains(&want),
            "router trace lacks a {want} span: {stages:?}"
        );
    }
    let forward = router_spans
        .iter()
        .find(|s| s.stage == "forward")
        .expect("forward span");
    let note = forward
        .note
        .as_deref()
        .expect("forward span carries a note");
    let named_replica: SocketAddr = note
        .split_whitespace()
        .find_map(|t| t.strip_prefix("replica="))
        .expect("forward note names the replica")
        .parse()
        .expect("replica address parses");
    assert_eq!(
        named_replica, replica.addr,
        "forward span must name the replica that served the request"
    );
    assert!(
        note.contains("status=200"),
        "forward note must carry the replica's status: {note}"
    );

    // ── the replica's half, found via the forward note ──────────────
    let replica_trace = fetch_trace(named_replica, &forced_hex);
    assert_eq!(
        replica_trace.get("forced").and_then(Json::as_bool),
        Some(true),
        "forwarded x-trace-id must force capture on the replica"
    );
    let replica_spans = spans_of(&replica_trace);
    assert_nesting_consistent(&replica_spans, "replica");
    let stages = stage_set(&replica_spans);
    for want in ["request", "parse", "handler", "write"] {
        assert!(
            stages.contains(&want),
            "replica trace lacks a {want} span: {stages:?}"
        );
    }
    // The scan pipeline inside the handler: prep + cache lookup always
    // run; score runs unless the verdict cache already had the answer
    // (a single cold request always scores).
    for want in ["prep", "cache_lookup"] {
        assert!(
            stages.contains(&want),
            "replica trace lacks a {want} span: {stages:?}"
        );
    }

    // ── durations: spans fit their process, processes fit the wire ──
    let total = |t: &Json| t.get("total_us").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let (router_total, replica_total) = (total(&router_trace), total(&replica_trace));
    for (who, spans, process_total) in [
        ("router", &router_spans, router_total),
        ("replica", &replica_spans, replica_total),
    ] {
        for span in spans.iter() {
            assert!(
                span.start_us + span.duration_us <= process_total,
                "{who}: span {} ({}) overruns the trace total {process_total}µs",
                span.id,
                span.stage
            );
        }
    }
    // Generous slack: the client clock starts before the router's
    // accept timestamp and scheduling noise rides on top.
    const SLACK_US: u64 = 50_000;
    assert!(
        router_total <= wire_us + SLACK_US,
        "router total {router_total}µs exceeds wire latency {wire_us}µs (+slack)"
    );
    assert!(
        replica_total <= router_total + SLACK_US,
        "replica total {replica_total}µs exceeds the router's {router_total}µs (+slack)"
    );

    // ── listing + error paths ───────────────────────────────────────
    let recent = http_call(front, "GET", "/trace/recent", None).expect("recent");
    assert_eq!(recent.status, 200);
    let recent = Json::parse(&recent.body).expect("recent JSON");
    assert!(
        recent
            .get("traces")
            .and_then(Json::as_array)
            .expect("traces array")
            .iter()
            .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(forced_hex.as_str())),
        "/trace/recent must list the kept trace"
    );
    let missing = http_call(front, "GET", "/trace/ffffffffffffffff", None).expect("missing fetch");
    assert_eq!(missing.status, 404, "{}", missing.body);
    let bad = http_call(front, "GET", "/trace/not-hex", None).expect("bad fetch");
    assert_eq!(bad.status, 400, "{}", bad.body);

    router.stop().expect("clean router shutdown");
    replica.stop().expect("clean replica shutdown");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn tracing_disabled_daemon_answers_409_and_samples_nothing() {
    let base =
        std::env::temp_dir().join(format!("scamdetect-trace-smoke-off-{}", std::process::id()));
    let replica = spawn_replica(&base.join("models"), 0);

    let reply = http_call(replica.addr, "GET", "/trace/recent", None).expect("recent");
    assert_eq!(reply.status, 409, "{}", reply.body);
    let reply = http_call(replica.addr, "GET", "/trace/abc123", None).expect("by id");
    assert_eq!(reply.status, 409, "{}", reply.body);

    // Scans still work, and no x-trace-id materializes out of nowhere.
    let body = scan_body();
    let mut client = HttpClient::connect(replica.addr).expect("client connects");
    let reply = client
        .request("POST", "/scan", Some(&body))
        .expect("untraced scan");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-trace-id"), None);

    replica.stop().expect("clean replica shutdown");
    std::fs::remove_dir_all(&base).ok();
}

/// The body of a never-seen contract: the first contract of the corpus
/// generated from `seed`.
fn contract_body(seed: u64) -> String {
    let corpus = scamdetect_dataset::Corpus::generate(&scamdetect_dataset::CorpusConfig {
        size: 1,
        seed,
        ..scamdetect_dataset::CorpusConfig::default()
    });
    format!(
        r#"{{"bytecode": "{}"}}"#,
        encode_hex(&corpus.contracts()[0].bytes)
    )
}

/// Sends `body` to `/scan` at `addr` with a forced trace id; returns the
/// id's hex after checking the response echoes it.
fn forced_scan(addr: SocketAddr, body: &str, raw_id: u64) -> String {
    let hex = TraceId::from_raw(raw_id).expect("nonzero id").to_hex();
    let mut client = HttpClient::connect(addr).expect("client connects");
    let reply = client
        .request_raw("POST", "/scan", body.as_bytes(), &[("x-trace-id", &hex)])
        .expect("scan answers");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-trace-id"), Some(hex.as_str()));
    hex
}

/// The note of the one span tagged `stage`.
fn note_of<'a>(spans: &'a [Span], stage: &str, who: &str) -> &'a str {
    let mut tagged = spans.iter().filter(|s| s.stage == stage);
    let span = tagged
        .next()
        .unwrap_or_else(|| panic!("{who}: no {stage} span in {:?}", stage_set(spans)));
    assert!(tagged.next().is_none(), "{who}: more than one {stage} span");
    span.note
        .as_deref()
        .unwrap_or_else(|| panic!("{who}: the {stage} span has no note"))
}

/// An admission note reads exactly `queued=<n> in_flight=<n>
/// watermark=<w>`, with the configured watermark.
fn assert_admission_note(note: &str, watermark: usize, who: &str) {
    let fields: Vec<&str> = note.split(' ').collect();
    let value = |i: usize, key: &str| -> usize {
        fields
            .get(i)
            .and_then(|f| f.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{who}: admission note {note:?} lacks {key}<n>"))
    };
    let (queued, in_flight) = (value(0, "queued="), value(1, "in_flight="));
    assert_eq!(value(2, "watermark="), watermark, "{who}: {note}");
    assert_eq!(
        note,
        format!("queued={queued} in_flight={in_flight} watermark={watermark}"),
        "{who}: admission note"
    );
}

#[test]
fn forced_traces_read_back_exact_notes_on_hit_miss_and_routed_scans() {
    let base = std::env::temp_dir().join(format!("scamdetect-trace-notes-{}", std::process::id()));
    let replica = spawn_replica(&base.join("models"), 16);
    let router = spawn_router(RouterConfig {
        replicas: vec![replica.addr],
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(150),
        ..RouterConfig::default()
    })
    .expect("router spawns");
    // Both the daemon and the router run the default watermark.
    let watermark = HttpConfig::default().shed_watermark;
    let body = contract_body(0x7E57);

    // A daemon miss, then a daemon hit on the same contract.
    for (raw_id, cache, scores) in [
        (0xA11CE, "cache=Miss", true),
        (0xB0B, "cache=CacheHit", false),
    ] {
        let hex = forced_scan(replica.addr, &body, raw_id);
        let spans = spans_of(&fetch_trace(replica.addr, &hex));
        let who = format!("replica {cache}");
        assert_admission_note(note_of(&spans, "admission", &who), watermark, &who);
        assert_eq!(note_of(&spans, "cache_lookup", &who), cache);
        assert_eq!(note_of(&spans, "handler", &who), "status=200");
        assert_eq!(stage_set(&spans).contains(&"score"), scores, "{who}");
        assert_nesting_consistent(&spans, &who);
    }

    // A routed scan of a never-seen contract: the router's notes name
    // the owner and the replica, the replica's its own miss.
    let hex = forced_scan(router.addr, &contract_body(0x7E58), 0xC0DE);
    let spans = spans_of(&fetch_trace(router.addr, &hex));
    assert_admission_note(note_of(&spans, "admission", "router"), watermark, "router");
    assert_eq!(
        note_of(&spans, "route", "router"),
        format!("owner={} attempt=0", replica.addr)
    );
    assert_eq!(
        note_of(&spans, "forward", "router"),
        format!("replica={} status=200 attempt=0", replica.addr)
    );
    assert_eq!(note_of(&spans, "handler", "router"), "status=200");
    let spans = spans_of(&fetch_trace(replica.addr, &hex));
    assert_eq!(
        note_of(&spans, "cache_lookup", "routed replica"),
        "cache=Miss"
    );
    assert_eq!(note_of(&spans, "handler", "routed replica"), "status=200");

    router.stop().expect("clean router shutdown");
    replica.stop().expect("clean replica shutdown");
    std::fs::remove_dir_all(&base).ok();
}
