//! The CI serve-smoke gate: a real daemon on an ephemeral port serving
//! the repo's committed golden artifact fixture, driven over plain
//! `std::net::TcpStream`.
//!
//! What it pins, end to end over the wire:
//!
//! * `/healthz` answers and names the model.
//! * `/scan` reproduces the golden fixture's committed score
//!   **bit-for-bit through JSON** (the wire format's float rendering is
//!   part of the serving contract) with the committed threshold's
//!   verdict, and a re-scan reports a cache hit.
//! * `/batch` deduplicates within the request.
//! * `/metrics` exposes the traffic in Prometheus text format, and
//!   `scamdetect_request_duration_us` counts what its HELP text says:
//!   `endpoint="scan"` takes one sample per `/scan` plus one amortised
//!   sample per `/batch`, `endpoint="batch"` one per `/batch`.
//! * `POST /models/reload` hot-swaps to a newly dropped artifact.
//! * Shutdown is clean: the server drains, its thread joins, the port
//!   closes.

use scamdetect_dataset::{Corpus, CorpusConfig};
use scamdetect_serve::client::{http_call, HttpClient};
use scamdetect_serve::daemon::{spawn, ServeConfig};
use scamdetect_serve::json::Json;
use scamdetect_serve::wire::encode_hex;

/// The committed fixture (shared with `tests/model_artifact.rs` at the
/// workspace root, which pins the same constants against the library).
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden-logreg-unified-v1.scam"
);
const GOLDEN_SEED: u64 = 0x601D;
const GOLDEN_THRESHOLD: f64 = 0.625;
/// P(malicious) bit patterns of the golden model on the four probe
/// contracts, identical to the library-level golden test.
const GOLDEN_SCORE_BITS: [u64; 4] = [
    0x3FE5B791C7F65C58, // 0.6786583810343343 → malicious at 0.625
    0x3FEBD01B2729C1DE, // 0.8691535725502566 → malicious
    0x3F7B05F5FE2E742D, // 0.006597481641532216 → benign
    0x3F849BF9437DA553, // 0.010063121196895486 → benign
];

fn golden_probe_corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        size: 4,
        seed: GOLDEN_SEED ^ 1,
        ..CorpusConfig::default()
    })
}

fn hex_body(bytes: &[u8]) -> String {
    format!(r#"{{"bytecode": "{}"}}"#, encode_hex(bytes))
}

#[test]
fn daemon_serves_the_golden_artifact_reloads_and_shuts_down_cleanly() {
    // A models dir holding the committed golden fixture.
    let dir = std::env::temp_dir().join(format!("scamdetect-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("models dir");
    let golden_bytes = std::fs::read(GOLDEN_PATH).expect("golden fixture is committed");
    std::fs::write(dir.join("golden-v1.scam"), &golden_bytes).expect("stage artifact");

    let mut config = ServeConfig::default();
    config.http.addr = "127.0.0.1:0".to_string();
    config.http.workers = 2;
    config.registry.models_dir = dir.clone();
    let daemon = spawn(config).expect("daemon spawns");
    let addr = daemon.addr;

    // ── /healthz ────────────────────────────────────────────────────
    let health = http_call(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    let health = Json::parse(&health.body).expect("healthz is JSON");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("model").unwrap().as_str(), Some("golden-v1"));

    // ── /scan: every golden probe, bit-exact over the wire ──────────
    let probes = golden_probe_corpus();
    let mut client = HttpClient::connect(addr).expect("client connects");
    for (contract, &expected_bits) in probes.contracts().iter().zip(&GOLDEN_SCORE_BITS) {
        let reply = client
            .request("POST", "/scan", Some(&hex_body(&contract.bytes)))
            .expect("scan");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let verdict = Json::parse(&reply.body).expect("scan response is JSON");
        let score = verdict.get("score").unwrap().as_f64().unwrap();
        assert_eq!(
            score.to_bits(),
            expected_bits,
            "wire score {score} drifted from the committed golden bits"
        );
        let expected_verdict = if f64::from_bits(expected_bits) >= GOLDEN_THRESHOLD {
            "malicious"
        } else {
            "benign"
        };
        assert_eq!(
            verdict.get("verdict").unwrap().as_str(),
            Some(expected_verdict)
        );
        assert_eq!(
            verdict.get("threshold").unwrap().as_f64(),
            Some(GOLDEN_THRESHOLD),
            "the artifact's saved threshold must ride into serving"
        );
        assert_eq!(verdict.get("model").unwrap().as_str(), Some("golden-v1"));
        assert_eq!(verdict.get("cache").unwrap().as_str(), Some("miss"));
    }
    // Re-scan: the verdict cache answers.
    let reply = client
        .request(
            "POST",
            "/scan",
            Some(&hex_body(&probes.contracts()[0].bytes)),
        )
        .expect("re-scan");
    let verdict = Json::parse(&reply.body).expect("JSON");
    assert_eq!(verdict.get("cache").unwrap().as_str(), Some("hit"));

    // ── /batch: in-request dedup ────────────────────────────────────
    let duplicate = {
        let hex = encode_hex(&probes.contracts()[1].bytes);
        format!(
            r#"{{"requests": [{{"bytecode": "{hex}"}}, {{"bytecode": "{hex}"}}, {{"bytecode": "zz"}}]}}"#
        )
    };
    let reply = client
        .request("POST", "/batch", Some(&duplicate))
        .expect("batch");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let batch = Json::parse(&reply.body).expect("JSON");
    let results = batch.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0].get("score").unwrap().as_f64().unwrap().to_bits(),
        GOLDEN_SCORE_BITS[1]
    );
    assert_eq!(results[1].get("cache").unwrap().as_str(), Some("hit"));
    assert!(
        results[2].get("error").is_some(),
        "a malformed slot degrades alone: {}",
        reply.body
    );

    // ── /metrics ────────────────────────────────────────────────────
    let metrics = http_call(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("scamdetect_requests_total 5"));
    assert!(metrics.body.contains("scamdetect_scan_latency_p99_us"));
    assert!(metrics
        .body
        .contains("scamdetect_model_info{model=\"golden-v1\"} 1"));
    let (scan_requests, batch_requests) = (probes.contracts().len() + 1, 1);
    for (endpoint, count) in [
        ("scan", scan_requests + batch_requests),
        ("batch", batch_requests),
    ] {
        let series =
            format!("scamdetect_request_duration_us_count{{endpoint=\"{endpoint}\"}} {count}\n");
        assert!(
            metrics.body.contains(&series),
            "expected {series:?} in:\n{}",
            metrics.body
        );
    }

    // ── hot reload: drop a v2 artifact, swap, verify it serves ──────
    std::fs::write(dir.join("golden-v2.scam"), &golden_bytes).expect("stage v2");
    let reply = http_call(addr, "POST", "/models/reload", None).expect("reload");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let outcome = Json::parse(&reply.body).expect("JSON");
    assert_eq!(outcome.get("swapped").unwrap().as_bool(), Some(true));
    assert_eq!(outcome.get("active").unwrap().as_str(), Some("golden-v2"));
    let reply = client
        .request(
            "POST",
            "/scan",
            Some(&hex_body(&probes.contracts()[0].bytes)),
        )
        .expect("post-swap scan");
    let verdict = Json::parse(&reply.body).expect("JSON");
    assert_eq!(verdict.get("model").unwrap().as_str(), Some("golden-v2"));
    // Same weights in v2, so the same committed bits — via the swapped
    // snapshot and the surviving prep cache.
    assert_eq!(
        verdict.get("score").unwrap().as_f64().unwrap().to_bits(),
        GOLDEN_SCORE_BITS[0]
    );
    let models = http_call(addr, "GET", "/models", None).expect("models");
    let models = Json::parse(&models.body).expect("JSON");
    assert_eq!(models.get("active").unwrap().as_str(), Some("golden-v2"));
    assert_eq!(models.get("models").unwrap().as_array().unwrap().len(), 2);

    // ── clean shutdown ──────────────────────────────────────────────
    let stats = daemon.stop().expect("server thread joins without panic");
    assert!(stats.requests >= 10);
    assert!(
        std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(300)).is_err(),
        "the port must be closed after shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}
