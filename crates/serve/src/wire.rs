//! The daemon's JSON wire schema: scan requests in, verdicts out.
//!
//! # Scan request (`POST /scan`, and each element of `POST /batch`'s
//! `requests` array)
//!
//! ```json
//! {
//!   "bytecode": "0x363d3d373d3d3d363d73…",
//!   "encoding": "hex",
//!   "platform": "evm"
//! }
//! ```
//!
//! * `bytecode` (required): the contract bytes. Hex by default
//!   (optional `0x` prefix, embedded whitespace ignored); set
//!   `"encoding": "base64"` for standard base64 (URL-safe alphabet and
//!   missing padding tolerated).
//! * `platform` (optional): `"evm"` or `"wasm"` pins the platform;
//!   omitted = magic-byte auto-detection.
//!
//! Unknown fields are ignored (tolerant reader).
//!
//! # Scan response
//!
//! ```json
//! {
//!   "verdict": "malicious",
//!   "score": 0.9731,
//!   "threshold": 0.5,
//!   "platform": "evm",
//!   "cache": "miss",
//!   "model": "rf-v3",
//!   "model_epoch": 2,
//!   "skeleton": "9f86d081884c7d65",
//!   "blocks": 12,
//!   "instructions": 230,
//!   "elapsed_us": 412
//! }
//! ```
//!
//! * `verdict`: `"malicious"` | `"benign"`; `score` is P(malicious),
//!   thresholded by `threshold` (both returned so clients can re-judge).
//!   `score` round-trips bit-exactly through the JSON number (shortest
//!   round-trip float formatting).
//! * `cache`: `"miss"` | `"hit"` (cross-request verdict cache) |
//!   `"batch"` (deduplicated within one batch request).
//! * `model` / `model_epoch`: exactly which registry snapshot scored
//!   this request — during a hot swap, in-flight requests finish on
//!   their old snapshot and say so.
//! * `skeleton`: the dedup fingerprint, 16 lowercase hex digits.
//!
//! A failed scan inside `/batch` yields `{"error": "<message>"}` in
//! that slot; other slots are unaffected. `POST /scan` reports the
//! same envelope with status 422.
//!
//! The report schema has one implementation, [`render_report`]: a
//! borrowed [`ReportView`] whose writer appends the compact JSON
//! straight into the caller's buffer, with the same number and string
//! rendering as [`Json::render`]. `/scan` renders one view as its
//! body, and [`render_batch`] writes one per `/batch` slot, so neither
//! builds a [`Json`] tree for a verdict.
//!
//! # Batch request / response (`POST /batch`)
//!
//! ```json
//! {"requests": [{"bytecode": "…"}, {"bytecode": "…"}]}
//! {"results": [{…scan response…}, {"error": "…"}]}
//! ```
//!
//! # Health (`GET /healthz`)
//!
//! Always HTTP 200 while the daemon is up — old probes may keep
//! checking only the status code. The body carries the snapshot a
//! fleet router needs for staleness-aware decisions:
//!
//! ```json
//! {
//!   "status": "ok",
//!   "model": "rf-v3",
//!   "model_epoch": 2,
//!   "kind": "random_forest[unified]",
//!   "threshold": 0.5,
//!   "swaps": 2,
//!   "uptime_s": 86400,
//!   "verdict_cache_entries": 4096,
//!   "prep_cache_entries": 4096,
//!   "shadow": "off"
//! }
//! ```
//!
//! `shadow` names the candidate of the live shadow session, or the
//! string `"off"` — a router can see mid-evaluation replicas at a
//! glance.
//!
//! # Artifact push (`PUT /models/<id>`)
//!
//! The request body is the **raw binary** [`ModelArtifact`] bytes (the
//! same `<id>.scam` file `scamdetect-cli train --save` writes) — no
//! JSON envelope, no base64. The optional `x-artifact-fnv1a` header is
//! an end-to-end checksum handshake: FNV-1a over the whole body, hex
//! (`0x` prefix optional). The daemon re-hashes what it received and
//! answers **409** on mismatch, installing nothing; it also parses the
//! artifact (which verifies the embedded per-section checksums) before
//! the atomic write, answering **422** for structurally broken bytes
//! and **400** for an unusable id (want 1–64 chars of `[A-Za-z0-9._-]`,
//! not starting with `.`). Success:
//!
//! ```json
//! {"installed": "rf-v4", "bytes": 18204,
//!  "fnv1a": "0x1a2b3c4d5e6f7a8b", "replaced": false}
//! ```
//!
//! Installing never swaps: the artifact lands in the models directory
//! and waits for a reload. `DELETE /models/<id>` removes an idle
//! artifact (409 when `<id>` is being served, 404 when absent) — the
//! cleanup half of an aborted rollout.
//!
//! # Reload (`POST /models/reload`)
//!
//! Empty body: re-resolve the models directory (configured pin, else
//! lexicographically last stem) and swap if the artifact changed. With
//! a body `{"model": "<id>"}`: a one-shot pin to exactly that artifact
//! regardless of sort order — how a rollout canaries one replica onto
//! a pushed candidate and how an abort rolls it back. Response either
//! way:
//!
//! ```json
//! {"swapped": true, "active": "rf-v4", "model_epoch": 3}
//! ```
//!
//! # Feedback (`POST /feedback`)
//!
//! Records a ground-truth correction into the append-only feedback
//! log (409 unless the daemon was started with `--feedback-log`).
//! Two shapes, by subject:
//!
//! ```json
//! {"bytecode": "0x6001600155", "label": "malicious"}
//! {"skeleton": "9f86d081884c7d65", "platform": "evm",
//!  "label": "benign", "score": 0.97, "served_verdict": "malicious"}
//! ```
//!
//! * With `bytecode`, the daemon re-scores the contract on the current
//!   champion itself: the record's fingerprint is the scan's skeleton,
//!   its score the champion's, and *disagreement* is judged against
//!   the champion's own verdict (422 when the bytes cannot be
//!   scanned).
//! * With `skeleton` (16 hex digits, `0x` tolerated), `platform`
//!   (`"evm"` | `"wasm"`) is required, `score` and `served_verdict`
//!   are optional — clients that kept the original scan response can
//!   file corrections without resending bytecode. Without
//!   `served_verdict`, disagreement is unknown and reported `null`.
//! * `label` (required): `"malicious"` | `"benign"` — the corrected
//!   ground truth.
//!
//! ```json
//! {"recorded": true, "skeleton": "9f86d081884c7d65",
//!  "platform": "evm", "disagreement": true, "log_records": 42}
//! ```
//!
//! Each record also captures the serving model's id and epoch, so a
//! folded retrain can be traced to the champion it corrects.
//! `scamdetect-cli retrain --feedback-log <path>` replays the log and
//! folds it into the training corpus (last record wins per
//! fingerprint), deterministically given the seed and the log.
//!
//! # Shadow scoring (`/shadow`, `/shadow/start`, `/shadow/stop`,
//! `/shadow/promote`)
//!
//! A shadow session loads a **candidate** artifact beside the serving
//! champion and mirrors every `/scan` and `/batch` subject to it off
//! the response path — the champion alone answers the wire, and its
//! scores stay bit-identical whether a shadow is running or not.
//!
//! * `POST /shadow/start`, body `{"model": "<id>"}`: load `<id>` from
//!   the models directory as the candidate (404 unknown, 409 when it
//!   is the champion, 422 when the artifact is broken). Response:
//!   `{"shadowing": "<id>", "candidate_kind": …, "candidate_epoch": …}`.
//! * `GET /shadow`: `{"active": false}` or the live session summary —
//!   candidate identity, `samples`, `agreements`, `disagreements`,
//!   `dropped` (mirror-queue overflow: mirroring sheds before it ever
//!   blocks serving), `agreement` ratio, and the mean candidate-vs-
//!   champion `latency_delta_us`.
//! * `POST /shadow/promote`, body `{"min_samples": 32,
//!   "min_agreement": 0.95}` (both optional, defaults shown): refuse
//!   with 409 until the candidate has scored at least `min_samples`
//!   mirrored requests at `min_agreement` champion agreement; then
//!   perform the same epoch-bumped hot swap as a reload and end the
//!   session. Response: `{"promoted": "<id>", "swapped": true,
//!   "model_epoch": …}`.
//! * `POST /shadow/stop`: tear the session down, candidate never
//!   served — `{"stopped": true}`.
//!
//! Session counters reset per session and gate promotion; the
//! monotonic `scamdetect_shadow_*` counters on `/metrics` never reset
//! and track the daemon's lifetime mirroring volume.
//!
//! # Request traces (`GET /trace/recent`, `GET /trace/<id>`)
//!
//! With tracing enabled (`--trace-sample` > 0), every response carries
//! an `x-trace-id` header, and the traces that were *kept* — head
//! sampled, slower than the slow threshold, or forced by the client
//! sending its own `x-trace-id` request header — are retrievable while
//! they remain in the bounded recent-trace ring.
//!
//! `GET /trace/recent` lists summaries, newest first (at most
//! [`TRACE_RECENT_LIMIT`]), plus the ring's lifetime keep/drop
//! counters. 409 while tracing is disabled.
//!
//! ```json
//! {"kept": 41, "dropped": 0,
//!  "traces": [{"trace_id": "9f86d081884c7d65",
//!              "unix_start_us": 1723100000000000,
//!              "total_us": 1412, "slow": false, "sampled": true,
//!              "forced": false, "spans": 9}]}
//! ```
//!
//! `GET /trace/<id>` (id: the 16-hex-digit `x-trace-id`, shorter forms
//! tolerated) returns the full span tree, or 404 once the trace has
//! been sampled away or evicted:
//!
//! ```json
//! {"trace_id": "9f86d081884c7d65",
//!  "unix_start_us": 1723100000000000,
//!  "total_us": 1412, "slow": false, "sampled": true, "forced": false,
//!  "spans": [
//!    {"id": 0, "parent": null, "stage": "request",
//!     "start_us": 0, "duration_us": 1412, "note": null},
//!    {"id": 1, "parent": 0, "stage": "queue_wait",
//!     "start_us": 0, "duration_us": 102, "note": null},
//!    {"id": 4, "parent": 0, "stage": "handler",
//!     "start_us": 131, "duration_us": 1201, "note": "status=200"}]}
//! ```
//!
//! * `start_us` is relative to the trace origin (span 0's start), so a
//!   timeline renders without clock math; `unix_start_us` anchors the
//!   origin to wall time.
//! * `parent` links spans into a tree rooted at span 0 (`request`).
//!   Stages on the serve path: `queue_wait`, `parse`, `admission`,
//!   `handler` with `cache_lookup`/`prep`/`score`/`serialize` children,
//!   then `write`. The fleet router uses the same schema with `route`,
//!   `forward` (note `replica=<addr> status=<n> attempt=<k>`), `retry`
//!   and `breaker` stages — `scamdetect-cli trace <id>` stitches the
//!   router's tree with the owning replica's by following the forward
//!   note.
//!
//! [`ModelArtifact`]: scamdetect::ModelArtifact

use crate::json::{obj, render_number, render_string, Json};
use crate::registry::ServingModel;
use scamdetect::trace::Trace;
use scamdetect::{CacheStatus, ScanReport};
use scamdetect_ir::Platform;
use std::sync::Arc;

/// Hard cap on `/batch` fan-in: enough for real bulk clients, small
/// enough that one request cannot monopolise the daemon for minutes.
pub const MAX_BATCH_REQUESTS: usize = 1024;

/// Most traces `GET /trace/recent` returns in one response.
pub const TRACE_RECENT_LIMIT: usize = 32;

/// One decoded scan request.
#[derive(Debug, Clone)]
pub struct WireScanRequest {
    /// Decoded contract bytes.
    pub bytes: Vec<u8>,
    /// Pinned platform, if the client sent one.
    pub platform: Option<Platform>,
}

/// Parses one scan-request object.
///
/// # Errors
///
/// A human-readable message naming the offending field.
pub fn parse_scan_request(value: &Json) -> Result<WireScanRequest, String> {
    let bytecode = value
        .get("bytecode")
        .ok_or("missing required field 'bytecode'")?
        .as_str()
        .ok_or("'bytecode' must be a string")?;
    let encoding = match value.get("encoding") {
        None => "hex",
        Some(e) => e.as_str().ok_or("'encoding' must be a string")?,
    };
    let bytes = match encoding {
        "hex" => decode_hex(bytecode)?,
        "base64" => decode_base64(bytecode)?,
        other => return Err(format!("unknown encoding '{other}' (hex or base64)")),
    };
    if bytes.is_empty() {
        return Err("'bytecode' decodes to zero bytes".to_string());
    }
    let platform = match value.get("platform") {
        None | Some(Json::Null) => None,
        Some(p) => match p.as_str() {
            Some("evm") => Some(Platform::Evm),
            Some("wasm") => Some(Platform::Wasm),
            _ => return Err("'platform' must be \"evm\" or \"wasm\"".to_string()),
        },
    };
    Ok(WireScanRequest { bytes, platform })
}

/// One successful scan report, ready to render (see the module docs
/// schema). Borrowing the report and the model that scored it, the
/// view costs nothing to build; [`ReportView::write_into`] emits the
/// JSON into an existing buffer.
pub fn render_report<'a>(report: &'a ScanReport, model: &'a ServingModel) -> ReportView<'a> {
    ReportView { report, model }
}

/// Rendered bytes of a report besides its model id, with room for
/// typical numbers (see [`ReportView::render`]).
const REPORT_BYTES_HINT: usize = 256;

/// A scan report and the serving model that scored it; see
/// [`render_report`].
#[derive(Clone, Copy)]
pub struct ReportView<'a> {
    report: &'a ScanReport,
    model: &'a ServingModel,
}

impl ReportView<'_> {
    /// Appends the report's compact JSON object to `out`. Numbers go
    /// through JSON's shortest round-trip `f64` rendering, so integer
    /// fields above 2^53 print as the `f64` they round to.
    pub fn write_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let (report, model) = (self.report, self.model);
        out.push_str("{\"verdict\":");
        render_string(
            if report.is_malicious() {
                "malicious"
            } else {
                "benign"
            },
            out,
        );
        out.push_str(",\"score\":");
        render_number(report.verdict.malicious_probability, out);
        out.push_str(",\"threshold\":");
        render_number(model.threshold, out);
        out.push_str(",\"platform\":\"");
        let _ = write!(out, "{}", report.verdict.platform);
        out.push_str("\",\"cache\":");
        render_string(cache_status_str(report.cache), out);
        out.push_str(",\"model\":");
        render_string(&model.id, out);
        out.push_str(",\"model_epoch\":");
        render_number(model.epoch as f64, out);
        out.push_str(",\"skeleton\":\"");
        let _ = write!(out, "{:016x}", report.skeleton);
        out.push_str("\",\"blocks\":");
        render_number(report.cfg.blocks as f64, out);
        out.push_str(",\"instructions\":");
        render_number(report.cfg.instructions as f64, out);
        out.push_str(",\"elapsed_us\":");
        let elapsed_us = report.elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        render_number(elapsed_us as f64, out);
        out.push('}');
    }

    /// The report's JSON in a buffer sized once for typical reports.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(REPORT_BYTES_HINT + self.model.id.len());
        self.write_into(&mut out);
        out
    }
}

/// Renders the `/batch` response: the serving model, then one result
/// per request slot in order — a report, or `{"error": "<message>"}`.
pub fn render_batch(results: &[Result<ScanReport, String>], model: &ServingModel) -> String {
    let mut out = String::with_capacity(
        64 + model.id.len() + results.len() * (REPORT_BYTES_HINT + model.id.len()),
    );
    out.push_str("{\"model\":");
    render_string(&model.id, &mut out);
    out.push_str(",\"model_epoch\":");
    render_number(model.epoch as f64, &mut out);
    out.push_str(",\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match result {
            Ok(report) => render_report(report, model).write_into(&mut out),
            Err(message) => {
                out.push_str("{\"error\":");
                render_string(message, &mut out);
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

/// The shared identity/flag fields of both trace renderings.
fn trace_head(trace: &Trace) -> Vec<(&'static str, Json)> {
    vec![
        ("trace_id", Json::from(trace.id.to_hex())),
        ("unix_start_us", Json::from(trace.unix_start_us)),
        ("total_us", Json::from(trace.total_us)),
        ("slow", Json::from(trace.slow)),
        ("sampled", Json::from(trace.sampled)),
        ("forced", Json::from(trace.forced)),
    ]
}

/// Renders one kept trace as a full span tree (`GET /trace/<id>`; see
/// the module docs schema).
pub fn render_trace(trace: &Trace) -> Json {
    let spans: Vec<Json> = trace
        .spans
        .iter()
        .map(|span| {
            obj([
                ("id", Json::from(u64::from(span.id))),
                (
                    "parent",
                    span.parent
                        .map(|p| Json::from(u64::from(p)))
                        .unwrap_or(Json::Null),
                ),
                ("stage", Json::from(span.stage.as_str())),
                ("start_us", Json::from(span.start_us)),
                ("duration_us", Json::from(span.duration_us)),
                (
                    "note",
                    span.note.as_deref().map(Json::from).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    let mut fields = trace_head(trace);
    fields.push(("spans", Json::Arr(spans)));
    obj(fields)
}

/// Renders one kept trace as a summary line — identity, flags and the
/// span count, without the tree itself.
pub fn render_trace_summary(trace: &Trace) -> Json {
    let mut fields = trace_head(trace);
    fields.push(("spans", Json::from(trace.spans.len() as u64)));
    obj(fields)
}

/// Renders the `GET /trace/recent` envelope: newest-first summaries
/// plus the ring's lifetime keep/drop counters.
pub fn render_trace_recent(traces: &[Arc<Trace>], kept: u64, dropped: u64) -> Json {
    obj([
        ("kept", Json::from(kept)),
        ("dropped", Json::from(dropped)),
        (
            "traces",
            Json::Arr(traces.iter().map(|t| render_trace_summary(t)).collect()),
        ),
    ])
}

/// The wire spelling of a [`CacheStatus`].
pub fn cache_status_str(status: CacheStatus) -> &'static str {
    match status {
        CacheStatus::Miss => "miss",
        CacheStatus::CacheHit => "hit",
        CacheStatus::BatchHit => "batch",
    }
}

/// Encodes bytes as lowercase hex — the inverse of [`decode_hex`],
/// shared by clients building wire requests (load generator, smoke
/// tests, tooling).
pub fn encode_hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decodes hex bytecode: optional `0x` prefix, whitespace ignored.
///
/// # Errors
///
/// An odd digit count, else the first character that is neither a hex
/// digit nor whitespace.
pub fn decode_hex(text: &str) -> Result<Vec<u8>, String> {
    let digits = text.trim().trim_start_matches("0x");
    let mut rest = digits.as_bytes();
    let mut bytes = Vec::with_capacity(rest.len() / 2);
    // The high nibble of a byte whose low digit has not arrived yet:
    // whitespace may fall between the two digits of a pair.
    let mut high: Option<u8> = None;
    loop {
        if high.is_none() {
            while let [a, b, tail @ ..] = rest {
                let (hi, lo) = (HEX_VALUE[*a as usize], HEX_VALUE[*b as usize]);
                if hi | lo > 15 {
                    break;
                }
                bytes.push((hi << 4) | lo);
                rest = tail;
            }
        }
        let Some((&b, tail)) = rest.split_first() else {
            break;
        };
        let value = HEX_VALUE[b as usize];
        if value < 16 {
            match high.take() {
                Some(hi) => bytes.push((hi << 4) | value),
                None => high = Some(value),
            }
            rest = tail;
            continue;
        }
        // `rest` only ever loses ASCII digits or whole chars, so it
        // starts on a char boundary here.
        match digits[digits.len() - rest.len()..].chars().next() {
            Some(c) if c.is_whitespace() => rest = &rest[c.len_utf8()..],
            _ => return Err(hex_error(digits)),
        }
    }
    if high.is_some() {
        return Err(hex_error(digits));
    }
    Ok(bytes)
}

/// Each byte's hex digit value, or `0xFF` for a byte that is no digit.
static HEX_VALUE: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            d @ b'0'..=b'9' => d - b'0',
            d @ b'a'..=b'f' => d - b'a' + 10,
            d @ b'A'..=b'F' => d - b'A' + 10,
            _ => 0xFF,
        };
        b += 1;
    }
    table
};

/// The error [`decode_hex`] reports for prefix-stripped `digits` that
/// do not decode: an odd count of non-whitespace bytes takes precedence
/// over the first byte that is no hex digit.
#[cold]
fn hex_error(digits: &str) -> String {
    let significant: String = digits.chars().filter(|c| !c.is_whitespace()).collect();
    match significant.bytes().find(|&b| HEX_VALUE[b as usize] > 15) {
        Some(b) if significant.len().is_multiple_of(2) => {
            format!("invalid hex digit '{}'", b as char)
        }
        _ => "odd number of hex digits".to_string(),
    }
}

/// Decodes base64 (standard or URL-safe alphabet, padding optional,
/// whitespace ignored).
///
/// # Errors
///
/// Describes the first offending character or an impossible length.
pub fn decode_base64(text: &str) -> Result<Vec<u8>, String> {
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    let mut out = Vec::with_capacity(text.len() * 3 / 4);
    for c in text.chars() {
        if c.is_whitespace() || c == '=' {
            continue;
        }
        let value = match c {
            'A'..='Z' => c as u32 - 'A' as u32,
            'a'..='z' => c as u32 - 'a' as u32 + 26,
            '0'..='9' => c as u32 - '0' as u32 + 52,
            '+' | '-' => 62,
            '/' | '_' => 63,
            other => return Err(format!("invalid base64 character '{other}'")),
        };
        acc = (acc << 6) | value;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    // 6 leftover bits (one dangling character) cannot encode a byte.
    if bits >= 6 {
        return Err("truncated base64 (dangling character)".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_encode_decode_round_trips() {
        let bytes = vec![0x00, 0x60, 0xFF, 0x0A];
        assert_eq!(encode_hex(&bytes), "0060ff0a");
        assert_eq!(decode_hex(&encode_hex(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn hex_decodes_with_prefix_and_whitespace() {
        assert_eq!(decode_hex("0x60 01\n60").unwrap(), vec![0x60, 0x01, 0x60]);
        assert_eq!(
            decode_hex("DEADbeef").unwrap(),
            vec![0xDE, 0xAD, 0xBE, 0xEF]
        );
        assert!(decode_hex("abc").is_err());
        assert!(decode_hex("zz").is_err());
    }

    #[test]
    fn base64_standard_urlsafe_and_unpadded() {
        assert_eq!(decode_base64("aGVsbG8=").unwrap(), b"hello");
        assert_eq!(decode_base64("aGVsbG8").unwrap(), b"hello");
        assert_eq!(decode_base64("_w==").unwrap(), vec![0xFF]);
        assert_eq!(decode_base64("/w").unwrap(), vec![0xFF]);
        assert!(decode_base64("a").is_err());
        assert!(decode_base64("a!b").is_err());
    }

    #[test]
    fn request_parsing_defaults_and_rejections() {
        let ok = Json::parse(r#"{"bytecode": "0x6001", "ignored": 1}"#).unwrap();
        let parsed = parse_scan_request(&ok).unwrap();
        assert_eq!(parsed.bytes, vec![0x60, 0x01]);
        assert_eq!(parsed.platform, None);

        let pinned =
            Json::parse(r#"{"bytecode": "YQ==", "encoding": "base64", "platform": "wasm"}"#)
                .unwrap();
        let parsed = parse_scan_request(&pinned).unwrap();
        assert_eq!(parsed.bytes, b"a");
        assert_eq!(parsed.platform, Some(Platform::Wasm));

        for bad in [
            r#"{}"#,
            r#"{"bytecode": 5}"#,
            r#"{"bytecode": ""}"#,
            r#"{"bytecode": "60", "encoding": "rot13"}"#,
            r#"{"bytecode": "60", "platform": "solana"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(parse_scan_request(&v).is_err(), "{bad} must be rejected");
        }
    }
}
