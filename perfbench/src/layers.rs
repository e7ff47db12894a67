//! The per-layer table, timed from outside: the traced pass replays a
//! workload's inputs through each layer's public function and times
//! every call, so the program carries no benchmark hooks.
//!
//! Two checks tie the table to the end-to-end numbers. On a miss, the
//! medians of the steps a miss runs (fingerprint, lift, prepare, score)
//! must add up to the median `Scanner::scan_request` miss within
//! [`RECONCILE_SLACK`]; and the route handler alone may not take longer
//! than a whole request on the wire.

use crate::affinity::Placement;
use crate::inputs::{self, Input};
use crate::serving::{self, ScanCounts};
use crate::stats::{self, Summary};
use crate::{field, object, train_corpus, Metric, Outcome, Workload};
use scamdetect::featurize::{lift_bytes, opcode_histogram_bytes};
use scamdetect::{
    ClassicModel, FeatureKind, GnnKind, Lifted, ModelKind, ScanRequest, Scanner, ScannerBuilder,
};
use scamdetect_evm::disasm;
use scamdetect_fleet::ring::{HashRing, DEFAULT_VNODES};
use scamdetect_serve::daemon::router;
use scamdetect_serve::http::{HttpConfig, HttpRequest, LoadGauge, TraceHub};
use scamdetect_serve::json::Json;
use scamdetect_serve::metrics::Metrics;
use scamdetect_serve::{wire, ModelRegistry, RegistryConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// How far the sum of a miss's step medians may sit from the median
/// miss, as a share of the median miss.
pub const RECONCILE_SLACK: f64 = 0.25;

/// Never-seen contracts in the traced `wire-hit` / `routed-hit` stream
/// (24000 requests): enough misses for a p99 with ten beyond it.
const TRACE_FRESH: usize = 1200;

/// Contracts in the traced `wire-obfuscated` stream.
const TRACE_OBFUSCATED: usize = 2000;

/// Cold passes over the snapshot in the traced `batch-snapshot` run.
const TRACE_PASSES: usize = 3;

/// Requests per turn when the handler, the daemon and the fleet take
/// turns replaying the stream.
const CHUNK: usize = 100;

/// The detectors of the layer table, each trained on the same corpus.
fn detectors() -> [(&'static str, ModelKind); 4] {
    [
        (
            "rf",
            ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::OpcodeHistogram),
        ),
        (
            "logreg",
            ModelKind::Classic(ClassicModel::LogisticRegression, FeatureKind::Unified),
        ),
        ("gcn", ModelKind::Gnn(GnnKind::Gcn)),
        ("gat", ModelKind::Gnn(GnnKind::Gat)),
    ]
}

/// Times one call in µs.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = black_box(f());
    samples.push(started.elapsed().as_nanos() as f64 / 1e3);
    out
}

/// The table under construction. Call counts go to the report: the
/// inputs fix them, so no change to the program moves them.
struct Table {
    metrics: Vec<Metric>,
    calls: Vec<(String, Json)>,
}

impl Table {
    /// Adds a layer's median and p99, and records its call count.
    fn layer(&mut self, name: &str, samples: Vec<f64>) -> Result<Summary, String> {
        let calls = samples.len();
        let s = stats::summarize(samples)
            .ok_or_else(|| format!("{name}: {calls} calls cannot carry a p99"))?;
        self.metrics.push(Metric::new(name, s.p50, "us"));
        self.metrics
            .push(Metric::new(format!("{name}.p99"), s.p99, "us"));
        self.calls.push(field(name, calls));
        Ok(s)
    }

    fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

fn train(model: ModelKind) -> Result<Scanner, String> {
    ScannerBuilder::new()
        .model(model)
        .train(&train_corpus())
        .map_err(|e| format!("training failed: {e}"))
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    stats::median(&values).unwrap_or(f64::INFINITY)
}

fn post_scan(body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".to_string(),
        path: "/scan".to_string(),
        query: String::new(),
        headers: vec![
            ("content-type".to_string(), "application/json".to_string()),
            ("content-length".to_string(), body.len().to_string()),
        ],
        body: body.as_bytes().to_vec(),
        trace: None,
    }
}

pub fn run(workload: Workload, seed: u64, dir: &Path) -> Result<Outcome, String> {
    let (wi, passes) = match workload {
        Workload::WireHit | Workload::RoutedHit => (inputs::wire_hit(seed, TRACE_FRESH), 1),
        Workload::WireObfuscated => (inputs::wire_obfuscated(seed, TRACE_OBFUSCATED), 1),
        Workload::BatchSnapshot => (inputs::snapshot_stream(seed), TRACE_PASSES),
    };
    let stream = &wi.sequence;
    let models_dir = dir.join("layers");
    std::fs::create_dir_all(&models_dir)
        .map_err(|e| format!("cannot create {}: {e}", models_dir.display()))?;
    let artifact = models_dir.join("bench-v1.scam");
    train(workload.model())?
        .save(&artifact)
        .map_err(|e| format!("cannot save the artifact: {e}"))?;
    let mut table = Table {
        metrics: Vec::new(),
        calls: Vec::new(),
    };
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // An untimed in-process pass first: it sorts the stream into hits
    // and misses, records the bits every wire verdict must match, and
    // warms the heap so the first timed layer does not pay the page
    // faults of fresh memory.
    let classify = serving::reference_scanner(&artifact)?;
    for &i in &wi.warmup {
        classify
            .scan_request(&ScanRequest::new(&wi.inputs[i as usize].bytes))
            .map_err(|e| format!("warm-up scan failed: {e}"))?;
    }
    let mut stream_bits = Vec::with_capacity(stream.len());
    let mut misses: Vec<usize> = Vec::new();
    for &i in stream {
        let report = classify
            .scan_request(&ScanRequest::new(&wi.inputs[i as usize].bytes))
            .map_err(|e| format!("in-process scan failed: {e}"))?;
        stream_bits.push(report.verdict.malicious_probability.to_bits());
        if !report.cache.is_hit() {
            misses.push(i as usize);
        }
    }
    drop(classify);
    table.value(
        "core.cache_hit_ratio",
        1.0 - misses.len() as f64 / stream.len() as f64,
        "ratio",
    );
    table.value(
        "core.batch_unique_ratio",
        batch_unique_ratio(&wi.inputs, stream),
        "ratio",
    );

    // serve: JSON parse and wire decode of every request body.
    let (mut json_us, mut decode_us) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        for &i in stream {
            attempted += 1;
            match timed(&mut json_us, || Json::parse(&wi.bodies[i as usize])) {
                Ok(json) => {
                    if timed(&mut decode_us, || wire::parse_scan_request(&json)).is_err() {
                        failed += 1;
                    }
                }
                Err(_) => failed += 1,
            }
        }
    }
    table.layer("serve.json_parse_us", json_us)?;
    table.layer("serve.wire_decode_us", decode_us)?;

    let registry_config = RegistryConfig {
        models_dir: models_dir.clone(),
        ..RegistryConfig::default()
    };
    let open_registry = || {
        ModelRegistry::open(registry_config.clone())
            .map(Arc::new)
            .map_err(|e| format!("cannot open the registry: {e}"))
    };
    let serving_model = open_registry()?.model();

    // core: hits as the workload meets them, rendered as the daemon
    // would render them.
    let (mut hit_us, mut render_us) = (Vec::new(), Vec::new());
    let mut scanner = None;
    for _ in 0..passes {
        let fresh = serving::reference_scanner(&artifact)?;
        for &i in &wi.warmup {
            fresh
                .scan_request(&ScanRequest::new(&wi.inputs[i as usize].bytes))
                .map_err(|e| format!("warm-up scan failed: {e}"))?;
        }
        for &i in stream {
            let request = ScanRequest::new(&wi.inputs[i as usize].bytes);
            attempted += 1;
            let started = Instant::now();
            let report = fresh.scan_request(&request);
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            let report = report.map_err(|e| format!("in-process scan failed: {e}"))?;
            if report.cache.is_hit() {
                hit_us.push(us);
            }
            timed(&mut render_us, || {
                wire::render_report(&report, &serving_model).render()
            });
        }
        scanner = Some(fresh);
    }
    // A workload without repeats still gets a hit timing: rescan its
    // misses, which the scanner now holds.
    let scanner = scanner.expect("at least one pass");
    let mut rescans = misses.iter().cycle();
    while hit_us.len() < 1000 {
        let &i = rescans
            .next()
            .ok_or("the stream met neither hits nor misses")?;
        let request = ScanRequest::new(&wi.inputs[i].bytes);
        let started = Instant::now();
        let report = scanner.scan_request(&request);
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        match report {
            Ok(report) if report.cache.is_hit() => hit_us.push(us),
            _ => return Err("a rescanned miss did not hit the cache".to_string()),
        }
    }
    drop(scanner);
    table.layer("serve.render_us", render_us)?;
    table.layer("core.scan_hit_us", hit_us)?;

    // core: the cache key over every request.
    let mut fingerprint_us = Vec::new();
    for _ in 0..passes {
        for &i in stream {
            let input = &wi.inputs[i as usize];
            timed(&mut fingerprint_us, || {
                scamdetect::request_fingerprint(input.platform, &input.bytes)
            });
        }
    }
    table.layer("core.fingerprint_us", fingerprint_us)?;

    // The miss path: per contract that missed, each step in the order
    // a miss runs them, then the whole miss on a cold scanner. Timed
    // side by side, parts and whole see the same machine state; the
    // first call on a contract pays for its bytes being out of cache,
    // which the fingerprint does on a real miss too.
    let detectors: Vec<(&str, Scanner)> = detectors()
        .into_iter()
        .map(|(name, model)| Ok((name, train(model)?)))
        .collect::<Result<_, String>>()?;
    let mut miss_us = Vec::new();
    let (mut miss_fingerprint_us, mut disasm_us, mut lift_us, mut histogram_us, mut lifted_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut detector_us: Vec<(Vec<f64>, Vec<f64>)> =
        vec![(Vec::new(), Vec::new()); detectors.len()];
    for _ in 0..passes {
        let cold = serving::reference_scanner(&artifact)?;
        for &i in &misses {
            let Input {
                bytes, platform, ..
            } = &wi.inputs[i];
            timed(&mut miss_fingerprint_us, || {
                scamdetect::request_fingerprint(*platform, bytes)
            });
            if *platform == scamdetect_ir::Platform::Evm {
                timed(&mut disasm_us, || disasm::disassemble(bytes));
            }
            timed(&mut lift_us, || lift_bytes(*platform, bytes))
                .map_err(|e| format!("lift failed: {e}"))?;
            timed(&mut histogram_us, || {
                opcode_histogram_bytes(*platform, bytes)
            });
            let lifted = timed(&mut lifted_us, || Lifted::from_bytes(*platform, bytes))
                .map_err(|e| format!("lift failed: {e}"))?;
            for ((_, trained), (prepare_us, score_us)) in detectors.iter().zip(&mut detector_us) {
                let detector = trained.detector();
                let input = timed(prepare_us, || detector.prepare_lifted(&lifted));
                timed(score_us, || detector.score_prepared(&input))
                    .ok_or("a detector refused its own prepared input")?;
            }
            drop(lifted);
            let request = ScanRequest::new(bytes);
            attempted += 1;
            let report = timed(&mut miss_us, || cold.scan_request(&request))
                .map_err(|e| format!("in-process scan failed: {e}"))?;
            if report.cache.is_hit() {
                return Err("a miss hit a cold scanner's cache".to_string());
            }
        }
    }
    let scan_miss = table.layer("core.scan_miss_us", miss_us)?;
    table.layer("evm.disasm_us", disasm_us)?;
    table.layer("featurize.lift_us", lift_us)?;
    table.layer("featurize.histogram_us", histogram_us)?;
    let lifted_summary = table.layer("featurize.lifted_us", lifted_us)?;
    let mut own_detector = (0.0, 0.0);
    for ((name, _), (prepare_us, score_us)) in detectors.iter().zip(detector_us) {
        let prepare = table.layer(&format!("detector.{name}.prepare_us"), prepare_us)?;
        let score = table.layer(&format!("detector.{name}.score_us"), score_us)?;
        if *name == workload.detector() {
            own_detector = (prepare.p50, score.p50);
        }
    }

    // serve and fleet: the route handler on in-memory requests, the
    // daemon, and the router in front of two replicas, each replaying
    // the stream in workload order, taking turns of CHUNK requests on
    // the wire CPU. Interleaved, all three see the same machine state,
    // so the handler can be held against the whole request and the
    // routed request against the direct one.
    let train = train_corpus();
    let placement = Placement::detect()?;
    let deploy = |name: &str, replicas: usize| {
        serving::deploy(
            &dir.join(name),
            workload.model(),
            &train,
            replicas,
            &wi,
            &placement,
        )
    };
    let (direct, _) = deploy("direct", 1)?;
    let (routed, _) = deploy("routed", 2)?;
    let http = HttpConfig::default();
    let handler = router(
        open_registry()?,
        Arc::new(Metrics::default()),
        Arc::new(AtomicU64::new(0)),
        Arc::new(LoadGauge::default()),
        None,
        Arc::new(TraceHub::new(
            http.trace_sample,
            http.trace_slow_us,
            http.trace_ring,
        )),
    );
    for &i in &wi.warmup {
        handler(&post_scan(&wi.bodies[i as usize]));
    }
    let before = routed.scrape()?;
    let (mut handler_us, mut direct_us, mut routed_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0usize;
    placement.on_wire_cpu(|| -> Result<(), String> {
        let mut direct_client = serving::Client::connect(direct.front)?;
        let mut routed_client = serving::Client::connect(routed.front)?;
        for (c, chunk) in stream.chunks(CHUNK).enumerate() {
            for &i in chunk {
                let request = post_scan(&wi.bodies[i as usize]);
                attempted += 1;
                if timed(&mut handler_us, || handler(&request)).status != 200 {
                    failed += 1;
                }
            }
            for (client, samples) in [
                (&mut direct_client, &mut direct_us),
                (&mut routed_client, &mut routed_us),
            ] {
                for (k, &i) in chunk.iter().enumerate() {
                    attempted += 1;
                    match timed(samples, || client.scan(&wi.bodies[i as usize]))? {
                        Some(bits) if bits == stream_bits[c * CHUNK + k] => {}
                        Some(_) => mismatches += 1,
                        None => {
                            failed += 1;
                            // A failed request misses any limit.
                            *samples.last_mut().expect("just timed") = f64::INFINITY;
                        }
                    }
                }
            }
        }
        Ok(())
    })??;
    let after = routed.scrape()?;
    let replica_ids: Vec<String> = routed
        .replica_addrs()
        .iter()
        .map(|a| a.to_string())
        .collect();
    direct.stop()?;
    routed.stop()?;
    failed += mismatches;
    let handler = table.layer("serve.handler_us", handler_us)?;
    let direct_p50 = median_of(direct_us);
    let routed_p50 = median_of(routed_us);
    table.value("serve.transport_us", direct_p50 - handler.p50, "us");

    // fleet: ring lookups over the stream's keys, and what the
    // replicas saw of the routed stream.
    let ring = HashRing::build(&replica_ids, DEFAULT_VNODES);
    let mut route_us = Vec::new();
    for &i in stream {
        let key = wi.inputs[i as usize].key.1;
        timed(&mut route_us, || ring.owner_of(key).map(str::len));
    }
    table.layer("fleet.route_us", route_us)?;
    table.value("fleet.forward_overhead_us", routed_p50 - direct_p50, "us");
    let seen: Vec<ScanCounts> = after.iter().zip(&before).map(|(a, b)| *a - *b).collect();
    let total: ScanCounts = seen.iter().copied().sum();
    let busiest = seen.iter().map(|c| c.scans).max().unwrap_or(0);
    table.value(
        "fleet.replica_hit_ratio",
        total.hits as f64 / total.scans.max(1) as f64,
        "ratio",
    );
    table.value(
        "fleet.replica_max_share",
        busiest as f64 / total.scans.max(1) as f64,
        "ratio",
    );

    // Reconciliation.
    let miss_fingerprint = median_of(miss_fingerprint_us);
    let parts = miss_fingerprint + lifted_summary.p50 + own_detector.0 + own_detector.1;
    let miss_ratio = parts / scan_miss.p50;
    let miss_ok = (miss_ratio - 1.0).abs() <= RECONCILE_SLACK;
    let handler_ok = handler.p50 <= direct_p50;
    if !miss_ok {
        eprintln!(
            "perfbench: LAYER TABLE DOES NOT RECONCILE: fingerprint {miss_fingerprint:.2} + \
             lifted {:.2} + prepare {:.2} + score {:.2} = {parts:.2}us against a {:.2}us \
             scan_request miss (slack {RECONCILE_SLACK})",
            lifted_summary.p50, own_detector.0, own_detector.1, scan_miss.p50
        );
    }
    if !handler_ok {
        eprintln!(
            "perfbench: LAYER TABLE DOES NOT RECONCILE: the handler's median {:.2}us exceeds \
             the wire median {direct_p50:.2}us",
            handler.p50
        );
    }
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} wire scores differ from the in-process scanner");
    }
    let report = vec![
        field(
            "inputs",
            inputs::describe(
                &wi.inputs,
                stream.iter().map(|&i| i as usize),
                Some(&wi.bodies),
            ),
        ),
        field("passes", passes),
        field("calls", object(table.calls)),
        field(
            "reconcile",
            object(vec![
                field("miss_parts_us", parts),
                field("miss_ratio", miss_ratio),
                field("scan_miss_us", scan_miss.p50),
                field("miss_fingerprint_us", miss_fingerprint),
                field("detector", workload.detector()),
                field("slack", RECONCILE_SLACK),
                field("miss_ok", miss_ok),
                field("handler_us", handler.p50),
                field("wire_direct_p50_us", direct_p50),
                field("wire_routed_p50_us", routed_p50),
                field("handler_ok", handler_ok),
            ]),
        ),
        field("score_mismatches", mismatches),
    ];
    Ok(Outcome {
        correct: failed == 0 && miss_ok && handler_ok,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: table.metrics,
        report,
    })
}

/// Unique cache keys per [`crate::BATCH`]-sized slice of the stream,
/// over all slices: the share of a batch `scan_batch` has to compute.
fn batch_unique_ratio(inputs: &[Input], stream: &[u32]) -> f64 {
    let unique: usize = stream
        .chunks(crate::BATCH)
        .map(|chunk| {
            inputs::first_occurrences(chunk.iter().map(|&i| &inputs[i as usize]))
                .into_iter()
                .filter(|&first| first)
                .count()
        })
        .sum();
    unique as f64 / stream.len() as f64
}
