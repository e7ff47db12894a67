//! The ScamDetect benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the run's result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with
//! the end-to-end metrics under `--trace 0` and the per-layer table
//! under `--trace 1`. The line before it is the full report: the
//! pinned configuration, what the inputs look like, the designed and
//! observed cache-hit ratios, and the checks.

mod affinity;
mod inputs;
mod layers;
mod serving;
mod stats;

use scamdetect::{ClassicModel, FeatureKind, GnnKind, ModelKind, ScanRequest, ScannerBuilder};
use scamdetect_dataset::{Corpus, CorpusConfig};
use scamdetect_serve::http::HttpConfig;
use scamdetect_serve::json::Json;
use scamdetect_serve::RegistryConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The first one serves
/// the run, the others are spares set up at even points of the run
/// with its clock stopped, so set-up is timed across the run's machine
/// state instead of in one burst before it.
const SETUP_REPEATS: usize = 9;

/// How far an observed cache-hit ratio may sit from the design.
const HIT_RATIO_TOLERANCE: f64 = 0.01;

/// Never-seen contracts generated per second of a `wire-hit` run:
/// enough for 60k req/s at one miss in 20, about 3x the rate a 2-CPU
/// virtual machine sustains. A run that uses them up fails.
const FRESH_PER_S: usize = 3000;

/// Unique contracts generated per second of a `wire-obfuscated` run,
/// about 3x the rate a 2-CPU virtual machine sustains. A run that uses
/// them up fails.
const OBFUSCATED_PER_S: usize = 4000;

/// Contracts per `scan_batch` call on `batch-snapshot`. Small enough
/// that a 20-second run has about seven windows of 1000 batches, so the
/// reported p99 is a median over windows (see [`stats::windowed`]).
pub const BATCH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireHit,
    WireObfuscated,
    BatchSnapshot,
    RoutedHit,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::WireHit,
        Workload::WireObfuscated,
        Workload::BatchSnapshot,
        Workload::RoutedHit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHit => "wire-hit",
            Workload::WireObfuscated => "wire-obfuscated",
            Workload::BatchSnapshot => "batch-snapshot",
            Workload::RoutedHit => "routed-hit",
        }
    }

    /// The model each workload's artifact holds.
    pub fn model(self) -> ModelKind {
        match self {
            Workload::BatchSnapshot => {
                ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::OpcodeHistogram)
            }
            _ => ModelKind::Gnn(GnnKind::Gcn),
        }
    }

    /// The name the layer table uses for this workload's detector.
    pub fn detector(self) -> &'static str {
        match self {
            Workload::BatchSnapshot => "rf",
            _ => "gcn",
        }
    }

    /// The cache-hit ratio the inputs are built for.
    fn designed_hit_ratio(self) -> &'static str {
        match self {
            Workload::WireHit | Workload::RoutedHit => {
                "0.95: 19 in 20 requests repeat a warmed skeleton"
            }
            Workload::WireObfuscated => "0: every request is a never-seen skeleton",
            Workload::BatchSnapshot => "1 - unique skeletons per pass / contracts per pass",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 2;
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One named number of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: inputs, ratios, checks.
    pub report: Vec<(String, Json)>,
}

pub fn field(name: &str, value: impl Into<Json>) -> (String, Json) {
    (name.to_string(), value.into())
}

pub fn object(fields: Vec<(String, Json)>) -> Json {
    Json::Obj(fields)
}

/// The corpus every artifact is trained on. It is part of the shipped
/// model, not of the workload, so it does not follow `--seed`.
pub fn train_corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        size: 80,
        seed: 11,
        ..CorpusConfig::default()
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload <wire-hit|wire-obfuscated|\
                 batch-snapshot|routed-hit|all> --seed <n> [--seconds <n>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Ok(value) = std::env::var("SCAMDETECT_TRANSPORT") {
        eprintln!(
            "perfbench: SCAMDETECT_TRANSPORT={value} is set; unset it so the daemons run the \
             shipped default transport"
        );
        return ExitCode::from(2);
    }
    let work_root = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let clean_up = || {
        std::fs::remove_dir_all(&work_root).ok();
        // Only when empty: other runs may share the parent.
        std::fs::remove_dir(".perfbench-work").ok();
    };
    let mut results = Vec::new();
    for &workload in &args.workloads {
        let dir = work_root.join(workload.name());
        let outcome = std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))
            .and_then(|()| run(workload, &args, &dir));
        match outcome {
            Ok(outcome) => results.push((workload, outcome)),
            Err(message) => {
                eprintln!("perfbench: {}: {message}", workload.name());
                clean_up();
                return ExitCode::FAILURE;
            }
        }
    }
    clean_up();

    for (workload, outcome) in &results {
        print_table(*workload, outcome);
        let mut report = vec![field("workload", workload.name())];
        report.extend(outcome.report.iter().cloned());
        println!("{}", object(vec![field("report", object(report))]).render());
    }
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (workload, outcome) in &results {
        for m in &outcome.metrics {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", workload.name(), m.name)
            };
            metrics.push((
                name,
                object(vec![field("value", m.value), field("unit", m.unit)]),
            ));
        }
    }
    let correct = results.iter().all(|(_, o)| o.correct);
    let line = object(vec![
        field("correct", correct),
        field(
            "attempted",
            results.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        ),
        field("failed", results.iter().map(|(_, o)| o.failed).sum::<u64>()),
        field("metrics", object(metrics)),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(workload: Workload, outcome: &Outcome) {
    eprintln!(
        "perfbench: {} — {} attempted, {} failed, correct {}",
        workload.name(),
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>14.3} {}", m.name, m.value, m.unit);
    }
}

fn run(workload: Workload, args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut outcome = if args.trace {
        layers::run(workload, args.seed, dir)?
    } else if workload == Workload::BatchSnapshot {
        // Pinned like the wire loops (see `affinity`): the scan workers
        // share one CPU, so a stalled second vCPU cannot hold up every
        // batch that waits for its slowest worker.
        affinity::Placement::detect()?.on_wire_cpu(|| run_batch(args, dir))??
    } else {
        run_wire(workload, args, dir)?
    };
    outcome
        .report
        .insert(0, field("config", config(workload, args)?));
    Ok(outcome)
}

/// The settings every result records: the daemons run shipped
/// defaults apart from the ephemeral port, the replica workers and the
/// one CPU the measured loops run on.
fn config(workload: Workload, args: &Args) -> Result<Json, String> {
    let http = HttpConfig::default();
    let registry = RegistryConfig::default();
    let router = scamdetect_fleet::proxy::RouterConfig::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let routed = workload == Workload::RoutedHit;
    let placement = affinity::Placement::detect()?;
    let cpus = |cpus: &[usize]| Json::Arr(cpus.iter().map(|&c| Json::from(c)).collect());
    Ok(object(vec![
        field("seed", args.seed),
        field("seconds", args.seconds),
        field("trace", args.trace),
        field("nproc", nproc),
        field("commit", commit()),
        field("model", format!("{:?}", workload.model())),
        field("transport", http.transport.as_str()),
        field(
            "daemon_http_workers",
            if routed {
                serving::REPLICA_WORKERS
            } else {
                http.resolved_workers()
            },
        ),
        field("replicas", if routed { 2usize } else { 1 }),
        field(
            "router_http_workers",
            if router.workers == 0 {
                http.resolved_workers()
            } else {
                router.workers
            },
        ),
        field("router_transport", router.transport.as_str()),
        field(
            "scanner_workers",
            if registry.workers == 0 {
                nproc
            } else {
                registry.workers
            },
        ),
        field("daemon_trace_sample_every", u64::from(http.trace_sample)),
        field("router_trace_sample_every", u64::from(router.trace_sample)),
        field("verdict_cache_capacity", registry.cache_capacity),
        field("prep_cache_capacity", registry.prep_capacity),
        field("setup_repeats", SETUP_REPEATS),
        field(
            "batch_size",
            if workload == Workload::BatchSnapshot {
                BATCH
            } else {
                1
            },
        ),
        field("designed_hit_ratio", workload.designed_hit_ratio()),
        field("allowed_cpus", cpus(&placement.all)),
        field("pinned_cpus", cpus(&placement.wire)),
    ]))
}

/// The commit being measured: `git rev-parse HEAD`, or "unknown"
/// outside a git checkout or without git.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resets `VmHWM` to the current resident set, so that the peak read at
/// the end of a run covers set-up and the run, not input generation or
/// an earlier workload. `false` when the kernel refuses.
fn reset_peak_rss() -> bool {
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    if !reset {
        eprintln!("perfbench: cannot reset VmHWM; peak_rss_mb includes input generation");
    }
    reset
}

/// `VmHWM`, the process's peak resident set, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `scans_per_s`, `latency_p50_us` and `latency_p99_us` of a closed
/// loop, each the median over the run's windows (see
/// [`stats::windowed`]), plus the whole-run figures for the report.
fn loop_metrics(samples: &[stats::Sample], end_ns: f64) -> Result<(Vec<Metric>, Json), String> {
    let w = stats::windowed(samples, end_ns)
        .ok_or_else(|| format!("{} samples cannot carry a p99; run longer", samples.len()))?;
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.latency_ns).collect();
    sorted.sort_by(f64::total_cmp);
    let (q1, q3) = stats::quartiles(&sorted).ok_or("fewer than two samples")?;
    let whole = stats::summarize(sorted).ok_or("too few samples for a p99")?;
    let us = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::from(v / 1e3)).collect());
    let report = object(vec![
        field("samples", whole.count),
        field("windows", w.rates.len()),
        field(
            "window_rates_per_s",
            Json::Arr(w.rates.iter().map(|&r| Json::from(r)).collect()),
        ),
        field("window_p50_us", us(&w.p50s)),
        field("window_p99_us", us(&w.p99s)),
        field("whole_run_p50_us", whole.p50 / 1e3),
        field("whole_run_p99_us", whole.p99 / 1e3),
        field("whole_run_q1_us", q1 / 1e3),
        field("whole_run_q3_us", q3 / 1e3),
    ]);
    Ok((
        vec![
            Metric::new("scans_per_s", w.rate, "1/s"),
            Metric::new("latency_p50_us", w.p50 / 1e3, "us"),
            Metric::new("latency_p99_us", w.p99 / 1e3, "us"),
        ],
        report,
    ))
}

fn setup_metric(setup_s: &[f64]) -> Metric {
    let mut sorted = setup_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    Metric::new(
        "setup_s",
        stats::median(&sorted).expect("at least one set-up"),
        "s",
    )
}

/// The set-up, memory and input-generation figures every run reports.
fn setup_report(setup_s: &[f64], inputs_s: f64, rss_reset: bool) -> Vec<(String, Json)> {
    vec![
        field(
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
        ),
        field("inputs_generation_s", inputs_s),
        field("peak_rss_reset_before_setup", rss_reset),
    ]
}

/// Checks an observed cache-hit ratio against its design.
fn ratio_check(name: &str, designed: f64, observed: f64) -> (bool, (String, Json)) {
    let ok = (observed - designed).abs() <= HIT_RATIO_TOLERANCE;
    if !ok {
        eprintln!(
            "perfbench: {name} cache-hit ratio {observed:.4} is outside {designed:.4} ± \
             {HIT_RATIO_TOLERANCE}"
        );
    }
    (
        ok,
        field(
            name,
            object(vec![
                field("designed", designed),
                field("observed", observed),
                field("tolerance", HIT_RATIO_TOLERANCE),
                field("ok", ok),
            ]),
        ),
    )
}

fn run_wire(workload: Workload, args: &Args, dir: &Path) -> Result<Outcome, String> {
    let seconds = args.seconds as usize;
    let generating = Instant::now();
    let inputs = match workload {
        Workload::WireObfuscated => inputs::wire_obfuscated(args.seed, seconds * OBFUSCATED_PER_S),
        _ => inputs::wire_hit(args.seed, seconds * FRESH_PER_S),
    };
    let inputs_s = generating.elapsed().as_secs_f64();
    let train = train_corpus();
    let replicas = if workload == Workload::RoutedHit {
        2
    } else {
        1
    };
    let placement = affinity::Placement::detect()?;
    let rss_reset = reset_peak_rss();

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let (deployment, took) = serving::deploy(
        &dir.join("setup-0"),
        workload.model(),
        &train,
        replicas,
        &inputs,
        &placement,
    )?;
    setup_s.push(took.as_secs_f64());
    let before = deployment.scrape()?;
    let spare_setup = || -> Result<(), String> {
        let (spare, took) = serving::deploy_here(
            &dir.join(format!("setup-{}", setup_s.len())),
            workload.model(),
            &train,
            replicas,
            &inputs,
        )?;
        setup_s.push(took.as_secs_f64());
        spare.stop()
    };
    let run = serving::drive(
        deployment.front,
        &inputs,
        &inputs.sequence,
        Duration::from_secs(args.seconds),
        (SETUP_REPEATS - 1) as u32,
        spare_setup,
        &placement,
    )?;
    let peak_rss = peak_rss_mb()?;
    let after = deployment.scrape()?;
    let artifact = deployment.artifact.clone();
    deployment.stop()?;
    if run.exhausted {
        eprintln!(
            "perfbench: the {} generated inputs ran out before --seconds elapsed; the miss path \
             got faster than the pool allows for",
            inputs.sequence.len()
        );
    }

    // Correctness: every wire score against the in-process replay.
    let reference = serving::reference(&artifact, &inputs, &run.sent)?;
    let mismatches = run
        .score_bits
        .iter()
        .zip(&reference.bits)
        .filter(|(wire, expected)| wire.is_some_and(|bits| bits != **expected))
        .count();
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} wire scores differ from the in-process scanner");
    }
    let sent = run.sent.len();
    let transport_failed = run.failed();
    let failed = transport_failed + mismatches;

    let designed = run
        .sent
        .iter()
        .filter(|&&i| inputs.warm[i as usize])
        .count() as f64
        / sent as f64;
    let in_process = reference.hit.iter().filter(|&&h| h).count() as f64 / sent as f64;
    let served: serving::ScanCounts = after.iter().zip(&before).map(|(a, b)| *a - *b).sum();
    let daemon = served.hits as f64 / served.scans.max(1) as f64;
    let (in_ok, in_field) = ratio_check("hit_ratio_in_process", designed, in_process);
    let (d_ok, d_field) = ratio_check("hit_ratio_daemon_metrics", designed, daemon);
    let counted = served.scans == sent as u64;
    if !counted {
        eprintln!(
            "perfbench: the daemons counted {} scans for {sent} requests",
            served.scans
        );
    }

    let (mut metrics, latency) = loop_metrics(&run.samples, run.elapsed.as_nanos() as f64)?;
    metrics.push(setup_metric(&setup_s));
    metrics.push(Metric::new("peak_rss_mb", peak_rss, "MB"));
    let mut report = vec![
        field(
            "inputs",
            inputs::describe(
                &inputs.inputs,
                run.sent.iter().map(|&i| i as usize),
                Some(&inputs.bodies),
            ),
        ),
        field("input_pool_requests", inputs.sequence.len()),
        field("latency", latency),
        field("elapsed_s", run.elapsed.as_secs_f64()),
        field("input_pool_exhausted", run.exhausted),
    ];
    report.extend(setup_report(&setup_s, inputs_s, rss_reset));
    report.extend([
        in_field,
        d_field,
        field("score_mismatches", mismatches),
        field("transport_failures", transport_failed),
    ]);
    Ok(Outcome {
        correct: failed == 0 && in_ok && d_ok && counted && !run.exhausted,
        attempted: sent as u64,
        failed: failed as u64,
        metrics,
        report,
    })
}

fn run_batch(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let generating = Instant::now();
    let snapshots: Vec<Vec<inputs::Input>> = (0..inputs::SNAPSHOTS)
        .map(|k| inputs::batch_snapshot(args.seed, k))
        .collect();
    let requests: Vec<Vec<ScanRequest>> = snapshots
        .iter()
        .map(|snapshot| {
            snapshot
                .iter()
                .map(|i| ScanRequest::new(&i.bytes))
                .collect()
        })
        .collect();
    let inputs_s = generating.elapsed().as_secs_f64();
    let train = train_corpus();
    let model = Workload::BatchSnapshot.model();
    let rss_reset = reset_peak_rss();

    // Set-up: train, save, load, and one warm-up pass.
    let set_up = |k: usize| -> Result<(PathBuf, f64), String> {
        let started = Instant::now();
        let setup_dir = dir.join(format!("setup-{k}"));
        std::fs::create_dir_all(&setup_dir)
            .map_err(|e| format!("cannot create {}: {e}", setup_dir.display()))?;
        let artifact = setup_dir.join("bench-v1.scam");
        ScannerBuilder::new()
            .model(model)
            .train(&train)
            .and_then(|s| s.save(&artifact))
            .map_err(|e| format!("cannot train and save the artifact: {e}"))?;
        let scanner = ScannerBuilder::new()
            .load(&artifact)
            .map_err(|e| format!("cannot load the artifact: {e}"))?;
        for chunk in requests[0].chunks(BATCH) {
            for outcome in scanner.scan_batch(chunk) {
                outcome.map_err(|e| format!("warm-up scan failed: {e}"))?;
            }
        }
        Ok((artifact, started.elapsed().as_secs_f64()))
    };
    let (artifact, took) = set_up(0)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    setup_s.push(took);
    let artifact_bytes =
        std::fs::read(&artifact).map_err(|e| format!("cannot read the artifact: {e}"))?;
    let load = || {
        ScannerBuilder::new()
            .load_bytes(&artifact_bytes)
            .map_err(|e| format!("cannot load the artifact: {e}"))
    };

    // The reference: one sequential pass over each snapshot on a cold
    // scanner.
    let mut expected: Vec<Vec<u64>> = Vec::new();
    for snapshot in &requests {
        let reference_scanner = load()?;
        expected.push(
            snapshot
                .iter()
                .map(|r| {
                    reference_scanner
                        .scan_request(r)
                        .map(|report| report.verdict.malicious_probability.to_bits())
                        .map_err(|e| format!("in-process scan failed: {e}"))
                })
                .collect::<Result<_, _>>()?,
        );
    }
    let designed_miss: Vec<Vec<bool>> = snapshots
        .iter()
        .map(|snapshot| inputs::first_occurrences(snapshot))
        .collect();

    // Measured: passes over the snapshots in turn, each on a freshly
    // loaded scanner with cold caches, until the time is up. The spare
    // set-ups run between batches with the clock stopped.
    let limit = Duration::from_secs(args.seconds);
    let pauses = (SETUP_REPEATS - 1) as u32;
    let mut next_pause = 1;
    let mut paused = Duration::ZERO;
    let mut samples = Vec::new();
    let (mut scanned, mut failed, mut mismatches, mut hits, mut designed_hits) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut passes = 0usize;
    let started = Instant::now();
    'passes: loop {
        let scanner = load()?;
        let snapshot = passes % requests.len();
        let (expected, designed_miss) = (&expected[snapshot], &designed_miss[snapshot]);
        passes += 1;
        for (b, chunk) in requests[snapshot].chunks(BATCH).enumerate() {
            let pause_at = Instant::now();
            if next_pause <= pauses
                && pause_at - started - paused >= limit * next_pause / (pauses + 1)
            {
                setup_s.push(set_up(setup_s.len())?.1);
                paused += pause_at.elapsed();
                next_pause += 1;
            }
            let sent_at = Instant::now();
            let at = sent_at - started - paused;
            if at >= limit {
                break 'passes;
            }
            let outcomes = scanner.scan_batch(chunk);
            let ns = sent_at.elapsed().as_nanos() as f64;
            let mut completed = 0;
            let mut batch_ok = true;
            for (j, outcome) in outcomes.into_iter().enumerate() {
                let pos = b * BATCH + j;
                match outcome {
                    Ok(report) => {
                        completed += 1;
                        if report.verdict.malicious_probability.to_bits() != expected[pos] {
                            mismatches += 1;
                            batch_ok = false;
                        }
                        hits += usize::from(report.cache.is_hit());
                    }
                    Err(e) => {
                        eprintln!("perfbench: scan failed: {e}");
                        failed += 1;
                        batch_ok = false;
                    }
                }
                designed_hits += usize::from(!designed_miss[pos]);
            }
            scanned += completed;
            samples.push(stats::Sample {
                start_ns: at.as_nanos() as f64,
                latency_ns: if batch_ok { ns } else { f64::INFINITY },
                work: completed,
            });
        }
    }
    let elapsed = started.elapsed() - paused;
    let peak_rss = peak_rss_mb()?;
    let attempted = scanned + failed;
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} batch scores differ from the sequential scanner");
    }
    let (ratio_ok, ratio_field) = ratio_check(
        "hit_ratio_in_process",
        designed_hits as f64 / attempted as f64,
        hits as f64 / attempted as f64,
    );
    let (mut metrics, latency) = loop_metrics(&samples, elapsed.as_nanos() as f64)?;
    metrics.push(setup_metric(&setup_s));
    metrics.push(Metric::new("peak_rss_mb", peak_rss, "MB"));
    let mut report = vec![
        field(
            "inputs",
            Json::Arr(
                snapshots
                    .iter()
                    .map(|snapshot| inputs::describe(snapshot, 0..snapshot.len(), None))
                    .collect(),
            ),
        ),
        field("latency_per_batch", latency),
        field("elapsed_s", elapsed.as_secs_f64()),
        field("passes", passes),
    ];
    report.extend(setup_report(&setup_s, inputs_s, rss_reset));
    report.extend([
        ratio_field,
        field("score_mismatches", mismatches),
        field("scan_failures", failed),
    ]);
    Ok(Outcome {
        correct: failed == 0 && mismatches == 0 && ratio_ok,
        attempted: attempted as u64,
        failed: (failed + mismatches) as u64,
        metrics,
        report,
    })
}
