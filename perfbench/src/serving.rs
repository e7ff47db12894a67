//! The shipped serving stack, in-process on loopback: set-up, the
//! closed-loop client, `/metrics` scrapes and the in-process reference
//! every wire verdict is checked against.

use crate::affinity::Placement;
use crate::inputs::WireInputs;
use crate::stats::Sample;
use scamdetect::{ModelKind, PrepCache, ScanRequest, Scanner, ScannerBuilder};
use scamdetect_dataset::Corpus;
use scamdetect_fleet::proxy::{spawn_router, RouterConfig, RunningRouter};
use scamdetect_serve::client::{http_call, HttpClient};
use scamdetect_serve::daemon::{spawn, RunningDaemon, ServeConfig};
use scamdetect_serve::json::Json;
use scamdetect_serve::RegistryConfig;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads per replica behind the router. Each idle pooled
/// router connection parks one replica worker, and with the default
/// (one per core) health probes starve and mark replicas down.
pub const REPLICA_WORKERS: usize = 8;

/// The artifact file every deployment trains and serves.
const ARTIFACT: &str = "bench-v1.scam";

/// Daemons (and the router in front of them) serving one artifact.
pub struct Deployment {
    daemons: Vec<RunningDaemon>,
    router: Option<RunningRouter>,
    /// Where clients connect: the router, or the single daemon.
    pub front: SocketAddr,
    /// The artifact the daemons loaded.
    pub artifact: PathBuf,
}

impl Deployment {
    /// The replicas' addresses, router ring order aside.
    pub fn replica_addrs(&self) -> Vec<SocketAddr> {
        self.daemons.iter().map(|d| d.addr).collect()
    }

    /// Each daemon's `(scans, cache hits)` counters, read off `/metrics`.
    pub fn scrape(&self) -> Result<Vec<ScanCounts>, String> {
        self.daemons.iter().map(|d| scrape(d.addr)).collect()
    }

    /// Stops the router, then every daemon, and waits for their threads.
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_all()
    }

    fn stop_all(&mut self) -> Result<(), String> {
        let mut result = Ok(());
        if let Some(router) = self.router.take() {
            if router.stop().is_err() {
                result = Err("router thread panicked".to_string());
            }
        }
        for daemon in self.daemons.drain(..) {
            if daemon.stop().is_err() {
                result = Err("daemon thread panicked".to_string());
            }
        }
        result
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Error paths still stop every thread they started.
        let _ = self.stop_all();
    }
}

/// The shipped daemon configuration, on an ephemeral loopback port.
pub fn serve_config(models_dir: &Path, routed: bool) -> ServeConfig {
    let mut config = ServeConfig::default();
    config.http.addr = "127.0.0.1:0".to_string();
    if routed {
        config.http.workers = REPLICA_WORKERS;
    }
    config.registry.models_dir = models_dir.to_path_buf();
    config
}

/// Trains `model` on `train`, saves it once per replica, spawns the
/// daemons (and a router when `replicas > 1`) and sends the warm-up
/// pass, all on the wire CPU. Returns the deployment and the time all
/// of that took.
pub fn deploy(
    dir: &Path,
    model: ModelKind,
    train: &Corpus,
    replicas: usize,
    inputs: &WireInputs,
    placement: &Placement,
) -> Result<(Deployment, Duration), String> {
    placement.on_wire_cpu(|| deploy_here(dir, model, train, replicas, inputs))?
}

/// [`deploy`] on the calling thread's CPUs; the closed loop calls it
/// from the wire CPU for the set-ups it interleaves with the run.
pub fn deploy_here(
    dir: &Path,
    model: ModelKind,
    train: &Corpus,
    replicas: usize,
    inputs: &WireInputs,
) -> Result<(Deployment, Duration), String> {
    let started = Instant::now();
    let deployment = start(dir, model, train, replicas)?;
    warm_up(&deployment, inputs)?;
    Ok((deployment, started.elapsed()))
}

fn start(
    dir: &Path,
    model: ModelKind,
    train: &Corpus,
    replicas: usize,
) -> Result<Deployment, String> {
    let scanner = ScannerBuilder::new()
        .model(model)
        .train(train)
        .map_err(|e| format!("training failed: {e}"))?;
    let routed = replicas > 1;
    let mut deployment = Deployment {
        daemons: Vec::new(),
        router: None,
        front: "127.0.0.1:0".parse().expect("literal address"),
        artifact: dir.join("models-0").join(ARTIFACT),
    };
    for r in 0..replicas {
        let models_dir = dir.join(format!("models-{r}"));
        std::fs::create_dir_all(&models_dir)
            .map_err(|e| format!("cannot create {}: {e}", models_dir.display()))?;
        scanner
            .save(models_dir.join(ARTIFACT))
            .map_err(|e| format!("cannot save the artifact: {e}"))?;
        let daemon = spawn(serve_config(&models_dir, routed))
            .map_err(|e| format!("daemon failed to start: {e}"))?;
        deployment.daemons.push(daemon);
    }
    deployment.front = deployment.daemons[0].addr;
    if routed {
        let router = spawn_router(RouterConfig {
            replicas: deployment.replica_addrs(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router failed to start: {e}"))?;
        deployment.front = router.addr;
        deployment.router = Some(router);
    }
    Ok(deployment)
}

fn warm_up(deployment: &Deployment, inputs: &WireInputs) -> Result<(), String> {
    let mut client = HttpClient::connect(deployment.front)
        .map_err(|e| format!("cannot connect to {}: {e}", deployment.front))?;
    for &i in &inputs.warmup {
        match client.request("POST", "/scan", Some(&inputs.bodies[i as usize])) {
            Ok(reply) if reply.status == 200 => {}
            Ok(reply) => return Err(format!("warm-up scan answered {}", reply.status)),
            Err(e) => return Err(format!("warm-up scan failed: {e}")),
        }
    }
    Ok(())
}

/// What one closed-loop client observed.
pub struct WireRun {
    /// Input index of each request sent, in order.
    pub sent: Vec<u32>,
    /// Send time (on the measured clock) and send-to-parsed-verdict
    /// time per request; a failed request's latency is infinite, so it
    /// misses any limit.
    pub samples: Vec<Sample>,
    /// The score bits of each verdict (`None` for a failed request).
    pub score_bits: Vec<Option<u64>>,
    /// Measured time from the first send to the last reply, pauses
    /// excluded.
    pub elapsed: Duration,
    /// `true` when `sequence` ran out before `limit`.
    pub exhausted: bool,
}

impl WireRun {
    pub fn failed(&self) -> usize {
        self.score_bits.iter().filter(|b| b.is_none()).count()
    }
}

/// `len` copies of `fill`, every page written now, so that filling the
/// buffer during the run does not grow the resident set with the rate.
pub fn touched<T: Clone>(len: usize, fill: T) -> Vec<T> {
    let mut buffer = Vec::with_capacity(len);
    buffer.resize(len, fill);
    buffer
}

/// One keep-alive client on the wire CPU sends `POST /scan` for each
/// entry of `sequence` in turn, each after the previous verdict is
/// parsed, until `limit` of measured time passes or the sequence ends.
/// At `pauses` evenly spaced points of the run the clock stops while
/// `pause` runs on the wire CPU (the interleaved set-ups).
pub fn drive(
    front: SocketAddr,
    inputs: &WireInputs,
    sequence: &[u32],
    limit: Duration,
    pauses: u32,
    pause: impl FnMut() -> Result<(), String>,
    placement: &Placement,
) -> Result<WireRun, String> {
    placement.on_wire_cpu(|| closed_loop(front, inputs, sequence, limit, pauses, pause))?
}

fn closed_loop(
    front: SocketAddr,
    inputs: &WireInputs,
    sequence: &[u32],
    limit: Duration,
    pauses: u32,
    mut pause: impl FnMut() -> Result<(), String>,
) -> Result<WireRun, String> {
    let n = sequence.len();
    let mut run = WireRun {
        sent: touched(n, u32::MAX),
        samples: touched(
            n,
            Sample {
                start_ns: f64::NAN,
                latency_ns: f64::NAN,
                work: usize::MAX,
            },
        ),
        score_bits: touched(n, Some(u64::MAX)),
        elapsed: Duration::ZERO,
        exhausted: true,
    };
    let mut client = Client::connect(front)?;
    let mut paused = Duration::ZERO;
    let mut next_pause = 1;
    let mut k = 0;
    let started = Instant::now();
    while k < n {
        let sent_at = Instant::now();
        let at = sent_at - started - paused;
        if next_pause <= pauses && at >= limit * next_pause / (pauses + 1) {
            pause()?;
            paused += sent_at.elapsed();
            next_pause += 1;
            continue;
        }
        if at >= limit {
            run.exhausted = false;
            break;
        }
        let i = sequence[k];
        let bits = client.scan(&inputs.bodies[i as usize])?;
        let ns = sent_at.elapsed().as_nanos() as f64;
        run.samples[k] = Sample {
            start_ns: at.as_nanos() as f64,
            latency_ns: if bits.is_some() { ns } else { f64::INFINITY },
            work: usize::from(bits.is_some()),
        };
        run.sent[k] = i;
        run.score_bits[k] = bits;
        k += 1;
    }
    run.elapsed = started.elapsed() - paused;
    run.sent.truncate(k);
    run.samples.truncate(k);
    run.score_bits.truncate(k);
    Ok(run)
}

/// A keep-alive `POST /scan` client that replaces a broken connection.
pub struct Client {
    front: SocketAddr,
    http: HttpClient,
}

impl Client {
    pub fn connect(front: SocketAddr) -> Result<Client, String> {
        let http =
            HttpClient::connect(front).map_err(|e| format!("cannot connect to {front}: {e}"))?;
        Ok(Client { front, http })
    }

    /// The verdict's score bits, or `None` when the request failed.
    pub fn scan(&mut self, body: &str) -> Result<Option<u64>, String> {
        Ok(match self.http.request("POST", "/scan", Some(body)) {
            Ok(reply) if reply.status == 200 => score_bits(&reply.body),
            Ok(reply) => {
                eprintln!("perfbench: /scan answered {}: {}", reply.status, reply.body);
                None
            }
            Err(e) => {
                eprintln!("perfbench: /scan failed: {e}");
                // A broken connection is replaced, not retried forever.
                *self = Client::connect(self.front)?;
                None
            }
        })
    }
}

fn score_bits(body: &str) -> Option<u64> {
    Json::parse(body)
        .ok()?
        .get("score")
        .and_then(Json::as_f64)
        .map(f64::to_bits)
}

/// A daemon's scan and verdict-cache-hit counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanCounts {
    pub scans: u64,
    pub hits: u64,
}

impl std::iter::Sum for ScanCounts {
    fn sum<I: Iterator<Item = ScanCounts>>(counts: I) -> ScanCounts {
        counts.fold(ScanCounts::default(), |total, c| ScanCounts {
            scans: total.scans + c.scans,
            hits: total.hits + c.hits,
        })
    }
}

impl std::ops::Sub for ScanCounts {
    type Output = ScanCounts;
    fn sub(self, before: ScanCounts) -> ScanCounts {
        ScanCounts {
            scans: self.scans - before.scans,
            hits: self.hits - before.hits,
        }
    }
}

fn scrape(addr: SocketAddr) -> Result<ScanCounts, String> {
    let reply = http_call(addr, "GET", "/metrics", None)
        .map_err(|e| format!("cannot scrape {addr}/metrics: {e}"))?;
    let counter = |name: &str| -> Result<u64, String> {
        reply
            .body
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("{addr}/metrics has no {name}"))
    };
    Ok(ScanCounts {
        scans: counter("scamdetect_scans_total")?,
        hits: counter("scamdetect_cache_hits_total")?
            + counter("scamdetect_batch_dedup_hits_total")?,
    })
}

/// A scanner configured like a daemon's: same artifact, same verdict
/// and prepared-input cache capacities.
pub fn reference_scanner(artifact: &Path) -> Result<Scanner, String> {
    let config = RegistryConfig::default();
    ScannerBuilder::new()
        .cache_capacity(config.cache_capacity)
        .workers(config.workers)
        .shared_prep_cache(PrepCache::shared(config.prep_capacity))
        .load(artifact)
        .map_err(|e| format!("cannot load {}: {e}", artifact.display()))
}

/// The in-process verdicts for the warm-up pass followed by `sent`, in
/// the order the daemon saw them. Verdicts are a function of the bytes,
/// the model and which twin of a skeleton came first, so this replay
/// reproduces every wire score bit for bit.
pub struct Reference {
    /// Score bits per sent request.
    pub bits: Vec<u64>,
    /// `true` where the scanner served the request from its caches.
    pub hit: Vec<bool>,
}

pub fn reference(artifact: &Path, inputs: &WireInputs, sent: &[u32]) -> Result<Reference, String> {
    let scanner = reference_scanner(artifact)?;
    let scan = |indices: &[u32]| -> Result<Vec<(u64, bool)>, String> {
        let mut out = Vec::with_capacity(indices.len());
        // scan_batch gives the bits of sequential scan_request calls
        // and spreads the misses over the scanner's workers.
        for chunk in indices.chunks(1024) {
            let requests: Vec<ScanRequest> = chunk
                .iter()
                .map(|&i| ScanRequest::new(&inputs.inputs[i as usize].bytes))
                .collect();
            for outcome in scanner.scan_batch(&requests) {
                let report = outcome.map_err(|e| format!("in-process scan failed: {e}"))?;
                out.push((
                    report.verdict.malicious_probability.to_bits(),
                    report.cache.is_hit(),
                ));
            }
        }
        Ok(out)
    };
    scan(&inputs.warmup)?;
    let (bits, hit) = scan(sent)?.into_iter().unzip();
    Ok(Reference { bits, hit })
}
