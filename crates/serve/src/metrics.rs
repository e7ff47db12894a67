//! Daemon metrics: lock-free counters plus log-linear latency
//! histograms, rendered in the Prometheus text exposition format.
//!
//! Everything on the hot path is a relaxed atomic op. Latency lives in
//! [`LatencyHistogram`]s — HDR-style log-linear buckets (two linear
//! sub-buckets per power-of-two octave, 1µs to ~100s) — so `/metrics`
//! exposes real `_bucket`/`_sum`/`_count` series per endpoint and, via
//! the trace hub, per pipeline stage. The p50/p99 gauges of earlier
//! releases remain, now interpolated from the buckets instead of
//! sorted from a sample ring; the slowest sample of each histogram
//! carries its trace id as an exemplar series so a latency spike links
//! straight to a captured span timeline.

use crate::http::{LoadGauge, TraceHub};
use crate::lifecycle::{DriftTelemetry, DriftWindow};
use scamdetect::trace::TraceId;
use scamdetect_ir::Platform;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of finite histogram bucket bounds (the overflow bucket —
/// Prometheus `+Inf` — is stored separately).
pub const HIST_BOUNDS_LEN: usize = 53;

/// Upper bounds (µs, inclusive) of the log-linear latency histogram:
/// two linear sub-buckets per power-of-two octave, so every bucket is
/// at most 33% wider than its lower edge. Spans 1µs .. ~100s; samples
/// above the last bound land in the overflow (`+Inf`) bucket.
pub const HIST_BOUNDS: [u64; HIST_BOUNDS_LEN] = hist_bounds();

const fn hist_bounds() -> [u64; HIST_BOUNDS_LEN] {
    // 1, then per octave k >= 1 the pair (2^k, 3 * 2^(k-1)):
    // 1, 2, 3, 4, 6, 8, 12, 16, 24, ... 67_108_864, 100_663_296.
    let mut bounds = [0u64; HIST_BOUNDS_LEN];
    bounds[0] = 1;
    let mut i = 1;
    let mut k = 1u32;
    while i < HIST_BOUNDS_LEN {
        bounds[i] = 1u64 << k;
        if i + 1 < HIST_BOUNDS_LEN {
            bounds[i + 1] = 3u64 << (k - 1);
        }
        i += 2;
        k += 1;
    }
    bounds
}

/// Index of the finite bucket whose bound is the smallest `>= us`, or
/// `HIST_BOUNDS_LEN` for the overflow bucket. O(1): the octave comes
/// from the leading-zero count, the sub-bucket from one compare.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        return 0;
    }
    let k = (63 - us.leading_zeros()) as usize; // floor(log2(us)), >= 1
    let idx = if us == 1u64 << k {
        2 * k - 1
    } else if us <= 3u64 << (k - 1) {
        2 * k
    } else {
        2 * k + 1
    };
    idx.min(HIST_BOUNDS_LEN)
}

/// A fixed-footprint log-linear latency histogram (HDR-style): lock
/// free, allocation free, every recording path three relaxed atomic
/// adds plus a `fetch_max`. Percentiles are interpolated from the
/// buckets at read time and clamped to the observed maximum, so a
/// lone sample reads back exactly and bulk traffic reads back within
/// one sub-bucket (≤ 33% relative error by construction).
///
/// The slowest sample's trace id is retained alongside the maximum —
/// the exemplar that links a histogram tail to a span timeline.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BOUNDS_LEN + 1], // last = overflow (+Inf)
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
    /// TraceId bits of the slowest sample; 0 = none recorded.
    max_trace: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BOUNDS_LEN + 1],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
            max_trace: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency sample (microseconds). A real 0µs sample is
    /// recorded as 0µs: occupancy is the bucket count, so no sentinel
    /// value exists for zero to collide with.
    pub fn record(&self, us: u64) {
        self.record_with_trace(us, None);
    }

    /// Records one sample and, when it becomes the new maximum, retains
    /// `trace` as the exemplar for the histogram's tail.
    pub fn record_with_trace(&self, us: u64, trace: Option<TraceId>) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let prev = self.max.fetch_max(us, Ordering::Relaxed);
        if us >= prev {
            if let Some(id) = trace {
                // Benign race: two concurrent maxima may interleave the
                // two stores; either exemplar is a real slow trace.
                self.max_trace.store(id.as_u64(), Ordering::Relaxed);
            }
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, microseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen, microseconds (0 before any sample).
    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// `(max_us, trace_id)` of the slowest traced sample, when the
    /// current maximum arrived with a trace id attached.
    pub fn exemplar(&self) -> Option<(u64, TraceId)> {
        let id = TraceId::from_raw(self.max_trace.load(Ordering::Relaxed))?;
        Some((self.max_us(), id))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), microseconds, interpolated
    /// linearly within the containing bucket and clamped to the
    /// observed maximum; 0 before any sample arrives.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let max = self.max_us();
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = if i == 0 { 0 } else { HIST_BOUNDS[i - 1] };
                let upper = if i < HIST_BOUNDS_LEN {
                    HIST_BOUNDS[i].min(max.max(lower))
                } else {
                    max
                };
                let within = (rank - seen) as f64 / n as f64;
                let value = lower as f64 + within * (upper.saturating_sub(lower)) as f64;
                return (value.round() as u64).min(max);
            }
            seen += n;
        }
        max
    }

    /// Cumulative `(le_bound, count)` pairs over the finite bounds,
    /// trimmed after the last occupied bucket; the caller appends the
    /// `+Inf` line from [`LatencyHistogram::count`]. Trimming keeps a
    /// cold histogram from costing 54 scrape lines.
    fn cumulative_trimmed(&self) -> Vec<(u64, u64)> {
        let counts: Vec<u64> = self.buckets[..HIST_BOUNDS_LEN]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let keep = match counts.iter().rposition(|&n| n > 0) {
            Some(i) => i + 1,
            None => 0,
        };
        let mut cum = 0u64;
        HIST_BOUNDS[..keep]
            .iter()
            .zip(counts)
            .map(|(&bound, n)| {
                cum += n;
                (bound, cum)
            })
            .collect()
    }
}

/// Writes one Prometheus histogram series (`_bucket`/`_sum`/`_count`)
/// for `hist` under `name{labels}`. `labels` is either empty or a
/// comma-joined `key="value"` list without braces. The caller emits
/// the family's `# HELP`/`# TYPE histogram` header once.
pub(crate) fn write_histogram_series(
    out: &mut String,
    name: &str,
    labels: &str,
    hist: &LatencyHistogram,
) {
    use std::fmt::Write as _;
    let sep = if labels.is_empty() { "" } else { "," };
    for (bound, cum) in hist.cumulative_trimmed() {
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cum}");
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        hist.count()
    );
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{brace} {}", hist.sum());
    let _ = writeln!(out, "{name}_count{brace} {}", hist.count());
}

/// Name + help text of one exported metric — the registration record.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Prometheus metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
}

/// The single registration point for the lifecycle counter family.
///
/// Everything that renders or aggregates these counters iterates this
/// table — the daemon's `/metrics` (on both transports, which share one
/// `render_prometheus`) and the fleet router's cross-replica aggregation
/// — so a counter added here appears everywhere at once and a name can
/// never drift between the exporter and the aggregator. Indexed by
/// [`LifecycleCounter`]; the unit tests pin the two in sync.
///
/// Counters only: these names are scraped back by the fleet router's
/// bare-name metric parser, so the family must stay label-free.
pub const LIFECYCLE_COUNTERS: &[MetricDef] = &[
    MetricDef {
        name: "scamdetect_feedback_total",
        help: "verdict corrections accepted through POST /feedback",
    },
    MetricDef {
        name: "scamdetect_feedback_disagreements_total",
        help: "accepted corrections that contradicted the served verdict",
    },
    MetricDef {
        name: "scamdetect_shadow_samples_total",
        help: "scans mirrored to a shadow candidate (all shadow sessions)",
    },
    MetricDef {
        name: "scamdetect_shadow_agreements_total",
        help: "mirrored scans where champion and candidate verdicts agreed",
    },
    MetricDef {
        name: "scamdetect_shadow_disagreements_total",
        help: "mirrored scans where the candidate contradicted the champion (or failed)",
    },
    MetricDef {
        name: "scamdetect_shadow_dropped_total",
        help: "scans not mirrored because the shadow queue was full",
    },
];

/// Index into [`LIFECYCLE_COUNTERS`] / [`LifecycleCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleCounter {
    /// Corrections accepted through `POST /feedback`.
    Feedback = 0,
    /// Accepted corrections contradicting the served verdict.
    FeedbackDisagreements = 1,
    /// Scans mirrored to a shadow candidate.
    ShadowSamples = 2,
    /// Mirrored scans with agreeing verdicts.
    ShadowAgreements = 3,
    /// Mirrored scans where the candidate disagreed or failed.
    ShadowDisagreements = 4,
    /// Scans dropped at a full shadow queue.
    ShadowDropped = 5,
}

/// Values behind [`LIFECYCLE_COUNTERS`], one relaxed atomic per entry.
///
/// Lives behind an `Arc` on [`Metrics`] because the shadow-scoring
/// worker thread increments it off the response path.
#[derive(Debug, Default)]
pub struct LifecycleCounters {
    values: [AtomicU64; LIFECYCLE_COUNTERS.len()],
}

impl LifecycleCounters {
    /// Adds 1 to one counter.
    pub fn incr(&self, which: LifecycleCounter) {
        self.values[which as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(&self, which: LifecycleCounter) -> u64 {
        self.values[which as usize].load(Ordering::Relaxed)
    }

    /// Reads every counter, positionally aligned with
    /// [`LIFECYCLE_COUNTERS`].
    pub fn snapshot(&self) -> [u64; LIFECYCLE_COUNTERS.len()] {
        let mut out = [0u64; LIFECYCLE_COUNTERS.len()];
        for (slot, v) in out.iter_mut().zip(self.values.iter()) {
            *slot = v.load(Ordering::Relaxed);
        }
        out
    }
}

/// Scrape-time view of the active shadow-scoring session, if any.
///
/// Session-scoped (reset on `shadow start`), unlike the cumulative
/// [`LifecycleCounters`]; promotion thresholds judge the session, the
/// counters record the lifetime.
#[derive(Debug, Clone, Copy)]
pub struct ShadowScrape<'a> {
    /// Candidate model id.
    pub candidate: &'a str,
    /// Registry epoch at candidate load (informational; the real epoch
    /// is minted at promotion).
    pub candidate_epoch: u64,
    /// Mirrored scans scored by the candidate this session.
    pub samples: u64,
    /// Samples where both models agreed.
    pub agreements: u64,
    /// Samples where the candidate disagreed (failures included).
    pub disagreements: u64,
    /// Candidate scans that errored.
    pub failures: u64,
    /// Scans dropped at a full queue this session.
    pub dropped: u64,
    /// Sum of signed per-sample latency deltas (candidate − champion),
    /// microseconds.
    pub latency_delta_us: i64,
}

/// Point-in-time state gathered by the `/metrics` route handler for
/// one scrape: the identity of the served model, daemon uptime, live
/// cache sizes, the HTTP layer's below-route rejection count (bad
/// request lines, 431/413/411/408), the live admission-gate gauge
/// (queue depth, in-flight, shed count), and — when the serving layer
/// runs with tracing enabled — the trace hub whose per-stage
/// histograms and ring counters the scrape renders.
#[derive(Debug, Clone, Copy)]
pub struct ScrapeSnapshot<'a> {
    /// Id of the model currently serving.
    pub model_id: &'a str,
    /// Monotonic epoch of the served model (bumps on every swap).
    pub model_epoch: u64,
    /// Seconds since the daemon started.
    pub uptime_s: u64,
    /// Entries in the serving scanner's verdict cache.
    pub verdict_cache_len: usize,
    /// Entries in the shared prepared-input cache.
    pub prep_cache_len: usize,
    /// Requests rejected below the route layer.
    pub protocol_errors: u64,
    /// Live server load (queue depth, in-flight, shed count).
    pub load: &'a LoadGauge,
    /// The active shadow-scoring session, when one is running.
    pub shadow: Option<ShadowScrape<'a>>,
    /// Whole records in the feedback log; `None` when ingestion is off.
    pub feedback_log_records: Option<u64>,
    /// The serving layer's trace hub (stage histograms, sampling
    /// config, ring occupancy); `None` on scrapes without one.
    pub trace: Option<&'a TraceHub>,
}

/// Counters and latency histograms for one daemon lifetime.
pub struct Metrics {
    /// Requests answered, by coarse endpoint family.
    pub requests_scan: AtomicU64,
    /// `/batch` requests (the *contracts* inside count into
    /// `scans_total` / cache counters like single scans).
    pub requests_batch: AtomicU64,
    /// Every other endpoint (`/healthz`, `/metrics`, `/models`, …).
    pub requests_other: AtomicU64,
    /// Responses with status >= 400.
    pub errors: AtomicU64,
    /// Contracts scored (cache hits included).
    pub scans_total: AtomicU64,
    /// Scans served from the verdict cache (cross-request).
    pub cache_hits: AtomicU64,
    /// Scans deduplicated inside one `/batch` request.
    pub batch_hits: AtomicU64,
    /// Scans that flagged the contract malicious.
    pub malicious_verdicts: AtomicU64,
    /// Scan requests that failed: undecodable `bytecode` fields as well
    /// as decoded-but-unliftable contracts.
    pub scan_failures: AtomicU64,
    /// Completed hot model swaps.
    pub model_swaps: AtomicU64,
    /// Artifacts accepted through `PUT /models/<id>`.
    pub model_installs: AtomicU64,
    /// Lifecycle counter family (see [`LIFECYCLE_COUNTERS`]). Shared
    /// with the shadow-scoring worker thread.
    pub lifecycle: Arc<LifecycleCounters>,
    /// Streaming drift telemetry (score histograms, cache decay).
    pub drift: DriftTelemetry,
    /// Scanner compute time, not handler latency: one sample of
    /// `Scanner::scan_request` per `/scan` request (body decode and
    /// response rendering excluded), plus one amortised per-contract
    /// sample per `/batch` request.
    pub scan_latency: LatencyHistogram,
    /// `/batch` handler latency, body decode through serialization
    /// (whole request, not per contract).
    pub batch_latency: LatencyHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests_scan: AtomicU64::new(0),
            requests_batch: AtomicU64::new(0),
            requests_other: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            scans_total: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            batch_hits: AtomicU64::new(0),
            malicious_verdicts: AtomicU64::new(0),
            scan_failures: AtomicU64::new(0),
            model_swaps: AtomicU64::new(0),
            model_installs: AtomicU64::new(0),
            lifecycle: Arc::new(LifecycleCounters::default()),
            drift: DriftTelemetry::default(),
            scan_latency: LatencyHistogram::new(),
            batch_latency: LatencyHistogram::new(),
        }
    }
}

impl Metrics {
    /// Records one scan latency sample (microseconds). Zero is a real
    /// value here: sub-microsecond cache hits count as 0µs instead of
    /// being rounded up to dodge a sentinel, because histogram
    /// occupancy — not a magic value — marks a bucket live.
    pub fn record_latency_us(&self, micros: u64) {
        self.scan_latency.record(micros);
    }

    /// `(p50, p99)` over the scan-latency histogram, microseconds,
    /// bucket-interpolated; zeros before any sample arrives.
    pub fn latency_percentiles_us(&self) -> (u64, u64) {
        (
            self.scan_latency.percentile(0.50),
            self.scan_latency.percentile(0.99),
        )
    }

    /// Verdict-cache hit ratio over everything scanned so far (batch
    /// dedup hits count as hits: the work was skipped either way).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.scans_total.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let hits =
            self.cache_hits.load(Ordering::Relaxed) + self.batch_hits.load(Ordering::Relaxed);
        hits as f64 / total as f64
    }

    /// Renders the Prometheus text exposition format over `snap`, the
    /// scrape-time state gathered by the `/metrics` route handler.
    pub fn render_prometheus(&self, snap: &ScrapeSnapshot<'_>) -> String {
        let ScrapeSnapshot {
            model_id,
            model_epoch,
            uptime_s,
            verdict_cache_len,
            prep_cache_len,
            protocol_errors,
            load,
            shadow,
            feedback_log_records,
            trace,
        } = *snap;
        use std::fmt::Write as _;
        // A full scrape with drift histograms, two endpoint latency
        // histograms and the stage family runs ~10–14 KiB; one power
        // of two above that means a scrape almost never reallocates.
        let mut out = String::with_capacity(16 * 1024);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "scamdetect_requests_total",
            "HTTP requests answered (scan endpoint)",
            self.requests_scan.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_batch_requests_total",
            "HTTP requests answered (batch endpoint)",
            self.requests_batch.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_other_requests_total",
            "HTTP requests answered (all other endpoints)",
            self.requests_other.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_errors_total",
            "route-handler responses with status >= 400",
            self.errors.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_protocol_errors_total",
            "requests rejected below the route layer (bad request line, 431/413/411/408)",
            protocol_errors,
        );
        counter(
            "scamdetect_scans_total",
            "contracts scored, cache hits included",
            self.scans_total.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_cache_hits_total",
            "scans served from the cross-request verdict cache",
            self.cache_hits.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_batch_dedup_hits_total",
            "scans deduplicated within one batch request",
            self.batch_hits.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_malicious_verdicts_total",
            "scans that flagged the contract",
            self.malicious_verdicts.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_scan_failures_total",
            "scan requests that failed (undecodable or unliftable bytecode)",
            self.scan_failures.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_model_swaps_total",
            "completed hot model swaps",
            self.model_swaps.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_model_installs_total",
            "artifacts accepted through PUT /models/<id>",
            self.model_installs.load(Ordering::Relaxed),
        );
        counter(
            "scamdetect_requests_shed_total",
            "connections answered 429 at the admission gate",
            load.shed_total.load(Ordering::Relaxed),
        );
        // The lifecycle family renders straight off its registration
        // table — adding a counter there adds it here, to the epoll
        // transport's scrape, and to the fleet router's aggregation,
        // with no second list to keep in sync.
        for (def, value) in LIFECYCLE_COUNTERS.iter().zip(self.lifecycle.snapshot()) {
            counter(def.name, def.help, value);
        }
        if let Some(hub) = trace {
            let (kept, dropped) = hub.ring_counts();
            counter(
                "scamdetect_traces_kept_total",
                "completed traces retained in the recent-trace ring",
                kept,
            );
            counter(
                "scamdetect_traces_dropped_total",
                "completed traces dropped at a contended or full trace ring",
                dropped,
            );
        }

        let (p50, p99) = self.latency_percentiles_us();
        let mut gauge = |name: &str, help: &str, value: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "scamdetect_scan_latency_p50_us",
            "median scan latency interpolated from the latency histogram, microseconds",
            p50.to_string(),
        );
        gauge(
            "scamdetect_scan_latency_p99_us",
            "p99 scan latency interpolated from the latency histogram, microseconds",
            p99.to_string(),
        );
        gauge(
            "scamdetect_cache_hit_ratio",
            "verdict-cache hit ratio since startup",
            format!("{:.6}", self.cache_hit_ratio()),
        );
        gauge(
            "scamdetect_verdict_cache_entries",
            "entries in the serving scanner's verdict cache",
            verdict_cache_len.to_string(),
        );
        gauge(
            "scamdetect_prep_cache_entries",
            "entries in the shared prepared-input cache",
            prep_cache_len.to_string(),
        );
        gauge(
            "scamdetect_queue_depth",
            "connections waiting at the accept-to-worker handoff",
            load.queued.load(Ordering::Relaxed).to_string(),
        );
        gauge(
            "scamdetect_in_flight_requests",
            "requests currently inside a route handler",
            load.in_flight.load(Ordering::Relaxed).to_string(),
        );
        gauge(
            "scamdetect_uptime_seconds",
            "seconds since the daemon started",
            uptime_s.to_string(),
        );
        gauge(
            "scamdetect_model_epoch",
            "monotonic epoch of the served model (bumps on every swap)",
            model_epoch.to_string(),
        );
        if let Some(hub) = trace {
            gauge(
                "scamdetect_trace_sample_every",
                "head-sampling rate: 1 in N traced requests kept (0 = tracing off)",
                hub.sample_every().to_string(),
            );
            gauge(
                "scamdetect_trace_slow_threshold_us",
                "requests at or above this total latency are always kept (0 = off)",
                hub.slow_us().to_string(),
            );
        }
        // Drift telemetry. The drift and decay gauges are the headline
        // signals; the raw histogram series (labeled, so deliberately
        // outside the aggregated counter family) let an operator see
        // *where* the score mass moved.
        let disagreement_rate = {
            let total = self.lifecycle.get(LifecycleCounter::Feedback);
            if total == 0 {
                0.0
            } else {
                self.lifecycle.get(LifecycleCounter::FeedbackDisagreements) as f64 / total as f64
            }
        };
        gauge(
            "scamdetect_feedback_disagreement_rate",
            "fraction of accepted corrections contradicting the served verdict",
            format!("{disagreement_rate:.6}"),
        );
        gauge(
            "scamdetect_cache_hit_recent_ratio",
            "verdict-cache hit ratio over the recent window",
            format!("{:.6}", self.drift.recent_cache_ratio()),
        );
        gauge(
            "scamdetect_cache_hit_decay",
            "lifetime cache-hit ratio minus the recent-window ratio (positive = decaying)",
            format!("{:.6}", self.drift.cache_hit_decay(self.cache_hit_ratio())),
        );
        if let Some(records) = feedback_log_records {
            gauge(
                "scamdetect_feedback_log_records",
                "whole records in the feedback log",
                records.to_string(),
            );
        }

        // Shadow-scoring session state, when one is running.
        gauge(
            "scamdetect_shadow_active",
            "1 while a shadow candidate is loaded and scoring mirrored traffic",
            if shadow.is_some() { "1" } else { "0" }.to_string(),
        );
        if let Some(sh) = shadow {
            let agreement = if sh.samples == 0 {
                0.0
            } else {
                sh.agreements as f64 / sh.samples as f64
            };
            gauge(
                "scamdetect_shadow_agreement_ratio",
                "fraction of mirrored samples where candidate agreed with champion (this session)",
                format!("{agreement:.6}"),
            );
            let mean_delta = if sh.samples == 0 {
                0.0
            } else {
                sh.latency_delta_us as f64 / sh.samples as f64
            };
            gauge(
                "scamdetect_shadow_latency_delta_us",
                "mean signed candidate-minus-champion scan latency delta, microseconds (this session)",
                format!("{mean_delta:.3}"),
            );
        }

        // Labeled series, written directly (the counter/gauge helpers
        // above emit bare names only).
        //
        // Endpoint latency histograms: real cumulative `_bucket` series
        // over the log-linear bounds, trimmed after the last occupied
        // bucket to keep cold endpoints cheap.
        let _ = writeln!(
            out,
            "# HELP scamdetect_request_duration_us latency by endpoint, microseconds: scan is \
             scanner compute per /scan request plus one amortised per-contract sample per \
             /batch; batch is the whole /batch handler through serialization\n\
             # TYPE scamdetect_request_duration_us histogram"
        );
        for (endpoint, hist) in [("scan", &self.scan_latency), ("batch", &self.batch_latency)] {
            write_histogram_series(
                &mut out,
                "scamdetect_request_duration_us",
                &format!("endpoint=\"{endpoint}\""),
                hist,
            );
        }
        // The per-stage family comes from the trace hub: every traced
        // request folds its span durations in, sampled away or not, so
        // the histograms see full traffic while the ring keeps only
        // the sampled/slow/forced timelines.
        if let Some(hub) = trace {
            let _ = writeln!(
                out,
                "# HELP scamdetect_stage_duration_us span duration by pipeline stage over traced requests, microseconds\n\
                 # TYPE scamdetect_stage_duration_us histogram"
            );
            for (stage, hist) in hub.stage_histograms() {
                if hist.count() == 0 {
                    continue;
                }
                write_histogram_series(
                    &mut out,
                    "scamdetect_stage_duration_us",
                    &format!("stage=\"{stage}\""),
                    hist,
                );
            }
        }
        // Exemplars: the slowest sample of each histogram carries its
        // trace id, linking the tail to GET /trace/<id>.
        {
            let mut wrote_header = false;
            let mut exemplar = |out: &mut String, labels: String, hist: &LatencyHistogram| {
                if let Some((us, id)) = hist.exemplar() {
                    if !wrote_header {
                        let _ = writeln!(
                            out,
                            "# HELP scamdetect_slowest_trace_us slowest observed sample per series, with its trace id as an exemplar label\n\
                             # TYPE scamdetect_slowest_trace_us gauge"
                        );
                        wrote_header = true;
                    }
                    let _ = writeln!(
                        out,
                        "scamdetect_slowest_trace_us{{{labels},trace_id=\"{}\"}} {us}",
                        id.to_hex()
                    );
                }
            };
            exemplar(
                &mut out,
                "endpoint=\"scan\"".to_string(),
                &self.scan_latency,
            );
            exemplar(
                &mut out,
                "endpoint=\"batch\"".to_string(),
                &self.batch_latency,
            );
            if let Some(hub) = trace {
                for (stage, hist) in hub.stage_histograms() {
                    exemplar(&mut out, format!("stage=\"{stage}\""), hist);
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP scamdetect_score_drift L1 distance between current and baseline score histograms, per platform\n\
             # TYPE scamdetect_score_drift gauge"
        );
        for platform in [Platform::Evm, Platform::Wasm] {
            let _ = writeln!(
                out,
                "scamdetect_score_drift{{platform=\"{platform}\"}} {:.6}",
                self.drift.score_drift(platform)
            );
        }
        let _ = writeln!(
            out,
            "# HELP scamdetect_score_hist served-score histogram buckets per platform and window\n\
             # TYPE scamdetect_score_hist gauge"
        );
        for platform in [Platform::Evm, Platform::Wasm] {
            for (window, tag) in [
                (DriftWindow::Current, "current"),
                (DriftWindow::Baseline, "baseline"),
            ] {
                let hist = self.drift.histogram(platform, window);
                for (bucket, count) in hist.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "scamdetect_score_hist{{platform=\"{platform}\",window=\"{tag}\",bucket=\"{bucket}\"}} {count}"
                    );
                }
            }
        }
        if let Some(sh) = shadow {
            let _ = writeln!(
                out,
                "# HELP scamdetect_shadow_info shadow candidate id as a label\n\
                 # TYPE scamdetect_shadow_info gauge\n\
                 scamdetect_shadow_info{{candidate=\"{}\"}} 1",
                sh.candidate.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        let _ = writeln!(
            out,
            "# HELP scamdetect_model_info served model id as a label\n\
             # TYPE scamdetect_model_info gauge\n\
             scamdetect_model_info{{model=\"{}\"}} 1",
            model_id.replace('\\', "\\\\").replace('"', "\\\"")
        );
        let _ = writeln!(
            out,
            "# HELP scamdetect_build_info build metadata as labels\n\
             # TYPE scamdetect_build_info gauge\n\
             scamdetect_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_linear_search() {
        // The O(1) octave computation must agree with the definition:
        // smallest bound >= the sample, overflow past the last bound.
        let reference = |us: u64| {
            HIST_BOUNDS
                .iter()
                .position(|&b| b >= us)
                .unwrap_or(HIST_BOUNDS_LEN)
        };
        for us in 0..=2048u64 {
            assert_eq!(bucket_index(us), reference(us), "us={us}");
        }
        for &us in &[1 << 20, (1 << 20) + 1, 100_663_296, 100_663_297, u64::MAX] {
            assert_eq!(bucket_index(us), reference(us), "us={us}");
        }
        // Bounds are strictly increasing (cumulative rendering relies
        // on it).
        assert!(HIST_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_latency_samples_are_recorded_faithfully() {
        // A real 0µs sample (sub-microsecond cache hit) used to be
        // clamped up to 1µs to dodge the old ring's EMPTY sentinel.
        // Histogram occupancy needs no sentinel: zeros stay zeros.
        let m = Metrics::default();
        for _ in 0..10 {
            m.record_latency_us(0);
        }
        assert_eq!(m.scan_latency.count(), 10);
        assert_eq!(m.scan_latency.sum(), 0);
        assert_eq!(m.scan_latency.max_us(), 0);
        assert_eq!(m.latency_percentiles_us(), (0, 0));
    }

    #[test]
    fn percentiles_over_known_samples() {
        let m = Metrics::default();
        assert_eq!(m.latency_percentiles_us(), (0, 0));
        for us in 1..=100u64 {
            m.record_latency_us(us);
        }
        let (p50, p99) = m.latency_percentiles_us();
        assert!((48..=52).contains(&p50), "p50 {p50}");
        assert!((96..=100).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn single_sample_reads_back_exactly() {
        // Interpolation clamps to the observed max, so one sample is
        // recovered bit-exact despite ~25%-wide buckets.
        let h = LatencyHistogram::new();
        h.record(123);
        assert_eq!(h.percentile(0.5), 123);
        assert_eq!(h.percentile(0.99), 123);
        assert_eq!(h.max_us(), 123);
    }

    #[test]
    fn heavy_traffic_stays_within_one_bucket() {
        let h = LatencyHistogram::new();
        for _ in 0..4096 {
            h.record(7);
        }
        assert_eq!(h.percentile(0.5), 7);
        assert_eq!(h.percentile(0.99), 7);
        assert_eq!(h.count(), 4096);
        assert_eq!(h.sum(), 7 * 4096);
    }

    #[test]
    fn exemplar_tracks_the_slowest_traced_sample() {
        let h = LatencyHistogram::new();
        h.record(500); // untraced: no exemplar yet
        assert!(h.exemplar().is_none());
        let slow = TraceId::parse("00000000000000ab").unwrap();
        let fast = TraceId::parse("00000000000000cd").unwrap();
        h.record_with_trace(900, Some(slow));
        h.record_with_trace(100, Some(fast)); // not the max: ignored
        let (us, id) = h.exemplar().unwrap();
        assert_eq!(us, 900);
        assert_eq!(id, slow);
    }

    #[test]
    fn histogram_series_are_cumulative_and_inf_terminated() {
        let h = LatencyHistogram::new();
        h.record(3);
        h.record(3);
        h.record(100);
        let mut out = String::new();
        write_histogram_series(&mut out, "x_us", "endpoint=\"scan\"", &h);
        let mut last_cum = 0u64;
        let mut bucket_lines = 0;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last_cum, "non-monotonic: {line}");
            last_cum = value;
            bucket_lines += 1;
        }
        assert!(out.contains("x_us_bucket{endpoint=\"scan\",le=\"3\"} 2"));
        assert!(out.contains("x_us_bucket{endpoint=\"scan\",le=\"+Inf\"} 3"));
        assert!(out.contains("x_us_sum{endpoint=\"scan\"} 106"));
        assert!(out.contains("x_us_count{endpoint=\"scan\"} 3"));
        // Trimmed after the last occupied bucket: 100 lands at le=128,
        // so no bounds beyond that render (plus the +Inf line).
        assert_eq!(
            bucket_lines,
            HIST_BOUNDS.iter().position(|&b| b >= 100).unwrap() + 2
        );
    }

    #[test]
    fn hit_ratio_counts_batch_dedup() {
        let m = Metrics::default();
        assert_eq!(m.cache_hit_ratio(), 0.0);
        m.scans_total.store(10, Ordering::Relaxed);
        m.cache_hits.store(3, Ordering::Relaxed);
        m.batch_hits.store(2, Ordering::Relaxed);
        assert!((m.cache_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = Metrics::default();
        m.requests_scan.store(4, Ordering::Relaxed);
        m.record_latency_us(123);
        let load = LoadGauge::default();
        load.shed_total.store(5, Ordering::Relaxed);
        load.queued.store(2, Ordering::Relaxed);
        m.lifecycle.incr(LifecycleCounter::Feedback);
        m.lifecycle.incr(LifecycleCounter::FeedbackDisagreements);
        m.drift.observe_score(Platform::Evm, 0.85, true);
        let hub = TraceHub::new(16, 50_000, 64);
        let text = m.render_prometheus(&ScrapeSnapshot {
            model_id: "rf-v3",
            model_epoch: 2,
            uptime_s: 60,
            verdict_cache_len: 10,
            prep_cache_len: 12,
            protocol_errors: 3,
            load: &load,
            shadow: Some(ShadowScrape {
                candidate: "rf-v4",
                candidate_epoch: 2,
                samples: 8,
                agreements: 6,
                disagreements: 2,
                failures: 0,
                dropped: 1,
                latency_delta_us: -40,
            }),
            feedback_log_records: Some(17),
            trace: Some(&hub),
        });
        assert!(text.contains("scamdetect_requests_total 4"));
        assert!(text.contains("scamdetect_protocol_errors_total 3"));
        assert!(text.contains("scamdetect_requests_shed_total 5"));
        assert!(text.contains("scamdetect_queue_depth 2"));
        assert!(text.contains("scamdetect_in_flight_requests 0"));
        assert!(text.contains("scamdetect_scan_latency_p50_us 123"));
        assert!(text.contains("scamdetect_model_info{model=\"rf-v3\"} 1"));
        assert!(text.contains("scamdetect_model_epoch 2"));
        assert!(text.contains(&format!(
            "scamdetect_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("scamdetect_uptime_seconds 60"));
        assert!(text.contains("scamdetect_trace_sample_every 16"));
        assert!(text.contains("scamdetect_trace_slow_threshold_us 50000"));
        assert!(text.contains("scamdetect_traces_kept_total 0"));
        // The single 123µs sample renders as a real cumulative series.
        assert!(
            text.contains("scamdetect_request_duration_us_bucket{endpoint=\"scan\",le=\"128\"} 1")
        );
        assert!(
            text.contains("scamdetect_request_duration_us_bucket{endpoint=\"scan\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("scamdetect_request_duration_us_sum{endpoint=\"scan\"} 123"));
        assert!(text.contains("scamdetect_request_duration_us_count{endpoint=\"scan\"} 1"));
        // A cold endpoint still closes its series with +Inf/sum/count.
        assert!(text
            .contains("scamdetect_request_duration_us_bucket{endpoint=\"batch\",le=\"+Inf\"} 0"));
        assert!(text.contains("scamdetect_request_duration_us_count{endpoint=\"batch\"} 0"));
        // Every registered lifecycle counter renders by its table name.
        for def in LIFECYCLE_COUNTERS {
            assert!(
                text.contains(&format!("\n{} ", def.name)),
                "{} missing",
                def.name
            );
        }
        assert!(text.contains("scamdetect_feedback_total 1"));
        assert!(text.contains("scamdetect_feedback_disagreement_rate 1.000000"));
        assert!(text.contains("scamdetect_feedback_log_records 17"));
        assert!(text
            .contains("scamdetect_score_hist{platform=\"evm\",window=\"current\",bucket=\"8\"} 1"));
        assert!(text.contains("scamdetect_score_drift{platform=\"wasm\"} 0.000000"));
        assert!(text.contains("scamdetect_shadow_active 1"));
        assert!(text.contains("scamdetect_shadow_agreement_ratio 0.750000"));
        assert!(text.contains("scamdetect_shadow_latency_delta_us -5.000"));
        assert!(text.contains("scamdetect_shadow_info{candidate=\"rf-v4\"} 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            assert!(parts.next().is_some(), "{line}");
            assert!(parts.next().unwrap().parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn shadow_off_renders_inactive_gauge_and_no_session_series() {
        let m = Metrics::default();
        let load = LoadGauge::default();
        let text = m.render_prometheus(&ScrapeSnapshot {
            model_id: "rf-v3",
            model_epoch: 1,
            uptime_s: 1,
            verdict_cache_len: 0,
            prep_cache_len: 0,
            protocol_errors: 0,
            load: &load,
            shadow: None,
            feedback_log_records: None,
            trace: None,
        });
        assert!(text.contains("scamdetect_shadow_active 0"));
        assert!(!text.contains("scamdetect_shadow_info"));
        assert!(!text.contains("scamdetect_feedback_log_records"));
        assert!(!text.contains("scamdetect_trace_sample_every"));
        assert!(!text.contains("scamdetect_stage_duration_us"));
        // The cumulative family still renders (zeros) with shadow off.
        assert!(text.contains("scamdetect_shadow_samples_total 0"));
    }

    #[test]
    fn lifecycle_table_and_index_agree() {
        // The enum indexes the table; a counter added to one without the
        // other fails here, named.
        let counters = [
            LifecycleCounter::Feedback,
            LifecycleCounter::FeedbackDisagreements,
            LifecycleCounter::ShadowSamples,
            LifecycleCounter::ShadowAgreements,
            LifecycleCounter::ShadowDisagreements,
            LifecycleCounter::ShadowDropped,
        ];
        assert_eq!(counters.len(), LIFECYCLE_COUNTERS.len());
        let c = LifecycleCounters::default();
        for (i, &which) in counters.iter().enumerate() {
            assert_eq!(which as usize, i);
            c.incr(which);
            assert_eq!(c.get(which), 1);
            assert_eq!(c.snapshot()[i], 1);
        }
        // Aggregation constraint: the family must stay label-free and
        // use the shared prefix + _total convention.
        for def in LIFECYCLE_COUNTERS {
            assert!(def.name.starts_with("scamdetect_"), "{}", def.name);
            assert!(def.name.ends_with("_total"), "{}", def.name);
            assert!(!def.name.contains('{'), "{}", def.name);
        }
    }
}
