//! Request tracing primitives: ids, hierarchical spans, bounded rings.
//!
//! This module is the std-only core of the serving stack's distributed
//! tracing subsystem. It deliberately knows nothing about HTTP, threads,
//! or Prometheus — it defines the *data model* and the two lock-light
//! containers everything else composes:
//!
//! * [`TraceId`] — a 64-bit id produced by a splitmix64 mix over a
//!   process-global counter (offset by a seed read once per process from
//!   wall clock ⊕ pid), rendered as 16 lowercase hex digits. Ids travel
//!   between processes in the `x-trace-id` header, so [`TraceId::parse`]
//!   accepts exactly what [`TraceId::to_hex`] emits.
//! * [`Stage`] — the closed vocabulary of span tags. Serve-side stages
//!   follow the request path (`queue_wait` → `parse` → `admission` →
//!   `handler` → `cache_lookup`/`prep`/`score` → `serialize` → `write`);
//!   router-side stages describe fleet forwarding (`route`, `forward`,
//!   `retry`, `breaker`). A typed enum (not free-form strings) keeps the
//!   per-stage histogram array dense and the wire format stable.
//! * [`ActiveTrace`] — the per-request span collector. It is owned by
//!   exactly one request and carried *inside* the request object, so
//!   recording a span is a plain `Vec::push` with no shared-state
//!   contention; cross-thread hand-off happens at most twice per request
//!   (dispatch → worker → writer), piggy-backing on existing channels.
//!   Every request of a traced server records one, so it costs no heap
//!   allocation and no formatting once warm: spans go into a buffer
//!   sized once and reused from a per-thread pool, and each [`Note`]
//!   holds the raw values it names. Only a trace that is *kept* becomes
//!   a [`Trace`], with its notes rendered to text.
//! * [`TraceRing`] — the bounded completed-trace ring. Pushes use
//!   `try_lock` and **drop rather than block** (the same discipline as
//!   the shadow-scoring queue): tracing must never add tail latency to
//!   the request path it observes.
//! * [`Sampler`] — head-based 1-in-N sampling with a slow-request
//!   override threshold. The decision to *record* is made once at
//!   request start; the decision to *keep* is made once at finish.
//!
//! Timestamps are monotonic ([`std::time::Instant`]) relative to a
//! per-trace origin; only a kept trace's origin is stamped with
//! wall-clock time (`unix_start_us`) so cross-process timelines can be
//! aligned approximately by the stitcher.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::scan::CacheStatus;

/// The splitmix64 increment (golden-ratio gamma). Shared with the
/// jittered-backoff helper in the fleet layer by value, not by import.
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of splitmix64: a fast, well-dispersed 64-bit mixer.
/// Good enough for trace-id uniqueness (we never need cryptographic
/// unpredictability, only collision resistance across a fleet).
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The process's id stream offset: wall clock ⊕ pid, read once.
static TRACE_SEED: OnceLock<u64> = OnceLock::new();

fn trace_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ ((std::process::id() as u64) << 32)
}

/// A non-zero 64-bit trace identifier, wire-encoded as 16 hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(u64);

impl TraceId {
    /// Generates a fresh id: splitmix64 over a global counter offset by
    /// a per-process seed (wall clock ⊕ pid, read on first use). The
    /// mix is a bijection, so ids never repeat within a process. Zero
    /// is reserved as "no id" and never produced.
    pub fn generate() -> TraceId {
        let seed = *TRACE_SEED.get_or_init(trace_seed);
        loop {
            let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
            let mixed = splitmix64(seed.wrapping_add(n));
            if mixed != 0 {
                return TraceId(mixed);
            }
        }
    }

    /// Wraps a raw value; zero means "absent" and is rejected.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        if raw == 0 {
            None
        } else {
            Some(TraceId(raw))
        }
    }

    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The canonical wire form: exactly 16 lowercase hex digits.
    pub fn to_hex(self) -> String {
        self.to_string()
    }

    /// The wire form without allocating: the 16 lowercase hex digits as
    /// ASCII bytes, for writing straight into a buffer.
    pub fn hex_digits(self) -> [u8; 16] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        std::array::from_fn(|i| DIGITS[(self.0 >> (60 - 4 * i)) as usize & 0xF])
    }

    /// Parses the wire form. Accepts 1–16 hex digits (case-insensitive)
    /// so hand-typed short ids work at the CLI; rejects zero and junk.
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().and_then(TraceId::from_raw)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.hex_digits();
        f.write_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
    }
}

/// Typed span tags covering both the replica request path and the fleet
/// router's forwarding path. The numeric order is the canonical render
/// order for per-stage metrics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// The root span: covers the whole request from origin to finish.
    Request,
    /// Time between enqueue (accept or dispatch) and a worker picking
    /// the request up.
    QueueWait,
    /// Receiving and parsing the request head + body off the wire.
    Parse,
    /// Admission control decision (shed watermark check, load snapshot).
    Admission,
    /// The registered handler, end to end. Stage spans below nest here.
    Handler,
    /// Verdict-cache fingerprint + probe inside the scanner.
    CacheLookup,
    /// Input preparation: wire decode, hex/base64 lift, featurization.
    Prep,
    /// Model scoring (detector inference) on a cache miss.
    Score,
    /// Rendering the response body (report JSON).
    Serialize,
    /// Encoding + writing the response bytes to the socket.
    Write,
    /// Router: consistent-hash ring lookup choosing the owning replica.
    Route,
    /// Router: one forward attempt to a replica (note carries
    /// `replica=ADDR status=N attempt=K`).
    Forward,
    /// Router: the decision to retry after a failed attempt.
    Retry,
    /// Router: a replica skipped or request refused by breaker state.
    Breaker,
}

impl Stage {
    /// Every stage, in canonical order. `Stage::ALL[s.index()] == s`.
    pub const ALL: [Stage; 14] = [
        Stage::Request,
        Stage::QueueWait,
        Stage::Parse,
        Stage::Admission,
        Stage::Handler,
        Stage::CacheLookup,
        Stage::Prep,
        Stage::Score,
        Stage::Serialize,
        Stage::Write,
        Stage::Route,
        Stage::Forward,
        Stage::Retry,
        Stage::Breaker,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::Admission => "admission",
            Stage::Handler => "handler",
            Stage::CacheLookup => "cache_lookup",
            Stage::Prep => "prep",
            Stage::Score => "score",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
            Stage::Route => "route",
            Stage::Forward => "forward",
            Stage::Retry => "retry",
            Stage::Breaker => "breaker",
        }
    }

    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|stage| stage.as_str() == s)
    }

    /// Dense index into [`Stage::ALL`]; used for per-stage histograms.
    /// `ALL` lists the variants in declaration order, so the index is
    /// the discriminant.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed span: microsecond offsets relative to the trace origin.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Span id, unique within the trace. The root span is always id 0.
    pub id: u32,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u32>,
    pub stage: Stage,
    /// Start offset from the trace origin, µs.
    pub start_us: u64,
    pub duration_us: u64,
    /// Free-form detail (`replica=127.0.0.1:4100 status=200 attempt=0`).
    pub note: Option<String>,
}

/// A finished, immutable trace ready for the ring and the wire.
#[derive(Clone, Debug)]
pub struct Trace {
    pub id: TraceId,
    /// Wall-clock stamp of the trace origin, µs since the Unix epoch.
    /// Approximate — used only to align cross-process timelines.
    pub unix_start_us: u64,
    /// Origin-to-finish duration, µs (root span duration).
    pub total_us: u64,
    /// True when `total_us` met the slow-trace threshold at finish.
    pub slow: bool,
    /// True when head sampling elected this trace.
    pub sampled: bool,
    /// True when the id arrived from upstream via `x-trace-id`.
    pub forced: bool,
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// First span with the given stage, if any.
    pub fn span_of(&self, stage: Stage) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// True when every non-root span's parent exists and the child's
    /// interval is contained in the parent's (1µs slack per edge, since
    /// offsets truncate to whole microseconds).
    pub fn nesting_consistent(&self) -> bool {
        self.spans.iter().all(|span| match span.parent {
            None => span.id == 0,
            Some(parent) => self.spans.iter().any(|p| {
                p.id == parent
                    && p.start_us <= span.start_us.saturating_add(1)
                    && span.start_us + span.duration_us <= p.start_us + p.duration_us + 1
            }),
        })
    }
}

/// A span note, kept as the raw values it names. Recording one formats
/// and allocates nothing; [`fmt::Display`] renders the text only when a
/// trace is kept.
#[derive(Clone, Debug, PartialEq)]
pub enum Note {
    /// Admission load: `queued=<n> in_flight=<n> watermark=<n>`.
    Load {
        queued: usize,
        in_flight: usize,
        watermark: usize,
    },
    /// Verdict-cache outcome: `cache=<status>` (`cache=CacheHit`).
    Cache(CacheStatus),
    /// Response status: `status=<code>`.
    Status(u16),
    /// Router ring lookup: `owner=<addr> attempt=<k>`. A replica's id
    /// is its address.
    Route { owner: SocketAddr, attempt: usize },
    /// Router forward: `replica=<addr> status=<code> attempt=<k>`.
    Forward {
        replica: SocketAddr,
        status: u16,
        attempt: usize,
    },
    /// Text formatted by the caller, for notes off the request fast
    /// path (batch sizes, retries, breaker trips, failed forwards).
    Text(String),
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::Load {
                queued,
                in_flight,
                watermark,
            } => write!(
                f,
                "queued={queued} in_flight={in_flight} watermark={watermark}"
            ),
            Note::Cache(status) => write!(f, "cache={status:?}"),
            Note::Status(status) => write!(f, "status={status}"),
            Note::Route { owner, attempt } => write!(f, "owner={owner} attempt={attempt}"),
            Note::Forward {
                replica,
                status,
                attempt,
            } => write!(f, "replica={replica} status={status} attempt={attempt}"),
            Note::Text(text) => f.write_str(text),
        }
    }
}

impl From<String> for Note {
    fn from(text: String) -> Note {
        Note::Text(text)
    }
}

/// Spans a trace's buffer holds from the start: every span the serve
/// and router fast paths record fits, so only long retry chains grow
/// it.
const SPAN_CAPACITY: usize = 16;

/// Emptied span buffers one thread keeps for its next traces.
const POOLED_SPAN_BUFFERS: usize = 64;

thread_local! {
    /// Span buffers of this thread's dropped traces. A request's trace
    /// is started and dropped by the same transport thread, so once
    /// warm every trace reuses a buffer and none allocates.
    static SPAN_BUFFERS: RefCell<Vec<Vec<RawSpan>>> = const { RefCell::new(Vec::new()) };
}

/// A span as the collector stores it: its id is its index, and span 0
/// (the root) is the only one without a parent.
#[derive(Debug)]
struct RawSpan {
    parent: u32,
    stage: Stage,
    start_us: u64,
    duration_us: u64,
    note: Option<Note>,
}

/// The per-request span collector. Owned by one request at a time and
/// mutated without shared locks; finished into an immutable [`Trace`]
/// when kept.
///
/// Spans go into a buffer sized for the fast paths, taken from the
/// thread's pool at start and returned to the dropping thread's pool,
/// so the collector itself stays a few words wide as it moves with its
/// request.
///
/// The open spans are the innermost one and its ancestors: a span
/// opened by [`ActiveTrace::begin`] nests under the innermost open
/// span and becomes the innermost itself, so the parent links double
/// as the open-span stack.
#[derive(Debug)]
pub struct ActiveTrace {
    id: TraceId,
    origin: Instant,
    sampled: bool,
    forced: bool,
    /// Spans in id order.
    spans: Vec<RawSpan>,
    /// The innermost open span. The root (id 0) is open from `start`
    /// until `finish`.
    innermost: u32,
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        let mut spans = std::mem::take(&mut self.spans);
        spans.clear();
        // A thread tearing down its locals simply frees the buffer.
        let _ = SPAN_BUFFERS.try_with(|pool| {
            if let Ok(mut pool) = pool.try_borrow_mut() {
                if pool.len() < POOLED_SPAN_BUFFERS {
                    pool.push(spans);
                }
            }
        });
    }
}

impl ActiveTrace {
    /// Opens a trace whose root `request` span starts at `origin`.
    pub fn start(id: TraceId, origin: Instant, sampled: bool, forced: bool) -> ActiveTrace {
        let mut spans = SPAN_BUFFERS
            .try_with(|pool| pool.try_borrow_mut().ok().and_then(|mut pool| pool.pop()))
            .ok()
            .flatten()
            .unwrap_or_else(|| Vec::with_capacity(SPAN_CAPACITY));
        spans.push(RawSpan {
            parent: 0,
            stage: Stage::Request,
            start_us: 0,
            duration_us: 0,
            note: None,
        });
        ActiveTrace {
            id,
            origin,
            sampled,
            forced,
            spans,
            innermost: 0,
        }
    }

    pub fn id(&self) -> TraceId {
        self.id
    }

    pub fn sampled(&self) -> bool {
        self.sampled
    }

    pub fn forced(&self) -> bool {
        self.forced
    }

    fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Appends a span under the innermost open span; returns its id.
    fn push(&mut self, stage: Stage, start_us: u64, duration_us: u64, note: Option<Note>) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(RawSpan {
            parent: self.innermost,
            stage,
            start_us,
            duration_us,
            note,
        });
        id
    }

    /// Opens a span now, nested under the innermost open span. Returns
    /// the span id to pass to [`ActiveTrace::end`].
    pub fn begin(&mut self, stage: Stage) -> u32 {
        let start_us = self.offset_us(Instant::now());
        let id = self.push(stage, start_us, 0, None);
        self.innermost = id;
        id
    }

    /// Closes an open span (and, tolerantly, anything opened inside it
    /// that was never closed) at the current instant.
    pub fn end(&mut self, span_id: u32) {
        self.end_at(span_id, Instant::now(), None);
    }

    /// Closes an open span and attaches a note.
    pub fn end_with_note(&mut self, span_id: u32, note: impl Into<Note>) {
        self.end_at(span_id, Instant::now(), Some(note.into()));
    }

    /// Closes open spans from the innermost outwards until `span_id`.
    /// The root is never closed here; a `span_id` that is not open
    /// closes every open span below the root.
    fn end_at(&mut self, span_id: u32, at: Instant, note: Option<Note>) {
        let end = self.offset_us(at);
        while self.innermost != 0 {
            let open = self.innermost;
            let span = &mut self.spans[open as usize];
            span.duration_us = end.saturating_sub(span.start_us);
            let parent = span.parent;
            if open == span_id {
                span.note = note;
                self.innermost = parent;
                return;
            }
            self.innermost = parent;
        }
    }

    /// Records an already-measured interval as a closed span nested
    /// under the innermost open span.
    pub fn record(&mut self, stage: Stage, start: Instant, end: Instant) -> u32 {
        self.record_span(stage, start, end, None)
    }

    /// [`ActiveTrace::record`] with a note attached.
    pub fn record_note(
        &mut self,
        stage: Stage,
        start: Instant,
        end: Instant,
        note: impl Into<Note>,
    ) -> u32 {
        self.record_span(stage, start, end, Some(note.into()))
    }

    fn record_span(
        &mut self,
        stage: Stage,
        start: Instant,
        end: Instant,
        note: Option<Note>,
    ) -> u32 {
        let start_us = self.offset_us(start);
        let end_us = self.offset_us(end);
        self.push(stage, start_us, end_us.saturating_sub(start_us), note)
    }

    /// Closes every still-open span, the root included, at `now`;
    /// returns the root's duration.
    fn close_all(&mut self, now: Instant) -> u64 {
        let end = self.offset_us(now);
        let mut open = self.innermost;
        loop {
            let span = &mut self.spans[open as usize];
            span.duration_us = end.saturating_sub(span.start_us);
            if open == 0 {
                break;
            }
            open = span.parent;
        }
        self.innermost = 0;
        end
    }

    /// The immutable trace, notes rendered to text. Only here is the
    /// wall clock read: the origin's stamp is now minus the time since.
    fn build_trace(&mut self, total_us: u64, slow_us: u64) -> Trace {
        let unix_now_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let unix_start_us = unix_now_us.saturating_sub(self.origin.elapsed().as_micros() as u64);
        let spans = self
            .spans
            .drain(..)
            .enumerate()
            .map(|(i, span)| TraceSpan {
                id: i as u32,
                parent: (i > 0).then_some(span.parent),
                stage: span.stage,
                start_us: span.start_us,
                duration_us: span.duration_us,
                note: span.note.map(|note| note.to_string()),
            })
            .collect();
        Trace {
            id: self.id,
            unix_start_us,
            total_us,
            slow: slow_us > 0 && total_us >= slow_us,
            sampled: self.sampled,
            forced: self.forced,
            spans,
        }
    }

    /// Seals the trace: closes every still-open span (including the
    /// root) at `now` and stamps the slow flag against `slow_us`.
    pub fn finish(mut self, now: Instant, slow_us: u64) -> Trace {
        let total_us = self.close_all(now);
        self.build_trace(total_us, slow_us)
    }

    /// Seals the trace as [`ActiveTrace::finish`] does, hands every
    /// span's stage and duration to `per_span`, and builds the
    /// [`Trace`] only when it is kept: head-sampled, forced, or slow
    /// against `slow_us`. A trace that is not kept costs no allocation
    /// and no formatting.
    pub fn seal(
        mut self,
        now: Instant,
        slow_us: u64,
        mut per_span: impl FnMut(Stage, u64),
    ) -> Option<Trace> {
        let total_us = self.close_all(now);
        for span in &self.spans {
            per_span(span.stage, span.duration_us);
        }
        let slow = slow_us > 0 && total_us >= slow_us;
        (self.sampled || self.forced || slow).then(|| self.build_trace(total_us, slow_us))
    }
}

/// Bounded ring of completed traces. Push uses `try_lock` and drops on
/// contention — the same drop-not-block discipline as the shadow queue:
/// observability must never stall the request path.
#[derive(Debug)]
pub struct TraceRing {
    ring: Mutex<VecDeque<Arc<Trace>>>,
    capacity: usize,
    kept: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            kept: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a trace, evicting the oldest at capacity. Returns false
    /// (and counts a drop) when the ring lock is contended or poisoned.
    pub fn push(&self, trace: Arc<Trace>) -> bool {
        match self.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() >= self.capacity {
                    ring.pop_front();
                }
                ring.push_back(trace);
                self.kept.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Newest-first snapshot of up to `limit` traces.
    pub fn recent(&self, limit: usize) -> Vec<Arc<Trace>> {
        match self.ring.lock() {
            Ok(ring) => ring.iter().rev().take(limit).cloned().collect(),
            Err(_) => Vec::new(),
        }
    }

    pub fn find(&self, id: TraceId) -> Option<Arc<Trace>> {
        match self.ring.lock() {
            Ok(ring) => ring.iter().rev().find(|t| t.id == id).cloned(),
            Err(_) => None,
        }
    }

    /// Traces accepted into the ring since start.
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Traces dropped at the door (lock contention) since start.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Head-based 1-in-N sampler with a slow-request override threshold.
/// `every == 0` disables tracing entirely.
#[derive(Debug)]
pub struct Sampler {
    every: u32,
    slow_us: u64,
    counter: AtomicU64,
}

impl Sampler {
    pub fn new(every: u32, slow_us: u64) -> Sampler {
        Sampler {
            every,
            slow_us,
            counter: AtomicU64::new(0),
        }
    }

    /// False when tracing is off (`every == 0`).
    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// The head decision: true for one request in `every`. The first
    /// request is always sampled so a cold process has a trace to show.
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(u64::from(self.every))
    }

    pub fn every(&self) -> u32 {
        self.every
    }

    pub fn slow_us(&self) -> u64 {
        self.slow_us
    }

    /// The keep override: a request at or past the slow threshold is
    /// kept even when head sampling passed on it.
    pub fn is_slow(&self, total_us: u64) -> bool {
        self.slow_us > 0 && total_us >= self.slow_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_ids_are_nonzero_unique_and_roundtrip_hex() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = TraceId::generate();
            assert_ne!(id.as_u64(), 0);
            assert!(seen.insert(id.as_u64()), "duplicate trace id");
            let hex = id.to_hex();
            assert_eq!(hex.len(), 16);
            assert_eq!(TraceId::parse(&hex), Some(id));
        }
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("0"), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("00112233445566778"), None); // 17 digits
        assert_eq!(TraceId::parse("ABC").map(|i| i.as_u64()), Some(0xabc));
    }

    #[test]
    fn stage_names_roundtrip_and_index_matches_all() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::parse(stage.as_str()), Some(*stage));
        }
        assert_eq!(Stage::parse("bogus"), None);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let origin = Instant::now();
        let mut at = ActiveTrace::start(TraceId::generate(), origin, true, false);
        let handler = at.begin(Stage::Handler);
        let score = at.begin(Stage::Score);
        at.end(score);
        at.record(Stage::Serialize, Instant::now(), Instant::now());
        at.end_with_note(handler, "status=200".to_string());
        let trace = at.finish(Instant::now(), 0);

        let root = trace.span_of(Stage::Request).unwrap();
        assert_eq!(root.id, 0);
        assert_eq!(root.parent, None);
        let h = trace.span_of(Stage::Handler).unwrap();
        assert_eq!(h.parent, Some(0));
        assert_eq!(h.note.as_deref(), Some("status=200"));
        let s = trace.span_of(Stage::Score).unwrap();
        assert_eq!(s.parent, Some(h.id));
        let ser = trace.span_of(Stage::Serialize).unwrap();
        assert_eq!(ser.parent, Some(h.id));
        assert!(trace.nesting_consistent());
    }

    #[test]
    fn hex_digits_are_the_zero_padded_lowercase_wire_form() {
        for raw in [1u64, 0xc0ffee, 0x0123_4567_89ab_cdef, u64::MAX] {
            let id = TraceId::from_raw(raw).unwrap();
            let expected = format!("{raw:016x}");
            assert_eq!(id.hex_digits().as_slice(), expected.as_bytes());
            assert_eq!(id.to_hex(), expected);
            assert_eq!(id.to_string(), expected);
        }
    }

    #[test]
    fn notes_render_their_raw_values() {
        let addr: SocketAddr = "127.0.0.1:4100".parse().unwrap();
        for (note, text) in [
            (
                Note::Load {
                    queued: 0,
                    in_flight: 1,
                    watermark: 256,
                },
                "queued=0 in_flight=1 watermark=256",
            ),
            (Note::Cache(CacheStatus::CacheHit), "cache=CacheHit"),
            (Note::Cache(CacheStatus::Miss), "cache=Miss"),
            (Note::Status(200), "status=200"),
            (
                Note::Route {
                    owner: addr,
                    attempt: 0,
                },
                "owner=127.0.0.1:4100 attempt=0",
            ),
            (
                Note::Forward {
                    replica: addr,
                    status: 503,
                    attempt: 2,
                },
                "replica=127.0.0.1:4100 status=503 attempt=2",
            ),
            (Note::Text("contracts=3".to_string()), "contracts=3"),
        ] {
            assert_eq!(note.to_string(), text);
        }
    }

    #[test]
    fn spans_past_the_buffer_capacity_keep_their_order_and_parents() {
        let mut at = ActiveTrace::start(TraceId::generate(), Instant::now(), true, false);
        let handler = at.begin(Stage::Handler);
        for attempt in 0..3 * SPAN_CAPACITY {
            let now = Instant::now();
            at.record_note(Stage::Forward, now, now, format!("attempt={attempt}"));
        }
        let inner = at.begin(Stage::Score);
        at.end(inner);
        at.end_with_note(handler, Note::Status(503));
        let trace = at.finish(Instant::now(), 0);
        assert_eq!(trace.spans.len(), 3 * SPAN_CAPACITY + 3);
        for (i, span) in trace.spans.iter().enumerate() {
            assert_eq!(span.id as usize, i);
        }
        let forwards: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Forward)
            .collect();
        assert_eq!(forwards.len(), 3 * SPAN_CAPACITY);
        for (attempt, span) in forwards.iter().enumerate() {
            assert_eq!(span.parent, Some(handler));
            assert_eq!(
                span.note.as_deref(),
                Some(format!("attempt={attempt}").as_str())
            );
        }
        let score = trace.span_of(Stage::Score).unwrap();
        assert_eq!(score.id, inner);
        assert_eq!(score.parent, Some(handler));
        assert_eq!(
            trace.span_of(Stage::Handler).unwrap().note.as_deref(),
            Some("status=503")
        );
        assert!(trace.nesting_consistent());
    }

    #[test]
    fn a_dropped_trace_hands_its_buffer_to_the_next_on_its_thread() {
        let first = ActiveTrace::start(TraceId::generate(), Instant::now(), false, false);
        let buffer = first.spans.as_ptr();
        assert!(first.spans.capacity() >= SPAN_CAPACITY);
        assert!(first.seal(Instant::now(), 0, |_, _| {}).is_none());
        let second = ActiveTrace::start(TraceId::generate(), Instant::now(), false, false);
        assert_eq!(second.spans.as_ptr(), buffer, "the buffer is reused");
        assert_eq!(second.spans.len(), 1, "holding only the new root");
        let kept = second.finish(Instant::now(), 0);
        assert_eq!(kept.spans.len(), 1);
        let third = ActiveTrace::start(TraceId::generate(), Instant::now(), true, false);
        assert_eq!(third.spans.as_ptr(), buffer, "a kept trace returns it too");
    }

    #[test]
    fn ending_a_span_that_is_not_open_closes_all_but_the_root() {
        let mut at = ActiveTrace::start(TraceId::generate(), Instant::now(), true, false);
        let outer = at.begin(Stage::Handler);
        let inner = at.begin(Stage::Score);
        at.end(inner);
        std::thread::sleep(Duration::from_millis(2));
        at.end(inner); // already closed: closes the handler instead
        let after = at.begin(Stage::Serialize);
        std::thread::sleep(Duration::from_millis(2));
        let trace = at.finish(Instant::now(), 0);
        let handler = &trace.spans[outer as usize];
        assert!(handler.duration_us >= 2_000, "closed by the second end");
        let serialize = &trace.spans[after as usize];
        assert_eq!(serialize.parent, Some(0));
        assert!(
            serialize.start_us >= handler.start_us + handler.duration_us,
            "the handler closed before the serialize span opened"
        );
    }

    #[test]
    fn seal_reports_every_span_but_builds_only_kept_traces() {
        let origin = Instant::now() - Duration::from_millis(2);
        let traced = |sampled, forced| {
            let mut at = ActiveTrace::start(TraceId::generate(), origin, sampled, forced);
            let handler = at.begin(Stage::Handler);
            at.end_with_note(handler, Note::Status(200));
            at
        };
        for (sampled, forced, slow_us, kept) in [
            (false, false, 0, false),
            (false, false, 60_000_000, false),
            (false, false, 1_000, true),
            (true, false, 0, true),
            (false, true, 0, true),
        ] {
            let mut seen = Vec::new();
            let sealed = traced(sampled, forced)
                .seal(Instant::now(), slow_us, |stage, us| seen.push((stage, us)));
            let stages: Vec<Stage> = seen.iter().map(|&(stage, _)| stage).collect();
            assert_eq!(stages, [Stage::Request, Stage::Handler]);
            assert!(seen[0].1 >= 2_000, "the root spans the whole request");
            assert_eq!(sealed.is_some(), kept, "sampled={sampled} forced={forced}");
            if let Some(trace) = sealed {
                assert_eq!(trace.total_us, seen[0].1);
                assert_eq!(trace.slow, slow_us == 1_000);
                let h = trace.span_of(Stage::Handler).unwrap();
                assert_eq!(h.note.as_deref(), Some("status=200"));
                assert!(trace.unix_start_us > 0);
            }
        }
    }

    #[test]
    fn finish_closes_open_spans_and_flags_slow() {
        let origin = Instant::now() - Duration::from_millis(10);
        let mut at = ActiveTrace::start(TraceId::generate(), origin, false, false);
        let handler = at.begin(Stage::Handler);
        // Recording allocates nothing, so without a pause the handler
        // can open and close inside one microsecond.
        std::thread::sleep(Duration::from_millis(1));
        let trace = at.finish(Instant::now(), 1_000);
        assert!(trace.slow, "10ms trace must trip a 1ms threshold");
        assert!(trace.total_us >= 10_000);
        let h = trace.spans.iter().find(|s| s.id == handler).unwrap();
        assert!(h.duration_us > 0, "finish must close the open handler span");
        assert_eq!(trace.spans[0].duration_us, trace.total_us);
    }

    #[test]
    fn ring_bounds_capacity_and_finds_by_id() {
        let ring = TraceRing::new(4);
        let origin = Instant::now();
        let mut ids = Vec::new();
        for _ in 0..6 {
            let at = ActiveTrace::start(TraceId::generate(), origin, true, false);
            let trace = Arc::new(at.finish(Instant::now(), 0));
            ids.push(trace.id);
            assert!(ring.push(trace));
        }
        assert_eq!(ring.recent(16).len(), 4, "ring must evict past capacity");
        assert_eq!(ring.kept(), 6);
        assert!(ring.find(ids[0]).is_none(), "oldest must be evicted");
        assert!(ring.find(ids[5]).is_some());
        // Newest first.
        assert_eq!(ring.recent(1)[0].id, ids[5]);
    }

    #[test]
    fn ring_drops_instead_of_blocking_under_contention() {
        let ring = TraceRing::new(4);
        let guard = ring.ring.lock().unwrap();
        let at = ActiveTrace::start(TraceId::generate(), Instant::now(), true, false);
        let trace = Arc::new(at.finish(Instant::now(), 0));
        assert!(!ring.push(trace), "contended push must drop, not block");
        assert_eq!(ring.dropped(), 1);
        drop(guard);
    }

    #[test]
    fn sampler_elects_one_in_n_and_zero_disables() {
        let sampler = Sampler::new(4, 1_000);
        let hits = (0..16).filter(|_| sampler.sample()).count();
        assert_eq!(hits, 4);
        assert!(sampler.is_slow(1_000));
        assert!(!sampler.is_slow(999));

        let off = Sampler::new(0, 1_000);
        assert!(!off.enabled());
        assert!(!(0..16).any(|_| off.sample()));
    }
}
