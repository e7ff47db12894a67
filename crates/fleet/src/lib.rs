//! # scamdetect-fleet
//!
//! The fleet layer over [`scamdetect-serve`]: one front-door router
//! that shards scan traffic across N replicas by **skeleton hash**, a
//! health monitor that rebalances the ring on replica loss, and a
//! staged **canary rollout** that distributes new model artifacts
//! fleet-wide without a restart. Std-only, like everything below it.
//!
//! ## Topology
//!
//! ```text
//!                         clients (POST /scan, /batch)
//!                                    │
//!                                    ▼
//!                     ┌──────────────────────────────┐
//!                     │        fleet router          │
//!                     │  key = request_fingerprint   │
//!                     │  ring: vnodes×64 equal       │
//!                     │  slices, rendezvous-placed   │──── GET /fleet,
//!                     │  ┌────────────────────────┐  │     /healthz,
//!                     │  │ health monitor         │  │     /metrics
//!                     │  │ GET /healthz each tick │  │
//!                     │  │ backoff when down      │  │
//!                     │  └────────────────────────┘  │
//!                     └──────┬────────┬────────┬─────┘
//!                 slice  ┌───┘        │        └───┐
//!                 owner  ▼            ▼            ▼
//!                ┌───────────┐ ┌───────────┐ ┌───────────┐
//!                │ serve #1  │ │ serve #2  │ │ serve #N  │
//!                │ caches hot│ │           │ │           │
//!                │ for slice1│ │   …       │ │   …       │
//!                └───────────┘ └───────────┘ └───────────┘
//! ```
//!
//! Routing keys on [`scamdetect::request_fingerprint`] — the exact
//! equivalence the replicas' verdict/prep caches use — so each
//! replica's [`ShardedLru`]/[`PrepCache`] stays hot for its slice of
//! skeleton space. Replica loss re-routes **only the lost slice**
//! (rendezvous placement; see [`ring`]), and a fleet with zero up
//! replicas answers `503` + `Retry-After` instead of hanging clients.
//!
//! ## Quickstart
//!
//! ```text
//! # replicas (each its own models dir, same artifacts)
//! scamdetect-cli serve --models-dir models-a --addr 127.0.0.1:7001 &
//! scamdetect-cli serve --models-dir models-b --addr 127.0.0.1:7002 &
//!
//! # the router in front
//! scamdetect-cli fleet serve --addr 127.0.0.1:7000 \
//!     --replicas 127.0.0.1:7001,127.0.0.1:7002
//!
//! # clients talk to the router exactly like to a single replica
//! curl -s -X POST http://127.0.0.1:7000/scan -d '{"bytecode": "0x6001600155"}'
//!
//! # topology & shard shares
//! scamdetect-cli fleet status --router 127.0.0.1:7000
//!
//! # staged rollout of a new artifact to the whole fleet
//! scamdetect-cli train --save rf-v2.scam --model rf --seed 43
//! scamdetect-cli fleet rollout --replicas 127.0.0.1:7001,127.0.0.1:7002 \
//!     --artifact rf-v2.scam --model-id rf-v2
//! ```
//!
//! ## Rollout state machine
//!
//! ```text
//! PUSH ──▶ VERIFY ──▶ [SHADOW] ──▶ CANARY ──▶ COMPARE ──▶ PROMOTE
//!  │          │           │           │           │           │ failure here is
//!  │          │           │           │           │           │ reported, not
//!  ▼          ▼           ▼           ▼           ▼           ▼ auto-rolled-back
//! abort     abort       abort       abort       abort      (canary already proved
//!  └──────────┴───────────┴───────────┴───────────┘         the model serves)
//!              = pin canary back + DELETE candidate everywhere
//! ```
//!
//! * **Push**: `PUT /models/<id>` to every replica, body = raw
//!   artifact bytes, `x-artifact-fnv1a` checksum handshake (409 on
//!   mismatch, atomic install, no swap).
//! * **Verify**: every replica echoed the same FNV-1a we computed
//!   locally.
//! * **Shadow** (opt-in via [`rollout::RolloutPlan::shadow`], `fleet
//!   rollout --shadow` on the CLI): the candidate loads *beside* the
//!   canary's champion and scores every mirrored probe off the
//!   response path; the canary swap becomes the replica's own
//!   thresholded `POST /shadow/promote` — refused until the candidate
//!   has scored enough real traffic at high enough champion agreement.
//! * **Canary**: one replica hot-swaps via `POST /models/reload`
//!   `{"model": "<id>"}` (a pinned, one-shot reload) — or has already
//!   swapped through the shadow gate above.
//! * **Compare**: probe scans must score on the canary, its scan
//!   failure counter must hold still, `/metrics` must name the
//!   candidate.
//! * **Promote**: pinned reload on the rest; `/healthz` must agree on
//!   the new id fleet-wide.
//!
//! ## Operating under load
//!
//! The router treats replica failure as a spectrum, not a bit:
//!
//! * **Circuit breakers, not up/down flags.** Every replica carries a
//!   [`breaker::CircuitBreaker`] (closed → open → half-open). It trips
//!   on *consecutive* failures (default 2) **or** a windowed error
//!   rate (default ≥50% over the last 8 outcomes) — a replica that
//!   fails every other request never hits "consecutive" but still gets
//!   ejected. An open breaker removes the replica from the ring;
//!   half-open probes re-admit it only after consecutive successes,
//!   with exponential cooldown plus deterministic jitter between
//!   probation rounds so a flapping replica costs progressively less.
//! * **Deadline budgets.** Every `/scan` and `/batch` carries a budget
//!   (the `x-deadline-ms` request header, defaulting to
//!   [`proxy::RouterConfig::forward_timeout`]). Each forward attempt's
//!   socket timeout is the *remaining* budget, so re-routes after a
//!   trip can never stretch a client's wait past its own deadline —
//!   when the budget dies first the router answers an honest `503` +
//!   `Retry-After` and counts it in
//!   `scamdetect_fleet_deadline_exhausted_total`.
//! * **Reply validation.** A forwarded reply must parse as JSON (and a
//!   200 scan must carry a score) before it passes through; torn,
//!   truncated, or bit-corrupted bodies count as transport failures
//!   and re-route instead of reaching the client.
//! * **Flap accounting.** A replica that recovers and then trips again
//!   increments `scamdetect_fleet_flaps_total`; breaker states surface
//!   per-replica on `GET /fleet` and as
//!   `scamdetect_fleet_breaker_open` / `_half_open` gauges.
//!
//! The [`chaos`] module makes all of this testable: a std-only
//! in-process TCP [`chaos::FaultProxy`] injects resets, stalls,
//! ramping latency, truncated bodies, and single-bit corruption on a
//! seeded deterministic schedule. The `chaos_smoke` integration suite
//! (`cargo test -p scamdetect-fleet --test chaos_smoke`) drives a real
//! router + replicas through a mixed fault storm and asserts the
//! invariant CI enforces: every response is either the bit-exact
//! golden score or a well-formed 408/429/503 with `Retry-After` —
//! never a hang, a panic, or torn JSON.
//!
//! Module map: [`ring`] (slice ownership), [`health`] (membership +
//! probing), [`breaker`] (per-replica circuit breakers), [`proxy`]
//! (the router), [`rollout`] (the state machine), [`client`] (typed
//! replica management calls), [`chaos`] (fault injection). The
//! `fleet_smoke` integration test gates the router end to end: the
//! golden score bits reproduce bit-for-bit through it, a staged
//! rollout lands, and a lost replica rebalances. `perfbench` measures
//! the routed path (its `routed-hit` workload, and the `fleet.*`
//! layers of every traced pass).
//!
//! [`scamdetect-serve`]: scamdetect_serve
//! [`ShardedLru`]: scamdetect::scan::PrepCache
//! [`PrepCache`]: scamdetect::PrepCache

pub mod breaker;
pub mod chaos;
pub mod client;
pub mod health;
pub mod proxy;
pub mod ring;
pub mod rollout;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{FaultKind, FaultProxy, FaultSchedule};
pub use client::ShadowStatus;
pub use health::{FleetState, HealthMonitor, ReplicaStatus};
pub use proxy::{spawn_router, RouterConfig, RouterMetrics, RunningRouter};
pub use ring::HashRing;
pub use rollout::{
    run_rollout, RolloutError, RolloutPlan, RolloutReport, RolloutStage, ShadowPlan,
};
