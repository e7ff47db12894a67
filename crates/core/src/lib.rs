//! # ScamDetect
//!
//! A robust, modular, **platform-agnostic** smart-contract malware
//! detection framework — a from-scratch reproduction of *"ScamDetect:
//! Towards a Robust, Agnostic Framework to Uncover Threats in Smart
//! Contracts"* (De Rosa, Felber, Schiavoni; DSN-S 2025).
//!
//! The pipeline:
//!
//! ```text
//!  raw bytes ──platform frontend──▶ UnifiedCfg ──features──▶ Detector ──▶ Verdict
//!   (EVM | WASM)                   (agnostic IR)           (classic | GNN)
//! ```
//!
//! * **Frontends** ([`scamdetect_ir`]) lift EVM bytecode (disassembly +
//!   static jump resolution) and WASM modules (structured control flow)
//!   into one unified CFG whose blocks speak a cross-platform instruction
//!   taxonomy.
//! * **Detectors** are either classic classifiers
//!   ([`ClassicModel`], PhishingHook-style, over opcode histograms or
//!   unified features) or graph neural networks ([`GnnKind`]: GCN, GAT,
//!   GIN, TAG, GraphSAGE) over the CFG itself.
//! * **Corpora** come from [`scamdetect_dataset`]: 14 contract families,
//!   both platforms, fully seeded; [`scamdetect_obfuscate`] provides the
//!   leveled obfuscation threat model the evaluation sweeps over.
//!
//! ## Quickstart: train once, serve anywhere
//!
//! The detector lifecycle is split in two. **Training** happens once, in
//! one process, and ends with [`Scanner::save`] writing a versioned
//! binary [`ModelArtifact`]. **Serving** happens
//! anywhere, any number of times: [`ScannerBuilder::load`] reconstructs a
//! scanner from the artifact with no corpus in scope and no retraining —
//! a CLI invocation, a fleet of replicas and a browser embed can all
//! score with the same trained weights, and their verdicts are
//! bit-for-bit identical to the trainer's.
//!
//! ```
//! use scamdetect::{ClassicModel, FeatureKind, ModelKind, ScanRequest, ScannerBuilder};
//! use scamdetect_dataset::{Corpus, CorpusConfig};
//!
//! # fn main() -> Result<(), scamdetect::ScamDetectError> {
//! # let dir = std::env::temp_dir().join("scamdetect-doc-quickstart");
//! # std::fs::create_dir_all(&dir).unwrap();
//! # let model_path = dir.join("model.scam");
//! // ── Training process: corpus → scanner → artifact ───────────────
//! let corpus = Corpus::generate(&CorpusConfig { size: 60, seed: 7, ..CorpusConfig::default() });
//! let trained = ScannerBuilder::new()
//!     .model(ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::Unified))
//!     .threshold(0.5)
//!     .train(&corpus)?;
//! trained.save(&model_path)?;
//!
//! // ── Serving process: artifact → scanner (no corpus, no training) ─
//! let scanner = ScannerBuilder::new()
//!     .cache_capacity(1024)
//!     .workers(4)
//!     .load(&model_path)?;
//!
//! // Scan a batch (platforms auto-detected; ERC-1167 clones and
//! // resubmitted bytecode hit the dedup cache).
//! let requests: Vec<ScanRequest> =
//!     corpus.contracts().iter().take(8).map(|c| ScanRequest::new(&c.bytes)).collect();
//! for outcome in scanner.scan_batch(&requests) {
//!     let report = outcome?;
//!     println!("{} (cache: {:?})", report.verdict, report.cache);
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! Artifacts are self-describing (magic, format version, per-section
//! checksums) and fail loudly: a truncated download, a flipped bit or a
//! future format version surfaces as a typed
//! [`ScamDetectError::Artifact`] diagnosis, never a panic or a silently
//! perturbed verdict. See the [`artifact`] module for the wire format.
//!
//! ## Serving over HTTP
//!
//! The `scamdetect-serve` crate wraps this scanner in a long-running,
//! std-only HTTP daemon with a hot-swap model registry:
//!
//! ```text
//! scamdetect-cli train --save models/rf-v1.scam        # train once
//! scamdetect-cli serve --models-dir models             # serve forever
//! curl -X POST localhost:7878/scan -d '{"bytecode": "0x6001…"}'
//! curl -X POST localhost:7878/models/reload            # hot swap, zero downtime
//! ```
//!
//! A model swap replaces the serving scanner atomically (in-flight
//! scans finish on the snapshot they started with) and drops its
//! verdict cache with it, while the model-independent [`PrepCache`]
//! carries prepared inputs across the swap — see
//! [`ScannerBuilder::shared_prep_cache`].
//!
//! The legacy one-shot `ScamDetect` facade has been removed after its
//! deprecation cycle: [`ScannerBuilder`] is the single entry point
//! (`ScamDetect::train(kind, corpus, opts)` →
//! `ScannerBuilder::new().model(kind).train_options(opts).train(corpus)`,
//! then [`Scanner::scan`]). The [`experiment`] module regenerates
//! every table and figure of the evaluation.

pub mod artifact;
pub mod detector;
pub mod error;
pub mod experiment;
pub mod featurize;
pub mod lifecycle;
pub mod lru;
pub mod scan;
pub mod trace;
pub mod verdict;

pub use artifact::{ArtifactError, ModelArtifact};
pub use detector::{ClassicModel, Detector, ModelKind, PreparedInput, ReprKind, TrainOptions};
pub use error::ScamDetectError;
pub use featurize::{detect_platform, FeatureKind, Lifted};
pub use lifecycle::{fold_feedback, FeedbackError, FeedbackLog, FeedbackRecord};
pub use scan::{
    request_fingerprint, CacheStatus, CfgStats, PrepCache, ScanOutcome, ScanReport, ScanRequest,
    Scanner, ScannerBuilder,
};
pub use trace::{ActiveTrace, Note, Sampler, Stage, Trace, TraceId, TraceRing, TraceSpan};
pub use verdict::Verdict;

// Re-export the architecture enum so users pick GNNs without an extra
// dependency edge.
pub use scamdetect_gnn::GnnKind;
