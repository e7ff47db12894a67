//! Contract featurization: corpus → model inputs.

use crate::error::ScamDetectError;
use scamdetect_dataset::{Contract, Corpus};
use scamdetect_evm::disasm;
use scamdetect_gnn::PreparedGraph;
use scamdetect_ir::{features, EvmFrontend, Frontend, Platform, UnifiedCfg, WasmFrontend};
use scamdetect_ml::FeatureSet;

/// Which feature representation a classic detector consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Raw 256-bin opcode-byte histogram — PhishingHook's representation.
    /// Platform-specific (EVM opcodes / WASM instruction bytes).
    OpcodeHistogram,
    /// Platform-agnostic unified-IR features (class histogram + structure).
    Unified,
    /// Concatenation of both.
    Combined,
}

impl FeatureKind {
    /// All three representations.
    pub fn all() -> [FeatureKind; 3] {
        [
            FeatureKind::OpcodeHistogram,
            FeatureKind::Unified,
            FeatureKind::Combined,
        ]
    }

    /// Lowercase name for tables.
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::OpcodeHistogram => "opcode_histogram",
            FeatureKind::Unified => "unified",
            FeatureKind::Combined => "combined",
        }
    }

    /// Stable wire tag used by the model-artifact format. Never renumber.
    pub fn code(self) -> u8 {
        match self {
            FeatureKind::OpcodeHistogram => 0,
            FeatureKind::Unified => 1,
            FeatureKind::Combined => 2,
        }
    }

    /// Inverse of [`FeatureKind::code`].
    pub fn from_code(code: u8) -> Option<FeatureKind> {
        FeatureKind::all().into_iter().find(|k| k.code() == code)
    }
}

/// Lifts a contract to the unified IR using the right frontend.
pub fn lift(contract: &Contract) -> Result<UnifiedCfg, ScamDetectError> {
    lift_bytes(contract.platform, &contract.bytes)
}

/// Lifts raw bytes on a known platform.
///
/// The EVM frontend runs with the [`VirtualNode`] unknown-jump policy:
/// jumps whose targets resist static resolution (the jump-indirection
/// obfuscation) are routed through one synthetic node instead of being
/// dropped, so the CFG stays connected and structural detectors keep
/// their signal. The synthetic edges are down-weighted during graph
/// preparation.
///
/// [`VirtualNode`]: scamdetect_evm::cfg::UnknownJumpPolicy::VirtualNode
pub fn lift_bytes(platform: Platform, bytes: &[u8]) -> Result<UnifiedCfg, ScamDetectError> {
    let cfg = match platform {
        Platform::Evm => {
            let frontend = EvmFrontend {
                options: scamdetect_evm::cfg::CfgOptions {
                    unknown_jump_policy: scamdetect_evm::cfg::UnknownJumpPolicy::VirtualNode,
                    ..Default::default()
                },
            };
            frontend.lift(bytes)?
        }
        Platform::Wasm => WasmFrontend::new().lift(bytes)?,
    };
    Ok(cfg)
}

/// Guesses the platform from the bytes (`\0asm` magic ⇒ WASM).
pub fn detect_platform(bytes: &[u8]) -> Platform {
    if bytes.starts_with(b"\0asm") {
        Platform::Wasm
    } else {
        Platform::Evm
    }
}

/// The raw byte-level opcode histogram (256 bins, normalized).
pub fn opcode_histogram(contract: &Contract) -> Vec<f64> {
    opcode_histogram_bytes(contract.platform, &contract.bytes)
}

/// Byte-level opcode histogram from raw bytes on a known platform.
pub fn opcode_histogram_bytes(platform: Platform, bytes: &[u8]) -> Vec<f64> {
    match platform {
        Platform::Evm => disasm::opcode_histogram(bytes),
        Platform::Wasm => {
            // Instruction-byte histogram over the code payload: a direct
            // analog of the EVM representation.
            let mut h = vec![0.0f64; 256];
            for &b in bytes {
                h[b as usize] += 1.0;
            }
            let total: f64 = h.iter().sum();
            if total > 0.0 {
                for v in &mut h {
                    *v /= total;
                }
            }
            h
        }
    }
}

/// A contract lifted exactly once: the unified CFG plus the cheap
/// byte-level representation, everything any detector needs to score.
///
/// Historically each scan lifted the bytecode twice — once for verdict
/// statistics, once inside [`crate::Detector::score_bytes`]. `Lifted`
/// is the single-lift artifact threaded through the pipeline instead:
/// build it once with [`Lifted::from_bytes`], then hand it to
/// [`crate::Detector::score_lifted`] and read CFG statistics off the
/// same object.
#[derive(Debug, Clone)]
pub struct Lifted {
    /// Platform the bytes were lifted as.
    pub platform: Platform,
    /// The unified CFG (computed exactly once per scan).
    pub cfg: UnifiedCfg,
    /// Raw byte-level opcode histogram (256 bins, normalized).
    pub opcode_histogram: Vec<f64>,
    /// Length of the raw bytecode.
    pub byte_len: usize,
}

impl Lifted {
    /// Lifts raw bytes on a known platform.
    ///
    /// # Errors
    ///
    /// Frontend errors when the bytes are not a valid contract.
    pub fn from_bytes(platform: Platform, bytes: &[u8]) -> Result<Lifted, ScamDetectError> {
        Ok(Lifted {
            platform,
            cfg: lift_bytes(platform, bytes)?,
            opcode_histogram: opcode_histogram_bytes(platform, bytes),
            byte_len: bytes.len(),
        })
    }

    /// Lifts raw bytes, auto-detecting the platform.
    ///
    /// # Errors
    ///
    /// Frontend errors when the bytes are not a valid contract.
    pub fn auto(bytes: &[u8]) -> Result<Lifted, ScamDetectError> {
        Lifted::from_bytes(detect_platform(bytes), bytes)
    }

    /// The feature vector under `kind` — identical values to
    /// [`featurize_bytes`] on the original bytes, with no re-lift.
    pub fn feature_vector(&self, kind: FeatureKind) -> Vec<f64> {
        match kind {
            FeatureKind::OpcodeHistogram => self.opcode_histogram.clone(),
            FeatureKind::Unified => features::graph_feature_vector(&self.cfg),
            FeatureKind::Combined => {
                let mut v = self.opcode_histogram.clone();
                v.extend(features::graph_feature_vector(&self.cfg));
                v
            }
        }
    }
}

/// Feature vector of one contract under `kind`.
pub fn featurize(contract: &Contract, kind: FeatureKind) -> Result<Vec<f64>, ScamDetectError> {
    featurize_bytes(contract.platform, &contract.bytes, kind)
}

/// Feature vector of raw bytes on a known platform under `kind`.
pub fn featurize_bytes(
    platform: Platform,
    bytes: &[u8],
    kind: FeatureKind,
) -> Result<Vec<f64>, ScamDetectError> {
    Ok(match kind {
        FeatureKind::OpcodeHistogram => opcode_histogram_bytes(platform, bytes),
        FeatureKind::Unified => features::graph_feature_vector(&lift_bytes(platform, bytes)?),
        FeatureKind::Combined => {
            let mut v = opcode_histogram_bytes(platform, bytes);
            v.extend(features::graph_feature_vector(&lift_bytes(
                platform, bytes,
            )?));
            v
        }
    })
}

/// Featurizes an index subset of a corpus into a [`FeatureSet`].
pub fn featurize_corpus(
    corpus: &Corpus,
    indices: &[usize],
    kind: FeatureKind,
) -> Result<FeatureSet, ScamDetectError> {
    let mut x = Vec::with_capacity(indices.len());
    let mut y = Vec::with_capacity(indices.len());
    for &i in indices {
        let c = &corpus.contracts()[i];
        x.push(featurize(c, kind)?);
        y.push(c.label.class_index());
    }
    Ok(FeatureSet::new(x, y))
}

/// Prepares an index subset of a corpus as GNN graphs.
///
/// Graphs are built straight from the CFG edge list into CSR aggregators
/// (`O(n + e)` per contract); no dense `n x n` adjacency is materialised
/// anywhere on the scan or training path.
pub fn prepare_graphs(
    corpus: &Corpus,
    indices: &[usize],
) -> Result<Vec<PreparedGraph>, ScamDetectError> {
    indices
        .iter()
        .map(|&i| {
            let c = &corpus.contracts()[i];
            Ok(PreparedGraph::from_cfg(&lift(c)?, c.label.class_index()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scamdetect_dataset::CorpusConfig;

    fn tiny(platform: Platform) -> Corpus {
        Corpus::generate(&CorpusConfig {
            size: 12,
            platform,
            seed: 5,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn platform_detection() {
        assert_eq!(detect_platform(b"\0asm\x01\0\0\0"), Platform::Wasm);
        assert_eq!(detect_platform(&[0x60, 0x00]), Platform::Evm);
    }

    #[test]
    fn all_feature_kinds_produce_consistent_dims() {
        for platform in [Platform::Evm, Platform::Wasm] {
            let corpus = tiny(platform);
            let idx: Vec<usize> = (0..corpus.len()).collect();
            for kind in [
                FeatureKind::OpcodeHistogram,
                FeatureKind::Unified,
                FeatureKind::Combined,
            ] {
                let fs = featurize_corpus(&corpus, &idx, kind).unwrap();
                assert_eq!(fs.len(), corpus.len());
                assert!(fs.dim() > 0, "{platform} {kind:?}");
                let expected = match kind {
                    FeatureKind::OpcodeHistogram => 256,
                    FeatureKind::Unified => features::GRAPH_FEATURE_DIM,
                    FeatureKind::Combined => 256 + features::GRAPH_FEATURE_DIM,
                };
                assert_eq!(fs.dim(), expected);
            }
        }
    }

    #[test]
    fn unified_features_share_dim_across_platforms() {
        let evm = tiny(Platform::Evm);
        let wasm = tiny(Platform::Wasm);
        let fe = featurize_corpus(&evm, &[0], FeatureKind::Unified).unwrap();
        let fw = featurize_corpus(&wasm, &[0], FeatureKind::Unified).unwrap();
        assert_eq!(fe.dim(), fw.dim());
    }

    #[test]
    fn lifted_feature_vectors_match_featurize_bytes() {
        for platform in [Platform::Evm, Platform::Wasm] {
            let corpus = tiny(platform);
            for c in corpus.contracts() {
                let lifted = Lifted::from_bytes(c.platform, &c.bytes).unwrap();
                assert_eq!(lifted.platform, c.platform);
                assert_eq!(lifted.byte_len, c.bytes.len());
                for kind in [
                    FeatureKind::OpcodeHistogram,
                    FeatureKind::Unified,
                    FeatureKind::Combined,
                ] {
                    assert_eq!(
                        lifted.feature_vector(kind),
                        featurize_bytes(c.platform, &c.bytes, kind).unwrap(),
                        "{platform} {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lifted_auto_detects_platform() {
        let evm = tiny(Platform::Evm);
        let lifted = Lifted::auto(&evm.contracts()[0].bytes).unwrap();
        assert_eq!(lifted.platform, Platform::Evm);
        let wasm = tiny(Platform::Wasm);
        let lifted = Lifted::auto(&wasm.contracts()[0].bytes).unwrap();
        assert_eq!(lifted.platform, Platform::Wasm);
    }

    #[test]
    fn graphs_prepare_with_labels() {
        let corpus = tiny(Platform::Evm);
        let idx: Vec<usize> = (0..corpus.len()).collect();
        let graphs = prepare_graphs(&corpus, &idx).unwrap();
        assert_eq!(graphs.len(), corpus.len());
        for (g, c) in graphs.iter().zip(corpus.contracts()) {
            assert_eq!(g.label, c.label.class_index());
            assert!(g.node_count() > 1);
        }
    }
}
