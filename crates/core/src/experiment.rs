//! Experiment runners: one function per evaluation exhibit (E1–E8).
//!
//! The `experiments` binary drives these functions; integration tests run
//! them on the quick profile.

use crate::detector::{ClassicModel, Detector, ModelKind, TrainOptions};
use crate::error::ScamDetectError;
use crate::featurize::{self, FeatureKind};
use scamdetect_dataset::{Contract, ContractSource, Corpus, CorpusConfig};
use scamdetect_gnn::{BatchTrainConfig, GnnKind};
use scamdetect_ir::Platform;
use scamdetect_ml::{fit_evaluate, EvalRow};
use scamdetect_obfuscate::{apply_evm_pass, EvmPassKind, ObfuscationLevel};
use std::time::Instant;

/// Experiment sizing profile.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Contracts per generated corpus.
    pub corpus_size: usize,
    /// Held-out fraction.
    pub test_fraction: f64,
    /// GNN training hyperparameters.
    pub gnn: BatchTrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl Profile {
    /// Small profile for tests and smoke benches (runs in seconds).
    pub fn quick() -> Self {
        Profile {
            corpus_size: 80,
            test_fraction: 0.3,
            gnn: BatchTrainConfig {
                epochs: 12,
                batch_size: 16,
                lr: 1e-2,
                ..BatchTrainConfig::default()
            },
            seed: 0xE0,
        }
    }

    /// Full profile for the experiments binary (minutes, release mode).
    pub fn full() -> Self {
        Profile {
            corpus_size: 600,
            test_fraction: 0.3,
            gnn: BatchTrainConfig {
                epochs: 60,
                batch_size: 16,
                lr: 1e-2,
                ..BatchTrainConfig::default()
            },
            seed: 0xE0,
        }
    }

    fn corpus(&self, platform: Platform) -> Corpus {
        Corpus::generate(&CorpusConfig {
            size: self.corpus_size,
            platform,
            seed: self.seed,
            ..CorpusConfig::default()
        })
    }

    fn train_options(&self) -> TrainOptions {
        TrainOptions {
            gnn: self.gnn.clone(),
            seed: self.seed ^ 0xAB,
        }
    }
}

fn eval_detector(
    det: &Detector,
    corpus: &Corpus,
    indices: &[usize],
    name: &str,
) -> Result<EvalRow, ScamDetectError> {
    let mut truth = Vec::with_capacity(indices.len());
    let mut preds = Vec::with_capacity(indices.len());
    let mut scores = Vec::with_capacity(indices.len());
    for &i in indices {
        let c = &corpus.contracts()[i];
        let s = det.score_contract(c)?;
        truth.push(c.label.class_index());
        preds.push(usize::from(s >= 0.5));
        scores.push(s);
    }
    Ok(EvalRow::evaluate(name.to_string(), &truth, &preds, &scores))
}

// ---------------------------------------------------------------------
// E1 — Table 1: the classic model zoo on the clean EVM corpus.
// ---------------------------------------------------------------------

/// Runs E1: every classic model on opcode-histogram features over a clean
/// EVM corpus. Reproduces the PhishingHook "~90% accuracy" benchmark
/// shape.
pub fn run_e1_baselines(profile: &Profile) -> Result<Vec<EvalRow>, ScamDetectError> {
    let corpus = profile.corpus(Platform::Evm);
    let (train_idx, test_idx) = corpus.split(profile.test_fraction, profile.seed);
    let train = featurize::featurize_corpus(&corpus, &train_idx, FeatureKind::OpcodeHistogram)?;
    let test = featurize::featurize_corpus(&corpus, &test_idx, FeatureKind::OpcodeHistogram)?;
    let mut rows = Vec::new();
    for kind in ClassicModel::all() {
        let mut model = kind.instantiate(profile.seed);
        rows.push(fit_evaluate(model.as_mut(), &train, &test));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E2 — Table 2: the five GNN architectures on the clean EVM corpus.
// ---------------------------------------------------------------------

/// Runs E2: GCN/GAT/GIN/TAG/GraphSAGE over CFGs of the clean EVM corpus.
pub fn run_e2_gnns(profile: &Profile) -> Result<Vec<EvalRow>, ScamDetectError> {
    let corpus = profile.corpus(Platform::Evm);
    let (train_idx, test_idx) = corpus.split(profile.test_fraction, profile.seed);
    let opts = profile.train_options();
    let mut rows = Vec::new();
    for kind in GnnKind::all() {
        let det = Detector::train(ModelKind::Gnn(kind), &corpus, &train_idx, &opts)?;
        rows.push(eval_detector(&det, &corpus, &test_idx, kind.name())?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// E3 — Figure 1: accuracy vs obfuscation level.
// ---------------------------------------------------------------------

/// One point of the robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// Obfuscation level 0–5.
    pub level: u8,
    /// Accuracy of the opcode-histogram baseline (random forest).
    pub baseline_accuracy: f64,
    /// Accuracy of the CFG GNN (GCN).
    pub gnn_accuracy: f64,
}

/// Builds the robust-training pool: each training contract plus its
/// obfuscated variants at levels 1, 3 and 4 — one light pass set, one
/// heavy structural set, and one including partial jump indirection, so
/// detectors see every *technique* during training. Level 5 (full
/// indirection + flattening, maximum intensity) stays unseen: the sweep
/// measures generalisation to stronger compositions than the detector was
/// trained against — the protocol Phase 1 implies ("detect obfuscated
/// phishing contracts").
fn augmented_training(corpus: &Corpus, train_idx: &[usize]) -> (Corpus, Vec<usize>) {
    let mut contracts = Vec::new();
    for &i in train_idx {
        let c = &corpus.contracts()[i];
        contracts.push(c.clone());
        for lvl in [1u8, 3, 4] {
            contracts.push(c.obfuscated(ObfuscationLevel::new(lvl)));
        }
    }
    let idx: Vec<usize> = (0..contracts.len()).collect();
    (Corpus::from_contracts(contracts), idx)
}

/// Runs E3: train both detectors with obfuscation-augmented data (levels
/// 1, 3 and 4, as `augmented_training` builds them), evaluate on test sets
/// obfuscated at levels 0–5 (only level 5 unseen at training time). The
/// paper's central hypothesis is that the structural model degrades more
/// slowly at the unseen level.
pub fn run_e3_robustness(profile: &Profile) -> Result<Vec<RobustnessPoint>, ScamDetectError> {
    let corpus = profile.corpus(Platform::Evm);
    let (train_idx, test_idx) = corpus.split(profile.test_fraction, profile.seed);
    let opts = profile.train_options();
    let (aug, aug_idx) = augmented_training(&corpus, &train_idx);

    let baseline = Detector::train(
        ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::OpcodeHistogram),
        &aug,
        &aug_idx,
        &opts,
    )?;
    let gnn = Detector::train(ModelKind::Gnn(GnnKind::Gcn), &aug, &aug_idx, &opts)?;

    let mut out = Vec::new();
    for level in ObfuscationLevel::all() {
        let obf = corpus.obfuscated(level);
        let b = eval_detector(&baseline, &obf, &test_idx, "baseline")?;
        let g = eval_detector(&gnn, &obf, &test_idx, "gnn")?;
        out.push(RobustnessPoint {
            level: level.get(),
            baseline_accuracy: b.accuracy,
            gnn_accuracy: g.accuracy,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// E4 — Figure 2: per-pass robustness breakdown.
// ---------------------------------------------------------------------

/// Accuracy under one isolated obfuscation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassImpact {
    /// Pass name.
    pub pass: &'static str,
    /// Baseline accuracy on the transformed test set.
    pub baseline_accuracy: f64,
    /// GNN accuracy on the transformed test set.
    pub gnn_accuracy: f64,
}

fn apply_single_pass(contract: &Contract, pass: EvmPassKind) -> Contract {
    match &contract.source {
        ContractSource::Evm(prog) => {
            let mut rng = rand::SeedableRng::seed_from_u64(contract.id ^ 0x9A55);
            let obf = apply_evm_pass(pass, prog, &mut rng, 1.0);
            let bytes = obf.assemble().expect("obfuscated program assembles");
            Contract {
                bytes,
                source: ContractSource::Evm(obf),
                ..contract.clone()
            }
        }
        _ => contract.clone(),
    }
}

/// Runs E4: each EVM pass applied alone at full intensity to the test
/// set, against the same augmented-trained detectors E3 uses.
pub fn run_e4_per_pass(profile: &Profile) -> Result<Vec<PassImpact>, ScamDetectError> {
    let corpus = profile.corpus(Platform::Evm);
    let (train_idx, test_idx) = corpus.split(profile.test_fraction, profile.seed);
    let opts = profile.train_options();
    let (aug, aug_idx) = augmented_training(&corpus, &train_idx);
    let baseline = Detector::train(
        ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::OpcodeHistogram),
        &aug,
        &aug_idx,
        &opts,
    )?;
    let gnn = Detector::train(ModelKind::Gnn(GnnKind::Gcn), &aug, &aug_idx, &opts)?;

    let mut out = Vec::new();
    for pass in EvmPassKind::all() {
        let transformed = Corpus::from_contracts(
            corpus
                .contracts()
                .iter()
                .map(|c| apply_single_pass(c, pass))
                .collect(),
        );
        let b = eval_detector(&baseline, &transformed, &test_idx, "baseline")?;
        let g = eval_detector(&gnn, &transformed, &test_idx, "gnn")?;
        out.push(PassImpact {
            pass: pass.name(),
            baseline_accuracy: b.accuracy,
            gnn_accuracy: g.accuracy,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// E5 — Table 3: platform transfer.
// ---------------------------------------------------------------------

/// One train-platform/test-platform accuracy cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferCell {
    /// Training corpus platform ("evm", "wasm", "mixed").
    pub train: &'static str,
    /// Test corpus platform.
    pub test: &'static str,
    /// Unified-feature classic model accuracy.
    pub classic_accuracy: f64,
    /// GNN accuracy.
    pub gnn_accuracy: f64,
}

/// Runs E5: train on {EVM, WASM, mixed}, evaluate on {EVM, WASM}, using
/// only platform-agnostic representations. Measures how much detection
/// transfers across runtimes — Phase 2's headline question.
pub fn run_e5_agnostic(profile: &Profile) -> Result<Vec<TransferCell>, ScamDetectError> {
    let evm = profile.corpus(Platform::Evm);
    let wasm = Corpus::generate(&CorpusConfig {
        size: profile.corpus_size,
        platform: Platform::Wasm,
        seed: profile.seed ^ 0x77A5,
        ..CorpusConfig::default()
    });
    let (evm_train, evm_test) = evm.split(profile.test_fraction, profile.seed);
    let (wasm_train, wasm_test) = wasm.split(profile.test_fraction, profile.seed);

    // Mixed corpus: concatenate contracts (ids stay unique per corpus use).
    let mut mixed_contracts = Vec::new();
    for &i in &evm_train {
        mixed_contracts.push(evm.contracts()[i].clone());
    }
    for &i in &wasm_train {
        mixed_contracts.push(wasm.contracts()[i].clone());
    }
    let mixed = Corpus::from_contracts(mixed_contracts);
    let mixed_idx: Vec<usize> = (0..mixed.len()).collect();

    let opts = profile.train_options();
    let mut out = Vec::new();
    let train_sets: [(&'static str, &Corpus, Vec<usize>); 3] = [
        ("evm", &evm, evm_train.clone()),
        ("wasm", &wasm, wasm_train.clone()),
        ("mixed", &mixed, mixed_idx),
    ];
    for (train_name, train_corpus, train_indices) in train_sets {
        let classic = Detector::train(
            ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::Unified),
            train_corpus,
            &train_indices,
            &opts,
        )?;
        let gnn = Detector::train(
            ModelKind::Gnn(GnnKind::Gcn),
            train_corpus,
            &train_indices,
            &opts,
        )?;
        for (test_name, test_corpus, test_indices) in
            [("evm", &evm, &evm_test), ("wasm", &wasm, &wasm_test)]
        {
            let c = eval_detector(&classic, test_corpus, test_indices, "classic")?;
            let g = eval_detector(&gnn, test_corpus, test_indices, "gnn")?;
            out.push(TransferCell {
                train: train_name,
                test: test_name,
                classic_accuracy: c.accuracy,
                gnn_accuracy: g.accuracy,
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// E6 — Figure 3: pipeline throughput by stage.
// ---------------------------------------------------------------------

/// Mean per-contract latency of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name.
    pub stage: &'static str,
    /// Mean microseconds per contract.
    pub mean_us: f64,
    /// Contracts per second implied.
    pub contracts_per_sec: f64,
    /// Mean bytecode size over the sample.
    pub mean_bytes: f64,
}

/// Runs E6: times disassembly, CFG recovery, feature extraction, model
/// inference, and the parallel batch-scan path per contract over the
/// corpus.
pub fn run_e6_throughput(profile: &Profile) -> Result<Vec<StageTiming>, ScamDetectError> {
    let corpus = profile.corpus(Platform::Evm);
    let idx: Vec<usize> = (0..corpus.len()).collect();
    let opts = profile.train_options();
    let det = Detector::train(
        ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::Unified),
        &corpus,
        &idx,
        &opts,
    )?;
    let n = corpus.len() as f64;
    let mean_bytes = corpus
        .contracts()
        .iter()
        .map(|c| c.bytes.len())
        .sum::<usize>() as f64
        / n;

    let mut timings = Vec::new();
    let mut time_stage = |stage: &'static str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / n;
        timings.push(StageTiming {
            stage,
            mean_us,
            contracts_per_sec: if mean_us > 0.0 {
                1e6 / mean_us
            } else {
                f64::INFINITY
            },
            mean_bytes,
        });
    };

    time_stage("disassemble", &mut || {
        for c in corpus.contracts() {
            std::hint::black_box(scamdetect_evm::disasm::disassemble(&c.bytes));
        }
    });
    time_stage("build_cfg", &mut || {
        for c in corpus.contracts() {
            std::hint::black_box(scamdetect_evm::cfg::build_cfg(&c.bytes));
        }
    });
    time_stage("lift_and_features", &mut || {
        for c in corpus.contracts() {
            let cfg = featurize::lift(c).expect("lift");
            std::hint::black_box(scamdetect_ir::features::graph_feature_vector(&cfg));
        }
    });
    time_stage("inference", &mut || {
        for c in corpus.contracts() {
            std::hint::black_box(det.score_contract(c).expect("score"));
        }
    });

    // The production path: one batch over the whole corpus, skeleton
    // dedup on, fanned across scoped workers (0 = one per core).
    let scanner = crate::scan::ScannerBuilder::new().workers(0).build(det);
    let requests: Vec<crate::scan::ScanRequest> = corpus
        .contracts()
        .iter()
        .map(|c| crate::scan::ScanRequest::new(&c.bytes))
        .collect();
    time_stage("scan_batch", &mut || {
        scanner.clear_cache(); // cold-cache numbers, comparable across runs
        for outcome in scanner.scan_batch(&requests) {
            std::hint::black_box(outcome.expect("batch scan succeeds"));
        }
    });
    Ok(timings)
}

// ---------------------------------------------------------------------
// E7 — Table 4: dataset curation / dedup.
// ---------------------------------------------------------------------

/// The dedup exhibit: corpus stats before and after curation.
#[derive(Debug, Clone)]
pub struct DedupExhibit {
    /// Stats before dedup.
    pub before: scamdetect_dataset::CorpusStats,
    /// Stats after dedup.
    pub after: scamdetect_dataset::CorpusStats,
    /// What was removed.
    pub report: scamdetect_dataset::DedupReport,
}

/// Runs E7: generates a corpus with injected ERC-1167 duplicates, then
/// dedups it — the §V-A curation step, quantified.
pub fn run_e7_dedup(profile: &Profile) -> DedupExhibit {
    let corpus = Corpus::generate(&CorpusConfig {
        size: profile.corpus_size,
        seed: profile.seed,
        proxy_duplicates: profile.corpus_size / 4,
        ..CorpusConfig::default()
    });
    let before = corpus.stats();
    let (clean, report) = corpus.dedup();
    DedupExhibit {
        before,
        after: clean.stats(),
        report,
    }
}

// ---------------------------------------------------------------------
// E8 — Table 5: ablations.
// ---------------------------------------------------------------------

/// One ablation row: a named variant and its accuracy on clean and
/// obfuscated (L3) test sets.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant description.
    pub variant: String,
    /// Accuracy on the clean test set.
    pub clean_accuracy: f64,
    /// Accuracy on the L3-obfuscated test set.
    pub obfuscated_accuracy: f64,
}

/// Runs E8: feature-set ablation for the classic detector and depth /
/// readout ablation for the GNN.
pub fn run_e8_ablation(profile: &Profile) -> Result<Vec<AblationRow>, ScamDetectError> {
    let corpus = profile.corpus(Platform::Evm);
    let (train_idx, test_idx) = corpus.split(profile.test_fraction, profile.seed);
    let obf = corpus.obfuscated(ObfuscationLevel::new(3));
    let opts = profile.train_options();

    let mut rows = Vec::new();

    // Feature-kind ablation (random forest).
    for kind in [
        FeatureKind::OpcodeHistogram,
        FeatureKind::Unified,
        FeatureKind::Combined,
    ] {
        let det = Detector::train(
            ModelKind::Classic(ClassicModel::RandomForest, kind),
            &corpus,
            &train_idx,
            &opts,
        )?;
        let clean = eval_detector(&det, &corpus, &test_idx, kind.name())?;
        let obfd = eval_detector(&det, &obf, &test_idx, kind.name())?;
        rows.push(AblationRow {
            variant: format!("rf_features={}", kind.name()),
            clean_accuracy: clean.accuracy,
            obfuscated_accuracy: obfd.accuracy,
        });
    }

    // GNN depth ablation.
    for layers in [1usize, 2, 3] {
        let graphs = featurize::prepare_graphs(&corpus, &train_idx)?;
        let config =
            scamdetect_gnn::GnnConfig::new(GnnKind::Gcn, scamdetect_ir::features::NODE_FEATURE_DIM)
                .with_layers(layers)
                .with_seed(opts.seed);
        let mut model = scamdetect_gnn::GnnClassifier::new(config);
        scamdetect_gnn::train(&mut model, &graphs, &opts.gnn);
        let det = Detector::Gnn { model };
        let clean = eval_detector(&det, &corpus, &test_idx, "gnn")?;
        let obfd = eval_detector(&det, &obf, &test_idx, "gnn")?;
        rows.push(AblationRow {
            variant: format!("gcn_layers={layers}"),
            clean_accuracy: clean.accuracy,
            obfuscated_accuracy: obfd.accuracy,
        });
    }

    // Readout ablation.
    for readout in scamdetect_gnn::Readout::all() {
        let graphs = featurize::prepare_graphs(&corpus, &train_idx)?;
        let config =
            scamdetect_gnn::GnnConfig::new(GnnKind::Gcn, scamdetect_ir::features::NODE_FEATURE_DIM)
                .with_readout(readout)
                .with_seed(opts.seed);
        let mut model = scamdetect_gnn::GnnClassifier::new(config);
        scamdetect_gnn::train(&mut model, &graphs, &opts.gnn);
        let det = Detector::Gnn { model };
        let clean = eval_detector(&det, &corpus, &test_idx, "gnn")?;
        let obfd = eval_detector(&det, &obf, &test_idx, "gnn")?;
        rows.push(AblationRow {
            variant: format!("gcn_readout={}", readout.name()),
            clean_accuracy: clean.accuracy,
            obfuscated_accuracy: obfd.accuracy,
        });
    }

    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Profile {
        Profile {
            corpus_size: 36,
            test_fraction: 0.3,
            gnn: BatchTrainConfig {
                epochs: 2,
                batch_size: 12,
                ..BatchTrainConfig::default()
            },
            seed: 0xF00,
        }
    }

    #[test]
    fn e1_produces_all_model_rows() {
        let rows = run_e1_baselines(&tiny()).unwrap();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
        }
    }

    #[test]
    fn e3_covers_all_levels() {
        let pts = run_e3_robustness(&tiny()).unwrap();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].level, 0);
        assert_eq!(pts[5].level, 5);
    }

    #[test]
    fn e6_times_all_stages() {
        let stages = run_e6_throughput(&tiny()).unwrap();
        assert_eq!(stages.len(), 5);
        assert_eq!(stages.last().unwrap().stage, "scan_batch");
        assert!(stages.iter().all(|s| s.mean_us >= 0.0));
        assert!(stages.iter().all(|s| s.contracts_per_sec > 0.0));
    }

    #[test]
    fn e7_dedup_removes_duplicates() {
        let ex = run_e7_dedup(&tiny());
        assert!(ex.report.proxies_removed > 0);
        assert!(ex.after.total < ex.before.total);
    }
}
