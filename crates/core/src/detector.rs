//! Detector implementations and the model-selection enum.

use crate::error::ScamDetectError;
use crate::featurize::{self, FeatureKind};
use scamdetect_dataset::Corpus;
use scamdetect_gnn::{self as gnn, GnnClassifier, GnnConfig, GnnKind, PreparedGraph};
use scamdetect_ir::features::NODE_FEATURE_DIM;
use scamdetect_ir::UnifiedCfg;
use scamdetect_ml::{
    BernoulliNb, Classifier, DecisionTree, GaussianNb, KNearest, LogisticRegression, Mlp,
    NearestCentroid, RandomForest,
};

/// Classic (non-graph) model choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ClassicModel {
    LogisticRegression,
    Mlp,
    DecisionTree,
    RandomForest,
    ExtraTrees,
    Knn1,
    Knn5,
    GaussianNb,
    BernoulliNb,
    NearestCentroid,
}

impl ClassicModel {
    /// All ten classic models (E1's lineup).
    pub fn all() -> [ClassicModel; 10] {
        use ClassicModel::*;
        [
            LogisticRegression,
            Mlp,
            DecisionTree,
            RandomForest,
            ExtraTrees,
            Knn1,
            Knn5,
            GaussianNb,
            BernoulliNb,
            NearestCentroid,
        ]
    }

    /// Stable wire tag used by the model-artifact format. Never renumber.
    pub fn code(self) -> u8 {
        match self {
            ClassicModel::LogisticRegression => 0,
            ClassicModel::Mlp => 1,
            ClassicModel::DecisionTree => 2,
            ClassicModel::RandomForest => 3,
            ClassicModel::ExtraTrees => 4,
            ClassicModel::Knn1 => 5,
            ClassicModel::Knn5 => 6,
            ClassicModel::GaussianNb => 7,
            ClassicModel::BernoulliNb => 8,
            ClassicModel::NearestCentroid => 9,
        }
    }

    /// Inverse of [`ClassicModel::code`].
    pub fn from_code(code: u8) -> Option<ClassicModel> {
        ClassicModel::all().into_iter().find(|m| m.code() == code)
    }

    /// The [`Classifier::name`] the instantiated model reports — the
    /// reverse mapping ([`ClassicModel::from_classifier_name`]) lets a
    /// trained trait object self-describe for persistence.
    pub fn classifier_name(self) -> &'static str {
        match self {
            ClassicModel::LogisticRegression => "logistic_regression",
            ClassicModel::Mlp => "mlp",
            ClassicModel::DecisionTree => "decision_tree",
            ClassicModel::RandomForest => "random_forest",
            ClassicModel::ExtraTrees => "extra_trees",
            ClassicModel::Knn1 => "knn_1",
            ClassicModel::Knn5 => "knn_5",
            ClassicModel::GaussianNb => "gaussian_nb",
            ClassicModel::BernoulliNb => "bernoulli_nb",
            ClassicModel::NearestCentroid => "nearest_centroid",
        }
    }

    /// Looks the enum entry up from a [`Classifier::name`].
    pub fn from_classifier_name(name: &str) -> Option<ClassicModel> {
        ClassicModel::all()
            .into_iter()
            .find(|m| m.classifier_name() == name)
    }

    /// Instantiates the model, seeded.
    pub fn instantiate(self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ClassicModel::LogisticRegression => Box::new(LogisticRegression::new()),
            ClassicModel::Mlp => Box::new(Mlp::new(seed)),
            ClassicModel::DecisionTree => Box::new(DecisionTree::default_cart()),
            ClassicModel::RandomForest => Box::new(RandomForest::new(25, seed)),
            ClassicModel::ExtraTrees => Box::new(RandomForest::extra_trees(25, seed ^ 1)),
            ClassicModel::Knn1 => Box::new(KNearest::new(1)),
            ClassicModel::Knn5 => Box::new(KNearest::new(5)),
            ClassicModel::GaussianNb => Box::new(GaussianNb::new()),
            ClassicModel::BernoulliNb => Box::new(BernoulliNb::new()),
            ClassicModel::NearestCentroid => Box::new(NearestCentroid::new()),
        }
    }
}

/// Which detector a [`crate::ScannerBuilder`] trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// A classic classifier over byte/graph features.
    Classic(ClassicModel, FeatureKind),
    /// A GNN over the unified CFG.
    Gnn(GnnKind),
}

/// Training options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// GNN training hyperparameters (ignored by classic models). This is
    /// the block-diagonal mini-batch configuration: every GNN detector
    /// trains through [`gnn::train`], one tape per batch of graphs.
    /// `bucket_by_size` / `max_batch_nodes` expose the batching knobs end
    /// to end.
    pub gnn: gnn::BatchTrainConfig,
    /// Seed for model initialisation.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            gnn: gnn::BatchTrainConfig::default(),
            seed: 0xD07,
        }
    }
}

/// The input representation a detector scores: a flat feature row for
/// classic models, a CSR-prepared graph for GNNs.
///
/// Preparing the representation (lift → featurize / graph build) is
/// model-*independent* within a kind: every GNN architecture consumes
/// the same [`PreparedGraph`], and every classic model over the same
/// [`FeatureKind`] consumes the same row. That makes prepared inputs
/// safely shareable across detectors — in particular across a serving
/// replica's **hot model swap**, where the new model re-scores cached
/// prepared inputs without re-paying graph prep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprKind {
    /// A flat `Vec<f64>` row under the given feature kind.
    Features(FeatureKind),
    /// A [`PreparedGraph`] (CSR aggregators over the unified CFG).
    Graph,
}

/// A scan input prepared once: the exact representation
/// [`Detector::score_prepared`] consumes, with the lift and graph/feature
/// construction already paid.
#[derive(Debug, Clone)]
pub enum PreparedInput {
    /// Feature row for classic models (tagged with its feature kind so a
    /// detector over a different representation rejects it).
    Features(FeatureKind, Vec<f64>),
    /// Prepared graph for GNN models (architecture-independent).
    Graph(PreparedGraph),
}

impl PreparedInput {
    /// The representation this input carries.
    pub fn repr_kind(&self) -> ReprKind {
        match self {
            PreparedInput::Features(kind, _) => ReprKind::Features(*kind),
            PreparedInput::Graph(_) => ReprKind::Graph,
        }
    }
}

/// A trained detector: scores unified CFGs.
///
/// Constructed via [`Detector::train`]; the two implementations (classic
/// and GNN) are unified behind this enum so the pipeline code is
/// model-agnostic.
pub enum Detector {
    /// Classic classifier + its feature kind.
    Classic {
        /// The fitted model.
        model: Box<dyn Classifier>,
        /// The representation it was fitted on.
        features: FeatureKind,
    },
    /// A trained GNN.
    Gnn {
        /// The fitted model.
        model: GnnClassifier,
    },
}

impl std::fmt::Debug for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Detector({})", self.name())
    }
}

impl Detector {
    /// Trains `kind` on the given corpus subset.
    ///
    /// # Errors
    ///
    /// [`ScamDetectError::BadCorpus`] when the subset is empty or
    /// single-class; frontend errors if a contract cannot be lifted.
    pub fn train(
        kind: ModelKind,
        corpus: &Corpus,
        indices: &[usize],
        options: &TrainOptions,
    ) -> Result<Detector, ScamDetectError> {
        if indices.is_empty() {
            return Err(ScamDetectError::BadCorpus {
                reason: "no training samples",
            });
        }
        let classes: std::collections::BTreeSet<usize> = indices
            .iter()
            .map(|&i| corpus.contracts()[i].label.class_index())
            .collect();
        if classes.len() < 2 {
            return Err(ScamDetectError::BadCorpus {
                reason: "training set is single-class",
            });
        }
        match kind {
            ModelKind::Classic(model_kind, features) => {
                let data = featurize::featurize_corpus(corpus, indices, features)?;
                let mut model = model_kind.instantiate(options.seed);
                model.fit(&data);
                Ok(Detector::Classic { model, features })
            }
            ModelKind::Gnn(gnn_kind) => {
                let graphs = featurize::prepare_graphs(corpus, indices)?;
                let config = GnnConfig::new(gnn_kind, NODE_FEATURE_DIM).with_seed(options.seed);
                let mut model = GnnClassifier::new(config);
                gnn::train(&mut model, &graphs, &options.gnn);
                Ok(Detector::Gnn { model })
            }
        }
    }

    /// The [`ModelKind`] this detector instantiates — `None` only for
    /// hand-built classic classifiers outside the [`ClassicModel`]
    /// lineup (such detectors cannot be persisted).
    pub fn model_kind(&self) -> Option<ModelKind> {
        match self {
            Detector::Classic { model, features } => {
                ClassicModel::from_classifier_name(model.name())
                    .map(|m| ModelKind::Classic(m, *features))
            }
            Detector::Gnn { model } => Some(ModelKind::Gnn(model.config().kind)),
        }
    }

    /// Persists the trained state as a versioned
    /// [`ModelArtifact`](crate::artifact::ModelArtifact) file.
    ///
    /// Serving metadata defaults (threshold 0.5, default train options)
    /// are recorded; save through [`crate::Scanner::save`] to capture the
    /// scanner's actual threshold and training provenance.
    ///
    /// # Errors
    ///
    /// [`ScamDetectError::Artifact`] on I/O failure or a model outside
    /// the persistable lineup.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ScamDetectError> {
        crate::artifact::ModelArtifact::from_detector(self, 0.5, &TrainOptions::default())?
            .save(path)
    }

    /// Loads a trained detector from a
    /// [`ModelArtifact`](crate::artifact::ModelArtifact) file — no
    /// corpus, no training.
    ///
    /// # Errors
    ///
    /// Typed [`ScamDetectError::Artifact`] diagnostics on truncated,
    /// corrupted or version-mismatched artifacts.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Detector, ScamDetectError> {
        crate::artifact::ModelArtifact::load(path)?.into_detector()
    }

    /// Name of the underlying model.
    pub fn name(&self) -> String {
        match self {
            Detector::Classic { model, features } => {
                format!("{}[{}]", model.name(), features.name())
            }
            Detector::Gnn { model } => model.name().to_string(),
        }
    }

    /// P(malicious) of a lifted contract.
    ///
    /// # Panics
    ///
    /// For classic detectors trained on byte-level features
    /// ([`FeatureKind::OpcodeHistogram`] / [`FeatureKind::Combined`]) the
    /// CFG alone cannot reproduce the training representation; use
    /// [`Detector::score_bytes`] instead, or this method panics on the
    /// dimension mismatch inside the model.
    pub fn score_cfg(&self, cfg: &UnifiedCfg) -> f64 {
        match self {
            Detector::Classic { model, .. } => {
                let row = scamdetect_ir::features::graph_feature_vector(cfg);
                model.score(&row)
            }
            Detector::Gnn { model } => {
                let g = PreparedGraph::from_cfg(cfg, 0);
                model.score(&g)
            }
        }
    }

    /// P(malicious) of an already-lifted contract — always uses the exact
    /// representation the detector was trained on, with no re-lift.
    ///
    /// This is the single-lift scoring path: [`Lifted`] carries both the
    /// unified CFG and the byte-level histogram, so every model kind
    /// (including byte-feature classic detectors) scores from it.
    ///
    /// Equivalent to [`Detector::prepare_lifted`] followed by
    /// [`Detector::score_prepared`]; scan paths that may score the same
    /// contract again (batch dedup, serving replicas across model swaps)
    /// should keep the prepared input instead of re-lifting.
    ///
    /// [`Lifted`]: crate::featurize::Lifted
    pub fn score_lifted(&self, lifted: &featurize::Lifted) -> f64 {
        self.score_prepared(&self.prepare_lifted(lifted))
            .expect("prepare_lifted produces this detector's own representation")
    }

    /// The input representation this detector consumes.
    pub fn repr_kind(&self) -> ReprKind {
        match self {
            Detector::Classic { features, .. } => ReprKind::Features(*features),
            Detector::Gnn { .. } => ReprKind::Graph,
        }
    }

    /// Builds the exact model input this detector scores from an
    /// already-lifted contract — the expensive half of scoring
    /// (featurization / CSR graph construction), split out so callers
    /// can memoise it independently of the model weights.
    ///
    /// [`Lifted`]: crate::featurize::Lifted
    pub fn prepare_lifted(&self, lifted: &featurize::Lifted) -> PreparedInput {
        match self {
            Detector::Classic { features, .. } => {
                PreparedInput::Features(*features, lifted.feature_vector(*features))
            }
            Detector::Gnn { .. } => PreparedInput::Graph(PreparedGraph::from_cfg(&lifted.cfg, 0)),
        }
    }

    /// P(malicious) of a prepared input — the cheap half of scoring.
    ///
    /// Returns `None` when `input` carries a different representation
    /// than this detector consumes (e.g. a feature row prepared for an
    /// opcode-histogram model offered to a GNN after a hot swap); the
    /// caller re-prepares in that case. Scores are bit-identical to
    /// [`Detector::score_lifted`] on the input's source contract.
    pub fn score_prepared(&self, input: &PreparedInput) -> Option<f64> {
        match (self, input) {
            (Detector::Classic { model, features }, PreparedInput::Features(kind, row))
                if kind == features =>
            {
                Some(model.score(row))
            }
            (Detector::Gnn { model }, PreparedInput::Graph(g)) => Some(model.score(g)),
            _ => None,
        }
    }

    /// P(malicious) of raw bytes on a known platform — always uses the
    /// exact representation the detector was trained on.
    ///
    /// Lifts lazily: byte-feature classic detectors never build a CFG
    /// here. When CFG statistics are needed anyway (as in every scan
    /// path), lift once with [`Lifted`] and call
    /// [`Detector::score_lifted`] instead.
    ///
    /// [`Lifted`]: crate::featurize::Lifted
    pub fn score_bytes(
        &self,
        platform: scamdetect_ir::Platform,
        bytes: &[u8],
    ) -> Result<f64, ScamDetectError> {
        match self {
            Detector::Classic { model, features } => {
                let row = featurize::featurize_bytes(platform, bytes, *features)?;
                Ok(model.score(&row))
            }
            Detector::Gnn { model } => {
                let cfg = featurize::lift_bytes(platform, bytes)?;
                let g = PreparedGraph::from_cfg(&cfg, 0);
                Ok(model.score(&g))
            }
        }
    }

    /// P(malicious) of a corpus contract (classic models use their exact
    /// training representation, including byte-level histograms).
    pub fn score_contract(
        &self,
        contract: &scamdetect_dataset::Contract,
    ) -> Result<f64, ScamDetectError> {
        match self {
            Detector::Classic { model, features } => {
                let row = featurize::featurize(contract, *features)?;
                Ok(model.score(&row))
            }
            Detector::Gnn { model } => {
                let cfg = featurize::lift(contract)?;
                let g = PreparedGraph::from_cfg(&cfg, 0);
                Ok(model.score(&g))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scamdetect_dataset::CorpusConfig;

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            size: 40,
            seed: 77,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn classic_detector_trains_and_scores() {
        let c = corpus();
        let idx: Vec<usize> = (0..c.len()).collect();
        let det = Detector::train(
            ModelKind::Classic(ClassicModel::RandomForest, FeatureKind::OpcodeHistogram),
            &c,
            &idx,
            &TrainOptions::default(),
        )
        .unwrap();
        assert!(det.name().contains("random_forest"));
        let s = det.score_contract(&c.contracts()[0]).unwrap();
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn gnn_detector_trains_and_scores() {
        let c = corpus();
        let idx: Vec<usize> = (0..c.len()).collect();
        let mut opts = TrainOptions::default();
        opts.gnn.epochs = 3; // smoke-level training
        let det = Detector::train(ModelKind::Gnn(GnnKind::Gcn), &c, &idx, &opts).unwrap();
        assert_eq!(det.name(), "gcn");
        let cfg = featurize::lift(&c.contracts()[1]).unwrap();
        assert!((0.0..=1.0).contains(&det.score_cfg(&cfg)));
    }

    #[test]
    fn empty_training_set_rejected() {
        let c = corpus();
        let err = Detector::train(
            ModelKind::Gnn(GnnKind::Gcn),
            &c,
            &[],
            &TrainOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScamDetectError::BadCorpus { .. }));
    }

    #[test]
    fn single_class_training_set_rejected() {
        let c = corpus();
        let only_benign: Vec<usize> = (0..c.len())
            .filter(|&i| c.contracts()[i].label == scamdetect_dataset::ContractLabel::Benign)
            .collect();
        let err = Detector::train(
            ModelKind::Classic(ClassicModel::Knn1, FeatureKind::Unified),
            &c,
            &only_benign,
            &TrainOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScamDetectError::BadCorpus { .. }));
    }

    #[test]
    fn classic_model_enum_is_complete() {
        assert_eq!(ClassicModel::all().len(), 10);
        for m in ClassicModel::all() {
            let inst = m.instantiate(1);
            assert!(!inst.name().is_empty());
        }
    }
}
