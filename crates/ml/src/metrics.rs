//! Binary-classification evaluation metrics.

/// A 2x2 confusion matrix for the malicious-vs-benign task
/// (positive class = malicious = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Malicious predicted malicious.
    pub tp: usize,
    /// Benign predicted malicious.
    pub fp: usize,
    /// Benign predicted benign.
    pub tn: usize,
    /// Malicious predicted benign.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Tallies predictions against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_predictions(truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut m = ConfusionMatrix::default();
        for (&t, &p) in truth.iter().zip(predicted) {
            match (t, p) {
                (1, 1) => m.tp += 1,
                (0, 1) => m.fp += 1,
                (0, 0) => m.tn += 1,
                (1, 0) => m.fn_ += 1,
                _ => panic!("binary labels must be 0 or 1"),
            }
        }
        m
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `(TP + TN) / total`.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// `TP / (TP + FP)` (1.0 when no positives were predicted).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// `TP / (TP + FN)` (1.0 when no positives exist).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-positive rate `FP / (FP + TN)`.
    pub fn fpr(&self) -> f64 {
        if self.fp + self.tn == 0 {
            return 0.0;
        }
        self.fp as f64 / (self.fp + self.tn) as f64
    }
}

/// Area under the ROC curve, computed by the rank statistic
/// (Mann–Whitney U). `scores` are the model's confidence that each sample
/// is positive; ties contribute half.
///
/// Returns 0.5 when either class is absent.
pub fn roc_auc(truth: &[usize], scores: &[f64]) -> f64 {
    assert_eq!(truth.len(), scores.len(), "length mismatch");
    let pos: Vec<f64> = truth
        .iter()
        .zip(scores)
        .filter(|(&t, _)| t == 1)
        .map(|(_, &s)| s)
        .collect();
    let neg: Vec<f64> = truth
        .iter()
        .zip(scores)
        .filter(|(&t, _)| t == 0)
        .map(|(_, &s)| s)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for &p in &pos {
        for &n in &neg {
            if p > n {
                wins += 1.0;
            } else if (p - n).abs() < 1e-12 {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() as f64 * neg.len() as f64)
}

/// One evaluated model: name plus the standard metric bundle. This is the
/// row type of every results table the experiments print.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Model name.
    pub model: String,
    /// Accuracy.
    pub accuracy: f64,
    /// Precision on the malicious class.
    pub precision: f64,
    /// Recall on the malicious class.
    pub recall: f64,
    /// F1 on the malicious class.
    pub f1: f64,
    /// ROC-AUC.
    pub auc: f64,
}

impl EvalRow {
    /// Builds a row from raw predictions and scores.
    pub fn evaluate(
        model: impl Into<String>,
        truth: &[usize],
        predicted: &[usize],
        scores: &[f64],
    ) -> Self {
        let cm = ConfusionMatrix::from_predictions(truth, predicted);
        EvalRow {
            model: model.into(),
            accuracy: cm.accuracy(),
            precision: cm.precision(),
            recall: cm.recall(),
            f1: cm.f1(),
            auc: roc_auc(truth, scores),
        }
    }
}

impl std::fmt::Display for EvalRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} acc={:.3} prec={:.3} rec={:.3} f1={:.3} auc={:.3}",
            self.model, self.accuracy, self.precision, self.recall, self.f1, self.auc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let truth = [1, 0, 1, 0];
        let pred = [1, 0, 1, 0];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.fpr(), 0.0);
    }

    #[test]
    fn known_confusion_counts() {
        let truth = [1, 1, 1, 0, 0, 0, 1, 0];
        let pred = [1, 0, 1, 1, 0, 0, 1, 0];
        let cm = ConfusionMatrix::from_predictions(&truth, &pred);
        assert_eq!((cm.tp, cm.fp, cm.tn, cm.fn_), (3, 1, 3, 1));
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
        assert!((cm.precision() - 0.75).abs() < 1e-12);
        assert!((cm.recall() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let truth = [0, 0, 1, 1];
        assert_eq!(roc_auc(&truth, &[0.1, 0.2, 0.8, 0.9]), 1.0);
        assert_eq!(roc_auc(&truth, &[0.9, 0.8, 0.2, 0.1]), 0.0);
        assert_eq!(roc_auc(&truth, &[0.5, 0.5, 0.5, 0.5]), 0.5);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(roc_auc(&[1, 1], &[0.3, 0.4]), 0.5);
    }

    #[test]
    fn eval_row_formats() {
        let row = EvalRow::evaluate("test", &[1, 0], &[1, 0], &[0.9, 0.1]);
        assert!(row.to_string().contains("acc=1.000"));
        assert_eq!(row.auc, 1.0);
    }
}
