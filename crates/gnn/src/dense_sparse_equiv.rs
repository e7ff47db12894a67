//! End-to-end equivalence of the CSR execution path against the dense
//! reference: every architecture, forward logits and training dynamics.

use crate::trainer::{synthetic_sparse_graph, train_dense, train_unbatched, TrainConfig};
use crate::{GnnClassifier, GnnConfig, GnnKind, PreparedGraph, Readout};
use proptest::prelude::*;

#[test]
fn all_architectures_match_dense_logits() {
    for kind in GnnKind::all() {
        for (n, isolated) in [(6usize, 0usize), (17, 2), (40, 1)] {
            let g = synthetic_sparse_graph(n, isolated, 6, 11 + n as u64);
            let d = g.to_dense();
            for readout in Readout::all() {
                let model = GnnClassifier::new(
                    GnnConfig::new(kind, 6)
                        .with_hidden(8)
                        .with_readout(readout)
                        .with_seed(9),
                );
                let sparse = model.score(&g);
                let dense = model.score_dense(&d);
                assert!(
                    (sparse - dense).abs() < 1e-4,
                    "{kind}/{}: sparse {sparse} vs dense {dense} (n={n})",
                    readout.name()
                );
            }
        }
    }
}

#[test]
fn training_dynamics_match_dense_path() {
    // Same model seed, same data, same shuffle seed: the per-epoch losses
    // of the CSR path and the dense path must track each other closely.
    let data: Vec<PreparedGraph> = (0..8)
        .map(|i| synthetic_sparse_graph(8 + i, i % 2, 6, i as u64))
        .collect();
    let dense: Vec<_> = data.iter().map(|g| g.to_dense()).collect();
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 4,
        lr: 1e-2,
        loss_target: 0.0,
        ..TrainConfig::default()
    };
    for kind in GnnKind::all() {
        let mut ms = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8).with_seed(3));
        let mut md = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8).with_seed(3));
        let hs = train_unbatched(&mut ms, &data, &cfg);
        let hd = train_dense(&mut md, &dense, &cfg);
        assert_eq!(hs.epoch_loss.len(), hd.epoch_loss.len());
        for (ls, ld) in hs.epoch_loss.iter().zip(&hd.epoch_loss) {
            assert!(
                (ls - ld).abs() < 1e-3,
                "{kind}: epoch loss diverged, sparse {ls} vs dense {ld}"
            );
        }
        // Post-training scores agree too.
        let ss = ms.score(&data[0]);
        let sd = md.score_dense(&dense[0]);
        assert!((ss - sd).abs() < 1e-3, "{kind}: {ss} vs {sd}");
    }
}

proptest! {
    /// Random sparse graphs (including isolated nodes) score identically
    /// through both paths for the architecture most sensitive to the mask
    /// semantics (GAT) and the spectral one (GCN).
    #[test]
    fn random_graphs_score_equivalently(
        n in 2usize..20,
        isolated in 0usize..3,
        seed in any::<u64>(),
    ) {
        let g = synthetic_sparse_graph(n, isolated, 6, seed);
        let d = g.to_dense();
        for kind in [GnnKind::Gat, GnnKind::Gcn] {
            let model = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8));
            let sparse = model.score(&g);
            let dense = model.score_dense(&d);
            prop_assert!((sparse - dense).abs() < 1e-4,
                "{kind}: sparse {sparse} vs dense {dense}");
        }
    }
}
