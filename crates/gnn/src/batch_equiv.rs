//! Equivalence of block-diagonal mini-batch execution against the
//! per-graph sparse path: packing K graphs into one [`GraphBatch`] must
//! not change any graph's logits, for any architecture, any readout, any
//! batch composition — including K = 1, graphs with no edges at all, and
//! batches mixing wildly different node counts.

use crate::trainer::{synthetic_sparse_graph, train_unbatched};
use crate::{
    train, BatchTrainConfig, GnnClassifier, GnnConfig, GnnKind, GraphBatch, PreparedGraph, Readout,
};
use proptest::prelude::*;
use scamdetect_tensor::Matrix;

/// An edge-free graph (isolated nodes only).
fn edgeless(nodes: usize, dim: usize, label: usize) -> PreparedGraph {
    let x = Matrix::from_fn(nodes, dim, |r, c| ((r * dim + c) % 5) as f32 * 0.3 - 0.6);
    PreparedGraph::from_edges(x, Vec::new(), label)
}

fn assert_batch_matches_per_graph(graphs: &[PreparedGraph], tag: &str) {
    let refs: Vec<&PreparedGraph> = graphs.iter().collect();
    let batch = GraphBatch::pack(&refs);
    for kind in GnnKind::all() {
        for readout in Readout::all() {
            let model = GnnClassifier::new(
                GnnConfig::new(kind, graphs[0].feature_dim())
                    .with_hidden(8)
                    .with_readout(readout)
                    .with_seed(13),
            );
            let batched = model.score_batch(&batch);
            assert_eq!(batched.len(), graphs.len());
            for (k, g) in graphs.iter().enumerate() {
                let single = model.score(g);
                assert!(
                    (batched[k] - single).abs() < 1e-4,
                    "{tag}/{kind}/{}: graph {k} batched {} vs single {single}",
                    readout.name(),
                    batched[k],
                );
            }
        }
    }
}

#[test]
fn all_architectures_match_across_mixed_batches() {
    // Mixed node counts (2..45 nodes), isolated tails, both labels.
    let graphs: Vec<PreparedGraph> = (0..6)
        .map(|i| synthetic_sparse_graph(2 + 8 * i, i % 3, 6, 101 + i as u64))
        .collect();
    assert_batch_matches_per_graph(&graphs, "mixed");
}

#[test]
fn batch_of_one_matches_single_graph() {
    let g = synthetic_sparse_graph(19, 1, 6, 77);
    assert_batch_matches_per_graph(std::slice::from_ref(&g), "k1");
}

#[test]
fn empty_edge_graphs_batch_correctly() {
    // All-edgeless, and edgeless mixed with connected graphs: attention
    // rows of isolated nodes must stay empty per graph, not borrow mass
    // from a neighbour block.
    let all_edgeless: Vec<PreparedGraph> = (0..3).map(|i| edgeless(3 + i, 6, i % 2)).collect();
    assert_batch_matches_per_graph(&all_edgeless, "edgeless");

    let mixed = vec![
        edgeless(4, 6, 0),
        synthetic_sparse_graph(12, 0, 6, 5),
        edgeless(1, 6, 1),
        synthetic_sparse_graph(7, 2, 6, 9),
    ];
    assert_batch_matches_per_graph(&mixed, "edgeless-mixed");
}

#[test]
fn batched_training_final_scores_match_unbatched() {
    // Beyond matching forward logits, a full batched training run must land
    // on (numerically) the same model as the per-graph reference.
    let data: Vec<PreparedGraph> = (0..10)
        .map(|i| synthetic_sparse_graph(6 + 2 * i, i % 2, 6, 31 + i as u64))
        .collect();
    let cfg = BatchTrainConfig {
        epochs: 3,
        batch_size: 4,
        lr: 1e-2,
        loss_target: 0.0,
        ..BatchTrainConfig::default()
    };
    for kind in GnnKind::all() {
        let mut mb = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8).with_seed(2));
        let mut mu = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8).with_seed(2));
        train(&mut mb, &data, &cfg);
        train_unbatched(&mut mu, &data, &cfg.unbatched());
        for g in &data {
            let sb = mb.score(g);
            let su = mu.score(g);
            assert!((sb - su).abs() < 1e-3, "{kind}: {sb} vs {su}");
        }
    }
}

proptest! {
    /// Random batches: K graphs of random sizes (some edge-free via a tiny
    /// node count with isolated tails), batched logits equal the per-graph
    /// sparse logits on the two architectures most sensitive to structure
    /// handling (GAT: per-segment softmax; GCN: spectral normalisation).
    #[test]
    fn random_batches_score_equivalently(
        seeds in proptest::collection::vec(any::<u64>(), 1..6),
        base in 1usize..16,
        isolated in 0usize..3,
    ) {
        let graphs: Vec<PreparedGraph> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| synthetic_sparse_graph(base + 3 * i, (isolated + i) % 4, 6, s))
            .collect();
        let refs: Vec<&PreparedGraph> = graphs.iter().collect();
        let batch = GraphBatch::pack(&refs);
        for kind in [GnnKind::Gat, GnnKind::Gcn] {
            let model = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8));
            let batched = model.score_batch(&batch);
            for (k, g) in graphs.iter().enumerate() {
                let single = model.score(g);
                prop_assert!(
                    (batched[k] - single).abs() < 1e-4,
                    "{}: graph {} batched {} vs single {}",
                    kind, k, batched[k], single
                );
            }
        }
    }
}
