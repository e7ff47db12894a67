//! Graph neural networks over control-flow graphs.
//!
//! The paper's Phase 1 (§V-A) proposes detecting obfuscated contracts with
//! GNNs over CFGs, naming five architectures: **GCN** \[13\], **GAT** \[20\],
//! **GIN** \[21\], **TAG** \[5\] and **GraphSAGE** \[8\]. This crate implements
//! all five from scratch on the autodiff tensor substrate, with the exact
//! layer equations of the cited papers:
//!
//! * GCN:  `H' = σ(D̂^{-1/2} Â D̂^{-1/2} H W)`
//! * GAT:  multi-head masked-softmax attention, LeakyReLU(0.2), ELU
//! * GIN:  `H' = MLP((1 + ε) H + A H)`, ε learnable
//! * TAG:  `H' = σ(Σ_{k=0}^{K} P^k H W_k)`
//! * SAGE: `H' = σ([H ‖ mean(A, H)] W)`
//!
//! followed by a mean/max/sum readout and a linear head.
//!
//! # Sparse message passing
//!
//! Contract CFGs are sparse (a handful of successors per basic block), so
//! [`PreparedGraph`] keeps every aggregation operator in CSR form
//! (`scamdetect_tensor::CsrPair`) and the forward pass runs
//! `Tape::spmm` — `O(e · d)` per layer and `O(n + e)` per-graph memory.
//! GAT attention is computed edge-wise over the `A + I` structure
//! (per-edge score gather → per-row softmax → weighted neighbour gather),
//! so the `n x n` score matrix of the textbook formulation never exists.
//! This CSR path is the implementation: [`GnnClassifier::score`],
//! [`GnnClassifier::score_batch`], [`train`] and the scan pipeline all run
//! it. The textbook dense `n x n` formulation exists only in this crate's
//! tests, as the reference the CSR path must match to float roundoff.
//!
//! # Mini-batch training
//!
//! Training packs each gradient step's graphs into one block-diagonal
//! [`GraphBatch`] — stacked node features, offset edge structure, segment
//! readouts pooling each graph's node range to its own logits row — so a
//! single tape forward/backward scores `K` graphs at once. [`train`] is
//! this batched path ([`BatchTrainConfig`] adds seeded shuffling, optional
//! length-bucketing and a per-batch node cap); the per-graph training loop
//! is a test reference it must track. Per-graph logits are independent of
//! batch composition to float roundoff.
//!
//! # Examples
//!
//! Train a GCN on a structurally separable toy set:
//!
//! ```
//! use scamdetect_gnn::{
//!     trainer::{accuracy, synthetic_structural_dataset, train, BatchTrainConfig},
//!     GnnClassifier, GnnConfig, GnnKind,
//! };
//!
//! let data = synthetic_structural_dataset(20, 6, 1);
//! let mut model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6).with_hidden(8));
//! let cfg = BatchTrainConfig { epochs: 40, lr: 2e-2, ..BatchTrainConfig::default() };
//! train(&mut model, &data, &cfg);
//! assert!(accuracy(&model, &data) > 0.5);
//! ```
//!
//! Score a whole batch in one forward pass:
//!
//! ```
//! use scamdetect_gnn::{GnnClassifier, GnnConfig, GnnKind, GraphBatch, PreparedGraph};
//! use scamdetect_tensor::Matrix;
//!
//! let g0 = PreparedGraph::from_parts(Matrix::identity(4), Matrix::zeros(4, 4), 0);
//! let g1 = PreparedGraph::from_parts(Matrix::zeros(3, 4), Matrix::zeros(3, 3), 1);
//! let model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 4));
//! let scores = model.score_batch(&GraphBatch::pack(&[&g0, &g1]));
//! assert_eq!(scores.len(), 2);
//! assert!((scores[0] - model.score(&g0)).abs() < 1e-6);
//! ```

pub mod graph_batch;
pub mod model;
pub mod trainer;

#[cfg(test)]
mod batch_equiv;
#[cfg(test)]
mod dense_sparse_equiv;

pub use graph_batch::{GraphBatch, GraphError, PreparedGraph};
pub use model::{GnnClassifier, GnnConfig, GnnKind, Readout};
pub use trainer::{accuracy, evaluate, train, BatchTrainConfig, TrainHistory};
