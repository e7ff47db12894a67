//! Dense matrices with reverse-mode automatic differentiation.
//!
//! ScamDetect's neural models (MLP baselines and the five GNN architectures)
//! are built from scratch on this crate. It provides:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the usual linear
//!   algebra (`matmul`, transpose, elementwise maps),
//! * [`CsrMatrix`] / [`CsrPair`] — compressed-sparse-row matrices with an
//!   `sparse @ dense` kernel ([`CsrMatrix::spmm`]) and a precomputed
//!   transpose for reverse mode,
//! * [`Tape`] / [`Var`] — an eager autodiff tape: every operation computes
//!   its value immediately and records a backward closure; calling
//!   [`Tape::backward`] accumulates gradients for every variable that
//!   requires them,
//! * [`optim`] — SGD and Adam optimizers over a [`Parameters`] store,
//! * [`init`] — seeded Xavier/He initialisation,
//! * [`io`] — the hand-rolled little-endian persistence codec: the
//!   [`ParamIo`] state export/import trait, named [`Sections`], and raw
//!   [`Matrix`] read/write ([`Matrix::write_le`] / [`Matrix::read_le`])
//!   backing the versioned `ModelArtifact` format upstream.
//!
//! # Sparse message passing
//!
//! Contract CFGs are sparse — a handful of successors per basic block — so
//! the GNN aggregation operators are kept in CSR form and applied with
//! [`Tape::spmm`] (`O(nnz · d)` per layer instead of `O(n² · d)`), whose
//! backward pass `gX = Aᵀ @ g_out` reuses the transpose precomputed in a
//! [`CsrPair`]. GAT attention follows the same structure edge-wise:
//! [`Tape::edge_score_sum`] gathers per-edge scores,
//! [`Tape::edge_softmax`] normalises them per source row, and
//! [`Tape::edge_gather`] scatters the weighted neighbour features — no
//! `n x n` score matrix or mask is ever materialised. Dense mirrors of
//! these ops ([`Tape::matmul`], [`Tape::masked_softmax_rows`]) remain as
//! the references the equivalence tests check the sparse ops against.
//! Shared per-graph tensors are placed on a tape via
//! [`Tape::constant_shared`], which interns `Arc` handles so repeated
//! forward passes never clone them.
//!
//! # Mini-batch training
//!
//! Multiple graphs train on one tape by stacking their aggregators into a
//! block-diagonal operator ([`CsrMatrix::block_diag`] /
//! [`CsrPair::block_diag`], which reuses the per-block precomputed
//! transposes) and pooling per graph with the segment readouts
//! ([`Tape::segment_mean_rows`], [`Tape::segment_sum_rows`],
//! [`Tape::segment_max_rows`]), each of which reduces the row range of one
//! graph to one output row with exact gradients. [`Tape::edge_softmax`]
//! normalises per CSR row, so attention over a block-diagonal structure is
//! already per-segment — no cross-graph mass can leak.
//!
//! # Examples
//!
//! Training `y = 2x` with one weight:
//!
//! ```
//! use scamdetect_tensor::{Matrix, Parameters, Tape, optim::Sgd};
//!
//! let mut params = Parameters::new();
//! let w = params.add("w", Matrix::from_vec(1, 1, vec![0.0]));
//! let mut sgd = Sgd::new(0.1);
//! for _ in 0..100 {
//!     let tape = Tape::new();
//!     let vars = params.bind(&tape);
//!     let x = tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
//!     let y = tape.matmul(x, vars[w.index()]);
//!     let target = tape.constant(Matrix::from_vec(1, 1, vec![6.0]));
//!     let diff = tape.sub(y, target);
//!     let loss = tape.mul(diff, diff);
//!     let grads = tape.backward(loss);
//!     sgd.step(&mut params, |id| grads.of(vars[id.index()]));
//! }
//! assert!((params.get(w).get(0, 0) - 2.0).abs() < 1e-3);
//! ```

pub mod init;
pub mod io;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod sparse;
pub mod tape;

pub use io::{ByteReader, ByteWriter, CodecError, ParamIo, Sections};
pub use matrix::Matrix;
pub use params::{ParamId, Parameters};
pub use sparse::{CsrMatrix, CsrPair};
pub use tape::{Gradients, Tape, Var};
