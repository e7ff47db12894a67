//! Conversion from unified CFGs to tensor form, and mini-batch packing.
//!
//! [`PreparedGraph`] is the sparse (CSR) representation every scan and
//! training step runs on; [`GraphBatch`] packs `K` prepared graphs into one
//! block-diagonal operator set so a single tape forward/backward scores all
//! of them. Tests also build a dense `n x n` mirror of a prepared graph,
//! the reference the CSR path is checked against.

use scamdetect_ir::features::{dedup_edges_max, edge_list, node_feature_matrix, NODE_FEATURE_DIM};
use scamdetect_ir::UnifiedCfg;
use scamdetect_tensor::{CsrMatrix, CsrPair, Matrix};
use std::fmt;
use std::sync::Arc;

/// A malformed graph description rejected during preparation.
///
/// Graph preparation sits on the untrusted edge of the pipeline (CFG
/// frontends, synthetic generators, external callers building edge lists),
/// so structural problems surface as proper errors in every build profile —
/// not as `debug_assert`s that release builds skip.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint does not name a node of the feature matrix.
    EdgeOutOfRange {
        /// The offending `(src, dst)` endpoint pair.
        edge: (u32, u32),
        /// Number of nodes the feature matrix declares.
        nodes: usize,
    },
    /// An edge weight is NaN or infinite.
    NonFiniteWeight {
        /// The offending `(src, dst)` endpoint pair.
        edge: (u32, u32),
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EdgeOutOfRange {
                edge: (u, v),
                nodes,
            } => {
                write!(f, "edge ({u},{v}) out of range for {nodes} nodes")
            }
            GraphError::NonFiniteWeight { edge: (u, v) } => {
                write!(f, "edge ({u},{v}) has a non-finite weight")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A contract CFG prepared for GNN consumption: node features plus the
/// aggregation operators every supported architecture needs, precomputed
/// once in CSR form so training epochs and scan verdicts only do
/// `O(e · d)` sparse algebra — per-graph memory is `O(n + e)`, never
/// `O(n²)`.
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    /// Node features, `n x d` (shared: placed on tapes without copying).
    pub x: Arc<Matrix>,
    /// Weighted adjacency edge list `(src, dst, w)`, sorted by `(src, dst)`
    /// with parallel edges collapsed to the maximum weight.
    pub edges: Vec<(u32, u32, f32)>,
    /// Raw adjacency `A` (sum aggregation, GIN), with precomputed transpose.
    pub adj: CsrPair,
    /// Symmetric GCN normalisation `D̂^{-1/2} (Â) D̂^{-1/2}`.
    pub agg_gcn: CsrPair,
    /// Row-normalised `A` (mean aggregation, GraphSAGE).
    pub agg_mean: CsrPair,
    /// Attention structure `A + I` (GAT edge-wise softmax).
    pub mask: Arc<CsrMatrix>,
    /// Binary label.
    pub label: usize,
}

/// Dense mirror of [`PreparedGraph`]: the textbook `n x n` representation,
/// the reference the CSR path is tested against. All tensors are shared
/// handles so the dense path, too, never re-clones per forward pass.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct DenseGraph {
    /// Node features, `n x d`.
    pub x: Arc<Matrix>,
    /// Raw adjacency `A`.
    pub adj: Arc<Matrix>,
    /// Symmetric GCN normalisation.
    pub agg_gcn: Arc<Matrix>,
    /// Row-normalised `A`.
    pub agg_mean: Arc<Matrix>,
    /// Attention mask `A + I`.
    pub mask: Arc<Matrix>,
    /// Binary label.
    pub label: usize,
}

impl PreparedGraph {
    /// Prepares `cfg` with label `label`.
    ///
    /// Unresolved CFG edges are down-weighted to 0.25 so that policy-
    /// injected over-approximation does not drown the real structure. The
    /// dense `n x n` adjacency is never materialised on this path.
    pub fn from_cfg(cfg: &UnifiedCfg, label: usize) -> Self {
        let n = cfg.block_count();
        let x = Matrix::from_vec(n, NODE_FEATURE_DIM, node_feature_matrix(cfg));
        PreparedGraph::from_edges(x, edge_list(cfg, 0.25), label)
    }

    /// Prepares a graph directly from a feature matrix and dense adjacency
    /// (used by unit tests and synthetic ablations).
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not `n x n` for `x`'s `n` rows.
    pub fn from_parts(x: Matrix, adj: Matrix, label: usize) -> Self {
        let n = x.rows();
        assert_eq!(adj.shape(), (n, n), "adjacency must be n x n");
        let mut edges = Vec::new();
        for r in 0..n {
            for (c, &w) in adj.row(r).iter().enumerate() {
                if w != 0.0 {
                    edges.push((r as u32, c as u32, w));
                }
            }
        }
        PreparedGraph::from_edges(x, edges, label)
    }

    /// Prepares a graph from a feature matrix and a weighted edge list —
    /// the primary constructor; everything stays `O(n + e)`.
    ///
    /// Parallel edges collapse to the maximum weight (matching the dense
    /// adjacency semantics); non-positive weights are treated as absent
    /// edges, mirroring the dense `mask > 0` attention convention.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range for `x`'s `n` rows or a
    /// weight is non-finite — see [`PreparedGraph::try_from_edges`] for the
    /// fallible variant.
    pub fn from_edges(x: Matrix, edges: Vec<(u32, u32, f32)>, label: usize) -> Self {
        PreparedGraph::try_from_edges(x, edges, label).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PreparedGraph::from_edges`]: validates every edge in every
    /// build profile.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] when an endpoint does not name a row
    /// of `x`, [`GraphError::NonFiniteWeight`] when a weight is NaN or
    /// infinite. Release builds reject exactly what debug builds reject —
    /// out-of-range indices must never survive to index arithmetic inside
    /// the CSR kernels.
    pub fn try_from_edges(
        x: Matrix,
        mut edges: Vec<(u32, u32, f32)>,
        label: usize,
    ) -> Result<Self, GraphError> {
        let n = x.rows();
        for &(u, v, w) in &edges {
            if (u as usize) >= n || (v as usize) >= n {
                return Err(GraphError::EdgeOutOfRange {
                    edge: (u, v),
                    nodes: n,
                });
            }
            if !w.is_finite() {
                return Err(GraphError::NonFiniteWeight { edge: (u, v) });
            }
        }
        // Non-positive weights are indistinguishable from absent edges in
        // the dense formulation (the attention mask keeps entries > 0 only);
        // drop them so the CSR structure agrees on every path.
        edges.retain(|&(_, _, w)| w > 0.0);
        dedup_edges_max(&mut edges);

        let adj = CsrMatrix::from_edges(n, n, &edges);

        // A + I (directed; the GAT attention structure).
        let mut mask_edges = edges.clone();
        for i in 0..n as u32 {
            mask_edges.push((i, i, 1.0));
        }
        dedup_edges_max(&mut mask_edges);
        let mask = CsrMatrix::from_edges(n, n, &mask_edges);

        // GCN: D̂^{-1/2} Â D̂^{-1/2} over the *symmetrised* adjacency
        // Â = max(A, Aᵀ) + I — the standard way to apply spectral GCNs to
        // directed CFGs (information flows both along and against edges).
        let mut sym_edges: Vec<(u32, u32, f32)> = Vec::with_capacity(2 * edges.len() + n);
        for &(u, v, w) in &edges {
            if u != v {
                sym_edges.push((u, v, w));
                sym_edges.push((v, u, w));
            }
        }
        for i in 0..n as u32 {
            sym_edges.push((i, i, 1.0));
        }
        dedup_edges_max(&mut sym_edges);
        let mut deg = vec![0.0f32; n];
        for &(u, _, w) in &sym_edges {
            deg[u as usize] += w;
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let gcn_edges: Vec<(u32, u32, f32)> = sym_edges
            .iter()
            .map(|&(u, v, w)| (u, v, inv_sqrt[u as usize] * w * inv_sqrt[v as usize]))
            .collect();
        let agg_gcn = CsrMatrix::from_edges(n, n, &gcn_edges);

        // Mean aggregation: row-normalised A (rows without successors stay
        // zero; SAGE concatenates self features anyway).
        let mut row_sum = vec![0.0f32; n];
        for &(u, _, w) in &edges {
            row_sum[u as usize] += w;
        }
        let mean_edges: Vec<(u32, u32, f32)> = edges
            .iter()
            .filter(|&&(u, _, _)| row_sum[u as usize] > 0.0)
            .map(|&(u, v, w)| (u, v, w / row_sum[u as usize]))
            .collect();
        let agg_mean = CsrMatrix::from_edges(n, n, &mean_edges);

        Ok(PreparedGraph {
            x: Arc::new(x),
            edges,
            adj: CsrPair::new(adj),
            agg_gcn: CsrPair::new(agg_gcn),
            agg_mean: CsrPair::new(agg_mean),
            mask: Arc::new(mask),
            label,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.x.rows()
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.x.cols()
    }

    /// Number of adjacency edges (after parallel-edge collapsing).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
impl PreparedGraph {
    /// Expands to the dense reference representation.
    pub(crate) fn to_dense(&self) -> DenseGraph {
        DenseGraph {
            x: Arc::clone(&self.x),
            adj: Arc::new(self.adj.matrix().to_dense()),
            agg_gcn: Arc::new(self.agg_gcn.matrix().to_dense()),
            agg_mean: Arc::new(self.agg_mean.matrix().to_dense()),
            mask: Arc::new(self.mask.to_dense()),
            label: self.label,
        }
    }
}

#[cfg(test)]
impl DenseGraph {
    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.x.rows()
    }
}

/// `K` prepared graphs packed into one block-diagonal operator set.
///
/// Node features are stacked row-wise, every aggregator becomes one
/// block-diagonal CSR ([`CsrPair::block_diag`] — the precomputed per-graph
/// transposes are reused, nothing is re-sorted), and the per-graph node
/// ranges are kept as [`GraphBatch::offsets`] so the segment readouts pool
/// each graph to its own logits row. One tape forward/backward over a batch
/// scores all `K` graphs; because attention softmax normalises per CSR row
/// and no row couples two blocks, GAT batches with zero cross-graph
/// leakage. Per-graph results are independent of which other graphs share
/// the batch to float roundoff (kernel selection inside `matmul` depends
/// on operand size, so stacking can change the last ulp, nothing more).
///
/// # Examples
///
/// ```
/// use scamdetect_gnn::{GraphBatch, PreparedGraph};
/// use scamdetect_tensor::Matrix;
///
/// let a = PreparedGraph::from_parts(Matrix::identity(3), Matrix::zeros(3, 3), 0);
/// let b = PreparedGraph::from_parts(Matrix::identity(3), Matrix::zeros(3, 3), 1);
/// let batch = GraphBatch::pack(&[&a, &b]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.node_count(), 6);
/// assert_eq!(batch.node_range(1), 3..6);
/// assert_eq!(batch.labels(), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBatch {
    /// Stacked node features, `(Σ n_k) x d`.
    pub x: Arc<Matrix>,
    /// Block-diagonal raw adjacency (sum aggregation, GIN).
    pub adj: CsrPair,
    /// Block-diagonal GCN normalisation.
    pub agg_gcn: CsrPair,
    /// Block-diagonal row-normalised adjacency (mean aggregation, SAGE).
    pub agg_mean: CsrPair,
    /// Block-diagonal attention structure `A + I`.
    pub mask: Arc<CsrMatrix>,
    /// `K + 1` node offsets: graph `k` owns rows `offsets[k]..offsets[k+1]`.
    offsets: Vec<usize>,
    /// Per-graph binary labels, length `K`.
    labels: Vec<usize>,
}

impl GraphBatch {
    /// Packs `graphs` into one block-diagonal batch.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or the feature widths disagree.
    pub fn pack(graphs: &[&PreparedGraph]) -> Self {
        assert!(!graphs.is_empty(), "GraphBatch::pack: empty batch");
        let d = graphs[0].feature_dim();
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        offsets.push(0usize);
        let total: usize = graphs.iter().map(|g| g.node_count()).sum();
        let mut data = Vec::with_capacity(total * d);
        for g in graphs {
            assert_eq!(
                g.feature_dim(),
                d,
                "GraphBatch::pack: feature width mismatch ({} vs {d})",
                g.feature_dim()
            );
            offsets.push(offsets.last().expect("nonempty") + g.node_count());
            data.extend_from_slice(g.x.as_slice());
        }
        let pairs = |f: fn(&PreparedGraph) -> &CsrPair| {
            let blocks: Vec<&CsrPair> = graphs.iter().map(|g| f(g)).collect();
            CsrPair::block_diag(&blocks)
        };
        let masks: Vec<&CsrMatrix> = graphs.iter().map(|g| g.mask.as_ref()).collect();
        GraphBatch {
            x: Arc::new(Matrix::from_vec(total, d, data)),
            adj: pairs(|g| &g.adj),
            agg_gcn: pairs(|g| &g.agg_gcn),
            agg_mean: pairs(|g| &g.agg_mean),
            mask: Arc::new(CsrMatrix::block_diag(&masks)),
            offsets,
            labels: graphs.iter().map(|g| g.label).collect(),
        }
    }

    /// Number of graphs `K` in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` only for the unreachable zero-graph case ([`GraphBatch::pack`]
    /// rejects it); provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total stacked node count `Σ n_k`.
    pub fn node_count(&self) -> usize {
        self.x.rows()
    }

    /// The `K + 1` node offsets delimiting each graph's row range.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Node rows owned by graph `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn node_range(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k]..self.offsets[k + 1]
    }

    /// Per-graph labels, aligned with packing order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> PreparedGraph {
        // 0 -> 1 -> 2.
        let x = Matrix::identity(3);
        let mut adj = Matrix::zeros(3, 3);
        adj.set(0, 1, 1.0);
        adj.set(1, 2, 1.0);
        PreparedGraph::from_parts(x, adj, 1)
    }

    #[test]
    fn gcn_norm_is_symmetric_in_degree() {
        let g = chain3();
        let gcn = g.agg_gcn.matrix();
        // Self-loop entries: 1/d_i.
        assert!((gcn.get(0, 0) - 0.5).abs() < 1e-6); // deg 2
        assert!((gcn.get(1, 1) - 1.0 / 3.0).abs() < 1e-6); // deg 3
                                                           // Edge (0,1): 1/sqrt(2*3).
        assert!((gcn.get(0, 1) - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn mean_agg_rows_sum_to_one_or_zero() {
        let g = chain3();
        let mean = g.agg_mean.matrix();
        for i in 0..3 {
            let s: f32 = mean.row_vals(i).iter().sum();
            assert!(s == 0.0 || (s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
        // Terminal node 2 has no successors.
        assert_eq!(mean.row_vals(2).len(), 0);
    }

    #[test]
    fn mask_includes_self_loops() {
        let g = chain3();
        for i in 0..3 {
            assert_eq!(g.mask.get(i, i), 1.0);
        }
        assert_eq!(g.mask.get(0, 1), 1.0);
        assert_eq!(g.mask.get(1, 0), 0.0);
    }

    #[test]
    fn sparse_memory_is_edge_bound() {
        let g = chain3();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.adj.matrix().nnz(), 2);
        assert_eq!(g.mask.nnz(), 5); // 2 edges + 3 self-loops
        assert_eq!(g.agg_gcn.matrix().nnz(), 7); // symmetrised + diagonal
    }

    #[test]
    fn non_positive_weights_are_absent_edges() {
        // Matches the dense `mask > 0` convention on every aggregator.
        let x = Matrix::identity(2);
        let g = PreparedGraph::from_edges(x, vec![(0, 1, -1.0), (1, 0, 0.0)], 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.adj.matrix().nnz(), 0);
        assert_eq!(g.mask.nnz(), 2); // self-loops only
    }

    #[test]
    fn parallel_edges_collapse_to_max() {
        let x = Matrix::identity(2);
        let g = PreparedGraph::from_edges(x, vec![(0, 1, 0.25), (0, 1, 1.0)], 0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.adj.matrix().get(0, 1), 1.0);
    }

    #[test]
    fn dense_mirror_matches_csr() {
        let g = chain3();
        let d = g.to_dense();
        assert_eq!(*d.adj, g.adj.matrix().to_dense());
        assert_eq!(*d.agg_gcn, g.agg_gcn.matrix().to_dense());
        assert_eq!(*d.agg_mean, g.agg_mean.matrix().to_dense());
        assert_eq!(*d.mask, g.mask.to_dense());
        assert_eq!(d.label, g.label);
        assert_eq!(d.node_count(), 3);
    }

    #[test]
    fn from_cfg_produces_consistent_shapes() {
        use scamdetect_ir::{EvmFrontend, Frontend};
        // CALLVALUE PUSH1 7 JUMPI STOP; JUMPDEST STOP
        let code = [0x34, 0x60, 0x06, 0x57, 0x00, 0xfe, 0x5b, 0x00];
        let cfg = EvmFrontend::new().lift(&code).unwrap();
        let g = PreparedGraph::from_cfg(&cfg, 0);
        assert_eq!(g.node_count(), cfg.block_count());
        assert_eq!(g.feature_dim(), NODE_FEATURE_DIM);
        assert_eq!(g.adj.matrix().shape(), (g.node_count(), g.node_count()));
        assert!(g.edge_count() > 0);
    }

    #[test]
    #[should_panic(expected = "n x n")]
    fn shape_mismatch_panics() {
        PreparedGraph::from_parts(Matrix::zeros(3, 2), Matrix::zeros(2, 2), 0);
    }

    /// Regression: out-of-range endpoints must be rejected in *every* build
    /// profile — this test is part of the release-mode test run, where a
    /// `debug_assert` would be compiled out.
    #[test]
    fn out_of_range_edges_rejected_in_release_too() {
        let err = PreparedGraph::try_from_edges(Matrix::identity(2), vec![(0, 2, 1.0)], 0)
            .expect_err("dst out of range");
        assert_eq!(
            err,
            GraphError::EdgeOutOfRange {
                edge: (0, 2),
                nodes: 2
            }
        );
        let err = PreparedGraph::try_from_edges(Matrix::identity(2), vec![(5, 1, 1.0)], 0)
            .expect_err("src out of range");
        assert!(matches!(err, GraphError::EdgeOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn non_finite_weights_rejected() {
        for w in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = PreparedGraph::try_from_edges(Matrix::identity(2), vec![(0, 1, w)], 0)
                .expect_err("non-finite weight");
            assert_eq!(err, GraphError::NonFiniteWeight { edge: (0, 1) });
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_panics_on_out_of_range() {
        let _ = PreparedGraph::from_edges(Matrix::identity(2), vec![(0, 7, 1.0)], 0);
    }

    #[test]
    fn batch_packs_block_diagonal_operators() {
        let a = chain3();
        let b = PreparedGraph::from_edges(
            Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32),
            vec![(0, 1, 1.0)],
            0,
        );
        let batch = GraphBatch::pack(&[&a, &b]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.node_count(), 5);
        assert_eq!(batch.offsets(), &[0, 3, 5]);
        assert_eq!(batch.node_range(0), 0..3);
        assert_eq!(batch.node_range(1), 3..5);
        assert_eq!(batch.labels(), &[1, 0]);
        // Stacked features keep each graph's rows.
        assert_eq!(batch.x.row(0), a.x.row(0));
        assert_eq!(batch.x.row(3), b.x.row(0));
        // Operators are exactly the block diagonal of the per-graph ones.
        assert_eq!(batch.adj.matrix().get(0, 1), a.adj.matrix().get(0, 1));
        assert_eq!(batch.adj.matrix().get(3, 4), b.adj.matrix().get(0, 1));
        assert_eq!(batch.adj.matrix().get(0, 4), 0.0);
        assert_eq!(batch.adj.matrix().get(3, 0), 0.0);
        assert_eq!(
            batch.adj.matrix().nnz(),
            a.adj.matrix().nnz() + b.adj.matrix().nnz()
        );
        assert_eq!(batch.mask.nnz(), a.mask.nnz() + b.mask.nnz());
        // The batched backward operator is a genuine transpose.
        assert_eq!(
            batch.agg_gcn.transposed().to_dense(),
            batch.agg_gcn.matrix().to_dense().transpose()
        );
    }

    #[test]
    fn batch_of_one_is_the_graph_itself() {
        let g = chain3();
        let batch = GraphBatch::pack(&[&g]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.offsets(), &[0, 3]);
        assert_eq!(batch.adj.matrix().to_dense(), g.adj.matrix().to_dense());
        assert_eq!(batch.mask.to_dense(), g.mask.to_dense());
        assert_eq!(*batch.x, *g.x);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let _ = GraphBatch::pack(&[]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn mixed_feature_widths_rejected() {
        let a = PreparedGraph::from_parts(Matrix::identity(2), Matrix::zeros(2, 2), 0);
        let b = PreparedGraph::from_parts(Matrix::zeros(2, 3), Matrix::zeros(2, 2), 0);
        let _ = GraphBatch::pack(&[&a, &b]);
    }
}
