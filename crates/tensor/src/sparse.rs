//! Sparse matrices in compressed sparse row (CSR) form.
//!
//! Contract CFGs have a handful of successors per block, so their
//! aggregation operators are overwhelmingly zero. [`CsrMatrix`] stores only
//! the nonzeros and performs the one product GNN message passing needs —
//! `sparse @ dense` ([`CsrMatrix::spmm`]) — in `O(nnz · d)` instead of
//! `O(n² · d)`. [`CsrPair`] bundles a matrix with its precomputed transpose
//! so reverse-mode autodiff (`gX = Aᵀ @ g_out`) never re-transposes inside
//! the training loop.

use crate::matrix::Matrix;
use std::fmt;
use std::sync::Arc;

/// A sparse `f32` matrix in compressed sparse row form.
///
/// Within each row, column indices are strictly increasing; duplicate
/// coordinates passed to [`CsrMatrix::from_edges`] are combined by
/// summation (standard COO → CSR semantics).
///
/// # Examples
///
/// ```
/// use scamdetect_tensor::{CsrMatrix, Matrix};
///
/// // [[0, 2], [0, 0]] @ [[1, 1], [3, 5]] = [[6, 10], [0, 0]]
/// let a = CsrMatrix::from_edges(2, 2, &[(0, 1, 2.0)]);
/// let x = Matrix::from_vec(2, 2, vec![1.0, 1.0, 3.0, 5.0]);
/// assert_eq!(a.spmm(&x).as_slice(), &[6.0, 10.0, 0.0, 0.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx` / `vals`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} ({} nnz)",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from an unordered `(row, col, value)` edge list.
    ///
    /// Duplicate coordinates are summed; explicit zeros are kept (callers
    /// that want them dropped should filter first).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_edges(rows: usize, cols: usize, edges: &[(u32, u32, f32)]) -> Self {
        let mut sorted: Vec<(u32, u32, f32)> = edges.to_vec();
        for &(r, c, _) in &sorted {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "from_edges: coordinate ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        // Graph preparation hands over lists that are already strictly
        // sorted and duplicate-free; skip the O(e log e) normalisation then.
        let strictly_sorted = sorted
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
        if !strictly_sorted {
            sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
            sorted.dedup_by(|cur, prev| {
                if prev.0 == cur.0 && prev.1 == cur.1 {
                    prev.2 += cur.2;
                    true
                } else {
                    false
                }
            });
        }

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        row_ptr.push(0);
        let mut k = 0usize;
        for r in 0..rows as u32 {
            while k < sorted.len() && sorted[k].0 == r {
                col_idx.push(sorted[k].1);
                vals.push(sorted[k].2);
                k += 1;
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Stacks `blocks` into one block-diagonal CSR matrix.
    ///
    /// Block `k` occupies the row range `[Σ rows_{<k}, Σ rows_{≤k})` and the
    /// column range `[Σ cols_{<k}, Σ cols_{≤k})`; no entries couple distinct
    /// blocks. This is the packing step of mini-batched GNN training: `K`
    /// per-graph aggregators become one operator whose single `spmm` scores
    /// all `K` graphs at once. Runs in `O(Σ nnz + Σ rows)` — the per-block
    /// CSR arrays are copied with offsets, never re-sorted.
    pub fn block_diag(blocks: &[&CsrMatrix]) -> CsrMatrix {
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        row_ptr.push(0u32);
        let mut col_off = 0u32;
        let mut nnz_off = 0u32;
        for b in blocks {
            row_ptr.extend(b.row_ptr[1..].iter().map(|&p| p + nnz_off));
            col_idx.extend(b.col_idx.iter().map(|&c| c + col_off));
            vals.extend_from_slice(&b.vals);
            col_off += b.cols as u32;
            nnz_off += b.nnz() as u32;
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Builds a CSR matrix from the nonzeros of a dense matrix.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut edges = Vec::new();
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    edges.push((r as u32, c as u32, v));
                }
            }
        }
        CsrMatrix::from_edges(m.rows(), m.cols(), &edges)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Half-open index range of row `r` into [`Self::col_indices`] /
    /// [`Self::values`].
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
    }

    /// Column indices of row `r` (strictly increasing).
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_range(r)]
    }

    /// Values of row `r`, aligned with [`Self::row_cols`].
    #[inline]
    pub fn row_vals(&self, r: usize) -> &[f32] {
        &self.vals[self.row_range(r)]
    }

    /// All column indices in CSR order.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// All stored values in CSR order.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.vals
    }

    /// Iterates over `(row, col, value)` in CSR order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r))
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Entry at (`r`,`c`); zero when not stored.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let cols = self.row_cols(r);
        match cols.binary_search(&(c as u32)) {
            Ok(k) => self.row_vals(r)[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse-dense product `self @ x` in `O(nnz · x.cols())`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != x.rows`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            x.rows(),
            "spmm: {}x{} @ {}x{} shape mismatch",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        let d = x.cols();
        let mut out = Matrix::zeros(self.rows, d);
        let out_data = out.as_mut_slice();
        for r in 0..self.rows {
            let orow = &mut out_data[r * d..(r + 1) * d];
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
                let xrow = x.row(c as usize);
                for (o, xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Transposed copy (counting sort over columns, `O(nnz + cols)`).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0u32; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f32; self.nnz()];
        let mut next = counts;
        for (r, c, v) in self.iter() {
            let slot = next[c] as usize;
            col_idx[slot] = r as u32;
            vals[slot] = v;
            next[c] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Expands to a dense matrix (tests and the dense GNN reference).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m.set(r, c, v);
        }
        m
    }
}

/// A CSR matrix paired with its precomputed transpose.
///
/// [`crate::Tape::spmm`] records `A @ X` forward and replays
/// `gX = Aᵀ @ g_out` backward; precomputing `Aᵀ` once per graph means the
/// training loop never re-sorts the structure. Clones are cheap (`Arc`).
#[derive(Debug, Clone)]
pub struct CsrPair {
    fwd: Arc<CsrMatrix>,
    bwd: Arc<CsrMatrix>,
}

impl CsrPair {
    /// Wraps `a`, computing its transpose once.
    pub fn new(a: CsrMatrix) -> Self {
        let t = a.transpose();
        CsrPair {
            fwd: Arc::new(a),
            bwd: Arc::new(t),
        }
    }

    /// The matrix itself.
    #[inline]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.fwd
    }

    /// The precomputed transpose.
    #[inline]
    pub fn transposed(&self) -> &CsrMatrix {
        &self.bwd
    }

    /// Shared handle to the matrix (for tape closures).
    #[inline]
    pub fn matrix_arc(&self) -> &Arc<CsrMatrix> {
        &self.fwd
    }

    /// Stacks `pairs` into one block-diagonal pair.
    ///
    /// Because the transpose of a block-diagonal matrix is the block
    /// diagonal of the per-block transposes (in the same block order), the
    /// batched backward operator is assembled from the transposes already
    /// precomputed inside each pair — packing a training batch never
    /// re-transposes anything.
    pub fn block_diag(pairs: &[&CsrPair]) -> CsrPair {
        let fwd: Vec<&CsrMatrix> = pairs.iter().map(|p| p.matrix()).collect();
        let bwd: Vec<&CsrMatrix> = pairs.iter().map(|p| p.transposed()).collect();
        CsrPair {
            fwd: Arc::new(CsrMatrix::block_diag(&fwd)),
            bwd: Arc::new(CsrMatrix::block_diag(&bwd)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[0, 2, 0], [1, 0, 3], [0, 0, 0]]
        CsrMatrix::from_edges(3, 3, &[(1, 2, 3.0), (0, 1, 2.0), (1, 0, 1.0)])
    }

    #[test]
    fn from_edges_sorts_and_indexes() {
        let a = sample();
        assert_eq!(a.shape(), (3, 3));
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(1, 2), 3.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.row_cols(1), &[0, 2]);
        assert_eq!(a.row_cols(2), &[] as &[u32]);
    }

    #[test]
    fn duplicate_edges_sum() {
        let a = CsrMatrix::from_edges(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 0), 3.5);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = sample();
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 3.0);
        assert_eq!(a.spmm(&x), a.to_dense().matmul(&x));
    }

    #[test]
    fn transpose_roundtrip_and_values() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(2, 1), 3.0);
        assert_eq!(t.transpose().to_dense(), a.to_dense());
        assert_eq!(t.to_dense(), a.to_dense().transpose());
    }

    #[test]
    fn dense_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![0.0, 1.5, 0.0, -2.0, 0.0, 4.0]);
        let a = CsrMatrix::from_dense(&m);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.to_dense(), m);
    }

    #[test]
    fn empty_matrix_spmm() {
        let a = CsrMatrix::from_edges(2, 3, &[]);
        let x = Matrix::filled(3, 2, 1.0);
        assert_eq!(a.spmm(&x), Matrix::zeros(2, 2));
    }

    #[test]
    fn pair_precomputes_transpose() {
        let p = CsrPair::new(sample());
        assert_eq!(p.transposed().to_dense(), p.matrix().to_dense().transpose());
    }

    #[test]
    fn block_diag_places_blocks_on_the_diagonal() {
        let a = sample(); // 3x3
        let b = CsrMatrix::from_edges(2, 2, &[(0, 1, 7.0), (1, 0, -1.0)]);
        let empty = CsrMatrix::from_edges(1, 1, &[]);
        let d = CsrMatrix::block_diag(&[&a, &empty, &b]);
        assert_eq!(d.shape(), (6, 6));
        assert_eq!(d.nnz(), a.nnz() + b.nnz());
        // Block A in the top-left, untouched.
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 2), 3.0);
        // Block B offset by 3 (A) + 1 (empty) rows/cols.
        assert_eq!(d.get(4, 5), 7.0);
        assert_eq!(d.get(5, 4), -1.0);
        // No cross-block coupling.
        assert_eq!(d.get(0, 4), 0.0);
        assert_eq!(d.get(4, 0), 0.0);
    }

    #[test]
    fn block_diag_matches_dense_construction() {
        let a = sample();
        let b = CsrMatrix::from_edges(2, 3, &[(1, 2, 4.0)]);
        let d = CsrMatrix::block_diag(&[&a, &b]);
        let mut dense = Matrix::zeros(5, 6);
        for (r, c, v) in a.iter() {
            dense.set(r, c, v);
        }
        for (r, c, v) in b.iter() {
            dense.set(r + 3, c + 3, v);
        }
        assert_eq!(d.to_dense(), dense);
        // spmm over the packed operator equals per-block spmm stacked.
        let x = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32 - 4.0);
        assert_eq!(d.spmm(&x), d.to_dense().matmul(&x));
    }

    #[test]
    fn block_diag_of_nothing_is_empty() {
        let d = CsrMatrix::block_diag(&[]);
        assert_eq!(d.shape(), (0, 0));
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn pair_block_diag_reuses_transposes() {
        let p1 = CsrPair::new(sample());
        let p2 = CsrPair::new(CsrMatrix::from_edges(2, 2, &[(0, 1, 5.0)]));
        let packed = CsrPair::block_diag(&[&p1, &p2]);
        assert_eq!(
            packed.transposed().to_dense(),
            packed.matrix().to_dense().transpose()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_out_of_bounds() {
        let _ = CsrMatrix::from_edges(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "spmm")]
    fn spmm_shape_mismatch_panics() {
        let _ = sample().spmm(&Matrix::zeros(2, 2));
    }
}
