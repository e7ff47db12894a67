//! Eager reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every differentiable operation as it is evaluated.
//! [`Tape::backward`] then walks the record in reverse, multiplying local
//! Jacobians, and returns a [`Gradients`] table addressed by [`Var`].

use crate::matrix::Matrix;
use crate::sparse::{CsrMatrix, CsrPair};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var`s are cheap copies and only meaningful for the tape that created
/// them; mixing tapes panics on the first shape mismatch or out-of-bounds
/// access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    id: u32,
}

impl Var {
    #[inline]
    fn index(self) -> usize {
        self.id as usize
    }
}

type BackwardFn = Box<dyn Fn(&Matrix, &[&Matrix], &Matrix, &[bool]) -> Vec<Option<Matrix>>>;

struct Step {
    out: usize,
    inputs: Vec<usize>,
    backward: BackwardFn,
}

#[derive(Default)]
struct Inner {
    values: Vec<Arc<Matrix>>,
    needs_grad: Vec<bool>,
    steps: Vec<Step>,
    /// Interned shared constants, keyed by `Arc` pointer identity: recording
    /// the same `Arc<Matrix>` twice on one tape yields the same `Var`
    /// instead of a second copy.
    interned: HashMap<usize, Var>,
}

/// Gradient table produced by [`Tape::backward`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if `v` required one.
    pub fn of(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.index()).and_then(|g| g.as_ref())
    }
}

/// An autodiff tape.
///
/// All operations are methods on the tape so the recording is explicit at
/// every call site. Values are computed eagerly; nothing is lazy.
///
/// # Examples
///
/// ```
/// use scamdetect_tensor::{Matrix, Tape};
///
/// let tape = Tape::new();
/// let x = tape.leaf(Matrix::row_vector(&[2.0]));
/// let y = tape.mul(x, x); // y = x^2
/// let grads = tape.backward(y);
/// assert_eq!(grads.of(x).unwrap().get(0, 0), 4.0); // dy/dx = 2x
/// ```
#[derive(Default)]
pub struct Tape {
    inner: RefCell<Inner>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn push_value(&self, m: Matrix, needs_grad: bool) -> Var {
        self.push_arc(Arc::new(m), needs_grad)
    }

    fn push_arc(&self, m: Arc<Matrix>, needs_grad: bool) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.values.len() as u32;
        inner.values.push(m);
        inner.needs_grad.push(needs_grad);
        Var { id }
    }

    /// Records a constant: no gradient will be computed for it.
    pub fn constant(&self, m: Matrix) -> Var {
        self.push_value(m, false)
    }

    /// Records a shared constant without copying its data.
    ///
    /// The `Arc` is interned by pointer identity: recording the same handle
    /// again on this tape returns the original `Var`. This is how per-graph
    /// tensors (node features, dense aggregators) are placed on a training
    /// tape in O(1) instead of an O(n²) clone per forward pass.
    pub fn constant_shared(&self, m: &Arc<Matrix>) -> Var {
        let key = Arc::as_ptr(m) as usize;
        if let Some(&v) = self.inner.borrow().interned.get(&key) {
            return v;
        }
        let v = self.push_arc(Arc::clone(m), false);
        self.inner.borrow_mut().interned.insert(key, v);
        v
    }

    /// Records a differentiable leaf (a parameter or input requiring grad).
    pub fn leaf(&self, m: Matrix) -> Var {
        self.push_value(m, true)
    }

    /// Clones the current value of `v` off the tape.
    pub fn value(&self, v: Var) -> Matrix {
        self.inner.borrow().values[v.index()].as_ref().clone()
    }

    /// Shape of `v` without cloning.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.inner.borrow().values[v.index()].shape()
    }

    /// Number of recorded values (diagnostic).
    pub fn len(&self) -> usize {
        self.inner.borrow().values.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, inputs: Vec<Var>, out: Matrix, backward: BackwardFn) -> Var {
        let needs = {
            let inner = self.inner.borrow();
            inputs.iter().any(|v| inner.needs_grad[v.index()])
        };
        let out_var = self.push_value(out, needs);
        if needs {
            self.inner.borrow_mut().steps.push(Step {
                out: out_var.index(),
                inputs: inputs.iter().map(|v| v.index()).collect(),
                backward,
            });
        }
        out_var
    }

    // ------------------------------------------------------------------
    // Binary ops
    // ------------------------------------------------------------------

    /// Matrix product `a @ b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            inner.values[a.index()].matmul(inner.values[b.index()].as_ref())
        };
        self.record(
            vec![a, b],
            out,
            Box::new(|gout, ins, _, needs| {
                let (a, b) = (ins[0], ins[1]);
                // Transpose-free gradient products: `g_out @ bᵀ` and
                // `aᵀ @ g_out` read every operand in row-major order, which
                // matters most for the large stacked activations of a
                // block-diagonal training batch.
                let ga = needs[0].then(|| gout.matmul_bt(b));
                let gb = needs[1].then(|| a.matmul_at(gout));
                vec![ga, gb]
            }),
        )
    }

    /// Elementwise sum `a + b` (same shape).
    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            inner.values[a.index()].as_ref() + inner.values[b.index()].as_ref()
        };
        self.record(
            vec![a, b],
            out,
            Box::new(|gout, _, _, needs| {
                vec![
                    needs[0].then(|| gout.clone()),
                    needs[1].then(|| gout.clone()),
                ]
            }),
        )
    }

    /// Elementwise difference `a - b` (same shape).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            inner.values[a.index()].as_ref() - inner.values[b.index()].as_ref()
        };
        self.record(
            vec![a, b],
            out,
            Box::new(|gout, _, _, needs| {
                vec![
                    needs[0].then(|| gout.clone()),
                    needs[1].then(|| gout.scale(-1.0)),
                ]
            }),
        )
    }

    /// Elementwise (Hadamard) product `a ⊙ b`.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            inner.values[a.index()].hadamard(inner.values[b.index()].as_ref())
        };
        self.record(
            vec![a, b],
            out,
            Box::new(|gout, ins, _, needs| {
                vec![
                    needs[0].then(|| gout.hadamard(ins[1])),
                    needs[1].then(|| gout.hadamard(ins[0])),
                ]
            }),
        )
    }

    /// Broadcast add of a `1 x d` bias row onto every row of `h` (`n x d`).
    pub fn add_bias(&self, h: Var, bias: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let hm = &inner.values[h.index()];
            let bm = &inner.values[bias.index()];
            assert_eq!(bm.rows(), 1, "add_bias: bias must be 1 x d");
            assert_eq!(hm.cols(), bm.cols(), "add_bias: width mismatch");
            let d = hm.cols();
            let mut out = hm.as_ref().clone();
            let brow = bm.row(0);
            for orow in out.as_mut_slice().chunks_exact_mut(d.max(1)) {
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += bv;
                }
            }
            out
        };
        self.record(
            vec![h, bias],
            out,
            Box::new(|gout, _, _, needs| {
                vec![
                    needs[0].then(|| gout.clone()),
                    needs[1].then(|| gout.col_sums()),
                ]
            }),
        )
    }

    /// Multiplies `m` by a learnable `1 x 1` scalar `s`.
    pub fn scalar_mul(&self, s: Var, m: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let sv = inner.values[s.index()].get(0, 0);
            inner.values[m.index()].scale(sv)
        };
        self.record(
            vec![s, m],
            out,
            Box::new(|gout, ins, _, needs| {
                let gs =
                    needs[0].then(|| Matrix::from_vec(1, 1, vec![gout.hadamard(ins[1]).sum()]));
                let gm = needs[1].then(|| gout.scale(ins[0].get(0, 0)));
                vec![gs, gm]
            }),
        )
    }

    /// Concatenates `a` (`n x d1`) and `b` (`n x d2`) along columns.
    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let am = &inner.values[a.index()];
            let bm = &inner.values[b.index()];
            assert_eq!(am.rows(), bm.rows(), "concat_cols: row mismatch");
            let (d1, d2) = (am.cols(), bm.cols());
            let mut out = Matrix::zeros(am.rows(), d1 + d2);
            let data = out.as_mut_slice();
            for r in 0..am.rows() {
                let base = r * (d1 + d2);
                data[base..base + d1].copy_from_slice(am.row(r));
                data[base + d1..base + d1 + d2].copy_from_slice(bm.row(r));
            }
            out
        };
        self.record(
            vec![a, b],
            out,
            Box::new(|gout, ins, _, needs| {
                let d1 = ins[0].cols();
                let d2 = gout.cols() - d1;
                let split = |off: usize, d: usize| {
                    let mut m = Matrix::zeros(gout.rows(), d);
                    let data = m.as_mut_slice();
                    for r in 0..gout.rows() {
                        data[r * d..(r + 1) * d].copy_from_slice(&gout.row(r)[off..off + d]);
                    }
                    m
                };
                let ga = needs[0].then(|| split(0, d1));
                let gb = needs[1].then(|| split(d1, d2));
                vec![ga, gb]
            }),
        )
    }

    /// Outer sum of two `n x 1` columns: `out[i][j] = u[i] + v[j]`.
    ///
    /// This is the pre-activation attention score matrix of GAT.
    pub fn outer_sum(&self, u: Var, v: Var) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let um = &inner.values[u.index()];
            let vm = &inner.values[v.index()];
            assert_eq!(um.cols(), 1, "outer_sum: u must be n x 1");
            assert_eq!(vm.cols(), 1, "outer_sum: v must be n x 1");
            assert_eq!(um.rows(), vm.rows(), "outer_sum: length mismatch");
            Matrix::from_fn(um.rows(), vm.rows(), |i, j| um.get(i, 0) + vm.get(j, 0))
        };
        self.record(
            vec![u, v],
            out,
            Box::new(|gout, _, _, needs| {
                let gu = needs[0].then(|| gout.row_sums());
                let gv = needs[1].then(|| gout.col_sums().transpose());
                vec![gu, gv]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Sparse message passing
    // ------------------------------------------------------------------

    /// Sparse-dense product `A @ x` where `A` is a constant CSR aggregator.
    ///
    /// The backward pass is `gX = Aᵀ @ g_out`, served by the transpose
    /// precomputed inside the [`CsrPair`] — no per-step transposition and no
    /// dense `n x n` materialisation anywhere.
    pub fn spmm(&self, a: &CsrPair, x: Var) -> Var {
        let out = a.matrix().spmm(&self.inner.borrow().values[x.index()]);
        let pair = a.clone();
        self.record(
            vec![x],
            out,
            Box::new(move |gout, _, _, needs| vec![needs[0].then(|| pair.transposed().spmm(gout))]),
        )
    }

    /// Per-edge score gather `out[k] = u[row(k)] + v[col(k)]` over the edges
    /// of `structure`, in CSR order. `u` and `v` are `n x 1`; the result is
    /// `nnz x 1`.
    ///
    /// This is the sparse counterpart of [`Tape::outer_sum`]: instead of the
    /// full `n x n` pre-activation attention matrix, only the entries that
    /// the GAT mask would keep are ever produced.
    pub fn edge_score_sum(&self, u: Var, v: Var, structure: &Arc<CsrMatrix>) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let um = inner.values[u.index()].as_ref();
            let vm = inner.values[v.index()].as_ref();
            assert_eq!(um.cols(), 1, "edge_score_sum: u must be n x 1");
            assert_eq!(vm.cols(), 1, "edge_score_sum: v must be n x 1");
            assert_eq!(um.rows(), structure.rows(), "edge_score_sum: u length");
            assert_eq!(vm.rows(), structure.cols(), "edge_score_sum: v length");
            let mut data = Vec::with_capacity(structure.nnz());
            let us = um.as_slice();
            let vs = vm.as_slice();
            for (r, &ur) in us.iter().enumerate() {
                for &c in structure.row_cols(r) {
                    data.push(ur + vs[c as usize]);
                }
            }
            Matrix::from_vec(structure.nnz(), 1, data)
        };
        let s = Arc::clone(structure);
        self.record(
            vec![u, v],
            out,
            Box::new(move |gout, ins, _, needs| {
                let g = gout.as_slice();
                let gu = needs[0].then(|| {
                    let mut m = Matrix::zeros(ins[0].rows(), 1);
                    for (r, slot) in m.as_mut_slice().iter_mut().enumerate() {
                        *slot = s.row_range(r).map(|k| g[k]).sum();
                    }
                    m
                });
                let gv = needs[1].then(|| {
                    let mut m = Matrix::zeros(ins[1].rows(), 1);
                    let md = m.as_mut_slice();
                    for r in 0..s.rows() {
                        for (k, &c) in s.row_range(r).zip(s.row_cols(r)) {
                            md[c as usize] += g[k];
                        }
                    }
                    m
                });
                vec![gu, gv]
            }),
        )
    }

    /// Softmax of per-edge `scores` (`nnz x 1`, CSR order) normalised within
    /// each row segment of `structure`.
    ///
    /// Rows of `structure` without edges contribute nothing; together with
    /// [`Tape::edge_gather`] this reproduces [`Tape::masked_softmax_rows`]
    /// exactly — isolated nodes end up with an all-zero attention row —
    /// without ever touching the `n x n` mask.
    pub fn edge_softmax(&self, scores: Var, structure: &Arc<CsrMatrix>) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let sm = inner.values[scores.index()].as_ref();
            assert_eq!(
                sm.shape(),
                (structure.nnz(), 1),
                "edge_softmax: scores must be nnz x 1"
            );
            let mut data = sm.as_slice().to_vec();
            for r in 0..structure.rows() {
                let seg = structure.row_range(r);
                if seg.is_empty() {
                    continue;
                }
                let mx = data[seg.clone()].iter().copied().fold(f32::MIN, f32::max);
                let mut denom = 0.0;
                for x in &mut data[seg.clone()] {
                    *x = (*x - mx).exp();
                    denom += *x;
                }
                for x in &mut data[seg] {
                    *x /= denom;
                }
            }
            Matrix::from_vec(structure.nnz(), 1, data)
        };
        let s = Arc::clone(structure);
        self.record(
            vec![scores],
            out,
            Box::new(move |gout, _, outv, needs| {
                vec![needs[0].then(|| {
                    // Per segment: g_k = α_k (gout_k − Σ_l α_l gout_l).
                    let alpha = outv.as_slice();
                    let g = gout.as_slice();
                    let mut res = vec![0.0f32; alpha.len()];
                    for r in 0..s.rows() {
                        let seg = s.row_range(r);
                        let dot: f32 = seg.clone().map(|k| alpha[k] * g[k]).sum();
                        for k in seg {
                            res[k] = alpha[k] * (g[k] - dot);
                        }
                    }
                    Matrix::from_vec(alpha.len(), 1, res)
                })]
            }),
        )
    }

    /// Edge-weighted neighbourhood gather:
    /// `out[i] = Σ_{k ∈ row(i)} alpha[k] · z[col(k)]`.
    ///
    /// `alpha` is `nnz x 1` (CSR order over `structure`), `z` is `n x d`;
    /// the result is `n x d`. This is the sparse `α @ Z` of GAT.
    pub fn edge_gather(&self, alpha: Var, z: Var, structure: &Arc<CsrMatrix>) -> Var {
        let out = {
            let inner = self.inner.borrow();
            let am = inner.values[alpha.index()].as_ref();
            let zm = inner.values[z.index()].as_ref();
            assert_eq!(
                am.shape(),
                (structure.nnz(), 1),
                "edge_gather: alpha must be nnz x 1"
            );
            assert_eq!(zm.rows(), structure.cols(), "edge_gather: z row count");
            let d = zm.cols();
            let mut outm = Matrix::zeros(structure.rows(), d);
            let a = am.as_slice();
            let data = outm.as_mut_slice();
            for r in 0..structure.rows() {
                let orow = &mut data[r * d..(r + 1) * d];
                for (k, &c) in structure.row_range(r).zip(structure.row_cols(r)) {
                    let zrow = zm.row(c as usize);
                    for (o, zv) in orow.iter_mut().zip(zrow) {
                        *o += a[k] * zv;
                    }
                }
            }
            outm
        };
        let s = Arc::clone(structure);
        self.record(
            vec![alpha, z],
            out,
            Box::new(move |gout, ins, _, needs| {
                let (am, zm) = (ins[0], ins[1]);
                let ga = needs[0].then(|| {
                    let mut res = vec![0.0f32; am.rows()];
                    for r in 0..s.rows() {
                        let grow = gout.row(r);
                        for (k, &c) in s.row_range(r).zip(s.row_cols(r)) {
                            res[k] = grow
                                .iter()
                                .zip(zm.row(c as usize))
                                .map(|(g, zv)| g * zv)
                                .sum();
                        }
                    }
                    Matrix::from_vec(am.rows(), 1, res)
                });
                let gz = needs[1].then(|| {
                    let d = zm.cols();
                    let a = am.as_slice();
                    let mut res = Matrix::zeros(zm.rows(), d);
                    let data = res.as_mut_slice();
                    for r in 0..s.rows() {
                        let grow = gout.row(r);
                        for (k, &c) in s.row_range(r).zip(s.row_cols(r)) {
                            let zrow = &mut data[c as usize * d..(c as usize + 1) * d];
                            for (o, g) in zrow.iter_mut().zip(grow) {
                                *o += a[k] * g;
                            }
                        }
                    }
                    res
                });
                vec![ga, gz]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Unary ops / activations
    // ------------------------------------------------------------------

    /// Scales by a fixed constant.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.inner.borrow().values[a.index()].scale(s);
        self.record(
            vec![a],
            out,
            Box::new(move |gout, _, _, needs| vec![needs[0].then(|| gout.scale(s))]),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let out = self.inner.borrow().values[a.index()].map(|x| x.max(0.0));
        self.record(
            vec![a],
            out,
            Box::new(|gout, ins, _, needs| {
                vec![needs[0].then(|| gout.zip(ins[0], |g, x| if x > 0.0 { g } else { 0.0 }))]
            }),
        )
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, a: Var, alpha: f32) -> Var {
        let out =
            self.inner.borrow().values[a.index()].map(|x| if x > 0.0 { x } else { alpha * x });
        self.record(
            vec![a],
            out,
            Box::new(move |gout, ins, _, needs| {
                vec![needs[0].then(|| gout.zip(ins[0], |g, x| if x > 0.0 { g } else { alpha * g }))]
            }),
        )
    }

    /// Exponential linear unit.
    pub fn elu(&self, a: Var, alpha: f32) -> Var {
        let out = self.inner.borrow().values[a.index()].map(|x| {
            if x > 0.0 {
                x
            } else {
                alpha * (x.exp() - 1.0)
            }
        });
        self.record(
            vec![a],
            out,
            Box::new(move |gout, _, outv, needs| {
                vec![needs[0]
                    .then(|| gout.zip(outv, |g, y| if y > 0.0 { g } else { g * (y + alpha) }))]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let out = self.inner.borrow().values[a.index()].map(|x| 1.0 / (1.0 + (-x).exp()));
        self.record(
            vec![a],
            out,
            Box::new(|gout, _, outv, needs| {
                vec![needs[0].then(|| gout.zip(outv, |g, y| g * y * (1.0 - y)))]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let out = self.inner.borrow().values[a.index()].map(f32::tanh);
        self.record(
            vec![a],
            out,
            Box::new(|gout, _, outv, needs| {
                vec![needs[0].then(|| gout.zip(outv, |g, y| g * (1.0 - y * y)))]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Reductions / pooling
    // ------------------------------------------------------------------

    /// Column-wise mean over rows: `n x d -> 1 x d` (mean readout).
    pub fn mean_rows(&self, a: Var) -> Var {
        let out = {
            let m = &self.inner.borrow().values[a.index()];
            m.col_sums().scale(1.0 / m.rows().max(1) as f32)
        };
        self.record(
            vec![a],
            out,
            Box::new(|gout, ins, _, needs| {
                let n = ins[0].rows().max(1) as f32;
                vec![needs[0].then(|| {
                    Matrix::from_fn(ins[0].rows(), ins[0].cols(), |_, c| gout.get(0, c) / n)
                })]
            }),
        )
    }

    /// Column-wise sum over rows: `n x d -> 1 x d` (sum readout).
    pub fn sum_rows(&self, a: Var) -> Var {
        let out = self.inner.borrow().values[a.index()].col_sums();
        self.record(
            vec![a],
            out,
            Box::new(|gout, ins, _, needs| {
                vec![needs[0]
                    .then(|| Matrix::from_fn(ins[0].rows(), ins[0].cols(), |_, c| gout.get(0, c)))]
            }),
        )
    }

    /// Column-wise max over rows: `n x d -> 1 x d` (max readout).
    ///
    /// Gradients flow to the first row attaining each column maximum.
    pub fn max_rows(&self, a: Var) -> Var {
        let out = {
            let m = &self.inner.borrow().values[a.index()];
            Matrix::from_fn(1, m.cols(), |_, c| {
                (0..m.rows()).map(|r| m.get(r, c)).fold(f32::MIN, f32::max)
            })
        };
        self.record(
            vec![a],
            out,
            Box::new(|gout, ins, _, needs| {
                vec![needs[0].then(|| {
                    let m = ins[0];
                    let mut g = Matrix::zeros(m.rows(), m.cols());
                    for c in 0..m.cols() {
                        let mut best = 0;
                        for r in 1..m.rows() {
                            if m.get(r, c) > m.get(best, c) {
                                best = r;
                            }
                        }
                        g.set(best, c, gout.get(0, c));
                    }
                    g
                })]
            }),
        )
    }

    /// Column-wise sum over each row segment: `n x d -> K x d`.
    ///
    /// `offsets` has `K + 1` nondecreasing entries with `offsets[0] == 0`
    /// and `offsets[K] == n`; output row `k` is the sum of input rows
    /// `offsets[k]..offsets[k+1]`. This is the sum readout of a
    /// block-diagonal graph batch: one tape op pools every graph.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not partition the rows of `a`.
    pub fn segment_sum_rows(&self, a: Var, offsets: &[usize]) -> Var {
        let offsets = offsets.to_vec();
        let out = {
            let inner = self.inner.borrow();
            let m = inner.values[a.index()].as_ref();
            validate_offsets(&offsets, m.rows(), "segment_sum_rows");
            segment_apply(m, &offsets, |_| 1.0)
        };
        self.record(
            vec![a],
            out,
            Box::new(move |gout, ins, _, needs| {
                vec![needs[0].then(|| segment_spread(gout, ins[0], &offsets, |_| 1.0))]
            }),
        )
    }

    /// Column-wise mean over each row segment: `n x d -> K x d`.
    ///
    /// Same contract as [`Tape::segment_sum_rows`], but each segment is
    /// scaled by `1 / len`; empty segments produce an all-zero row. This is
    /// the mean readout of a block-diagonal graph batch, and for `K = 1` it
    /// reproduces [`Tape::mean_rows`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not partition the rows of `a`.
    pub fn segment_mean_rows(&self, a: Var, offsets: &[usize]) -> Var {
        let offsets = offsets.to_vec();
        let inv = |len: usize| 1.0 / len.max(1) as f32;
        let out = {
            let inner = self.inner.borrow();
            let m = inner.values[a.index()].as_ref();
            validate_offsets(&offsets, m.rows(), "segment_mean_rows");
            segment_apply(m, &offsets, inv)
        };
        self.record(
            vec![a],
            out,
            Box::new(move |gout, ins, _, needs| {
                vec![needs[0].then(|| segment_spread(gout, ins[0], &offsets, inv))]
            }),
        )
    }

    /// Column-wise max over each row segment: `n x d -> K x d`.
    ///
    /// Same contract as [`Tape::segment_sum_rows`]. Gradients flow to the
    /// first row attaining each column maximum within its segment (matching
    /// [`Tape::max_rows`] for `K = 1`); empty segments produce an all-zero
    /// row and receive no gradient.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not partition the rows of `a`.
    pub fn segment_max_rows(&self, a: Var, offsets: &[usize]) -> Var {
        let offsets = offsets.to_vec();
        let out = {
            let inner = self.inner.borrow();
            let m = inner.values[a.index()].as_ref();
            validate_offsets(&offsets, m.rows(), "segment_max_rows");
            let k = offsets.len() - 1;
            Matrix::from_fn(k, m.cols(), |s, c| {
                let seg = offsets[s]..offsets[s + 1];
                if seg.is_empty() {
                    0.0
                } else {
                    seg.map(|r| m.get(r, c)).fold(f32::MIN, f32::max)
                }
            })
        };
        self.record(
            vec![a],
            out,
            Box::new(move |gout, ins, _, needs| {
                vec![needs[0].then(|| {
                    let m = ins[0];
                    let mut g = Matrix::zeros(m.rows(), m.cols());
                    for s in 0..offsets.len() - 1 {
                        let seg = offsets[s]..offsets[s + 1];
                        if seg.is_empty() {
                            continue;
                        }
                        for c in 0..m.cols() {
                            let mut best = seg.start;
                            for r in seg.clone().skip(1) {
                                if m.get(r, c) > m.get(best, c) {
                                    best = r;
                                }
                            }
                            g.set(best, c, gout.get(s, c));
                        }
                    }
                    g
                })]
            }),
        )
    }

    /// Sum of all entries: `n x d -> 1 x 1`.
    pub fn sum_all(&self, a: Var) -> Var {
        let out = Matrix::from_vec(1, 1, vec![self.inner.borrow().values[a.index()].sum()]);
        self.record(
            vec![a],
            out,
            Box::new(|gout, ins, _, needs| {
                let g0 = gout.get(0, 0);
                vec![needs[0].then(|| Matrix::filled(ins[0].rows(), ins[0].cols(), g0))]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Softmax family
    // ------------------------------------------------------------------

    /// Row-wise softmax restricted to positions where `mask > 0`.
    ///
    /// Masked-out entries are exactly zero in the output. Rows whose mask is
    /// entirely zero produce an all-zero row (isolated CFG nodes receive no
    /// attention mass). This is the attention normaliser of the dense GAT
    /// reference; the CSR path uses [`Tape::edge_softmax`] instead. The mask
    /// is taken as a shared handle so repeated heads/layers never copy it.
    pub fn masked_softmax_rows(&self, a: Var, mask: &Arc<Matrix>) -> Var {
        let mask = Arc::clone(mask);
        let out = {
            let m = self.inner.borrow();
            let m = m.values[a.index()].as_ref();
            assert_eq!(m.shape(), mask.shape(), "masked_softmax_rows: mask shape");
            masked_softmax(m, &mask)
        };
        self.record(
            vec![a],
            out,
            Box::new(move |gout, _, outv, needs| {
                vec![needs[0].then(|| {
                    // dE = S ⊙ (G - rowsum(G ⊙ S)); masked entries have S=0.
                    let mut g = Matrix::zeros(outv.rows(), outv.cols());
                    for r in 0..outv.rows() {
                        let dot: f32 = (0..outv.cols())
                            .map(|c| gout.get(r, c) * outv.get(r, c))
                            .sum();
                        for c in 0..outv.cols() {
                            let s = outv.get(r, c);
                            g.set(r, c, s * (gout.get(r, c) - dot));
                        }
                    }
                    g
                })]
            }),
        )
    }

    /// Mean softmax cross-entropy of `logits` (`n x C`) against integer
    /// class `targets` (length `n`). Returns a `1 x 1` loss.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is `>= C`.
    pub fn softmax_cross_entropy(&self, logits: Var, targets: &[usize]) -> Var {
        let targets = targets.to_vec();
        let out = {
            let inner = self.inner.borrow();
            let m = inner.values[logits.index()].as_ref();
            assert_eq!(targets.len(), m.rows(), "softmax_ce: target count");
            let probs = softmax_rows(m);
            let mut loss = 0.0;
            for (r, &t) in targets.iter().enumerate() {
                assert!(t < m.cols(), "softmax_ce: target class out of range");
                loss -= probs.get(r, t).max(1e-12).ln();
            }
            Matrix::from_vec(1, 1, vec![loss / targets.len().max(1) as f32])
        };
        self.record(
            vec![logits],
            out,
            Box::new(move |gout, ins, _, needs| {
                vec![needs[0].then(|| {
                    let mut g = softmax_rows(ins[0]);
                    let scale = gout.get(0, 0) / targets.len().max(1) as f32;
                    for (r, &t) in targets.iter().enumerate() {
                        let v = g.get(r, t);
                        g.set(r, t, v - 1.0);
                    }
                    g.scale(scale)
                })]
            }),
        )
    }

    /// Inverted-dropout regularisation: keeps each entry with probability
    /// `1 - p` and rescales kept entries by `1/(1-p)`. The mask is drawn from
    /// `rng` at call time so training stays fully deterministic under a
    /// seeded generator.
    pub fn dropout(&self, a: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout: p must be in [0, 1)");
        let keep = 1.0 - p;
        let mask = {
            let m = &self.inner.borrow().values[a.index()];
            Matrix::from_fn(m.rows(), m.cols(), |_, _| {
                if rng.random::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
        };
        let out = self.inner.borrow().values[a.index()].hadamard(&mask);
        self.record(
            vec![a],
            out,
            Box::new(move |gout, _, _, needs| vec![needs[0].then(|| gout.hadamard(&mask))]),
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode accumulation from `loss` (seeded with ones).
    ///
    /// Every recorded step is replayed in reverse; gradients are accumulated
    /// into each variable that (transitively) required them.
    pub fn backward(&self, loss: Var) -> Gradients {
        let inner = self.inner.borrow();
        let mut grads: Vec<Option<Matrix>> = vec![None; inner.values.len()];
        let seed = &inner.values[loss.index()];
        grads[loss.index()] = Some(Matrix::filled(seed.rows(), seed.cols(), 1.0));

        for step in inner.steps.iter().rev() {
            let Some(gout) = grads[step.out].take() else {
                continue;
            };
            let input_values: Vec<&Matrix> = step
                .inputs
                .iter()
                .map(|&i| inner.values[i].as_ref())
                .collect();
            let needs: Vec<bool> = step.inputs.iter().map(|&i| inner.needs_grad[i]).collect();
            let out_value = inner.values[step.out].as_ref();
            let input_grads = (step.backward)(&gout, &input_values, out_value, &needs);
            debug_assert_eq!(input_grads.len(), step.inputs.len());
            for (&idx, grad) in step.inputs.iter().zip(input_grads) {
                if let Some(g) = grad {
                    match &mut grads[idx] {
                        Some(acc) => acc.add_assign(&g),
                        slot => *slot = Some(g),
                    }
                }
            }
            // Re-install gout if the loss var itself is a leaf someone queries.
            if step.out == loss.index() {
                grads[step.out] = Some(gout);
            }
        }
        Gradients { grads }
    }
}

/// Row-wise softmax of a plain matrix (numerically stabilised).
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let mx = m.row(r).iter().copied().fold(f32::MIN, f32::max);
        let mut denom = 0.0;
        for c in 0..m.cols() {
            denom += (m.get(r, c) - mx).exp();
        }
        for c in 0..m.cols() {
            out.set(r, c, (m.get(r, c) - mx).exp() / denom);
        }
    }
    out
}

/// Checks that `offsets` is a nondecreasing partition `0 = o_0 ≤ … ≤ o_K = rows`.
fn validate_offsets(offsets: &[usize], rows: usize, op: &str) {
    assert!(
        offsets.len() >= 2,
        "{op}: offsets need at least two entries"
    );
    assert_eq!(offsets[0], 0, "{op}: offsets must start at 0");
    assert_eq!(
        *offsets.last().expect("nonempty"),
        rows,
        "{op}: offsets must end at the row count"
    );
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "{op}: offsets must be nondecreasing"
    );
}

/// Per-segment column sums scaled by `scale(len)`: the shared forward of
/// the sum/mean segment readouts.
fn segment_apply(m: &Matrix, offsets: &[usize], scale: impl Fn(usize) -> f32) -> Matrix {
    let d = m.cols();
    let mut out = Matrix::zeros(offsets.len() - 1, d);
    let data = out.as_mut_slice();
    for s in 0..offsets.len() - 1 {
        let seg = offsets[s]..offsets[s + 1];
        let w = scale(seg.len());
        let orow = &mut data[s * d..(s + 1) * d];
        for r in seg {
            for (o, &x) in orow.iter_mut().zip(m.row(r)) {
                *o += w * x;
            }
        }
    }
    out
}

/// Broadcasts each `gout` row back over its segment scaled by `scale(len)`:
/// the shared backward of the sum/mean segment readouts.
fn segment_spread(
    gout: &Matrix,
    input: &Matrix,
    offsets: &[usize],
    scale: impl Fn(usize) -> f32,
) -> Matrix {
    let d = input.cols();
    let mut g = Matrix::zeros(input.rows(), input.cols());
    let data = g.as_mut_slice();
    for s in 0..offsets.len() - 1 {
        let seg = offsets[s]..offsets[s + 1];
        let w = scale(seg.len());
        let grow = gout.row(s);
        for r in seg {
            let target = &mut data[r * d..(r + 1) * d];
            for (t, &gv) in target.iter_mut().zip(grow) {
                *t = w * gv;
            }
        }
    }
    g
}

fn masked_softmax(m: &Matrix, mask: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        // Row slices: one bounds check per row instead of one per entry.
        let mrow = m.row(r);
        let krow = mask.row(r);
        let mut mx = f32::MIN;
        let mut any = false;
        for (&x, &k) in mrow.iter().zip(krow) {
            if k > 0.0 {
                mx = mx.max(x);
                any = true;
            }
        }
        if !any {
            continue;
        }
        let mut denom = 0.0;
        for (&x, &k) in mrow.iter().zip(krow) {
            if k > 0.0 {
                denom += (x - mx).exp();
            }
        }
        let orow = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
        for ((o, &x), &k) in orow.iter_mut().zip(mrow).zip(krow) {
            if k > 0.0 {
                *o = (x - mx).exp() / denom;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A @ B); dA = 1 @ B^T, dB = A^T @ 1.
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = tape.leaf(Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        let g = tape.backward(loss);
        let ga = g.of(a).unwrap();
        let gb = g.of(b).unwrap();
        assert_eq!(ga.as_slice(), &[11., 15., 11., 15.]);
        assert_eq!(gb.as_slice(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let tape = Tape::new();
        let a = tape.constant(Matrix::identity(2));
        let b = tape.leaf(Matrix::identity(2));
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        let g = tape.backward(loss);
        assert!(g.of(a).is_none());
        assert!(g.of(b).is_some());
    }

    #[test]
    fn shared_input_accumulates() {
        // y = x ⊙ x; dy/dx = 2x.
        let tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[3.0, -2.0]));
        let y = tape.mul(x, x);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss);
        assert_eq!(g.of(x).unwrap().as_slice(), &[6.0, -4.0]);
    }

    #[test]
    fn activation_values_and_grads() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[1.0, -1.0]));
        let r = tape.relu(x);
        assert_eq!(tape.value(r).as_slice(), &[1.0, 0.0]);
        let l = tape.leaky_relu(x, 0.1);
        assert_eq!(tape.value(l).as_slice(), &[1.0, -0.1]);
        let s = tape.sigmoid(x);
        assert_close(tape.value(s).get(0, 0), 0.731058, 1e-5);
        let t = tape.tanh(x);
        assert_close(tape.value(t).get(0, 1), -0.761594, 1e-5);
        let e = tape.elu(x, 1.0);
        assert_close(tape.value(e).get(0, 1), (-1f32).exp() - 1.0, 1e-6);

        let loss = tape.sum_all(l);
        let g = tape.backward(loss);
        assert_eq!(g.of(x).unwrap().as_slice(), &[1.0, 0.1]);
    }

    #[test]
    fn bias_broadcast_and_grad() {
        let tape = Tape::new();
        let h = tape.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = tape.leaf(Matrix::row_vector(&[10., 20.]));
        let y = tape.add_bias(h, b);
        assert_eq!(tape.value(y).as_slice(), &[11., 22., 13., 24.]);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss);
        assert_eq!(g.of(b).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn pooling_grads() {
        let tape = Tape::new();
        let h = tape.leaf(Matrix::from_vec(2, 2, vec![1., 5., 3., 2.]));
        let mean = tape.mean_rows(h);
        assert_eq!(tape.value(mean).as_slice(), &[2.0, 3.5]);
        let mx = tape.max_rows(h);
        assert_eq!(tape.value(mx).as_slice(), &[3.0, 5.0]);
        let sm = tape.sum_rows(h);
        assert_eq!(tape.value(sm).as_slice(), &[4.0, 7.0]);

        let loss = tape.sum_all(mx);
        let g = tape.backward(loss);
        // Max picked (row1,col0) and (row0,col1).
        assert_eq!(g.of(h).unwrap().as_slice(), &[0., 1., 1., 0.]);
    }

    #[test]
    fn segment_pooling_values_and_grads() {
        // Two segments: rows {0,1} and {2}; plus one empty segment at the end.
        let tape = Tape::new();
        let h = tape.leaf(Matrix::from_vec(3, 2, vec![1., 5., 3., 2., -4., 8.]));
        let offsets = [0usize, 2, 3, 3];

        let sum = tape.segment_sum_rows(h, &offsets);
        assert_eq!(tape.value(sum).as_slice(), &[4., 7., -4., 8., 0., 0.]);
        let mean = tape.segment_mean_rows(h, &offsets);
        assert_eq!(tape.value(mean).as_slice(), &[2., 3.5, -4., 8., 0., 0.]);
        let mx = tape.segment_max_rows(h, &offsets);
        assert_eq!(tape.value(mx).as_slice(), &[3., 5., -4., 8., 0., 0.]);

        let loss = tape.sum_all(mean);
        let g = tape.backward(loss);
        assert_eq!(g.of(h).unwrap().as_slice(), &[0.5, 0.5, 0.5, 0.5, 1., 1.]);

        let loss_mx = tape.sum_all(mx);
        let gm = tape.backward(loss_mx);
        // Max picked row1/col0, row0/col1 in segment 0; row 2 in segment 1.
        assert_eq!(gm.of(h).unwrap().as_slice(), &[0., 1., 1., 0., 1., 1.]);
    }

    #[test]
    fn single_segment_matches_whole_matrix_pooling() {
        let tape = Tape::new();
        let h = tape.leaf(Matrix::from_vec(2, 2, vec![1., 5., 3., 2.]));
        let offsets = [0usize, 2];
        assert_eq!(
            tape.value(tape.segment_mean_rows(h, &offsets)),
            tape.value(tape.mean_rows(h))
        );
        assert_eq!(
            tape.value(tape.segment_sum_rows(h, &offsets)),
            tape.value(tape.sum_rows(h))
        );
        assert_eq!(
            tape.value(tape.segment_max_rows(h, &offsets)),
            tape.value(tape.max_rows(h))
        );
    }

    #[test]
    #[should_panic(expected = "offsets must end at the row count")]
    fn segment_offsets_must_cover_rows() {
        let tape = Tape::new();
        let h = tape.leaf(Matrix::zeros(3, 1));
        let _ = tape.segment_sum_rows(h, &[0, 2]);
    }

    #[test]
    fn concat_and_outer_sum() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_vec(2, 1, vec![1., 2.]));
        let b = tape.leaf(Matrix::from_vec(2, 1, vec![10., 20.]));
        let cat = tape.concat_cols(a, b);
        assert_eq!(tape.value(cat).as_slice(), &[1., 10., 2., 20.]);
        let os = tape.outer_sum(a, b);
        assert_eq!(tape.value(os).as_slice(), &[11., 21., 12., 22.]);
        let loss = tape.sum_all(os);
        let g = tape.backward(loss);
        assert_eq!(g.of(a).unwrap().as_slice(), &[2., 2.]);
        assert_eq!(g.of(b).unwrap().as_slice(), &[2., 2.]);
    }

    #[test]
    fn masked_softmax_rows_behaviour() {
        let tape = Tape::new();
        let e = tape.leaf(Matrix::from_vec(2, 2, vec![1., 1., 5., 0.]));
        let mask = Arc::new(Matrix::from_vec(2, 2, vec![1., 1., 0., 0.]));
        let s = tape.masked_softmax_rows(e, &mask);
        let v = tape.value(s);
        assert_close(v.get(0, 0), 0.5, 1e-6);
        assert_close(v.get(0, 1), 0.5, 1e-6);
        assert_eq!(v.get(1, 0), 0.0); // fully masked row
        assert_eq!(v.get(1, 1), 0.0);
    }

    #[test]
    fn shared_constants_are_interned() {
        let tape = Tape::new();
        let m = Arc::new(Matrix::identity(3));
        let a = tape.constant_shared(&m);
        let b = tape.constant_shared(&m);
        assert_eq!(a, b);
        let before = tape.len();
        let _ = tape.constant_shared(&m);
        assert_eq!(tape.len(), before, "re-interning must not grow the tape");
        // A distinct allocation with equal contents is a different constant.
        let other = Arc::new(Matrix::identity(3));
        assert_ne!(tape.constant_shared(&other), a);
    }

    #[test]
    fn spmm_matches_dense_matmul_forward_and_backward() {
        let adj = Matrix::from_vec(3, 3, vec![0., 1., 0., 0.5, 0., 2., 0., 0., 0.]);
        let x0 = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 - 2.0);

        let dense_tape = Tape::new();
        let xd = dense_tape.leaf(x0.clone());
        let ad = dense_tape.constant(adj.clone());
        let outd = dense_tape.matmul(ad, xd);
        let lossd = dense_tape.sum_all(outd);
        let gd = dense_tape.backward(lossd);

        let sparse_tape = Tape::new();
        let xs = sparse_tape.leaf(x0.clone());
        let pair = CsrPair::new(CsrMatrix::from_dense(&adj));
        let outs = sparse_tape.spmm(&pair, xs);
        let losss = sparse_tape.sum_all(outs);
        let gs = sparse_tape.backward(losss);

        assert!(
            dense_tape
                .value(outd)
                .max_abs_diff(&sparse_tape.value(outs))
                < 1e-6
        );
        assert!(gd.of(xd).unwrap().max_abs_diff(gs.of(xs).unwrap()) < 1e-6);
    }

    #[test]
    fn edge_ops_match_dense_gat_attention() {
        // mask = chain 0->1->2 plus self-loops.
        let mut mask = Matrix::identity(3);
        mask.set(0, 1, 1.0);
        mask.set(1, 2, 1.0);
        let structure = Arc::new(CsrMatrix::from_dense(&mask));
        let s_src = Matrix::from_vec(3, 1, vec![0.3, -1.0, 0.7]);
        let s_dst = Matrix::from_vec(3, 1, vec![-0.2, 0.9, 0.1]);
        let z0 = Matrix::from_fn(3, 2, |r, c| (r as f32) - (c as f32) * 0.5);

        // Dense reference.
        let dt = Tape::new();
        let (ud, vd) = (dt.leaf(s_src.clone()), dt.leaf(s_dst.clone()));
        let zd = dt.leaf(z0.clone());
        let ed = dt.outer_sum(ud, vd);
        let ed = dt.leaky_relu(ed, 0.2);
        let alphad = dt.masked_softmax_rows(ed, &Arc::new(mask.clone()));
        let outd = dt.matmul(alphad, zd);
        let lossd = dt.sum_all(outd);
        let gd = dt.backward(lossd);

        // Sparse path.
        let st = Tape::new();
        let (us, vs) = (st.leaf(s_src.clone()), st.leaf(s_dst.clone()));
        let zs = st.leaf(z0.clone());
        let es = st.edge_score_sum(us, vs, &structure);
        let es = st.leaky_relu(es, 0.2);
        let alphas = st.edge_softmax(es, &structure);
        let outs = st.edge_gather(alphas, zs, &structure);
        let losss = st.sum_all(outs);
        let gs = st.backward(losss);

        assert!(dt.value(outd).max_abs_diff(&st.value(outs)) < 1e-6);
        assert!(gd.of(ud).unwrap().max_abs_diff(gs.of(us).unwrap()) < 1e-5);
        assert!(gd.of(vd).unwrap().max_abs_diff(gs.of(vs).unwrap()) < 1e-5);
        assert!(gd.of(zd).unwrap().max_abs_diff(gs.of(zs).unwrap()) < 1e-5);
    }

    #[test]
    fn edge_softmax_handles_empty_rows() {
        // Row 1 has no edges at all.
        let structure = Arc::new(CsrMatrix::from_edges(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]));
        let tape = Tape::new();
        let scores = tape.leaf(Matrix::from_vec(2, 1, vec![1.0, 1.0]));
        let alpha = tape.edge_softmax(scores, &structure);
        let v = tape.value(alpha);
        assert_close(v.get(0, 0), 0.5, 1e-6);
        assert_close(v.get(1, 0), 0.5, 1e-6);
    }

    #[test]
    fn softmax_ce_loss_and_grad_direction() {
        let tape = Tape::new();
        let logits = tape.leaf(Matrix::from_vec(1, 2, vec![2.0, 0.0]));
        let loss = tape.softmax_cross_entropy(logits, &[0]);
        let lv = tape.value(loss).get(0, 0);
        assert!(lv > 0.0 && lv < 0.2, "confident correct answer: small loss");
        let g = tape.backward(loss);
        let gl = g.of(logits).unwrap();
        assert!(gl.get(0, 0) < 0.0, "push correct logit up");
        assert!(gl.get(0, 1) > 0.0, "push wrong logit down");
    }

    #[test]
    fn scalar_mul_grads() {
        let tape = Tape::new();
        let s = tape.leaf(Matrix::from_vec(1, 1, vec![3.0]));
        let m = tape.leaf(Matrix::row_vector(&[1.0, 2.0]));
        let y = tape.scalar_mul(s, m);
        assert_eq!(tape.value(y).as_slice(), &[3.0, 6.0]);
        let loss = tape.sum_all(y);
        let g = tape.backward(loss);
        assert_eq!(g.of(s).unwrap().get(0, 0), 3.0); // sum(m)
        assert_eq!(g.of(m).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let tape = Tape::new();
        let x = tape.leaf(Matrix::row_vector(&[1.0, 2.0, 3.0]));
        let y = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(tape.value(y).as_slice(), &[1.0, 2.0, 3.0]);
    }

    /// Numerical gradient check on a composite expression exercising most ops.
    #[test]
    fn numerical_gradient_check() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let x0 = Matrix::from_fn(3, 4, |_, _| rand::Rng::random_range(&mut rng, -1.0..1.0));
        let w0 = Matrix::from_fn(4, 2, |_, _| rand::Rng::random_range(&mut rng, -1.0..1.0));

        let eval = |x: &Matrix, w: &Matrix| -> f32 {
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(w.clone());
            let h = tape.matmul(xv, wv);
            let h = tape.tanh(h);
            let p = tape.mean_rows(h);
            let loss = tape.softmax_cross_entropy(p, &[1]);
            tape.value(loss).get(0, 0)
        };

        // Analytic grads.
        let tape = Tape::new();
        let xv = tape.leaf(x0.clone());
        let wv = tape.leaf(w0.clone());
        let h = tape.matmul(xv, wv);
        let h = tape.tanh(h);
        let p = tape.mean_rows(h);
        let loss = tape.softmax_cross_entropy(p, &[1]);
        let g = tape.backward(loss);
        let gw = g.of(wv).unwrap().clone();
        let gx = g.of(xv).unwrap().clone();

        let eps = 1e-3;
        for (r, c) in [(0usize, 0usize), (1, 1), (3, 0), (2, 1)] {
            let mut wp = w0.clone();
            wp.set(r, c, wp.get(r, c) + eps);
            let mut wm = w0.clone();
            wm.set(r, c, wm.get(r, c) - eps);
            let num = (eval(&x0, &wp) - eval(&x0, &wm)) / (2.0 * eps);
            assert_close(gw.get(r, c), num, 2e-2);
        }
        for (r, c) in [(0usize, 0usize), (2, 3)] {
            let mut xp = x0.clone();
            xp.set(r, c, xp.get(r, c) + eps);
            let mut xm = x0.clone();
            xm.set(r, c, xm.get(r, c) - eps);
            let num = (eval(&xp, &w0) - eval(&xm, &w0)) / (2.0 * eps);
            assert_close(gx.get(r, c), num, 2e-2);
        }
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert_close(sum, 1.0, 1e-6);
        }
    }
}
