//! The GNN graph classifier: five architectures, one interface.
//!
//! Message passing runs over CSR aggregators ([`PreparedGraph`], or a
//! packed [`GraphBatch`]). Tests add a dense `n x n` arm to the same
//! forward pass as the reference the CSR path is checked against.

#[cfg(test)]
use crate::graph_batch::DenseGraph;
use crate::graph_batch::{GraphBatch, PreparedGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scamdetect_tensor::io::{
    export_parameters, import_parameters, ByteReader, ByteWriter, CodecError, ParamIo, Sections,
};
use scamdetect_tensor::{init, Matrix, ParamId, Parameters, Tape, Var};
use std::sync::Arc;

/// Which message-passing architecture a classifier uses — exactly the
/// lineup the paper's Phase 1 commits to (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph convolutional network (Kipf & Welling).
    Gcn,
    /// Graph attention network (Veličković et al.), 2 heads.
    Gat,
    /// Graph isomorphism network (Xu et al.), learnable epsilon.
    Gin,
    /// Topology-adaptive GCN (Du et al.), K hops per layer.
    Tag,
    /// GraphSAGE (Hamilton et al.), mean aggregator.
    Sage,
}

impl GnnKind {
    /// All five architectures.
    pub fn all() -> [GnnKind; 5] {
        [
            GnnKind::Gcn,
            GnnKind::Gat,
            GnnKind::Gin,
            GnnKind::Tag,
            GnnKind::Sage,
        ]
    }

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Gcn => "gcn",
            GnnKind::Gat => "gat",
            GnnKind::Gin => "gin",
            GnnKind::Tag => "tag",
            GnnKind::Sage => "graphsage",
        }
    }

    /// Stable wire tag used by the model-artifact format. Never renumber.
    pub fn code(self) -> u8 {
        match self {
            GnnKind::Gcn => 0,
            GnnKind::Gat => 1,
            GnnKind::Gin => 2,
            GnnKind::Tag => 3,
            GnnKind::Sage => 4,
        }
    }

    /// Inverse of [`GnnKind::code`].
    pub fn from_code(code: u8) -> Option<GnnKind> {
        GnnKind::all().into_iter().find(|k| k.code() == code)
    }
}

impl std::fmt::Display for GnnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Graph-level readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Readout {
    /// Column-wise mean over node embeddings.
    Mean,
    /// Column-wise max.
    Max,
    /// Column-wise sum.
    Sum,
}

impl Readout {
    /// All readouts (ablation E8).
    pub fn all() -> [Readout; 3] {
        [Readout::Mean, Readout::Max, Readout::Sum]
    }

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Readout::Mean => "mean",
            Readout::Max => "max",
            Readout::Sum => "sum",
        }
    }

    /// Stable wire tag used by the model-artifact format. Never renumber.
    pub fn code(self) -> u8 {
        match self {
            Readout::Mean => 0,
            Readout::Max => 1,
            Readout::Sum => 2,
        }
    }

    /// Inverse of [`Readout::code`].
    pub fn from_code(code: u8) -> Option<Readout> {
        Readout::all().into_iter().find(|r| r.code() == code)
    }
}

/// Model hyperparameters.
#[derive(Debug, Clone)]
pub struct GnnConfig {
    /// Architecture.
    pub kind: GnnKind,
    /// Input node-feature width.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Number of message-passing layers.
    pub layers: usize,
    /// Readout.
    pub readout: Readout,
    /// Attention heads (GAT only).
    pub heads: usize,
    /// Hop count K (TAG only).
    pub tag_k: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl GnnConfig {
    /// Sensible defaults for `kind` at input width `input_dim`.
    pub fn new(kind: GnnKind, input_dim: usize) -> Self {
        GnnConfig {
            kind,
            input_dim,
            hidden: 32,
            layers: 2,
            readout: Readout::Mean,
            heads: 2,
            tag_k: 3,
            seed: 0xD5ED,
        }
    }

    /// Overrides the hidden width.
    pub fn with_hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Overrides the layer count.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Overrides the readout.
    pub fn with_readout(mut self, readout: Readout) -> Self {
        self.readout = readout;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-layer parameters (ids into the shared store).
#[derive(Debug, Clone)]
enum LayerParams {
    Gcn {
        w: ParamId,
        b: ParamId,
    },
    Sage {
        w: ParamId,
        b: ParamId,
    },
    Gin {
        eps: ParamId,
        w1: ParamId,
        b1: ParamId,
        w2: ParamId,
        b2: ParamId,
    },
    Tag {
        ws: Vec<ParamId>,
        b: ParamId,
    },
    Gat {
        heads: Vec<GatHead>,
    },
}

#[derive(Debug, Clone)]
struct GatHead {
    w: ParamId,
    a_src: ParamId,
    a_dst: ParamId,
}

/// A borrowed graph (or packed batch of graphs), dispatched inside the
/// forward pass at the aggregation and readout points only — the
/// surrounding layer algebra is shared.
#[derive(Clone, Copy)]
pub(crate) enum GraphRef<'a> {
    /// CSR message passing over one graph.
    Sparse(&'a PreparedGraph),
    /// Block-diagonal CSR message passing over `K` graphs at once (the
    /// training path).
    Batch(&'a GraphBatch),
    /// Dense `n x n` reference, for equivalence tests.
    #[cfg(test)]
    Dense(&'a DenseGraph),
}

impl<'a> GraphRef<'a> {
    fn x(&self) -> &'a Arc<Matrix> {
        match self {
            GraphRef::Sparse(g) => &g.x,
            GraphRef::Batch(b) => &b.x,
            #[cfg(test)]
            GraphRef::Dense(g) => &g.x,
        }
    }

    /// The label of a single graph, for the per-graph reference loops.
    #[cfg(test)]
    pub(crate) fn label(&self) -> usize {
        match self {
            GraphRef::Sparse(g) => g.label,
            GraphRef::Dense(g) => g.label,
            GraphRef::Batch(_) => unreachable!("the reference loops train per graph"),
        }
    }
}

/// A trainable GNN graph classifier.
///
/// # Examples
///
/// ```
/// use scamdetect_gnn::{GnnClassifier, GnnConfig, GnnKind, PreparedGraph};
/// use scamdetect_tensor::Matrix;
///
/// let g = PreparedGraph::from_parts(Matrix::identity(4), Matrix::zeros(4, 4), 0);
/// let model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 4));
/// let score = model.score(&g);
/// assert!((0.0..=1.0).contains(&score));
/// ```
#[derive(Debug)]
pub struct GnnClassifier {
    config: GnnConfig,
    params: Parameters,
    layers: Vec<LayerParams>,
    head_w: ParamId,
    head_b: ParamId,
}

impl GnnClassifier {
    /// Allocates a model with seeded Xavier/He initialisation.
    pub fn new(config: GnnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = Parameters::new();
        let mut layers = Vec::with_capacity(config.layers);
        let mut in_dim = config.input_dim;
        for l in 0..config.layers {
            let out_dim = config.hidden;
            let lp = match config.kind {
                GnnKind::Gcn => LayerParams::Gcn {
                    w: params.add(
                        format!("gcn{l}.w"),
                        init::xavier_uniform(in_dim, out_dim, &mut rng),
                    ),
                    b: params.add(format!("gcn{l}.b"), Matrix::zeros(1, out_dim)),
                },
                GnnKind::Sage => LayerParams::Sage {
                    w: params.add(
                        format!("sage{l}.w"),
                        init::xavier_uniform(2 * in_dim, out_dim, &mut rng),
                    ),
                    b: params.add(format!("sage{l}.b"), Matrix::zeros(1, out_dim)),
                },
                GnnKind::Gin => LayerParams::Gin {
                    eps: params.add(format!("gin{l}.eps"), Matrix::zeros(1, 1)),
                    w1: params.add(
                        format!("gin{l}.w1"),
                        init::he_normal(in_dim, out_dim, &mut rng),
                    ),
                    b1: params.add(format!("gin{l}.b1"), Matrix::zeros(1, out_dim)),
                    w2: params.add(
                        format!("gin{l}.w2"),
                        init::he_normal(out_dim, out_dim, &mut rng),
                    ),
                    b2: params.add(format!("gin{l}.b2"), Matrix::zeros(1, out_dim)),
                },
                GnnKind::Tag => LayerParams::Tag {
                    ws: (0..=config.tag_k)
                        .map(|k| {
                            params.add(
                                format!("tag{l}.w{k}"),
                                init::xavier_uniform(in_dim, out_dim, &mut rng),
                            )
                        })
                        .collect(),
                    b: params.add(format!("tag{l}.b"), Matrix::zeros(1, out_dim)),
                },
                GnnKind::Gat => {
                    let per_head = (out_dim / config.heads).max(1);
                    LayerParams::Gat {
                        heads: (0..config.heads)
                            .map(|h| GatHead {
                                w: params.add(
                                    format!("gat{l}.h{h}.w"),
                                    init::xavier_uniform(in_dim, per_head, &mut rng),
                                ),
                                a_src: params.add(
                                    format!("gat{l}.h{h}.asrc"),
                                    init::xavier_uniform(per_head, 1, &mut rng),
                                ),
                                a_dst: params.add(
                                    format!("gat{l}.h{h}.adst"),
                                    init::xavier_uniform(per_head, 1, &mut rng),
                                ),
                            })
                            .collect(),
                    }
                }
            };
            layers.push(lp);
            in_dim = match config.kind {
                GnnKind::Gat => (config.hidden / config.heads).max(1) * config.heads,
                _ => config.hidden,
            };
        }
        let head_w = params.add("head.w", init::xavier_uniform(in_dim, 2, &mut rng));
        let head_b = params.add("head.b", Matrix::zeros(1, 2));
        GnnClassifier {
            config,
            params,
            layers,
            head_w,
            head_b,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Model name (architecture name).
    pub fn name(&self) -> &'static str {
        self.config.kind.name()
    }

    /// Total trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Mutable access to the parameter store (the trainer steps it).
    pub(crate) fn params_mut(&mut self) -> &mut Parameters {
        &mut self.params
    }

    pub(crate) fn params(&self) -> &Parameters {
        &self.params
    }

    /// Forward pass; returns the logits `Var` — `1 x 2` for a single
    /// graph, `K x 2` for a [`GraphBatch`] (row `k` is graph `k`).
    ///
    /// Aggregation dispatches on the representation: CSR graphs and
    /// block-diagonal batches run [`Tape::spmm`] / edge-wise attention
    /// (batches additionally pool with the segment readouts); the
    /// test-only dense reference runs the textbook `n x n` algebra. Shared
    /// tensors enter the tape via interned `Arc` constants, so no path
    /// clones per-graph data per forward call.
    pub(crate) fn forward(&self, tape: &Tape, vars: &[Var], g: GraphRef<'_>) -> Var {
        let mut h = tape.constant_shared(g.x());

        // Aggregator application points, dispatched per representation.
        let agg_gcn = |v: Var| match g {
            GraphRef::Sparse(s) => tape.spmm(&s.agg_gcn, v),
            GraphRef::Batch(b) => tape.spmm(&b.agg_gcn, v),
            #[cfg(test)]
            GraphRef::Dense(d) => tape.matmul(tape.constant_shared(&d.agg_gcn), v),
        };
        let agg_mean = |v: Var| match g {
            GraphRef::Sparse(s) => tape.spmm(&s.agg_mean, v),
            GraphRef::Batch(b) => tape.spmm(&b.agg_mean, v),
            #[cfg(test)]
            GraphRef::Dense(d) => tape.matmul(tape.constant_shared(&d.agg_mean), v),
        };
        let agg_adj = |v: Var| match g {
            GraphRef::Sparse(s) => tape.spmm(&s.adj, v),
            GraphRef::Batch(b) => tape.spmm(&b.adj, v),
            #[cfg(test)]
            GraphRef::Dense(d) => tape.matmul(tape.constant_shared(&d.adj), v),
        };

        for layer in &self.layers {
            h = match layer {
                LayerParams::Gcn { w, b } => {
                    let hw = tape.matmul(h, vars[w.index()]);
                    let agg = agg_gcn(hw);
                    let z = tape.add_bias(agg, vars[b.index()]);
                    tape.relu(z)
                }
                LayerParams::Sage { w, b } => {
                    let neigh = agg_mean(h);
                    let cat = tape.concat_cols(h, neigh);
                    let z = tape.matmul(cat, vars[w.index()]);
                    let z = tape.add_bias(z, vars[b.index()]);
                    tape.relu(z)
                }
                LayerParams::Gin {
                    eps,
                    w1,
                    b1,
                    w2,
                    b2,
                } => {
                    // (1 + eps) * h + A h
                    let one = tape.constant(Matrix::filled(1, 1, 1.0));
                    let one_eps = tape.add(one, vars[eps.index()]);
                    let self_term = tape.scalar_mul(one_eps, h);
                    let neigh = agg_adj(h);
                    let mixed = tape.add(self_term, neigh);
                    let z1 = tape.matmul(mixed, vars[w1.index()]);
                    let z1 = tape.add_bias(z1, vars[b1.index()]);
                    let z1 = tape.relu(z1);
                    let z2 = tape.matmul(z1, vars[w2.index()]);
                    let z2 = tape.add_bias(z2, vars[b2.index()]);
                    tape.relu(z2)
                }
                LayerParams::Tag { ws, b } => {
                    // sum_k  P^k h W_k  (P = gcn-normalised adjacency).
                    let mut acc: Option<Var> = None;
                    let mut prop = h; // P^0 h = h
                    for (k, w) in ws.iter().enumerate() {
                        if k > 0 {
                            prop = agg_gcn(prop);
                        }
                        let term = tape.matmul(prop, vars[w.index()]);
                        acc = Some(match acc {
                            None => term,
                            Some(a) => tape.add(a, term),
                        });
                    }
                    let z = tape.add_bias(acc.expect("K >= 0 gives one term"), vars[b.index()]);
                    tape.relu(z)
                }
                LayerParams::Gat { heads } => {
                    let mut outs: Option<Var> = None;
                    for head in heads {
                        let z = tape.matmul(h, vars[head.w.index()]);
                        let s_src = tape.matmul(z, vars[head.a_src.index()]); // n x 1
                        let s_dst = tape.matmul(z, vars[head.a_dst.index()]); // n x 1
                                                                              // Edge-wise attention over A + I only: the n x n
                                                                              // score matrix is never formed. Softmax normalises
                                                                              // per CSR row, so over a block-diagonal batch
                                                                              // structure it is per-segment automatically.
                        let sparse_attention = |mask: &Arc<scamdetect_tensor::CsrMatrix>| {
                            let e = tape.edge_score_sum(s_src, s_dst, mask);
                            let e = tape.leaky_relu(e, 0.2);
                            let alpha = tape.edge_softmax(e, mask);
                            tape.edge_gather(alpha, z, mask)
                        };
                        let ho = match g {
                            GraphRef::Sparse(s) => sparse_attention(&s.mask),
                            GraphRef::Batch(b) => sparse_attention(&b.mask),
                            #[cfg(test)]
                            GraphRef::Dense(d) => {
                                let e = tape.outer_sum(s_src, s_dst); // n x n
                                let e = tape.leaky_relu(e, 0.2);
                                let alpha = tape.masked_softmax_rows(e, &d.mask);
                                tape.matmul(alpha, z)
                            }
                        };
                        let ho = tape.elu(ho, 1.0);
                        outs = Some(match outs {
                            None => ho,
                            Some(prev) => tape.concat_cols(prev, ho),
                        });
                    }
                    outs.expect("at least one head")
                }
            };
        }

        // Readout: one pooled row per graph. Batches pool each node
        // segment independently; single graphs pool the whole matrix.
        let pooled = match g {
            GraphRef::Batch(b) => match self.config.readout {
                Readout::Mean => tape.segment_mean_rows(h, b.offsets()),
                Readout::Max => tape.segment_max_rows(h, b.offsets()),
                Readout::Sum => tape.segment_sum_rows(h, b.offsets()),
            },
            _ => match self.config.readout {
                Readout::Mean => tape.mean_rows(h),
                Readout::Max => tape.max_rows(h),
                Readout::Sum => tape.sum_rows(h),
            },
        };
        let logits = tape.matmul(pooled, vars[self.head_w.index()]);
        tape.add_bias(logits, vars[self.head_b.index()])
    }

    fn score_ref(&self, g: GraphRef<'_>) -> f64 {
        let tape = Tape::new();
        let vars = self.params.bind(&tape);
        let logits = self.forward(&tape, &vars, g);
        let probs = scamdetect_tensor::tape::softmax_rows(&tape.value(logits));
        probs.get(0, 1) as f64
    }

    /// P(malicious) for one graph (CSR path).
    pub fn score(&self, g: &PreparedGraph) -> f64 {
        self.score_ref(GraphRef::Sparse(g))
    }

    /// P(malicious) through the dense reference path.
    #[cfg(test)]
    pub(crate) fn score_dense(&self, g: &DenseGraph) -> f64 {
        self.score_ref(GraphRef::Dense(g))
    }

    /// P(malicious) for every graph of a packed batch, in packing order —
    /// one tape forward instead of `K`.
    ///
    /// Scores agree with per-graph [`GnnClassifier::score`] to float
    /// roundoff: the block-diagonal operators keep every graph's rows
    /// independent, and the per-segment softmax/readout never mix graphs.
    pub fn score_batch(&self, batch: &GraphBatch) -> Vec<f64> {
        let tape = Tape::new();
        let vars = self.params.bind(&tape);
        let logits = self.forward(&tape, &vars, GraphRef::Batch(batch));
        let probs = scamdetect_tensor::tape::softmax_rows(&tape.value(logits));
        (0..batch.len()).map(|k| probs.get(k, 1) as f64).collect()
    }
}

/// Decode-side bounds on the architecture a serialized [`GnnConfig`] may
/// describe: generous multiples of anything this framework trains, tight
/// enough that a crafted artifact cannot coerce the importer into
/// allocating absurd weight matrices.
const MAX_GNN_DIM: usize = 1 << 14;
const MAX_GNN_LAYERS: usize = 64;
const MAX_GNN_HEADS: usize = 32;
const MAX_GNN_TAG_K: usize = 32;

impl GnnConfig {
    /// Serializes the configuration (stable wire tags, little-endian).
    pub fn write_into(&self, w: &mut ByteWriter) {
        w.put_u8(self.kind.code());
        w.put_usize(self.input_dim);
        w.put_usize(self.hidden);
        w.put_usize(self.layers);
        w.put_u8(self.readout.code());
        w.put_usize(self.heads);
        w.put_usize(self.tag_k);
        w.put_u64(self.seed);
    }

    /// Reads a configuration written by [`GnnConfig::write_into`],
    /// validating tags and architecture bounds.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an unknown architecture/readout tag,
    /// or out-of-bounds dimensions.
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<GnnConfig, CodecError> {
        let kind =
            GnnKind::from_code(r.get_u8("gnn architecture tag")?).ok_or(CodecError::Malformed {
                context: "unknown gnn architecture tag",
            })?;
        let input_dim = r.get_usize("gnn input dim")?;
        let hidden = r.get_usize("gnn hidden width")?;
        let layers = r.get_usize("gnn layer count")?;
        let readout =
            Readout::from_code(r.get_u8("gnn readout tag")?).ok_or(CodecError::Malformed {
                context: "unknown gnn readout tag",
            })?;
        let heads = r.get_usize("gnn head count")?;
        let tag_k = r.get_usize("gnn tag hop count")?;
        let seed = r.get_u64("gnn seed")?;
        let plausible = (1..=MAX_GNN_DIM).contains(&input_dim)
            && (1..=MAX_GNN_DIM).contains(&hidden)
            && (1..=MAX_GNN_LAYERS).contains(&layers)
            && (1..=MAX_GNN_HEADS).contains(&heads)
            && tag_k <= MAX_GNN_TAG_K;
        if !plausible {
            return Err(CodecError::Malformed {
                context: "gnn config: implausible architecture dimensions",
            });
        }
        Ok(GnnConfig {
            kind,
            input_dim,
            hidden,
            layers,
            readout,
            heads,
            tag_k,
            seed,
        })
    }
}

impl ParamIo for GnnClassifier {
    fn export_state(&self, sections: &mut Sections) {
        let mut w = ByteWriter::new();
        self.config.write_into(&mut w);
        sections.push("gnn.config", w.into_bytes());
        export_parameters(&self.params, "gnn.tensor.", sections);
    }

    fn import_state(&mut self, sections: &Sections) -> Result<(), CodecError> {
        let mut r = ByteReader::new(sections.require("gnn.config")?);
        let config = GnnConfig::read_from(&mut r)?;
        if !r.is_done() {
            return Err(CodecError::Malformed {
                context: "gnn.config: trailing bytes",
            });
        }
        // Rebuild the architecture from the config — layer layout and
        // parameter names are a pure function of it — then overwrite every
        // tensor, shape-checked, from its named section.
        let mut fresh = GnnClassifier::new(config);
        import_parameters(&mut fresh.params, "gnn.tensor.", sections)?;
        *self = fresh;
        Ok(())
    }

    fn state_matches_dim(&self, dim: usize) -> bool {
        self.config.input_dim == dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph(label: usize) -> PreparedGraph {
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) % 3) as f32 * 0.5);
        let mut adj = Matrix::zeros(4, 4);
        adj.set(0, 1, 1.0);
        adj.set(1, 2, 1.0);
        adj.set(2, 3, 1.0);
        adj.set(3, 1, 1.0);
        PreparedGraph::from_parts(x, adj, label)
    }

    #[test]
    fn all_architectures_forward() {
        for kind in GnnKind::all() {
            let model = GnnClassifier::new(GnnConfig::new(kind, 6));
            let s = model.score(&toy_graph(1));
            assert!((0.0..=1.0).contains(&s), "{kind}: {s}");
            assert!(model.parameter_count() > 0);
        }
    }

    #[test]
    fn readouts_all_work() {
        for readout in Readout::all() {
            let model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6).with_readout(readout));
            let s = model.score(&toy_graph(0));
            assert!(s.is_finite(), "{}", readout.name());
        }
    }

    #[test]
    fn deeper_models_have_more_parameters() {
        let shallow = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6).with_layers(1));
        let deep = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6).with_layers(3));
        assert!(deep.parameter_count() > shallow.parameter_count());
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = GnnClassifier::new(GnnConfig::new(GnnKind::Gat, 6).with_seed(5));
        let b = GnnClassifier::new(GnnConfig::new(GnnKind::Gat, 6).with_seed(5));
        let g = toy_graph(0);
        assert_eq!(a.score(&g), b.score(&g));
    }

    #[test]
    fn isolated_graph_still_scores() {
        // No edges at all: message passing must degrade gracefully.
        let g = PreparedGraph::from_parts(Matrix::identity(3), Matrix::zeros(3, 3), 0);
        for kind in GnnKind::all() {
            let model = GnnClassifier::new(GnnConfig::new(kind, 3));
            assert!(model.score(&g).is_finite(), "{kind}");
        }
    }

    #[test]
    fn batched_scores_match_per_graph_for_every_architecture() {
        let a = toy_graph(1);
        let b = PreparedGraph::from_parts(Matrix::zeros(3, 6), Matrix::zeros(3, 3), 0);
        let c = {
            let mut adj = Matrix::zeros(2, 2);
            adj.set(0, 1, 1.0);
            PreparedGraph::from_parts(Matrix::from_fn(2, 6, |r, c| (r + c) as f32 * 0.1), adj, 1)
        };
        let batch = GraphBatch::pack(&[&a, &b, &c]);
        for kind in GnnKind::all() {
            for readout in Readout::all() {
                let model =
                    GnnClassifier::new(GnnConfig::new(kind, 6).with_readout(readout).with_seed(8));
                let batched = model.score_batch(&batch);
                let single = [model.score(&a), model.score(&b), model.score(&c)];
                for (k, (bs, ss)) in batched.iter().zip(&single).enumerate() {
                    assert!(
                        (bs - ss).abs() < 1e-6,
                        "{kind}/{}: graph {k} batched {bs} vs single {ss}",
                        readout.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_architecture_state_round_trips_bit_for_bit() {
        let g = toy_graph(1);
        for kind in GnnKind::all() {
            let model = GnnClassifier::new(
                GnnConfig::new(kind, 6)
                    .with_hidden(12)
                    .with_readout(Readout::Max)
                    .with_seed(41),
            );
            let mut sections = Sections::new();
            model.export_state(&mut sections);
            // A differently-seeded, differently-shaped fresh model must be
            // fully overwritten by the import.
            let mut restored = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 3).with_seed(9));
            restored.import_state(&sections).expect("import succeeds");
            assert_eq!(restored.name(), model.name());
            assert_eq!(restored.config().hidden, 12);
            assert_eq!(
                model.score(&g).to_bits(),
                restored.score(&g).to_bits(),
                "{kind}: score drifted through persistence"
            );
        }
    }

    #[test]
    fn import_rejects_corrupt_config() {
        let model = GnnClassifier::new(GnnConfig::new(GnnKind::Gin, 6));
        let mut sections = Sections::new();
        model.export_state(&mut sections);
        // An unknown architecture tag must fail typed, not panic.
        let mut bad = Sections::new();
        for (name, bytes) in sections.iter() {
            let mut payload = bytes.to_vec();
            if name == "gnn.config" {
                payload[0] = 0xFF;
            }
            bad.push(name, payload);
        }
        let mut target = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6));
        assert!(target.import_state(&bad).is_err());
    }

    #[test]
    fn wire_codes_are_stable_and_invertible() {
        for kind in GnnKind::all() {
            assert_eq!(GnnKind::from_code(kind.code()), Some(kind));
        }
        for readout in Readout::all() {
            assert_eq!(Readout::from_code(readout.code()), Some(readout));
        }
        assert_eq!(GnnKind::from_code(200), None);
        assert_eq!(Readout::from_code(200), None);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = GnnKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
