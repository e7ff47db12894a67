//! Mini-batch training for GNN classifiers.
//!
//! [`train`] packs each step's graphs into one block-diagonal
//! [`GraphBatch`] so a single tape forward/backward scores the whole batch
//! — `K` small sparse kernels collapse into one large one and the tape
//! records `O(layers)` steps per batch instead of `O(K · layers)`. Tests
//! keep two per-graph loops as references for it: `train_unbatched` (CSR,
//! one forward per graph) and `train_dense` (dense `n x n`).

#[cfg(test)]
use crate::graph_batch::DenseGraph;
use crate::graph_batch::{GraphBatch, PreparedGraph};
use crate::model::{GnnClassifier, GraphRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scamdetect_tensor::{optim::Adam, Matrix, Tape};

/// Hyperparameters of the per-graph reference loops (`train_unbatched`,
/// `train_dense`).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Graphs per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// AdamW-style weight decay.
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Stop early when the epoch loss drops below this.
    pub loss_target: f32,
}

#[cfg(test)]
impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 5e-3,
            weight_decay: 1e-4,
            seed: 7,
            loss_target: 0.02,
        }
    }
}

/// Hyperparameters of [`train`], the block-diagonal mini-batch path.
#[derive(Debug, Clone)]
pub struct BatchTrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Graphs per gradient step (per packed [`GraphBatch`]).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// AdamW-style weight decay.
    pub weight_decay: f32,
    /// Shuffling seed (graph order, or batch order when bucketing).
    pub seed: u64,
    /// Stop early when the epoch loss drops below this.
    pub loss_target: f32,
    /// Length-bucketing: sort graphs by node count into contiguous batches
    /// packed **once**, then shuffle only the batch order per epoch.
    /// Similar-sized graphs share a batch (bounding the node count any one
    /// batch carries) and per-epoch repacking disappears; the trade-off is
    /// that batch *composition* is fixed across epochs.
    pub bucket_by_size: bool,
    /// Upper bound on total nodes per packed batch; a batch is cut early
    /// rather than exceed it (every batch still carries at least one
    /// graph). `None` bounds batches by `batch_size` only.
    pub max_batch_nodes: Option<usize>,
}

impl Default for BatchTrainConfig {
    fn default() -> Self {
        BatchTrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 5e-3,
            weight_decay: 1e-4,
            seed: 7,
            loss_target: 0.02,
            bucket_by_size: false,
            max_batch_nodes: None,
        }
    }
}

#[cfg(test)]
impl BatchTrainConfig {
    /// The per-graph reference configuration with the same hyperparameters.
    pub(crate) fn unbatched(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            weight_decay: self.weight_decay,
            seed: self.seed,
            loss_target: self.loss_target,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Mean loss per epoch.
    pub epoch_loss: Vec<f32>,
}

impl TrainHistory {
    /// Final epoch's loss (`None` before training).
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_loss.last().copied()
    }
}

/// Trains `model` on `data` in place and returns the loss history: one
/// tape, one forward, one backward and one Adam step per batch of `K`
/// graphs.
///
/// Each gradient step packs its graphs into one [`GraphBatch`]; the loss
/// is the mean cross-entropy over the batch's per-graph logits rows, so
/// the optimisation trajectory matches the per-graph reference loop under
/// the same seed to float roundoff.
///
/// Graph order is reshuffled every epoch by a seeded Fisher–Yates (the
/// same stream the reference loops draw), then chunked into batches of
/// [`BatchTrainConfig::batch_size`] graphs, optionally cut early by
/// [`BatchTrainConfig::max_batch_nodes`]. With
/// [`BatchTrainConfig::bucket_by_size`] the batches are instead formed
/// once over a node-count-sorted order and only the batch order is
/// shuffled per epoch, so packing is paid once per training run.
pub fn train(
    model: &mut GnnClassifier,
    data: &[PreparedGraph],
    cfg: &BatchTrainConfig,
) -> TrainHistory {
    let mut history = TrainHistory::default();
    if data.is_empty() {
        return history;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    // Bucketing packs once over the size-sorted order and shuffles batch
    // order only; otherwise the graph order is reshuffled and each chunk is
    // packed fresh every epoch (packing is O(n + e) per batch — noise next
    // to the forward/backward it feeds).
    let prebuilt: Option<Vec<GraphBatch>> = cfg.bucket_by_size.then(|| {
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.sort_by_key(|&i| (data[i].node_count(), i));
        chunk_bounded(&idx, data, cfg)
            .into_iter()
            .map(|chunk| pack_chunk(data, &chunk))
            .collect()
    });
    let mut order: Vec<usize> = match &prebuilt {
        Some(batches) => (0..batches.len()).collect(),
        None => (0..data.len()).collect(),
    };

    for _epoch in 0..cfg.epochs {
        shuffle(&mut order, &mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        match &prebuilt {
            Some(prepacked) => {
                for &b in &order {
                    epoch_loss += batch_step(model, &mut adam, &prepacked[b]);
                    batches += 1;
                }
            }
            None => {
                for chunk in chunk_bounded(&order, data, cfg) {
                    epoch_loss += batch_step(model, &mut adam, &pack_chunk(data, &chunk));
                    batches += 1;
                }
            }
        }
        let mean_epoch = epoch_loss / batches.max(1) as f32;
        history.epoch_loss.push(mean_epoch);
        if mean_epoch < cfg.loss_target {
            break;
        }
    }
    history
}

/// One gradient step over a packed batch; returns the batch's mean loss.
fn batch_step(model: &mut GnnClassifier, adam: &mut Adam, batch: &GraphBatch) -> f32 {
    let tape = Tape::new();
    let vars = model.params().bind(&tape);
    let logits = model.forward(&tape, &vars, GraphRef::Batch(batch));
    let loss = tape.softmax_cross_entropy(logits, batch.labels());
    let loss_value = tape.value(loss).get(0, 0);
    let grads = tape.backward(loss);
    adam.step(model.params_mut(), |id| grads.of(vars[id.index()]));
    loss_value
}

/// Splits `order` into batches of at most `cfg.batch_size` graphs, cut
/// early when adding the next graph would push the packed node count past
/// `cfg.max_batch_nodes` (a batch always takes at least one graph).
fn chunk_bounded(
    order: &[usize],
    data: &[PreparedGraph],
    cfg: &BatchTrainConfig,
) -> Vec<Vec<usize>> {
    let bs = cfg.batch_size.max(1);
    let mut chunks = Vec::with_capacity(order.len().div_ceil(bs));
    let mut current: Vec<usize> = Vec::with_capacity(bs);
    let mut nodes = 0usize;
    for &i in order {
        let n = data[i].node_count();
        let over_cap = cfg
            .max_batch_nodes
            .is_some_and(|cap| !current.is_empty() && nodes + n > cap);
        if current.len() == bs || over_cap {
            chunks.push(std::mem::take(&mut current));
            nodes = 0;
        }
        current.push(i);
        nodes += n;
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

fn pack_chunk(data: &[PreparedGraph], chunk: &[usize]) -> GraphBatch {
    let refs: Vec<&PreparedGraph> = chunk.iter().map(|&i| &data[i]).collect();
    GraphBatch::pack(&refs)
}

/// Seeded Fisher–Yates; the exact shuffle stream every training loop in
/// this module draws, so equal seeds give equal visit orders across the
/// batched, unbatched and dense paths.
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
}

/// Per-graph CSR training — the unbatched reference loop (one forward per
/// graph, losses summed on the tape) that [`train`] is tested against.
#[cfg(test)]
pub(crate) fn train_unbatched(
    model: &mut GnnClassifier,
    data: &[PreparedGraph],
    cfg: &TrainConfig,
) -> TrainHistory {
    let refs: Vec<GraphRef<'_>> = data.iter().map(GraphRef::Sparse).collect();
    train_refs(model, &refs, cfg)
}

/// [`train_unbatched`] over the dense reference representation — identical
/// loop and shuffling.
#[cfg(test)]
pub(crate) fn train_dense(
    model: &mut GnnClassifier,
    data: &[DenseGraph],
    cfg: &TrainConfig,
) -> TrainHistory {
    let refs: Vec<GraphRef<'_>> = data.iter().map(GraphRef::Dense).collect();
    train_refs(model, &refs, cfg)
}

#[cfg(test)]
fn train_refs(model: &mut GnnClassifier, data: &[GraphRef<'_>], cfg: &TrainConfig) -> TrainHistory {
    let mut history = TrainHistory::default();
    if data.is_empty() {
        return history;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut order: Vec<usize> = (0..data.len()).collect();

    for _epoch in 0..cfg.epochs {
        shuffle(&mut order, &mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let tape = Tape::new();
            let vars = model.params().bind(&tape);
            let mut loss_acc = None;
            for &i in chunk {
                let g = data[i];
                let logits = model.forward(&tape, &vars, g);
                let loss = tape.softmax_cross_entropy(logits, &[g.label()]);
                loss_acc = Some(match loss_acc {
                    None => loss,
                    Some(acc) => tape.add(acc, loss),
                });
            }
            let total = loss_acc.expect("nonempty batch");
            let mean = tape.scale(total, 1.0 / chunk.len() as f32);
            epoch_loss += tape.value(mean).get(0, 0);
            batches += 1;
            let grads = tape.backward(mean);
            adam.step(model.params_mut(), |id| grads.of(vars[id.index()]));
        }
        let mean_epoch = epoch_loss / batches.max(1) as f32;
        history.epoch_loss.push(mean_epoch);
        if mean_epoch < cfg.loss_target {
            break;
        }
    }
    history
}

/// Evaluates `model` on `data`: returns `(truth, predictions, scores)`.
pub fn evaluate(
    model: &GnnClassifier,
    data: &[PreparedGraph],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut truth = Vec::with_capacity(data.len());
    let mut preds = Vec::with_capacity(data.len());
    let mut scores = Vec::with_capacity(data.len());
    for g in data {
        let s = model.score(g);
        truth.push(g.label);
        preds.push(usize::from(s >= 0.5));
        scores.push(s);
    }
    (truth, preds, scores)
}

/// Accuracy shortcut over [`evaluate`].
pub fn accuracy(model: &GnnClassifier, data: &[PreparedGraph]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let (truth, preds, _) = evaluate(model, data);
    truth.iter().zip(&preds).filter(|(t, p)| t == p).count() as f64 / data.len() as f64
}

/// Builds a synthetic, structurally separable graph dataset for tests and
/// examples: class 0 graphs are chains, class 1 graphs are chains
/// plus a dense hub (a "drain loop" caricature). Mirroring the real
/// pipeline's node features, column 0 carries the normalised out-degree
/// (structure made locally visible); the remaining columns are noise.
pub fn synthetic_structural_dataset(n: usize, dim: usize, seed: u64) -> Vec<PreparedGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 2;
        let nodes = rng.random_range(6..12);
        let mut adj = Matrix::zeros(nodes, nodes);
        for v in 0..nodes - 1 {
            adj.set(v, v + 1, 1.0);
        }
        if label == 1 {
            // Hub: node 0 connects to everything and back — a dense,
            // loop-heavy motif chains lack.
            for v in 1..nodes {
                adj.set(0, v, 1.0);
                adj.set(v, 0, 1.0);
            }
        }
        let x = Matrix::from_fn(nodes, dim, |r, c| {
            if c == 0 {
                let deg: f32 = (0..nodes).map(|j| adj.get(r, j)).sum();
                (deg.min(8.0)) / 8.0
            } else {
                rng.random_range(0.0..0.3)
            }
        });
        out.push(PreparedGraph::from_parts(x, adj, label));
    }
    out
}

/// Builds one synthetic CFG-shaped sparse graph: a chain of `n` nodes with
/// `n` random shortcut/back edges (average out-degree ≈ 2, a quarter
/// down-weighted to 0.25 like unresolved jumps) plus `isolated` trailing
/// nodes with no edges at all, labelled `seed % 2`. This is the density
/// regime real contract CFGs live in; the equivalence tests draw from it.
#[cfg(test)]
pub(crate) fn synthetic_sparse_graph(
    n: usize,
    isolated: usize,
    dim: usize,
    seed: u64,
) -> PreparedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = n + isolated;
    let mut edges = Vec::new();
    for v in 0..n.saturating_sub(1) as u32 {
        edges.push((v, v + 1, 1.0));
    }
    for _ in 0..n {
        let u = rng.random_range(0..n.max(1)) as u32;
        let v = rng.random_range(0..n.max(1)) as u32;
        let w = if rng.random_range(0..4) == 0 {
            0.25
        } else {
            1.0
        };
        edges.push((u, v, w));
    }
    let x = Matrix::from_fn(total, dim, |_, _| rng.random_range(-1.0..1.0));
    PreparedGraph::from_edges(x, edges, (seed % 2) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GnnConfig, GnnKind};

    #[test]
    fn training_reduces_loss_and_learns_structure() {
        let data = synthetic_structural_dataset(40, 6, 3);
        let mut model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6).with_hidden(16));
        let cfg = BatchTrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 2e-2,
            ..BatchTrainConfig::default()
        };
        let hist = train(&mut model, &data, &cfg);
        let first = hist.epoch_loss[0];
        let last = hist.final_loss().unwrap();
        assert!(last < first, "loss went {first} -> {last}");
        let acc = accuracy(&model, &data);
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn every_architecture_trains_on_structure() {
        let data = synthetic_structural_dataset(30, 6, 5);
        for kind in GnnKind::all() {
            let mut model =
                GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(12).with_seed(2));
            let cfg = BatchTrainConfig {
                epochs: 60,
                batch_size: 10,
                lr: 2e-2,
                ..BatchTrainConfig::default()
            };
            train(&mut model, &data, &cfg);
            let acc = accuracy(&model, &data);
            assert!(acc > 0.8, "{kind} reached only {acc}");
        }
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 4));
        let hist = train(&mut model, &[], &BatchTrainConfig::default());
        assert!(hist.epoch_loss.is_empty());
        assert_eq!(accuracy(&model, &[]), 0.0);
    }

    #[test]
    fn evaluate_shapes_align() {
        let data = synthetic_structural_dataset(10, 4, 1);
        let model = GnnClassifier::new(GnnConfig::new(GnnKind::Sage, 4));
        let (t, p, s) = evaluate(&model, &data);
        assert_eq!(t.len(), 10);
        assert_eq!(p.len(), 10);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    #[test]
    fn training_is_deterministic() {
        let data = synthetic_structural_dataset(16, 4, 9);
        let mk = || {
            let mut m = GnnClassifier::new(GnnConfig::new(GnnKind::Gin, 4).with_seed(4));
            train(
                &mut m,
                &data,
                &BatchTrainConfig {
                    epochs: 5,
                    ..BatchTrainConfig::default()
                },
            );
            m.score(&data[0])
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn batched_loss_tracks_unbatched_reference() {
        // Same seed, same hyperparameters: per-epoch losses of the
        // block-diagonal path and the per-graph path must agree closely —
        // the batched CE is the same mean the unbatched tape accumulates.
        let data = synthetic_structural_dataset(24, 6, 11);
        let cfg = BatchTrainConfig {
            epochs: 5,
            batch_size: 6,
            lr: 1e-2,
            loss_target: 0.0,
            ..BatchTrainConfig::default()
        };
        for kind in GnnKind::all() {
            let mut mb = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8).with_seed(5));
            let mut mu = GnnClassifier::new(GnnConfig::new(kind, 6).with_hidden(8).with_seed(5));
            let hb = train(&mut mb, &data, &cfg);
            let hu = train_unbatched(&mut mu, &data, &cfg.unbatched());
            assert_eq!(hb.epoch_loss.len(), hu.epoch_loss.len());
            for (lb, lu) in hb.epoch_loss.iter().zip(&hu.epoch_loss) {
                assert!(
                    (lb - lu).abs() < 1e-3,
                    "{kind}: batched {lb} vs unbatched {lu}"
                );
            }
            let sb = mb.score(&data[0]);
            let su = mu.score(&data[0]);
            assert!((sb - su).abs() < 1e-3, "{kind}: {sb} vs {su}");
        }
    }

    #[test]
    fn bucketing_still_learns_structure() {
        let data = synthetic_structural_dataset(40, 6, 3);
        let mut model = GnnClassifier::new(GnnConfig::new(GnnKind::Gcn, 6).with_hidden(16));
        let cfg = BatchTrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 2e-2,
            bucket_by_size: true,
            ..BatchTrainConfig::default()
        };
        let hist = train(&mut model, &data, &cfg);
        assert!(hist.final_loss().unwrap() < hist.epoch_loss[0]);
        assert!(accuracy(&model, &data) > 0.9);
    }

    #[test]
    fn max_batch_nodes_bounds_every_chunk() {
        let data: Vec<PreparedGraph> = (0..10)
            .map(|i| synthetic_sparse_graph(4 + i, 0, 4, i as u64))
            .collect();
        let cfg = BatchTrainConfig {
            batch_size: 8,
            max_batch_nodes: Some(16),
            ..BatchTrainConfig::default()
        };
        let order: Vec<usize> = (0..data.len()).collect();
        for chunk in chunk_bounded(&order, &data, &cfg) {
            assert!(!chunk.is_empty());
            let nodes: usize = chunk.iter().map(|&i| data[i].node_count()).sum();
            // A single oversized graph may exceed the cap alone; any
            // multi-graph chunk must respect it.
            assert!(
                chunk.len() == 1 || nodes <= 16,
                "chunk carries {nodes} nodes"
            );
        }
        // Training under the cap still runs end to end.
        let mut model = GnnClassifier::new(GnnConfig::new(GnnKind::Sage, 4));
        let hist = train(&mut model, &data, &BatchTrainConfig { epochs: 2, ..cfg });
        assert_eq!(hist.epoch_loss.len(), 2);
    }
}
