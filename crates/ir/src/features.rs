//! Feature extraction from the unified IR.
//!
//! Two representations are produced:
//!
//! * **node features** ([`node_feature_matrix`]) — one fixed-width vector
//!   per basic block, consumed by the GNNs;
//! * **graph features** ([`graph_feature_vector`]) — one vector per
//!   contract, consumed by the classic (PhishingHook-style) detectors.
//!
//! Both are platform-independent by construction: they only read
//! [`InstrClass`] histograms and graph structure.

use crate::unified::{InstrClass, UnifiedCfg, UnifiedEdge};
use scamdetect_graph::{DominatorTree, GraphMetrics, LoopInfo};

/// Width of each node feature vector.
pub const NODE_FEATURE_DIM: usize = InstrClass::COUNT + 6;

/// Width of the graph-level feature vector.
pub const GRAPH_FEATURE_DIM: usize = InstrClass::COUNT + 12 + 2;

/// Builds the `n x NODE_FEATURE_DIM` node feature matrix (row-major).
///
/// Per node: the block's normalized class histogram (18), then
/// `log2(1+len)/8`, in-degree and out-degree (clamped to 8, scaled),
/// entry flag, exit flag (no successors), loop-header flag.
pub fn node_feature_matrix(cfg: &UnifiedCfg) -> Vec<f32> {
    let g = cfg.graph();
    let n = g.node_count();
    let dom = DominatorTree::compute(g, cfg.entry());
    let loops = LoopInfo::detect(g, &dom);
    let mut out = Vec::with_capacity(n * NODE_FEATURE_DIM);
    for (id, b) in g.nodes() {
        let total = b.instr_count.max(1) as f32;
        for &c in &b.class_counts {
            out.push(c as f32 / total);
        }
        out.push(((1 + b.instr_count) as f32).log2() / 8.0);
        out.push((g.in_degree(id).min(8)) as f32 / 8.0);
        out.push((g.out_degree(id).min(8)) as f32 / 8.0);
        out.push((id == cfg.entry()) as u8 as f32);
        out.push((g.out_degree(id) == 0) as u8 as f32);
        out.push(loops.is_header(id) as u8 as f32);
    }
    out
}

/// Builds the contract-level feature vector.
///
/// Layout: normalized class histogram (18) ‖ graph metrics (12, each
/// squashed to a stable scale) ‖ unresolved-jump fraction ‖ sensitive-block
/// fraction.
pub fn graph_feature_vector(cfg: &UnifiedCfg) -> Vec<f64> {
    let mut out = Vec::with_capacity(GRAPH_FEATURE_DIM);
    out.extend_from_slice(&cfg.class_histogram());

    let m = GraphMetrics::compute(cfg.graph(), cfg.entry());
    // Squash unbounded counts to log scale so contract size does not
    // dominate every other signal.
    let squash = |v: f64| (1.0 + v.max(0.0)).log2();
    out.push(squash(m.node_count as f64) / 12.0);
    out.push(squash(m.edge_count as f64) / 12.0);
    out.push(m.density.min(1.0));
    out.push((m.avg_out_degree / 4.0).min(1.0));
    out.push((m.max_out_degree as f64 / 16.0).min(1.0));
    out.push(squash(m.branch_count as f64) / 10.0);
    out.push(squash(m.exit_count as f64) / 10.0);
    out.push(squash(m.loop_count as f64) / 8.0);
    out.push(squash(m.scc_count as f64) / 8.0);
    out.push(squash(m.depth as f64) / 10.0);
    out.push(squash(m.unreachable_count as f64) / 10.0);
    out.push(squash(m.cyclomatic.max(0) as f64) / 10.0);

    out.push(cfg.unresolved_fraction() as f64);
    let sensitive = cfg
        .graph()
        .nodes()
        .filter(|(_, b)| b.has_sensitive_op())
        .count() as f64;
    out.push(sensitive / cfg.block_count().max(1) as f64);
    debug_assert_eq!(out.len(), GRAPH_FEATURE_DIM);
    out
}

/// Dense adjacency matrix (row = source block) of the unified CFG, with
/// unresolved edges optionally down-weighted so over-approximation noise
/// does not drown real structure.
///
/// Only tests use this, as the dense reference; the scan path builds
/// the `O(e)` [`edge_list`] instead and never materialises `n x n`.
pub fn adjacency_matrix(cfg: &UnifiedCfg, unresolved_weight: f32) -> Vec<f32> {
    let g = cfg.graph();
    let n = g.node_count();
    let mut m = vec![0.0f32; n * n];
    for (u, v, k) in g.edges() {
        let w = match k {
            UnifiedEdge::Unresolved => unresolved_weight,
            _ => 1.0,
        };
        let cell = &mut m[u.index() * n + v.index()];
        *cell = cell.max(w);
    }
    m
}

/// Weighted `(source, target, weight)` edge list of the unified CFG — the
/// sparse counterpart of [`adjacency_matrix`] with identical semantics:
/// unresolved edges carry `unresolved_weight`, parallel edges collapse to
/// the maximum weight, and the result is sorted by `(source, target)`.
pub fn edge_list(cfg: &UnifiedCfg, unresolved_weight: f32) -> Vec<(u32, u32, f32)> {
    let g = cfg.graph();
    let mut edges: Vec<(u32, u32, f32)> = g
        .edges()
        .map(|(u, v, k)| {
            let w = match k {
                UnifiedEdge::Unresolved => unresolved_weight,
                _ => 1.0,
            };
            (u.index() as u32, v.index() as u32, w)
        })
        .collect();
    dedup_edges_max(&mut edges);
    edges
}

/// Sorts `edges` by `(source, target)` and collapses duplicate coordinates
/// to the maximum weight — the one normalisation rule for adjacency edge
/// lists (parallel CFG edges keep their strongest weight). Lists that are
/// already strictly sorted (hence duplicate-free) are left untouched in
/// `O(e)`.
pub fn dedup_edges_max(edges: &mut Vec<(u32, u32, f32)>) {
    if edges
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
    {
        return;
    }
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    edges.dedup_by(|cur, prev| {
        if prev.0 == cur.0 && prev.1 == cur.1 {
            prev.2 = prev.2.max(cur.2);
            true
        } else {
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unified::{Platform, UnifiedBlock};
    use scamdetect_graph::DiGraph;

    fn tiny_cfg() -> UnifiedCfg {
        let mut g: DiGraph<UnifiedBlock, UnifiedEdge> = DiGraph::new();
        let mut b0 = UnifiedBlock::new();
        b0.record(InstrClass::PushConst);
        b0.record(InstrClass::Flow);
        let mut b1 = UnifiedBlock::new();
        b1.record(InstrClass::ValueTransfer);
        let b2 = UnifiedBlock::new();
        let n0 = g.add_node(b0);
        let n1 = g.add_node(b1);
        let n2 = g.add_node(b2);
        g.add_edge(n0, n1, UnifiedEdge::Branch);
        g.add_edge(n0, n2, UnifiedEdge::Seq);
        g.add_edge(n1, n2, UnifiedEdge::Unresolved);
        UnifiedCfg::new(g, n0, Platform::Evm, 0.25)
    }

    #[test]
    fn node_matrix_shape_and_flags() {
        let cfg = tiny_cfg();
        let m = node_feature_matrix(&cfg);
        assert_eq!(m.len(), 3 * NODE_FEATURE_DIM);
        // Entry flag of node 0 set, of node 1 clear.
        let entry_col = InstrClass::COUNT + 3;
        assert_eq!(m[entry_col], 1.0);
        assert_eq!(m[NODE_FEATURE_DIM + entry_col], 0.0);
        // Exit flag of node 2 set.
        let exit_col = InstrClass::COUNT + 4;
        assert_eq!(m[2 * NODE_FEATURE_DIM + exit_col], 1.0);
        // Class histogram of node 1: all mass on ValueTransfer.
        assert_eq!(m[NODE_FEATURE_DIM + InstrClass::ValueTransfer.index()], 1.0);
    }

    #[test]
    fn graph_vector_dimension_and_ranges() {
        let v = graph_feature_vector(&tiny_cfg());
        assert_eq!(v.len(), GRAPH_FEATURE_DIM);
        assert!(v.iter().all(|x| x.is_finite()));
        // Histogram head sums to 1.
        let head: f64 = v[..InstrClass::COUNT].iter().sum();
        assert!((head - 1.0).abs() < 1e-9);
        // Unresolved fraction preserved.
        assert!((v[GRAPH_FEATURE_DIM - 2] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn adjacency_downweights_unresolved() {
        let cfg = tiny_cfg();
        let a = adjacency_matrix(&cfg, 0.1);
        let n = 3;
        assert_eq!(a[1], 1.0);
        assert!((a[n + 2] - 0.1).abs() < 1e-6);
        assert_eq!(a[2 * n], 0.0);
    }

    #[test]
    fn edge_list_matches_dense_adjacency() {
        let cfg = tiny_cfg();
        let edges = edge_list(&cfg, 0.1);
        let dense = adjacency_matrix(&cfg, 0.1);
        let n = 3;
        // Every listed edge is present in the dense matrix with the same
        // weight, and the nonzero counts agree.
        for &(u, v, w) in &edges {
            assert!((dense[u as usize * n + v as usize] - w).abs() < 1e-6);
        }
        assert_eq!(
            edges.len(),
            dense.iter().filter(|&&x| x != 0.0).count(),
            "edge list must cover exactly the dense nonzeros"
        );
        // Sorted by (source, target).
        let mut sorted = edges.clone();
        sorted.sort_unstable_by_key(|&(u, v, _)| (u, v));
        assert_eq!(edges, sorted);
    }

    #[test]
    fn features_are_size_stable_across_platforms() {
        // The same function must yield identical dimensions regardless of
        // platform tag — the agnostic-model invariant.
        let mut cfg = tiny_cfg();
        let d1 = graph_feature_vector(&cfg).len();
        cfg = UnifiedCfg::new(cfg.graph().clone(), cfg.entry(), Platform::Wasm, 0.0);
        assert_eq!(graph_feature_vector(&cfg).len(), d1);
    }
}
