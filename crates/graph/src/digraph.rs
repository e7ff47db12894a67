//! The core directed-graph container.

use std::fmt;

/// Index of a node inside a [`DiGraph`].
///
/// `NodeId`s are dense, zero-based and stable: nodes are never removed, so an
/// id obtained from [`DiGraph::add_node`] stays valid for the graph's life.
///
/// # Examples
///
/// ```
/// use scamdetect_graph::{DiGraph, NodeId};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let id = g.add_node(());
/// assert_eq!(id, NodeId::new(0));
/// assert_eq!(id.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a `NodeId` from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the zero-based index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A borrowed view of one outgoing edge: target node plus edge payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef<'a, E> {
    /// Node the edge points to.
    pub target: NodeId,
    /// Payload stored on the edge.
    pub weight: &'a E,
}

/// A growable directed multigraph with node payloads `N` and edge payloads
/// `E`.
///
/// The graph stores forward and reverse adjacency so both successor and
/// predecessor queries are O(out-degree) / O(in-degree). Nodes cannot be
/// removed (control-flow graphs are built once and then analysed), which
/// keeps ids stable and the representation compact.
///
/// # Examples
///
/// ```
/// use scamdetect_graph::DiGraph;
///
/// let mut g: DiGraph<u32, &str> = DiGraph::new();
/// let a = g.add_node(10);
/// let b = g.add_node(20);
/// g.add_edge(a, b, "fallthrough");
/// assert_eq!(*g.node(a), 10);
/// assert!(g.has_edge(a, b));
/// assert_eq!(g.out_degree(a), 1);
/// assert_eq!(g.in_degree(b), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    out_adj: Vec<Vec<(NodeId, E)>>,
    in_adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `weight` and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(weight);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `from -> to` carrying `weight`.
    ///
    /// Parallel edges are allowed (a conditional jump whose target equals its
    /// fall-through produces one).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: E) {
        assert!(from.index() < self.nodes.len(), "`from` out of bounds");
        assert!(to.index() < self.nodes.len(), "`to` out of bounds");
        self.out_adj[from.index()].push((to, weight));
        self.in_adj[to.index()].push(from);
        self.edge_count += 1;
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow the payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutably borrow the payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Fallible payload lookup.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.index())
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterator over `(id, &payload)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// Iterator over the successor ids of `id`.
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[id.index()].iter().map(|(t, _)| *t)
    }

    /// Iterator over outgoing edges (target + payload) of `id`.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.out_adj[id.index()].iter().map(|(t, w)| EdgeRef {
            target: *t,
            weight: w,
        })
    }

    /// Iterator over the predecessor ids of `id`.
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[id.index()].iter().copied()
    }

    /// Out-degree of `id`.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_adj[id.index()].len()
    }

    /// In-degree of `id`.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_adj[id.index()].len()
    }

    /// Returns `true` if at least one edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.out_adj[from.index()].iter().any(|(t, _)| *t == to)
    }

    /// Iterator over every edge as `(from, to, &weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &E)> {
        self.out_adj
            .iter()
            .enumerate()
            .flat_map(|(i, adj)| adj.iter().map(move |(t, w)| (NodeId::new(i), *t, w)))
    }

    /// Builds a new graph with the same topology, node payloads
    /// transformed by `node` and edge payloads by `edge`, in one pass.
    /// Node ids, successor order and predecessor order are preserved.
    pub fn map<M, F>(
        &self,
        mut node: impl FnMut(NodeId, &N) -> M,
        mut edge: impl FnMut(&E) -> F,
    ) -> DiGraph<M, F> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| node(NodeId::new(i), n))
                .collect(),
            out_adj: self
                .out_adj
                .iter()
                .map(|adj| adj.iter().map(|(t, w)| (*t, edge(w))).collect())
                .collect(),
            in_adj: self.in_adj.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Dense adjacency matrix (row = source) with 1.0 marking an edge.
    ///
    /// Parallel edges collapse to a single 1.0 entry; GNN message passing
    /// treats the CFG as a simple graph.
    pub fn adjacency_matrix(&self) -> Vec<f32> {
        let n = self.node_count();
        let mut m = vec![0.0f32; n * n];
        for (from, to, _) in self.edges() {
            m[from.index() * n + to.index()] = 1.0;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u8>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 0);
        g.add_edge(a, c, 1);
        g.add_edge(b, d, 2);
        g.add_edge(c, d, 3);
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query_nodes() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(a), "a");
        assert_eq!(*g.node(d), "d");
        assert!(g.get(NodeId::new(9)).is_none());
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.successors(b).collect::<Vec<_>>(), vec![d]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
    }

    #[test]
    fn edge_payloads_visible_through_out_edges() {
        let (g, [a, ..]) = diamond();
        let ws: Vec<u8> = g.out_edges(a).map(|e| *e.weight).collect();
        assert_eq!(ws, vec![0, 1]);
    }

    #[test]
    fn has_edge_and_parallel_edges() {
        let (mut g, [a, b, ..]) = diamond();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        g.add_edge(a, b, 9);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn map_preserves_topology() {
        let (g, [a, _, _, d]) = diamond();
        let h = g.map(|_, s| s.len(), |w| u32::from(*w) * 10);
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.edge_count(), 4);
        assert_eq!(*h.node(a), 1);
        assert!(h.has_edge(a, NodeId::new(1)));
        assert_eq!(h.in_degree(d), 2);
        let mapped: Vec<_> = h.edges().map(|(u, v, w)| (u, v, *w)).collect();
        let original: Vec<_> = g
            .edges()
            .map(|(u, v, w)| (u, v, u32::from(*w) * 10))
            .collect();
        assert_eq!(mapped, original);
        assert!(g
            .node_ids()
            .all(|n| h.predecessors(n).eq(g.predecessors(n))));
    }

    #[test]
    fn adjacency_matrix_marks_edges() {
        let (g, [a, b, _, d]) = diamond();
        let m = g.adjacency_matrix();
        let n = g.node_count();
        assert_eq!(m[a.index() * n + b.index()], 1.0);
        assert_eq!(m[b.index() * n + d.index()], 1.0);
        assert_eq!(m[d.index() * n + a.index()], 0.0);
    }

    #[test]
    fn display_and_conversions() {
        let id = NodeId::new(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(usize::from(id), 7);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let (g, _) = diamond();
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_bad_endpoint_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::new(3), ());
    }
}
