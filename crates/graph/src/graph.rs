//! The immutable CSR communication graph.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::delta::WindowDelta;
use crate::edge::{Edge, Weight};
use crate::node::NodeId;

/// An immutable, weighted, directed communication graph `G_t = (V, E_t)` in
/// compressed-sparse-row form.
///
/// Both out-adjacency (`O(v)` with weights `C[v, ·]`) and in-adjacency
/// (`I(v)` with weights `C[·, v]`) are materialised, because the paper's
/// signature schemes need both directions: Top Talkers reads out-edges,
/// Unexpected Talkers additionally needs in-degrees `|I(j)|`, and RWR walks
/// forward over out-edges.
///
/// Neighbour lists are sorted by node id, so `C[i, j]` lookups are
/// `O(log deg)` binary searches and neighbour iteration is deterministic.
///
/// The node space is fixed at construction: a window's graph over a global
/// interner may contain isolated nodes (hosts silent in that window), which
/// matches the paper's convention that `V` is (mostly) shared across
/// windows while `E_t` varies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommGraph {
    num_nodes: usize,
    num_edges: usize,
    total_weight: Weight,

    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    out_weights: Vec<Weight>,

    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
    in_weights: Vec<Weight>,

    // Cached row/column sums of the weight matrix, so that
    // `out_weight_sum` / `in_weight_sum` — which sit on the inner loop of
    // every random-walk step — are O(1) lookups instead of O(deg) scans.
    out_weight_sums: Vec<Weight>,
    in_weight_sums: Vec<Weight>,

    // Lazily materialised symmetrised adjacency (see [`UndirectedCsr`]).
    undirected: OnceLock<UndirectedCsr>,
}

/// Merged, pre-normalised undirected view of a [`CommGraph`].
///
/// Row `v` holds the distinct neighbours of `v` in either direction, each
/// with the transition probability
/// `(C[v,u] + C[u,v]) / (Σ C[v,·] + Σ C[·,v])` already divided out. An
/// undirected random-walk step then reads one contiguous, sorted row and
/// multiplies — no per-step merging of the out- and in-rows and no
/// re-normalisation. Built once per graph on first use.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct UndirectedCsr {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    probs: Vec<f64>,
}

impl CommGraph {
    /// Builds a graph from edges already sorted by `(src, dst)` with no
    /// duplicate pairs. Prefer [`GraphBuilder`](crate::GraphBuilder) unless
    /// you already hold aggregated, sorted edges.
    ///
    /// # Panics
    /// Panics if an edge references a node `>= num_nodes`, if edges are not
    /// strictly sorted by `(src, dst)`, or if a weight is not finite and
    /// positive.
    pub fn from_sorted_edges(num_nodes: usize, edges: Vec<Edge>) -> Self {
        let m = edges.len();
        let mut out_offsets = vec![0usize; num_nodes + 1];
        let mut in_counts = vec![0usize; num_nodes];
        let mut total_weight = 0.0;

        let mut prev: Option<(NodeId, NodeId)> = None;
        for e in &edges {
            assert!(
                e.src.index() < num_nodes && e.dst.index() < num_nodes,
                "node index out of range: {} -> {} with |V| = {}",
                e.src,
                e.dst,
                num_nodes
            );
            assert!(
                e.weight.is_finite() && e.weight > 0.0,
                "edge weight must be finite and positive, got {}",
                e.weight
            );
            let key = (e.src, e.dst);
            assert!(
                prev.is_none_or(|p| p < key),
                "edges must be strictly sorted by (src, dst)"
            );
            prev = Some(key);
            out_offsets[e.src.index() + 1] += 1;
            in_counts[e.dst.index()] += 1;
            total_weight += e.weight;
        }
        for i in 0..num_nodes {
            out_offsets[i + 1] += out_offsets[i];
        }

        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = Vec::with_capacity(m);
        for e in &edges {
            out_targets.push(e.dst);
            out_weights.push(e.weight);
        }

        // Counting sort of the same edges by destination builds the
        // in-adjacency; because the input is sorted by (src, dst), each
        // in-list comes out sorted by source automatically.
        let mut in_offsets = vec![0usize; num_nodes + 1];
        for i in 0..num_nodes {
            in_offsets[i + 1] = in_offsets[i] + in_counts[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId::new(0); m];
        let mut in_weights = vec![0.0; m];
        let mut out_weight_sums = vec![0.0; num_nodes];
        let mut in_weight_sums = vec![0.0; num_nodes];
        for e in &edges {
            let slot = cursor[e.dst.index()];
            in_sources[slot] = e.src;
            in_weights[slot] = e.weight;
            cursor[e.dst.index()] += 1;
            out_weight_sums[e.src.index()] += e.weight;
            in_weight_sums[e.dst.index()] += e.weight;
        }

        CommGraph {
            num_nodes,
            num_edges: m,
            total_weight,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
            out_weight_sums,
            in_weight_sums,
            undirected: OnceLock::new(),
        }
    }

    /// An edge-less graph over `num_nodes` nodes — the seed of a
    /// delta-driven stream (see [`Self::apply_delta`]).
    #[must_use]
    pub fn empty(num_nodes: usize) -> Self {
        CommGraph::from_sorted_edges(num_nodes, Vec::new())
    }

    /// Number of nodes `|V|` (including isolated nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges `|E_t|` with positive weight.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all edge weights.
    #[inline]
    pub fn total_weight(&self) -> Weight {
        self.total_weight
    }

    /// Iterates over all node ids `0..|V|`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId::new)
    }

    /// Out-degree `|O(v)|`: number of distinct destinations of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.out_offsets[i + 1] - self.out_offsets[i]
    }

    /// In-degree `|I(v)|`: number of distinct sources reaching `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.in_offsets[i + 1] - self.in_offsets[i]
    }

    /// Total outgoing volume `Σ_u C[v, u]` (row sum of the weight
    /// matrix). Cached at construction; O(1).
    #[inline]
    pub fn out_weight_sum(&self, v: NodeId) -> Weight {
        self.out_weight_sums[v.index()]
    }

    /// Total incoming volume `Σ_u C[u, v]`. Cached at construction; O(1).
    #[inline]
    pub fn in_weight_sum(&self, v: NodeId) -> Weight {
        self.in_weight_sums[v.index()]
    }

    /// Total incident volume `Σ_u C[v, u] + Σ_u C[u, v]`: the
    /// normaliser of an undirected random-walk step from `v`. O(1).
    #[inline]
    pub fn undirected_weight_sum(&self, v: NodeId) -> Weight {
        self.out_weight_sums[v.index()] + self.in_weight_sums[v.index()]
    }

    /// Iterates `(destination, C[v, destination])` over out-neighbours of
    /// `v` in ascending destination-id order.
    pub fn out_neighbors(&self, v: NodeId) -> NeighborIter<'_> {
        let i = v.index();
        NeighborIter {
            nodes: &self.out_targets[self.out_offsets[i]..self.out_offsets[i + 1]],
            weights: &self.out_weights[self.out_offsets[i]..self.out_offsets[i + 1]],
            pos: 0,
        }
    }

    /// Iterates `(source, C[source, v])` over in-neighbours of `v` in
    /// ascending source-id order.
    pub fn in_neighbors(&self, v: NodeId) -> NeighborIter<'_> {
        let i = v.index();
        NeighborIter {
            nodes: &self.in_sources[self.in_offsets[i]..self.in_offsets[i + 1]],
            weights: &self.in_weights[self.in_offsets[i]..self.in_offsets[i + 1]],
            pos: 0,
        }
    }

    /// The weight `C[src, dst]`, or `None` if the edge is absent.
    pub fn edge_weight(&self, src: NodeId, dst: NodeId) -> Option<Weight> {
        let i = src.index();
        let row = &self.out_targets[self.out_offsets[i]..self.out_offsets[i + 1]];
        row.binary_search(&dst)
            .ok()
            .map(|k| self.out_weights[self.out_offsets[i] + k])
    }

    /// Whether the directed edge `src → dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// Iterates over every edge in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes).flat_map(move |i| {
            let v = NodeId::new(i);
            self.out_neighbors(v)
                .map(move |(dst, w)| Edge::new(v, dst, w))
        })
    }

    /// Nodes with at least one outgoing edge (the "active sources" of the
    /// window — for flow data, the monitored local hosts that spoke).
    pub fn active_sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&v| self.out_degree(v) > 0)
    }

    /// Nodes with at least one incident edge in either direction.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|&v| self.out_degree(v) > 0 || self.in_degree(v) > 0)
    }

    /// The row-stochastic transition probability
    /// `P(v, j) = C[v, j] / Σ_u C[v, u]` used by the RWR scheme, or `None`
    /// if `v` has no outgoing edges (a dangling node).
    pub fn transition_row(&self, v: NodeId) -> Option<impl Iterator<Item = (NodeId, f64)> + '_> {
        let sum = self.out_weight_sum(v);
        if sum <= 0.0 {
            return None;
        }
        Some(self.out_neighbors(v).map(move |(u, w)| (u, w / sum)))
    }

    /// The undirected transition row of `v`: distinct neighbours in
    /// either direction, each with probability
    /// `(C[v,u] + C[u,v]) / (Σ C[v,·] + Σ C[·,v])`, in ascending id
    /// order. Returns `None` if `v` has no incident edges.
    ///
    /// Reads the merged, pre-normalised CSR built on first undirected
    /// access (or eagerly by [`Self::warm_undirected_view`]); an
    /// undirected walk step over this row
    /// touches each neighbour exactly once instead of iterating the out-
    /// and in-rows separately and re-dividing by the weight sum.
    pub fn undirected_transition_row(
        &self,
        v: NodeId,
    ) -> Option<impl Iterator<Item = (NodeId, f64)> + '_> {
        let und = self.undirected_view();
        let i = v.index();
        let row = und.offsets[i]..und.offsets[i + 1];
        if row.is_empty() {
            return None;
        }
        Some(
            und.neighbors[row.clone()]
                .iter()
                .copied()
                .zip(und.probs[row].iter().copied()),
        )
    }

    /// The out-row of `v` as raw unit-stride CSR slices
    /// `(targets, weights)`, both in ascending target-id order — the
    /// zero-overhead form of [`Self::out_neighbors`] consumed by the
    /// blocked scatter kernels in `comsig_core::engine`.
    #[inline]
    #[must_use]
    pub fn out_row(&self, v: NodeId) -> (&[NodeId], &[Weight]) {
        let i = v.index();
        let row = self.out_offsets[i]..self.out_offsets[i + 1];
        (&self.out_targets[row.clone()], &self.out_weights[row])
    }

    /// The merged undirected row of `v` as raw unit-stride slices
    /// `(neighbors, probabilities)` (pre-normalised, ascending id
    /// order), or `None` for a node with no incident edges — the
    /// zero-overhead form of [`Self::undirected_transition_row`]
    /// consumed by the blocked scatter kernels in `comsig_core::engine`.
    #[inline]
    #[must_use]
    pub fn undirected_row(&self, v: NodeId) -> Option<(&[NodeId], &[f64])> {
        let und = self.undirected_view();
        let i = v.index();
        let row = und.offsets[i]..und.offsets[i + 1];
        if row.is_empty() {
            return None;
        }
        Some((&und.neighbors[row.clone()], &und.probs[row]))
    }

    /// Number of distinct undirected neighbours of `v`.
    pub fn undirected_degree(&self, v: NodeId) -> usize {
        let und = self.undirected_view();
        let i = v.index();
        und.offsets[i + 1] - und.offsets[i]
    }

    /// Forces materialisation of the merged undirected CSR (it is
    /// otherwise built on first undirected access). Useful to pay the
    /// one-off cost eagerly before timing or before sharing the graph
    /// across threads.
    pub fn warm_undirected_view(&self) {
        self.undirected_view();
    }

    fn undirected_view(&self) -> &UndirectedCsr {
        self.undirected.get_or_init(|| self.build_undirected())
    }

    /// Applies a [`WindowDelta`] and returns the next window's graph.
    ///
    /// The result is **bit-identical** to rebuilding the new window cold
    /// through [`GraphBuilder`](crate::GraphBuilder) /
    /// [`Self::from_sorted_edges`]: dirty adjacency rows are merge-joined
    /// with the sorted changes while clean rows are copied wholesale, the
    /// cached weight sums of dirty rows are re-accumulated in the cold
    /// accumulation order (never decremented — floating-point subtraction
    /// does not round-trip) while clean sums are copied bitwise, and
    /// `total_weight` is re-accumulated over the new edge storage order,
    /// which is exactly the cold construction's accumulation order. If
    /// this graph's merged undirected CSR has been materialised, only the
    /// rows incident to a change are re-merged and the rest are copied,
    /// so the new graph starts warm instead of rebuilding lazily.
    ///
    /// # Panics
    /// Panics if the changes are not strictly sorted by `(src, dst)`, if
    /// a change references a node `>= num_nodes` or a self-loop, if a
    /// `new` weight is not finite and positive, or if an `old` weight
    /// does not bitwise match this graph's current edge weight
    /// (including presence/absence).
    #[must_use]
    pub fn apply_delta(&self, delta: &WindowDelta) -> CommGraph {
        let n = self.num_nodes;
        let changes = &delta.changes;

        let mut prev: Option<(NodeId, NodeId)> = None;
        let mut edge_delta: isize = 0;
        for c in changes {
            assert!(
                c.src.index() < n && c.dst.index() < n,
                "delta node out of range: {} -> {} with |V| = {n}",
                c.src,
                c.dst
            );
            assert!(c.src != c.dst, "delta contains a self-loop at {}", c.src);
            let key = (c.src, c.dst);
            assert!(
                prev.is_none_or(|p| p < key),
                "delta changes must be strictly sorted by (src, dst)"
            );
            prev = Some(key);
            if let Some(w) = c.new {
                assert!(
                    w.is_finite() && w > 0.0,
                    "delta weight must be finite and positive, got {w}"
                );
            }
            assert!(
                c.old.is_some() || c.new.is_some(),
                "delta change for {} -> {} has neither old nor new weight",
                c.src,
                c.dst
            );
            let cur = self.edge_weight(c.src, c.dst);
            assert!(
                cur.map(f64::to_bits) == c.old.map(f64::to_bits),
                "delta `old` weight for {} -> {} does not match the graph ({:?} vs {:?})",
                c.src,
                c.dst,
                c.old,
                cur
            );
            edge_delta += match (c.old, c.new) {
                (None, Some(_)) => 1,
                (Some(_), None) => -1,
                _ => 0,
            };
        }
        let new_m = self
            .num_edges
            .checked_add_signed(edge_delta)
            .expect("delta edge count underflows");

        // Out-adjacency: merge dirty rows, copy clean spans.
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0usize);
        let mut out_targets: Vec<NodeId> = Vec::with_capacity(new_m);
        let mut out_weights: Vec<Weight> = Vec::with_capacity(new_m);
        let mut dirty_out_rows: Vec<usize> = Vec::new();
        let mut row_changes: Vec<(NodeId, Option<Weight>)> = Vec::new();
        let mut ci = 0usize;
        for i in 0..n {
            let row = self.out_offsets[i]..self.out_offsets[i + 1];
            let mut cj = ci;
            while cj < changes.len() && changes[cj].src.index() == i {
                cj += 1;
            }
            if ci == cj {
                out_targets.extend_from_slice(&self.out_targets[row.clone()]);
                out_weights.extend_from_slice(&self.out_weights[row]);
            } else {
                dirty_out_rows.push(i);
                row_changes.clear();
                row_changes.extend(changes[ci..cj].iter().map(|c| (c.dst, c.new)));
                merge_row(
                    &self.out_targets[row.clone()],
                    &self.out_weights[row],
                    &row_changes,
                    &mut out_targets,
                    &mut out_weights,
                );
                ci = cj;
            }
            out_offsets.push(out_targets.len());
        }
        debug_assert_eq!(out_targets.len(), new_m);

        // In-adjacency: the same changes viewed in (dst, src) order.
        let mut by_dst: Vec<usize> = (0..changes.len()).collect();
        by_dst.sort_unstable_by_key(|&k| (changes[k].dst, changes[k].src));
        let mut in_offsets = Vec::with_capacity(n + 1);
        in_offsets.push(0usize);
        let mut in_sources: Vec<NodeId> = Vec::with_capacity(new_m);
        let mut in_weights: Vec<Weight> = Vec::with_capacity(new_m);
        let mut dirty_in_rows: Vec<usize> = Vec::new();
        let mut ci = 0usize;
        for i in 0..n {
            let row = self.in_offsets[i]..self.in_offsets[i + 1];
            let mut cj = ci;
            while cj < by_dst.len() && changes[by_dst[cj]].dst.index() == i {
                cj += 1;
            }
            if ci == cj {
                in_sources.extend_from_slice(&self.in_sources[row.clone()]);
                in_weights.extend_from_slice(&self.in_weights[row]);
            } else {
                dirty_in_rows.push(i);
                row_changes.clear();
                row_changes.extend(
                    by_dst[ci..cj]
                        .iter()
                        .map(|&k| (changes[k].src, changes[k].new)),
                );
                merge_row(
                    &self.in_sources[row.clone()],
                    &self.in_weights[row],
                    &row_changes,
                    &mut in_sources,
                    &mut in_weights,
                );
                ci = cj;
            }
            in_offsets.push(in_sources.len());
        }

        // Cached sums: clean entries copied bitwise, dirty rows
        // re-accumulated left-to-right over the new row — the same
        // per-row order (ascending neighbour id) the cold build uses.
        let mut out_weight_sums = self.out_weight_sums.clone();
        for &i in &dirty_out_rows {
            let mut sum = 0.0;
            for &w in &out_weights[out_offsets[i]..out_offsets[i + 1]] {
                sum += w;
            }
            out_weight_sums[i] = sum;
        }
        let mut in_weight_sums = self.in_weight_sums.clone();
        for &i in &dirty_in_rows {
            let mut sum = 0.0;
            for &w in &in_weights[in_offsets[i]..in_offsets[i + 1]] {
                sum += w;
            }
            in_weight_sums[i] = sum;
        }

        // Cold construction accumulates `total_weight` over edges in
        // (src, dst) order — exactly the storage order of `out_weights` —
        // so one linear pass reproduces it bit for bit.
        let mut total_weight = 0.0;
        for &w in &out_weights {
            total_weight += w;
        }

        // Patch the merged undirected CSR if it has been materialised:
        // a change (s, d) perturbs only rows s and d (their adjacency or
        // incident-volume normaliser); every other row merges bitwise
        // identical inputs and is copied instead of re-merged.
        let undirected = OnceLock::new();
        if let Some(old_und) = self.undirected.get() {
            let mut dirty_node = vec![false; n];
            for c in changes {
                dirty_node[c.src.index()] = true;
                dirty_node[c.dst.index()] = true;
            }
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0usize);
            let mut neighbors: Vec<NodeId> =
                Vec::with_capacity(old_und.neighbors.len() + 2 * changes.len());
            let mut probs: Vec<f64> = Vec::with_capacity(old_und.probs.len() + 2 * changes.len());
            for i in 0..n {
                if dirty_node[i] {
                    let sum = out_weight_sums[i] + in_weight_sums[i];
                    if sum > 0.0 {
                        merge_undirected_row(
                            &out_targets[out_offsets[i]..out_offsets[i + 1]],
                            &out_weights[out_offsets[i]..out_offsets[i + 1]],
                            &in_sources[in_offsets[i]..in_offsets[i + 1]],
                            &in_weights[in_offsets[i]..in_offsets[i + 1]],
                            1.0 / sum,
                            &mut neighbors,
                            &mut probs,
                        );
                    }
                } else {
                    let row = old_und.offsets[i]..old_und.offsets[i + 1];
                    neighbors.extend_from_slice(&old_und.neighbors[row.clone()]);
                    probs.extend_from_slice(&old_und.probs[row]);
                }
                offsets.push(neighbors.len());
            }
            let csr = UndirectedCsr {
                offsets,
                neighbors,
                probs,
            };
            #[cfg(debug_assertions)]
            for i in 0..n {
                let row = csr.offsets[i]..csr.offsets[i + 1];
                if !row.is_empty() {
                    let mass: f64 = csr.probs[row].iter().sum();
                    debug_assert!(
                        (mass - 1.0).abs() <= 1e-9,
                        "patched undirected row {i} has mass {mass}, expected 1"
                    );
                }
            }
            let _ = undirected.set(csr);
        }

        CommGraph {
            num_nodes: n,
            num_edges: out_targets.len(),
            total_weight,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
            out_weight_sums,
            in_weight_sums,
            undirected,
        }
    }

    /// Merges the sorted out- and in-rows of every node, summing weights
    /// of neighbours present in both directions, and pre-divides by the
    /// node's total incident volume.
    fn build_undirected(&self) -> UndirectedCsr {
        let mut offsets = Vec::with_capacity(self.num_nodes + 1);
        offsets.push(0usize);
        // Each edge contributes one entry to each endpoint's row, minus
        // merged duplicates; 2m is an upper bound.
        let mut neighbors = Vec::with_capacity(2 * self.num_edges);
        let mut probs = Vec::with_capacity(2 * self.num_edges);

        for i in 0..self.num_nodes {
            let sum = self.out_weight_sums[i] + self.in_weight_sums[i];
            if sum > 0.0 {
                merge_undirected_row(
                    &self.out_targets[self.out_offsets[i]..self.out_offsets[i + 1]],
                    &self.out_weights[self.out_offsets[i]..self.out_offsets[i + 1]],
                    &self.in_sources[self.in_offsets[i]..self.in_offsets[i + 1]],
                    &self.in_weights[self.in_offsets[i]..self.in_offsets[i + 1]],
                    1.0 / sum,
                    &mut neighbors,
                    &mut probs,
                );
            }
            offsets.push(neighbors.len());
        }

        let csr = UndirectedCsr {
            offsets,
            neighbors,
            probs,
        };
        // Paper contract (Definition 5): every non-empty row of the
        // pre-normalised transition matrix must be stochastic. Checked
        // once at construction in debug builds; `comsig-core::contract`
        // re-checks from the consumer side.
        #[cfg(debug_assertions)]
        for i in 0..self.num_nodes {
            let row = csr.offsets[i]..csr.offsets[i + 1];
            if !row.is_empty() {
                let mass: f64 = csr.probs[row].iter().sum();
                debug_assert!(
                    (mass - 1.0).abs() <= 1e-9,
                    "undirected transition row {i} has mass {mass}, expected 1"
                );
            }
        }
        csr
    }
}

/// Merge-joins one sorted adjacency row with its sorted `(node, new)`
/// changes: `Some(w)` replaces or inserts the entry, `None` removes it.
/// Output stays sorted by node id, matching cold CSR row order.
fn merge_row(
    nodes: &[NodeId],
    weights: &[Weight],
    changes: &[(NodeId, Option<Weight>)],
    out_nodes: &mut Vec<NodeId>,
    out_weights: &mut Vec<Weight>,
) {
    let (mut a, mut b) = (0usize, 0usize);
    while a < nodes.len() || b < changes.len() {
        if b >= changes.len() || (a < nodes.len() && nodes[a] < changes[b].0) {
            out_nodes.push(nodes[a]);
            out_weights.push(weights[a]);
            a += 1;
        } else {
            if let Some(w) = changes[b].1 {
                out_nodes.push(changes[b].0);
                out_weights.push(w);
            }
            if a < nodes.len() && nodes[a] == changes[b].0 {
                a += 1;
            }
            b += 1;
        }
    }
}

/// Merges one node's sorted out- and in-rows, summing the weights of
/// neighbours present in both directions and pre-dividing by `inv` — the
/// per-row step of the undirected CSR build, shared between
/// `build_undirected` and the dirty-row patching in
/// [`CommGraph::apply_delta`] so the two paths are bit-identical by
/// construction.
fn merge_undirected_row(
    outs: &[NodeId],
    out_ws: &[Weight],
    ins: &[NodeId],
    in_ws: &[Weight],
    inv: f64,
    neighbors: &mut Vec<NodeId>,
    probs: &mut Vec<f64>,
) {
    let (mut a, mut b) = (0usize, 0usize);
    while a < outs.len() || b < ins.len() {
        let (u, w) = if b >= ins.len() || (a < outs.len() && outs[a] < ins[b]) {
            let pair = (outs[a], out_ws[a]);
            a += 1;
            pair
        } else if a >= outs.len() || ins[b] < outs[a] {
            let pair = (ins[b], in_ws[b]);
            b += 1;
            pair
        } else {
            let pair = (outs[a], out_ws[a] + in_ws[b]);
            a += 1;
            b += 1;
            pair
        };
        neighbors.push(u);
        probs.push(w * inv);
    }
}

/// Iterator over `(neighbor, weight)` pairs of one adjacency row.
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    nodes: &'a [NodeId],
    weights: &'a [Weight],
    pos: usize,
}

impl Iterator for NeighborIter<'_> {
    type Item = (NodeId, Weight);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.nodes.len() {
            let item = (self.nodes[self.pos], self.weights[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.nodes.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// 0 -> 1 (2.0), 0 -> 2 (1.0), 1 -> 2 (4.0), 3 isolated.
    fn sample() -> CommGraph {
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 2.0);
        b.add_event(n(0), n(2), 1.0);
        b.add_event(n(1), n(2), 4.0);
        b.build(4)
    }

    #[test]
    fn degrees_and_sums() {
        let g = sample();
        assert_eq!(g.out_degree(n(0)), 2);
        assert_eq!(g.out_degree(n(3)), 0);
        assert_eq!(g.in_degree(n(2)), 2);
        assert_eq!(g.in_degree(n(0)), 0);
        assert_eq!(g.out_weight_sum(n(0)), 3.0);
        assert_eq!(g.in_weight_sum(n(2)), 5.0);
        assert_eq!(g.total_weight(), 7.0);
    }

    #[test]
    fn neighbor_iteration_sorted() {
        let g = sample();
        let outs: Vec<_> = g.out_neighbors(n(0)).collect();
        assert_eq!(outs, vec![(n(1), 2.0), (n(2), 1.0)]);
        let ins: Vec<_> = g.in_neighbors(n(2)).collect();
        assert_eq!(ins, vec![(n(0), 1.0), (n(1), 4.0)]);
        assert_eq!(g.out_neighbors(n(0)).len(), 2);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = sample();
        assert_eq!(g.edge_weight(n(0), n(1)), Some(2.0));
        assert_eq!(g.edge_weight(n(1), n(0)), None);
        assert!(g.has_edge(n(1), n(2)));
        assert!(!g.has_edge(n(2), n(1)));
    }

    #[test]
    fn edges_round_trip() {
        let g = sample();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], Edge::new(n(0), n(1), 2.0));
        assert_eq!(edges[2], Edge::new(n(1), n(2), 4.0));
    }

    #[test]
    fn active_nodes_and_sources() {
        let g = sample();
        let sources: Vec<_> = g.active_sources().collect();
        assert_eq!(sources, vec![n(0), n(1)]);
        let active: Vec<_> = g.active_nodes().collect();
        assert_eq!(active, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn transition_row_normalised() {
        let g = sample();
        let row: Vec<_> = g.transition_row(n(0)).unwrap().collect();
        assert_eq!(row.len(), 2);
        let total: f64 = row.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(g.transition_row(n(3)).is_none());
    }

    #[test]
    fn undirected_row_merges_and_normalises() {
        // 0 <-> 1 in both directions plus 0 -> 2: row 0 must merge the
        // two directions of (0,1) into one entry.
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 2.0);
        b.add_event(n(1), n(0), 3.0);
        b.add_event(n(0), n(2), 5.0);
        let g = b.build(4);

        let row: Vec<_> = g.undirected_transition_row(n(0)).unwrap().collect();
        assert_eq!(g.undirected_degree(n(0)), 2);
        assert_eq!(row.len(), 2);
        assert_eq!(row[0].0, n(1));
        assert!((row[0].1 - 5.0 / 10.0).abs() < 1e-15);
        assert_eq!(row[1].0, n(2));
        assert!((row[1].1 - 5.0 / 10.0).abs() < 1e-15);
        assert!((g.undirected_weight_sum(n(0)) - 10.0).abs() < 1e-15);

        // Row 2 sees only the reverse of 0 -> 2.
        let row2: Vec<_> = g.undirected_transition_row(n(2)).unwrap().collect();
        assert_eq!(row2, vec![(n(0), 1.0)]);

        // Isolated node has no row.
        assert!(g.undirected_transition_row(n(3)).is_none());
        assert_eq!(g.undirected_degree(n(3)), 0);
    }

    #[test]
    fn undirected_rows_are_stochastic() {
        let g = sample();
        g.warm_undirected_view();
        for v in g.nodes() {
            if let Some(row) = g.undirected_transition_row(v) {
                let total: f64 = row.map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-12, "node {v}: mass {total}");
            }
        }
    }

    #[test]
    fn cached_sums_match_row_scans() {
        let g = sample();
        for v in g.nodes() {
            let out_scan: f64 = g.out_neighbors(v).map(|(_, w)| w).sum();
            let in_scan: f64 = g.in_neighbors(v).map(|(_, w)| w).sum();
            assert_eq!(g.out_weight_sum(v), out_scan);
            assert_eq!(g.in_weight_sum(v), in_scan);
            assert_eq!(g.undirected_weight_sum(v), out_scan + in_scan);
        }
    }

    #[test]
    fn rebuild_from_sorted_edges_matches() {
        let g = sample();
        let edges: Vec<_> = g.edges().collect();
        let g2 = CommGraph::from_sorted_edges(4, edges);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight(), g.total_weight());
        assert_eq!(g2.edge_weight(n(1), n(2)), g.edge_weight(n(1), n(2)));
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_edges_rejected() {
        let edges = vec![Edge::new(n(1), n(0), 1.0), Edge::new(n(0), n(1), 1.0)];
        let _ = CommGraph::from_sorted_edges(2, edges);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_weight_rejected() {
        let edges = vec![Edge::new(n(0), n(1), 0.0)];
        let _ = CommGraph::from_sorted_edges(2, edges);
    }

    use crate::delta::{EdgeChange, WindowDelta};

    fn delta(changes: Vec<EdgeChange>) -> WindowDelta {
        WindowDelta {
            start: 0,
            end: 1,
            changes,
        }
    }

    fn ch(src: usize, dst: usize, old: Option<f64>, new: Option<f64>) -> EdgeChange {
        EdgeChange {
            src: n(src),
            dst: n(dst),
            old,
            new,
        }
    }

    /// Asserts every derived quantity of `got` bitwise matches `want`,
    /// including cached sums and (if both are warm) undirected rows.
    fn assert_bit_identical(got: &CommGraph, want: &CommGraph) {
        assert_eq!(got.num_nodes(), want.num_nodes());
        assert_eq!(got.num_edges(), want.num_edges());
        assert_eq!(got.total_weight().to_bits(), want.total_weight().to_bits());
        for v in got.nodes() {
            assert_eq!(
                got.out_weight_sum(v).to_bits(),
                want.out_weight_sum(v).to_bits(),
                "out sum of {v}"
            );
            assert_eq!(
                got.in_weight_sum(v).to_bits(),
                want.in_weight_sum(v).to_bits(),
                "in sum of {v}"
            );
            let go: Vec<_> = got.out_neighbors(v).collect();
            let wo: Vec<_> = want.out_neighbors(v).collect();
            assert_eq!(go.len(), wo.len(), "out row of {v}");
            for ((gu, gw), (wu, ww)) in go.iter().zip(&wo) {
                assert_eq!(gu, wu);
                assert_eq!(gw.to_bits(), ww.to_bits());
            }
            let gi: Vec<_> = got.in_neighbors(v).collect();
            let wi: Vec<_> = want.in_neighbors(v).collect();
            assert_eq!(gi.len(), wi.len(), "in row of {v}");
            for ((gu, gw), (wu, ww)) in gi.iter().zip(&wi) {
                assert_eq!(gu, wu);
                assert_eq!(gw.to_bits(), ww.to_bits());
            }
        }
    }

    fn assert_undirected_bit_identical(got: &CommGraph, want: &CommGraph) {
        for v in got.nodes() {
            let gr: Vec<_> = got
                .undirected_transition_row(v)
                .map(|r| r.collect())
                .unwrap_or_default();
            let wr: Vec<_> = want
                .undirected_transition_row(v)
                .map(|r| r.collect())
                .unwrap_or_default();
            assert_eq!(gr.len(), wr.len(), "undirected row of {v}");
            for ((gu, gp), (wu, wp)) in gr.iter().zip(&wr) {
                assert_eq!(gu, wu);
                assert_eq!(gp.to_bits(), wp.to_bits());
            }
        }
    }

    #[test]
    fn apply_delta_matches_cold_rebuild() {
        let g = sample(); // 0->1 (2.0), 0->2 (1.0), 1->2 (4.0)
        g.warm_undirected_view();
        // Insert 2->0, update 0->1, retract 1->2.
        let d = delta(vec![
            ch(0, 1, Some(2.0), Some(2.5)),
            ch(1, 2, Some(4.0), None),
            ch(2, 0, None, Some(0.25)),
        ]);
        let got = g.apply_delta(&d);

        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 2.5);
        b.add_event(n(0), n(2), 1.0);
        b.add_event(n(2), n(0), 0.25);
        let want = b.build(4);
        assert_bit_identical(&got, &want);
        // The undirected view was patched eagerly and matches a cold one.
        assert_undirected_bit_identical(&got, &want);
    }

    #[test]
    fn apply_delta_from_empty_and_to_empty() {
        let empty = CommGraph::empty(3);
        let d = delta(vec![ch(0, 1, None, Some(1.5)), ch(1, 2, None, Some(2.0))]);
        let g = empty.apply_delta(&d);
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 1.5);
        b.add_event(n(1), n(2), 2.0);
        assert_bit_identical(&g, &b.build(3));

        // Retract everything: back to an edge-less graph.
        let wipe = delta(vec![ch(0, 1, Some(1.5), None), ch(1, 2, Some(2.0), None)]);
        let gone = g.apply_delta(&wipe);
        assert_bit_identical(&gone, &CommGraph::empty(3));
    }

    #[test]
    fn apply_delta_cold_undirected_untouched() {
        // If the source graph never materialised the undirected view,
        // the patched graph must not pretend to have one — it is built
        // lazily and still matches a cold build.
        let g = sample();
        let d = delta(vec![ch(0, 1, Some(2.0), Some(3.0))]);
        let got = g.apply_delta(&d);
        let mut b = GraphBuilder::new();
        b.add_event(n(0), n(1), 3.0);
        b.add_event(n(0), n(2), 1.0);
        b.add_event(n(1), n(2), 4.0);
        let want = b.build(4);
        assert_undirected_bit_identical(&got, &want);
    }

    #[test]
    #[should_panic(expected = "does not match the graph")]
    fn apply_delta_rejects_stale_old_weight() {
        let g = sample();
        let d = delta(vec![ch(0, 1, Some(7.0), Some(1.0))]);
        let _ = g.apply_delta(&d);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn apply_delta_rejects_unsorted_changes() {
        let g = sample();
        let d = delta(vec![
            ch(1, 2, Some(4.0), None),
            ch(0, 1, Some(2.0), Some(3.0)),
        ]);
        let _ = g.apply_delta(&d);
    }
}
