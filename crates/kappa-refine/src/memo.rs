//! The band memo: one pair search's adjacency, read once from out-of-core
//! storage.
//!
//! A pair search reads the adjacency of its band nodes many times: the
//! seeder's boundary test, the band BFS, the gain of every band node, the
//! queue initialisation and the gain update after every move — in each
//! local iteration, in BFS or move order. On a paged graph (kappa-mem's
//! `PagedGraph`) every such read goes through a page cache much smaller
//! than the edge file, so the same pages were missed again and again.
//!
//! [`MemoGraph`] is a [`GraphAccess`] view over a graph plus a
//! [`BandMemo`]. Its [`prefetch`](GraphAccess::prefetch) copies the
//! adjacency of the given nodes into RAM in ascending node order — a sorted
//! sweep misses each page at most once — and every later read of a memoised
//! node is served from that copy; nodes not in the memo fall through to the
//! graph. The band BFS prefetches each layer (its first layer is the seeds),
//! and the [`IndexSeeder`] prefetches its candidates before re-testing them
//! in later local iterations, so one pair search reads each band node's
//! adjacency from storage once, across all its local iterations.
//!
//! The scheduler uses the view only when the graph reports
//! [`GraphAccess::is_out_of_core`]: on an in-RAM graph the copy costs more
//! than the direct reads it replaces.
//!
//! [`IndexSeeder`]: crate::band::IndexSeeder

use std::cell::{Ref, RefCell};

use kappa_graph::{Adjacency, EdgeWeight, GraphAccess, NodeId, NodeWeight};

/// Slot-map sentinel: the node is not memoised.
const ABSENT: u32 = u32::MAX;

/// Adjacency lists copied out of a graph, keyed by node.
///
/// The node-indexed slot map is grown to `n` once and reset only at the
/// entries a pair search touched ([`clear`](BandMemo::clear)), like the
/// other node-indexed arrays of [`FmScratch`](crate::FmScratch), which
/// owns one memo.
#[derive(Debug, Default)]
pub(crate) struct BandMemo {
    /// Node → index into `nodes` / `starts` (`ABSENT` when not memoised).
    slot: Vec<u32>,
    /// Memoised nodes in fetch order.
    nodes: Vec<NodeId>,
    /// Start of each memoised node's list in `edges`; it ends where the
    /// next one starts.
    starts: Vec<usize>,
    /// The copied incidence lists, concatenated.
    edges: Vec<(NodeId, EdgeWeight)>,
    /// Sort buffer of [`fetch`](BandMemo::fetch).
    pending: Vec<NodeId>,
}

impl BandMemo {
    /// True when no node is memoised.
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The memoised incidence list of `v`, if `v` was fetched.
    #[inline]
    fn get(&self, v: NodeId) -> Option<&[(NodeId, EdgeWeight)]> {
        let i = *self.slot.get(v as usize)?;
        if i == ABSENT {
            return None;
        }
        let i = i as usize;
        let end = self.starts.get(i + 1).copied().unwrap_or(self.edges.len());
        Some(&self.edges[self.starts[i]..end])
    }

    /// Copies the incidence lists of the nodes in `nodes` that are not
    /// memoised yet, reading them from `graph` in ascending node order.
    fn fetch<G: GraphAccess>(&mut self, graph: &G, nodes: &[NodeId]) {
        if self.slot.len() < graph.num_nodes() {
            self.slot.resize(graph.num_nodes(), ABSENT);
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        pending.extend(
            nodes
                .iter()
                .copied()
                .filter(|&v| self.slot[v as usize] == ABSENT),
        );
        pending.sort_unstable();
        pending.dedup();
        for &v in &pending {
            self.slot[v as usize] = self.nodes.len() as u32;
            self.nodes.push(v);
            self.starts.push(self.edges.len());
            let edges = &mut self.edges;
            graph.for_each_edge(v, |t, w| edges.push((t, w)));
        }
        self.pending = pending;
    }

    /// Forgets every memoised node at `O(len)` cost, keeping the buffers.
    fn clear(&mut self) {
        for &v in &self.nodes {
            self.slot[v as usize] = ABSENT;
        }
        self.nodes.clear();
        self.starts.clear();
        self.edges.clear();
    }
}

/// A [`GraphAccess`] view of `graph` that serves memoised nodes from a
/// [`BandMemo`] and loads nodes into it on
/// [`prefetch`](GraphAccess::prefetch).
///
/// Reads return exactly what `graph` returns, so any algorithm gives the
/// same result on the view as on the graph. The memo sits in a `RefCell`
/// because `prefetch` takes `&self`; the view is pair-local and never
/// shared between threads.
pub(crate) struct MemoGraph<'g, G> {
    graph: &'g G,
    memo: RefCell<BandMemo>,
}

impl<'g, G: GraphAccess> MemoGraph<'g, G> {
    /// A view of `graph` that fills `memo` (which must be empty).
    pub(crate) fn new(graph: &'g G, memo: BandMemo) -> Self {
        debug_assert!(memo.is_empty(), "memo of another search");
        MemoGraph {
            graph,
            memo: RefCell::new(memo),
        }
    }

    /// Ends the view and returns its memo, cleared for the next search.
    pub(crate) fn into_memo(self) -> BandMemo {
        let mut memo = self.memo.into_inner();
        memo.clear();
        memo
    }
}

impl<G: GraphAccess> Adjacency for MemoGraph<'_, G> {
    #[inline]
    fn degree_of(&self, v: NodeId) -> usize {
        self.graph.degree_of(v)
    }

    #[inline]
    fn node_weight_of(&self, v: NodeId) -> NodeWeight {
        self.graph.node_weight_of(v)
    }

    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, mut f: F) {
        match self.memo.borrow().get(v) {
            Some(edges) => edges.iter().for_each(|&(t, w)| f(t, w)),
            None => self.graph.for_each_edge(v, f),
        }
    }
}

/// Iterator of [`MemoGraph::edges_of`]: the memoised list, or the graph's
/// own iterator for a node that is not memoised.
enum MemoEdges<'m, I> {
    Memo {
        edges: Ref<'m, [(NodeId, EdgeWeight)]>,
        at: usize,
    },
    Direct(I),
}

impl<I: Iterator<Item = (NodeId, EdgeWeight)>> Iterator for MemoEdges<'_, I> {
    type Item = (NodeId, EdgeWeight);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            MemoEdges::Memo { edges, at } => {
                let edge = edges.get(*at).copied();
                *at += 1;
                edge
            }
            MemoEdges::Direct(iter) => iter.next(),
        }
    }
}

impl<G: GraphAccess> GraphAccess for MemoGraph<'_, G> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        self.graph.num_half_edges()
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        self.graph.total_node_weight()
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        self.graph.max_node_weight()
    }

    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        match Ref::filter_map(self.memo.borrow(), |memo| memo.get(v)) {
            Ok(edges) => MemoEdges::Memo { edges, at: 0 },
            Err(_) => MemoEdges::Direct(self.graph.edges_of(v)),
        }
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        self.graph.coords()
    }

    fn prefetch(&self, nodes: &[NodeId]) {
        self.memo.borrow_mut().fetch(self.graph, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_graph::{CsrGraph, Partition};

    /// Counts the adjacency reads that reach the wrapped graph.
    struct CountingGraph {
        graph: CsrGraph,
        reads: std::cell::Cell<usize>,
    }

    impl Adjacency for CountingGraph {
        fn degree_of(&self, v: NodeId) -> usize {
            self.graph.degree_of(v)
        }
        fn node_weight_of(&self, v: NodeId) -> NodeWeight {
            self.graph.node_weight_of(v)
        }
        fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F) {
            self.reads.set(self.reads.get() + 1);
            self.graph.for_each_edge(v, f)
        }
    }

    impl GraphAccess for CountingGraph {
        fn num_nodes(&self) -> usize {
            self.graph.num_nodes()
        }
        fn num_half_edges(&self) -> usize {
            self.graph.num_half_edges()
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.graph.total_node_weight()
        }
        fn max_node_weight(&self) -> NodeWeight {
            self.graph.max_node_weight()
        }
        fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
            self.reads.set(self.reads.get() + 1);
            GraphAccess::edges_of(&self.graph, v)
        }
    }

    #[test]
    fn view_reads_equal_graph_reads_and_memoised_nodes_are_read_once() {
        let g = CountingGraph {
            graph: random_geometric_graph(400, 3),
            reads: Default::default(),
        };
        let view = MemoGraph::new(&g, BandMemo::default());
        view.prefetch(&[17, 5, 300, 5]);
        assert_eq!(g.reads.get(), 3);
        view.prefetch(&[5, 17]);
        assert_eq!(g.reads.get(), 3, "memoised nodes were read again");
        for v in [5u32, 17, 300] {
            let want: Vec<_> = GraphAccess::edges_of(&g.graph, v).collect();
            let got: Vec<_> = view.edges_of(v).collect();
            assert_eq!(got, want, "node {v}");
            let mut each = Vec::new();
            view.for_each_edge(v, |t, w| each.push((t, w)));
            assert_eq!(each, want, "node {v}");
        }
        assert_eq!(g.reads.get(), 3, "memoised reads reached the graph");
        // A node outside the memo falls through.
        let want: Vec<_> = GraphAccess::edges_of(&g.graph, 6).collect();
        assert_eq!(view.edges_of(6).collect::<Vec<_>>(), want);
        assert_eq!(g.reads.get(), 4);
    }

    #[test]
    fn into_memo_leaves_a_clean_memo_for_the_next_search() {
        let g = random_geometric_graph(200, 5);
        let view = MemoGraph::new(&g, BandMemo::default());
        view.prefetch(&(0..200).collect::<Vec<_>>());
        let memo = view.into_memo();
        assert!(memo.is_empty());
        assert!(memo.slot.iter().all(|&s| s == ABSENT));
        let view = MemoGraph::new(&g, memo);
        view.prefetch(&[3]);
        let want: Vec<_> = g.edges_of(3).collect();
        assert_eq!(view.edges_of(3).collect::<Vec<_>>(), want);
    }

    /// The band BFS prefetches every band node exactly once, layer by layer,
    /// and returns the same band through the view as on the graph.
    #[test]
    fn band_bfs_through_the_view_reads_each_band_node_once() {
        let g = CountingGraph {
            graph: random_geometric_graph(2000, 7),
            reads: Default::default(),
        };
        let assignment = (0..2000).map(|v| (v * 3 / 2000) as u32).collect();
        let p = Partition::from_assignment(3, assignment);
        let seeds = kappa_graph::pair_boundary_nodes(&g.graph, &p, 0, 1);
        let mut dist = Vec::new();
        let direct =
            kappa_graph::band_around_boundary_in(&g.graph, &p, &seeds, (0, 1), 4, &mut dist);
        let view = MemoGraph::new(&g, BandMemo::default());
        let band = kappa_graph::band_around_boundary_in(&view, &p, &seeds, (0, 1), 4, &mut dist);
        assert!(!band.is_empty());
        assert_eq!(band, direct);
        assert_eq!(g.reads.get(), band.len());
    }
}
