//! [`TierGraph`] — one graph, any storage level.
//!
//! The tiered multilevel pipeline works on whatever level a graph currently
//! occupies: the finest levels of a table-5-class instance sit on disk
//! ([`PagedGraph`]), mid levels in compact RAM ([`CompactCsr`]), and the
//! coarsest level is decoded to a plain [`CsrGraph`] for the initial
//! partitioner. `TierGraph` erases the difference behind the same
//! [`GraphAccess`] surface, so hierarchy and refinement code is written
//! once. All three arms decode to the identical sorted adjacency, which is
//! what keeps cross-tier runs bit-identical (`tests/parity.rs`).

use kappa_graph::{Adjacency, CsrGraph, EdgeWeight, GraphAccess, NodeId, NodeWeight};

use crate::compact::CompactCsr;
use crate::paged::PagedGraph;

/// A frozen graph at one of the three storage levels.
pub enum TierGraph {
    /// Plain CSR arrays (the classic representation).
    Ram(CsrGraph),
    /// Delta-varint arena in RAM at a fraction of the footprint.
    Compact(CompactCsr),
    /// Edge segments on disk behind a fixed-budget page cache.
    Paged(PagedGraph),
}

impl TierGraph {
    /// Short name for logs and experiment tables.
    pub fn tier_name(&self) -> &'static str {
        match self {
            TierGraph::Ram(_) => "ram",
            TierGraph::Compact(_) => "compact",
            TierGraph::Paged(_) => "paged",
        }
    }

    /// Decodes to plain CSR (clones the `Ram` arm). Meant for the coarsest
    /// level only — on a fine paged level this would defeat the tier.
    pub fn to_csr(&self) -> CsrGraph {
        match self {
            TierGraph::Ram(g) => g.clone(),
            TierGraph::Compact(g) => g.to_csr(),
            TierGraph::Paged(g) => {
                let n = GraphAccess::num_nodes(g);
                let mut xadj = Vec::with_capacity(n + 1);
                let mut adjncy = Vec::with_capacity(g.num_half_edges());
                let mut adjwgt = Vec::with_capacity(g.num_half_edges());
                xadj.push(0);
                for v in 0..n as NodeId {
                    g.for_each_edge(v, |t, w| {
                        adjncy.push(t);
                        adjwgt.push(w);
                    });
                    xadj.push(adjncy.len());
                }
                let vwgt = (0..n as NodeId).map(|v| g.node_weight_of(v)).collect();
                CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt, None)
            }
        }
    }

    /// The `Ram` arm, if that is where the graph lives.
    pub fn as_ram(&self) -> Option<&CsrGraph> {
        match self {
            TierGraph::Ram(g) => Some(g),
            _ => None,
        }
    }

    /// The `Paged` arm, if that is where the graph lives.
    pub fn as_paged(&self) -> Option<&PagedGraph> {
        match self {
            TierGraph::Paged(g) => Some(g),
            _ => None,
        }
    }
}

impl Adjacency for TierGraph {
    #[inline]
    fn degree_of(&self, v: NodeId) -> usize {
        match self {
            TierGraph::Ram(g) => g.degree_of(v),
            TierGraph::Compact(g) => g.degree_of(v),
            TierGraph::Paged(g) => g.degree_of(v),
        }
    }

    #[inline]
    fn node_weight_of(&self, v: NodeId) -> NodeWeight {
        match self {
            TierGraph::Ram(g) => g.node_weight_of(v),
            TierGraph::Compact(g) => g.node_weight_of(v),
            TierGraph::Paged(g) => g.node_weight_of(v),
        }
    }

    #[inline]
    fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, f: F) {
        match self {
            TierGraph::Ram(g) => g.for_each_edge(v, f),
            TierGraph::Compact(g) => g.for_each_edge(v, f),
            TierGraph::Paged(g) => g.for_each_edge(v, f),
        }
    }
}

impl GraphAccess for TierGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        match self {
            TierGraph::Ram(g) => GraphAccess::num_nodes(g),
            TierGraph::Compact(g) => GraphAccess::num_nodes(g),
            TierGraph::Paged(g) => GraphAccess::num_nodes(g),
        }
    }

    #[inline]
    fn num_half_edges(&self) -> usize {
        match self {
            TierGraph::Ram(g) => GraphAccess::num_half_edges(g),
            TierGraph::Compact(g) => GraphAccess::num_half_edges(g),
            TierGraph::Paged(g) => GraphAccess::num_half_edges(g),
        }
    }

    #[inline]
    fn total_node_weight(&self) -> NodeWeight {
        match self {
            TierGraph::Ram(g) => GraphAccess::total_node_weight(g),
            TierGraph::Compact(g) => GraphAccess::total_node_weight(g),
            TierGraph::Paged(g) => GraphAccess::total_node_weight(g),
        }
    }

    #[inline]
    fn max_node_weight(&self) -> NodeWeight {
        match self {
            TierGraph::Ram(g) => GraphAccess::max_node_weight(g),
            TierGraph::Compact(g) => GraphAccess::max_node_weight(g),
            TierGraph::Paged(g) => GraphAccess::max_node_weight(g),
        }
    }

    fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        // The three arms return different iterator types; box to unify.
        match self {
            TierGraph::Ram(g) => {
                Box::new(GraphAccess::edges_of(g, v)) as Box<dyn Iterator<Item = _> + '_>
            }
            TierGraph::Compact(g) => Box::new(GraphAccess::edges_of(g, v)),
            TierGraph::Paged(g) => Box::new(GraphAccess::edges_of(g, v)),
        }
    }

    #[inline]
    fn coords(&self) -> Option<&[[f64; 2]]> {
        match self {
            TierGraph::Ram(g) => g.coords(),
            TierGraph::Compact(g) => GraphAccess::coords(g),
            TierGraph::Paged(_) => None,
        }
    }

    #[inline]
    fn is_out_of_core(&self) -> bool {
        match self {
            TierGraph::Ram(g) => g.is_out_of_core(),
            TierGraph::Compact(g) => g.is_out_of_core(),
            TierGraph::Paged(g) => g.is_out_of_core(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::PageCacheConfig;
    use kappa_graph::graph_from_edges;

    fn sample() -> CsrGraph {
        graph_from_edges(
            5,
            vec![(0, 1, 2), (1, 2, 1), (2, 3, 5), (3, 4, 1), (0, 4, 3)],
        )
    }

    #[test]
    fn all_tiers_expose_the_same_graph() {
        let g = sample();
        let mut path = std::env::temp_dir();
        path.push(format!("kappa-mem-tier-{}.kpg", std::process::id()));
        let mut paged = PagedGraph::from_graph(&g, &path, PageCacheConfig::default()).unwrap();
        paged.set_delete_on_drop(true);
        let tiers = [
            TierGraph::Ram(g.clone()),
            TierGraph::Compact(CompactCsr::from_graph(&g)),
            TierGraph::Paged(paged),
        ];
        for t in &tiers {
            assert_eq!(
                GraphAccess::num_nodes(t),
                g.num_nodes(),
                "{}",
                t.tier_name()
            );
            assert_eq!(t.num_half_edges(), g.num_half_edges());
            assert_eq!(t.total_node_weight(), g.total_node_weight());
            for v in g.nodes() {
                let want: Vec<_> = g.edges_of(v).collect();
                let got: Vec<_> = GraphAccess::edges_of(t, v).collect();
                assert_eq!(want, got, "{} node {v}", t.tier_name());
            }
            // Paged decodes without coords; the others keep the source's.
            assert_eq!(t.to_csr().num_half_edges(), g.num_half_edges());
        }
        assert_eq!(tiers[0].tier_name(), "ram");
        assert_eq!(tiers[1].tier_name(), "compact");
        assert_eq!(tiers[2].tier_name(), "paged");
        assert!(tiers[0].as_ram().is_some());
        assert!(tiers[2].as_paged().is_some());
    }
}
