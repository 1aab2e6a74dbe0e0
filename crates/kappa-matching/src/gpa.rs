//! The Global Path Algorithm (GPA) of Maue & Sanders (§3.2).
//!
//! GPA scans the edges in order of decreasing rating like Greedy, but instead
//! of matching immediately it grows a collection of *paths and even cycles*:
//! an edge is *applicable* if both endpoints have degree ≤ 1 in the structure
//! built so far and adding it does not close an odd cycle. Afterwards every
//! path/cycle is solved *optimally* by dynamic programming over its two
//! alternating sub-matchings. GPA keeps the ½-approximation guarantee of
//! Greedy but is empirically considerably better — which is why the paper
//! adopts it as the default matcher.
//!
//! # Data flow
//!
//! GPA keeps two small records per node, so neither phase reads the edge
//! list at random:
//!
//! * **Phase 1** scans the sorted edges once and reads only the 8-byte
//!   `PathEnd` of both endpoints: a node that ends a path knows the path's
//!   other end and length, so "is the edge applicable?", "same path?" and
//!   "would this close an odd cycle?" are O(1) lookups, with no union-find.
//!   A selected edge is written to both endpoints' `Links` as
//!   `(other endpoint, rating)`, slot 0 first.
//! * **Phase 2** walks each path or cycle from node to node, leaving every
//!   node by the slot it was not entered through, with a node-level `done`
//!   flag and DP buffers reused across components.
//!
//! # Walk orientation
//!
//! The DP breaks ties (`take >= skip`, and for cycles "without the last edge"
//! over "without the first" when the sums are equal, each sum added in
//! picked order), so the direction of a walk is part of the result. A path is
//! walked from its smaller-id end. A cycle is walked from its smallest node,
//! leaving by slot 0, i.e. along the edge selected first there.

use kappa_graph::{GraphAccess, NodeId, INVALID_NODE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::greedy::sort_by_rating_desc;
use crate::matching::Matching;
use crate::rating::{rated_edges, EdgeRating, RatedEdge};

/// Computes a GPA matching of `graph` under `rating`.
pub fn gpa_matching<G: GraphAccess>(graph: &G, rating: EdgeRating, seed: u64) -> Matching {
    let mut edges = rated_edges(graph, rating);
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    sort_by_rating_desc(&mut edges);
    gpa_on_edges(graph.num_nodes(), &edges)
}

/// Phase 1's view of a node: where its path ends.
#[derive(Clone, Copy)]
struct PathEnd {
    /// The node itself while it is isolated, the other end of its path while
    /// it has one selected edge, `INVALID_NODE` once it has two.
    end: NodeId,
    /// Number of edges on the path, valid while the node is a path end.
    len: u32,
}

/// The selected edges at a node: the other endpoints, in selection order
/// (`INVALID_NODE` marks an empty slot), and their ratings, slot for slot.
#[derive(Clone, Copy)]
struct Links {
    mate: [NodeId; 2],
    rating: [f64; 2],
}

impl Links {
    fn degree(&self) -> usize {
        usize::from(self.mate[0] != INVALID_NODE) + usize::from(self.mate[1] != INVALID_NODE)
    }
}

/// GPA over an explicit pre-sorted (descending) edge list.
pub fn gpa_on_edges(num_nodes: usize, edges_sorted_desc: &[RatedEdge]) -> Matching {
    let mut ends: Vec<PathEnd> = (0..num_nodes as NodeId)
        .map(|v| PathEnd { end: v, len: 0 })
        .collect();
    let mut links = vec![
        Links {
            mate: [INVALID_NODE; 2],
            rating: [0.0; 2],
        };
        num_nodes
    ];

    // Phase 1: grow paths and even cycles. An edge is applicable when both
    // endpoints have fewer than two selected edges, i.e. both end a path
    // (or are isolated). They end the same path exactly when one is the
    // other's `end`; closing that path is allowed only if the cycle it makes
    // is even, since an odd cycle has no two alternating matchings.
    for e in edges_sorted_desc {
        let (u, v) = (e.u, e.v);
        if u == v {
            continue;
        }
        let (at_u, at_v) = (ends[u as usize], ends[v as usize]);
        if at_u.end == INVALID_NODE || at_v.end == INVALID_NODE {
            continue;
        }
        if at_u.end == v {
            if at_u.len % 2 == 0 {
                continue; // at_u.len + 1 edges: an odd cycle
            }
            ends[u as usize].end = INVALID_NODE;
            ends[v as usize].end = INVALID_NODE;
        } else {
            // Join two paths: their far ends now end one path, and an
            // endpoint that already had an edge becomes inner.
            let len = at_u.len + at_v.len + 1;
            ends[at_u.end as usize] = PathEnd { end: at_v.end, len };
            ends[at_v.end as usize] = PathEnd { end: at_u.end, len };
            if at_u.end != u {
                ends[u as usize].end = INVALID_NODE;
            }
            if at_v.end != v {
                ends[v as usize].end = INVALID_NODE;
            }
        }
        // A node with one edge so far fills slot 1.
        let slot_u = usize::from(at_u.end != u);
        let slot_v = usize::from(at_v.end != v);
        links[u as usize].mate[slot_u] = v;
        links[u as usize].rating[slot_u] = e.rating;
        links[v as usize].mate[slot_v] = u;
        links[v as usize].rating[slot_v] = e.rating;
    }

    // Phase 2: walk every path from its smaller end, then every cycle from
    // its smallest node leaving by slot 0 (the walk direction decides the
    // DP's ties, so it is part of the result), and solve each by DP.
    let mut matching = Matching::new(num_nodes);
    let mut done = vec![false; num_nodes];
    let mut walk = Walk::default();
    for wanted_degree in [1, 2] {
        for v in 0..num_nodes {
            if !done[v] && links[v].degree() == wanted_degree {
                walk.collect(&links, v as NodeId, &mut done);
                walk.apply_best_alternating(&mut matching);
            }
        }
    }
    matching
}

/// One path or cycle of GPA's structure plus reusable DP buffers.
#[derive(Default)]
struct Walk {
    /// Nodes in walk order; a cycle repeats its first node at the end.
    nodes: Vec<NodeId>,
    /// `ratings[i]` rates the edge `{nodes[i], nodes[i + 1]}`.
    ratings: Vec<f64>,
    take: Vec<f64>,
    skip: Vec<f64>,
    picked: Vec<usize>,
    picked_alt: Vec<usize>,
}

impl Walk {
    /// Walks the component of `start` node by node, leaving every node by
    /// the slot it was not entered through, and marks its nodes done.
    fn collect(&mut self, links: &[Links], start: NodeId, done: &mut [bool]) {
        self.nodes.clear();
        self.ratings.clear();
        self.nodes.push(start);
        done[start as usize] = true;
        let (mut cur, mut slot) = (start, 0);
        loop {
            let next = links[cur as usize].mate[slot];
            if next == INVALID_NODE {
                break; // the far end of a path
            }
            self.ratings.push(links[cur as usize].rating[slot]);
            self.nodes.push(next);
            if done[next as usize] {
                break; // back at the start of a cycle
            }
            done[next as usize] = true;
            // In a two-edge cycle both slots of `next` lead back; both ends
            // store the two edges in the same slot order, so arriving by
            // slot 0 and leaving by slot 1 keeps the edge order.
            slot = usize::from(links[next as usize].mate[0] == cur);
            cur = next;
        }
    }

    /// Chooses the maximum-rating alternating subset of the walked edges and
    /// adds it to `matching`. A path takes the plain DP; a cycle of three or
    /// more edges runs it without its last and without its first edge and
    /// keeps the better (ties: without the last).
    fn apply_best_alternating(&mut self, matching: &mut Matching) {
        let k = self.ratings.len();
        let is_cycle = k >= 3 && self.nodes[0] == self.nodes[k];
        let mut offset = 0;
        if is_cycle {
            best_path_subset(
                &self.ratings[..k - 1],
                &mut self.take,
                &mut self.skip,
                &mut self.picked,
            );
            best_path_subset(
                &self.ratings[1..],
                &mut self.take,
                &mut self.skip,
                &mut self.picked_alt,
            );
            let without_last: f64 = self.picked.iter().map(|&i| self.ratings[i]).sum();
            let without_first: f64 = self.picked_alt.iter().map(|&i| self.ratings[i + 1]).sum();
            let keep_without_last = without_last >= without_first;
            if !keep_without_last {
                std::mem::swap(&mut self.picked, &mut self.picked_alt);
                offset = 1;
            }
        } else {
            best_path_subset(
                &self.ratings,
                &mut self.take,
                &mut self.skip,
                &mut self.picked,
            );
        }
        for &i in &self.picked {
            matching.try_match(self.nodes[i + offset], self.nodes[i + offset + 1]);
        }
    }
}

/// Maximum-rating subset of a chain of edges with no two consecutive edges
/// picked — the classic "maximum weight independent set on a path" DP.
/// Fills `picked` with chain indices in backtrack (descending) order.
fn best_path_subset(
    ratings: &[f64],
    take: &mut Vec<f64>,
    skip: &mut Vec<f64>,
    picked: &mut Vec<usize>,
) {
    picked.clear();
    let k = ratings.len();
    if k == 0 {
        return;
    }
    // take[i] = best value of the chain's first i + 1 edges taking edge i;
    // skip[i] = not taking it.
    take.clear();
    take.resize(k, 0.0);
    skip.clear();
    skip.resize(k, 0.0);
    take[0] = ratings[0];
    for i in 1..k {
        take[i] = skip[i - 1] + ratings[i];
        skip[i] = take[i - 1].max(skip[i - 1]);
    }
    // Backtrack: at index i, an optimal prefix solution either takes edge i
    // (then continues at i - 2) or skips it (continues at i - 1).
    let mut i = k as isize - 1;
    while i >= 0 {
        if take[i as usize] >= skip[i as usize] {
            picked.push(i as usize);
            i -= 2;
        } else {
            i -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_graph::builder::graph_from_edges;
    use kappa_graph::GraphBuilder;

    #[test]
    fn beats_greedy_on_alternating_path() {
        // Path with weights 2, 3, 2: greedy takes the 3 (total 3), GPA's DP
        // takes the two 2s (total 4).
        let g = graph_from_edges(4, vec![(0, 1, 2), (1, 2, 3), (2, 3, 2)]);
        let gpa = gpa_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(gpa.total_weight(&g), 4);
        let greedy = crate::greedy::greedy_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(greedy.total_weight(&g), 3);
    }

    #[test]
    fn optimal_on_even_cycle() {
        // 6-cycle with unit weights: optimum is 3 edges.
        let g = graph_from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 0, 1),
            ],
        );
        let m = gpa_matching(&g, EdgeRating::Weight, 1);
        assert_eq!(m.cardinality(), 3);
        assert!(m.validate(Some(&g)).is_ok());
    }

    #[test]
    fn handles_odd_cycles_gracefully() {
        // Triangle: GPA may only select 2 of the 3 edges into its path
        // structure, and the matching has exactly one edge.
        let g = graph_from_edges(3, vec![(0, 1, 5), (1, 2, 4), (2, 0, 3)]);
        let m = gpa_matching(&g, EdgeRating::Weight, 2);
        assert_eq!(m.cardinality(), 1);
        assert!(m.validate(Some(&g)).is_ok());
        // It must pick the heaviest edge available on the path it kept.
        assert!(m.total_weight(&g) >= 4);
    }

    #[test]
    fn matching_is_valid_on_random_geometric_like_grid() {
        let mut b = GraphBuilder::new(64);
        for y in 0..8u32 {
            for x in 0..8u32 {
                let id = y * 8 + x;
                if x + 1 < 8 {
                    b.add_edge(id, id + 1, 1 + ((x + y) % 3) as u64);
                }
                if y + 1 < 8 {
                    b.add_edge(id, id + 8, 1 + ((x * y) % 4) as u64);
                }
            }
        }
        let g = b.build();
        for seed in 0..5 {
            let m = gpa_matching(&g, EdgeRating::ExpansionStar2, seed);
            assert!(m.validate(Some(&g)).is_ok());
            assert!(m.cardinality() >= 20, "cardinality {}", m.cardinality());
        }
    }

    #[test]
    fn gpa_weight_at_least_greedy_on_random_instances() {
        // GPA is empirically at least as good as Greedy; check on a few seeds.
        for seed in 0..4u64 {
            let mut b = GraphBuilder::new(40);
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for _ in 0..120 {
                let u = (next() % 40) as NodeId;
                let v = (next() % 40) as NodeId;
                if u != v {
                    b.add_edge(u, v, 1 + next() % 20);
                }
            }
            let g = b.build();
            let gpa = gpa_matching(&g, EdgeRating::Weight, seed).total_weight(&g);
            let greedy =
                crate::greedy::greedy_matching(&g, EdgeRating::Weight, seed).total_weight(&g);
            assert!(
                (gpa as f64) >= 0.95 * greedy as f64,
                "seed {seed}: gpa {gpa} much worse than greedy {greedy}"
            );
        }
    }

    #[test]
    fn empty_and_single_edge_graphs() {
        let g = graph_from_edges(2, vec![(0, 1, 3)]);
        let m = gpa_matching(&g, EdgeRating::Weight, 0);
        assert_eq!(m.cardinality(), 1);
        let empty = CsrGraph::empty();
        assert_eq!(gpa_matching(&empty, EdgeRating::Weight, 0).cardinality(), 0);
    }

    use kappa_graph::CsrGraph;
}
