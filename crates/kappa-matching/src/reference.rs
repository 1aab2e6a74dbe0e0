//! Test-only reference matchers: the edge-indexed GPA and the
//! rate-everything-then-split parallel matcher exactly as they were before
//! the per-node GPA walk and the per-part rating. The tests in `parity.rs`
//! assert that the production matchers return the same [`Matching`] on every
//! case, which is what makes the faster data flow safe.

use kappa_graph::{CsrGraph, GraphAccess, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::greedy::sort_by_rating_desc;
use crate::matching::Matching;
use crate::parallel::ParallelMatchingConfig;
use crate::rating::{rated_edges, EdgeRating, RatedEdge};
use crate::MatchingAlgorithm;

/// The sequential dispatcher, with GPA routed to the reference GPA.
pub(crate) fn compute_matching(
    graph: &CsrGraph,
    algorithm: MatchingAlgorithm,
    rating: EdgeRating,
    seed: u64,
) -> Matching {
    match algorithm {
        MatchingAlgorithm::Gpa => gpa_matching(graph, rating, seed),
        other => crate::compute_matching(graph, other, rating, seed),
    }
}

/// Reference GPA over the whole graph.
pub(crate) fn gpa_matching<G: GraphAccess>(graph: &G, rating: EdgeRating, seed: u64) -> Matching {
    let mut edges = rated_edges(graph, rating);
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    sort_by_rating_desc(&mut edges);
    gpa_on_edges(graph.num_nodes(), &edges)
}

/// Union-find over nodes tracking, per component, the number of selected edges.
/// Used to detect whether an applicable edge would close an odd cycle.
struct PathForest {
    parent: Vec<NodeId>,
    /// Number of selected edges in the component rooted here.
    edge_count: Vec<u32>,
}

impl PathForest {
    fn new(n: usize) -> Self {
        PathForest {
            parent: (0..n as NodeId).collect(),
            edge_count: vec![0; n],
        }
    }

    fn find(&mut self, v: NodeId) -> NodeId {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
            self.edge_count[rb as usize] += self.edge_count[ra as usize] + 1;
        } else {
            self.edge_count[rb as usize] += 1;
        }
    }
}

/// Reference GPA over an explicit pre-sorted (descending) edge list.
pub(crate) fn gpa_on_edges(num_nodes: usize, edges_sorted_desc: &[RatedEdge]) -> Matching {
    // Phase 1: grow paths and even cycles.
    // selected[v] holds up to two incident selected edge indices.
    let mut degree = vec![0u8; num_nodes];
    let mut incident: Vec<[usize; 2]> = vec![[usize::MAX; 2]; num_nodes];
    let mut forest = PathForest::new(num_nodes);
    let mut selected: Vec<bool> = vec![false; edges_sorted_desc.len()];

    for (idx, e) in edges_sorted_desc.iter().enumerate() {
        let (u, v) = (e.u, e.v);
        if u == v || degree[u as usize] >= 2 || degree[v as usize] >= 2 {
            continue;
        }
        let (ru, rv) = (forest.find(u), forest.find(v));
        if ru == rv {
            // Same path: adding the edge closes a cycle. Only even cycles are
            // allowed (odd cycles cannot be decomposed into two alternating
            // matchings).
            let len = forest.edge_count[rv as usize];
            if len % 2 == 0 {
                continue; // would close an odd cycle (len edges + 1 is odd)
            }
        }
        selected[idx] = true;
        forest.union(u, v);
        for &w in &[u, v] {
            let slot = if incident[w as usize][0] == usize::MAX {
                0
            } else {
                1
            };
            incident[w as usize][slot] = idx;
            degree[w as usize] += 1;
        }
    }

    // Phase 2: decompose the selected structure into paths/cycles and solve
    // each optimally by DP.
    let mut matching = Matching::new(num_nodes);
    let mut edge_used = vec![false; edges_sorted_desc.len()];

    // Walk from every endpoint (degree 1) first to enumerate paths, then sweep
    // the remaining structure (cycles).
    let visit_from = |start: NodeId, matching: &mut Matching, edge_used: &mut Vec<bool>| {
        // Collect the chain of edge indices starting at `start`.
        let mut chain: Vec<usize> = Vec::new();
        let mut cur = start;
        loop {
            let mut next_edge = usize::MAX;
            for &ei in &incident[cur as usize] {
                if ei != usize::MAX && !edge_used[ei] {
                    next_edge = ei;
                    break;
                }
            }
            if next_edge == usize::MAX {
                break;
            }
            edge_used[next_edge] = true;
            chain.push(next_edge);
            let e = &edges_sorted_desc[next_edge];
            cur = if e.u == cur { e.v } else { e.u };
        }
        if chain.is_empty() {
            return;
        }
        apply_best_alternating(&chain, edges_sorted_desc, matching);
    };

    for v in 0..num_nodes as NodeId {
        if degree[v as usize] == 1 {
            visit_from(v, &mut matching, &mut edge_used);
        }
    }
    // Remaining components are cycles: pick any node with an unused edge.
    for v in 0..num_nodes as NodeId {
        if degree[v as usize] == 2 {
            let has_unused = incident[v as usize]
                .iter()
                .any(|&ei| ei != usize::MAX && !edge_used[ei]);
            if has_unused {
                visit_from(v, &mut matching, &mut edge_used);
            }
        }
    }
    matching
}

/// Given a chain of edge indices forming a path or cycle (in traversal order),
/// chooses the maximum-rating alternating subset and applies it to `matching`.
fn apply_best_alternating(chain: &[usize], edges: &[RatedEdge], matching: &mut Matching) {
    let is_cycle = {
        // A chain is a cycle iff the first and last edge share an endpoint and
        // the chain has at least 3 edges (the traversal returns to the start).
        if chain.len() < 3 {
            false
        } else {
            let first = &edges[chain[0]];
            let last = &edges[*chain.last().unwrap()];
            first.u == last.u || first.u == last.v || first.v == last.u || first.v == last.v
        }
    };

    let pick = if is_cycle {
        let without_last = best_path_subset(&chain[..chain.len() - 1], edges);
        let without_first = best_path_subset(&chain[1..], edges);
        if subset_value(&without_last, edges) >= subset_value(&without_first, edges) {
            without_last
        } else {
            without_first
        }
    } else {
        best_path_subset(chain, edges)
    };

    for idx in pick {
        let e = &edges[idx];
        matching.try_match(e.u, e.v);
    }
}

/// Maximum-rating independent subset of consecutive chain edges.
fn best_path_subset(chain: &[usize], edges: &[RatedEdge]) -> Vec<usize> {
    let k = chain.len();
    if k == 0 {
        return Vec::new();
    }
    // take[i] = best value of chain[..=i] taking edge i; skip[i] = not taking it.
    let mut take = vec![0.0f64; k];
    let mut skip = vec![0.0f64; k];
    take[0] = edges[chain[0]].rating;
    for i in 1..k {
        take[i] = skip[i - 1] + edges[chain[i]].rating;
        skip[i] = take[i - 1].max(skip[i - 1]);
    }
    // Backtrack: at index i, an optimal prefix solution either takes edge i
    // (then continues at i - 2) or skips it (continues at i - 1).
    let mut picked = Vec::new();
    let mut i = k as isize - 1;
    while i >= 0 {
        if take[i as usize] >= skip[i as usize] {
            picked.push(chain[i as usize]);
            i -= 2;
        } else {
            i -= 1;
        }
    }
    picked
}

fn subset_value(subset: &[usize], edges: &[RatedEdge]) -> f64 {
    subset.iter().map(|&i| edges[i].rating).sum()
}

/// Reference parallel matcher: rates every edge into one list, splits it by
/// part, and filters the gap edges through the matched-rating test.
pub(crate) fn parallel_matching(
    graph: &CsrGraph,
    node_part: Option<&[usize]>,
    config: &ParallelMatchingConfig,
) -> Matching {
    let n = graph.num_nodes();
    let p = config.num_parts.max(1);
    if n == 0 {
        return Matching::new(0);
    }
    if p == 1 {
        return compute_matching(graph, config.local_algorithm, config.rating, config.seed);
    }

    let owned_parts: Vec<usize>;
    let part: &[usize] = match node_part {
        Some(parts) => {
            assert_eq!(parts.len(), n, "node_part length mismatch");
            parts
        }
        None => {
            let chunk = n.div_ceil(p);
            owned_parts = (0..n).map(|v| (v / chunk).min(p - 1)).collect();
            &owned_parts
        }
    };

    // Rate every edge once; split into intra-part lists and the cross-part list.
    let all_edges = rated_edges(graph, config.rating);
    let mut local_edges: Vec<Vec<RatedEdge>> = vec![Vec::new(); p];
    let mut cross_edges: Vec<RatedEdge> = Vec::new();
    for e in all_edges {
        let (pu, pv) = (part[e.u as usize], part[e.v as usize]);
        if pu == pv {
            local_edges[pu].push(e);
        } else {
            cross_edges.push(e);
        }
    }

    // Local phase: match every part independently and in parallel.
    let local_matchings: Vec<Matching> = local_edges
        .into_par_iter()
        .enumerate()
        .map(|(i, mut edges)| {
            // Deterministic per-part seeds.
            let seed = config
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(i as u64);
            shuffle_edges(&mut edges, seed);
            sort_by_rating_desc(&mut edges);
            match config.local_algorithm {
                MatchingAlgorithm::Gpa => gpa_on_edges(n, &edges),
                MatchingAlgorithm::Greedy | MatchingAlgorithm::Shem => {
                    crate::greedy::greedy_on_edges(n, &edges)
                }
            }
        })
        .collect();

    // Merge: parts are node-disjoint, so no conflicts are possible.
    let mut matching = Matching::new(n);
    for m in &local_matchings {
        matching.absorb(m);
    }

    // Gap graph: cross-part edges more attractive than what their endpoints got
    // locally.
    let matched_rating: Vec<f64> = compute_matched_ratings(graph, &matching, config.rating);
    let mut gap: Vec<RatedEdge> = cross_edges
        .into_iter()
        .filter(|e| {
            e.rating > matched_rating[e.u as usize] && e.rating > matched_rating[e.v as usize]
        })
        .collect();

    // Keep only gap edges between unmatched nodes.
    gap.retain(|e| !matching.is_matched(e.u) && !matching.is_matched(e.v));

    crate::parallel::locally_heaviest_matching(&mut matching, gap);
    matching
}

/// For every node, the rating of the edge it is matched along (or -inf).
fn compute_matched_ratings(graph: &CsrGraph, matching: &Matching, rating: EdgeRating) -> Vec<f64> {
    let mut out = vec![f64::NEG_INFINITY; graph.num_nodes()];
    let need_degrees = rating == EdgeRating::InnerOuter;
    let degrees: Vec<u64> = if need_degrees {
        graph.nodes().map(|v| graph.weighted_degree(v)).collect()
    } else {
        Vec::new()
    };
    for (u, v) in matching.edges() {
        let w = graph.edge_weight_between(u, v).unwrap_or(0);
        let (ou, ov) = if need_degrees {
            (degrees[u as usize], degrees[v as usize])
        } else {
            (0, 0)
        };
        let r = crate::rating::rate_edge(
            rating,
            w,
            graph.node_weight(u),
            graph.node_weight(v),
            ou,
            ov,
        );
        out[u as usize] = r;
        out[v as usize] = r;
    }
    out
}

/// Fisher–Yates shuffle with a small deterministic xorshift generator.
fn shuffle_edges(edges: &mut [RatedEdge], seed: u64) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in (1..edges.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        edges.swap(i, j);
    }
}
