//! Parity of the production matchers with the test-only references in
//! `reference.rs`: the same `Matching`, bit for bit, on every graph family,
//! edge rating, part count, part layout and local algorithm, plus direct
//! `gpa_on_edges` comparisons on hostile edge lists (duplicates, self loops,
//! reversed endpoints, zero and negative ratings, heavy ties).

use kappa_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::greedy::sort_by_rating_desc;
use crate::reference;
use crate::{
    compute_matching, gpa, parallel_matching, EdgeRating, MatchingAlgorithm,
    ParallelMatchingConfig, RatedEdge,
};

/// Node weights in `1..=4` and edge weights in `1..=6` when `weighted`, unit
/// weights (many rating ties) otherwise.
fn finish(
    n: usize,
    edges: &[(NodeId, NodeId)],
    coords: Vec<[f64; 2]>,
    weighted: bool,
    rng: &mut StdRng,
) -> CsrGraph {
    let node_weights = (0..n)
        .map(|_| if weighted { rng.gen_range(1..=4u64) } else { 1 })
        .collect();
    let mut b = GraphBuilder::with_node_weights(node_weights);
    for &(u, v) in edges {
        let w = if weighted { rng.gen_range(1..=6u64) } else { 1 };
        b.add_edge(u, v, w);
    }
    b.set_coords(coords);
    b.build()
}

fn grid(width: usize, height: usize, weighted: bool, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |x: usize, y: usize| (y * width + x) as NodeId;
    let mut edges = Vec::new();
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < height {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    let coords = (0..width * height)
        .map(|i| [(i % width) as f64, (i / width) as f64])
        .collect();
    finish(width * height, &edges, coords, weighted, &mut rng)
}

/// Random geometric graph in the unit square, radius for average degree ~8.
fn rgg(n: usize, weighted: bool, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<[f64; 2]> = (0..n).map(|_| [rng.gen(), rng.gen()]).collect();
    let r2 = 8.0 / (std::f64::consts::PI * n as f64);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let (dx, dy) = (points[u][0] - points[v][0], points[u][1] - points[v][1]);
            if dx * dx + dy * dy <= r2 {
                edges.push((u as NodeId, v as NodeId));
            }
        }
    }
    finish(n, &edges, points, weighted, &mut rng)
}

/// Jittered-grid triangulation: every quad split along its shorter diagonal.
fn delaunay(side: usize, weighted: bool, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<[f64; 2]> = (0..side * side)
        .map(|i| {
            let (x, y) = ((i % side) as f64, (i / side) as f64);
            [
                x + rng.gen_range(-0.45..0.45),
                y + rng.gen_range(-0.45..0.45),
            ]
        })
        .collect();
    let id = |x: usize, y: usize| (y * side + x) as NodeId;
    let dist2 = |a: NodeId, b: NodeId| {
        let (pa, pb) = (coords[a as usize], coords[b as usize]);
        (pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2)
    };
    let mut edges = Vec::new();
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < side {
                edges.push((id(x, y), id(x, y + 1)));
            }
            if x + 1 < side && y + 1 < side {
                if dist2(id(x, y), id(x + 1, y + 1)) <= dist2(id(x + 1, y), id(x, y + 1)) {
                    edges.push((id(x, y), id(x + 1, y + 1)));
                } else {
                    edges.push((id(x + 1, y), id(x, y + 1)));
                }
            }
        }
    }
    finish(side * side, &edges, coords, weighted, &mut rng)
}

/// R-MAT with the Graph500 quadrant probabilities. Its coordinates are
/// random, so "RCB parts" are scattered, non-contiguous node sets.
fn rmat(scale: u32, edge_factor: usize, weighted: bool, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 1usize << scale;
    let mut edges = Vec::new();
    for _ in 0..edge_factor * n {
        let (mut u, mut v, mut step) = (0usize, 0usize, n >> 1);
        while step > 0 {
            let r: f64 = rng.gen();
            if r >= 0.57 + 0.19 + 0.19 {
                u += step;
                v += step;
            } else if r >= 0.57 + 0.19 {
                u += step;
            } else if r >= 0.57 {
                v += step;
            }
            step >>= 1;
        }
        edges.push((u as NodeId, v as NodeId));
    }
    let coords = (0..n).map(|_| [rng.gen(), rng.gen()]).collect();
    finish(n, &edges, coords, weighted, &mut rng)
}

/// Recursive coordinate bisection into `num_parts` parts (alternate axes,
/// split at the proportional median).
fn rcb_parts(graph: &CsrGraph, num_parts: usize) -> Vec<usize> {
    fn recurse(
        coords: &[[f64; 2]],
        nodes: &mut [NodeId],
        first: usize,
        parts: usize,
        axis: usize,
        out: &mut [usize],
    ) {
        if parts <= 1 || nodes.len() <= 1 {
            for &v in nodes.iter() {
                out[v as usize] = first;
            }
            return;
        }
        let left = parts / 2;
        let split = nodes.len() * left / parts;
        nodes.select_nth_unstable_by(split.min(nodes.len() - 1), |&a, &b| {
            coords[a as usize][axis].total_cmp(&coords[b as usize][axis])
        });
        let (lo, hi) = nodes.split_at_mut(split);
        recurse(coords, lo, first, left, 1 - axis, out);
        recurse(coords, hi, first + left, parts - left, 1 - axis, out);
    }
    let coords = graph.coords().expect("test graphs carry coordinates");
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    let mut out = vec![0; graph.num_nodes()];
    recurse(coords, &mut nodes, 0, num_parts, 0, &mut out);
    out
}

/// Every family twice: unit weights (ties everywhere) and random weights.
fn families() -> Vec<(String, CsrGraph)> {
    let mut out = Vec::new();
    for (i, weighted) in [false, true].into_iter().enumerate() {
        let seed = 11 + i as u64;
        out.push((format!("rgg w={weighted}"), rgg(500, weighted, seed)));
        out.push((format!("rmat w={weighted}"), rmat(9, 4, weighted, seed)));
        out.push((
            format!("delaunay w={weighted}"),
            delaunay(22, weighted, seed),
        ));
        out.push((format!("grid w={weighted}"), grid(23, 21, weighted, seed)));
    }
    out
}

#[test]
fn parallel_matching_equals_the_reference() {
    let mut cases = 0u64;
    for (name, graph) in families() {
        for rating in EdgeRating::all() {
            for p in [1usize, 2, 3, 4, 8] {
                let rcb = rcb_parts(&graph, p);
                for local_algorithm in [MatchingAlgorithm::Gpa, MatchingAlgorithm::Greedy] {
                    cases += 1;
                    let config = ParallelMatchingConfig {
                        num_parts: p,
                        local_algorithm,
                        rating,
                        seed: cases,
                    };
                    // One more part than RCB fills leaves the last part empty.
                    let with_empty_part = ParallelMatchingConfig {
                        num_parts: p + 1,
                        ..config
                    };
                    for (parts, config) in [
                        (Some(&rcb[..]), &config),
                        (None, &config),
                        (Some(&rcb[..]), &with_empty_part),
                    ] {
                        let got = parallel_matching(&graph, parts, config);
                        let want = reference::parallel_matching(&graph, parts, config);
                        assert!(
                            got == want,
                            "{name}: {config:?}, rcb parts: {}",
                            parts.is_some()
                        );
                    }
                }
            }
        }
    }
    assert_eq!(cases, 8 * 5 * 5 * 2);
}

#[test]
fn sequential_gpa_equals_the_reference() {
    for (name, graph) in families() {
        for rating in EdgeRating::all() {
            for seed in 0..4u64 {
                let got = compute_matching(&graph, MatchingAlgorithm::Gpa, rating, seed);
                let want = reference::gpa_matching(&graph, rating, seed);
                assert!(got == want, "{name}: {rating:?}, seed {seed}");
            }
        }
    }
}

#[test]
fn gpa_on_edges_equals_the_reference_on_hostile_edge_lists() {
    let mut rng = StdRng::seed_from_u64(0x6a7a);
    for case in 0..400 {
        let n = rng.gen_range(1..120usize);
        let m = rng.gen_range(0..3 * n);
        // Few distinct ratings force ties; negative and zero ratings are
        // legal inputs of the public function.
        let levels = rng.gen_range(1..5u32);
        let mut edges: Vec<RatedEdge> = (0..m)
            .map(|_| RatedEdge {
                u: rng.gen_range(0..n) as NodeId,
                v: rng.gen_range(0..n) as NodeId,
                rating: f64::from(rng.gen_range(0..levels) as i32 - 1) * 0.5,
            })
            .collect();
        // Parallel edges: repeat some edges, sometimes reversed.
        for _ in 0..m / 4 {
            let mut e = edges[rng.gen_range(0..m)];
            if rng.gen() {
                std::mem::swap(&mut e.u, &mut e.v);
            }
            edges.push(e);
        }
        sort_by_rating_desc(&mut edges);
        let got = gpa::gpa_on_edges(n, &edges);
        let want = reference::gpa_on_edges(n, &edges);
        assert!(got == want, "case {case}: n {n}, {} edges", edges.len());
    }
}
