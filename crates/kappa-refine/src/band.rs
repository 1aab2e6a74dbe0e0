//! Boundary bands for pairwise refinement (§5.2, Figure 2).
//!
//! Before a local search on the pair `(a, b)`, each PE performs a bounded BFS
//! from the pair boundary and exchanges only this band with its partner. The
//! FM search is then limited to band nodes; if moving something outside the
//! band would have helped, a later global iteration will reach it because the
//! boundary (and hence the band) will have shifted.
//!
//! ## Seeding the band
//!
//! Finding the seeds — the pair boundary itself — used to be a full
//! `O(n + m)` graph scan per pair per local iteration
//! ([`pair_boundary_nodes`]). The [`BandSeeder`] trait abstracts the seed
//! source so the scheduler can plug in the incremental [`BoundaryIndex`]
//! instead:
//!
//! * [`FullScanSeeder`] is the retained reference — a fresh full scan every
//!   time, exactly the historical behaviour;
//! * [`IndexSeeder`] draws the initial seeds from the boundary index
//!   (`O(|∂a| + |∂b|)` per extraction, returned without re-testing, since
//!   at class start the index and the view agree on the pair) and then
//!   tracks the worker's own FM moves: only nodes that were pair-boundary
//!   at class start, were moved, or neighbour a moved node can ever be
//!   pair-boundary during the worker's local iterations, so re-seeding
//!   re-examines just this candidate set — never the whole graph.
//!
//! Both seeders return the pair boundary in ascending node order, so band
//! seeds and everything downstream are bit-identical (`tests/parity.rs`).
//!
//! ## Sweeping the band
//!
//! The scheduler grows its band with `sweep_band` rather than
//! [`band_around_boundary_in`](kappa_graph::band_around_boundary_in): the
//! same layer-synchronous BFS, visit order and per-layer
//! [`prefetch`](GraphAccess::prefetch), but while it scans an expanded
//! node's adjacency it also sums that node's pair gain. Because the seeds
//! are exactly the pair boundary, the band's seed prefix is also FM's
//! queue-initialisation set, so a pair search reads each expanded band
//! node's adjacency once instead of three times (BFS, gain, boundary test).

use kappa_graph::{
    band_around_boundary, pair_boundary_nodes, BlockAssignment, BlockId, BoundaryIndex,
    GraphAccess, NodeId, INVALID_NODE,
};

use crate::fm::UNKNOWN_GAIN;
use crate::scratch::FmScratch;

/// Computes the band of eligible nodes for refining the pair `(a, b)`:
/// a BFS of depth `depth` from the pair boundary, restricted to the two blocks.
///
/// Returns an empty vector when the blocks share no edge (nothing to refine).
/// Generic over [`BlockAssignment`] so the parallel scheduler can compute
/// bands against its per-pair delta views.
pub fn pair_band<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    a: BlockId,
    b: BlockId,
    depth: usize,
) -> Vec<NodeId> {
    let seeds = pair_boundary_nodes(graph, partition, a, b);
    if seeds.is_empty() {
        return Vec::new();
    }
    band_around_boundary(graph, partition, &seeds, (a, b), depth)
}

/// True if `v` is in block `a` or `b` and has a neighbour in the other one:
/// a node of the pair boundary.
pub(crate) fn on_pair_boundary<G: GraphAccess, P: BlockAssignment>(
    graph: &G,
    view: &P,
    v: NodeId,
    a: BlockId,
    b: BlockId,
) -> bool {
    let bv = view.block_of(v);
    let other = if bv == a {
        b
    } else if bv == b {
        a
    } else {
        return false;
    };
    graph.edges_of(v).any(|(u, _)| view.block_of(u) == other)
}

/// Grows the band of the pair `(a, b)` around `seeds` into
/// `scratch.band` and returns how many of its nodes are seeds (they come
/// first, in seed order).
///
/// The BFS is [`band_around_boundary_in`](kappa_graph::band_around_boundary_in)'s
/// — layer-synchronous, restricted to the two blocks, each layer handed to
/// [`GraphAccess::prefetch`] once — so the band and its order are the same.
/// Instead of BFS distances it fills the search's own scratch:
/// `scratch.pos` maps every band node to its band position (FM's "in the
/// band" map), and `scratch.gains` holds, by band position, the pair gain
/// of every expanded node, summed from the adjacency scan the BFS performs
/// anyway. The seeds must be exactly the pair boundary (the [`BandSeeder`]
/// contract, checked on every expanded node in debug builds), so that the
/// seed prefix is FM's queue-initialisation set. Nodes of the last layer
/// are never expanded; their gains stay [`UNKNOWN_GAIN`] for FM to compute
/// on first use. The caller resets `scratch.pos` at the band's entries when
/// the search ends.
pub(crate) fn sweep_band<G: GraphAccess, A: BlockAssignment>(
    graph: &G,
    partition: &A,
    seeds: &[NodeId],
    (a, b): (BlockId, BlockId),
    depth: usize,
    scratch: &mut FmScratch,
) -> usize {
    scratch.prepare(graph.num_nodes(), 0);
    let FmScratch {
        pos, gains, band, ..
    } = scratch;
    band.clear();
    for &s in seeds {
        let bs = partition.block_of(s);
        if (bs == a || bs == b) && pos[s as usize] == INVALID_NODE {
            pos[s as usize] = band.len() as NodeId;
            band.push(s);
        }
    }
    let seeded = band.len();
    gains.resize(seeded, UNKNOWN_GAIN);
    // `band[layer_start..]` is the layer at distance `d`; expanding it
    // appends the next one.
    let mut layer_start = 0;
    let mut d = 0usize;
    while layer_start < band.len() {
        let layer_end = band.len();
        graph.prefetch(&band[layer_start..layer_end]);
        if d >= depth {
            break;
        }
        for i in layer_start..layer_end {
            let v = band[i];
            let own = partition.block_of(v);
            let other = if own == a { b } else { a };
            let mut gain = 0i64;
            let mut faces_other = false;
            graph.for_each_edge(v, |u, w| {
                let bu = partition.block_of(u);
                if bu == other {
                    gain += w as i64;
                    faces_other = true;
                } else if bu == own {
                    gain -= w as i64;
                } else {
                    return;
                }
                if pos[u as usize] == INVALID_NODE {
                    pos[u as usize] = band.len() as NodeId;
                    band.push(u);
                    gains.push(UNKNOWN_GAIN);
                }
            });
            // The seeds are exactly the pair boundary, so the seed prefix
            // is FM's queue-initialisation set.
            debug_assert_eq!(
                faces_other,
                i < seeded,
                "band node {v} breaks the seeder contract"
            );
            gains[i] = gain;
        }
        layer_start = layer_end;
        d += 1;
    }
    seeded
}

/// Source of band seeds (the pair boundary) for the local iterations of one
/// pair search.
///
/// [`seeds`](BandSeeder::seeds) must return exactly what a fresh
/// [`pair_boundary_nodes`] scan of `view` would — ascending node order
/// included; [`observe_moves`](BandSeeder::observe_moves) tells the seeder
/// which surviving moves the FM search just applied to `view`, so an
/// incremental implementation can keep up without rescanning.
pub trait BandSeeder<P: BlockAssignment> {
    /// The current boundary of the pair, ascending by node id.
    fn seeds(&mut self, view: &P) -> Vec<NodeId>;

    /// Records surviving FM moves `(node, new_block)` applied to the view.
    fn observe_moves(&mut self, moves: &[(NodeId, BlockId)]);
}

/// The reference seeder: a fresh `O(n + m)` [`pair_boundary_nodes`] scan on
/// every call. Retained as the ground truth [`IndexSeeder`] is checked
/// against; used by `refine_partition_reference`.
pub struct FullScanSeeder<'g, G> {
    graph: &'g G,
    a: BlockId,
    b: BlockId,
}

impl<'g, G: GraphAccess> FullScanSeeder<'g, G> {
    /// A full-scan seeder for the pair `(a, b)`.
    pub fn new(graph: &'g G, a: BlockId, b: BlockId) -> Self {
        FullScanSeeder { graph, a, b }
    }
}

impl<G: GraphAccess, P: BlockAssignment> BandSeeder<P> for FullScanSeeder<'_, G> {
    fn seeds(&mut self, view: &P) -> Vec<NodeId> {
        pair_boundary_nodes(self.graph, view, self.a, self.b)
    }

    fn observe_moves(&mut self, _moves: &[(NodeId, BlockId)]) {}
}

/// Incremental seeder over a shared [`BoundaryIndex`].
///
/// The index reflects the partition at class start; within the pair search
/// only this worker's own moves can change membership of blocks `a`/`b` (the
/// concurrent pairs of a colour class are block-disjoint), so the true pair
/// boundary is always a subset of: the index's pair boundary at class start,
/// plus moved nodes, plus neighbours of moved nodes. The first `seeds` call
/// returns the index's pair boundary as is — at class start the view and
/// the index agree on blocks `a` and `b` — and later calls re-examine the
/// candidate set against the live view — `O(Σ deg(candidate))`,
/// independent of `n` — which `observe_moves` grows.
pub struct IndexSeeder<'a, G> {
    graph: &'a G,
    index: &'a BoundaryIndex,
    a: BlockId,
    b: BlockId,
    /// Sorted, deduplicated candidate superset of the pair boundary;
    /// `None` until the first `seeds` call draws it from the index.
    candidates: Option<Vec<NodeId>>,
    /// True once `observe_moves` has grown the candidates past the index's
    /// pair boundary, so they must be re-tested against the view.
    moved: bool,
}

impl<'a, G: GraphAccess> IndexSeeder<'a, G> {
    /// An index-backed seeder for the pair `(a, b)`. The index must mirror
    /// the state `view` had when the pair search started.
    pub fn new(graph: &'a G, index: &'a BoundaryIndex, a: BlockId, b: BlockId) -> Self {
        IndexSeeder {
            graph,
            index,
            a,
            b,
            candidates: None,
            moved: false,
        }
    }

    /// Draws the initial candidate set from the index on first use.
    fn ensure_candidates(&mut self) -> &mut Vec<NodeId> {
        if self.candidates.is_none() {
            self.candidates = Some(self.index.pair_boundary_sorted(self.a, self.b));
        }
        self.candidates.as_mut().expect("just initialised")
    }
}

impl<G: GraphAccess, P: BlockAssignment> BandSeeder<P> for IndexSeeder<'_, G> {
    fn seeds(&mut self, view: &P) -> Vec<NodeId> {
        self.ensure_candidates();
        let (graph, a, b) = (self.graph, self.a, self.b);
        let candidates = self.candidates.as_ref().expect("just initialised");
        if !self.moved {
            // No move yet: the view still agrees with the index on blocks
            // `a` and `b`, so the index's pair boundary needs no re-test.
            debug_assert!(
                (0..graph.num_nodes() as NodeId).all(|v| {
                    let (in_view, in_index) = (view.block_of(v), self.index.block_of(v));
                    (in_view == a) == (in_index == a) && (in_view == b) == (in_index == b)
                }),
                "view and index disagree on the pair ({a}, {b}) at class start"
            );
            return candidates.clone();
        }
        // A view that copies adjacency into RAM loads the candidates in one
        // ascending sweep before the boundary test reads them.
        graph.prefetch(candidates);
        // Filtering the sorted candidates against the live view keeps the
        // ascending order of the full scan and revalidates every membership.
        candidates
            .iter()
            .copied()
            .filter(|&v| on_pair_boundary(graph, view, v, a, b))
            .collect()
    }

    fn observe_moves(&mut self, moves: &[(NodeId, BlockId)]) {
        if moves.is_empty() {
            return;
        }
        self.moved = true;
        self.ensure_candidates();
        let candidates = self.candidates.as_mut().expect("just initialised");
        let mut extra: Vec<NodeId> = Vec::with_capacity(moves.len());
        for &(v, _) in moves {
            extra.push(v);
            self.graph.for_each_edge(v, |u, _| extra.push(u));
        }
        extra.sort_unstable();
        extra.dedup();
        // Sorted-merge the new candidates in, keeping the list deduplicated.
        let mut merged = Vec::with_capacity(candidates.len() + extra.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < candidates.len() || j < extra.len() {
            let next = match (candidates.get(i), extra.get(j)) {
                (Some(&c), Some(&e)) if c < e => {
                    i += 1;
                    c
                }
                (Some(&c), Some(&e)) if c > e => {
                    j += 1;
                    e
                }
                (Some(&c), Some(_)) => {
                    i += 1;
                    j += 1;
                    c
                }
                (Some(&c), None) => {
                    i += 1;
                    c
                }
                (None, Some(&e)) => {
                    j += 1;
                    e
                }
                (None, None) => break,
            };
            merged.push(next);
        }
        *candidates = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_graph::{CsrGraph, Partition};

    fn half_split(side: usize) -> (CsrGraph, Partition) {
        let g = grid2d(side, side);
        let assignment = (0..side * side)
            .map(|i| if i % side < side / 2 { 0 } else { 1 })
            .collect();
        (g, Partition::from_assignment(2, assignment))
    }

    #[test]
    fn band_size_grows_with_depth() {
        let (g, p) = half_split(10);
        let d1 = pair_band(&g, &p, 0, 1, 1).len();
        let d3 = pair_band(&g, &p, 0, 1, 3).len();
        let all = pair_band(&g, &p, 0, 1, 100).len();
        assert!(d1 < d3);
        assert!(d3 < all);
        assert_eq!(all, 100);
        // Depth 1: the two boundary columns plus one column on each side.
        assert_eq!(d1, 40);
    }

    #[test]
    fn empty_band_for_non_adjacent_blocks() {
        let g = grid2d(6, 6);
        // Three vertical stripes: blocks 0 and 2 never touch.
        let assignment = (0..36).map(|i| ((i % 6) / 2) as u32).collect();
        let p = Partition::from_assignment(3, assignment);
        assert!(pair_band(&g, &p, 0, 2, 5).is_empty());
        assert!(!pair_band(&g, &p, 0, 1, 5).is_empty());
    }

    #[test]
    fn band_through_a_delta_view_matches_band_on_an_equal_partition() {
        use crate::delta::{DeltaPairView, SharedAssignment};
        use kappa_graph::BlockAssignmentMut;

        let (g, p) = half_split(12);
        let shared = SharedAssignment::from_partition(&p);
        let mut view = DeltaPairView::new(&shared);
        // Shift a few nodes across the cut, mirroring the moves on a plain
        // partition; the bands must agree at every depth.
        let mut moved = p.clone();
        for v in [5u32, 17, 29, 41, 6, 18] {
            let side = moved.block_of(v);
            view.assign(v, 1 - side);
            moved.assign(v, 1 - side);
        }
        for depth in [0usize, 1, 3, 100] {
            assert_eq!(
                pair_band(&g, &view, 0, 1, depth),
                pair_band(&g, &moved, 0, 1, depth),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn band_contains_only_pair_nodes() {
        let g = grid2d(8, 8);
        let assignment = (0..64)
            .map(|i| {
                let (x, y) = (i % 8, i / 8);
                ((y / 4) * 2 + x / 4) as u32
            })
            .collect();
        let p = Partition::from_assignment(4, assignment);
        let band = pair_band(&g, &p, 0, 1, 2);
        assert!(!band.is_empty());
        assert!(band
            .iter()
            .all(|&v| p.block_of(v) == 0 || p.block_of(v) == 1));
    }
}
