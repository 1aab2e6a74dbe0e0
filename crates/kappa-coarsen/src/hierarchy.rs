//! The multilevel hierarchy: repeated match-and-contract until the graph is
//! "small enough" (§3, §4 of the paper).
//!
//! The paper stops contraction when the number of remaining nodes drops below
//! `max(20, n / (α·k²))` per PE; the caller computes that bound and passes it
//! as [`CoarseningConfig::stop_at_nodes`]. Coarsening also stops when a level
//! fails to shrink the graph appreciably (e.g. on star-like graphs where
//! matchings are tiny), which mirrors the usual multilevel safeguard.

use std::convert::Infallible;

use kappa_graph::{CsrGraph, GraphAccess, NodeId, Partition, PartitionState};
use kappa_matching::{
    compute_matching, parallel_matching, EdgeRating, Matching, MatchingAlgorithm,
    ParallelMatchingConfig,
};

use crate::contract::{contract_matching, Contraction};

/// Which matcher drives the coarsening.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatcherKind {
    /// A sequential matcher run on the whole level.
    Sequential(MatchingAlgorithm),
    /// The parallel local+gap matcher of §3.3 with the given number of parts.
    Parallel {
        /// Sequential algorithm used inside every part.
        local: MatchingAlgorithm,
        /// Number of parts (PEs).
        num_parts: usize,
    },
}

/// Configuration of the coarsening phase.
#[derive(Clone, Copy, Debug)]
pub struct CoarseningConfig {
    /// Edge rating used to prioritise contractions.
    pub rating: EdgeRating,
    /// Matching algorithm.
    pub matcher: MatcherKind,
    /// Stop once the coarsest graph has at most this many nodes.
    pub stop_at_nodes: usize,
    /// Stop if a level shrinks the node count by less than this factor
    /// (e.g. 0.05 = must lose at least 5 % of nodes to continue).
    pub min_shrink_factor: f64,
    /// Hard cap on the number of levels (safety against pathological inputs).
    pub max_levels: usize,
    /// Seed for the randomised matchers (varied per level).
    pub seed: u64,
}

impl Default for CoarseningConfig {
    fn default() -> Self {
        CoarseningConfig {
            rating: EdgeRating::ExpansionStar2,
            matcher: MatcherKind::Sequential(MatchingAlgorithm::Gpa),
            stop_at_nodes: 64,
            min_shrink_factor: 0.02,
            max_levels: 64,
            seed: 0,
        }
    }
}

/// The matcher seed of hierarchy level `level` (0 = the finest graph's
/// matching) for a run seeded with `seed`. Every driver derives its
/// per-level seeds here, which is what keeps their hierarchies identical.
pub fn level_seed(seed: u64, level: usize) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(level as u64)
}

/// One level of the hierarchy below the finest graph.
#[derive(Clone, Debug)]
struct Level<G> {
    /// The coarse graph of this level.
    graph: G,
    /// Mapping from the *previous* (finer) level's nodes to this level's nodes.
    coarse_of: Vec<NodeId>,
}

/// The full multilevel hierarchy: the finest (input) graph plus every coarser
/// level produced by match-and-contract, each stored as a `G`.
///
/// The build loop (stop rules, per-level seed, shrink guard), the level
/// accessors and the uncoarsening loop are written once for every storage;
/// only contraction differs. [`MultilevelHierarchy`] keeps every level as
/// plain CSR and contracts in parallel with [`contract_matching`];
/// [`TieredHierarchy`](crate::TieredHierarchy) writes every coarse level to
/// a compact or paged tier with [`contract_to_tier`](crate::contract_to_tier).
#[derive(Clone, Debug)]
pub struct Hierarchy<G> {
    finest: G,
    levels: Vec<Level<G>>,
}

/// The classic hierarchy: every level is plain CSR in RAM.
pub type MultilevelHierarchy = Hierarchy<CsrGraph>;

impl MultilevelHierarchy {
    /// Builds the hierarchy by repeated matching and contraction, using the
    /// matcher configured in `config`.
    pub fn build(finest: CsrGraph, config: &CoarseningConfig) -> Self {
        let matcher_config = *config;
        Self::build_with(finest, config, move |graph, seed| {
            match matcher_config.matcher {
                MatcherKind::Sequential(alg) => {
                    compute_matching(graph, alg, matcher_config.rating, seed)
                }
                MatcherKind::Parallel { local, num_parts } => {
                    let pconfig = ParallelMatchingConfig {
                        num_parts,
                        local_algorithm: local,
                        rating: matcher_config.rating,
                        seed,
                    };
                    parallel_matching(graph, None, &pconfig)
                }
            }
        })
    }

    /// Builds the hierarchy with a caller-supplied matcher, called once per
    /// level with the current graph and a per-level seed. This is how the core
    /// partitioner plugs in the geometric pre-partitioning of §3.3 without this
    /// crate needing to know about coordinates.
    pub fn build_with<F>(finest: CsrGraph, config: &CoarseningConfig, matcher: F) -> Self
    where
        F: FnMut(&CsrGraph, u64) -> Matching,
    {
        let Ok(hierarchy) = Self::build_by(finest, config, matcher, |fine, matching, _| {
            let Contraction {
                coarse_graph,
                coarse_of,
            } = contract_matching(fine, matching);
            Ok::<_, Infallible>((coarse_graph, coarse_of))
        });
        hierarchy
    }
}

impl<G: GraphAccess> Hierarchy<G> {
    /// The build loop of every storage: match the current level with
    /// `matcher`, stop once it is small enough or a matching stalls, and
    /// otherwise `contract` it into the next level. `contract` receives the
    /// fine graph, its matching and the index of the level it creates.
    pub(crate) fn build_by<M, C, E>(
        finest: G,
        config: &CoarseningConfig,
        mut matcher: M,
        mut contract: C,
    ) -> Result<Self, E>
    where
        M: FnMut(&G, u64) -> Matching,
        C: FnMut(&G, &Matching, usize) -> Result<(G, Vec<NodeId>), E>,
    {
        let mut levels: Vec<Level<G>> = Vec::new();
        for level_idx in 0..config.max_levels {
            // Borrow the current (finest or last coarse) graph in place — no
            // per-level clone of the whole graph.
            let current = levels.last().map(|l| &l.graph).unwrap_or(&finest);
            if current.num_nodes() <= config.stop_at_nodes {
                break;
            }
            let matching = matcher(current, level_seed(config.seed, level_idx));
            let shrink = matching.cardinality() as f64 / current.num_nodes().max(1) as f64;
            if matching.cardinality() == 0 || shrink < config.min_shrink_factor {
                break;
            }
            let (graph, coarse_of) = contract(current, &matching, level_idx + 1)?;
            levels.push(Level { graph, coarse_of });
        }
        Ok(Hierarchy { finest, levels })
    }

    /// The input (finest) graph.
    pub fn finest(&self) -> &G {
        &self.finest
    }

    /// The coarsest graph of the hierarchy (the finest graph if no contraction
    /// happened).
    pub fn coarsest(&self) -> &G {
        self.levels.last().map(|l| &l.graph).unwrap_or(&self.finest)
    }

    /// Number of graphs in the hierarchy (finest included).
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// The graph at `level` (0 = finest, `num_levels() - 1` = coarsest).
    pub fn graph_at(&self, level: usize) -> &G {
        if level == 0 {
            &self.finest
        } else {
            &self.levels[level - 1].graph
        }
    }

    /// Projects a partition of the graph at `level` one step down, onto the
    /// graph at `level - 1`.
    ///
    /// # Panics
    /// Panics if `level == 0`.
    pub fn project_one_level(&self, level: usize, partition: &Partition) -> Partition {
        assert!(level > 0, "cannot project below the finest level");
        let coarse_of = &self.levels[level - 1].coarse_of;
        partition.project(coarse_of)
    }

    /// Projects a full [`PartitionState`] one level down, onto the graph at
    /// `level - 1`. Block weights and the cached cut carry over unchanged
    /// (contraction preserves both); the fine boundary index is **seeded**
    /// from the coarse one — only fine nodes whose coarse image is boundary
    /// are edge-scanned — so no level below the coarsest ever pays a full
    /// `O(n + m)` index build.
    ///
    /// # Panics
    /// Panics if `level == 0`.
    pub fn project_state_one_level(&self, level: usize, state: &PartitionState) -> PartitionState {
        assert!(level > 0, "cannot project below the finest level");
        let coarse_of = &self.levels[level - 1].coarse_of;
        state.project(self.graph_at(level - 1), coarse_of)
    }

    /// Uncoarsening (§5): builds the run's one [`PartitionState`] from
    /// `initial` on the coarsest graph — the only full `O(n + m)` derivation —
    /// and hands it to `refine`; then projects it one level down at a time
    /// and refines it again on every finer graph. Returns the state of the
    /// finest graph.
    pub fn uncoarsen<R>(&self, initial: Partition, mut refine: R) -> PartitionState
    where
        R: FnMut(&G, &mut PartitionState),
    {
        let mut state = PartitionState::build(self.coarsest(), initial);
        refine(self.coarsest(), &mut state);
        for level in (1..self.num_levels()).rev() {
            state = self.project_state_one_level(level, &state);
            refine(self.graph_at(level - 1), &mut state);
        }
        state
    }

    /// Projects a partition of the coarsest graph all the way down to the
    /// finest graph (without any refinement — useful for testing and as the
    /// baseline for "no refinement" ablations).
    pub fn project_to_finest(&self, partition: &Partition) -> Partition {
        let mut p = partition.clone();
        for level in (1..self.num_levels()).rev() {
            p = self.project_one_level(level, &p);
        }
        p
    }

    /// Total node weight is invariant across levels; expose it for assertions.
    pub fn node_weight_invariant_holds(&self) -> bool {
        let w = self.finest.total_node_weight();
        (0..self.num_levels()).all(|l| self.graph_at(l).total_node_weight() == w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rmat::rmat_graph;

    #[test]
    fn hierarchy_shrinks_to_target() {
        let g = grid2d(32, 32);
        let config = CoarseningConfig {
            stop_at_nodes: 40,
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g, &config);
        assert!(h.num_levels() > 3);
        assert!(h.coarsest().num_nodes() <= 80); // grids halve nicely
        assert!(h.node_weight_invariant_holds());
        // Monotone node counts.
        for l in 1..h.num_levels() {
            assert!(h.graph_at(l).num_nodes() < h.graph_at(l - 1).num_nodes());
        }
    }

    #[test]
    fn projection_preserves_cut_through_all_levels() {
        let g = grid2d(20, 20);
        let config = CoarseningConfig {
            stop_at_nodes: 30,
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g, &config);
        let coarsest = h.coarsest();
        let p = Partition::from_assignment(
            2,
            (0..coarsest.num_nodes()).map(|i| (i % 2) as u32).collect(),
        );
        let cut_coarse = p.edge_cut(coarsest);
        let fine = h.project_to_finest(&p);
        assert_eq!(fine.edge_cut(h.finest()), cut_coarse);
        assert!(fine.validate(h.finest()).is_ok());
    }

    #[test]
    fn state_projection_matches_a_full_rebuild_on_every_level() {
        let g = grid2d(20, 20);
        let config = CoarseningConfig {
            stop_at_nodes: 30,
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g, &config);
        let coarsest = h.coarsest();
        let p = Partition::from_assignment(
            3,
            (0..coarsest.num_nodes()).map(|i| (i % 3) as u32).collect(),
        );
        let mut state = PartitionState::build(coarsest, p.clone());
        let mut partition = p;
        for level in (1..h.num_levels()).rev() {
            state = h.project_state_one_level(level, &state);
            partition = h.project_one_level(level, &partition);
            let fine = h.graph_at(level - 1);
            assert_eq!(state.partition().assignment(), partition.assignment());
            // Seeded projection never performs another full build…
            assert_eq!(state.full_builds(), 1);
            // …yet every piece of derived state matches a fresh recompute.
            state.verify_exact(fine).unwrap();
        }
    }

    #[test]
    fn parallel_matcher_builds_equivalent_hierarchy() {
        let g = grid2d(24, 24);
        let config = CoarseningConfig {
            stop_at_nodes: 40,
            matcher: MatcherKind::Parallel {
                local: MatchingAlgorithm::Gpa,
                num_parts: 4,
            },
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g, &config);
        assert!(h.coarsest().num_nodes() < 200);
        assert!(h.node_weight_invariant_holds());
    }

    #[test]
    fn stops_when_matching_stalls() {
        // A star graph: only one edge can ever be matched per level, so the
        // shrink-factor guard must terminate coarsening early.
        let mut b = kappa_graph::GraphBuilder::new(101);
        for i in 1..=100u32 {
            b.add_edge(0, i, 1);
        }
        let g = b.build();
        let config = CoarseningConfig {
            stop_at_nodes: 5,
            min_shrink_factor: 0.05,
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g, &config);
        assert!(h.num_levels() < 10);
        assert!(h.coarsest().num_nodes() > 5);
    }

    #[test]
    fn small_graph_is_not_contracted() {
        let g = grid2d(4, 4);
        let config = CoarseningConfig {
            stop_at_nodes: 100,
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g.clone(), &config);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.coarsest().num_nodes(), g.num_nodes());
    }

    #[test]
    fn social_graph_coarsens_without_breaking_invariants() {
        let g = rmat_graph(9, 6, 4);
        let config = CoarseningConfig {
            stop_at_nodes: 64,
            ..Default::default()
        };
        let h = MultilevelHierarchy::build(g, &config);
        assert!(h.node_weight_invariant_holds());
        for l in 0..h.num_levels() {
            assert!(h.graph_at(l).validate().is_ok(), "level {l} invalid");
        }
    }
}
