//! The KaPPa multilevel pipeline: parallel coarsening → repeated initial
//! partitioning → parallel pairwise refinement during uncoarsening.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use kappa_coarsen::{CoarseningConfig, Hierarchy, MatcherKind, MultilevelHierarchy};
use kappa_graph::{CsrGraph, GraphAccess, Partition};
use kappa_initial::{best_of_repeats, InitialAlgorithm, InitialPartitionConfig};
use kappa_matching::{parallel_matching, ParallelMatchingConfig};
use kappa_refine::{refine_partition, RefinementStats};

use crate::config::KappaConfig;
use crate::metrics::PartitionMetrics;
use crate::prepartition::coordinate_prepartition;

/// Wall-clock time spent in each phase of the pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Contraction phase (matching + contraction over all levels).
    pub coarsening: Duration,
    /// Initial partitioning of the coarsest graph (all repeats).
    pub initial_partitioning: Duration,
    /// Refinement during uncoarsening (all levels).
    pub refinement: Duration,
}

impl PhaseTimings {
    /// Total time across the three phases.
    pub fn total(&self) -> Duration {
        self.coarsening + self.initial_partitioning + self.refinement
    }
}

/// The result of a KaPPa run.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The computed partition of the input graph.
    pub partition: Partition,
    /// Quality metrics (cut, balance, feasibility, runtime).
    pub metrics: PartitionMetrics,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Number of levels in the multilevel hierarchy (finest included).
    pub hierarchy_levels: usize,
    /// Number of nodes of the coarsest graph.
    pub coarsest_nodes: usize,
    /// Aggregated refinement statistics over all levels.
    pub refinement: RefinementStats,
    /// Number of full `O(n + m)` boundary-index builds the run performed.
    /// Exactly 1 for any non-degenerate run: the coarsest level's; every
    /// finer level seeds its index from the projected coarse boundary.
    pub boundary_full_builds: usize,
    /// Number of full `O(n + m)` quotient-graph scans the run performed.
    /// Exactly 0: every quotient is derived from the boundary index
    /// (`PartitionState::quotient`); only the retained reference scheduler
    /// still pays the full scan.
    pub quotient_full_scans: usize,
}

/// The KaPPa graph partitioner (paper §2–§5 end to end).
#[derive(Clone, Debug)]
pub struct KappaPartitioner {
    config: KappaConfig,
}

impl KappaPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: KappaConfig) -> Self {
        KappaPartitioner { config }
    }

    /// The configuration this partitioner runs with.
    pub fn config(&self) -> &KappaConfig {
        &self.config
    }

    /// Partitions `graph` into `config.k` blocks.
    ///
    /// If `config.num_threads > 0` the run executes inside a dedicated Rayon
    /// pool of that size (the shared-memory stand-in for "number of PEs");
    /// otherwise the ambient pool is used.
    pub fn partition(&self, graph: &CsrGraph) -> PartitionResult {
        let config = self.config;
        let num_parts = if config.num_threads > 0 {
            config.num_threads
        } else {
            rayon::current_num_threads()
        };
        let matcher = MatcherKind::Parallel {
            local: config.matching,
            num_parts,
        };
        let Ok((result, _)) = run_multilevel(
            graph,
            &config,
            matcher,
            |graph: &CsrGraph, coarsen_config| {
                let hierarchy = MultilevelHierarchy::build_with(
                    graph.clone(),
                    coarsen_config,
                    |level_graph, seed| {
                        // Geometric pre-partitioning (recursive coordinate
                        // bisection) when coordinates exist; index ranges
                        // otherwise (§3.3).
                        let prepart = coordinate_prepartition(level_graph, num_parts);
                        let pconfig = ParallelMatchingConfig {
                            num_parts,
                            local_algorithm: config.matching,
                            rating: config.rating,
                            seed,
                        };
                        parallel_matching(level_graph, Some(&prepart), &pconfig)
                    },
                );
                Ok::<_, Infallible>(hierarchy)
            },
            best_of_repeats,
        );
        result
    }
}

/// The multilevel pipeline of every shared-memory driver (§2–§5), inside a
/// pool of `config.num_threads` workers when that is set.
///
/// 1. `coarsen` builds the hierarchy over `finest` (whose storage decides
///    the level type `G`) with the matcher described by `matcher`.
/// 2. `initial` partitions the coarsest graph with
///    `initial_repeats × parts` repeats, where `parts` is the matcher's part
///    count (1 for a sequential matcher).
/// 3. The hierarchy's uncoarsening refines one persistent state level by
///    level.
///
/// Degenerate inputs (no nodes, or `k = 1`) are never coarsened; for them
/// the returned hierarchy is `None`.
pub(crate) fn run_multilevel<F, G, E>(
    finest: F,
    config: &KappaConfig,
    matcher: MatcherKind,
    coarsen: impl FnOnce(F, &CoarseningConfig) -> Result<Hierarchy<G>, E>,
    initial: impl FnOnce(&G, &InitialPartitionConfig) -> Partition,
) -> Result<(PartitionResult, Option<Hierarchy<G>>), E>
where
    F: Borrow<G>,
    G: GraphAccess + Sync,
{
    let run = || {
        // kappa-lint: allow(wall-clock) -- phase timing for PartitionMetrics; never feeds the partition.
        let start = Instant::now();
        let k = config.k.max(1);
        let n = finest.borrow().num_nodes();
        if n == 0 || k == 1 {
            let partition = Partition::trivial(k, n);
            let runtime = start.elapsed();
            let result = PartitionResult {
                metrics: PartitionMetrics::measure(
                    finest.borrow(),
                    &partition,
                    config.epsilon,
                    runtime,
                ),
                partition,
                timings: PhaseTimings::default(),
                hierarchy_levels: 1,
                coarsest_nodes: n,
                refinement: RefinementStats::default(),
                boundary_full_builds: 0,
                quotient_full_scans: 0,
            };
            return Ok((result, None));
        }

        // --- Phase 1: contraction. ---
        // kappa-lint: allow(wall-clock) -- phase timing for PhaseTimings; never feeds the partition.
        let coarsen_start = Instant::now();
        let parts = match matcher {
            MatcherKind::Parallel { num_parts, .. } => num_parts,
            MatcherKind::Sequential(_) => 1,
        };
        let coarsen_config = CoarseningConfig {
            rating: config.rating,
            matcher,
            stop_at_nodes: config.stop_at_nodes(n),
            min_shrink_factor: 0.02,
            max_levels: 64,
            seed: config.seed,
        };
        let hierarchy = coarsen(finest, &coarsen_config)?;
        let coarsening_time = coarsen_start.elapsed();

        // --- Phase 2: initial partitioning of the coarsest graph. ---
        // kappa-lint: allow(wall-clock) -- phase timing for PhaseTimings; never feeds the partition.
        let initial_start = Instant::now();
        let initial_config = InitialPartitionConfig {
            k,
            epsilon: config.epsilon,
            algorithm: InitialAlgorithm::GreedyGrowing,
            repeats: config.initial_repeats.max(1) * parts,
            seed: config.seed.wrapping_add(0xC0A2),
        };
        let current = initial(hierarchy.coarsest(), &initial_config);
        let initial_time = initial_start.elapsed();

        // --- Phase 3: uncoarsening with pairwise parallel refinement. ---
        // kappa-lint: allow(wall-clock) -- phase timing for PhaseTimings; never feeds the partition.
        let refine_start = Instant::now();
        let refinement_config = config.refinement_config();
        let mut refinement = RefinementStats::default();
        let state = hierarchy.uncoarsen(current, |graph, state| {
            refinement += refine_partition(graph, state, &refinement_config);
        });
        let refinement_time = refine_start.elapsed();

        let runtime = start.elapsed();
        let boundary_full_builds = state.full_builds();
        let partition = state.into_partition();
        let result = PartitionResult {
            metrics: PartitionMetrics::measure(
                hierarchy.finest(),
                &partition,
                config.epsilon,
                runtime,
            ),
            partition,
            timings: PhaseTimings {
                coarsening: coarsening_time,
                initial_partitioning: initial_time,
                refinement: refinement_time,
            },
            hierarchy_levels: hierarchy.num_levels(),
            coarsest_nodes: hierarchy.coarsest().num_nodes(),
            refinement,
            boundary_full_builds,
            quotient_full_scans: refinement.quotient_full_scans,
        };
        Ok((result, Some(hierarchy)))
    };
    if config.num_threads == 0 {
        return run();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(config.num_threads)
        .build()
        .expect("failed to build thread pool")
        .install(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigPreset;
    use kappa_gen::grid::grid2d;
    use kappa_gen::rgg::random_geometric_graph;
    use kappa_gen::rmat::rmat_graph;
    use kappa_gen::road::road_network_like;
    use kappa_graph::{Adjacency, EdgeWeight, NodeId, NodeWeight, PartitionState};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn partitions_a_grid_feasibly_and_well() {
        let g = grid2d(40, 40);
        let result = KappaPartitioner::new(KappaConfig::fast(4).with_seed(1)).partition(&g);
        assert!(result.partition.validate(&g).is_ok());
        assert!(
            result.metrics.feasible,
            "balance {}",
            result.metrics.balance
        );
        // A 4-way partition of a 40x40 grid should be in the vicinity of the
        // ideal two straight cuts (80); anything under 3x is clearly "working".
        assert!(
            result.metrics.edge_cut < 240,
            "cut {}",
            result.metrics.edge_cut
        );
        assert!(result.hierarchy_levels > 1);
        assert!(result.coarsest_nodes < g.num_nodes());
    }

    #[test]
    fn all_presets_are_feasible_and_ordered_in_effort() {
        let g = random_geometric_graph(4000, 5);
        let mut cuts = Vec::new();
        for preset in ConfigPreset::all() {
            let result =
                KappaPartitioner::new(KappaConfig::preset(preset, 8).with_seed(3)).partition(&g);
            assert!(result.metrics.feasible, "{:?} infeasible", preset);
            cuts.push((preset, result.metrics.edge_cut));
        }
        // Strong must not be worse than Minimal by more than a whisker.
        let minimal = cuts[0].1 as f64;
        let strong = cuts[2].1 as f64;
        assert!(
            strong <= minimal * 1.10,
            "strong {strong} much worse than minimal {minimal}"
        );
    }

    #[test]
    fn k_one_and_tiny_graphs() {
        let g = grid2d(3, 3);
        let r = KappaPartitioner::new(KappaConfig::fast(1)).partition(&g);
        assert_eq!(r.metrics.edge_cut, 0);
        let r = KappaPartitioner::new(KappaConfig::fast(4)).partition(&g);
        assert!(r.partition.validate(&g).is_ok());
        let empty = CsrGraph::empty();
        let r = KappaPartitioner::new(KappaConfig::fast(4)).partition(&empty);
        assert_eq!(r.partition.num_nodes(), 0);
    }

    #[test]
    fn works_without_coordinates() {
        let g = rmat_graph(10, 6, 2);
        let result = KappaPartitioner::new(KappaConfig::fast(8).with_seed(2)).partition(&g);
        assert!(result.partition.validate(&g).is_ok());
        assert!(
            result.metrics.feasible,
            "balance {}",
            result.metrics.balance
        );
    }

    #[test]
    fn works_on_road_networks() {
        let g = road_network_like(6000, 7);
        let result = KappaPartitioner::new(KappaConfig::fast(8).with_seed(4)).partition(&g);
        assert!(result.partition.validate(&g).is_ok());
        assert!(result.metrics.feasible);
        // Road networks have tiny separators; the cut should be far below the
        // edge count.
        assert!(result.metrics.edge_cut < g.num_edges() as u64 / 5);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let g = grid2d(24, 24);
        let config = KappaConfig::fast(4).with_seed(11).with_threads(2);
        let a = KappaPartitioner::new(config).partition(&g);
        let b = KappaPartitioner::new(config).partition(&g);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn explicit_thread_counts_give_valid_results() {
        let g = random_geometric_graph(3000, 9);
        for threads in [1usize, 2, 4] {
            let result =
                KappaPartitioner::new(KappaConfig::fast(8).with_seed(6).with_threads(threads))
                    .partition(&g);
            assert!(result.metrics.feasible, "threads {threads}");
            assert!(result.partition.validate(&g).is_ok());
        }
    }

    #[test]
    fn exactly_one_full_boundary_index_build_per_run() {
        // The acceptance criterion of the persistent-state refactor: the
        // coarsest level pays the one O(n + m) index build; every finer level
        // seeds from the projected coarse boundary.
        let g = random_geometric_graph(4000, 5);
        for preset in ConfigPreset::all() {
            let result =
                KappaPartitioner::new(KappaConfig::preset(preset, 8).with_seed(3)).partition(&g);
            assert!(result.hierarchy_levels > 1, "{preset:?} did not coarsen");
            assert_eq!(result.boundary_full_builds, 1, "{preset:?}");
        }
        // Degenerate runs never build an index at all.
        let r = KappaPartitioner::new(KappaConfig::fast(1)).partition(&g);
        assert_eq!(r.boundary_full_builds, 0);
    }

    /// A CSR graph that counts every adjacency entry read through it.
    struct CountingGraph<'g> {
        graph: &'g CsrGraph,
        entries: AtomicU64,
    }

    impl CountingGraph<'_> {
        fn count(&self) {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Adjacency for CountingGraph<'_> {
        fn degree_of(&self, v: NodeId) -> usize {
            self.graph.degree_of(v)
        }
        fn node_weight_of(&self, v: NodeId) -> NodeWeight {
            self.graph.node_weight_of(v)
        }
        fn for_each_edge<F: FnMut(NodeId, EdgeWeight)>(&self, v: NodeId, mut f: F) {
            self.graph.for_each_edge(v, |u, w| {
                self.count();
                f(u, w)
            })
        }
    }

    impl GraphAccess for CountingGraph<'_> {
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
            GraphAccess::edges_of(self.graph, v).inspect(|_| self.count())
        }
    }

    /// Work gate of the pairwise refinement: the adjacency entries one
    /// `refine_partition` call reads on R-MAT, where the quotient is complete
    /// and the pair boundary is most of each band. When the band BFS, FM's
    /// gain scan, FM's boundary re-scan and the seeder's first re-test each
    /// read the band, the call read 37 303 490 entries; the single band
    /// sweep reads 14 637 896. Restoring only FM's boundary re-scan reads
    /// 22 100 721, so the ceiling lies halfway between that and the sweep.
    #[test]
    fn refinement_stays_under_its_adjacency_read_ceiling() {
        const CEILING: u64 = (14_637_896 + 22_100_721) / 2;
        let g = rmat_graph(12, 8, 3);
        let config = KappaConfig::fast(16).with_seed(3).refinement_config();
        let start = kappa_initial::greedy_graph_growing(&g, 16, config.epsilon, 3);
        let mut state = PartitionState::build(&g, start);
        let counted = CountingGraph {
            graph: &g,
            entries: Default::default(),
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let stats = pool.install(|| refine_partition(&counted, &mut state, &config));
        assert!(stats.pair_searches > 0 && stats.nodes_moved > 0);
        let read = counted.entries.into_inner();
        assert!(
            read <= CEILING,
            "refinement read {read} adjacency entries, ceiling {CEILING}"
        );
    }

    #[test]
    fn phase_timings_add_up() {
        let g = grid2d(30, 30);
        let result = KappaPartitioner::new(KappaConfig::fast(4)).partition(&g);
        assert!(result.timings.total() <= result.metrics.runtime + Duration::from_millis(50));
        assert!(result.timings.coarsening > Duration::ZERO);
    }
}
