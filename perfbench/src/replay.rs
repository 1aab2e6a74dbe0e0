//! Traced replicas of the production drivers.
//!
//! Each replica calls the same public functions, with the same arguments and
//! seeds, in the same order as its driver — `coordinate_prepartition` →
//! `parallel_matching` / `compute_matching` inside `build_with` →
//! `best_of_repeats` → `PartitionState::build` → `refine_partition` /
//! `project_state_one_level` per level — and wraps every call in a span.
//! The run fails if a replica's assignment differs from its driver's, so a
//! driver change that the replica does not follow cannot go unnoticed.

use std::io;

use kappa_coarsen::{
    CoarseningConfig, MatcherKind, MultilevelHierarchy, SpillConfig, TieredHierarchy,
};
use kappa_core::{coordinate_prepartition, KappaConfig, PartitionMetrics};
use kappa_graph::{CsrGraph, GraphAccess, Partition, PartitionState};
use kappa_initial::{best_of_repeats, InitialAlgorithm, InitialPartitionConfig};
use kappa_matching::{compute_matching, parallel_matching, Matching, ParallelMatchingConfig};
use kappa_mem::{CacheStats, TierGraph};
use kappa_refine::{refine_partition, RefinementConfig, RefinementStats};

use crate::trace::{now, Tracer};

/// Deterministic work counters of one replayed call.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Σ over levels of 2·|M| (nodes the matchings paired).
    pub matched_nodes: u64,
    /// Σ over levels of the level's node count (nodes offered to matching).
    pub offered_nodes: u64,
    /// Hierarchy levels, finest included.
    pub levels: usize,
    /// Node count of the coarsest graph.
    pub coarsest_nodes: usize,
    /// Refinement statistics summed over levels.
    pub refine: RefinementStats,
    /// Full boundary-index builds of the persistent state.
    pub full_builds: usize,
    /// Page-cache lookups while the hierarchy was built (paged tier only).
    pub cache_coarsen: CacheStats,
    /// Page-cache lookups during uncoarsening (paged tier only).
    pub cache_refine: CacheStats,
}

impl Counters {
    fn note_matching(&mut self, level_nodes: usize, matching: &Matching) {
        self.matched_nodes += 2 * matching.cardinality() as u64;
        self.offered_nodes += level_nodes as u64;
    }

    fn note_refinement(&mut self, delta: &RefinementStats) {
        let total = &mut self.refine;
        total.total_gain += delta.total_gain;
        total.global_iterations += delta.global_iterations;
        total.pair_searches += delta.pair_searches;
        total.nodes_moved += delta.nodes_moved;
        total.quotient_full_scans += delta.quotient_full_scans;
    }
}

/// A replayed call: the partition, the cut the replica reports the way the
/// driver does, and the counters.
pub struct Replay {
    /// The partition of the input graph.
    pub partition: Partition,
    /// `PartitionMetrics::edge_cut`, as the driver reports it.
    pub reported_cut: u64,
    /// Work counters.
    pub counters: Counters,
}

fn refinement_config(config: &KappaConfig) -> RefinementConfig {
    RefinementConfig {
        epsilon: config.epsilon,
        bfs_depth: config.bfs_depth,
        max_global_iterations: config.max_global_iterations,
        local_iterations: config.local_iterations,
        stop_after_no_change: config.stop_after_no_change,
        queue_selection: config.queue_selection,
        patience_alpha: config.fm_patience,
        seed: config.seed.wrapping_add(0x5EF1),
    }
}

fn initial_config(config: &KappaConfig, repeats: usize) -> InitialPartitionConfig {
    InitialPartitionConfig {
        k: config.k.max(1),
        epsilon: config.epsilon,
        algorithm: InitialAlgorithm::GreedyGrowing,
        repeats,
        seed: config.seed.wrapping_add(0xC0A2),
    }
}

fn coarsening_config(config: &KappaConfig, n: usize, matcher: MatcherKind) -> CoarseningConfig {
    CoarseningConfig {
        rating: config.rating,
        matcher,
        stop_at_nodes: config
            .contraction_stop_nodes(n)
            .max(2 * config.k.max(1) as usize),
        min_shrink_factor: 0.02,
        max_levels: 64,
        seed: config.seed,
    }
}

/// The uncoarsening both drivers share: build the persistent state at the
/// coarsest level, refine it, then project and refine level by level.
fn uncoarsen<'h, G: GraphAccess + Sync + 'h>(
    levels: usize,
    graph_at: impl Fn(usize) -> &'h G,
    project: impl Fn(usize, &PartitionState) -> PartitionState,
    current: Partition,
    config: &KappaConfig,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> PartitionState {
    let refinement = refinement_config(config);
    let coarsest_level = levels - 1;
    let coarsest = graph_at(coarsest_level);
    let mut state = tracer.span("state.build", Some(coarsest_level), || {
        PartitionState::build(coarsest, current)
    });
    let stats = tracer.span("refine", Some(coarsest_level), || {
        refine_partition(coarsest, &mut state, &refinement)
    });
    counters.note_refinement(&stats);
    for level in (1..levels).rev() {
        state = tracer.span("project", Some(level - 1), || project(level, &state));
        let fine_graph = graph_at(level - 1);
        let stats = tracer.span("refine", Some(level - 1), || {
            refine_partition(fine_graph, &mut state, &refinement)
        });
        counters.note_refinement(&stats);
    }
    counters.full_builds = state.full_builds();
    state
}

/// Replays `KappaPartitioner::partition` (the classic in-RAM driver) with
/// a span around every layer call. The root span is named `partition`.
///
/// # Panics
/// Panics unless `config.num_threads` is pinned (> 0), as every workload
/// pins it.
pub fn classic(graph: &CsrGraph, config: &KappaConfig, tracer: &mut Tracer) -> Replay {
    assert!(config.num_threads > 0, "the thread count must be pinned");
    let root = tracer.enter("partition", None);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.num_threads)
        .build()
        .expect("failed to build thread pool");
    let replay = pool.install(|| classic_inner(graph, config, tracer));
    tracer.exit(root);
    replay
}

fn classic_inner(graph: &CsrGraph, config: &KappaConfig, tracer: &mut Tracer) -> Replay {
    let start = now();
    let n = graph.num_nodes();
    let mut counters = Counters::default();

    let num_parts = config.num_threads;
    let coarsen_config = coarsening_config(
        config,
        n,
        MatcherKind::Parallel {
            local: config.matching,
            num_parts,
        },
    );
    // The driver's coarsening phase includes its copy of the input.
    let coarsen = tracer.enter("coarsen", None);
    let mut level = 0;
    let hierarchy =
        MultilevelHierarchy::build_with(graph.clone(), &coarsen_config, |level_graph, seed| {
            let span = tracer.enter("prepartition", Some(level));
            let prepart = coordinate_prepartition(level_graph, num_parts);
            tracer.exit(span);
            let pconfig = ParallelMatchingConfig {
                num_parts,
                local_algorithm: config.matching,
                rating: config.rating,
                seed,
            };
            let span = tracer.enter("matching", Some(level));
            let matching = parallel_matching(level_graph, Some(&prepart), &pconfig);
            tracer.exit(span);
            counters.note_matching(level_graph.num_nodes(), &matching);
            level += 1;
            matching
        });
    tracer.exit(coarsen);
    counters.levels = hierarchy.num_levels();
    counters.coarsest_nodes = hierarchy.coarsest().num_nodes();

    let initial = initial_config(config, config.initial_repeats.max(1) * num_parts);
    let current = tracer.span("initial", None, || {
        best_of_repeats(hierarchy.coarsest(), &initial)
    });

    let state = uncoarsen(
        hierarchy.num_levels(),
        |level| hierarchy.graph_at(level),
        |level, state| hierarchy.project_state_one_level(level, state),
        current,
        config,
        tracer,
        &mut counters,
    );
    let partition = state.into_partition();
    let metrics = PartitionMetrics::measure(graph, &partition, config.epsilon, start.elapsed());
    Replay {
        partition,
        reported_cut: metrics.edge_cut,
        counters,
    }
}

/// Page-cache counters summed over every paged level of the hierarchy.
fn cache_totals(hierarchy: &TieredHierarchy) -> CacheStats {
    let mut total = CacheStats::default();
    for level in 0..hierarchy.num_levels() {
        if let Some(g) = hierarchy.graph_at(level).as_paged() {
            let s = g.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
        }
    }
    total
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

/// Replays `partition_tiered` (the memory-tiered driver) with a span around
/// every layer call, and reads the page cache around each phase. The
/// caller pins the thread pool, as it does for the driver.
pub fn tiered(
    finest: TierGraph,
    config: &KappaConfig,
    spill: &SpillConfig,
    tracer: &mut Tracer,
) -> io::Result<Replay> {
    let root = tracer.enter("partition", None);
    let replay = tiered_inner(finest, config, spill, tracer);
    tracer.exit(root);
    replay
}

fn tiered_inner(
    finest: TierGraph,
    config: &KappaConfig,
    spill: &SpillConfig,
    tracer: &mut Tracer,
) -> io::Result<Replay> {
    let start = now();
    let n = finest.num_nodes();
    let mut counters = Counters::default();
    let coarsen_config = coarsening_config(config, n, MatcherKind::Sequential(config.matching));
    let before = finest
        .as_paged()
        .map(|g| g.cache_stats())
        .unwrap_or_default();
    let coarsen = tracer.enter("coarsen", None);
    let mut level = 0;
    let hierarchy =
        TieredHierarchy::build_with(finest, &coarsen_config, spill, |level_graph, seed| {
            let span = tracer.enter("matching", Some(level));
            let matching = compute_matching(level_graph, config.matching, config.rating, seed);
            tracer.exit(span);
            counters.note_matching(level_graph.num_nodes(), &matching);
            level += 1;
            matching
        });
    tracer.exit(coarsen);
    let hierarchy = hierarchy?;
    let after_coarsen = cache_totals(&hierarchy);
    counters.cache_coarsen = cache_delta(after_coarsen, before);
    counters.levels = hierarchy.num_levels();
    counters.coarsest_nodes = hierarchy.coarsest().num_nodes();

    let initial = initial_config(config, config.initial_repeats.max(1));
    let current = tracer.span("initial", None, || {
        let coarsest_csr = hierarchy.coarsest().to_csr();
        best_of_repeats(&coarsest_csr, &initial)
    });

    let state = uncoarsen(
        hierarchy.num_levels(),
        |level| hierarchy.graph_at(level),
        |level, state| hierarchy.project_state_one_level(level, state),
        current,
        config,
        tracer,
        &mut counters,
    );
    counters.cache_refine = cache_delta(cache_totals(&hierarchy), after_coarsen);

    let partition = state.into_partition();
    let metrics = PartitionMetrics::measure(
        hierarchy.finest(),
        &partition,
        config.epsilon,
        start.elapsed(),
    );
    Ok(Replay {
        partition,
        reported_cut: metrics.edge_cut,
        counters,
    })
}
