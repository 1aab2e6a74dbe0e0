//! The memory-tiered pipeline: the full multilevel partitioner running on
//! compact or paged graph storage (`--memory-tier {ram,compact,paged}`).
//!
//! [`partition_tiered`] runs the same multilevel pipeline as
//! [`KappaPartitioner`](crate::KappaPartitioner) — same stop threshold,
//! per-level seeds, initial-partitioning seeds and refinement configuration
//! — with two deliberate differences:
//!
//! 1. **Sequential matching.** The parallel matcher of §3.3 needs the whole
//!    level's rated edge list and (optionally) coordinates; both clash with
//!    out-of-core storage. The tiered path always matches sequentially,
//!    which is *exactly* what the classic path does at `num_threads = 1`
//!    (the parallel matcher short-circuits to [`compute_matching`] for one
//!    part). Hence the acceptance invariant, asserted in `tests/mem.rs`:
//!    for the same seed and preset, a paged run is **bit-identical** to the
//!    classic in-RAM run at one thread.
//! 2. **Spilled hierarchy.** Fine levels live on disk, mid levels in compact
//!    RAM ([`TieredHierarchy`]); only the coarsest level is decoded to plain
//!    CSR, for the initial partitioner alone.
//!
//! Refinement itself is tier-agnostic: it is generic over
//! [`kappa_graph::GraphAccess`] and deterministic for every
//! thread count, so it runs unchanged on paged levels.

use std::io;
use std::path::PathBuf;

use kappa_coarsen::{MatcherKind, SpillConfig, TieredHierarchy};
use kappa_initial::best_of_repeats;
use kappa_matching::compute_matching;
use kappa_mem::{CacheStats, PagedGraph, TierGraph};

use crate::config::KappaConfig;
use crate::partitioner::{run_multilevel, PartitionResult};

/// The storage level a run keeps its graphs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryTier {
    /// Plain CSR in RAM — the classic pipeline.
    Ram,
    /// Delta-varint compact encoding in RAM (~half the footprint or better).
    Compact,
    /// Fine levels on disk behind a fixed-budget page cache.
    Paged,
}

impl MemoryTier {
    /// Name as spelled on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            MemoryTier::Ram => "ram",
            MemoryTier::Compact => "compact",
            MemoryTier::Paged => "paged",
        }
    }

    /// Parses a `--memory-tier` value.
    pub fn parse(s: &str) -> Option<MemoryTier> {
        match s {
            "ram" => Some(MemoryTier::Ram),
            "compact" => Some(MemoryTier::Compact),
            "paged" => Some(MemoryTier::Paged),
            _ => None,
        }
    }
}

/// A tiered run's outcome: the usual [`PartitionResult`] plus which storage
/// tier every hierarchy level ended up on (finest first) and how the paged
/// levels' page caches fared.
pub struct TieredPartitionResult {
    /// The partition, metrics and phase timings (same shape as a classic run).
    pub result: PartitionResult,
    /// Storage tier per hierarchy level, e.g. `["paged", "paged", "compact", …]`.
    pub level_tiers: Vec<&'static str>,
    /// Page-cache lookups on the paged levels while the hierarchy was built.
    /// Both counts are zero when no level is paged or the input was too
    /// degenerate to coarsen.
    pub cache_coarsening: CacheStats,
    /// Page-cache lookups on the paged levels from the end of coarsening to
    /// the end of the call: initial partitioning, refinement and the final
    /// cut measurement (one sweep of the finest level).
    pub cache_refinement: CacheStats,
}

/// Partitions `finest` into `config.k` blocks on its storage tier.
///
/// Seed-compatible with the classic path at one thread (see module docs).
/// `spill` controls where coarse levels go; pass
/// [`SpillConfig::new`]`(dir)` for the defaults. As for the classic path,
/// `config.num_threads > 0` runs the call in a pool of that many workers;
/// the thread count affects only the speed, never the result.
pub fn partition_tiered(
    finest: TierGraph,
    config: &KappaConfig,
    spill: &SpillConfig,
) -> io::Result<TieredPartitionResult> {
    let finest_tier = finest.tier_name();
    // The finest level may have served reads before this call.
    let before = finest
        .as_paged()
        .map(PagedGraph::cache_stats)
        .unwrap_or_default();
    let mut after_coarsening = before;
    let (result, hierarchy) = run_multilevel(
        finest,
        config,
        MatcherKind::Sequential(config.matching),
        |finest, coarsen_config| {
            let hierarchy =
                TieredHierarchy::build_with(finest, coarsen_config, spill, |level_graph, seed| {
                    compute_matching(level_graph, config.matching, config.rating, seed)
                })?;
            after_coarsening = hierarchy.cache_stats();
            Ok::<_, io::Error>(hierarchy)
        },
        // The coarsest level is small by construction.
        |coarsest: &TierGraph, initial_config| best_of_repeats(&coarsest.to_csr(), initial_config),
    )?;
    // Read before the hierarchy, and with it every spilled level, drops.
    let (level_tiers, at_end) = hierarchy.map_or_else(
        || (vec![finest_tier], after_coarsening),
        |h| (h.tier_names(), h.cache_stats()),
    );
    let delta = |to: CacheStats, from: CacheStats| CacheStats {
        hits: to.hits - from.hits,
        misses: to.misses - from.misses,
    };
    Ok(TieredPartitionResult {
        result,
        level_tiers,
        cache_coarsening: delta(after_coarsening, before),
        cache_refinement: delta(at_end, after_coarsening),
    })
}

/// A scratch directory for spill files, namespaced by process id so
/// concurrent runs do not collide: `<tmp>/kappa-spill-<pid>[-<tag>]`.
pub fn default_spill_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    if tag.is_empty() {
        dir.push(format!("kappa-spill-{}", std::process::id()));
    } else {
        dir.push(format!("kappa-spill-{}-{tag}", std::process::id()));
    }
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KappaPartitioner;
    use kappa_mem::{compact_from_source, paged_from_source, BuildOptions, PageCacheConfig};

    fn spill(tag: &str) -> SpillConfig {
        SpillConfig::new(default_spill_dir(tag))
    }

    #[test]
    fn tier_names_parse_and_print() {
        for t in [MemoryTier::Ram, MemoryTier::Compact, MemoryTier::Paged] {
            assert_eq!(MemoryTier::parse(t.name()), Some(t));
        }
        assert_eq!(MemoryTier::parse("mmap"), None);
    }

    #[test]
    fn compact_tier_is_bit_identical_to_classic_at_one_thread() {
        let g = kappa_gen::rgg::random_geometric_graph(3000, 21);
        let config = KappaConfig::fast(8).with_seed(5).with_threads(1);
        let classic = KappaPartitioner::new(config).partition(&g);
        let tiered = partition_tiered(
            TierGraph::Compact(kappa_mem::CompactCsr::from_graph(&g)),
            &config,
            &spill("compact-parity"),
        )
        .unwrap();
        assert_eq!(
            tiered.result.partition.assignment(),
            classic.partition.assignment()
        );
        assert_eq!(tiered.result.metrics.edge_cut, classic.metrics.edge_cut);
        assert_eq!(tiered.result.hierarchy_levels, classic.hierarchy_levels);
        assert_eq!(tiered.result.coarsest_nodes, classic.coarsest_nodes);
        assert_eq!(
            tiered.result.boundary_full_builds,
            classic.boundary_full_builds
        );
        assert_eq!(tiered.result.refinement, classic.refinement);
    }

    #[test]
    fn tiered_result_does_not_depend_on_the_thread_count() {
        let g = kappa_gen::rgg::random_geometric_graph(3000, 21);
        let run = |threads: usize| {
            let config = KappaConfig::fast(8).with_seed(5).with_threads(threads);
            let finest = TierGraph::Compact(kappa_mem::CompactCsr::from_graph(&g));
            partition_tiered(finest, &config, &spill(&format!("threads-{threads}")))
                .unwrap()
                .result
        };
        let (one, two) = (run(1), run(2));
        assert_eq!(one.partition.assignment(), two.partition.assignment());
        assert_eq!(one.refinement, two.refinement);
    }

    #[test]
    fn paged_tier_is_bit_identical_to_classic_at_one_thread() {
        let g = kappa_gen::rgg::random_geometric_graph(2500, 33);
        let config = KappaConfig::fast(4).with_seed(9).with_threads(1);
        let classic = KappaPartitioner::new(config).partition(&g);
        let mut sp = spill("paged-parity");
        // Force several levels to actually live on disk.
        sp.spill_above_half_edges = 1000;
        sp.cache = PageCacheConfig {
            page_size: 4096,
            cache_pages: 32,
        };
        std::fs::create_dir_all(&sp.spill_dir).unwrap();
        let edges: Vec<_> = g.undirected_edges().collect();
        let src = kappa_graph::SliceEdgeSource::new(g.num_nodes(), &edges);
        let paged = paged_from_source(
            &src,
            &sp.spill_dir.join("finest.kpg"),
            BuildOptions::default(),
            sp.cache,
        )
        .unwrap();
        let tiered = partition_tiered(TierGraph::Paged(paged), &config, &sp).unwrap();
        assert_eq!(
            tiered.result.partition.assignment(),
            classic.partition.assignment()
        );
        assert!(
            tiered.level_tiers.iter().filter(|t| **t == "paged").count() >= 2,
            "levels did not spill: {:?}",
            tiered.level_tiers
        );
        std::fs::remove_dir_all(&sp.spill_dir).unwrap();
    }

    /// A hard gate on a deterministic counter: at one thread the page-cache
    /// counts of a paged run repeat exactly, so refinement's misses can be
    /// held under a ceiling. When every pair search read the paged graph
    /// directly, this run missed 73 794 pages during refinement (220 583
    /// hits); reading each band once through the band memo, it misses
    /// 12 078 (140 140 hits). The ceiling is half the former count.
    #[test]
    fn paged_refinement_stays_under_its_page_miss_ceiling() {
        const CEILING: u64 = 73_794 / 2;
        let g = kappa_gen::rgg::random_geometric_graph(1 << 13, 7);
        let config = KappaConfig::fast(8).with_seed(3).with_threads(1);
        let mut sp = spill("miss-ceiling");
        sp.spill_above_half_edges = 1000;
        sp.cache = PageCacheConfig {
            page_size: 4096,
            cache_pages: 8,
        };
        std::fs::create_dir_all(&sp.spill_dir).unwrap();
        let mut paged =
            kappa_mem::PagedGraph::from_graph(&g, &sp.spill_dir.join("finest.kpg"), sp.cache)
                .unwrap();
        paged.set_delete_on_drop(true);
        let tiered = partition_tiered(TierGraph::Paged(paged), &config, &sp).unwrap();
        std::fs::remove_dir_all(&sp.spill_dir).unwrap();
        let (coarsening, refinement) = (tiered.cache_coarsening, tiered.cache_refinement);
        assert!(coarsening.misses > 0 && refinement.misses > 0);
        assert!(
            refinement.misses <= CEILING,
            "refinement missed {} pages, ceiling {CEILING}",
            refinement.misses
        );
    }

    #[test]
    fn degenerate_inputs_short_circuit() {
        let g = kappa_gen::grid::grid2d(4, 4);
        let edges: Vec<_> = g.undirected_edges().collect();
        let src = kappa_graph::SliceEdgeSource::new(g.num_nodes(), &edges);
        let compact = compact_from_source(&src, BuildOptions::default());
        let r = partition_tiered(
            TierGraph::Compact(compact),
            &KappaConfig::fast(1),
            &spill("degenerate"),
        )
        .unwrap();
        assert_eq!(r.result.metrics.edge_cut, 0);
        assert_eq!(r.level_tiers, vec!["compact"]);
    }
}
