//! Tiered coarsening: match-and-contract where every level lives on the
//! storage tier its size warrants (spill mode of the memory tier).
//!
//! The classic [`MultilevelHierarchy`](crate::MultilevelHierarchy) keeps all
//! levels as plain CSR in RAM. For table-5-class instances the finest one or
//! two levels dominate the footprint, so [`TieredHierarchy`] contracts
//! **level by level from whatever tier the fine graph occupies** and writes
//! each coarse graph either to disk ([`kappa_mem::PagedGraph`]) while it is still big,
//! or into compact RAM ([`kappa_mem::CompactCsr`]) once it shrinks below a threshold —
//! the full plain-CSR form of a fine level never exists. Both are the same
//! [`Hierarchy`] type; only the contraction step differs.
//!
//! [`contract_to_tier`] has [`contract_matching`](crate::contract_matching)'s semantics exactly
//! (same coarse-id assignment, same per-node merged adjacency, summed node
//! weights, averaged coordinates where kept), so for the same matching the
//! coarse graph decodes bit-identically on every tier — the workspace parity
//! suite runs whole partitions across tiers to prove it.

use std::io;
use std::path::{Path, PathBuf};

use kappa_graph::{EdgeWeight, GraphAccess, NodeId, NodeWeight, INVALID_NODE};
use kappa_matching::Matching;
use kappa_mem::paged::PagedWriter;
use kappa_mem::{CacheStats, CompactWriter, PageCacheConfig, PagedGraph, TierGraph};

use crate::hierarchy::{CoarseningConfig, Hierarchy};

/// Where a contraction result should be stored.
pub enum TierSpec<'a> {
    /// Delta-varint arena in RAM.
    Compact,
    /// Paged file at the given path.
    Paged {
        /// File to create (truncated if present).
        path: &'a Path,
        /// Page-cache geometry of the opened graph.
        cache: PageCacheConfig,
    },
}

/// The result of a tiered contraction.
pub struct TieredContraction {
    /// The coarse graph, on the requested tier.
    pub coarse: TierGraph,
    /// `coarse_of[v]` is the coarse node fine node `v` merged into.
    pub coarse_of: Vec<NodeId>,
}

/// Contracts `matching` in `fine`, emitting the coarse graph to `spec`.
///
/// Follows [`contract_matching`](crate::contract_matching) node for node:
/// matched pairs share the coarse id assigned at the smaller endpoint, each
/// coarse node's adjacency is the merged (sorted, parallel-edges-summed,
/// self-loops-dropped) union of its fine nodes' lists, node weights are
/// summed and coordinates averaged. The `Paged` tier drops coordinates by
/// contract; everything else is representation-independent.
pub fn contract_to_tier<G: GraphAccess>(
    fine: &G,
    matching: &Matching,
    spec: TierSpec<'_>,
) -> io::Result<TieredContraction> {
    let n = fine.num_nodes();
    debug_assert_eq!(matching.num_nodes(), n);

    // Phase 1: coarse-id assignment, identical to contract_matching.
    let mut coarse_of = vec![NodeId::MAX; n];
    let mut reps: Vec<(NodeId, NodeId)> = Vec::with_capacity(n);
    for v in fine.nodes() {
        if coarse_of[v as usize] != NodeId::MAX {
            continue;
        }
        let next_id = reps.len() as NodeId;
        match matching.partner_of(v) {
            Some(p) if p > v => {
                coarse_of[v as usize] = next_id;
                coarse_of[p as usize] = next_id;
                reps.push((v, p));
            }
            Some(_) => unreachable!("partner < v must already have been assigned"),
            None => {
                coarse_of[v as usize] = next_id;
                reps.push((v, INVALID_NODE));
            }
        }
    }
    let coarse_n = reps.len();
    let fine_coords = fine.coords();

    // Phase 2: stream coarse nodes in ascending id order into the sink.
    // Coarse graphs are generically weighted (merged parallel edges), so the
    // compact/paged encodings always store weights explicitly.
    enum Sink {
        Compact(CompactWriter),
        Paged(PagedWriter, PageCacheConfig),
    }
    let mut sink = match spec {
        TierSpec::Compact => Sink::Compact(CompactWriter::new(coarse_n, true)),
        TierSpec::Paged { path, cache } => {
            Sink::Paged(PagedWriter::create(path, coarse_n, true)?, cache)
        }
    };

    let mut vwgt: Vec<NodeWeight> = Vec::with_capacity(coarse_n);
    let keep_coords = fine_coords.is_some() && !matches!(sink, Sink::Paged(..));
    let mut coords: Option<Vec<[f64; 2]>> = keep_coords.then(|| Vec::with_capacity(coarse_n));
    let mut scratch: Vec<(NodeId, EdgeWeight)> = Vec::new();
    let mut merged: Vec<(NodeId, EdgeWeight)> = Vec::new();
    for &(u, p) in &reps {
        let c = coarse_of[u as usize];
        scratch.clear();
        fine.for_each_edge(u, |v, w| {
            let cv = coarse_of[v as usize];
            if cv != c {
                scratch.push((cv, w));
            }
        });
        if p != INVALID_NODE {
            fine.for_each_edge(p, |v, w| {
                let cv = coarse_of[v as usize];
                if cv != c {
                    scratch.push((cv, w));
                }
            });
        }
        scratch.sort_unstable_by_key(|&(t, _)| t);
        merged.clear();
        for &(t, w) in scratch.iter() {
            match merged.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => merged.push((t, w)),
            }
        }
        match &mut sink {
            Sink::Compact(w) => w.push_node(&merged),
            Sink::Paged(w, _) => w.push_node(&merged)?,
        }
        let mut weight = fine.node_weight(u);
        if p != INVALID_NODE {
            weight += fine.node_weight(p);
        }
        vwgt.push(weight);
        if let (Some(out), Some(all)) = (&mut coords, fine_coords) {
            let cu = all[u as usize];
            let (sum, count) = if p != INVALID_NODE {
                let cp = all[p as usize];
                ([cu[0] + cp[0], cu[1] + cp[1]], 2.0)
            } else {
                (cu, 1.0)
            };
            out.push([sum[0] / count, sum[1] / count]);
        }
    }

    let coarse = match sink {
        Sink::Compact(w) => TierGraph::Compact(w.finish(Some(vwgt), coords)),
        Sink::Paged(w, cache) => TierGraph::Paged(w.finish(Some(vwgt), cache)?),
    };
    Ok(TieredContraction { coarse, coarse_of })
}

/// Spill policy: where each coarse level goes.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory for spill files (one `level-<i>.kpg` per paged level);
    /// created if missing, files are deleted when the hierarchy drops.
    pub spill_dir: PathBuf,
    /// A coarse level is paged while its *fine* graph still has more than
    /// this many half-edges (the coarse size is bounded by the fine size);
    /// below it the level is built as in-RAM [`kappa_mem::CompactCsr`].
    pub spill_above_half_edges: usize,
    /// Page-cache geometry for every paged level.
    pub cache: PageCacheConfig,
}

impl SpillConfig {
    /// Spill policy writing to `spill_dir` with default thresholds
    /// (levels above 2²³ half-edges stay on disk, 64 MiB cache each).
    pub fn new(spill_dir: PathBuf) -> Self {
        SpillConfig {
            spill_dir,
            spill_above_half_edges: 1 << 23,
            cache: PageCacheConfig::default(),
        }
    }
}

/// A multilevel hierarchy whose levels live on mixed storage tiers: coarse
/// levels are paged or compact per a [`SpillConfig`].
pub type TieredHierarchy = Hierarchy<TierGraph>;

impl TieredHierarchy {
    /// Builds the hierarchy with a caller-supplied matcher (called once per
    /// level with the current graph and a per-level seed), spilling each
    /// coarse level per `spill`.
    pub fn build_with<F>(
        finest: TierGraph,
        config: &CoarseningConfig,
        spill: &SpillConfig,
        matcher: F,
    ) -> io::Result<Self>
    where
        F: FnMut(&TierGraph, u64) -> Matching,
    {
        std::fs::create_dir_all(&spill.spill_dir)?;
        Self::build_by(finest, config, matcher, |fine, matching, level| {
            let spill_path = spill.spill_dir.join(format!("level-{level}.kpg"));
            let spec = if fine.num_half_edges() > spill.spill_above_half_edges {
                TierSpec::Paged {
                    path: &spill_path,
                    cache: spill.cache,
                }
            } else {
                TierSpec::Compact
            };
            let TieredContraction {
                mut coarse,
                coarse_of,
            } = contract_to_tier(fine, matching, spec)?;
            if let TierGraph::Paged(g) = &mut coarse {
                g.set_delete_on_drop(true);
            }
            Ok((coarse, coarse_of))
        })
    }

    /// Storage tier of every level, finest first — for logs and tests.
    pub fn tier_names(&self) -> Vec<&'static str> {
        (0..self.num_levels())
            .map(|l| self.graph_at(l).tier_name())
            .collect()
    }

    /// Page-cache hits and misses summed over the paged levels, each
    /// counted since the level was opened.
    pub fn cache_stats(&self) -> CacheStats {
        (0..self.num_levels())
            .filter_map(|l| self.graph_at(l).as_paged())
            .map(PagedGraph::cache_stats)
            .fold(CacheStats::default(), |sum, s| CacheStats {
                hits: sum.hits + s.hits,
                misses: sum.misses + s.misses,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::contract_matching;
    use kappa_matching::{compute_matching, EdgeRating, MatchingAlgorithm};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kappa-tiered-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn tiered_contraction_matches_classic_on_every_tier() {
        let g = kappa_gen::rgg::random_geometric_graph(2000, 17);
        let m = compute_matching(&g, MatchingAlgorithm::Gpa, EdgeRating::ExpansionStar2, 5);
        let classic = contract_matching(&g, &m);

        let compact = contract_to_tier(&g, &m, TierSpec::Compact).unwrap();
        assert_eq!(compact.coarse_of, classic.coarse_of);
        // Compact keeps coordinates; decoding must reproduce the classic
        // coarse graph including the averaged floats.
        assert_eq!(compact.coarse.to_csr(), classic.coarse_graph);

        let dir = tmpdir("contract");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coarse.kpg");
        let paged = contract_to_tier(
            &g,
            &m,
            TierSpec::Paged {
                path: &path,
                cache: PageCacheConfig::default(),
            },
        )
        .unwrap();
        assert_eq!(paged.coarse_of, classic.coarse_of);
        // Paged drops coordinates; everything else must decode identically.
        let mut want = classic.coarse_graph.clone();
        want.set_coords(None);
        assert_eq!(paged.coarse.to_csr(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiered_hierarchy_mirrors_classic_levels() {
        let g = kappa_gen::grid::grid2d(40, 40);
        let config = CoarseningConfig {
            stop_at_nodes: 50,
            ..Default::default()
        };
        let classic = crate::MultilevelHierarchy::build_with(g.clone(), &config, |gr, seed| {
            compute_matching(gr, MatchingAlgorithm::Gpa, config.rating, seed)
        });
        let dir = tmpdir("hier");
        std::fs::create_dir_all(&dir).unwrap();
        let spill = SpillConfig {
            spill_dir: dir,
            // Force the first levels onto disk.
            spill_above_half_edges: 2000,
            cache: PageCacheConfig {
                page_size: 4096,
                cache_pages: 16,
            },
        };
        let tiered = TieredHierarchy::build_with(
            TierGraph::Paged(
                kappa_mem::PagedGraph::from_graph(
                    &g,
                    &spill.spill_dir.join("finest.kpg"),
                    spill.cache,
                )
                .unwrap(),
            ),
            &config,
            &spill,
            |gr, seed| compute_matching(gr, MatchingAlgorithm::Gpa, config.rating, seed),
        )
        .unwrap();

        assert_eq!(tiered.num_levels(), classic.num_levels());
        assert!(tiered.node_weight_invariant_holds());
        let tiers = tiered.tier_names();
        assert_eq!(tiers[0], "paged");
        assert!(
            tiers.contains(&"compact"),
            "coarse levels should leave disk: {tiers:?}"
        );
        for l in 0..tiered.num_levels() {
            let a = tiered.graph_at(l).to_csr();
            let b = classic.graph_at(l);
            // The paged finest dropped coordinates, so compare structure.
            assert_eq!(a.num_nodes(), b.num_nodes(), "level {l}");
            assert_eq!(a.num_half_edges(), b.num_half_edges(), "level {l}");
            let mut want = b.clone();
            want.set_coords(None);
            let mut got = a;
            got.set_coords(None);
            assert_eq!(got, want, "level {l}");
        }
        drop(tiered);
        // Spill files are delete-on-drop; the directory empties out.
        let leftovers: Vec<_> = std::fs::read_dir(&spill.spill_dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name();
                (name != "finest.kpg").then_some(name)
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "spill files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&spill.spill_dir).unwrap();
    }
}
