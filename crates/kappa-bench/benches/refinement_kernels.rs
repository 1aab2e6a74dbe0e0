//! Criterion benches for the refinement kernels of §5: the 2-way FM search at
//! different band depths and queue selection strategies, the quotient-graph
//! edge colouring, and one full refinement sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kappa_coarsen::contract_matching;
use kappa_core::KappaConfig;
use kappa_gen::{grid2d, random_geometric_graph, rmat_graph};
use kappa_graph::{
    pair_boundary_nodes, BlockWeights, BoundaryIndex, Partition, PartitionState, QuotientGraph,
};
use kappa_initial::greedy_graph_growing;
use kappa_matching::{gpa_matching, EdgeRating};
use kappa_refine::{
    color_quotient_edges, pair_band, refine_partition, refine_partition_reference, two_way_fm,
    two_way_fm_in, FmConfig, FmScratch, QueueSelection, RefinementConfig,
};

fn bench_two_way_fm_band_depth(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 13, 4);
    let partition = greedy_graph_growing(&graph, 2, 0.03, 1);
    let weights = BlockWeights::compute(&graph, &partition);
    let l_max = Partition::l_max(&graph, 2, 0.03);
    let mut group = c.benchmark_group("two_way_fm_band_depth_rgg13");
    for depth in [1usize, 5, 20] {
        let band = pair_band(&graph, &partition, 0, 1, depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &band, |b, band| {
            b.iter(|| {
                let mut p = partition.clone();
                two_way_fm(
                    &graph,
                    &mut p,
                    0,
                    1,
                    band,
                    weights.weight(0),
                    weights.weight(1),
                    &FmConfig {
                        l_max,
                        patience_alpha: 0.05,
                        seed: 3,
                        ..Default::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_queue_selection(c: &mut Criterion) {
    let graph = grid2d(96, 96);
    let partition = greedy_graph_growing(&graph, 2, 0.03, 2);
    let weights = BlockWeights::compute(&graph, &partition);
    let l_max = Partition::l_max(&graph, 2, 0.03);
    let band = pair_band(&graph, &partition, 0, 1, 10);
    let mut group = c.benchmark_group("two_way_fm_queue_selection_grid96");
    for strategy in QueueSelection::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name()),
            &strategy,
            |b, &qs| {
                b.iter(|| {
                    let mut p = partition.clone();
                    two_way_fm(
                        &graph,
                        &mut p,
                        0,
                        1,
                        &band,
                        weights.weight(0),
                        weights.weight(1),
                        &FmConfig {
                            queue_selection: qs,
                            l_max,
                            patience_alpha: 0.05,
                            seed: 3,
                        },
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_edge_coloring(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 13, 6);
    let mut group = c.benchmark_group("quotient_edge_coloring_rgg13");
    for k in [16u32, 64] {
        let partition = greedy_graph_growing(&graph, k, 0.03, 3);
        let quotient = QuotientGraph::build(&graph, &partition);
        group.bench_with_input(BenchmarkId::from_parameter(k), &quotient, |b, q| {
            b.iter(|| color_quotient_edges(q, 9));
        });
    }
    group.finish();
}

fn bench_full_refinement_sweep(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 12, 8);
    let partition = greedy_graph_growing(&graph, 8, 0.03, 4);
    c.bench_function("refinement_sweep_rgg12_k8", |b| {
        b.iter(|| {
            // The state build is charged to the measurement: it is the one
            // full derivation a refinement entered "cold" has to pay.
            let mut state = PartitionState::build(&graph, partition.clone());
            refine_partition(
                &graph,
                &mut state,
                &RefinementConfig {
                    max_global_iterations: 2,
                    ..Default::default()
                },
            )
        });
    });
}

/// The headline comparison of this PR: the delta-move scheduler against the
/// snapshot-cloning reference, at a k where the per-pair partition clones of
/// the reference dominate.
fn bench_delta_vs_snapshot_scheduler(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 13, 8);
    let config = RefinementConfig {
        max_global_iterations: 2,
        ..Default::default()
    };
    for k in [16u32, 64] {
        let partition = greedy_graph_growing(&graph, k, 0.03, 4);
        let mut group = c.benchmark_group(format!("refinement_rgg13_k{k}"));
        group.sample_size(10);
        group.bench_with_input(
            BenchmarkId::from_parameter("delta"),
            &partition,
            |b, start| {
                b.iter(|| {
                    let mut state = PartitionState::build(&graph, start.clone());
                    refine_partition(&graph, &mut state, &config)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter("snapshot"),
            &partition,
            |b, start| {
                b.iter(|| {
                    let mut p = start.clone();
                    refine_partition_reference(&graph, &mut p, &config)
                });
            },
        );
        group.finish();
    }
}

/// The power-law case of the scheduler: on R-MAT the quotient is complete
/// and most band nodes are pair-boundary, so each node's adjacency is read
/// by up to `k − 1` pair searches per global iteration. The fast preset's
/// refinement settings on one thread, so the figure is per-core work.
fn bench_refinement_rmat(c: &mut Criterion) {
    let graph = rmat_graph(13, 8, 4);
    let config = KappaConfig::fast(16).with_seed(4).refinement_config();
    let partition = greedy_graph_growing(&graph, 16, config.epsilon, 4);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let mut group = c.benchmark_group("refinement_rmat13_k16");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("delta"),
        &partition,
        |b, start| {
            b.iter(|| {
                let mut state = PartitionState::build(&graph, start.clone());
                pool.install(|| refine_partition(&graph, &mut state, &config))
            });
        },
    );
    group.finish();
}

/// Headline of the boundary-index PR: extracting a pair boundary of FIXED
/// size (a 64-wide grid split across the middle row — always 128 boundary
/// nodes) as the graph grows 16× taller. The full scan grows linearly with
/// `n`; the index extraction stays flat. `index_build` is the once-per-global-
/// iteration cost the extractions amortise.
fn bench_boundary_extraction_scaling(c: &mut Criterion) {
    const WIDTH: usize = 64;
    for height in [64usize, 256, 1024] {
        let graph = grid2d(WIDTH, height);
        let assignment = (0..WIDTH * height)
            .map(|i| if i / WIDTH < height / 2 { 0u32 } else { 1 })
            .collect();
        let partition = Partition::from_assignment(2, assignment);
        let index = BoundaryIndex::build(&graph, &partition);
        assert_eq!(index.boundary_len(), 2 * WIDTH, "boundary must stay fixed");
        let mut group = c.benchmark_group(format!("pair_boundary_grid64x{height}"));
        group.bench_function(BenchmarkId::from_parameter("full_scan"), |b| {
            b.iter(|| pair_boundary_nodes(&graph, &partition, 0, 1));
        });
        group.bench_function(BenchmarkId::from_parameter("index"), |b| {
            b.iter(|| index.pair_boundary_sorted(0, 1));
        });
        group.bench_function(BenchmarkId::from_parameter("index_build"), |b| {
            b.iter(|| BoundaryIndex::build(&graph, &partition));
        });
        group.finish();
    }
}

/// Companion of the scratch-pool change: one banded FM search on a large
/// graph, with per-call `O(n)` allocations (`two_way_fm`) vs. a reused
/// band-indexed scratch (`two_way_fm_in`).
fn bench_fm_scratch_reuse(c: &mut Criterion) {
    let graph = grid2d(256, 256);
    let assignment = (0..256 * 256)
        .map(|i| if i / 256 < 128 { 0u32 } else { 1 })
        .collect();
    let partition = Partition::from_assignment(2, assignment);
    let weights = BlockWeights::compute(&graph, &partition);
    let band = pair_band(&graph, &partition, 0, 1, 2);
    let config = FmConfig {
        l_max: Partition::l_max(&graph, 2, 0.03),
        patience_alpha: 0.05,
        seed: 3,
        ..Default::default()
    };
    // Undoing the surviving moves (O(|moves|)) instead of cloning the
    // partition (O(n)) keeps the measured loop free of everything but the
    // search itself, so the per-call allocation difference is visible.
    let undo = |p: &mut Partition, moves: &[(u32, u32)]| {
        for &(v, to) in moves {
            p.assign(v, 1 - to);
        }
    };
    let mut group = c.benchmark_group("two_way_fm_grid256_band2");
    group.bench_function(BenchmarkId::from_parameter("fresh_alloc"), |b| {
        let mut p = partition.clone();
        b.iter(|| {
            let r = two_way_fm(
                &graph,
                &mut p,
                0,
                1,
                &band,
                weights.weight(0),
                weights.weight(1),
                &config,
            );
            undo(&mut p, &r.moves);
            r
        });
    });
    group.bench_function(BenchmarkId::from_parameter("pooled_scratch"), |b| {
        let mut p = partition.clone();
        let mut scratch = FmScratch::new();
        b.iter(|| {
            let r = two_way_fm_in(
                &graph,
                &mut p,
                0,
                1,
                &band,
                weights.weight(0),
                weights.weight(1),
                &config,
                &mut scratch,
            );
            undo(&mut p, &r.moves);
            r
        });
    });
    group.finish();
}

/// Headline of the persistent-state PR: per-level index derivation during
/// uncoarsening. `full_build` is what every level used to pay (a fresh
/// `O(n + m)` `BoundaryIndex::build` on the fine graph); `projected_seed` is
/// the `PartitionState::project` path — partition projection plus a seeded
/// index build that edge-scans only fine nodes whose coarse image is
/// boundary. Both produce identical indices (`tests/parity.rs`); only the
/// cost differs, and the gap widens as the boundary shrinks relative to `n`.
fn bench_projected_seed_vs_full_build(c: &mut Criterion) {
    for (name, graph) in [
        ("rgg14", random_geometric_graph(1 << 14, 5)),
        ("grid160", grid2d(160, 160)),
    ] {
        // One contraction step gives a real fine/coarse pair with the same
        // shape the uncoarsening loop sees.
        let matching = gpa_matching(&graph, EdgeRating::ExpansionStar2, 2);
        let contraction = contract_matching(&graph, &matching);
        let coarse_partition = greedy_graph_growing(&contraction.coarse_graph, 8, 0.03, 4);
        let coarse_state = PartitionState::build(&contraction.coarse_graph, coarse_partition);
        let fine_partition = coarse_state.partition().project(&contraction.coarse_of);

        let mut group = c.benchmark_group(format!("index_seed_{name}_k8"));
        group.bench_function(BenchmarkId::from_parameter("full_build"), |b| {
            b.iter(|| BoundaryIndex::build(&graph, &fine_partition));
        });
        group.bench_function(BenchmarkId::from_parameter("projected_seed"), |b| {
            b.iter(|| coarse_state.project(&graph, &contraction.coarse_of));
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_two_way_fm_band_depth,
    bench_queue_selection,
    bench_edge_coloring,
    bench_full_refinement_sweep,
    bench_delta_vs_snapshot_scheduler,
    bench_refinement_rmat,
    bench_boundary_extraction_scaling,
    bench_fm_scratch_reuse,
    bench_projected_seed_vs_full_build
);
criterion_main!(benches);
