//! Criterion benches for the matching kernels of §3: the three sequential
//! algorithms (GPA / SHEM / Greedy), the edge ratings, and the parallel
//! local+gap matcher at several part counts, on index ranges (rmat) and on
//! the coordinate pre-partition the drivers use (rgg). These are the
//! per-level building blocks whose cost dominates the contraction phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kappa_core::coordinate_prepartition;
use kappa_gen::{delaunay_like_graph, random_geometric_graph, rmat_graph};
use kappa_matching::{
    compute_matching, parallel_matching, rated_edges, EdgeRating, MatchingAlgorithm,
    ParallelMatchingConfig,
};

fn bench_sequential_matchers(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 13, 1);
    let mut group = c.benchmark_group("sequential_matching_rgg13");
    for algorithm in MatchingAlgorithm::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(algorithm.name()),
            &algorithm,
            |b, &alg| {
                b.iter(|| compute_matching(&graph, alg, EdgeRating::ExpansionStar2, 7));
            },
        );
    }
    group.finish();
}

fn bench_edge_ratings(c: &mut Criterion) {
    let graph = delaunay_like_graph(1 << 13, 2);
    let mut group = c.benchmark_group("edge_rating_delaunay13");
    for rating in EdgeRating::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(rating.name()),
            &rating,
            |b, &r| {
                b.iter(|| rated_edges(&graph, r));
            },
        );
    }
    group.finish();
}

fn bench_parallel_matching(c: &mut Criterion) {
    let graph = rmat_graph(13, 8, 3);
    let mut group = c.benchmark_group("parallel_matching_rmat13");
    for parts in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &p| {
            let config = ParallelMatchingConfig {
                num_parts: p,
                local_algorithm: MatchingAlgorithm::Gpa,
                rating: EdgeRating::ExpansionStar2,
                seed: 5,
            };
            b.iter(|| parallel_matching(&graph, None, &config));
        });
    }
    group.finish();
}

/// The `ram-rgg` shape: rgg 2^16 split into 2 parts by the coordinate
/// pre-partition, GPA in every part, the paper's default rating.
fn bench_parallel_matching_rgg(c: &mut Criterion) {
    let graph = random_geometric_graph(1 << 16, 4);
    let parts = coordinate_prepartition(&graph, 2);
    let mut group = c.benchmark_group("parallel_matching_rgg16");
    group.bench_function("rcb2_gpa", |b| {
        let config = ParallelMatchingConfig {
            num_parts: 2,
            local_algorithm: MatchingAlgorithm::Gpa,
            rating: EdgeRating::ExpansionStar2,
            seed: 5,
        };
        b.iter(|| parallel_matching(&graph, Some(&parts), &config));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_matchers,
    bench_edge_ratings,
    bench_parallel_matching,
    bench_parallel_matching_rgg
);
criterion_main!(benches);
