//! The correctness gate rejects broken outputs.

use kappa_core::{KappaConfig, KappaPartitioner};
use kappa_gen::rgg::random_geometric_graph;
use kappa_graph::Partition;
use perfbench::check::check;

const K: u32 = 4;
const EPS: f64 = 0.03;

fn valid() -> (kappa_graph::CsrGraph, Partition, u64) {
    let g = random_geometric_graph(2000, 3);
    let r = KappaPartitioner::new(KappaConfig::fast(K).with_seed(1).with_threads(1)).partition(&g);
    let cut = r.metrics.edge_cut;
    (g, r.partition, cut)
}

#[test]
fn a_driver_output_passes() {
    let (g, p, cut) = valid();
    let c = check(&g, &p, K, EPS, cut).expect("valid output");
    assert_eq!(c.cut, cut);
    assert!(c.imbalance >= 1.0);
}

#[test]
fn a_wrong_reported_cut_fails() {
    let (g, p, cut) = valid();
    let err = check(&g, &p, K, EPS, cut + 1).unwrap_err();
    assert!(err.contains("cut"), "{err}");
}

#[test]
fn a_moved_node_fails_against_the_reported_cut() {
    let (g, p, cut) = valid();
    let mut a = p.assignment().to_vec();
    // Move a node to another block: the true cut changes, the report not.
    let v = (0..a.len())
        .find(|&v| {
            let mut edges = g.edges_of(v as u32).peekable();
            edges.peek().is_some() && edges.all(|(u, _)| a[u as usize] == a[v])
        })
        .expect("an interior node");
    a[v] = (a[v] + 1) % K;
    let corrupted = Partition::from_assignment(K, a);
    assert!(check(&g, &corrupted, K, EPS, cut).is_err());
}

#[test]
fn an_unassigned_node_fails() {
    let (g, p, cut) = valid();
    let mut partial = Partition::unassigned(K, g.num_nodes());
    for v in 1..g.num_nodes() as u32 {
        partial.assign(v, p.block_of(v));
    }
    let err = check(&g, &partial, K, EPS, cut).unwrap_err();
    assert!(err.contains("unassigned"), "{err}");
}

#[test]
fn an_infeasible_partition_fails() {
    let (g, _, _) = valid();
    // Everything in block 0: cut 0, reported correctly, but far over L_max.
    let lopsided = Partition::from_assignment(K, vec![0; g.num_nodes()]);
    let err = check(&g, &lopsided, K, EPS, 0).unwrap_err();
    assert!(err.contains("infeasible"), "{err}");
}
