//! The correctness gate every partition output passes through.
//!
//! The gate recomputes what it checks on the benchmark side instead of
//! trusting the driver: the cut by its own edge scan (through
//! [`GraphAccess`], so a paged graph is scanned on disk pages), the block
//! weights by its own sum. Feasibility uses the program's definition,
//! `L_max = ⌈(1+ε)·avg⌉ + max node weight` ([`Partition::l_max`]), not
//! `balance ≤ 1+ε`.

use kappa_graph::{GraphAccess, Partition};

/// What the gate measured on an output that passed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checked {
    /// The edge cut, recomputed.
    pub cut: u64,
    /// Heaviest block weight over the average block weight.
    pub imbalance: f64,
}

/// Checks `partition` of `graph` into `k` blocks against the cut the driver
/// reported. Fails on an invalid assignment, a cut mismatch or a block
/// heavier than `L_max`.
pub fn check<G: GraphAccess>(
    graph: &G,
    partition: &Partition,
    k: u32,
    epsilon: f64,
    reported_cut: u64,
) -> Result<Checked, String> {
    partition.validate(graph)?;
    if partition.k() != k {
        return Err(format!(
            "partition has {} blocks, expected {k}",
            partition.k()
        ));
    }
    let mut block_weight = vec![0u64; k as usize];
    let mut cut_twice = 0u64;
    for v in graph.nodes() {
        let b = partition.block_of(v);
        block_weight[b as usize] += graph.node_weight(v);
        for (u, w) in graph.edges_of(v) {
            if partition.block_of(u) != b {
                cut_twice += w;
            }
        }
    }
    let cut = cut_twice / 2;
    if cut != reported_cut {
        return Err(format!(
            "driver reported cut {reported_cut}, edge scan found {cut}"
        ));
    }
    let heaviest = block_weight.iter().copied().max().unwrap_or(0);
    let l_max = Partition::l_max(graph, k, epsilon);
    if heaviest > l_max {
        return Err(format!(
            "infeasible: heaviest block {heaviest} > L_max {l_max}"
        ));
    }
    let average = graph.total_node_weight() as f64 / k as f64;
    Ok(Checked {
        cut,
        imbalance: heaviest as f64 / average,
    })
}
