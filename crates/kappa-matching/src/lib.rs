//! # kappa-matching
//!
//! Edge ratings and (approximate) maximum-weight matching algorithms for the
//! contraction phase of the multilevel partitioner (§3 of the paper):
//!
//! * **Edge ratings** (§3.1): `weight`, `expansion`, `expansion*`,
//!   `expansion*2`, `innerOuter` — functions that combine edge weight and node
//!   weight to decide which edges should be contracted first.
//! * **Sequential matchings** (§3.2): SHEM (Metis' sorted heavy edge matching),
//!   Greedy (½-approximation) and GPA (the Global Path Algorithm, which builds
//!   paths/even cycles from the edges in decreasing rating order and solves
//!   each optimally by dynamic programming).
//! * **Parallel matching** (§3.3): a locality-preserving node pre-partition is
//!   matched locally (and in parallel) per part with a sequential algorithm,
//!   then the *gap graph* of attractive cross-part edges is matched by the
//!   locally-heaviest-edge algorithm of Manne & Bisseling.
//!
//! ```
//! use kappa_graph::GraphBuilder;
//! use kappa_matching::{EdgeRating, MatchingAlgorithm, compute_matching};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 10);
//! b.add_edge(1, 2, 1);
//! b.add_edge(2, 3, 10);
//! let g = b.build();
//! let m = compute_matching(&g, MatchingAlgorithm::Gpa, EdgeRating::Weight, 42);
//! assert_eq!(m.cardinality(), 2);
//! assert_eq!(m.partner_of(0), Some(1));
//! assert_eq!(m.partner_of(2), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gpa;
pub mod greedy;
pub mod matching;
pub mod parallel;
pub mod rating;
pub mod shem;

#[cfg(test)]
mod parity;
#[cfg(test)]
mod reference;

pub use gpa::gpa_matching;
pub use greedy::greedy_matching;
pub use matching::Matching;
pub use parallel::{parallel_matching, ParallelMatchingConfig};
pub use rating::{rate_edge, rated_edges, EdgeRating, RatedEdge};
pub use shem::shem_matching;

use kappa_graph::GraphAccess;

/// The sequential matching algorithms of §3.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchingAlgorithm {
    /// Sorted Heavy Edge Matching (the Metis approach).
    Shem,
    /// Greedy on edges sorted by rating (½-approximation).
    Greedy,
    /// Global Path Algorithm (½-approximation, empirically the best).
    Gpa,
}

impl MatchingAlgorithm {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            MatchingAlgorithm::Shem => "shem",
            MatchingAlgorithm::Greedy => "greedy",
            MatchingAlgorithm::Gpa => "gpa",
        }
    }

    /// All algorithms, in the order used by Table 3.
    pub fn all() -> [MatchingAlgorithm; 3] {
        [
            MatchingAlgorithm::Gpa,
            MatchingAlgorithm::Shem,
            MatchingAlgorithm::Greedy,
        ]
    }
}

/// Computes a matching of `graph` with the given algorithm and edge rating.
pub fn compute_matching<G: GraphAccess>(
    graph: &G,
    algorithm: MatchingAlgorithm,
    rating: EdgeRating,
    seed: u64,
) -> Matching {
    match algorithm {
        MatchingAlgorithm::Shem => shem_matching(graph, rating, seed),
        MatchingAlgorithm::Greedy => greedy_matching(graph, rating, seed),
        MatchingAlgorithm::Gpa => gpa_matching(graph, rating, seed),
    }
}
