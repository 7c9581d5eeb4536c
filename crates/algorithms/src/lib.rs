//! # lazygraph-algorithms
//!
//! The paper's four evaluation workloads as push-style delta vertex
//! programs — [`PageRankDelta`] (Fig. 3), [`Sssp`], [`ConnectedComponents`],
//! [`KCore`] (Fig. 1(a)) — plus [`Bfs`] as an extra unidirectional
//! workload, and [`reference`] implementations (sequential executor,
//! Dijkstra, union-find, peeling, power iteration) used as ground truth by
//! the test suite. [`spec`] is the table of the six programs the binaries
//! ship: the only place a request for one is parsed, shipped or turned
//! into the program.

pub mod bfs;
pub mod cc;
pub mod coreness;
pub mod kcore;
pub mod multi_bfs;
pub mod pagerank;
pub mod ppr;
pub mod reference;
pub mod spec;
pub mod sssp;
pub mod widest_path;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use coreness::{coreness, coreness_distributed};
pub use kcore::KCore;
pub use multi_bfs::MultiSourceBfs;
pub use pagerank::{PageRankData, PageRankDelta};
pub use ppr::PersonalizedPageRank;
pub use spec::{AlgoSpec, Shipped, Visitor};
pub use sssp::Sssp;
pub use widest_path::WidestPath;

/// The local order ([`lazygraph_engine::VertexProgram::local_order`]) of
/// the min-algebra path programs (SSSP, BFS): the smallest candidate that
/// improves on the current value first; a candidate `apply` will reject
/// keys at `+∞`, so it clears at once without traversing an edge.
pub(crate) fn smallest_improving_first<T: Copy + PartialOrd + Into<f64>>(
    current: &T,
    candidate: &T,
) -> f64 {
    if candidate < current {
        -(*candidate).into()
    } else {
        f64::INFINITY
    }
}
