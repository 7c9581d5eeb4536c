//! # LazyGraph
//!
//! A Rust reproduction of *LazyGraph: Lazy Data Coherency for Replicas in
//! Distributed Graph-Parallel Computation* (Wang et al., PPoPP 2018).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — graph structures, loaders, synthetic dataset analogues;
//! * [`partition`] — vertex-cut partitioners, the edge splitter, shards;
//! * [`cluster`] — the simulated cluster substrate (machines, exchanges,
//!   barriers, deterministic cost model);
//! * [`engine`] — PowerGraph Sync/Async baselines and the LazyAsync
//!   engines, with the adaptive interval and comm-mode optimisations;
//! * [`algorithms`] — PageRank-Delta, SSSP, CC, k-core, BFS + references;
//! * [`net`] — the wire codec and framed-TCP transport (DESIGN.md §10);
//! * [`multiproc`] — the multiprocess worker launcher (N OS processes
//!   over a loopback TCP mesh, bitwise-identical results).
//!
//! ## Quickstart
//!
//! ```
//! use lazygraph::prelude::*;
//!
//! // A small road-like graph, PageRank on 4 simulated machines.
//! let graph = lazygraph::graph::generators::grid2d(
//!     lazygraph::graph::generators::Grid2dConfig::road(16, 16, 42),
//! );
//! let cfg = EngineConfig::lazygraph();
//! let result = run(&graph, 4, &cfg, &PageRankDelta::default()).expect("cluster run");
//! assert!(result.metrics.converged);
//! assert_eq!(result.values.len(), graph.num_vertices());
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub use lazygraph_algorithms as algorithms;
pub use lazygraph_cluster as cluster;
pub use lazygraph_engine as engine;
pub use lazygraph_graph as graph;
pub use lazygraph_net as net;
pub use lazygraph_partition as partition;

pub mod multiproc;

/// The most common imports in one place.
pub mod prelude {
    pub use lazygraph_algorithms::{Bfs, ConnectedComponents, KCore, PageRankDelta, Sssp};
    pub use lazygraph_engine::{
        run, run_on, CommError, CommModePolicy, EngineConfig, EngineKind, IntervalPolicy,
        RunMetrics, RunResult, VertexProgram, DEFAULT_BLOCK_SIZE,
    };
    pub use lazygraph_graph::{Dataset, Edge, Graph, GraphBuilder, MachineId, VertexId};
    pub use lazygraph_partition::{HubFanoutConfig, PartitionStrategy, SplitterConfig};
}
