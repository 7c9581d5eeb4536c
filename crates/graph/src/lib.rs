//! # lazygraph-graph
//!
//! Graph data structures, loaders, and synthetic generators for the
//! LazyGraph reproduction (PPoPP'18, Wang et al.).
//!
//! This crate holds everything about the *user-view* graph (§2.2 of the
//! paper): an immutable CSR-backed [`Graph`], a [`GraphBuilder`] with the
//! clean-up passes loaders need, SNAP-style text and compact binary I/O,
//! seeded synthetic generators, and the [`datasets`] module providing
//! class-matched analogues of the paper's Table 1 inputs.
//!
//! The *system-view* (partitioned) graph lives in `lazygraph-partition`.

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

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod fixtures;
pub mod generators;
pub mod graph;
pub mod hash;
pub mod io;
pub mod mtx;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::{Dataset, GraphClass};
pub use graph::Graph;
pub use stats::{graph_stats, GraphStats};
pub use types::{Edge, MachineId, VertexId};
