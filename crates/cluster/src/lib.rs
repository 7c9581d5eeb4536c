//! # lazygraph-cluster
//!
//! The simulated distributed substrate standing in for the paper's 48-node
//! EC2-like cluster. Each machine is an OS thread owning its shard; all
//! inter-machine traffic crosses a [`comm`] mesh of encoded batches (in
//! process, or framed TCP) with exact byte/message accounting; barriers
//! and allreduce ([`collective`]) are rounds on the same endpoint as the
//! data, each counted as one global synchronisation — the Fig. 10
//! quantity;
//! [`CostModel`] + [`SimClock`] convert the counted work into deterministic
//! simulated seconds using the paper's own fitted communication-time
//! equations (§4.2.2). DESIGN.md §2 documents why this substitution
//! preserves the paper's measured behaviour.

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

mod carrier;
pub mod collective;
pub mod comm;
pub mod costmodel;
pub mod error;
mod io_loop;
pub mod pool;
pub mod recovery;
pub mod runtime;
pub mod stats;
pub mod transport;

pub use collective::Collective;
pub use comm::{build_mesh, Batch, Endpoint, OutboxSet, RawBatch};
pub use costmodel::{CostModel, SimClock};
pub use error::CommError;
pub use pool::ThreadPool;
pub use recovery::{armed_failpoint, failpoint_ckpt, failpoint_superstep, FailPoint, LinkStatus};
pub use runtime::{run_machines, try_run_machines};
pub use stats::{NetStats, Phase, PhaseStats, StatsSnapshot};
pub use transport::{
    build_endpoints, build_machine_endpoints, connect_tcp_endpoint, decode_batch, decode_batch_raw,
    encode_batch,
    TransportKind,
};
