//! # lazygraph-engine
//!
//! The execution engines of the LazyGraph reproduction: the push-style
//! delta [`VertexProgram`] abstraction (§3.1), the PowerGraph **Sync** and
//! **Async** baselines with eager replica coherency (§2.2), and the two
//! LazyAsync engines — [`lazy_block`] (Algorithm 1, LazyGraph's production
//! engine) and [`lazy_vertex`] (Algorithm 2, the paper's future-work engine,
//! built here as an extension) — together with the graph-aware
//! optimisations: the adaptive interval model (§4.2.1) and dynamic
//! all-to-all / mirrors-to-master switching (§4.2.2). The
//! [`delta_engine`] extension pushes the `⊕`/`Inverse` algebra to
//! Maiter-style delta-accumulative iteration with the epoch-bucketed
//! deterministic [`scheduler`] (DESIGN.md §15), and [`hybrid_engine`]
//! composes Sync and Async PowerSwitch-style. All six engines are
//! [`machine::Superstep`] implementations on one machine loop, the
//! superstep skeleton ([`machine`], DESIGN.md §17); a barrier-free one's
//! step is one round with every peer, whose batches carry the vote, with no
//! barrier.
//!
//! Entry point: [`run`] (or [`run_on`] to reuse a placement).

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

pub mod async_engine;
pub mod bsp;
pub mod checkpoint;
pub mod comm_mode;
pub mod config;
pub mod delta_engine;
pub mod driver;
pub mod exchange;
pub mod hybrid_engine;
pub mod interval;
pub mod lazy_block;
pub mod lazy_vertex;
pub mod machine;
pub mod metrics;
pub mod oracle;
pub mod parallel;
pub mod program;
pub mod scheduler;
pub mod state;
pub mod sync_engine;

pub use checkpoint::{
    snapshot_tag, CheckpointError, RecoveryCfg, SnapshotHeader, SnapshotReader, SnapshotStore,
};
pub use comm_mode::{choose_mode, CommMode, VolumeEstimate};
pub use config::{
    CommModePolicy, EngineConfig, EngineKind, IntervalPolicy, DEFAULT_BLOCK_SIZE,
    DEFAULT_DELTA_BUCKETS, DEFAULT_DELTA_TOLERANCE,
};
pub use scheduler::{EpochPlan, PriorityBuckets};
pub use parallel::{ParallelConfig, ParallelCtx};
pub use driver::{place, place_files, run, run_on, RunResult};
pub use lazygraph_cluster::{CommError, TransportKind};
pub use interval::{IntervalModel, StageProgress, Trend};
pub use machine::{assemble, run_mesh_engine, Attach, MachineOut, Measured, Seat, ThreadedMesh};
pub use metrics::{RunMetrics, RunRecord, SimBreakdown};
pub use program::{EdgeCtx, LocalOrder, VertexCtx, VertexProgram};
