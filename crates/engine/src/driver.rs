//! The run driver: partitions the user-view graph, spins up the simulated
//! cluster, runs the configured engine on it, and assembles metrics.

use std::sync::Arc;
use std::time::Instant;

use lazygraph_cluster::{Collective, CommError, NetStats};
use lazygraph_graph::Graph;
use lazygraph_partition::{partition_graph_with, DistributedGraph, MAX_MACHINES};
use parking_lot::Mutex;

use crate::config::EngineConfig;
use crate::exchange::Quiescence;
use crate::machine::{assemble, run_mesh_engine, History, Measured, RunShared, ThreadedMesh};
use crate::metrics::{RunMetrics, SimBreakdown};
use crate::program::VertexProgram;

/// The outcome of [`run`]: final per-vertex values plus metrics.
pub struct RunResult<P: VertexProgram> {
    /// Final vertex values, indexed by global vertex id.
    pub values: Vec<P::VData>,
    /// Run metrics (simulated time, syncs, traffic, …).
    pub metrics: RunMetrics,
}

/// Places `graph` on `num_machines` machines the way `cfg` asks. A count
/// outside `1..=`[`MAX_MACHINES`] is a typed error here, before the
/// partitioner's own assertions.
pub fn place(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
) -> Result<DistributedGraph, CommError> {
    if !(1..=MAX_MACHINES).contains(&num_machines) {
        return Err(CommError::MachineCount {
            got: num_machines,
            max: MAX_MACHINES,
        });
    }
    Ok(partition_graph_with(
        graph,
        num_machines,
        cfg.partition,
        &cfg.splitter,
        &cfg.hub_fanout,
        cfg.bidirectional,
    ))
}

/// Partitions `graph` over `num_machines` per `cfg` and runs `program` on
/// the configured engine.
///
/// Fails if the run cannot start as configured (machine count, pool
/// threads) or a machine thread dies mid-run (see [`CommError`]); a
/// healthy run always returns `Ok`.
pub fn run<P: VertexProgram>(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    program: &P,
) -> Result<RunResult<P>, CommError> {
    run_on(&place(graph, num_machines, cfg)?, cfg, program)
}

/// Runs on an already-partitioned graph (reuse a placement across engine
/// comparisons, as the paper does: identical coordinated cut for all
/// engines).
pub fn run_on<P: VertexProgram>(
    dg: &DistributedGraph,
    cfg: &EngineConfig,
    program: &P,
) -> Result<RunResult<P>, CommError> {
    let stats = Arc::new(NetStats::new());
    let breakdown = Arc::new(Mutex::new(SimBreakdown::default()));
    let history: History = Arc::new(Mutex::new(Vec::new()));
    // lazylint: allow(nondet-source) -- host wall-clock feeds only the reported
    // runtime metric; no simulated result ever reads it
    let started = Instant::now();
    let mesh = ThreadedMesh {
        transport: cfg.transport,
        shards: &dg.shards,
    };
    let shared = RunShared {
        coll: Arc::new(Collective::new(dg.num_machines)),
        stats: stats.clone(),
        breakdown: breakdown.clone(),
        history: cfg.record_history.then(|| history.clone()),
        quiescence: Some(Quiescence::shared_memory(dg.num_machines)),
    };
    let outs = run_mesh_engine(&dg.shape(), cfg, program, mesh, &shared)?;
    let measured = Measured {
        lambda: dg.lambda(),
        wall_time: started.elapsed(),
        stats: stats.snapshot(),
        breakdown: *breakdown.lock(),
        history: std::mem::take(&mut history.lock()),
    };
    Ok(assemble(outs, cfg, program, dg.num_global_vertices, measured))
}
