//! The run driver: partitions the user-view graph, spins up the simulated
//! cluster, runs the configured engine on it, and assembles metrics.

use std::sync::Arc;
use std::time::Instant;

use lazygraph_cluster::{Collective, CommError, NetStats};
use lazygraph_graph::Graph;
use lazygraph_partition::{partition_graph_with, DistributedGraph};
use parking_lot::Mutex;

use crate::config::EngineConfig;
use crate::exchange::Quiescence;
use crate::machine::{assemble, run_mesh_engine, History, RunShared, ThreadedMesh};
use crate::metrics::{RunMetrics, SimBreakdown};
use crate::program::VertexProgram;

/// The outcome of [`run`]: final per-vertex values plus metrics.
pub struct RunResult<P: VertexProgram> {
    /// Final vertex values, indexed by global vertex id.
    pub values: Vec<P::VData>,
    /// Run metrics (simulated time, syncs, traffic, …).
    pub metrics: RunMetrics,
}

/// Partitions `graph` over `num_machines` per `cfg` and runs `program` on
/// the configured engine.
///
/// Fails only if a machine thread dies mid-run (see
/// [`CommError`]); a healthy run always returns `Ok`.
pub fn run<P: VertexProgram>(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    program: &P,
) -> Result<RunResult<P>, CommError> {
    let dg = partition_graph_with(
        graph,
        num_machines,
        cfg.partition,
        &cfg.splitter,
        &cfg.hub_fanout,
        cfg.bidirectional,
    );
    run_on(&dg, cfg, program)
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
    let outcome = assemble(
        run_mesh_engine(&dg.shape(), cfg, program, mesh, &shared)?,
        cfg.engine,
        dg.num_global_vertices,
    );
    let wall_time = started.elapsed();
    let metrics = RunMetrics {
        engine: cfg.engine.name(),
        algorithm: program.name(),
        iterations: outcome.iterations,
        coherency_points: outcome.counters.coherency_points,
        local_subrounds: outcome.counters.local_subrounds,
        a2a_exchanges: outcome.counters.a2a_exchanges,
        m2m_exchanges: outcome.counters.m2m_exchanges,
        sim_time: outcome.sim_time,
        breakdown: *breakdown.lock(),
        wall_time,
        stats: stats.snapshot(),
        converged: outcome.converged,
        lambda: dg.lambda(),
        history: std::mem::take(&mut history.lock()),
    };
    Ok(RunResult {
        values: outcome.values,
        metrics,
    })
}
