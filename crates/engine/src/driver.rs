//! The run driver: partitions the user-view graph, spins up the simulated
//! cluster, runs the configured engine on it, and assembles metrics.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use lazygraph_cluster::CommError;
use lazygraph_graph::Graph;
use lazygraph_net::Wire;
use lazygraph_partition::{
    partition_graph_to_files, partition_graph_with, DistributedGraph, ShardFiles, MAX_MACHINES,
};

use crate::checkpoint::fnv1a64;
use crate::config::EngineConfig;
use crate::machine::{assemble, run_mesh_engine, Measured, ThreadedMesh};
use crate::metrics::{RunMetrics, RunRecord};
use crate::program::VertexProgram;

/// The outcome of [`run`]: final per-vertex values plus metrics.
pub struct RunResult<P: VertexProgram> {
    /// Final vertex values, indexed by global vertex id.
    pub values: Vec<P::VData>,
    /// Run metrics (simulated time, syncs, traffic, …).
    pub metrics: RunMetrics,
}

impl<P: VertexProgram> RunResult<P> {
    /// The run's deterministic [`RunRecord`]: two runs are the same run
    /// when their records are equal.
    pub fn record(&self) -> RunRecord {
        let m = &self.metrics;
        RunRecord {
            values: fnv1a64(&self.values.to_wire()),
            sim_time: m.sim_time.to_bits(),
            compute: m.breakdown.compute.to_bits(),
            comm: m.breakdown.comm.to_bits(),
            barrier: m.breakdown.barrier.to_bits(),
            iterations: m.iterations,
            converged: m.converged,
            counters: m.stats.deterministic(),
            history: fnv1a64(&m.history.to_wire()),
        }
    }
}

/// Places `graph` on `num_machines` machines the way `cfg` asks. A count
/// outside `1..=`[`MAX_MACHINES`] is a typed error here, before the
/// partitioner's own assertions.
pub fn place(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
) -> Result<DistributedGraph, CommError> {
    check_machine_count(num_machines)?;
    Ok(partition_graph_with(
        graph,
        num_machines,
        cfg.partition,
        &cfg.splitter,
        &cfg.hub_fanout,
        cfg.bidirectional,
    ))
}

/// [`place`] with machine `m`'s shard streamed into the file `path(m)` as
/// it is placed, instead of held: the multiprocess launcher's placement
/// (DESIGN.md §10). The outer error refuses the machine count as `place`
/// does, before anything is written; the inner one is the file system's.
pub fn place_files(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    path: impl Fn(usize) -> PathBuf,
) -> Result<io::Result<ShardFiles>, CommError> {
    check_machine_count(num_machines)?;
    Ok(partition_graph_to_files(
        graph,
        num_machines,
        cfg.partition,
        &cfg.splitter,
        &cfg.hub_fanout,
        cfg.bidirectional,
        path,
    ))
}

fn check_machine_count(num_machines: usize) -> Result<(), CommError> {
    if (1..=MAX_MACHINES).contains(&num_machines) {
        Ok(())
    } else {
        Err(CommError::MachineCount {
            got: num_machines,
            max: MAX_MACHINES,
        })
    }
}

/// Partitions `graph` over `num_machines` per `cfg` and runs `program` on
/// the configured engine.
///
/// Fails if the run cannot start as configured (machine count, thread
/// count, pool threads) or a machine thread dies mid-run (see
/// [`CommError`]); a healthy run always returns `Ok`.
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
    let shape = dg.shape();
    let cfg = &cfg.clone().with_threads(cfg.resolve_threads(shape.num_machines)?);
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall-clock feeds only the reported runtime metric; \
                  no simulated result ever reads it"
    )]
    let started = Instant::now();
    let mesh = ThreadedMesh {
        transport: cfg.transport,
        shards: &dg.shards,
    };
    let outs = run_mesh_engine(&shape, cfg, program, mesh)?;
    let measured = Measured {
        lambda: dg.lambda(),
        wall_time: started.elapsed(),
    };
    Ok(assemble(outs, cfg, program, dg.num_global_vertices, measured))
}
