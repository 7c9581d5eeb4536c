//! The superstep skeleton: one machine loop for every engine.
//!
//! The paper's barriered engines share one shape — compute locally,
//! exchange, ⊕-fold, vote at a barrier — with Sync as the degenerate case
//! where every iteration is a coherency point. [`run_machine`] owns
//! everything that shape has in common: the per-machine [`Frame`],
//! snapshot restore and barrier re-execution, the superstep fail point,
//! the checkpoint barrier, and the masters → [`MachineOut`] epilogue. An
//! engine is a [`Superstep`] implementation: its cross-iteration state
//! plus one `step` over the frame. Checkpointing and multiprocess
//! execution are therefore properties of the skeleton, not of any one
//! engine (DESIGN.md §17).
//!
//! The paper's other shape, the barrier-free loop of Async and
//! LazyVertexAsync, is a step too: one that drives the port's
//! [`Pump`](crate::exchange::Pump) until the machines' vote says the run
//! is over, and votes converged. The hybrid engine is Sync's step
//! followed, in the superstep that switches, by Async's.
//!
//! [`run_mesh_engine`] is the single place a machine loop is started: the
//! in-process driver hands it every shard of the placement it holds, with
//! every leg of a threaded control mesh and data mesh; a
//! `lazygraph-worker` process hands it the one shard it loaded, with the
//! one leg of each mesh it connected (or reconnected). Either way a
//! machine owns its legs and reduces over its own [`Collective`]. Every
//! engine runs on either. Neither hands it a placement: a machine reads
//! its own shard and the three scalars of a [`PlacementShape`].

use std::sync::Arc;
use std::time::Duration;

use lazygraph_cluster::{
    build_endpoints, Collective, CommError, Endpoint, NetStats, SimClock, StatsSnapshot,
    TransportKind,
};
use lazygraph_net::{wire_record, Wire};
use lazygraph_partition::{LocalShard, PlacementShape};
use parking_lot::Mutex;

use crate::async_engine::AsyncPump;
use crate::bsp::BspSync;
use crate::checkpoint::{
    checkpoint_at_barrier, CheckpointError, RecoveryCfg, ResumeExtras, SnapshotHeader,
};
use crate::config::{EngineConfig, EngineKind};
use crate::delta_engine::DeltaStep;
use crate::driver::RunResult;
use crate::exchange::Port;
use crate::hybrid_engine::HybridStep;
use crate::lazy_block::{LazyCounters, LazyStep};
use crate::lazy_vertex::LazyVertexPump;
use crate::metrics::{IterationRecord, RunMetrics, SimBreakdown};
use crate::parallel::ParallelCtx;
use crate::program::VertexProgram;
use crate::state::{InitMessages, MachineState};
use crate::sync_engine::SyncStep;

/// Sink of the per-round trace machine 0 records under
/// `EngineConfig::record_history`.
pub type History = Arc<Mutex<Vec<IterationRecord>>>;

/// Everything one machine's superstep works on. `M` is the engine's wire
/// message; the mesh carries `(global vertex id, M)` items.
pub struct Frame<'a, P: VertexProgram, M> {
    pub me: usize,
    pub cfg: &'a EngineConfig,
    pub program: &'a P,
    pub num_vertices: usize,
    /// `|E| / |V|` of the whole graph (the interval model's input).
    pub ev_ratio: f64,
    /// This machine's shard, as its [`Seat`] carried it: placed once,
    /// read-only for the whole run.
    pub shard: &'a LocalShard,
    pub pctx: ParallelCtx,
    pub state: MachineState<P>,
    pub clock: SimClock,
    pub bsp: BspSync,
    pub port: Port<(u32, M)>,
    pub stats: Arc<NetStats>,
    /// Supersteps started so far (1-based inside `step`; a pump step,
    /// which is not a superstep, resets it to 0).
    pub iterations: u64,
    /// `Some` on the in-process driver's machines when history is on.
    pub history: Option<History>,
}

/// The termination vote a superstep ends with (identical on every
/// machine: it comes out of the step's last bundled allreduce).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// Work remains; the skeleton commits and runs another superstep.
    Continue,
    /// No machine holds pending work: the run has converged.
    Converged,
}

impl Vote {
    /// The vote a barrier's globally reduced pending-work count carries.
    pub fn of(global_pending: u64) -> Vote {
        if global_pending == 0 {
            Vote::Converged
        } else {
            Vote::Continue
        }
    }
}

/// One engine: its cross-iteration state and its superstep.
pub trait Superstep<P: VertexProgram>: Sized {
    /// Wire message of the engine's data mesh.
    type Msg: Wire + Send + 'static;
    /// Which engine this is — names it in errors and keys its snapshot
    /// tag ([`crate::checkpoint::snapshot_tag`]).
    const KIND: EngineKind;
    /// Which replicas the program's initial messages are loaded into.
    const INIT: InitMessages;

    /// Fresh engine state for a run starting at superstep 1.
    fn new(frame: &Frame<'_, P, Self::Msg>) -> Self;

    /// Rehydrates the engine's own state from a snapshot's header (the
    /// skeleton has already restored `frame.state`, the clock and the
    /// superstep count).
    fn restore(&mut self, _header: &SnapshotHeader) {}

    /// Runs superstep `frame.iterations`. Returns [`Vote::Converged`]
    /// straight after the deciding barrier, before any post-vote work.
    fn step(&mut self, frame: &mut Frame<'_, P, Self::Msg>) -> Result<Vote, CommError>;

    /// The engine state a checkpoint must carry beside `MachineState`.
    fn resume_extras(&self) -> ResumeExtras {
        ResumeExtras::default()
    }

    /// Counters reported with the outcome.
    fn counters(&self) -> LazyCounters {
        LazyCounters::default()
    }
}

/// One machine's share of an engine run. Carries a [`Wire`] impl so a
/// worker process can ship it back to the launcher for [`assemble`].
pub struct MachineOut<P: VertexProgram> {
    pub masters: Vec<(u32, P::VData)>,
    pub iterations: u64,
    pub converged: bool,
    pub sim_time: f64,
    pub counters: LazyCounters,
}

impl<P: VertexProgram> MachineOut<P> {
    /// The epilogue every engine shares: this machine's master values.
    pub fn collect(
        shard: &LocalShard,
        state: &MachineState<P>,
        iterations: u64,
        converged: bool,
        sim_time: f64,
        counters: LazyCounters,
    ) -> Self {
        let masters = (0..shard.num_local() as u32)
            .filter(|&l| shard.is_master(l))
            .map(|l| (shard.global_of(l).0, state.vdata[l as usize].clone()))
            .collect();
        MachineOut {
            masters,
            iterations,
            converged,
            sim_time,
            counters,
        }
    }
}

wire_record!(MachineOut<P> where P: VertexProgram {
    masters,
    iterations,
    converged,
    sim_time,
    counters,
});

/// What a route observed around its machines: the part of [`RunMetrics`]
/// that does not come out of the machines' own outcomes.
pub struct Measured {
    /// Replication factor of the placement the machines ran on.
    pub lambda: f64,
    /// Host wall-clock of the machines' run (set-up excluded).
    pub wall_time: Duration,
    /// Every machine's counters, merged.
    pub stats: StatsSnapshot,
    /// Machine 0's simulated-time breakdown (the only recorder).
    pub breakdown: SimBreakdown,
    /// Machine 0's per-round trace (empty unless recorded).
    pub history: Vec<IterationRecord>,
}

/// The one epilogue of every route: folds per-machine outcomes into the
/// caller-facing result — the same rules whether the machines were threads
/// or worker processes — and attaches what the route measured. Counters
/// that tick at a barrier are identical on every machine (machine 0's are
/// taken); `local_subrounds` is per-machine work and is summed — and so
/// are LazyVertexAsync's coherency points, which every machine reaches on
/// its own. The simulated time is the maximum machine clock.
pub fn assemble<P: VertexProgram>(
    outs: Vec<MachineOut<P>>,
    cfg: &EngineConfig,
    program: &P,
    num_vertices: usize,
    measured: Measured,
) -> RunResult<P> {
    let sim_time = outs.iter().map(|o| o.sim_time).fold(0.0, f64::max);
    let (iterations, converged, mut counters) = outs
        .first()
        .map_or((0, true, LazyCounters::default()), |o| (o.iterations, o.converged, o.counters));
    counters.local_subrounds = outs.iter().map(|o| o.counters.local_subrounds).sum();
    if cfg.engine == EngineKind::LazyVertexAsync {
        counters.coherency_points = outs.iter().map(|o| o.counters.coherency_points).sum();
        counters.a2a_exchanges = outs.iter().map(|o| o.counters.a2a_exchanges).sum();
    }
    let mut values: Vec<Option<P::VData>> = vec![None; num_vertices];
    for out in outs {
        for (gid, v) in out.masters {
            debug_assert!(values[gid as usize].is_none(), "duplicate master {gid}");
            values[gid as usize] = Some(v);
        }
    }
    let values = values
        .into_iter()
        .enumerate()
        .map(
            #[expect(
                clippy::panic,
                reason = "every vertex has exactly one master by partition construction; \
                          a gap here is an assembler bug"
            )]
            |(gid, v)| v.unwrap_or_else(|| panic!("vertex {gid} has no master value")),
        )
        .collect();
    let Measured { lambda, wall_time, stats, breakdown, history } = measured;
    RunResult {
        values,
        metrics: RunMetrics {
            engine: cfg.engine.name(),
            algorithm: program.name(),
            iterations,
            coherency_points: counters.coherency_points,
            local_subrounds: counters.local_subrounds,
            a2a_exchanges: counters.a2a_exchanges,
            m2m_exchanges: counters.m2m_exchanges,
            sim_time,
            breakdown,
            wall_time,
            stats,
            converged,
            lambda,
            history,
        },
    }
}

/// One machine this process runs: its rank, its shard — one of a
/// placement the process holds, or the only one a worker loaded — its legs
/// of the control mesh (its collective) and of the data mesh, and its
/// checkpoint/resume configuration. The machine owns both legs: when it
/// ends, or fails, they close.
pub struct Seat<'a, T> {
    pub me: usize,
    pub shard: &'a LocalShard,
    pub ctrl: Endpoint<u8>,
    pub ep: Endpoint<T>,
    pub recovery: RecoveryCfg,
}

/// How a process joins a run's two meshes. The data mesh's item type is
/// only known once [`run_mesh_engine`] has picked the engine, so joining
/// is a generic method rather than a ready-made endpoint list.
pub trait Attach<'a> {
    /// Builds (or connects) the control mesh, then the data mesh typed
    /// `T` — the protocol's order — and returns the seats this process
    /// runs.
    fn attach<T: Wire + Send + 'static>(
        self,
        stats: &Arc<NetStats>,
    ) -> Result<Vec<Seat<'a, T>>, CommError>;
}

/// Every machine of the run as a thread of this process — one per shard
/// of a placement the process holds — on a freshly built control mesh and
/// data mesh of the given transport; no checkpointing.
pub struct ThreadedMesh<'a> {
    pub transport: TransportKind,
    pub shards: &'a [LocalShard],
}

impl<'a> Attach<'a> for ThreadedMesh<'a> {
    fn attach<T: Wire + Send + 'static>(
        self,
        stats: &Arc<NetStats>,
    ) -> Result<Vec<Seat<'a, T>>, CommError> {
        let n = self.shards.len();
        let ctrl = build_endpoints::<u8>(self.transport, n, stats)?;
        let data = build_endpoints::<T>(self.transport, n, stats)?;
        Ok(ctrl
            .into_iter()
            .zip(data)
            .zip(self.shards)
            .enumerate()
            .map(|(me, ((ctrl, ep), shard))| Seat {
                me,
                shard,
                ctrl,
                ep,
                recovery: RecoveryCfg::default(),
            })
            .collect())
    }
}

/// The run-wide handles every machine of a process shares.
#[derive(Clone)]
pub struct RunShared {
    pub stats: Arc<NetStats>,
    pub breakdown: Arc<Mutex<SimBreakdown>>,
    pub history: Option<History>,
}

/// Runs this process's machines of a run of `cfg.engine` — any of the six
/// — over a placement of `shape` and returns their outcomes in seat order.
/// The one entry the in-process driver and the worker binary share, so a
/// threaded run and a multiprocess run of the same job are bitwise
/// identical by construction.
pub fn run_mesh_engine<'a, P: VertexProgram>(
    shape: &PlacementShape,
    cfg: &EngineConfig,
    program: &P,
    mesh: impl Attach<'a>,
    shared: &RunShared,
) -> Result<Vec<MachineOut<P>>, CommError> {
    match cfg.engine {
        EngineKind::PowerGraphSync => run_seats::<P, SyncStep<P>>(shape, cfg, program, mesh, shared),
        EngineKind::LazyBlockAsync => run_seats::<P, LazyStep<P>>(shape, cfg, program, mesh, shared),
        EngineKind::DeltaAccum => run_seats::<P, DeltaStep>(shape, cfg, program, mesh, shared),
        EngineKind::PowerGraphAsync => run_seats::<P, AsyncPump<P>>(shape, cfg, program, mesh, shared),
        EngineKind::LazyVertexAsync => run_seats::<P, LazyVertexPump>(shape, cfg, program, mesh, shared),
        EngineKind::PowerSwitchHybrid => run_seats::<P, HybridStep<P>>(shape, cfg, program, mesh, shared),
    }
}

fn run_seats<'a, P: VertexProgram, S: Superstep<P>>(
    shape: &PlacementShape,
    cfg: &EngineConfig,
    program: &P,
    mesh: impl Attach<'a>,
    shared: &RunShared,
) -> Result<Vec<MachineOut<P>>, CommError> {
    // Every pool exists before the first machine thread does: a host that
    // refuses a pool thread fails the run here, where no machine is yet
    // waiting at a barrier for the one that could not start.
    let seats = mesh
        .attach::<(u32, S::Msg)>(&shared.stats)?
        .into_iter()
        .map(|seat| Ok((seat, ParallelCtx::new(cfg.parallel(shape.num_machines))?)))
        .collect::<Result<Vec<_>, CommError>>()?;
    lazygraph_cluster::try_run_machines(seats, |(seat, pctx)| {
        run_machine::<P, S>(shape, cfg, program, seat, pctx, shared.clone())
    })
}

/// The superstep skeleton (module docs).
fn run_machine<P: VertexProgram, S: Superstep<P>>(
    shape: &PlacementShape,
    cfg: &EngineConfig,
    program: &P,
    seat: Seat<'_, (u32, S::Msg)>,
    pctx: ParallelCtx,
    shared: RunShared,
) -> Result<MachineOut<P>, CommError> {
    let Seat {
        me,
        shard,
        ctrl,
        ep,
        mut recovery,
    } = seat;
    let mut f = Frame {
        me,
        cfg,
        program,
        num_vertices: shape.num_global_vertices,
        ev_ratio: shape.ev_ratio,
        pctx,
        state: MachineState::init(shard, program, S::INIT, shape.num_global_vertices),
        shard,
        clock: SimClock::new(),
        bsp: BspSync::new(
            me,
            Collective::mesh(ctrl),
            shared.stats.clone(),
            cfg.cost,
            shared.breakdown,
        ),
        port: Port::new(ep, shared.stats.clone()),
        stats: shared.stats,
        iterations: 0,
        history: shared.history.filter(|_| me == 0),
    };
    let mut engine = S::new(&f);

    if let Some(snapshot) = recovery.resume.take() {
        let fail = |e: CheckpointError| CommError::Transport {
            me,
            detail: e.to_string(),
        };
        snapshot.header().check_engine(S::KIND).map_err(fail)?;
        // Straight from the file into the arrays `init` has just built.
        let header = snapshot.restore_into(&mut f.state).map_err(fail)?;
        f.clock.set(f64::from_bits(header.clock_bits));
        f.iterations = header.iterations;
        engine.restore(&header);
        // Re-execute the checkpoint barrier unconditionally: if the crash
        // landed before it, the peers are still blocked in it and this
        // completes it; if after, their count-based dedupe drops the
        // re-sent round and this machine's contribution is satisfied from
        // their replay logs (DESIGN.md §12).
        f.bsp.coll.barrier(me, &f.stats)?;
    }

    let mut converged = false;
    while f.iterations < cfg.max_iterations {
        f.iterations += 1;
        lazygraph_cluster::failpoint_superstep(f.iterations);
        if engine.step(&mut f)? == Vote::Converged {
            converged = true;
            break;
        }
        if let Some(store) = recovery.store.as_ref().filter(|_| recovery.due(f.iterations)) {
            checkpoint_at_barrier(&f, store, S::KIND, engine.resume_extras())?;
        }
    }

    Ok(MachineOut::collect(
        f.shard,
        &f.state,
        f.iterations,
        converged,
        f.clock.now(),
        engine.counters(),
    ))
}
