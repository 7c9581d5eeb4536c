//! The superstep skeleton: one machine loop for every engine.
//!
//! The paper's barriered engines share one shape — compute locally,
//! exchange, ⊕-fold, vote at a barrier — with Sync as the degenerate case
//! where every iteration is a coherency point. [`run_machine`] owns
//! everything that shape has in common: the per-machine [`Frame`],
//! snapshot restore, the superstep fail point, the trace, the checkpoint
//! barrier, and the masters → [`MachineOut`] epilogue. An
//! engine is a [`Superstep`] implementation: its carried state, declared
//! once as one record ([`Superstep::Carry`]), plus one `step` over the
//! frame. Checkpointing and multiprocess execution are therefore
//! properties of the skeleton, not of any one engine (DESIGN.md §17).
//!
//! The paper's other shape, the barrier-free loop of Async and
//! LazyVertexAsync, is a step too: one turn of local work and one round
//! with every peer, whose arrivals reach the clock as they land and whose
//! batches carry each machine's vote on whether its turn did any work
//! ([`crate::exchange::Stamp::Arrivals`]) — no barrier.
//! The hybrid engine runs Sync's step until it switches, then Async's.
//!
//! [`run_mesh_engine`] is the single place a machine loop is started: the
//! in-process driver hands it every shard of the placement it holds, with
//! every endpoint of a threaded mesh; a `lazygraph-worker` process hands
//! it the one shard it loaded, with the one endpoint it connected. Either
//! way a machine owns its endpoint, and its exchanges, barriers and
//! allreduces are rounds of that one endpoint. Every engine runs on
//! either. Neither hands it a placement: a machine reads its own shard and
//! the three scalars of a [`PlacementShape`]. Either way a machine counts
//! into a [`NetStats`] of its own, which its [`Seat`] carries, and hands
//! back a snapshot of it in its [`MachineOut`]: [`assemble`] is the one
//! merge.

use std::sync::Arc;
use std::time::Duration;

use lazygraph_cluster::{
    build_machine_endpoints, CommError, Endpoint, NetStats, SimClock, StatsSnapshot, TransportKind,
};
use lazygraph_net::{wire_record, Wire};
use lazygraph_partition::{LocalShard, PlacementShape};

use crate::async_engine::AsyncPump;
use crate::bsp::BspSync;
use crate::checkpoint::{checkpoint_at_barrier, CheckpointError, RecoveryCfg};
use crate::config::{EngineConfig, EngineKind};
use crate::delta_engine::DeltaStep;
use crate::driver::RunResult;
use crate::exchange::Port;
use crate::hybrid_engine::HybridStep;
use crate::lazy_block::LazyStep;
use crate::lazy_vertex::LazyVertexPump;
use crate::metrics::{RunMetrics, SimBreakdown, StepRecord};
use crate::parallel::ParallelCtx;
use crate::program::VertexProgram;
use crate::state::{Layout, MachineState};
use crate::sync_engine::SyncStep;

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
    /// This machine's counters, which its port and its endpoint's links
    /// count into too.
    pub stats: Arc<NetStats>,
    /// Steps started so far (1-based inside `step`): supersteps, or the
    /// barrier-free engines' rounds.
    pub iterations: u64,
    /// This machine's trace: one record a step, booked by
    /// [`Frame::book_step`] when `cfg.record_history` is set.
    pub history: Vec<StepRecord>,
}

impl<P: VertexProgram, M> Frame<'_, P, M> {
    /// Books the step just run into this machine's trace when
    /// `cfg.record_history` is set: the superstep, the clock, the
    /// breakdown, `carry`, the engine's carried record as the step left
    /// it, and this machine's deterministic counters — what a snapshot
    /// taken at this boundary would hold.
    pub fn book_step(&mut self, carry: &impl Wire) {
        if self.cfg.record_history {
            self.history.push(StepRecord {
                superstep: self.iterations,
                sim_time: self.clock.now(),
                breakdown: self.bsp.breakdown,
                carry: carry.to_wire(),
                counters: self.stats.snapshot().deterministic(),
            });
        }
    }
}

/// The termination vote a superstep ends with (identical on every
/// machine: it comes out of the step's last bundled allreduce, or a
/// barrier-free step's round).
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

    /// The vote a barrier-free step's round carried back: whether any
    /// machine's turn did work ([`crate::exchange::Stamp::Arrivals`]).
    pub fn busy(any: bool) -> Vote {
        if any {
            Vote::Continue
        } else {
            Vote::Converged
        }
    }
}

/// One engine: its carried state and its superstep.
pub trait Superstep<P: VertexProgram>: Sized {
    /// Wire message of the engine's data mesh.
    type Msg: Wire + Send + 'static;
    /// Everything of the engine that survives a superstep boundary, as one
    /// record the engine keeps as a field and works on in place: what a
    /// checkpoint writes beside `MachineState` and a resume hands back to
    /// [`Self::new`]. Any other field of an engine is scratch that a
    /// superstep fills before it reads, or an input `new` derives from the
    /// frame. `Default` is its value before superstep 1.
    type Carry: Wire + Default;
    /// Which engine this is — names it in errors and keys its snapshot
    /// tag ([`crate::checkpoint::snapshot_tag`]).
    const KIND: EngineKind;
    /// What the engine's replicas hold beyond `vdata`, the inbox and the
    /// worklist, and which of them the program's initial messages are
    /// loaded into.
    const LAYOUT: Layout;

    /// The engine at a superstep boundary, carrying `carry`: the default
    /// for a run starting at superstep 1, a snapshot's for a resumed one
    /// (the skeleton has then already restored the frame).
    fn new(frame: &Frame<'_, P, Self::Msg>, carry: Self::Carry) -> Self;

    /// The carried state as it stands.
    fn carry(&self) -> &Self::Carry;

    /// Runs superstep `frame.iterations`. Returns [`Vote::Converged`]
    /// straight after the deciding barrier, before any post-vote work.
    fn step(&mut self, frame: &mut Frame<'_, P, Self::Msg>) -> Result<Vote, CommError>;
}

/// One machine's share of an engine run, and the only way anything leaves
/// a machine. Carries a [`Wire`] impl so a worker process can ship it
/// back to the launcher for [`assemble`].
pub struct MachineOut<P: VertexProgram> {
    pub masters: Vec<(u32, P::VData)>,
    pub iterations: u64,
    pub converged: bool,
    pub sim_time: f64,
    /// This machine's simulated-time breakdown: the same bits on every
    /// machine of the run.
    pub breakdown: SimBreakdown,
    /// This machine's trace, one record a step (empty unless recorded).
    pub history: Vec<StepRecord>,
    /// This machine's counters, snapshotted once its endpoint had closed.
    pub stats: StatsSnapshot,
}

impl<P: VertexProgram> MachineOut<P> {
    /// The epilogue every engine shares: this machine's master values and
    /// what its frame recorded. The endpoint closes first, so the frames
    /// its close sends (TCP's Shutdown frames) are counted too.
    pub fn collect<M>(f: Frame<'_, P, M>, converged: bool) -> Self {
        let Frame { shard, state, port, stats, iterations, clock, bsp, history, .. } = f;
        drop(port);
        let masters = (0..shard.num_local() as u32)
            .filter(|&l| shard.is_master(l))
            .map(|l| (shard.global_of(l).0, state.vdata[l as usize].clone()))
            .collect();
        MachineOut {
            masters,
            iterations,
            converged,
            sim_time: clock.now(),
            breakdown: bsp.breakdown,
            history,
            stats: stats.snapshot(),
        }
    }
}

wire_record!(MachineOut<P> where P: VertexProgram {
    masters,
    iterations,
    converged,
    sim_time,
    breakdown,
    history,
    stats,
});

/// What a route observed around its machines: the part of [`RunMetrics`]
/// that does not come out of the machines' own outcomes.
pub struct Measured {
    /// Replication factor of the placement the machines ran on.
    pub lambda: f64,
    /// Host wall-clock of the machines' run (set-up excluded).
    pub wall_time: Duration,
}

/// The one epilogue of every route: folds per-machine outcomes into the
/// caller-facing result — the same rules whether the machines were threads
/// or worker processes — and attaches what the route measured. The
/// machines' counters merge by the counter table's rules; the simulated
/// time is the maximum machine clock; the iterations, the breakdown and
/// the trace are machine 0's (the first two the same on every machine).
pub fn assemble<P: VertexProgram>(
    mut outs: Vec<MachineOut<P>>,
    cfg: &EngineConfig,
    program: &P,
    num_vertices: usize,
    measured: Measured,
) -> RunResult<P> {
    let sim_time = outs.iter().map(|o| o.sim_time).fold(0.0, f64::max);
    let per_machine: Vec<StatsSnapshot> = outs.iter().map(|o| o.stats).collect();
    let mut stats = StatsSnapshot::default();
    for s in &per_machine {
        stats.merge(s);
    }
    let (iterations, converged, breakdown, history) = match outs.first_mut() {
        Some(o) => (o.iterations, o.converged, o.breakdown, std::mem::take(&mut o.history)),
        None => (0, true, SimBreakdown::default(), Vec::new()),
    };
    let mut values: Vec<Option<P::VData>> = vec![None; num_vertices];
    for out in outs {
        for (gid, v) in out.masters {
            // Invariant: placement gives every vertex exactly one master.
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
    let Measured { lambda, wall_time } = measured;
    RunResult {
        values,
        metrics: RunMetrics {
            engine: cfg.engine.name(),
            algorithm: program.name(),
            iterations,
            coherency_points: stats.coherency_points,
            local_subrounds: stats.local_subrounds,
            a2a_exchanges: stats.a2a_exchanges,
            m2m_exchanges: stats.m2m_exchanges,
            sim_time,
            breakdown,
            wall_time,
            stats,
            per_machine,
            converged,
            lambda,
            history,
        },
    }
}

/// One machine this process runs: its rank, its shard — one of a
/// placement the process holds, or the only one a worker loaded — its
/// endpoint into the run's mesh, the counters it and its endpoint count
/// into, and its checkpoint/resume configuration. The machine owns its
/// endpoint: when it ends, or fails, it closes.
pub struct Seat<'a, T> {
    pub me: usize,
    pub shard: &'a LocalShard,
    pub ep: Endpoint<T>,
    /// This machine's own counters: no other machine counts into them.
    pub stats: Arc<NetStats>,
    pub recovery: RecoveryCfg,
}

/// How a process joins a run's mesh. Its item type is only known once
/// [`run_mesh_engine`] has picked the engine, so joining is a generic
/// method rather than a ready-made endpoint list.
pub trait Attach<'a> {
    /// Builds (or connects) the mesh typed `T` and returns the seats this
    /// process runs, each with fresh counters of its own.
    fn attach<T: Wire + Send + 'static>(self) -> Result<Vec<Seat<'a, T>>, CommError>;
}

/// Every machine of the run as a thread of this process — one per shard
/// of a placement the process holds — on a freshly built mesh of the given
/// transport; no checkpointing.
pub struct ThreadedMesh<'a> {
    pub transport: TransportKind,
    pub shards: &'a [LocalShard],
}

impl<'a> Attach<'a> for ThreadedMesh<'a> {
    fn attach<T: Wire + Send + 'static>(self) -> Result<Vec<Seat<'a, T>>, CommError> {
        let stats: Vec<Arc<NetStats>> = self.shards.iter().map(|_| Arc::default()).collect();
        let eps = build_machine_endpoints::<T>(self.transport, &stats)?;
        Ok(eps
            .into_iter()
            .zip(self.shards.iter().zip(stats))
            .enumerate()
            .map(|(me, (ep, (shard, stats)))| Seat {
                me,
                shard,
                ep,
                stats,
                recovery: RecoveryCfg::default(),
            })
            .collect())
    }
}

/// Runs this process's machines of a run of `cfg.engine` — any of the six
/// — over a placement of `shape` and returns their outcomes in seat order.
/// The one entry the in-process driver and the worker binary share, so a
/// threaded run and a multiprocess run of the same job are bitwise
/// identical by construction. Everything a machine records, its counters
/// included, comes back in its outcome.
pub fn run_mesh_engine<'a, P: VertexProgram>(
    shape: &PlacementShape,
    cfg: &EngineConfig,
    program: &P,
    mesh: impl Attach<'a>,
) -> Result<Vec<MachineOut<P>>, CommError> {
    match cfg.engine {
        EngineKind::PowerGraphSync => run_seats::<P, SyncStep<P>>(shape, cfg, program, mesh),
        EngineKind::LazyBlockAsync => run_seats::<P, LazyStep<P>>(shape, cfg, program, mesh),
        EngineKind::DeltaAccum => run_seats::<P, DeltaStep>(shape, cfg, program, mesh),
        EngineKind::PowerGraphAsync => run_seats::<P, AsyncPump<P>>(shape, cfg, program, mesh),
        EngineKind::LazyVertexAsync => run_seats::<P, LazyVertexPump>(shape, cfg, program, mesh),
        EngineKind::PowerSwitchHybrid => run_seats::<P, HybridStep<P>>(shape, cfg, program, mesh),
    }
}

fn run_seats<'a, P: VertexProgram, S: Superstep<P>>(
    shape: &PlacementShape,
    cfg: &EngineConfig,
    program: &P,
    mesh: impl Attach<'a>,
) -> Result<Vec<MachineOut<P>>, CommError> {
    // Every pool exists before the first machine thread does: a host that
    // refuses a pool thread fails the run here, where no machine is yet
    // waiting at a barrier for the one that could not start.
    let seats = mesh
        .attach::<(u32, S::Msg)>()?
        .into_iter()
        .map(|seat| Ok((seat, ParallelCtx::new(cfg.parallel(shape.num_machines))?)))
        .collect::<Result<Vec<_>, CommError>>()?;
    lazygraph_cluster::try_run_machines(seats, |(seat, pctx)| {
        run_machine::<P, S>(shape, cfg, program, seat, pctx)
    })
}

/// The superstep skeleton (module docs).
fn run_machine<P: VertexProgram, S: Superstep<P>>(
    shape: &PlacementShape,
    cfg: &EngineConfig,
    program: &P,
    seat: Seat<'_, (u32, S::Msg)>,
    pctx: ParallelCtx,
) -> Result<MachineOut<P>, CommError> {
    let Seat {
        me,
        shard,
        ep,
        stats,
        mut recovery,
    } = seat;
    let mut f = Frame {
        me,
        cfg,
        program,
        num_vertices: shape.num_global_vertices,
        ev_ratio: shape.ev_ratio,
        pctx,
        state: MachineState::init(shard, program, S::LAYOUT, shape.num_global_vertices),
        shard,
        clock: SimClock::new(),
        bsp: BspSync::new(cfg.cost),
        port: Port::new(ep, stats.clone()),
        stats,
        iterations: 0,
        history: Vec::new(),
    };

    let mut carry = S::Carry::default();
    if let Some(snapshot) = recovery.resume.take() {
        let fail = |e: CheckpointError| CommError::Transport {
            me,
            detail: e.to_string(),
        };
        let header = snapshot.header();
        header.check_engine(S::KIND).map_err(fail)?;
        header.check_clock().map_err(fail)?;
        carry = S::Carry::from_wire(&header.carry).map_err(|e| fail(e.into()))?;
        // Straight from the file into the arrays `init` has just built.
        let (header, bytes) = snapshot.restore_into(&mut f.state, &mut f.history).map_err(fail)?;
        // The counters go on from the cut, and the save of this
        // generation counted its own bytes after the header was written.
        f.stats.restore(&header.counters);
        f.stats.record_snapshot_bytes(bytes);
        f.clock.set(header.clock);
        f.bsp.breakdown = header.breakdown;
        f.bsp.last_global = header.last_global;
        f.iterations = header.iterations;
        // Every machine of the gang resumes from this same generation on
        // fresh meshes, so the checkpoint barrier it was saved before is
        // not run again (DESIGN.md §12).
    }
    let mut engine = S::new(&f, carry);

    let mut converged = false;
    while f.iterations < cfg.max_iterations {
        f.iterations += 1;
        lazygraph_cluster::failpoint_superstep(f.iterations);
        let vote = engine.step(&mut f)?;
        f.book_step(engine.carry());
        if vote == Vote::Converged {
            converged = true;
            break;
        }
        if let Some(store) = recovery.store.as_ref().filter(|_| recovery.due(f.iterations)) {
            checkpoint_at_barrier(&mut f, store, S::KIND, engine.carry())?;
        }
    }

    Ok(MachineOut::collect(f, converged))
}
