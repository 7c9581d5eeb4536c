//! The PowerGraph **Async** baseline: eager replica coherency without
//! global barriers (§2.2, Issue III).
//!
//! Changes to vertex data are "copied to all replicas of v as soon as
//! possible": a mirror that receives messages forwards them to the master
//! immediately; a master that applies broadcasts the new vertex data to all
//! mirrors immediately. There is no batching across supersteps — every turn
//! of the pump flushes — so the engine pays a fixed per-message overhead on
//! every hop. On high-diameter graphs the dependency chains of fine-grained
//! messages dominate, which is exactly the degradation Fig. 12(e) shows for
//! Async beyond ~16 machines.
//!
//! On the superstep skeleton the whole run is one step: [`AsyncPump`] drives
//! the port's [`Pump`] to quiescence and votes converged (DESIGN.md §17).

use lazygraph_cluster::{Batch, CommError, CostModel, NetStats, Phase};
use lazygraph_net::NetError;
use lazygraph_partition::LocalShard;

use crate::config::EngineKind;
use crate::exchange::{Pump, PumpStep};
use crate::machine::{Frame, Superstep, Vote};
use crate::parallel::ParallelCtx;
use crate::program::VertexProgram;
use crate::state::{vertex_ctx, InitMessages, MachineState};
use crate::sync_engine::{scatter, SyncMsg};

/// The Async engine: an eager pump over a machine's state. Also the tail
/// of the hybrid engine, which pumps the state its Sync supersteps left.
pub struct AsyncPump<P: VertexProgram> {
    /// Scatter deltas this replica owes its local out-edges; filled by one
    /// turn (applied masters) and by inbound Updates, drained by the next.
    scatter_tasks: Vec<(u32, P::Delta)>,
}

impl<P: VertexProgram> AsyncPump<P> {
    /// Pumps `f`'s machine until the whole run is quiescent.
    pub(crate) fn pump(&mut self, f: &mut Frame<'_, P, SyncMsg<P>>) -> Result<(), CommError> {
        let update_bytes = f.program.vdata_bytes() + std::mem::size_of::<P::Delta>();
        let pump = f.port.pump(&mut f.clock, f.cfg, Phase::Async, update_bytes)?;
        pump.run(&mut AsyncTurn {
            scatter_tasks: &mut self.scatter_tasks,
            state: &mut f.state,
            shard: f.shard,
            pctx: &f.pctx,
            program: f.program,
            stats: &f.stats,
            num_vertices: f.num_vertices,
            cost: f.cfg.cost,
        })
    }
}

impl<P: VertexProgram> Superstep<P> for AsyncPump<P> {
    type Msg = SyncMsg<P>;
    const KIND: EngineKind = EngineKind::PowerGraphAsync;
    const INIT: InitMessages = InitMessages::MastersOnly;

    fn new(_frame: &Frame<'_, P, SyncMsg<P>>) -> Self {
        AsyncPump {
            scatter_tasks: Vec::new(),
        }
    }

    fn step(&mut self, f: &mut Frame<'_, P, SyncMsg<P>>) -> Result<Vote, CommError> {
        // The pump is the whole run, not a superstep: a barrier-free
        // engine reports none (`RunMetrics::iterations`).
        f.iterations = 0;
        self.pump(f)?;
        Ok(Vote::Converged)
    }
}

/// The frame minus its port and clock (the pump drives those) for the
/// length of one [`AsyncPump::pump`].
struct AsyncTurn<'a, P: VertexProgram> {
    scatter_tasks: &'a mut Vec<(u32, P::Delta)>,
    state: &'a mut MachineState<P>,
    shard: &'a LocalShard,
    pctx: &'a ParallelCtx,
    program: &'a P,
    stats: &'a NetStats,
    num_vertices: usize,
    cost: CostModel,
}

/// What one worklist entry of a turn comes to.
enum Pumped<P: VertexProgram> {
    Applied {
        l: u32,
        data: P::VData,
        d: Option<P::Delta>,
    },
    Forward { l: u32, accum: P::Delta },
    Quiet { l: u32 },
}

impl<P: VertexProgram> PumpStep<(u32, SyncMsg<P>)> for AsyncTurn<'_, P> {
    /// Accum/Update translation stays serial per batch — Updates overwrite
    /// `vdata` in place (so this path cannot cursor-route raw TCP batches),
    /// and async batches are small by design.
    fn absorb(&mut self, batch: &mut Batch<(u32, SyncMsg<P>)>) -> Result<(), NetError> {
        let (shard, program) = (self.shard, self.program);
        batch.make_items()?;
        let accums = &mut self.state.scratch.staging.open_blocks(self.pctx, shard.num_local(), 1)[0];
        for (gid, msg) in batch.items.drain(..) {
            let l = shard
                .local_of(gid.into())
                .expect("async message routed to non-replica"); // lazylint: allow(no-panic) -- replica routing table guarantees locality; a miss is a partitioner bug
            match msg {
                SyncMsg::Accum(d) => {
                    debug_assert!(shard.is_master[l as usize]);
                    accums.stage(l, program.gather(gid.into(), d), false);
                }
                SyncMsg::Update { data, scatter } => {
                    self.state.vdata[l as usize] = data;
                    if let Some(d) = scatter {
                        self.scatter_tasks.push((l, d));
                    }
                }
            }
        }
        self.state.deliver_staged(program, self.pctx);
        Ok(())
    }

    /// Scatters the deltas received from masters, then pumps the worklist
    /// once: masters apply + broadcast eagerly, mirrors forward their
    /// accumulators eagerly. Self-pumping: the scatter tasks this turn's
    /// applies produce are handled by the next turn.
    fn turn(&mut self, pump: &mut Pump<'_, (u32, SyncMsg<P>)>) -> Result<bool, CommError> {
        if self.state.queue.is_empty() && self.scatter_tasks.is_empty() {
            return Ok(false);
        }
        let (shard, program, pctx, cost) = (self.shard, self.program, self.pctx, self.cost);
        let (state, num_vertices) = (&mut *self.state, self.num_vertices);
        let edges = scatter(shard, state, program, num_vertices, pctx, self.scatter_tasks);

        // Blocked two-phase: applies run on clones of the vertex value
        // against a read-only snapshot, then everything commits in block
        // order (the sorted worklist makes the blocking reproducible).
        let mut worklist = state.take_queue();
        worklist.sort_unstable();
        let (message_view, vdata_view) = (&state.message, &state.vdata);
        let pump_blocks: Vec<Vec<Pumped<P>>> = pctx.map_chunks(&worklist, |chunk| {
            chunk
                .iter()
                .map(|&l| {
                    let Some(accum) = message_view[l as usize] else {
                        return Pumped::Quiet { l };
                    };
                    if shard.is_master[l as usize] {
                        let ctx = vertex_ctx(shard, l, num_vertices);
                        let mut data = vdata_view[l as usize].clone();
                        let d = program.apply(shard.global_of(l), &mut data, accum, &ctx);
                        Pumped::Applied { l, data, d }
                    } else {
                        Pumped::Forward { l, accum }
                    }
                })
                .collect()
        });
        let mut applies = 0u64;
        for entry in pump_blocks.into_iter().flatten() {
            match entry {
                Pumped::Applied { l, data, d } => {
                    state.message[l as usize] = None;
                    state.active[l as usize] = false;
                    pump.clock.advance(cost.async_apply_time());
                    applies += 1;
                    let gid = shard.global_of(l).0;
                    for &m in shard.mirrors(l).iter() {
                        let update = SyncMsg::Update {
                            data: data.clone(),
                            scatter: d,
                        };
                        pump.outboxes.push(m.index(), (gid, update));
                    }
                    state.vdata[l as usize] = data;
                    if let Some(d) = d {
                        self.scatter_tasks.push((l, d));
                    }
                }
                Pumped::Forward { l, accum } => {
                    state.message[l as usize] = None;
                    state.active[l as usize] = false;
                    let gid = shard.global_of(l).0;
                    pump.outboxes
                        .push(shard.master_of[l as usize].index(), (gid, SyncMsg::Accum(accum)));
                }
                Pumped::Quiet { l } => {
                    state.active[l as usize] = false;
                }
            }
        }
        self.stats.record_edges(edges);
        self.stats.record_applies(applies);
        pump.clock.advance(cost.compute_time(edges) + cost.apply_time(applies));
        Ok(true)
    }
}
