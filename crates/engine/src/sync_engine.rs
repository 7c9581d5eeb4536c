//! The PowerGraph **Sync** baseline: BSP GAS with *eager* replica
//! coherency (§2.2, Issue I).
//!
//! Every superstep runs three globally synchronised phases:
//!
//! 1. **Gather** — every mirror forwards its accumulated messages to the
//!    master (communication #1, sync #1);
//! 2. **Apply** — masters apply and immediately broadcast the updated
//!    vertex data (plus the scatter delta) to all mirrors (communication
//!    #2, sync #2) — the "any change must be immediately communicated to
//!    all replicas" rule;
//! 3. **Scatter** — every replica scatters the delta along its local
//!    out-edges (sync #3, with the termination vote).
//!
//! That is exactly the paper's "two communications and three
//! synchronizations to update vertex data".

use lazygraph_cluster::{CommError, Phase};
use lazygraph_net::{NetError, Wire, WireReader};
use lazygraph_partition::{LocalShard, NO_LOCAL};

use crate::bsp::{BspReduction, CommCharge};
use crate::config::EngineKind;
use crate::machine::{Frame, Superstep, Vote};
use crate::metrics::IterationRecord;
use crate::parallel::ParallelCtx;
use crate::program::{EdgeCtx, VertexProgram};
use crate::state::{vertex_ctx, InitMessages, MachineState};

/// Wire message of the Sync engine.
pub enum SyncMsg<P: VertexProgram> {
    /// Mirror → master: a partial accumulator.
    Accum(P::Delta),
    /// Master → mirror: the authoritative new vertex data plus the scatter
    /// delta (if the apply activated neighbours).
    Update {
        data: P::VData,
        scatter: Option<P::Delta>,
    },
}

impl<P: VertexProgram> Wire for SyncMsg<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SyncMsg::Accum(d) => {
                out.push(0);
                d.encode(out);
            }
            SyncMsg::Update { data, scatter } => {
                out.push(1);
                data.encode(out);
                scatter.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match r.take_u8()? {
            0 => Ok(SyncMsg::Accum(P::Delta::decode(r)?)),
            1 => Ok(SyncMsg::Update {
                data: P::VData::decode(r)?,
                scatter: Option::<P::Delta>::decode(r)?,
            }),
            tag => Err(NetError::BadTag {
                tag,
                ty: "SyncMsg",
            }),
        }
    }
}

/// The eager engines' scatter: every `(replica, delta)` task scatters
/// along the replica's local out-edges, and the deliveries fold into
/// `message`. Scatter reads vertex data but only the fold mutates
/// anything, so source blocks stage their deliveries in parallel and
/// `deliver_staged` folds them in block order — the flat task order, at
/// every thread count. Drains `tasks`; returns the edges traversed.
pub(crate) fn scatter<P: VertexProgram>(
    shard: &LocalShard,
    state: &mut MachineState<P>,
    program: &P,
    num_vertices: usize,
    pctx: &ParallelCtx,
    tasks: &mut Vec<(u32, P::Delta)>,
) -> u64 {
    let vdata_view = &state.vdata;
    let blocks = state.scratch.staging.source_blocks(pctx, vdata_view.len(), tasks);
    let block_edges: Vec<u64> = pctx.pool().map(blocks, |(chunk, b)| {
        let mut edges = 0u64;
        for &(l, d) in chunk {
            let v = shard.global_of(l);
            let ctx = vertex_ctx(shard, l, num_vertices);
            let data = &vdata_view[l as usize];
            for (tl, weight, _mode) in shard.out_edges(l) {
                edges += 1;
                let edge = EdgeCtx {
                    dst: shard.global_of(tl),
                    weight,
                };
                if let Some(msg) = program.scatter(v, data, d, &ctx, &edge) {
                    b.stage(tl, msg, false);
                }
            }
        }
        edges
    });
    tasks.clear();
    state.deliver_staged(program, pctx);
    block_edges.into_iter().sum()
}

/// The Sync engine on the superstep skeleton. It carries no state a
/// checkpoint needs beyond `MachineState` — nothing in the three vectors
/// outlives the superstep that filled them; they only keep their capacity.
pub struct SyncStep<P: VertexProgram> {
    scatter_tasks: Vec<(u32, P::Delta)>,
    worklist: Vec<u32>,
    master_worklist: Vec<u32>,
    /// The globally reduced pending-message count of the last vote (what
    /// the hybrid engine's switch rule reads).
    pub(crate) pending: u64,
}

impl<P: VertexProgram> Superstep<P> for SyncStep<P> {
    type Msg = SyncMsg<P>;
    const KIND: EngineKind = EngineKind::PowerGraphSync;
    const INIT: InitMessages = InitMessages::MastersOnly;

    fn new(_frame: &Frame<'_, P, SyncMsg<P>>) -> Self {
        SyncStep {
            scatter_tasks: Vec::new(),
            worklist: Vec::new(),
            master_worklist: Vec::new(),
            pending: 0,
        }
    }

    fn step(&mut self, f: &mut Frame<'_, P, SyncMsg<P>>) -> Result<Vote, CommError> {
        let (program, num_vertices, cost) = (f.program, f.num_vertices, f.cfg.cost);
        let (shard, pctx, stats) = (f.shard, &f.pctx, &*f.stats);
        let (state, port, clock, bsp) = (&mut f.state, &mut f.port, &mut f.clock, &mut f.bsp);
        let SyncStep {
            scatter_tasks,
            worklist,
            master_worklist,
            pending,
        } = self;
        let delta_bytes = program.delta_bytes();
        let update_bytes = program.vdata_bytes() + std::mem::size_of::<P::Delta>();

        // ---- Phase 1: gather (mirrors forward partials to masters). ----
        // Blocked two-phase: the sorted worklist is chunked, each block
        // classifies its entries against a read-only view of `message`,
        // and the per-block routings commit in block-index order — same
        // worklist, same outboxes, at every thread count.
        let mut sent_bytes = 0u64;
        master_worklist.clear();
        state.take_queue_into(worklist);
        worklist.sort_unstable();
        struct GatherBlock<P: VertexProgram> {
            masters: Vec<u32>,
            forwards: Vec<(usize, u32, P::Delta)>,
            deactivate: Vec<u32>,
        }
        let message_view = &state.message;
        let gather_blocks: Vec<GatherBlock<P>> = pctx.map_chunks(worklist, |chunk| {
            let mut b = GatherBlock::<P> {
                masters: Vec::new(),
                forwards: Vec::new(),
                deactivate: Vec::new(),
            };
            for &l in chunk {
                if shard.is_master[l as usize] {
                    // Masters keep their accumulator; active flag stays set
                    // so late deliveries do not double-queue them.
                    b.masters.push(l);
                } else {
                    if let Some(d) = message_view[l as usize] {
                        let dst = shard.master_of[l as usize].index();
                        b.forwards.push((dst, l, d));
                    }
                    b.deactivate.push(l);
                }
            }
            b
        });
        // Gather-round batches carry only Accums (phase-tagged BSP
        // lockstep); block-parallel routing feeds the masters directly.
        let route = shard.route_table();
        let mut round = port.fold_round(
            pctx,
            shard.num_local(),
            Phase::Gather,
            delta_bytes,
            |(gid, msg): (u32, SyncMsg<P>)| match msg {
                SyncMsg::Accum(d) => match route.get(gid as usize) {
                    Some(&l) if l != NO_LOCAL => Some((l, program.gather(gid.into(), d))),
                    _ => None,
                },
                SyncMsg::Update { .. } => None,
            },
        );
        for b in gather_blocks {
            master_worklist.extend(b.masters);
            for (dst, l, d) in b.forwards {
                state.message[l as usize] = None;
                round.outboxes().push(dst, (shard.global_of(l).0, SyncMsg::Accum(d)));
                sent_bytes += delta_bytes as u64;
            }
            for l in b.deactivate {
                state.active[l as usize] = false;
            }
        }
        round.close(program, state, clock.now())?;
        // Newly activated masters ended up on the queue.
        master_worklist.append(&mut state.queue);
        master_worklist.sort_unstable();
        bsp.sync(
            clock,
            BspReduction {
                bytes: sent_bytes,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;

        // ---- Phase 2: apply at masters, broadcast updates. --------------
        // Blocked two-phase again: each block applies into a *clone* of
        // the vertex value (apply is a pure function of value + accum),
        // then the clones, broadcasts and scatter tasks commit in block
        // order.
        let mut sent_bytes = 0u64;
        let mut applies = 0u64;
        let (message_view, vdata_view) = (&state.message, &state.vdata);
        #[allow(clippy::type_complexity)]
        let apply_blocks: Vec<Vec<(u32, P::VData, Option<P::Delta>)>> =
            pctx.map_chunks(master_worklist, |chunk| {
                let mut out = Vec::new();
                for &l in chunk {
                    let Some(accum) = message_view[l as usize] else {
                        continue;
                    };
                    let v = shard.global_of(l);
                    let ctx = vertex_ctx(shard, l, num_vertices);
                    let mut data = vdata_view[l as usize].clone();
                    let d = program.apply(v, &mut data, accum, &ctx);
                    out.push((l, data, d));
                }
                out
            });
        for &l in master_worklist.iter() {
            state.message[l as usize] = None;
            state.active[l as usize] = false;
        }
        // Updates overwrite `vdata` and append to `scatter_tasks`, whose
        // order feeds phase 3's worklist — so this is a sender-ordered
        // round: remote updates commit at the close, after every local
        // one, in sender order.
        let mut round = port.ordered_round(Phase::Apply, update_bytes);
        for block in apply_blocks {
            for (l, data, d) in block {
                let v = shard.global_of(l);
                applies += 1;
                // Eager coherency: the changed data goes to every mirror
                // now.
                for &m in shard.mirrors(l).iter() {
                    let dst = m.index();
                    let update = SyncMsg::Update {
                        data: data.clone(),
                        scatter: d,
                    };
                    round.outboxes().push(dst, (v.0, update));
                    sent_bytes += update_bytes as u64;
                }
                state.vdata[l as usize] = data;
                if let Some(d) = d {
                    scatter_tasks.push((l, d));
                }
            }
        }
        stats.record_applies(applies);
        clock.advance(cost.apply_time(applies));
        round.close(clock.now(), |(gid, msg)| {
            if let SyncMsg::Update { data, scatter } = msg {
                let l = shard
                    .local_of(gid.into())
                    .expect("update routed to non-replica"); // lazylint: allow(no-panic) -- replica routing table guarantees locality; a miss is a partitioner bug
                state.vdata[l as usize] = data;
                if let Some(d) = scatter {
                    scatter_tasks.push((l, d));
                }
            }
        })?;
        bsp.sync(
            clock,
            BspReduction {
                bytes: sent_bytes,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;

        // ---- Phase 3: scatter on every replica along local out-edges. ---
        let edges = scatter(shard, state, program, num_vertices, pctx, scatter_tasks);
        stats.record_edges(edges);
        clock.advance(cost.compute_time(edges));
        let red = bsp.sync(
            clock,
            BspReduction {
                pending: state.pending_messages(),
                applied: applies,
                ..Default::default()
            },
            CommCharge::None,
        )?;
        *pending = red.pending;
        if let Some(h) = &f.history {
            h.lock().push(IterationRecord {
                iteration: f.iterations,
                pending: red.pending,
                bytes: 0, // per-phase bytes are in NetStats
                sim_time: clock.now(),
                ..Default::default()
            });
        }
        Ok(Vote::of(red.pending))
    }
}
