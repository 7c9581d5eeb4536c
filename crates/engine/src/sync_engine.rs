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
//!
//! Phase 3 is [`scatter`], the one per-edge loop of all six engines: Async
//! and hybrid call it as Sync does, and the lazy family after its apply
//! pass, with a receipt rule that also folds into `deltaMsg`
//! ([`crate::lazy_block::apply_scatter`]). It stages and folds one window
//! of [`SCATTER_WINDOW`] items at a time, so a sweep never holds more.

use lazygraph_cluster::{CommError, Phase};
use lazygraph_net::{NetError, Wire, WireReader};
use lazygraph_partition::{EdgeMode, LocalShard};

use crate::bsp::{BspReduction, CommCharge};
use crate::config::EngineKind;
use crate::machine::{Frame, Superstep, Vote};
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

/// Most items one scatter window stages before they fold: 1 MiB of 16-byte
/// items. A constant, not a knob — window boundaries decide the order of
/// `queue`, which a snapshot records, so they may depend on neither the
/// thread count nor the block size.
pub(crate) const SCATTER_WINDOW: usize = 1 << 16;

/// Where a local delivery folds besides the target's inbox.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Receipt {
    /// Nowhere: the eager engines broadcast instead.
    Inbox,
    /// A one-edge-mode receipt on a replicated target also folds into
    /// `deltaMsg` (the lazy family, §3.2).
    InboxAndDelta,
}

/// Every engine's one scatter: each `(replica, delta)` task scatters along
/// the replica's local out-edges from its committed `vdata`, and the
/// deliveries fold per `receipt`. Tasks go in windows whose local
/// out-degrees sum to at most `window` (a task with more out-edges is a
/// window alone). In a window, source blocks stage in parallel and
/// `deliver_staged` folds in block order; windows fold in task order. So
/// every target's ⊕ sequence is the flat task order at every thread count
/// and window, and staging never holds more than one window. Drains
/// `tasks`; returns the edges traversed and the `deltaMsg` folds into an
/// occupied slot.
#[expect(
    clippy::too_many_arguments,
    reason = "the scatter's inputs, its receipt rule and its window"
)]
pub(crate) fn scatter<P: VertexProgram>(
    shard: &LocalShard,
    state: &mut MachineState<P>,
    program: &P,
    num_vertices: usize,
    pctx: &ParallelCtx,
    tasks: &mut Vec<(u32, P::Delta)>,
    receipt: Receipt,
    window: usize,
) -> (u64, u64) {
    let (mut edges, mut folds, mut rest) = (0, 0, &tasks[..]);
    while !rest.is_empty() {
        let (mut len, mut staged) = (0, 0);
        while let Some(&(l, _)) = rest.get(len) {
            let degree = shard.local_out_degree(l);
            if len > 0 && staged + degree > window {
                break;
            }
            (len, staged) = (len + 1, staged + degree);
        }
        let vdata_view = &state.vdata;
        let degree = |&(l, _): &(u32, P::Delta)| shard.local_out_degree(l);
        let blocks = state.scratch.staging.source_blocks(pctx, &rest[..len], degree);
        pctx.pool().map(blocks, |(chunk, mut b)| {
            for &(l, d) in chunk {
                let (v, data) = (shard.global_of(l), &vdata_view[l as usize]);
                let ctx = vertex_ctx(shard, l, num_vertices);
                for (tl, weight, mode) in shard.out_edges(l) {
                    let edge = EdgeCtx {
                        dst: shard.global_of(tl),
                        weight,
                    };
                    if let Some(msg) = program.scatter(v, data, d, &ctx, &edge) {
                        let fold_delta = receipt == Receipt::InboxAndDelta
                            && mode == EdgeMode::OneEdge
                            && shard.has_mirrors(tl);
                        b.stage(tl, msg, fold_delta);
                    }
                }
            }
        });
        folds += state.deliver_staged(program, pctx);
        edges += staged as u64;
        rest = &rest[len..];
    }
    tasks.clear();
    (edges, folds)
}

/// The Sync engine on the superstep skeleton. It carries nothing across a
/// superstep boundary (`Carry = ()`): nothing in the three vectors
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
    type Carry = ();
    const KIND: EngineKind = EngineKind::PowerGraphSync;
    const INIT: InitMessages = InitMessages::MastersOnly;

    fn new(_frame: &Frame<'_, P, SyncMsg<P>>, (): ()) -> Self {
        SyncStep {
            scatter_tasks: Vec::new(),
            worklist: Vec::new(),
            master_worklist: Vec::new(),
            pending: 0,
        }
    }

    fn carry(&self) -> &() {
        &()
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
                if shard.is_master(l) {
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
        let mut round = port.fold_round(pctx, shard, Phase::Gather, delta_bytes, |_, gid, msg| {
            match msg {
                SyncMsg::Accum(d) => Ok(Some(program.gather(gid.into(), d))),
                SyncMsg::Update { .. } => Err(NetError::Malformed {
                    ty: "SyncMsg",
                    detail: format!("an update for vertex {gid} in a gather round"),
                }),
            }
        });
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
            port,
            clock,
            BspReduction {
                bytes: sent_bytes,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;

        // ---- Phase 2: apply at masters, broadcast updates. --------------
        // In place, in worklist order, as the lazy sweep applies: an apply
        // reads and writes only its own vertex, and nothing folds before
        // the last one. Updates overwrite `vdata` and append to
        // `scatter_tasks`, whose order feeds phase 3's worklist — so this
        // is a sender-ordered round: remote updates commit at the close,
        // after every local one, in sender order.
        let mut sent_bytes = 0u64;
        let mut applies = 0u64;
        let mut round = port.ordered_round(Phase::Apply, update_bytes);
        for &l in master_worklist.iter() {
            state.active[l as usize] = false;
            let Some(accum) = state.message[l as usize].take() else { continue };
            let (v, ctx) = (shard.global_of(l), vertex_ctx(shard, l, num_vertices));
            let data = &mut state.vdata[l as usize];
            let d = program.apply(v, data, accum, &ctx);
            applies += 1;
            // Eager coherency: the changed data goes to every mirror now.
            for &m in shard.mirrors(l).iter() {
                let update = SyncMsg::Update { data: data.clone(), scatter: d };
                round.outboxes().push(m.index(), (v.0, update));
                sent_bytes += update_bytes as u64;
            }
            scatter_tasks.extend(d.map(|d| (l, d)));
        }
        stats.record_applies(applies);
        clock.advance(cost.apply_time(applies));
        round.close(clock.now(), shard.route_table(), |_, l, msg| {
            if let SyncMsg::Update { data, scatter } = msg {
                state.vdata[l as usize] = data;
                if let Some(d) = scatter {
                    scatter_tasks.push((l, d));
                }
            }
            Ok(())
        })?;
        bsp.sync(
            port,
            clock,
            BspReduction {
                bytes: sent_bytes,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;

        // ---- Phase 3: scatter on every replica along local out-edges. ---
        let (edges, _) = scatter(
            shard,
            state,
            program,
            num_vertices,
            pctx,
            scatter_tasks,
            Receipt::Inbox,
            SCATTER_WINDOW,
        );
        stats.record_edges(edges);
        clock.advance(cost.compute_time(edges));
        let red = bsp.sync(
            port,
            clock,
            BspReduction {
                pending: state.pending_messages(),
                ..Default::default()
            },
            CommCharge::None,
        )?;
        *pending = red.pending;
        Ok(Vote::of(red.pending))
    }
}
