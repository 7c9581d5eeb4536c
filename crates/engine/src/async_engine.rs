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
//! the port's [`Pump`] until the machines' vote ends it, and votes
//! converged (DESIGN.md §17).

use lazygraph_cluster::{Batch, CommError, CostModel, NetStats, Phase};
use lazygraph_net::NetError;
use lazygraph_partition::LocalShard;

use crate::config::EngineKind;
use crate::exchange::{misrouted, route_item, Pump, PumpStep};
use crate::machine::{Frame, Superstep, Vote};
use crate::parallel::ParallelCtx;
use crate::program::VertexProgram;
use crate::state::{vertex_ctx, InitMessages, MachineState};
use crate::sync_engine::{scatter, Receipt, SyncMsg, SCATTER_WINDOW};

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
        let pump = f.port.pump(&mut f.clock, &f.bsp.coll, f.cfg.cost, Phase::Async, update_bytes);
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
    type Carry = ();
    const KIND: EngineKind = EngineKind::PowerGraphAsync;
    const INIT: InitMessages = InitMessages::MastersOnly;

    fn new(_frame: &Frame<'_, P, SyncMsg<P>>, (): ()) -> Self {
        AsyncPump {
            scatter_tasks: Vec::new(),
        }
    }

    fn carry(&self) -> &() {
        &()
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

impl<P: VertexProgram> PumpStep<(u32, SyncMsg<P>)> for AsyncTurn<'_, P> {
    /// Accum/Update translation stays serial per batch — Updates overwrite
    /// `vdata` in place, and async batches are small by design — and walks
    /// a TCP batch straight off its frame ([`Batch::drain_each`]).
    fn absorb(&mut self, batch: &mut Batch<(u32, SyncMsg<P>)>) -> Result<(), NetError> {
        let (shard, program, from) = (self.shard, self.program, batch.from);
        let (state, tasks) = (&mut *self.state, &mut *self.scatter_tasks);
        let accums = &mut state.scratch.staging.open_blocks(self.pctx, shard.num_local(), 1)[0];
        let vdata = &mut state.vdata;
        batch.drain_each(|(gid, msg)| {
            let l = route_item(shard.route_table(), from, gid)?;
            match msg {
                SyncMsg::Accum(d) => {
                    if !shard.is_master(l) {
                        return Err(misrouted(from, "an accumulator", gid, "is not the master"));
                    }
                    accums.stage(l, program.gather(gid.into(), d), false);
                }
                SyncMsg::Update { data, scatter } => {
                    vdata[l as usize] = data;
                    tasks.extend(scatter.map(|d| (l, d)));
                }
            }
            Ok(())
        })?;
        state.deliver_staged(program, self.pctx);
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
        let (tasks, window) = (&mut *self.scatter_tasks, SCATTER_WINDOW);
        let (edges, _) =
            scatter(shard, state, program, num_vertices, pctx, tasks, Receipt::Inbox, window);

        // In place, in worklist order, as Sync's phase 2 applies: an apply
        // reads and writes only its own vertex, so the sorted worklist
        // alone fixes the order of clock advances, outbox items and
        // scatter tasks.
        let mut worklist = state.take_queue();
        worklist.sort_unstable();
        let mut applies = 0u64;
        for &l in &worklist {
            state.active[l as usize] = false;
            let Some(accum) = state.message[l as usize].take() else { continue };
            let v = shard.global_of(l);
            if !shard.is_master(l) {
                let master = shard.master_of[l as usize].index();
                pump.outboxes.push(master, (v.0, SyncMsg::Accum(accum)));
                continue;
            }
            let ctx = vertex_ctx(shard, l, num_vertices);
            let data = &mut state.vdata[l as usize];
            let d = program.apply(v, data, accum, &ctx);
            pump.clock.advance(cost.async_apply_time());
            applies += 1;
            for &m in shard.mirrors(l).iter() {
                let update = SyncMsg::Update { data: data.clone(), scatter: d };
                pump.outboxes.push(m.index(), (v.0, update));
            }
            tasks.extend(d.map(|d| (l, d)));
        }
        self.stats.record_edges(edges);
        self.stats.record_applies(applies);
        pump.clock.advance(cost.compute_time(edges) + cost.apply_time(applies));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use lazygraph_cluster::RawBatch;
    use lazygraph_graph::generators::{rmat, RmatConfig};
    use lazygraph_net::{FrameKind, Wire};
    use lazygraph_partition::{partition_graph, PartitionStrategy, SplitterConfig};

    use super::*;
    use crate::exchange::tests::Sum;
    use crate::parallel::ParallelConfig;

    type Absorbed = (Vec<u64>, Vec<Option<u64>>, Vec<(u32, u64)>);

    /// Absorbs `batch` into a fresh state of `shard`: its `vdata`, its
    /// messages and the scatter tasks the batch left.
    fn absorbed(
        shard: &LocalShard,
        num_vertices: usize,
        batch: &mut Batch<(u32, SyncMsg<Sum>)>,
    ) -> Result<Absorbed, NetError> {
        let pctx = ParallelCtx::new(ParallelConfig { threads: 1, block_size: 4 }).expect("spawn pool");
        let mut state = MachineState::init(shard, &Sum, InitMessages::MastersOnly, num_vertices);
        let (mut tasks, stats) = (Vec::new(), NetStats::new());
        let mut turn = AsyncTurn {
            scatter_tasks: &mut tasks,
            state: &mut state,
            shard,
            pctx: &pctx,
            program: &Sum,
            stats: &stats,
            num_vertices,
            cost: CostModel::paper_cluster(),
        };
        turn.absorb(batch)?;
        Ok((state.vdata, state.message, tasks))
    }

    #[test]
    fn absorb_walks_a_raw_cursor_as_it_walks_materialized_items() {
        let g = rmat(RmatConfig::graph500(6, 4, 11));
        let dg = partition_graph(&g, 2, PartitionStrategy::Random, &SplitterConfig::disabled(), false);
        let (shard, n) = (&dg.shards[1], dg.num_global_vertices);
        // What machine 0 may send machine 1: an accumulator for each of
        // its masters, an update for each of its mirrors.
        let items = || -> Vec<(u32, SyncMsg<Sum>)> {
            (0..shard.num_local() as u32)
                .map(|l| {
                    let (gid, x) = (shard.global_of(l).0, u64::from(l) + 1);
                    let msg = if shard.is_master(l) {
                        SyncMsg::Accum(x)
                    } else {
                        SyncMsg::Update { data: 100 * x, scatter: (l % 2 == 0).then_some(x) }
                    };
                    (gid, msg)
                })
                .collect()
        };
        let kinds = items().iter().map(|(_, m)| matches!(m, SyncMsg::Accum(_))).collect::<Vec<_>>();
        assert!(kinds.contains(&true) && kinds.contains(&false), "both kinds of message");
        let batch = |items, raw| Batch {
            from: 0,
            sent_at: 0.0,
            round: u64::MAX,
            last: true,
            kind: FrameKind::Data,
            items,
            raw,
        };
        let wire = |items: &[(u32, SyncMsg<Sum>)]| {
            let mut bytes = vec![0xAB; 5];
            items.iter().for_each(|it| it.encode(&mut bytes));
            RawBatch { bytes, offset: 5, count: items.len() as u32 }
        };

        let materialized = absorbed(shard, n, &mut batch(items(), None)).expect("materialized");
        let mut raw = batch(Vec::new(), Some(wire(&items())));
        assert_eq!(absorbed(shard, n, &mut raw).expect("raw"), materialized);
        assert!(!materialized.2.is_empty() && materialized.1.iter().any(Option::is_some));
        assert_eq!(raw.item_count(), 0, "absorb drains the batch");
        assert_eq!(raw.items.capacity(), 0, "a raw batch is recycled with no item vector");

        // A torn item region fails typed.
        let mut torn = wire(&items());
        torn.bytes.truncate(torn.bytes.len() - 2);
        let refused = absorbed(shard, n, &mut batch(Vec::new(), Some(torn)));
        assert!(matches!(refused, Err(NetError::Truncated { .. })), "{refused:?}");
    }
}
