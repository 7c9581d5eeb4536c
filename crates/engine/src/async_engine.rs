//! The PowerGraph **Async** baseline: eager replica coherency without
//! global barriers (§2.2, Issue III).
//!
//! Changes to vertex data are "copied to all replicas of v as soon as
//! possible": a mirror that receives messages forwards them to the master
//! in the next round; a master that applies broadcasts the new vertex data
//! to all mirrors in the same round. There is no batching across rounds —
//! every round ships what its applies produced — and a receiver pays the
//! fine-grained messages' fixed charges (RPC dispatch and the lock round
//! trip, `CostModel::async_dispatch_time`) for one peer's stream after
//! another. The more machines, the more streams a round carries and the
//! longer every hop of a dependency chain takes: the degradation Fig. 12
//! shows for Async as the machine count grows.
//!
//! On the superstep skeleton a step is one round: apply at masters /
//! forward at mirrors, the round — whose batches carry each machine's vote
//! on whether it applied or forwarded anything — and scatter (DESIGN.md
//! §17). No step waits at a barrier: the round's arrivals reach the clock
//! as they land ([`Stamp::Arrivals`]).

use lazygraph_cluster::{CommError, Phase};

use crate::config::EngineKind;
use crate::exchange::{misrouted, Stamp};
use crate::machine::{Frame, Superstep, Vote};
use crate::program::VertexProgram;
use crate::state::{vertex_ctx, InitMessages};
use crate::sync_engine::{scatter, Receipt, SyncMsg, SCATTER_WINDOW};

/// The Async engine: one eager round a step. Also the tail of the hybrid
/// engine, which runs it on the state its Sync supersteps left. It
/// carries nothing across a step boundary (`Carry = ()`): the scatter
/// tasks a step collects are scattered before it ends.
pub struct AsyncPump<P: VertexProgram> {
    /// Scatter deltas this replica owes its local out-edges: its own
    /// applies' and its masters' inbound Updates', in that order.
    scatter_tasks: Vec<(u32, P::Delta)>,
    worklist: Vec<u32>,
}

impl<P: VertexProgram> Superstep<P> for AsyncPump<P> {
    type Msg = SyncMsg<P>;
    type Carry = ();
    const KIND: EngineKind = EngineKind::PowerGraphAsync;
    const INIT: InitMessages = InitMessages::MastersOnly;

    fn new(_frame: &Frame<'_, P, SyncMsg<P>>, (): ()) -> Self {
        AsyncPump {
            scatter_tasks: Vec::new(),
            worklist: Vec::new(),
        }
    }

    fn carry(&self) -> &() {
        &()
    }

    fn step(&mut self, f: &mut Frame<'_, P, SyncMsg<P>>) -> Result<Vote, CommError> {
        let (program, num_vertices, cost) = (f.program, f.num_vertices, f.cfg.cost);
        let (shard, pctx, stats) = (f.shard, &f.pctx, &*f.stats);
        let (state, port, clock) = (&mut f.state, &mut f.port, &mut f.clock);
        let AsyncPump { scatter_tasks: tasks, worklist } = self;
        let update_bytes = program.vdata_bytes() + std::mem::size_of::<P::Delta>();

        // Masters apply and broadcast, mirrors forward their accumulators:
        // in place, in worklist order, as Sync's phase 2 applies. An apply
        // reads and writes only its own vertex, so the sorted worklist
        // alone fixes the order of clock advances, outbox items and
        // scatter tasks.
        state.take_queue_into(worklist);
        worklist.sort_unstable();
        let mut busy = !worklist.is_empty();
        let mut round = port.ordered_round(Phase::Async, update_bytes);
        let mut applies = 0u64;
        for &l in worklist.iter() {
            state.active[l as usize] = false;
            let Some(accum) = state.message[l as usize].take() else { continue };
            let v = shard.global_of(l);
            if !shard.is_master(l) {
                let master = shard.master_of[l as usize].index();
                round.outboxes().push(master, (v.0, SyncMsg::Accum(accum)));
                continue;
            }
            let ctx = vertex_ctx(shard, l, num_vertices);
            let data = &mut state.vdata[l as usize];
            let d = program.apply(v, data, accum, &ctx);
            clock.advance(cost.async_apply_time());
            applies += 1;
            for &m in shard.mirrors(l).iter() {
                let update = SyncMsg::Update { data: data.clone(), scatter: d };
                round.outboxes().push(m.index(), (v.0, update));
            }
            tasks.extend(d.map(|d| (l, d)));
        }
        stats.record_applies(applies);
        clock.advance(cost.apply_time(applies));

        // The round, in sender order: Accums stage for one ⊕ fold, Updates
        // overwrite `vdata` and queue their scatter. Serial per item —
        // async batches are small by design — and off the frame for a TCP
        // batch.
        let accums = &mut state.scratch.staging;
        let vdata = &mut state.vdata;
        let stamp = Stamp::Arrivals { clock: &mut *clock, cost, busy: &mut busy };
        round.close(stamp, shard.route_table(), |from, l, msg| {
            let gid = shard.global_of(l);
            match msg {
                SyncMsg::Accum(d) if shard.is_master(l) => {
                    accums.push(l, program.gather(gid, d), false)
                }
                SyncMsg::Accum(_) => {
                    return Err(misrouted(from, "an accumulator", gid.0, "is not the master"))
                }
                SyncMsg::Update { data, scatter } => {
                    vdata[l as usize] = data;
                    tasks.extend(scatter.map(|d| (l, d)));
                }
            }
            Ok(())
        })?;
        state.deliver_staged(program, pctx);

        let receipt = Receipt::Inbox;
        let (edges, _) =
            scatter(shard, state, program, num_vertices, pctx, tasks, receipt, SCATTER_WINDOW);
        stats.record_edges(edges);
        clock.advance(cost.compute_time(edges));
        Ok(Vote::busy(busy))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lazygraph_cluster::{build_endpoints, run_machines, NetStats, SimClock, TransportKind};
    use lazygraph_graph::generators::{rmat, RmatConfig};
    use lazygraph_partition::{partition_graph, PartitionStrategy, SplitterConfig};

    use super::*;
    use crate::bsp::BspSync;
    use crate::config::EngineConfig;
    use crate::exchange::tests::Sum;
    use crate::exchange::Port;
    use crate::parallel::ParallelCtx;
    use crate::state::MachineState;

    /// Machine 0 hands machine 1 an accumulator for a vertex machine 1
    /// holds only a mirror of: machine 1's step fails its round typed,
    /// naming machine 0, on either transport.
    #[test]
    fn an_accumulator_for_a_mirror_fails_the_round_naming_its_sender() {
        let g = rmat(RmatConfig::graph500(6, 4, 11));
        let dg = partition_graph(&g, 2, PartitionStrategy::Random, &SplitterConfig::disabled(), false);
        let shard = &dg.shards[1];
        let mirror = (0..shard.num_local() as u32)
            .find(|&l| !shard.is_master(l))
            .map(|l| shard.global_of(l).0)
            .expect("machine 1 holds a mirror");
        let cfg = EngineConfig::lazygraph().with_engine(EngineKind::PowerGraphAsync);
        let n = dg.num_global_vertices;
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let eps = build_endpoints::<(u32, SyncMsg<Sum>)>(transport, 2, &stats).expect("mesh");
            let outcomes = run_machines(eps, |ep| {
                let me = ep.me();
                let mut port = Port::new(ep, stats.clone());
                if me == 0 {
                    let mut round = port.ordered_round(Phase::Async, 16);
                    round.outboxes().push(1, (mirror, SyncMsg::Accum(7)));
                    return round.close(0.0, &[], |_, _, _| Ok(()));
                }
                let pctx = ParallelCtx::new(cfg.parallel(2)).expect("spawn pool");
                let mut f = Frame {
                    me,
                    cfg: &cfg,
                    program: &Sum,
                    num_vertices: n,
                    ev_ratio: 1.0,
                    shard,
                    pctx,
                    state: MachineState::init(shard, &Sum, InitMessages::MastersOnly, n),
                    clock: SimClock::new(),
                    bsp: BspSync::new(cfg.cost),
                    port,
                    stats: stats.clone(),
                    iterations: 1,
                    history: Vec::new(),
                };
                AsyncPump::new(&f, ()).step(&mut f).map(|_| ())
            });
            match &outcomes[1] {
                Err(CommError::Transport { me: 1, detail }) => assert!(
                    detail.contains(&format!("machine 0 sent an accumulator for vertex {mirror}")),
                    "{transport:?}: {detail}"
                ),
                other => panic!("{transport:?}: expected a typed refusal, got {other:?}"),
            }
        }
    }
}
