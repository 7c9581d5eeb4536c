//! The **LazyVertexAsync** engine — the paper's Algorithm 2.
//!
//! The paper describes this engine but left its implementation to future
//! work ("LazyGraph ... will implement LazyVertexAsync engine based on the
//! Async engine in the future", §4); this module is the corresponding
//! extension deliverable. There is no global barrier: each machine runs
//! local computation continuously and initiates a data coherency exchange
//! when its local worklist drains (`needDataCoherency` evaluated at machine
//! granularity — the natural point at which every locally reachable update
//! has been absorbed). Updated global views become visible to neighbours as
//! soon as the deltas arrive, emphasising convergence speed over batching.
//!
//! Coherency exchanges use the all-to-all shape (delta straight to every
//! sibling replica) since without barriers there is no collective at which
//! a master could combine contributions.
//!
//! "Based on the Async engine" is literal here: the engine is a step of the
//! same [`Pump`] loop, differing only in *when* a replica flushes — when the
//! worklist drains rather than every turn (DESIGN.md §17).

use lazygraph_cluster::{Batch, CommError, CostModel, NetStats, Phase};
use lazygraph_net::NetError;
use lazygraph_partition::LocalShard;

use crate::config::EngineKind;
use crate::exchange::{local_delta, route_inbound, stage_combining, Pump, PumpStep};
use crate::lazy_block::{apply_scatter, book, LazyCounters};
use crate::machine::{Frame, Superstep, Vote};
use crate::parallel::ParallelCtx;
use crate::program::{DeltaExchange, VertexProgram};
use crate::state::{InitMessages, MachineState};
use crate::sync_engine::SCATTER_WINDOW;

/// LazyVertexAsync on the superstep skeleton: one step pumps the machine
/// until the machines' vote ends the run.
pub struct LazyVertexPump {
    /// This machine's own coherency points and sub-rounds: without
    /// barriers they are per-machine work ([`crate::machine::assemble`]).
    counters: LazyCounters,
}

impl<P: VertexProgram> Superstep<P> for LazyVertexPump {
    type Msg = P::Delta;
    const KIND: EngineKind = EngineKind::LazyVertexAsync;
    const INIT: InitMessages = InitMessages::AllReplicas;

    fn new(_frame: &Frame<'_, P, P::Delta>) -> Self {
        LazyVertexPump {
            counters: LazyCounters::default(),
        }
    }

    fn step(&mut self, f: &mut Frame<'_, P, P::Delta>) -> Result<Vote, CommError> {
        // The pump is the whole run, not a superstep: a barrier-free
        // engine reports none (`RunMetrics::iterations`).
        f.iterations = 0;
        let delta_bytes = f.program.delta_bytes();
        let pump = f.port.pump(&mut f.clock, &f.bsp.coll, f.cfg.cost, Phase::Coherency, delta_bytes);
        pump.run(&mut LazyVertexTurn {
            counters: &mut self.counters,
            state: &mut f.state,
            shard: f.shard,
            pctx: &f.pctx,
            program: f.program,
            stats: &f.stats,
            num_vertices: f.num_vertices,
            cost: f.cfg.cost,
            delta_bytes: delta_bytes as u64,
        })?;
        Ok(Vote::Converged)
    }

    fn counters(&self) -> LazyCounters {
        self.counters
    }
}

/// The frame minus its port and clock (the pump drives those) for the
/// length of the step.
struct LazyVertexTurn<'a, P: VertexProgram> {
    counters: &'a mut LazyCounters,
    state: &'a mut MachineState<P>,
    shard: &'a LocalShard,
    pctx: &'a ParallelCtx,
    program: &'a P,
    stats: &'a NetStats,
    num_vertices: usize,
    cost: CostModel,
    delta_bytes: u64,
}

impl<P: VertexProgram> PumpStep<(u32, P::Delta)> for LazyVertexTurn<'_, P> {
    /// Remote deltas ⊕-fold straight into `message` (zero-copy for raw
    /// TCP batches).
    fn absorb(&mut self, batch: &mut Batch<(u32, P::Delta)>) -> Result<(), NetError> {
        let (route, program) = (self.shard.route_table(), self.program);
        route_inbound(
            self.pctx,
            self.shard.num_local(),
            std::slice::from_mut(batch),
            |item| local_delta(route, program, item),
            &mut self.state.scratch.inbound,
        )?;
        let runs = self.state.deliver_inbound(program, self.pctx);
        self.stats.record_fold_runs(runs);
        Ok(())
    }

    fn turn(&mut self, pump: &mut Pump<'_, (u32, P::Delta)>) -> Result<bool, CommError> {
        let (shard, program, pctx, state) = (self.shard, self.program, self.pctx, &mut *self.state);

        // ---- Stage 1: local computation while the worklist has entries. --
        if !state.queue.is_empty() {
            let mut queue = state.take_queue();
            queue.sort_unstable();
            let n = self.num_vertices;
            let done = apply_scatter(shard, state, program, n, pctx, &queue, false, SCATTER_WINDOW);
            pump.clock.advance(book(self.stats, &self.cost, program, done));
            self.counters.local_subrounds += 1;
            return Ok(true);
        }

        // ---- Stage 2: needDataCoherency — flush accumulated deltas. ------
        // Same two-phase shape as the block engine's exchanges: decide in
        // parallel over the replicated list, commit in block order.
        let decisions = {
            let (delta_view, coherent_view) = (&state.delta_msg, &state.coherent);
            pctx.map_chunks(&shard.replicated, |chunk| {
                let mut out: Vec<(u32, Option<P::Delta>)> = Vec::new();
                for &l in chunk {
                    let Some(d) = &delta_view[l as usize] else { continue };
                    match program.exchange_policy(&coherent_view[l as usize], d) {
                        DeltaExchange::Send => out.push((l, Some(*d))),
                        DeltaExchange::Drop => out.push((l, None)),
                        DeltaExchange::Defer => {}
                    }
                }
                out
            })
        };
        let mut any = false;
        let mut combined = 0u64;
        for (l, d) in decisions.into_iter().flatten() {
            state.delta_msg[l as usize] = None;
            let Some(d) = d else { continue };
            any = true;
            let gid = shard.global_of(l).0;
            for &m in shard.mirrors(l).iter() {
                combined += u64::from(stage_combining(program, pump.outboxes, m.index(), gid, d));
            }
        }
        self.stats.record_combined(combined, combined * self.delta_bytes);
        if any {
            self.counters.coherency_points += 1;
            self.counters.a2a_exchanges += 1;
        }
        Ok(any)
    }
}
