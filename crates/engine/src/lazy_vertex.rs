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
//! "Based on the Async engine" is literal here: a step is one round, as
//! Async's is, and differs only in *when* a replica flushes — once its
//! sweeps have drained the worklist, rather than after every apply
//! (DESIGN.md §17).

use lazygraph_cluster::{CommError, Phase};

use crate::config::EngineKind;
use crate::exchange::Stamp;
use crate::comm_mode::CommMode;
use crate::lazy_block::{book_coherency_point, coherency_decisions, stage_a2a, sweep};
use crate::machine::{Frame, Superstep, Vote};
use crate::program::VertexProgram;
use crate::state::Layout;

/// LazyVertexAsync on the superstep skeleton: a step sweeps until the
/// worklist drains, flushes, and closes one ⊕-fold round, whose batches
/// carry each machine's vote on whether it swept or shipped anything.
/// It carries nothing across a step (`Carry = ()`): without barriers its
/// coherency points are per-machine events, so every machine records its
/// own, with its sub-rounds, in its counters.
pub struct LazyVertexPump {
    worklist: Vec<u32>,
}

impl<P: VertexProgram> Superstep<P> for LazyVertexPump {
    type Msg = P::Delta;
    type Carry = ();
    const KIND: EngineKind = EngineKind::LazyVertexAsync;
    const LAYOUT: Layout = Layout::LAZY;

    fn new(_frame: &Frame<'_, P, P::Delta>, _carry: ()) -> Self {
        LazyVertexPump { worklist: Vec::new() }
    }

    fn carry(&self) -> &() {
        &()
    }

    fn step(&mut self, f: &mut Frame<'_, P, P::Delta>) -> Result<Vote, CommError> {
        // ---- Local computation while the worklist has entries. ----------
        let mut busy = false;
        while !f.state.queue.is_empty() {
            f.state.take_queue_into(&mut self.worklist);
            self.worklist.sort_unstable();
            sweep(f, &self.worklist, false);
            f.stats.record_subrounds(1);
            busy = true;
        }

        // ---- needDataCoherency: flush accumulated deltas. --------------
        // The block engine's all-to-all exchange: the same fate scan, the
        // same staging, the same round — only no barrier follows it.
        let (program, shard, pctx, stats) = (f.program, f.shard, &f.pctx, &*f.stats);
        let (state, port, clock) = (&mut f.state, &mut f.port, &mut f.clock);
        let gather = |_, gid: u32, d| Ok(Some(program.gather(gid.into(), d)));
        let delta_bytes = program.delta_bytes();
        let mut round = port.fold_round(pctx, shard, Phase::Coherency, delta_bytes, gather);
        let decisions = coherency_decisions(shard, state, program, pctx);
        let (_, any) = stage_a2a(shard, state, program, stats, round.outboxes(), decisions);
        if any {
            book_coherency_point(stats, CommMode::AllToAll);
        }
        busy |= any;
        let cost = f.cfg.cost;
        round.close(program, state, Stamp::Arrivals { clock, cost, busy: &mut busy })?;
        Ok(Vote::busy(busy))
    }
}
