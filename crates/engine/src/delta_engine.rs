//! The **DeltaAccum** engine: Maiter-style delta-accumulative iteration
//! with epoch-bucketed deterministic priority scheduling (DESIGN.md §15).
//!
//! Every vertex holds `(value, delta)` — `MachineState::vdata` and the
//! accumulated `MachineState::message` inbox — and only deltas ever move:
//! a sub-epoch applies `x ← x ⊕ Δ` for the scheduled vertices, scatters
//! the resulting per-edge deltas, and re-bins everything still pending.
//! The scheduler ([`PriorityBuckets`]) selects the highest non-empty
//! power-of-two |delta| buckets down to the portion cut, so high-impact
//! mass propagates first — Maiter's selective execution — while the plan
//! stays a pure function of state (no hash container, no clock read).
//! Sub-epochs repeat until the machine quiesces within tolerance; only
//! then does an outer epoch pay a coherency exchange, shipping the
//! `delta_msg` accumulators (⊕-combined sender-side by
//! [`stage_combining`](crate::exchange::stage_combining) inside the shared
//! a2a exchange) — lazy replica coherency applied to deltas. On the
//! superstep skeleton the engine differs from LazyBlockAsync only in
//! *which* pending vertices a local stage schedules.
//!
//! The run ends on a tolerance: a vertex whose pending priority falls
//! below the scheduler tolerance is parked (its mass stays in the inbox
//! and folds with the next arrival), and the epoch barrier's allreduce
//! counts schedulable vertices globally — zero means the fixpoint has
//! been reached within tolerance.

use lazygraph_cluster::CommError;

use crate::bsp::{BspReduction, CommCharge};
use crate::config::EngineKind;
use crate::comm_mode::CommMode;
use crate::lazy_block::{book_coherency_point, coherency_decisions, exchange_a2a, sweep};
use crate::machine::{Frame, Superstep, Vote};
use crate::program::VertexProgram;
use crate::scheduler::PriorityBuckets;
use crate::state::Layout;

/// Upper bound on local sub-epochs between coherency exchanges — a
/// safety valve so a program whose priorities do not contract locally
/// still reaches the exchange (and the termination vote) instead of
/// spinning. Contracting programs (PageRank damping, SSSP relaxation)
/// quiesce in far fewer sweeps.
const MAX_SUBEPOCHS: u64 = 4096;

/// DeltaAccum on the superstep skeleton. One epoch is one coherency
/// point and every exchange is all-to-all, counted as the lazy engines
/// count theirs. The bucket scheduler is stateless across epochs — each
/// plan is recomputed from `MachineState` alone — so the engine carries
/// nothing across a step (`Carry = ()`).
pub struct DeltaStep {
    sched: PriorityBuckets,
    /// Ascending-id candidate scratch, rebuilt each sub-epoch (a pure
    /// function of `state`, so it needs no snapshot coverage).
    candidates: Vec<(u32, f64)>,
    /// The sub-epoch in flight's sorted queue (capacity only in between).
    worklist: Vec<u32>,
}

impl<P: VertexProgram> Superstep<P> for DeltaStep {
    type Msg = P::Delta;
    type Carry = ();
    const KIND: EngineKind = EngineKind::DeltaAccum;
    const LAYOUT: Layout = Layout::LAZY;

    fn new(f: &Frame<'_, P, P::Delta>, _carry: ()) -> Self {
        DeltaStep {
            sched: PriorityBuckets::new(f.cfg.delta_buckets, f.cfg.delta_tolerance),
            candidates: Vec::new(),
            worklist: Vec::new(),
        }
    }

    fn carry(&self) -> &() {
        &()
    }

    fn step(&mut self, f: &mut Frame<'_, P, P::Delta>) -> Result<Vote, CommError> {
        let program = f.program;

        // ---- Local sub-epochs: drain the schedulable worklist to
        // quiescence before paying a coherency exchange. High-impact mass
        // propagates first (the bucket portion cut), its local cascades
        // are absorbed in place, and outbound deltas ⊕-accumulate in
        // `delta_msg` across sub-epochs — replicas sync once per outer
        // epoch, not once per sweep, which is where the delta engine's
        // wire saving comes from (lazy coherency applied to deltas).
        let mut subepochs = 0u64;
        loop {
            // Canonical order first: exchange batches arrive in
            // nondeterministic interleavings, so the sorted queue is the
            // only order the plan may ever see.
            f.state.take_queue_into(&mut self.worklist);
            self.worklist.sort_unstable();
            self.candidates.clear();
            for &l in &self.worklist {
                match f.state.message.get(l as usize) {
                    Some(d) => {
                        let priority = program.priority(&f.state.vdata[l as usize], &d);
                        self.candidates.push((l, priority));
                    }
                    // A queued vertex with an empty inbox has nothing to
                    // do; deactivate it so a future delivery re-queues it.
                    None => f.state.active[l as usize] = false,
                }
            }
            let plan = self.sched.plan(&self.candidates);
            // Sub-tolerance vertices are parked: the accumulated mass
            // stays in the inbox (it folds with the next arrival) but the
            // vertex leaves the schedule until a fresh delivery
            // re-activates it.
            for &l in &plan.skipped {
                f.state.active[l as usize] = false;
            }
            f.stats.record_delta_skipped(plan.skipped.len() as u64);
            f.stats.record_bucket_high_water(plan.high_water);
            f.stats.record_sched_epochs(1);
            if plan.selected.is_empty() {
                // Nothing schedulable locally: the machine has quiesced
                // within tolerance; time to sync replicas.
                break;
            }
            subepochs += 1;

            // ---- Apply ⊕ scatter for the selected buckets (block order).
            // `update_coherent` stays off: between exchanges each machine
            // applies a different local schedule, so a locally-advanced
            // `coherent` view would no longer be common to the siblings —
            // the exchange policy would judge outbound deltas against
            // information the peers never received (and e.g. drop every
            // SSSP improvement a local relaxation already consumed). The
            // delta engine's `coherent` stays at the initial common view.
            sweep(f, &plan.selected, false);
            // Deferred vertices stay active and pending for the next
            // sub-epoch (their inbox entries were untouched by the sweep).
            f.state.queue.extend_from_slice(&plan.deferred);
            if subepochs >= MAX_SUBEPOCHS {
                // Safety valve for a non-contracting program: ship what
                // has accumulated and let the next outer epoch continue.
                break;
            }
        }
        f.stats.record_subrounds(subepochs);

        // ---- Delta coherency: ship accumulated deltaMsg all-to-all. -----
        // Every machine reaches the point together: machine 0 records it.
        if f.me == 0 {
            book_coherency_point(&f.stats, CommMode::AllToAll);
        }
        let decisions = coherency_decisions(f.shard, &f.state, program, &f.pctx);
        let sent_bytes = exchange_a2a(f, decisions)?;

        // ---- Tolerance-based termination vote. --------------------------
        // Schedulable = priority at or above tolerance; parked mass does
        // not keep the run alive (it is negligible by the program's own
        // error model).
        let mut pending = 0u64;
        for &l in &f.state.queue {
            if let Some(d) = f.state.message.get(l as usize) {
                if self.sched.schedulable(program.priority(&f.state.vdata[l as usize], &d)) {
                    pending += 1;
                }
            }
        }
        let red = f.bsp.sync(
            &mut f.port,
            &mut f.clock,
            BspReduction {
                bytes: sent_bytes,
                pending,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;
        Ok(Vote::of(red.pending))
    }
}
