//! A PowerSwitch-style **hybrid** engine (extension; §6 of the paper cites
//! PowerSwitch's dynamic switching between Sync and Async as the
//! alternative eager-coherency optimisation).
//!
//! The engine runs eager BSP supersteps while the active-vertex fraction is
//! high (dense phases amortise the barrier cost over much useful work) and
//! switches to the eager asynchronous mode once the active fraction falls
//! below a threshold (sparse phases — e.g. an SSSP wavefront or PageRank's
//! convergence tail — waste almost the whole barrier + collective cost on
//! a handful of updates). The switch decision comes from the same global
//! reduction every machine sees, so all machines flip together; once
//! switched, the run finishes asynchronously (PowerSwitch switches both
//! ways; sparse phases ending our workloads make the one-way switch the
//! profitable part).
//!
//! Coherency is *eager* in both phases — this engine is a baseline-family
//! extension, not a lazy engine: it isolates how much of LazyGraph's win
//! survives when only the Sync/Async choice is optimised.
//!
//! It implements neither phase: it composes the Sync superstep and the
//! Async pump over one `MachineState` (DESIGN.md §17), so a threshold of 0
//! *is* the Sync engine.

use lazygraph_cluster::CommError;

use crate::async_engine::AsyncPump;
use crate::config::EngineKind;
use crate::machine::{Frame, Superstep, Vote};
use crate::program::VertexProgram;
use crate::state::InitMessages;
use crate::sync_engine::{SyncMsg, SyncStep};

/// Sync supersteps, then the Async pump. The outcome's `iterations` are
/// the supersteps run up to and including the one that switched.
pub struct HybridStep<P: VertexProgram> {
    sync: SyncStep<P>,
    tail: AsyncPump<P>,
}

impl<P: VertexProgram> Superstep<P> for HybridStep<P> {
    type Msg = SyncMsg<P>;
    const KIND: EngineKind = EngineKind::PowerSwitchHybrid;
    const INIT: InitMessages = InitMessages::MastersOnly;

    fn new(frame: &Frame<'_, P, SyncMsg<P>>) -> Self {
        HybridStep {
            sync: SyncStep::new(frame),
            tail: AsyncPump::new(frame),
        }
    }

    fn step(&mut self, f: &mut Frame<'_, P, SyncMsg<P>>) -> Result<Vote, CommError> {
        if self.sync.step(f)? == Vote::Converged {
            return Ok(Vote::Converged); // converged while still synchronous
        }
        // The switch: everyone sees the same reduction, so everyone flips
        // together when the frontier goes sparse. What the superstep left
        // pending in `message` is exactly the pump's first worklist.
        let sparse = f.cfg.hybrid_switch_threshold * f.num_vertices as f64;
        if f.iterations >= 2 && (self.sync.pending as f64) < sparse {
            self.tail.pump(f)?;
            return Ok(Vote::Converged);
        }
        Ok(Vote::Continue)
    }
}
