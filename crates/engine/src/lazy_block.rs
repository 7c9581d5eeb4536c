//! The **LazyBlockAsync** engine — the paper's Algorithm 1 and LazyGraph's
//! production engine.
//!
//! Execution alternates two stages:
//!
//! * **Local computation stage** (while `doLC()` allows): replicas apply
//!   pending messages and scatter along *local* edges only. Messages
//!   received over one-edge-mode edges are additionally folded into
//!   `deltaMsg` for the next coherency point; parallel-edges deliveries are
//!   not (every sibling receives them locally). No communication, no
//!   synchronisation. A sweep is [`apply_scatter`]: an in-place apply pass
//!   over the sorted worklist, then the one scatter every engine shares
//!   ([`crate::sync_engine::scatter`]), one window at a time.
//! * **Data coherency stage**: replicas exchange `deltaMsg` (all-to-all or
//!   mirrors-to-master, chosen dynamically per §4.2.2), then everyone
//!   applies the merged remote deltas — computation, not broadcast,
//!   restores the shared global view (§3.2). One barrier carries the
//!   termination vote and clock synchronisation.
//!
//! `turnOnLazy()` and `doLC()` — the `3T` local-stage bound where locality
//! is good, a budget of half the previous coherency point's cost where it
//! is poor — implement the adaptive interval model (§4.2.1,
//! [`crate::interval`]); the first iteration always runs without a local
//! stage.

use lazygraph_cluster::{CommError, CostModel, NetStats, OutboxSet, Phase};
use lazygraph_net::wire_record;
use lazygraph_partition::LocalShard;

use crate::bsp::{BspReduction, CommCharge};
use crate::comm_mode::{choose_mode, CommMode, VolumeEstimate};
use crate::config::{CommModePolicy, EngineKind};
use crate::exchange::stage_combining;
use crate::interval::{IntervalModel, StageProgress, Trend};
use crate::machine::{Frame, Superstep, Vote};
use crate::parallel::ParallelCtx;
use crate::program::{DeltaExchange, LocalOrder, VertexProgram};
use crate::scheduler::{cut_most_urgent, LOCAL_MIN_BATCH, LOCAL_ORDER_FROM};
use crate::state::{vertex_ctx, Layout, MachineState, Slots};
use crate::sync_engine::{scatter, SCATTER_WINDOW};

/// One lazy sweep over a sorted worklist (each vertex once), in two
/// passes. The apply pass reads worklist-time inboxes only: it empties
/// each entry's inbox, deactivates it, applies in place (and refreshes
/// `coherent`, where the machine holds it), and emits one scatter task per
/// apply that activates neighbours, in worklist order. Then the one
/// [`scatter`] folds the tasks' deliveries — one-edge receipts on
/// replicated targets into `deltaMsg` too — a `window` at a time, into
/// fresh inboxes for the next sweep. An
/// apply touches only its own vertex and nothing folds before the last
/// apply, so the outcome is a pure function of the worklist, bitwise at
/// every thread count and window. Returns `(edges, applies, delta_folds)`,
/// where `delta_folds` counts deliveries folded into an occupied
/// `deltaMsg` slot — contributions the coherency exchange will not ship as
/// separate wire items (the fast path's `items_combined`).
#[expect(
    clippy::too_many_arguments,
    reason = "the sweep's inputs, its `coherent` rule and its window"
)]
pub(crate) fn apply_scatter<P: VertexProgram>(
    shard: &LocalShard,
    state: &mut MachineState<P>,
    program: &P,
    num_vertices: usize,
    pctx: &ParallelCtx,
    worklist: &[u32],
    update_coherent: bool,
    window: usize,
) -> (u64, u64, u64) {
    let mut tasks = std::mem::take(&mut state.scratch.tasks);
    let mut applies = 0u64;
    // The new common view (exact for Send/Drop policies; within the
    // program's tolerance for Defer) — nothing to refresh where no policy
    // reads it.
    let mut coherent = state.coherent.as_mut().filter(|_| update_coherent);
    for &l in worklist {
        let li = l as usize;
        state.active[li] = false;
        let Some(accum) = state.message.take(li) else { continue };
        applies += 1;
        let ctx = vertex_ctx(shard, l, num_vertices);
        let d = program.apply(shard.global_of(l), &mut state.vdata[li], accum, &ctx);
        if let Some(view) = coherent.as_deref_mut() {
            view[li] = state.vdata[li].clone();
        }
        tasks.extend(d.map(|d| (l, d)));
    }
    let (edges, folds) = scatter(shard, state, program, num_vertices, pctx, &mut tasks, window);
    state.scratch.tasks = tasks;
    (edges, applies, folds)
}

/// One sweep's bookkeeping: work counters, the sender-side-combining
/// credit for deltas folded into an occupied `deltaMsg` slot, and the
/// simulated compute charge it returns.
pub(crate) fn book<P: VertexProgram>(
    stats: &NetStats,
    cost: &CostModel,
    program: &P,
    (edges, applies, folds): (u64, u64, u64),
) -> f64 {
    stats.record_edges(edges);
    stats.record_applies(applies);
    stats.record_combined(folds, folds * program.delta_bytes() as u64);
    cost.compute_time(edges) + cost.apply_time(applies)
}

/// Records one coherency point and its exchange, in `mode`.
pub(crate) fn book_coherency_point(stats: &NetStats, mode: CommMode) {
    stats.record_coherency_point();
    match mode {
        CommMode::AllToAll => stats.record_a2a_exchange(),
        CommMode::MirrorsToMaster => stats.record_m2m_exchange(),
    }
}

/// One sweep on a machine frame: [`apply_scatter`] plus its [`book`]ing.
pub(crate) fn sweep<P: VertexProgram, M>(
    f: &mut Frame<'_, P, M>,
    worklist: &[u32],
    update_coherent: bool,
) {
    let (shard, program, n, pctx) = (f.shard, f.program, f.num_vertices, &f.pctx);
    let (state, window) = (&mut f.state, SCATTER_WINDOW);
    let done = apply_scatter(shard, state, program, n, pctx, worklist, update_coherent, window);
    f.clock.advance(book(&f.stats, &f.cfg.cost, program, done));
}

/// What of LazyBlockAsync survives from one coherency iteration to the
/// next: the interval model's trend and the stage bounds it is read with,
/// and the comm-mode lag. The engine's [`Superstep::Carry`], so exactly
/// what a snapshot carries and what each record of the trace holds
/// ([`crate::metrics::StepRecord::carry`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LazyCarry {
    /// The active-vertex trend `turnOnLazy()` reads.
    pub trend: Trend,
    /// Whether the local computation stage is switched on.
    pub do_local: bool,
    /// Duration T of the first local computation stage (§4.2.1's doLC
    /// bound); never measured when the stages are budgeted instead.
    pub first_stage_time: Option<f64>,
    /// Simulated seconds the previous coherency point was charged (barrier
    /// latency plus the collective time of its bytes; identical on every
    /// machine) — what a budgeted local stage is rationed against.
    pub coherency_cost: f64,
    /// Simulated compute this machine's last sweep was charged, local
    /// sub-round or coherency-point sweep alike: a budgeted stage's
    /// prediction of what its next sub-round would cost.
    pub last_sweep_cost: f64,
    /// Comm mode decided from the previous coherency point's volume
    /// estimates (one-round lag keeps the coherency stage at exactly one
    /// global synchronisation, as in the paper's Fig. 1(c)).
    pub next_mode: CommMode,
}

wire_record!(LazyCarry {
    trend,
    do_local,
    first_stage_time,
    coherency_cost,
    last_sweep_cost,
    next_mode,
});

/// LazyBlockAsync on the superstep skeleton: its [`LazyCarry`], and
/// scratch no superstep boundary sees.
pub struct LazyStep<P: VertexProgram> {
    carry: LazyCarry,
    interval: IntervalModel,
    /// Dense m2m scratch slots indexed by local id: none until this
    /// machine's first mirrors-to-master exchange sizes them, then all
    /// empty between coherency points (no steady-state allocation).
    own_scratch: Slots<P::Delta>,
    totals_scratch: Slots<P::Delta>,
    /// The sweep in flight's sorted worklist (capacity only between sweeps).
    worklist: Vec<u32>,
    /// The program's local order, asked once: `None` keeps every local
    /// sub-round a full sweep with no key ever computed; `Some` orders the
    /// stages from `LOCAL_ORDER_FROM` on.
    order: Option<LocalOrder<P::VData, P::Delta>>,
    /// An ordered sub-round's `(key, local id)` scratch (capacity only
    /// between sub-rounds; never touched without an order).
    keyed: Vec<(f64, u32)>,
}

impl<P: VertexProgram> Superstep<P> for LazyStep<P> {
    type Msg = P::Delta;
    type Carry = LazyCarry;
    const KIND: EngineKind = EngineKind::LazyBlockAsync;
    const LAYOUT: Layout = Layout::LAZY;

    fn new(f: &Frame<'_, P, P::Delta>, carry: LazyCarry) -> Self {
        LazyStep {
            carry,
            interval: IntervalModel::new(f.cfg.interval, f.ev_ratio),
            own_scratch: Slots::default(),
            totals_scratch: Slots::default(),
            worklist: Vec::new(),
            order: f.program.local_order(),
            keyed: Vec::new(),
        }
    }

    fn carry(&self) -> &LazyCarry {
        &self.carry
    }

    fn step(&mut self, f: &mut Frame<'_, P, P::Delta>) -> Result<Vote, CommError> {
        let cfg = f.cfg;

        // ---- Stage 1: local computation. --------------------------------
        let stage_start = f.clock.now();
        if self.carry.do_local {
            let LazyCarry { first_stage_time, coherency_cost, .. } = self.carry;
            let stage_budget = self.interval.stage_budget(first_stage_time, coherency_cost);
            let order = self.order.filter(|_| f.iterations >= LOCAL_ORDER_FROM);
            let mut subrounds = 0;
            // `doLC()` is asked before the queue is touched, so a refused
            // sub-round leaves it exactly as it stood — still `active`,
            // inboxes untouched — for the coherency-point sweep.
            while !f.state.queue.is_empty() {
                let stage = StageProgress {
                    subrounds,
                    elapsed: f.clock.now() - stage_start,
                    predicted: self.carry.last_sweep_cost,
                };
                if !self.interval.continue_local_stage(stage_budget, stage) {
                    break;
                }
                f.state.take_queue_into(&mut self.worklist);
                if let Some(key) = order {
                    self.defer_less_urgent(&mut f.state, key);
                }
                self.sweep_worklist(f, false);
                subrounds += 1;
            }
            f.stats.record_subrounds(subrounds);
            // Record T online: the duration of this run's first local
            // stage. A budgeted run reads no `T` and measures none.
            if self.carry.first_stage_time.is_none() && !self.interval.budgets_stages() {
                self.carry.first_stage_time = Some(f.clock.now() - stage_start);
            }
        }

        // ---- Stage 2: data coherency. ------------------------------------
        // One fate scan decides what ships. This machine's §4.2.2
        // volume-estimate partial sums over the deltas that do; the summed
        // estimates decide the *next* coherency point's mode (one-round
        // lag, one sync per point).
        let decisions = coherency_decisions(f.shard, &f.state, f.program, &f.pctx);
        let (shard, delta_bytes) = (f.shard, f.program.delta_bytes());
        let mut est = VolumeEstimate::default();
        for &(l, _) in decisions.iter().flatten().filter(|(_, d)| d.is_some()) {
            est.add_holder(shard.mirrors(l).len(), shard.is_master(l), delta_bytes);
        }
        let mode = match cfg.comm_mode {
            CommModePolicy::AllToAll => CommMode::AllToAll,
            CommModePolicy::MirrorsToMaster => CommMode::MirrorsToMaster,
            CommModePolicy::Auto => self.carry.next_mode,
        };
        let (sent_bytes, charge) = match mode {
            CommMode::AllToAll => (exchange_a2a(f, decisions)?, CommCharge::A2A),
            CommMode::MirrorsToMaster => {
                let (own, totals) = (&mut self.own_scratch, &mut self.totals_scratch);
                for slots in [&mut *own, &mut *totals] {
                    if slots.len() != f.shard.num_local() {
                        *slots = Slots::new(f.shard.num_local());
                    }
                }
                (exchange_m2m(f, own, totals, decisions)?, CommCharge::M2M)
            }
        };
        // Every machine reaches the point together: machine 0 records it.
        if f.me == 0 {
            book_coherency_point(&f.stats, mode);
        }
        let red = f.bsp.sync(
            &mut f.port,
            &mut f.clock,
            BspReduction {
                bytes: sent_bytes,
                pending: f.state.pending_messages(),
                est,
                ..Default::default()
            },
            charge,
        )?;
        self.carry.next_mode = choose_mode(&cfg.cost, red.est);
        // What this coherency point cost on top of the slowest machine's
        // clock — both terms come out of the reduction, so every machine
        // reads the same bits.
        self.carry.coherency_cost = f.clock.now() - red.clock;
        if red.pending == 0 {
            return Ok(Vote::Converged);
        }
        self.carry.trend.observe(red.pending);
        if !self.carry.do_local && self.interval.turn_on_lazy(&self.carry.trend) {
            self.carry.do_local = true;
        }

        // ---- Data coherency point: apply merged views, then scatter. -----
        // Two phases: every apply must see only exchange-time messages, so
        // the `coherent` snapshot records a view every replica provably
        // shares. Interleaving scatters would let same-drain local
        // deliveries (which siblings have not yet received) leak into the
        // snapshot and later suppress their own exchange.
        f.state.take_queue_into(&mut self.worklist);
        self.sweep_worklist(f, true);
        Ok(Vote::Continue)
    }
}

impl<P: VertexProgram> LazyStep<P> {
    /// Sweeps `self.worklist` in canonical order — exchange batches arrive
    /// in nondeterministic interleavings, and the apply order decides which
    /// sub-round a scattered message lands in, so sorting is what makes the
    /// whole BSP engine bit-deterministic — and books the clock's charge
    /// for the next `doLC()` prediction.
    fn sweep_worklist(&mut self, f: &mut Frame<'_, P, P::Delta>, update_coherent: bool) {
        self.worklist.sort_unstable();
        let before = f.clock.now();
        sweep(f, &self.worklist, update_coherent);
        self.carry.last_sweep_cost = f.clock.now() - before;
    }

    /// The ordered local stage's scheduling cut (DESIGN.md §17): keys every
    /// vertex of `worklist` — the queue the sub-round took, everything
    /// pending — keeps in it only the most urgent ([`cut_most_urgent`]),
    /// and pushes the rest back onto `state.queue`, still `active` with
    /// their inboxes untouched, for the next sub-round, or for the
    /// coherency-point sweep (which takes the whole queue) if the stage
    /// ends first. The selected set depends only on which vertices are
    /// pending and on their keys, so the sorted worklist is as canonical as
    /// the full one.
    fn defer_less_urgent(
        &mut self,
        state: &mut MachineState<P>,
        key: LocalOrder<P::VData, P::Delta>,
    ) {
        if self.worklist.len() <= LOCAL_MIN_BATCH {
            return;
        }
        self.keyed.clear();
        self.keyed.extend(self.worklist.iter().map(|&l| {
            // An empty inbox only deactivates: nothing to wait for.
            let urgency = match state.message.get(l as usize) {
                Some(accum) => key(&state.vdata[l as usize], &accum),
                None => f64::INFINITY,
            };
            (urgency, l)
        }));
        let cut = cut_most_urgent(&mut self.keyed);
        let (selected, deferred) = self.keyed.split_at(cut);
        self.worklist.clear();
        self.worklist.extend(selected.iter().map(|&(_, l)| l));
        state.queue.extend(deferred.iter().map(|&(_, l)| l));
    }
}

/// Phase A of a coherency exchange (parallel, read-only): each replicated
/// vertex's fate under the program's
/// [`exchange_policy`](VertexProgram::exchange_policy) — `(l, Some(delta))`
/// ships, `(l, None)` drops the slot, absent defers it — in ascending
/// local-id order per block. Phase B (the exchange, block order) clears
/// slots and fills outboxes, so the wire byte stream is
/// schedule-independent. A machine that holds no `deltaMsg` has nothing
/// to decide; one whose program reads no coherent view holds none, and
/// the policy is handed `vdata` in its place
/// ([`VertexProgram::reads_coherent`]).
pub(crate) fn coherency_decisions<P: VertexProgram>(
    shard: &LocalShard,
    state: &MachineState<P>,
    program: &P,
    pctx: &ParallelCtx,
) -> Vec<Vec<(u32, Option<P::Delta>)>> {
    let Some(delta_view) = &state.delta_msg else { return Vec::new() };
    let view = state.coherent.as_ref().unwrap_or(&state.vdata);
    pctx.map_chunks(&shard.replicated, |chunk| {
        let mut out: Vec<(u32, Option<P::Delta>)> = Vec::new();
        for &l in chunk {
            let Some(d) = delta_view.get(l as usize) else { continue };
            match program.exchange_policy(&view[l as usize], &d) {
                DeltaExchange::Send => out.push((l, Some(d))),
                DeltaExchange::Drop => out.push((l, None)),
                DeltaExchange::Defer => {}
            }
        }
        out
    })
}

/// Phase B of an all-to-all exchange, shared with LazyVertexAsync's
/// flush: in [`coherency_decisions`]' order, clears each decided
/// `deltaMsg` slot (decisions come only from a held one) and stages every
/// shipped delta for each sibling through [`stage_combining`] (decisions
/// arrive in ascending local-id order, so duplicate keys are adjacent),
/// booking what combined. Returns the bytes staged and whether any delta
/// shipped.
pub(crate) fn stage_a2a<P: VertexProgram>(
    shard: &LocalShard,
    state: &mut MachineState<P>,
    program: &P,
    stats: &NetStats,
    outboxes: &mut OutboxSet<(u32, P::Delta)>,
    decisions: Vec<Vec<(u32, Option<P::Delta>)>>,
) -> (u64, bool) {
    let Some(delta_msg) = &mut state.delta_msg else { return (0, false) };
    let delta_bytes = program.delta_bytes() as u64;
    let (mut staged, mut combined, mut any) = (0u64, 0u64, false);
    for (l, d) in decisions.into_iter().flatten() {
        delta_msg.set(l as usize, None);
        let Some(d) = d else { continue };
        any = true;
        let gid = shard.global_of(l).0;
        for &m in shard.mirrors(l).iter() {
            if stage_combining(program, outboxes, m.index(), gid, d) {
                combined += 1;
            } else {
                staged += delta_bytes;
            }
        }
    }
    stats.record_combined(combined, combined * delta_bytes);
    (staged, any)
}

/// All-to-all deltaMsg exchange (Fig. 5(a)): every delta-holding replica
/// sends its delta straight to every sibling — one ⊕-fold round — as
/// [`coherency_decisions`] decided ([`stage_a2a`]). Returns bytes sent
/// locally.
pub(crate) fn exchange_a2a<P: VertexProgram>(
    f: &mut Frame<'_, P, P::Delta>,
    decisions: Vec<Vec<(u32, Option<P::Delta>)>>,
) -> Result<u64, CommError> {
    let (program, now) = (f.program, f.clock.now());
    let (shard, pctx, stats) = (f.shard, &f.pctx, &*f.stats);
    let (state, port) = (&mut f.state, &mut f.port);
    let delta_bytes = program.delta_bytes();
    let mut round = port.fold_round(pctx, shard, Phase::Coherency, delta_bytes, |_, gid, d| {
        Ok(Some(program.gather(gid.into(), d)))
    });
    let outboxes = round.outboxes();
    let (sent, _) = stage_a2a(shard, state, program, stats, outboxes, decisions);
    round.close(program, state, now)?;
    Ok(sent)
}

/// Mirrors-to-master deltaMsg exchange (Fig. 5(b)): mirrors send up, the
/// master combines with `Sum`, broadcasts the combined delta, and every
/// replica removes its own contribution with `Inverse`. Hop 1 is a
/// sender-ordered round (masters fold mirror contributions in sender
/// order), hop 2 a ⊕-fold round; hop 1 ships as [`coherency_decisions`]
/// decided. Returns bytes sent locally (both hops).
///
/// `own` and `totals` are caller-owned dense scratch slots indexed by
/// local id; this function leaves them all empty again on return.
/// Local ids ascend with global ids within a shard, so iterating
/// `shard.replicated` yields a reproducible broadcast byte stream (and
/// hence every downstream worklist).
fn exchange_m2m<P: VertexProgram>(
    f: &mut Frame<'_, P, P::Delta>,
    own: &mut Slots<P::Delta>,
    totals: &mut Slots<P::Delta>,
    decisions: Vec<Vec<(u32, Option<P::Delta>)>>,
) -> Result<u64, CommError> {
    let (program, now) = (f.program, f.clock.now());
    let (shard, pctx, stats) = (f.shard, &f.pctx, &*f.stats);
    let (state, port) = (&mut f.state, &mut f.port);
    let delta_bytes = program.delta_bytes();
    let mut sent = 0u64;
    let mut combined = 0u64;

    // Hop 1: mirrors → master.
    let mut hop1 = port.ordered_round(Phase::Coherency, delta_bytes);
    for (l, d) in decisions.into_iter().flatten() {
        let li = l as usize;
        if let Some(delta_msg) = &mut state.delta_msg {
            delta_msg.set(li, None);
        }
        let Some(d) = d else { continue };
        own.set(li, Some(d));
        if shard.is_master(l) {
            totals.set(li, Some(d));
            continue;
        }
        let dst = shard.master_of[li].index();
        if stage_combining(program, hop1.outboxes(), dst, shard.global_of(l).0, d) {
            combined += 1;
            continue;
        }
        sent += delta_bytes as u64;
    }
    let route = shard.route_table();
    hop1.close(now, route, |_, l, d| {
        totals.fold(program, l as usize, d);
        Ok(())
    })?;

    // Hop 2: master → mirrors (combined delta), plus local master handling.
    // What replica `l` still has to merge of a combined `total`: all of it
    // but its own hop-1 contribution. `None` when this replica contributed
    // everything (exact for additive ⊕, harmless no-op skip for
    // idempotent ⊕).
    let own_view: &Slots<P::Delta> = own;
    let others = |l: u32, total: P::Delta| match own_view.get(l as usize) {
        Some(mine) if mine == total => None,
        Some(mine) => Some(program.inverse(total, mine)),
        None => Some(total),
    };
    let mut hop2 = port.fold_round(pctx, shard, Phase::Coherency, delta_bytes, |l, gid, total| {
        Ok(others(l, total).map(|rest| program.gather(gid.into(), rest)))
    });
    let local = &mut state.scratch.staging;
    for &l in &shard.replicated {
        let li = l as usize;
        if !shard.is_master(l) {
            continue;
        }
        let Some(total) = totals.get(li) else { continue };
        let gid = shard.global_of(l).0;
        for &m in shard.mirrors(l).iter() {
            let dst = m.index();
            if stage_combining(program, hop2.outboxes(), dst, gid, total) {
                combined += 1;
                continue;
            }
            sent += delta_bytes as u64;
        }
        if let Some(rest) = others(l, total) {
            local.push(l, program.gather(gid.into(), rest), false);
        }
    }
    stats.record_combined(combined, combined * delta_bytes as u64);
    // Every replica sees each vertex's combined total exactly once (its
    // own if master, one master broadcast otherwise), so delivering the
    // local and remote streams separately cannot change any fold.
    state.deliver_staged(program, pctx);
    hop2.close(program, state, now)?;
    // Leave the scratch arrays clean for the next coherency point; only
    // replicated entries can ever have been written.
    for &l in &shard.replicated {
        own.set(l as usize, None);
        totals.set(l as usize, None);
    }
    Ok(sent)
}
