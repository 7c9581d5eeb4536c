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
//!   synchronisation.
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

use lazygraph_cluster::{CommError, Phase};
use lazygraph_net::wire_record;
use lazygraph_partition::{EdgeMode, LocalShard, NO_LOCAL};

use crate::bsp::{BspReduction, CommCharge};
use crate::checkpoint::{LazyResume, ResumeExtras, SnapshotHeader};
use crate::comm_mode::{choose_mode, CommMode, VolumeEstimate};
use crate::config::{CommModePolicy, EngineKind};
use crate::exchange::{local_delta, stage_combining};
use crate::interval::{IntervalModel, StageProgress};
use crate::machine::{Frame, Superstep, Vote};
use crate::metrics::IterationRecord;
use crate::parallel::ParallelCtx;
use crate::program::{DeltaExchange, EdgeCtx, LocalOrder, VertexProgram};
use crate::scheduler::{cut_most_urgent, LOCAL_MIN_BATCH, LOCAL_ORDER_FROM};
use crate::state::{vertex_ctx, InitMessages, MachineState};

/// Aggregated lazy-engine counters (identical on every machine except
/// `local_subrounds`, which is summed by the driver).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyCounters {
    pub coherency_points: u64,
    pub local_subrounds: u64,
    pub a2a_exchanges: u64,
    pub m2m_exchanges: u64,
}

wire_record!(LazyCounters { coherency_points, local_subrounds, a2a_exchanges, m2m_exchanges });

/// One blocked apply+scatter sweep over a sorted worklist: the engine-side
/// half of the two-level threading model. Phase A (parallel, read-only
/// snapshot): each source block applies its entries on *clones* of the
/// vertex value and scatters from the clone, staging every message once,
/// straight into its target block's segment. Phase B (sequential,
/// block-index order): vertex data commits, then every delivery folds
/// through [`MachineState::deliver_staged`]. All applies see only
/// worklist-time messages — same-sweep deliveries land in fresh inboxes
/// for the next sweep — so the outcome is bitwise-identical at every
/// thread count. Returns `(edges, applies, delta_folds)`, where
/// `delta_folds` counts one-edge-mode deliveries folded into an occupied
/// `deltaMsg` slot — contributions the coherency exchange will not ship
/// as separate wire items (the fast path's `items_combined`).
pub(crate) fn blocked_apply_scatter<P: VertexProgram>(
    shard: &LocalShard,
    state: &mut MachineState<P>,
    program: &P,
    num_vertices: usize,
    pctx: &ParallelCtx,
    worklist: &[u32],
    update_coherent: bool,
) -> (u64, u64, u64) {
    let (message_view, vdata_view) = (&state.message, &state.vdata);
    let blocks = state.scratch.staging.source_blocks(pctx, message_view.len(), worklist);
    let block_edges: Vec<u64> = pctx.pool().map(blocks, |(chunk, b)| {
        let mut edges = 0u64;
        for &l in chunk {
            let Some(accum) = message_view[l as usize] else {
                b.commits.push((l, None));
                continue;
            };
            let v = shard.global_of(l);
            let ctx = vertex_ctx(shard, l, num_vertices);
            let mut data = vdata_view[l as usize].clone();
            if let Some(d) = program.apply(v, &mut data, accum, &ctx) {
                for (tl, weight, mode) in shard.out_edges(l) {
                    edges += 1;
                    let edge = EdgeCtx {
                        dst: shard.global_of(tl),
                        weight,
                    };
                    if let Some(msg) = program.scatter(v, &data, d, &ctx, &edge) {
                        let fold_delta =
                            mode == EdgeMode::OneEdge && shard.has_mirrors(tl);
                        b.stage(tl, msg, fold_delta);
                    }
                }
            }
            b.commits.push((l, Some(data)));
        }
        edges
    });
    let mut applies = 0u64;
    for b in state.scratch.staging.opened() {
        for (l, data) in b.commits.drain(..) {
            state.message[l as usize] = None;
            state.active[l as usize] = false;
            if let Some(data) = data {
                applies += 1;
                if update_coherent {
                    // The new common view (exact for Send/Drop policies;
                    // within the program's tolerance for Defer).
                    state.coherent[l as usize] = data.clone();
                }
                state.vdata[l as usize] = data;
            }
        }
    }
    let folds = state.deliver_staged(program, pctx);
    (block_edges.into_iter().sum(), applies, folds)
}

/// One sweep on a machine frame: [`blocked_apply_scatter`] plus its
/// bookkeeping — work counters, the sender-side-combining credit for
/// deltas folded into an occupied `deltaMsg` slot, and the simulated
/// compute charge.
pub(crate) fn sweep<P: VertexProgram, M>(
    f: &mut Frame<'_, P, M>,
    worklist: &[u32],
    update_coherent: bool,
) {
    let (edges, applies, folds) = blocked_apply_scatter(
        f.shard,
        &mut f.state,
        f.program,
        f.num_vertices,
        &f.pctx,
        worklist,
        update_coherent,
    );
    f.stats.record_edges(edges);
    f.stats.record_applies(applies);
    f.stats.record_combined(folds, folds * f.program.delta_bytes() as u64);
    let cost = &f.cfg.cost;
    f.clock.advance(cost.compute_time(edges) + cost.apply_time(applies));
}

/// LazyBlockAsync on the superstep skeleton: the interval model and the
/// comm-mode lag that survive from one coherency iteration to the next.
pub struct LazyStep<P: VertexProgram> {
    interval: IntervalModel,
    counters: LazyCounters,
    /// Dense m2m scratch arrays indexed by local id (zero steady-state
    /// allocation); fully `None` between coherency points.
    own_scratch: Vec<Option<P::Delta>>,
    totals_scratch: Vec<Option<P::Delta>>,
    do_local: bool,
    /// Duration T of the first local computation stage (§4.2.1's doLC
    /// bound); never measured when the stages are budgeted instead.
    first_stage_time: Option<f64>,
    /// Simulated seconds the previous coherency point was charged (barrier
    /// latency plus the collective time of its bytes; identical on every
    /// machine) — what a budgeted local stage is rationed against.
    coherency_cost: f64,
    /// Simulated compute this machine's last sweep was charged, local
    /// sub-round or coherency-point sweep alike: a budgeted stage's
    /// prediction of what its next sub-round would cost.
    last_sweep_cost: f64,
    /// Comm mode decided from the previous coherency point's volume
    /// estimates (one-round lag keeps the coherency stage at exactly one
    /// global synchronisation, as in the paper's Fig. 1(c)).
    next_mode: CommMode,
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
    const KIND: EngineKind = EngineKind::LazyBlockAsync;
    const INIT: InitMessages = InitMessages::AllReplicas;

    fn new(f: &Frame<'_, P, P::Delta>) -> Self {
        LazyStep {
            interval: IntervalModel::new(f.cfg.interval, f.ev_ratio),
            counters: LazyCounters::default(),
            own_scratch: vec![None; f.shard.num_local()],
            totals_scratch: vec![None; f.shard.num_local()],
            do_local: false,
            first_stage_time: None,
            coherency_cost: 0.0,
            last_sweep_cost: 0.0,
            next_mode: CommMode::AllToAll,
            worklist: Vec::new(),
            order: f.program.local_order(),
            keyed: Vec::new(),
        }
    }

    fn restore(&mut self, header: &SnapshotHeader) {
        if let Some(l) = &header.lazy {
            self.counters = l.counters;
            self.interval.import_state((
                l.prev_active,
                f64::from_bits(l.last_trend_bits),
                l.iterations_seen,
            ));
            self.do_local = l.do_local;
            self.first_stage_time = l.first_stage_bits.map(f64::from_bits);
            self.next_mode = if l.next_mode_m2m {
                CommMode::MirrorsToMaster
            } else {
                CommMode::AllToAll
            };
            self.coherency_cost = f64::from_bits(l.coherency_cost_bits);
            self.last_sweep_cost = f64::from_bits(l.last_sweep_bits);
        }
    }

    fn resume_extras(&self) -> ResumeExtras {
        let (prev_active, last_trend, iterations_seen) = self.interval.export_state();
        ResumeExtras {
            lazy: Some(LazyResume {
                counters: self.counters,
                prev_active,
                last_trend_bits: last_trend.to_bits(),
                iterations_seen,
                do_local: self.do_local,
                first_stage_bits: self.first_stage_time.map(f64::to_bits),
                next_mode_m2m: self.next_mode == CommMode::MirrorsToMaster,
                coherency_cost_bits: self.coherency_cost.to_bits(),
                last_sweep_bits: self.last_sweep_cost.to_bits(),
            }),
            delta: None,
        }
    }

    fn counters(&self) -> LazyCounters {
        self.counters
    }

    fn step(&mut self, f: &mut Frame<'_, P, P::Delta>) -> Result<Vote, CommError> {
        let cfg = f.cfg;
        let subrounds_at_round_start = self.counters.local_subrounds;

        // ---- Stage 1: local computation. --------------------------------
        let stage_start = f.clock.now();
        let mut stage_budget = 0.0;
        if self.do_local {
            stage_budget = self.interval.stage_budget(self.first_stage_time, self.coherency_cost);
            let order = self.order.filter(|_| f.iterations >= LOCAL_ORDER_FROM);
            // `doLC()` is asked before the queue is touched, so a refused
            // sub-round leaves it exactly as it stood — still `active`,
            // inboxes untouched — for the coherency-point sweep.
            while !f.state.queue.is_empty() {
                let stage = StageProgress {
                    subrounds: self.counters.local_subrounds - subrounds_at_round_start,
                    elapsed: f.clock.now() - stage_start,
                    predicted: self.last_sweep_cost,
                };
                if !self.interval.continue_local_stage(stage_budget, stage) {
                    break;
                }
                f.state.take_queue_into(&mut self.worklist);
                if let Some(key) = order {
                    self.defer_less_urgent(&mut f.state, key);
                }
                self.sweep_worklist(f, false);
                self.counters.local_subrounds += 1;
            }
            // Record T online: the duration of this run's first local
            // stage. A budgeted run reads no `T` and measures none.
            if self.first_stage_time.is_none() && !self.interval.budgets_stages() {
                self.first_stage_time = Some(f.clock.now() - stage_start);
            }
        }
        let local_stage_s = f.clock.now() - stage_start;

        // ---- Stage 2: data coherency. ------------------------------------
        // Local volume-estimate partials (§4.2.2 formulas), computed from
        // the deltas about to be exchanged; the summed estimates decide the
        // *next* coherency point's mode (one-round lag, one sync per point).
        let est = volume_estimate(f.shard, &f.state, f.program, &f.pctx, cfg.delta_suppression);
        let mode = match cfg.comm_mode {
            CommModePolicy::AllToAll => CommMode::AllToAll,
            CommModePolicy::MirrorsToMaster => CommMode::MirrorsToMaster,
            CommModePolicy::Auto => self.next_mode,
        };
        let (sent_bytes, charge) = match mode {
            CommMode::AllToAll => {
                self.counters.a2a_exchanges += 1;
                (exchange_a2a(f, cfg.delta_suppression)?, CommCharge::A2A)
            }
            CommMode::MirrorsToMaster => {
                self.counters.m2m_exchanges += 1;
                let (own, totals) = (&mut self.own_scratch, &mut self.totals_scratch);
                (exchange_m2m(f, own, totals, cfg.delta_suppression)?, CommCharge::M2M)
            }
        };
        self.counters.coherency_points += 1;
        let red = f.bsp.sync(
            &mut f.clock,
            BspReduction {
                bytes: sent_bytes,
                pending: f.state.pending_messages(),
                est,
                ..Default::default()
            },
            charge,
        )?;
        self.next_mode = choose_mode(&cfg.cost, red.est);
        // What this coherency point cost on top of the slowest machine's
        // clock — both terms come out of the reduction, so every machine
        // reads the same bits.
        self.coherency_cost = f.clock.now() - red.clock;
        if let Some(h) = &f.history {
            h.lock().push(IterationRecord {
                iteration: f.iterations,
                pending: red.pending,
                bytes: red.bytes,
                lazy_on: self.do_local,
                local_subrounds: self.counters.local_subrounds - subrounds_at_round_start,
                used_m2m: mode == CommMode::MirrorsToMaster,
                sim_time: f.clock.now(),
                local_stage_s,
                stage_budget_s: stage_budget,
            });
        }
        if red.pending == 0 {
            return Ok(Vote::Converged);
        }
        self.interval.observe_active(red.pending);
        if !self.do_local && self.interval.turn_on_lazy() {
            self.do_local = true;
        }

        // ---- Data coherency point: apply merged views, then scatter. -----
        // Two phases: every apply must see only exchange-time messages, so
        // the `coherent` snapshot records a view every replica provably
        // shares. Interleaving scatters would let same-drain local
        // deliveries (which siblings have not yet received) leak into the
        // snapshot and later suppress their own exchange.
        f.state.take_queue_into(&mut self.worklist);
        // `coherent` is only ever read by the suppression policy (the
        // volume-estimate scan and the exchange decisions both gate on
        // `delta_suppression`), so with suppression off the per-vertex
        // snapshot clone would be pure overhead — skip it.
        self.sweep_worklist(f, cfg.delta_suppression);
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
        self.last_sweep_cost = f.clock.now() - before;
    }

    /// The ordered local stage's scheduling cut (DESIGN.md §17): keeps in
    /// `worklist` only the most urgent pending vertices
    /// ([`cut_most_urgent`]) and pushes the rest back onto `state.queue`,
    /// still `active` with their inboxes untouched — for the next
    /// sub-round, or for the coherency-point sweep (which takes the whole
    /// queue) if the stage ends first. The selected set depends only on
    /// which vertices are pending and on their keys, so the sorted
    /// worklist is as canonical as the full one.
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
            let urgency = match &state.message[l as usize] {
                Some(accum) => key(&state.vdata[l as usize], accum),
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

/// This machine's §4.2.2 volume-estimate partial over the deltas the next
/// exchange will ship. Only replicated vertices can ever hold a shippable
/// delta, so the scan walks `shard.replicated` in parallel blocks; the
/// partial estimates merge in block order (sums, so any order would do —
/// but the rule is uniform).
fn volume_estimate<P: VertexProgram>(
    shard: &LocalShard,
    state: &MachineState<P>,
    program: &P,
    pctx: &ParallelCtx,
    suppress: bool,
) -> VolumeEstimate {
    let delta_bytes = program.delta_bytes();
    let (delta_view, coherent_view) = (&state.delta_msg, &state.coherent);
    pctx.map_chunks(&shard.replicated, |chunk| {
        let mut e = VolumeEstimate::default();
        for &l in chunk {
            let l = l as usize;
            if let Some(d) = &delta_view[l] {
                if suppress
                    && program.exchange_policy(&coherent_view[l], d) != DeltaExchange::Send
                {
                    continue;
                }
                e.add_holder(shard.mirrors(l as u32).len(), shard.is_master[l], delta_bytes);
            }
        }
        e
    })
    .into_iter()
    .fold(VolumeEstimate::default(), VolumeEstimate::merge)
}

/// Phase A of a coherency exchange (parallel, read-only): each replicated
/// vertex's fate — `(l, Some(delta))` ships, `(l, None)` drops the slot,
/// absent defers it — in ascending local-id order per block. Phase B
/// (the caller, block order) clears slots and fills outboxes, so the wire
/// byte stream is schedule-independent.
#[allow(clippy::type_complexity)]
fn coherency_decisions<P: VertexProgram>(
    shard: &LocalShard,
    state: &MachineState<P>,
    program: &P,
    pctx: &ParallelCtx,
    suppression: bool,
) -> Vec<Vec<(u32, Option<P::Delta>)>> {
    let (delta_view, coherent_view) = (&state.delta_msg, &state.coherent);
    pctx.map_chunks(&shard.replicated, |chunk| {
        let mut out: Vec<(u32, Option<P::Delta>)> = Vec::new();
        for &l in chunk {
            let Some(d) = &delta_view[l as usize] else { continue };
            if suppression {
                match program.exchange_policy(&coherent_view[l as usize], d) {
                    DeltaExchange::Send => {}
                    DeltaExchange::Drop => {
                        out.push((l, None));
                        continue;
                    }
                    DeltaExchange::Defer => continue,
                }
            }
            out.push((l, Some(*d)));
        }
        out
    })
}

/// All-to-all deltaMsg exchange (Fig. 5(a)): every delta-holding replica
/// sends its delta straight to every sibling — one ⊕-fold round. Staging
/// runs through [`stage_combining`] (decisions arrive in ascending
/// local-id order, so duplicate keys are adjacent). Returns bytes sent
/// locally.
pub(crate) fn exchange_a2a<P: VertexProgram>(
    f: &mut Frame<'_, P, P::Delta>,
    suppression: bool,
) -> Result<u64, CommError> {
    let (program, now) = (f.program, f.clock.now());
    let (shard, pctx, stats) = (f.shard, &f.pctx, &*f.stats);
    let (state, port) = (&mut f.state, &mut f.port);
    let delta_bytes = program.delta_bytes();
    let mut sent = 0u64;
    let mut combined = 0u64;
    let decisions = coherency_decisions(shard, state, program, pctx, suppression);
    let route = shard.route_table();
    let mut round = port.fold_round(
        pctx,
        shard.num_local(),
        Phase::Coherency,
        delta_bytes,
        |item| local_delta(route, program, item),
    );
    for (l, d) in decisions.into_iter().flatten() {
        state.delta_msg[l as usize] = None;
        let Some(d) = d else { continue };
        let gid = shard.global_of(l).0;
        for &m in shard.mirrors(l).iter() {
            let dst = m.index();
            if stage_combining(program, round.outboxes(), dst, gid, d) {
                combined += 1;
                continue;
            }
            sent += delta_bytes as u64;
        }
    }
    stats.record_combined(combined, combined * delta_bytes as u64);
    round.close(program, state, now)?;
    Ok(sent)
}

/// Mirrors-to-master deltaMsg exchange (Fig. 5(b)): mirrors send up, the
/// master combines with `Sum`, broadcasts the combined delta, and every
/// replica removes its own contribution with `Inverse`. Hop 1 is a
/// sender-ordered round (masters fold mirror contributions in sender
/// order), hop 2 a ⊕-fold round. Returns bytes sent locally (both hops).
///
/// `own` and `totals` are caller-owned dense scratch arrays indexed by
/// local id; this function leaves them fully `None` again on return.
/// Local ids ascend with global ids within a shard, so iterating
/// `shard.replicated` yields a reproducible broadcast byte stream (and
/// hence every downstream worklist).
fn exchange_m2m<P: VertexProgram>(
    f: &mut Frame<'_, P, P::Delta>,
    own: &mut [Option<P::Delta>],
    totals: &mut [Option<P::Delta>],
    suppression: bool,
) -> Result<u64, CommError> {
    let (program, now) = (f.program, f.clock.now());
    let (shard, pctx, stats) = (f.shard, &f.pctx, &*f.stats);
    let (state, port) = (&mut f.state, &mut f.port);
    let delta_bytes = program.delta_bytes();
    let mut sent = 0u64;
    let mut combined = 0u64;

    // Hop 1: mirrors → master.
    let decisions = coherency_decisions(shard, state, program, pctx, suppression);
    let mut hop1 = port.ordered_round(Phase::Coherency, delta_bytes);
    for (l, d) in decisions.into_iter().flatten() {
        let li = l as usize;
        state.delta_msg[li] = None;
        let Some(d) = d else { continue };
        own[li] = Some(d);
        if shard.is_master[li] {
            totals[li] = Some(d);
            continue;
        }
        let dst = shard.master_of[li].index();
        if stage_combining(program, hop1.outboxes(), dst, shard.global_of(l).0, d) {
            combined += 1;
            continue;
        }
        sent += delta_bytes as u64;
    }
    hop1.close(now, |(gid, d)| {
        let l = shard.local_of(gid.into());
        debug_assert!(l.is_some(), "hop-1 delta routed to non-replica");
        if let Some(l) = l {
            let slot = &mut totals[l as usize];
            *slot = Some(match slot.take() {
                Some(t) => program.sum(t, d),
                None => d,
            });
        }
    })?;

    // Hop 2: master → mirrors (combined delta), plus local master handling.
    // What replica `l` still has to merge of a combined `total`: all of it
    // but its own hop-1 contribution. `None` when this replica contributed
    // everything (exact for additive ⊕, harmless no-op skip for
    // idempotent ⊕).
    let own_view: &[Option<P::Delta>] = own;
    let others = |l: u32, total: P::Delta| match own_view[l as usize] {
        Some(mine) if mine == total => None,
        Some(mine) => Some(program.inverse(total, mine)),
        None => Some(total),
    };
    let route = shard.route_table();
    let mut hop2 = port.fold_round(
        pctx,
        shard.num_local(),
        Phase::Coherency,
        delta_bytes,
        |(gid, total): (u32, P::Delta)| match route.get(gid as usize) {
            Some(&l) if l != NO_LOCAL => {
                others(l, total).map(|rest| (l, program.gather(gid.into(), rest)))
            }
            _ => None,
        },
    );
    let local = &mut state.scratch.staging.open_blocks(pctx, shard.num_local(), 1)[0];
    for &l in &shard.replicated {
        let li = l as usize;
        if !shard.is_master[li] {
            continue;
        }
        let Some(total) = totals[li] else { continue };
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
            local.stage(l, program.gather(gid.into(), rest), false);
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
        own[l as usize] = None;
        totals[l as usize] = None;
    }
    Ok(sent)
}
