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

use std::sync::Arc;

use lazygraph_cluster::{
    build_endpoints, Collective, CommError, Endpoint, NetStats, OutboxSet, Phase, SimClock,
    Termination,
};
use lazygraph_partition::{DistributedGraph, LocalShard};
use parking_lot::Mutex;

use crate::bsp::{BspReduction, BspSync, CommCharge};
use crate::config::EngineConfig;
use crate::lazy_block::LazyCounters;
use crate::machine::{assemble, EngineOutcome, MachineOut};
use crate::metrics::SimBreakdown;
use crate::program::{EdgeCtx, VertexProgram};
use crate::state::{vertex_ctx, InitMessages, MachineState};
use crate::sync_engine::SyncMsg;

/// Runs the hybrid engine. The outcome's `iterations` are the BSP
/// supersteps run before the switch (or convergence); the asynchronous
/// tail always runs to quiescence, so the run always converges.
pub fn run_hybrid_engine<P: VertexProgram>(
    dg: &DistributedGraph,
    program: &P,
    cfg: &EngineConfig,
    stats: Arc<NetStats>,
    breakdown: Arc<Mutex<SimBreakdown>>,
) -> Result<EngineOutcome<P::VData>, CommError> {
    let p = dg.num_machines;
    let coll = Arc::new(Collective::new(p));
    let term = Termination::new(p);
    let endpoints = build_endpoints::<(u32, SyncMsg<P>)>(cfg.transport, p, &stats)?;
    #[allow(clippy::type_complexity)]
    let workers: Vec<(&LocalShard, Endpoint<(u32, SyncMsg<P>)>)> =
        dg.shards.iter().zip(endpoints).collect();
    let outs = lazygraph_cluster::try_run_machines(workers, |(shard, ep)| {
        let bsp = BspSync::new(
            shard.machine.index(),
            coll.clone(),
            stats.clone(),
            cfg.cost,
            breakdown.clone(),
        );
        machine_loop(dg, shard, ep, program, cfg, bsp, &term)
    })?;
    Ok(assemble(outs, dg.num_global_vertices))
}

fn machine_loop<P: VertexProgram>(
    dg: &DistributedGraph,
    shard: &LocalShard,
    mut ep: Endpoint<(u32, SyncMsg<P>)>,
    program: &P,
    cfg: &EngineConfig,
    mut bsp: BspSync,
    term: &Termination,
) -> Result<MachineOut<P>, CommError> {
    let (me, n, num_vertices) = (bsp.me, dg.num_machines, dg.num_global_vertices);
    let stats = bsp.stats.clone();
    let cost = cfg.cost;
    let mut clock = SimClock::new();
    let mut state: MachineState<P> =
        MachineState::init(shard, program, InitMessages::MastersOnly, num_vertices);
    let delta_bytes = program.delta_bytes();
    let update_bytes = program.vdata_bytes() + std::mem::size_of::<P::Delta>();
    let mut scatter_tasks: Vec<(u32, P::Delta)> = Vec::new();
    let mut master_worklist: Vec<u32> = Vec::new();
    let mut supersteps = 0u64;
    let mut switched = false;
    // Persistent outbox set shared by both phases: exchange/send_staged
    // refill shipped slots from the endpoint's buffer pool, so
    // steady-state supersteps (and async pumps) allocate nothing.
    let mut outboxes: OutboxSet<(u32, SyncMsg<P>)> = OutboxSet::new(n);

    // ---- Phase A: eager BSP supersteps while the frontier is dense. ----
    'bsp: while supersteps < cfg.max_iterations {
        supersteps += 1;
        // Gather: mirrors forward to masters.
        let mut sent = 0u64;
        master_worklist.clear();
        for l in state.take_queue() {
            if shard.is_master[l as usize] {
                master_worklist.push(l);
            } else if let Some(d) = state.message[l as usize].take() {
                state.active[l as usize] = false;
                outboxes.push(
                    shard.master_of[l as usize].index(),
                    (shard.global_of(l).0, SyncMsg::Accum(d)),
                );
                sent += delta_bytes as u64;
            } else {
                state.active[l as usize] = false;
            }
        }
        for mut batch in ep.exchange(&mut outboxes, clock.now(), Phase::Gather, delta_bytes, &stats)? {
            // Materialize exactly once, at receipt.
            batch
                .make_items()
                .map_err(|e| CommError::transport(me, &e))?;
            clock.merge(batch.sent_at);
            for (gid, msg) in batch.items.drain(..) {
                if let SyncMsg::Accum(d) = msg {
                    let l = shard.local_of(gid.into()).expect("accum to non-replica"); // lazylint: allow(no-panic) -- replica routing table guarantees locality; a miss is a partitioner bug
                    state.deliver(program, l, program.gather(gid.into(), d));
                }
            }
            ep.recycle(batch);
        }
        master_worklist.extend(state.take_queue());
        bsp.sync(
            &mut clock,
            BspReduction {
                bytes: sent,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;

        // Apply at masters + eager broadcast.
        let mut sent = 0u64;
        let mut applies = 0u64;
        for &l in &master_worklist {
            let Some(accum) = state.message[l as usize].take() else {
                state.active[l as usize] = false;
                continue;
            };
            state.active[l as usize] = false;
            let v = shard.global_of(l);
            let ctx = vertex_ctx(shard, l, num_vertices);
            let d = program.apply(v, &mut state.vdata[l as usize], accum, &ctx);
            applies += 1;
            for &m in shard.mirrors[l as usize].iter() {
                outboxes.push(
                    m.index(),
                    (
                        v.0,
                        SyncMsg::Update {
                            data: state.vdata[l as usize].clone(),
                            scatter: d,
                        },
                    ),
                );
                sent += update_bytes as u64;
            }
            if let Some(d) = d {
                scatter_tasks.push((l, d));
            }
        }
        stats.record_applies(applies);
        clock.advance(cost.apply_time(applies));
        for mut batch in ep.exchange(&mut outboxes, clock.now(), Phase::Apply, update_bytes, &stats)? {
            // Materialize exactly once, at receipt.
            batch
                .make_items()
                .map_err(|e| CommError::transport(me, &e))?;
            clock.merge(batch.sent_at);
            for (gid, msg) in batch.items.drain(..) {
                if let SyncMsg::Update { data, scatter } = msg {
                    let l = shard.local_of(gid.into()).expect("update to non-replica"); // lazylint: allow(no-panic) -- replica routing table guarantees locality; a miss is a partitioner bug
                    state.vdata[l as usize] = data;
                    if let Some(d) = scatter {
                        scatter_tasks.push((l, d));
                    }
                }
            }
            ep.recycle(batch);
        }
        bsp.sync(
            &mut clock,
            BspReduction {
                bytes: sent,
                ..Default::default()
            },
            CommCharge::A2A,
        )?;

        // Scatter locally.
        let mut edges = 0u64;
        for (l, d) in scatter_tasks.drain(..) {
            let v = shard.global_of(l);
            let ctx = vertex_ctx(shard, l, num_vertices);
            let data = state.vdata[l as usize].clone();
            let mut deliveries: Vec<(u32, P::Delta)> = Vec::new();
            for (tl, weight, _mode) in shard.out_edges(l) {
                edges += 1;
                let edge = EdgeCtx {
                    dst: shard.global_of(tl),
                    weight,
                };
                if let Some(msg) = program.scatter(v, &data, d, &ctx, &edge) {
                    deliveries.push((tl, msg));
                }
            }
            for (tl, msg) in deliveries {
                state.deliver(program, tl, msg);
            }
        }
        stats.record_edges(edges);
        clock.advance(cost.compute_time(edges));
        let red = bsp.sync(
            &mut clock,
            BspReduction {
                pending: state.pending_messages(),
                ..Default::default()
            },
            CommCharge::None,
        )?;
        if red.pending == 0 {
            break 'bsp; // converged while still synchronous
        }
        // The switch: everyone sees the same reduction, so everyone flips
        // together when the frontier goes sparse.
        if supersteps >= 2
            && (red.pending as f64) < cfg.hybrid_switch_threshold * num_vertices as f64
        {
            switched = true;
            break 'bsp;
        }
    }

    // ---- Phase B: finish asynchronously (eager, no barriers). ----------
    if switched {
        let mut idle = false;
        loop {
            let mut progressed = false;
            while let Some(mut batch) = ep.try_recv() {
                if idle {
                    term.leave_idle();
                    idle = false;
                }
                // Materialize exactly once, at receipt.
                batch
                    .make_items()
                    .map_err(|e| CommError::transport(me, &e))?;
                let bytes = batch.items.len() * update_bytes;
                clock.merge(batch.sent_at + cost.async_batch_time(bytes as u64));
                for (gid, msg) in batch.items.drain(..) {
                    let l = shard.local_of(gid.into()).expect("async to non-replica"); // lazylint: allow(no-panic) -- replica routing table guarantees locality; a miss is a partitioner bug
                    match msg {
                        SyncMsg::Accum(d) => {
                            state.deliver(program, l, program.gather(gid.into(), d));
                        }
                        SyncMsg::Update { data, scatter } => {
                            state.vdata[l as usize] = data;
                            if let Some(d) = scatter {
                                scatter_tasks.push((l, d));
                            }
                        }
                    }
                }
                ep.recycle(batch);
                term.note_delivered(1);
                progressed = true;
            }
            if !state.queue.is_empty() || !scatter_tasks.is_empty() {
                if idle {
                    term.leave_idle();
                    idle = false;
                }
                progressed = true;
                let mut edges = 0u64;
                let mut applies = 0u64;
                for (l, d) in scatter_tasks.drain(..) {
                    let v = shard.global_of(l);
                    let ctx = vertex_ctx(shard, l, num_vertices);
                    let data = state.vdata[l as usize].clone();
                    let mut deliveries: Vec<(u32, P::Delta)> = Vec::new();
                    for (tl, weight, _mode) in shard.out_edges(l) {
                        edges += 1;
                        let edge = EdgeCtx {
                            dst: shard.global_of(tl),
                            weight,
                        };
                        if let Some(msg) = program.scatter(v, &data, d, &ctx, &edge) {
                            deliveries.push((tl, msg));
                        }
                    }
                    for (tl, msg) in deliveries {
                        state.deliver(program, tl, msg);
                    }
                }
                for l in state.take_queue() {
                    let Some(accum) = state.message[l as usize].take() else {
                        state.active[l as usize] = false;
                        continue;
                    };
                    state.active[l as usize] = false;
                    let gid = shard.global_of(l).0;
                    if shard.is_master[l as usize] {
                        let ctx = vertex_ctx(shard, l, num_vertices);
                        clock.advance(cost.async_apply_time());
                        let d =
                            program.apply(gid.into(), &mut state.vdata[l as usize], accum, &ctx);
                        applies += 1;
                        for &m in shard.mirrors[l as usize].iter() {
                            outboxes.push(
                                m.index(),
                                (
                                    gid,
                                    SyncMsg::Update {
                                        data: state.vdata[l as usize].clone(),
                                        scatter: d,
                                    },
                                ),
                            );
                        }
                        if let Some(d) = d {
                            scatter_tasks.push((l, d));
                        }
                    } else {
                        outboxes.push(
                            shard.master_of[l as usize].index(),
                            (gid, SyncMsg::Accum(accum)),
                        );
                    }
                }
                stats.record_edges(edges);
                stats.record_applies(applies);
                clock.advance(cost.compute_time(edges) + cost.apply_time(applies));
                for dst in 0..n {
                    if dst == me || outboxes.staged(dst).is_empty() {
                        continue;
                    }
                    term.note_sent(1);
                    clock.advance(cost.async_send_cpu);
                    ep.send_staged(
                        &mut outboxes,
                        dst,
                        clock.now(),
                        Phase::Async,
                        update_bytes,
                        &stats,
                    )?;
                }
            }
            if !progressed {
                if !idle {
                    term.enter_idle();
                    idle = true;
                }
                if term.check() {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }

    let counters = LazyCounters::default();
    Ok(MachineOut::collect(shard, &state, supersteps, true, clock.now(), counters))
}
