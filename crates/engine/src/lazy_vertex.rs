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

use std::sync::Arc;

use lazygraph_cluster::{
    build_endpoints, CommError, Endpoint, NetStats, OutboxSet, Phase, SimClock, Termination,
};
use lazygraph_partition::{DistributedGraph, LocalShard};

use crate::config::EngineConfig;
use crate::exchange::{local_delta, route_inbound, stage_combining, PIPELINE_PART_ITEMS};
use crate::lazy_block::{blocked_apply_scatter, LazyCounters};
use crate::machine::{assemble, EngineOutcome, MachineOut};
use crate::parallel::ParallelCtx;
use crate::program::{DeltaExchange, VertexProgram};
use crate::state::{InitMessages, MachineState};

/// Runs LazyVertexAsync to quiescence. With `cfg.pipeline` on, coherency
/// flushes stream per-destination as staging crosses the part threshold
/// instead of all at once when the worklist drains — the async engine has
/// no barrier to overlap against, so pipelining here just starts wire
/// writes earlier (same fixpoint; batch boundaries differ).
pub fn run_lazy_vertex_engine<P: VertexProgram>(
    dg: &DistributedGraph,
    program: &P,
    cfg: &EngineConfig,
    stats: Arc<NetStats>,
) -> Result<EngineOutcome<P::VData>, CommError> {
    let p = dg.num_machines;
    let endpoints = build_endpoints::<(u32, P::Delta)>(cfg.transport, p, &stats)?;
    let term = Termination::new(p);
    #[allow(clippy::type_complexity)]
    let workers: Vec<(&LocalShard, Endpoint<(u32, P::Delta)>)> =
        dg.shards.iter().zip(endpoints).collect();
    let outs = lazygraph_cluster::try_run_machines(workers, |(shard, ep)| {
        machine_loop(dg, shard, ep, program, cfg, &term, &stats)
    })?;
    // No barriers: every machine reaches its own coherency points, so the
    // counts are per-machine work and add up.
    let (coherency_points, a2a_exchanges) = outs.iter().fold((0, 0), |(c, a), o| {
        (c + o.counters.coherency_points, a + o.counters.a2a_exchanges)
    });
    let mut outcome = assemble(outs, dg.num_global_vertices);
    outcome.counters.coherency_points = coherency_points;
    outcome.counters.a2a_exchanges = a2a_exchanges;
    Ok(outcome)
}

fn machine_loop<P: VertexProgram>(
    dg: &DistributedGraph,
    shard: &LocalShard,
    mut ep: Endpoint<(u32, P::Delta)>,
    program: &P,
    cfg: &EngineConfig,
    term: &Termination,
    stats: &NetStats,
) -> Result<MachineOut<P>, CommError> {
    let (num_vertices, cost, pipeline) = (dg.num_global_vertices, cfg.cost, cfg.pipeline);
    let n = ep.num_machines();
    let pctx = ParallelCtx::new(cfg.parallel(dg.num_machines));
    let mut clock = SimClock::new();
    let mut state: MachineState<P> =
        MachineState::init(shard, program, InitMessages::AllReplicas, num_vertices);
    let delta_bytes = program.delta_bytes();
    let mut counters = LazyCounters::default();
    let mut idle = false;
    // Persistent staging: exchange slots keep travelled capacity
    // (refilled from the endpoint pool on send), so steady-state
    // coherency flushes allocate nothing.
    let mut outboxes: OutboxSet<(u32, P::Delta)> = OutboxSet::new(n);
    let route = shard.route_table();

    loop {
        let mut progressed = false;

        // ---- Absorb remote deltas. ---------------------------------------
        while let Some(mut batch) = ep.try_recv() {
            if idle {
                term.leave_idle();
                idle = false;
            }
            // `item_count` covers both materialized and zero-copy raw
            // batches (`items` is empty for the latter).
            let bytes = batch.item_count() * delta_bytes;
            clock.merge(batch.sent_at + cost.async_batch_time(bytes as u64));
            route_inbound(
                &pctx,
                shard.num_local(),
                std::slice::from_mut(&mut batch),
                |item| local_delta(route, program, item),
                &mut state.scratch.inbound,
            )
            .map_err(|e| CommError::transport(shard.machine.index(), &e))?;
            let runs = state.deliver_inbound(program, &pctx);
            stats.record_fold_runs(runs);
            ep.recycle(batch);
            term.note_delivered(1);
            progressed = true;
        }

        // ---- Stage 1: local computation while the worklist has entries. --
        if !state.queue.is_empty() {
            if idle {
                term.leave_idle();
                idle = false;
            }
            progressed = true;
            let mut queue = state.take_queue();
            queue.sort_unstable();
            let (edges, applies, folds) = blocked_apply_scatter(
                shard,
                &mut state,
                program,
                num_vertices,
                &pctx,
                &queue,
                false,
            );
            stats.record_edges(edges);
            stats.record_applies(applies);
            stats.record_combined(folds, folds * delta_bytes as u64);
            clock.advance(cost.compute_time(edges) + cost.apply_time(applies));
            counters.local_subrounds += 1;
        } else {
            // ---- Stage 2: needDataCoherency — flush accumulated deltas. --
            let mut any = false;
            // Same two-phase shape as the block engine's exchanges: decide
            // in parallel over the replicated list, commit in block order.
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
            let mut combined = 0u64;
            for (l, d) in decisions.into_iter().flatten() {
                state.delta_msg[l as usize] = None;
                if let Some(d) = d {
                    any = true;
                    let gid = shard.global_of(l).0;
                    for &m in shard.mirrors[l as usize].iter() {
                        let dst = m.index();
                        combined += u64::from(stage_combining(program, &mut outboxes, dst, gid, d));
                        if pipeline && outboxes.staged(dst).len() >= PIPELINE_PART_ITEMS {
                            // Early flush: start the wire write while the
                            // rest of the worklist is still staging. Sent
                            // accounting must precede the send so the
                            // receiver's delivered count never leads it.
                            if idle {
                                term.leave_idle();
                                idle = false;
                            }
                            term.note_sent(1);
                            clock.advance(cost.async_send_cpu);
                            ep.send_staged(
                                &mut outboxes,
                                dst,
                                clock.now(),
                                Phase::Coherency,
                                delta_bytes,
                                stats,
                            )?;
                        }
                    }
                }
            }
            stats.record_combined(combined, combined * delta_bytes as u64);
            if any {
                if idle {
                    term.leave_idle();
                    idle = false;
                }
                progressed = true;
                counters.coherency_points += 1;
                counters.a2a_exchanges += 1;
                for dst in 0..n {
                    if dst == shard.machine.index() || outboxes.staged(dst).is_empty() {
                        continue;
                    }
                    term.note_sent(1);
                    clock.advance(cost.async_send_cpu);
                    ep.send_staged(
                        &mut outboxes,
                        dst,
                        clock.now(),
                        Phase::Coherency,
                        delta_bytes,
                        stats,
                    )?;
                }
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

    Ok(MachineOut::collect(shard, &state, 0, true, clock.now(), counters))
}
