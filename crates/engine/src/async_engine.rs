//! The PowerGraph **Async** baseline: eager replica coherency without
//! global barriers (§2.2, Issue III).
//!
//! Changes to vertex data are "copied to all replicas of v as soon as
//! possible": a mirror that receives messages forwards them to the master
//! immediately; a master that applies broadcasts the new vertex data to all
//! mirrors immediately. There is no batching across supersteps — every pump
//! of the machine loop flushes — so the engine pays a fixed per-message
//! overhead on every hop. On high-diameter graphs the dependency chains of
//! fine-grained messages dominate, which is exactly the degradation
//! Fig. 12(e) shows for Async beyond ~16 machines.
//!
//! Termination uses the counting detector in `lazygraph-cluster`.

use std::sync::Arc;

use lazygraph_cluster::{
    build_endpoints, CommError, Endpoint, NetStats, OutboxSet, Phase, SimClock, Termination,
};
use lazygraph_partition::{DistributedGraph, LocalShard};

use crate::config::EngineConfig;
use crate::lazy_block::LazyCounters;
use crate::machine::{assemble, EngineOutcome, MachineOut};
use crate::parallel::ParallelCtx;
use crate::program::{EdgeCtx, VertexProgram};
use crate::state::{vertex_ctx, InitMessages, MachineState};
use crate::sync_engine::SyncMsg;

/// Runs the Async engine to quiescence (no supersteps, so the outcome
/// reports 0 iterations and always converges).
pub fn run_async_engine<P: VertexProgram>(
    dg: &DistributedGraph,
    program: &P,
    cfg: &EngineConfig,
    stats: Arc<NetStats>,
) -> Result<EngineOutcome<P::VData>, CommError> {
    let p = dg.num_machines;
    let endpoints = build_endpoints::<(u32, SyncMsg<P>)>(cfg.transport, p, &stats)?;
    let term = Termination::new(p);
    #[allow(clippy::type_complexity)]
    let workers: Vec<(&LocalShard, Endpoint<(u32, SyncMsg<P>)>)> =
        dg.shards.iter().zip(endpoints).collect();
    let outs = lazygraph_cluster::try_run_machines(workers, |(shard, ep)| {
        machine_loop(dg, shard, ep, program, cfg, &term, &stats)
    })?;
    Ok(assemble(outs, dg.num_global_vertices))
}

fn machine_loop<P: VertexProgram>(
    dg: &DistributedGraph,
    shard: &LocalShard,
    mut ep: Endpoint<(u32, SyncMsg<P>)>,
    program: &P,
    cfg: &EngineConfig,
    term: &Termination,
    stats: &NetStats,
) -> Result<MachineOut<P>, CommError> {
    let (num_vertices, cost) = (dg.num_global_vertices, cfg.cost);
    let n = ep.num_machines();
    let pctx = ParallelCtx::new(cfg.parallel(dg.num_machines));
    let mut clock = SimClock::new();
    let mut state: MachineState<P> =
        MachineState::init(shard, program, InitMessages::MastersOnly, num_vertices);
    let update_bytes = program.vdata_bytes() + std::mem::size_of::<P::Delta>();
    let mut scatter_tasks: Vec<(u32, P::Delta)> = Vec::new();
    let mut idle = false;
    // Persistent staging: pump flushes refill shipped slots from the
    // endpoint's buffer pool, so steady-state pumps allocate nothing.
    let mut outboxes: OutboxSet<(u32, SyncMsg<P>)> = OutboxSet::new(n);

    loop {
        let mut progressed = false;

        // ---- Drain the network. -----------------------------------------
        // Accum/Update translation stays serial per batch — Updates
        // overwrite `vdata` in place, and async batches are small by
        // design — but `local_of` is now a dense-table index, and drained
        // buffers recycle back to their senders.
        while let Some(mut batch) = ep.try_recv() {
            if idle {
                term.leave_idle();
                idle = false;
            }
            // Materialize exactly once, at receipt (Updates overwrite in
            // place, so this path cannot cursor-route raw TCP batches);
            // everything below works on the decoded items.
            batch
                .make_items()
                .map_err(|e| CommError::transport(shard.machine.index(), &e))?;
            let bytes = batch.items.len() * update_bytes;
            clock.merge(batch.sent_at + cost.async_batch_time(bytes as u64));
            let accums = &mut state.scratch.staging.open_blocks(&pctx, shard.num_local(), 1)[0];
            for (gid, msg) in batch.items.drain(..) {
                let l = shard
                    .local_of(gid.into())
                    .expect("async message routed to non-replica"); // lazylint: allow(no-panic) -- replica routing table guarantees locality; a miss is a partitioner bug
                match msg {
                    SyncMsg::Accum(d) => {
                        debug_assert!(shard.is_master[l as usize]);
                        accums.stage(l, program.gather(gid.into(), d), false);
                    }
                    SyncMsg::Update { data, scatter } => {
                        state.vdata[l as usize] = data;
                        if let Some(d) = scatter {
                            scatter_tasks.push((l, d));
                        }
                    }
                }
            }
            state.deliver_staged(program, &pctx);
            ep.recycle(batch);
            term.note_delivered(1);
            progressed = true;
        }

        // ---- Process local work. -----------------------------------------
        if !state.queue.is_empty() || !scatter_tasks.is_empty() {
            if idle {
                term.leave_idle();
                idle = false;
            }
            progressed = true;
            let mut edges = 0u64;
            let mut applies = 0u64;

            // Scatter deltas received from masters along local out-edges:
            // source blocks stage their deliveries in parallel from the
            // read-only vertex data; `deliver_staged` folds them in block
            // order (see DESIGN.md, two-level threading).
            let vdata_view = &state.vdata;
            let blocks =
                state.scratch.staging.source_blocks(&pctx, vdata_view.len(), &scatter_tasks);
            let block_edges: Vec<u64> = pctx.pool().map(blocks, |(chunk, b)| {
                let mut edges = 0u64;
                for &(l, d) in chunk {
                    let v = shard.global_of(l);
                    let ctx = vertex_ctx(shard, l, num_vertices);
                    let data = &vdata_view[l as usize];
                    for (tl, weight, _mode) in shard.out_edges(l) {
                        edges += 1;
                        let edge = EdgeCtx {
                            dst: shard.global_of(tl),
                            weight,
                        };
                        if let Some(msg) = program.scatter(v, data, d, &ctx, &edge) {
                            b.stage(tl, msg, false);
                        }
                    }
                }
                edges
            });
            scatter_tasks.clear();
            state.deliver_staged(program, &pctx);
            edges += block_edges.into_iter().sum::<u64>();

            // Pump the worklist once: masters apply + broadcast eagerly,
            // mirrors forward their accumulators eagerly. Blocked
            // two-phase: applies run on clones of the vertex value against
            // a read-only snapshot, then everything commits in block order
            // (the sorted worklist makes the blocking reproducible).
            enum Pump<P: VertexProgram> {
                Applied {
                    l: u32,
                    data: P::VData,
                    d: Option<P::Delta>,
                },
                Forward { l: u32, accum: P::Delta },
                Quiet { l: u32 },
            }
            let mut worklist = state.take_queue();
            worklist.sort_unstable();
            let (message_view, vdata_view) = (&state.message, &state.vdata);
            let pump_blocks: Vec<Vec<Pump<P>>> = pctx.map_chunks(&worklist, |chunk| {
                chunk
                    .iter()
                    .map(|&l| {
                        let Some(accum) = message_view[l as usize] else {
                            return Pump::Quiet { l };
                        };
                        if shard.is_master[l as usize] {
                            let ctx = vertex_ctx(shard, l, num_vertices);
                            let mut data = vdata_view[l as usize].clone();
                            let d =
                                program.apply(shard.global_of(l), &mut data, accum, &ctx);
                            Pump::Applied { l, data, d }
                        } else {
                            Pump::Forward { l, accum }
                        }
                    })
                    .collect()
            });
            for entry in pump_blocks.into_iter().flatten() {
                match entry {
                    Pump::Applied { l, data, d } => {
                        state.message[l as usize] = None;
                        state.active[l as usize] = false;
                        clock.advance(cost.async_apply_time());
                        applies += 1;
                        let gid = shard.global_of(l).0;
                        for &m in shard.mirrors[l as usize].iter() {
                            outboxes.push(
                                m.index(),
                                (
                                    gid,
                                    SyncMsg::Update {
                                        data: data.clone(),
                                        scatter: d,
                                    },
                                ),
                            );
                        }
                        state.vdata[l as usize] = data;
                        if let Some(d) = d {
                            scatter_tasks.push((l, d));
                        }
                    }
                    Pump::Forward { l, accum } => {
                        state.message[l as usize] = None;
                        state.active[l as usize] = false;
                        let gid = shard.global_of(l).0;
                        outboxes.push(
                            shard.master_of[l as usize].index(),
                            (gid, SyncMsg::Accum(accum)),
                        );
                    }
                    Pump::Quiet { l } => {
                        state.active[l as usize] = false;
                    }
                }
            }
            stats.record_edges(edges);
            stats.record_applies(applies);
            clock.advance(cost.compute_time(edges) + cost.apply_time(applies));
            // Flush: one batch per destination per pump, each paying the
            // per-message overhead; slots refill from the buffer pool.
            for dst in 0..n {
                if dst == shard.machine.index() || outboxes.staged(dst).is_empty() {
                    continue;
                }
                term.note_sent(1);
                clock.advance(cost.async_send_cpu);
                ep.send_staged(&mut outboxes, dst, clock.now(), Phase::Async, update_bytes, stats)?;
            }
        }

        // Self-pumping: scatter_tasks produced this pump are handled on the
        // next loop turn; only park when truly drained.
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

    let counters = LazyCounters::default();
    Ok(MachineOut::collect(shard, &state, 0, true, clock.now(), counters))
}
