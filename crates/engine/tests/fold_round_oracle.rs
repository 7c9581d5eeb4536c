//! The delivery sink against its reference (DESIGN.md §9, §17).
//!
//! Production delivers through one run-vectorised, block-parallel fold
//! with two kinds of producer: inbound batches, routed block-parallel
//! with zero-copy cursor decode
//! ([`route_inbound`](lazygraph_engine::exchange::route_inbound));
//! and the source blocks of a local
//! sweep, which stage each scattered message straight into its target
//! block's segment. The reference for both is what the engines did before
//! any of that: one serial pass in (sender rank | source block, item)
//! order, one `deliver` per item. For randomized streams — NaN bit
//! patterns, duplicate targets, empty blocks included —
//! every `MachineState` must come out bitwise equal, activation order
//! included, on materialized items and on raw cursors alike.

use std::sync::Arc;

use proptest::prelude::*;

use lazygraph_cluster::{build_endpoints, run_machines, NetStats, Phase, TransportKind};
use lazygraph_engine::exchange::Port;
use lazygraph_engine::state::{InitMessages, MachineState};
use lazygraph_engine::{EdgeCtx, ParallelConfig, ParallelCtx, VertexCtx, VertexProgram};
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_graph::VertexId;
use lazygraph_partition::{
    partition_graph, DistributedGraph, LocalShard, PartitionStrategy, SplitterConfig,
};

const MACHINES: usize = 3;

/// Float ⊕ whose result depends on fold order in the last bit (and in the
/// NaN payload), so any re-association shows.
struct FloatSum;

impl VertexProgram for FloatSum {
    type VData = f32;
    type Delta = f32;
    fn name(&self) -> &'static str {
        "float-sum"
    }
    fn init_data(&self, _v: VertexId, _c: &VertexCtx) -> f32 {
        0.0
    }
    fn init_message(&self, v: VertexId, _c: &VertexCtx) -> Option<f32> {
        // Half the slots start occupied and queued, half empty.
        v.0.is_multiple_of(2).then_some(0.1 * v.0 as f32)
    }
    fn sum(&self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn inverse(&self, accum: f32, a: f32) -> f32 {
        accum - a
    }
    fn apply(&self, _v: VertexId, d: &mut f32, a: f32, _c: &VertexCtx) -> Option<f32> {
        *d += a;
        None
    }
    fn scatter(&self, _v: VertexId, _d: &f32, x: f32, _c: &VertexCtx, _e: &EdgeCtx) -> Option<f32> {
        Some(x)
    }
}

fn placement() -> DistributedGraph {
    let g = rmat(RmatConfig::graph500(6, 4, 11));
    partition_graph(&g, MACHINES, PartitionStrategy::Random, &SplitterConfig::disabled(), false)
}

/// `(target selector, delta bits)` → a wire item for one of `shard`'s
/// local vertices. (An item for a vertex a machine does not hold fails the
/// round: `exchange`'s unit tests.)
fn item(shard: &LocalShard, (sel, bits): (u16, u32)) -> (u32, f32) {
    let gid = shard.global_of(u32::from(sel) % shard.num_local() as u32).0;
    (gid, f32::from_bits(bits))
}

type Fingerprint = (Vec<Option<u32>>, Vec<Option<u32>>, Vec<bool>, Vec<u32>);

/// Everything of a `MachineState` a delivery may touch, floats as bits.
fn fingerprint(state: &MachineState<FloatSum>) -> Fingerprint {
    let bits = |v: &[Option<f32>]| v.iter().map(|m| m.map(f32::to_bits)).collect();
    (bits(&state.message), bits(&state.delta_msg), state.active.clone(), state.queue.clone())
}

/// A fresh state and how long its worklist is before any delivery.
fn fresh(dg: &DistributedGraph, me: usize) -> (MachineState<FloatSum>, usize) {
    let state =
        MachineState::init(&dg.shards[me], &FloatSum, InitMessages::AllReplicas, dg.num_global_vertices);
    let queued = state.queue.len();
    (state, queued)
}

/// Puts the reference's activations since `queued` in the order the
/// blocked fold reports them: the serial pass activates in item order; the
/// fold activates block by block, in item order within a block — a stable
/// sort of the former by block.
fn block_major(state: &mut MachineState<FloatSum>, queued: usize, block_size: usize) {
    state.queue[queued..].sort_by_key(|&l| l as usize / block_size);
}

/// The reference: senders in rank order, items in send order.
fn naive(
    dg: &DistributedGraph,
    me: usize,
    streams: &[Vec<Vec<(u16, u32)>>],
    block_size: usize,
) -> Fingerprint {
    let shard = &dg.shards[me];
    let (mut state, queued) = fresh(dg, me);
    for (from, per_dst) in streams.iter().enumerate() {
        if from == me {
            continue;
        }
        for &raw in &per_dst[me] {
            let (gid, d) = item(shard, raw);
            let l = shard.local_of(gid.into()).expect("a local vertex");
            state.deliver(&FloatSum, l, FloatSum.gather(gid.into(), d));
        }
    }
    block_major(&mut state, queued, block_size);
    fingerprint(&state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `streams[from][to]` is what machine `from` stages for `to`.
    #[test]
    fn fold_round_matches_the_naive_reference_bitwise(
        streams in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((any::<u16>(), any::<u32>()), 0usize..40),
                MACHINES,
            ),
            MACHINES,
        ),
        threads in 1usize..4,
        block_size in 1usize..9,
    ) {
        let dg = placement();
        let par = ParallelConfig { threads, block_size };
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let endpoints = build_endpoints::<(u32, f32)>(transport, MACHINES, &stats)
                .expect("mesh");
            let got = run_machines(endpoints, |ep| {
                let me = ep.me();
                let shard = &dg.shards[me];
                let pctx = ParallelCtx::new(par).expect("spawn pool");
                let mut port = Port::new(ep, stats.clone());
                let (mut state, _) = fresh(&dg, me);
                let mut round = port.fold_round(&pctx, shard, Phase::Coherency, 4, |_, gid, d| {
                    Ok(Some(FloatSum.gather(gid.into(), d)))
                });
                for (dst, raws) in streams[me].iter().enumerate() {
                    if dst == me {
                        continue;
                    }
                    for &raw in raws {
                        let wire = item(&dg.shards[dst], raw);
                        round.outboxes().push(dst, wire);
                    }
                }
                round.close(&FloatSum, &mut state, 0.0).expect("round");
                fingerprint(&state)
            });
            for (me, got) in got.into_iter().enumerate() {
                prop_assert_eq!(
                    got,
                    naive(&dg, me, &streams, block_size),
                    "machine {} on {:?}", me, transport
                );
            }
        }
    }

    /// `tasks[i]` is what worklist entry `i` scatters: `(target selector,
    /// delta bits, also folds into deltaMsg)` per message, possibly none.
    #[test]
    fn local_scatter_matches_the_naive_reference_bitwise(
        tasks in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), any::<u32>(), any::<bool>()), 0usize..6),
            0usize..120,
        ),
        threads in 0usize..3,
        block_size in 0usize..3,
        sweeps in 1usize..4,
    ) {
        let (threads, block_size) = ([1, 2, 8][threads], [1, 7, 1024][block_size]);
        let dg = placement();
        let shard = &dg.shards[0];
        let n = shard.num_local();
        let target = |sel: u16| u32::from(sel) % n as u32;
        let pctx = ParallelCtx::new(ParallelConfig { threads, block_size }).expect("spawn pool");
        let (mut got, _) = fresh(&dg, 0);
        let (mut want, mut queued) = fresh(&dg, 0);
        // Repeated sweeps reuse the staging buffers in place; stale
        // contents must never leak into a later fold.
        for sweep in 0..sweeps {
            let tasks = &tasks[..tasks.len() / (sweep + 1)];
            let blocks = got.scratch.staging.source_blocks(&pctx, tasks, Vec::len);
            pctx.pool().map(blocks, |(chunk, mut b)| {
                for &(sel, bits, fold_delta) in chunk.iter().flatten() {
                    b.stage(target(sel), f32::from_bits(bits), fold_delta);
                }
            });
            let folds = got.deliver_staged(&FloatSum, &pctx);

            let mut occupied = 0u64;
            for &(sel, bits, fold_delta) in tasks.iter().flatten() {
                let (l, d) = (target(sel), f32::from_bits(bits));
                want.deliver(&FloatSum, l, d);
                if fold_delta {
                    occupied += u64::from(want.delta_msg[l as usize].is_some());
                    want.accumulate_delta(&FloatSum, l, d);
                }
            }
            prop_assert_eq!(folds, occupied, "delta folds of sweep {}", sweep);
            block_major(&mut want, queued, block_size);
            queued = want.queue.len();
        }
        prop_assert_eq!(fingerprint(&got), fingerprint(&want));
    }
}
