//! The ⊕-fold round against its reference (DESIGN.md §9, §17).
//!
//! The production inbound path is block-parallel routing with zero-copy
//! cursor decode ([`route_inbound`](lazygraph_engine::exchange::route_inbound))
//! feeding the run-vectorised `deliver_segments`, serialized or streamed
//! in parts. The reference is what the engines did before any of that: a
//! serial pass over the senders in rank order, one `local_of` lookup and
//! one push per item, then a single `deliver_all`. For randomized
//! per-sender batches — NaN bit patterns, duplicate and unroutable
//! targets included — every machine's `MachineState` must come out
//! bitwise equal, on in-process items and on raw TCP cursors alike.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use lazygraph_cluster::{build_endpoints, run_machines, NetStats, Phase, TransportKind};
use lazygraph_engine::exchange::{local_delta, Port};
use lazygraph_engine::state::{InitMessages, MachineState};
use lazygraph_engine::{
    EdgeCtx, ParallelConfig, ParallelCtx, SimBreakdown, VertexCtx, VertexProgram,
};
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

/// `(target selector, delta bits)` → a wire item for `shard`'s machine:
/// mostly one of its local vertices, now and then a vertex it does not
/// hold (which both paths must drop).
fn item(shard: &LocalShard, num_vertices: usize, (sel, bits): (u16, u32)) -> (u32, f32) {
    let gid = if sel.is_multiple_of(13) {
        (0..num_vertices as u32)
            .find(|&g| shard.local_of(g.into()).is_none())
            .unwrap_or(u32::MAX)
    } else {
        shard.global_of(u32::from(sel) % shard.num_local() as u32).0
    };
    (gid, f32::from_bits(bits))
}

/// Everything of a `MachineState` the round may touch, floats as bits.
fn fingerprint(state: &MachineState<FloatSum>) -> (Vec<Option<u32>>, Vec<bool>, Vec<u32>) {
    (
        state.message.iter().map(|m| m.map(f32::to_bits)).collect(),
        state.active.clone(),
        state.queue.clone(),
    )
}

/// The reference: senders in rank order, items in send order.
fn naive(
    dg: &DistributedGraph,
    me: usize,
    streams: &[Vec<Vec<(u16, u32)>>],
    pctx: &ParallelCtx,
) -> MachineState<FloatSum> {
    let shard = &dg.shards[me];
    let mut state = MachineState::init(shard, &FloatSum, InitMessages::AllReplicas, dg.num_global_vertices);
    let mut inbound = Vec::new();
    for (from, per_dst) in streams.iter().enumerate() {
        if from == me {
            continue;
        }
        for &raw in &per_dst[me] {
            let (gid, d) = item(shard, dg.num_global_vertices, raw);
            if let Some(l) = shard.local_of(gid.into()) {
                inbound.push((l, FloatSum.gather(gid.into(), d)));
            }
        }
    }
    state.deliver_all(&FloatSum, pctx, inbound);
    state
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
        part_items in 1u32..9,
    ) {
        let dg = placement();
        let par = ParallelConfig { threads, block_size };
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            for pipeline in [false, true] {
                let stats = Arc::new(NetStats::new());
                let endpoints = build_endpoints::<(u32, f32)>(transport, MACHINES, &stats)
                    .expect("mesh");
                let got = run_machines(endpoints, |ep| {
                    let me = ep.me();
                    let shard = &dg.shards[me];
                    let pctx = ParallelCtx::new(par);
                    let breakdown = Arc::new(Mutex::new(SimBreakdown::default()));
                    let mut port = Port::new(ep, stats.clone(), breakdown, pipeline);
                    let mut state = MachineState::init(
                        shard, &FloatSum, InitMessages::AllReplicas, dg.num_global_vertices,
                    );
                    let route = shard.route_table();
                    let mut round = port.fold_round(
                        &pctx,
                        shard.num_local(),
                        part_items,
                        Phase::Coherency,
                        4,
                        |item| local_delta(route, &FloatSum, item),
                    );
                    for (dst, raws) in streams[me].iter().enumerate() {
                        if dst == me {
                            continue;
                        }
                        for &raw in raws {
                            let wire = item(&dg.shards[dst], dg.num_global_vertices, raw);
                            round.outboxes().push(dst, wire);
                            round.staged(dst, 0.0, &mut state.seg_scratch).expect("stream");
                        }
                    }
                    round.close(&FloatSum, &mut state, 0.0).expect("round");
                    fingerprint(&state)
                });
                let pctx = ParallelCtx::new(par);
                for (me, got) in got.into_iter().enumerate() {
                    prop_assert_eq!(
                        got,
                        fingerprint(&naive(&dg, me, &streams, &pctx)),
                        "machine {} on {:?}, pipeline={}", me, transport, pipeline
                    );
                }
            }
        }
    }
}
