//! Reference oracle: the dense single-machine delta-accumulative
//! fixpoint ([`delta_dense_fixpoint`]) the scheduled delta engine is
//! checked against. (The naive serial exchange-delivery reference the
//! fold round is checked against lives with its proptest in
//! `crates/engine/tests/fold_round_oracle.rs`.)

use lazygraph_partition::{partition_graph, PartitionStrategy, SplitterConfig};

use crate::parallel::{ParallelConfig, ParallelCtx};
use crate::program::VertexProgram;
use crate::state::{InitMessages, MachineState};

/// Dense delta-accumulative reference: one machine, no replicas, no
/// scheduling — every epoch applies ⊕ scatter for *every* pending vertex
/// whose priority clears `tolerance`, until nothing schedulable remains.
/// This is the fixpoint the bucket-scheduled
/// [`delta_engine`](crate::delta_engine) must converge to within
/// tolerance: the equivalence suite compares final values against it.
/// Returns `(values, epochs, converged)`.
pub fn delta_dense_fixpoint<P: VertexProgram>(
    graph: &lazygraph_graph::Graph,
    program: &P,
    tolerance: f64,
    max_epochs: u64,
) -> (Vec<P::VData>, u64, bool) {
    let dg = partition_graph(
        graph,
        1,
        PartitionStrategy::Coordinated,
        &SplitterConfig::disabled(),
        false,
    );
    let shard = &dg.shards[0];
    let num_vertices = dg.num_global_vertices;
    #[expect(
        clippy::expect_used,
        reason = "a one-thread pool spawns nothing, so there is no spawn to fail"
    )]
    let pctx = ParallelCtx::new(ParallelConfig {
        threads: 1,
        block_size: crate::config::DEFAULT_BLOCK_SIZE,
    })
    .expect("a one-thread pool spawns nothing");
    let mut state: MachineState<P> =
        MachineState::init(shard, program, InitMessages::AllReplicas, num_vertices);
    let mut epochs = 0u64;
    let mut converged = false;
    let mut worklist: Vec<u32> = Vec::new();
    while epochs < max_epochs {
        epochs += 1;
        let mut queue = state.take_queue();
        queue.sort_unstable();
        worklist.clear();
        for &l in &queue {
            match &state.message[l as usize] {
                Some(d)
                    if program.priority(&state.vdata[l as usize], d) >= tolerance =>
                {
                    worklist.push(l);
                }
                // Sub-tolerance (or empty) inboxes park exactly as in the
                // scheduled engine so both references share one error
                // model.
                _ => state.active[l as usize] = false,
            }
        }
        if worklist.is_empty() {
            converged = true;
            break;
        }
        crate::lazy_block::apply_scatter(
            shard,
            &mut state,
            program,
            num_vertices,
            &pctx,
            &worklist,
            false,
            crate::sync_engine::SCATTER_WINDOW,
        );
    }
    let mut values: Vec<P::VData> = Vec::with_capacity(num_vertices);
    for gid in 0..num_vertices as u32 {
        #[expect(
            clippy::expect_used,
            reason = "a 1-machine partition is total by construction"
        )]
        let l = shard
            .local_of(gid.into())
            .expect("single-machine shard holds every vertex");
        values.push(state.vdata[l as usize].clone());
    }
    (values, epochs, converged)
}

/// The windowed scatter and the lazy sweep against the sweep they replaced
/// (DESIGN.md §9): stage every scattered message, then fold once.
#[cfg(test)]
mod window_tests {
    use lazygraph_graph::generators::{rmat, RmatConfig};
    use lazygraph_graph::VertexId;
    use lazygraph_partition::{
        partition_graph, DistributedGraph, EdgeMode, LocalShard, PartitionStrategy, SplitterConfig,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::lazy_block::apply_scatter;
    use crate::parallel::{ParallelConfig, ParallelCtx};
    use crate::program::{EdgeCtx, VertexCtx, VertexProgram};
    use crate::state::{vertex_ctx, InitMessages, MachineState};
    use crate::sync_engine::{scatter, Receipt};

    /// The scatter before windows: every task's messages staged, one fold.
    fn staged_scatter<P: VertexProgram>(
        shard: &LocalShard,
        state: &mut MachineState<P>,
        program: &P,
        num_vertices: usize,
        pctx: &ParallelCtx,
        tasks: &[(u32, P::Delta)],
        receipt: Receipt,
    ) -> (u64, u64) {
        let vdata_view = &state.vdata;
        let degree = |&(l, _): &(u32, P::Delta)| shard.local_out_degree(l);
        let blocks = state.scratch.staging.source_blocks(pctx, tasks, degree);
        let edges: Vec<u64> = pctx.pool().map(blocks, |(chunk, mut b)| {
            let mut edges = 0u64;
            for &(l, d) in chunk {
                let (v, ctx) = (shard.global_of(l), vertex_ctx(shard, l, num_vertices));
                for (tl, weight, mode) in shard.out_edges(l) {
                    edges += 1;
                    let edge = EdgeCtx { dst: shard.global_of(tl), weight };
                    if let Some(msg) = program.scatter(v, &vdata_view[l as usize], d, &ctx, &edge) {
                        let fold_delta = receipt == Receipt::InboxAndDelta
                            && mode == EdgeMode::OneEdge
                            && shard.has_mirrors(tl);
                        b.stage(tl, msg, fold_delta);
                    }
                }
            }
            edges
        });
        (edges.into_iter().sum(), state.deliver_staged(program, pctx))
    }

    /// The lazy sweep before windows: each source block applies its entries
    /// on clones and scatters from the clones, staging everything; then the
    /// clones commit in block order and one fold delivers.
    fn staged_sweep<P: VertexProgram>(
        shard: &LocalShard,
        state: &mut MachineState<P>,
        program: &P,
        num_vertices: usize,
        pctx: &ParallelCtx,
        worklist: &[u32],
        update_coherent: bool,
    ) -> (u64, u64, u64) {
        let (message_view, vdata_view) = (&state.message, &state.vdata);
        let degree = |&l: &u32| shard.local_out_degree(l);
        let blocks = state.scratch.staging.source_blocks(pctx, worklist, degree);
        #[expect(clippy::type_complexity, reason = "per-block (edges, commits), test-only")]
        let done: Vec<(u64, Vec<(u32, Option<P::VData>)>)> = pctx.pool().map(blocks, |(chunk, mut b)| {
            let (mut edges, mut commits) = (0u64, Vec::new());
            for &l in chunk {
                let Some(accum) = message_view[l as usize] else {
                    commits.push((l, None));
                    continue;
                };
                let (v, ctx) = (shard.global_of(l), vertex_ctx(shard, l, num_vertices));
                let mut data = vdata_view[l as usize].clone();
                if let Some(d) = program.apply(v, &mut data, accum, &ctx) {
                    for (tl, weight, mode) in shard.out_edges(l) {
                        edges += 1;
                        let edge = EdgeCtx { dst: shard.global_of(tl), weight };
                        if let Some(msg) = program.scatter(v, &data, d, &ctx, &edge) {
                            b.stage(tl, msg, mode == EdgeMode::OneEdge && shard.has_mirrors(tl));
                        }
                    }
                }
                commits.push((l, Some(data)));
            }
            (edges, commits)
        });
        let (mut edges, mut applies) = (0, 0);
        for (block_edges, commits) in done {
            edges += block_edges;
            for (l, data) in commits {
                state.message[l as usize] = None;
                state.active[l as usize] = false;
                if let Some(data) = data {
                    applies += 1;
                    if update_coherent {
                        state.coherent[l as usize] = data.clone();
                    }
                    state.vdata[l as usize] = data;
                }
            }
        }
        (edges, applies, state.deliver_staged(program, pctx))
    }

    /// An order-sensitive float program: `+` as ⊕ over deltas of mixed
    /// magnitude, so any change to a target's fold sequence shows in the
    /// last bits. Some applies stay quiet and some edges carry nothing.
    macro_rules! float_program {
        ($name:ident, $t:ty) => {
            struct $name;
            impl VertexProgram for $name {
                type VData = $t;
                type Delta = $t;
                fn name(&self) -> &'static str {
                    stringify!($name)
                }
                fn init_data(&self, v: VertexId, _c: &VertexCtx) -> $t {
                    v.0 as $t * 0.375
                }
                fn init_message(&self, _v: VertexId, _c: &VertexCtx) -> Option<$t> {
                    None
                }
                fn sum(&self, a: $t, b: $t) -> $t {
                    a + b
                }
                fn inverse(&self, accum: $t, a: $t) -> $t {
                    accum - a
                }
                fn apply(&self, v: VertexId, x: &mut $t, a: $t, _c: &VertexCtx) -> Option<$t> {
                    *x += a;
                    (v.0 % 5 != 0).then_some(a * 0.85 + *x * 1e-3)
                }
                fn scatter(
                    &self,
                    _v: VertexId,
                    x: &$t,
                    d: $t,
                    c: &VertexCtx,
                    e: &EdgeCtx,
                ) -> Option<$t> {
                    let out = (c.out_degree + 1) as $t;
                    (e.dst.0 % 7 != 0).then(|| d * e.weight as $t + *x / out)
                }
            }
        };
    }
    float_program!(Sum64, f64);
    float_program!(Sum32, f32);

    /// A random machine of a random graph and placement, with parallel
    /// edges in some placements and none in others.
    fn machine(rng: &mut StdRng) -> (DistributedGraph, usize) {
        let scale = rng.random_range(5..9u32);
        let g = rmat(RmatConfig::graph500(scale, rng.random_range(2..12usize), rng.random()));
        let strategy = [
            PartitionStrategy::Random,
            PartitionStrategy::Grid,
            PartitionStrategy::Coordinated,
            PartitionStrategy::Hybrid,
        ][rng.random_range(0..4usize)];
        let splitter =
            if rng.random() { SplitterConfig::default() } else { SplitterConfig::disabled() };
        let machines = rng.random_range(1..6usize);
        let dg = partition_graph(&g, machines, strategy, &splitter, rng.random());
        let me = rng.random_range(0..machines);
        (dg, me)
    }

    /// A NaN-free delta of random sign and magnitude (2^-20 … 2^20).
    fn delta(rng: &mut StdRng) -> f64 {
        (rng.random::<f64>() - 0.5) * (rng.random_range(-20..21i32) as f64).exp2()
    }

    /// A state with random inboxes (queued, in a random order) and random
    /// `deltaMsg` slots, built the same way from the same seed every time.
    fn state<P: VertexProgram>(
        shard: &LocalShard,
        program: &P,
        num_vertices: usize,
        seed: u64,
        of: impl Fn(f64) -> P::Delta,
    ) -> MachineState<P> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut st = MachineState::init(shard, program, InitMessages::AllReplicas, num_vertices);
        for l in 0..shard.num_local() {
            if rng.random_range(0..3u32) == 0 {
                st.delta_msg[l] = Some(of(delta(&mut rng)));
            }
            if rng.random_range(0..3u32) != 0 {
                st.message[l] = Some(of(delta(&mut rng)));
                st.active[l] = true;
                st.queue.push(l as u32);
            }
        }
        for i in (1..st.queue.len()).rev() {
            st.queue.swap(i, rng.random_range(0..i + 1));
        }
        st
    }

    /// Everything a sweep may touch, floats as exact `{:?}` strings
    /// (NaN-free, so string equality is bitwise), the queue as a set.
    fn fingerprint<P: VertexProgram>(st: &MachineState<P>) -> [String; 6] {
        let mut queue = st.queue.clone();
        queue.sort_unstable();
        [
            format!("{:?}", st.vdata),
            format!("{:?}", st.coherent),
            format!("{:?}", st.message),
            format!("{:?}", st.delta_msg),
            format!("{:?}", st.active),
            format!("{queue:?}"),
        ]
    }

    /// One case: for both entry points, every window and thread count
    /// against the staged reference on identical starting states.
    fn check<P: VertexProgram>(program: &P, case: u64, of: impl Fn(f64) -> P::Delta + Copy) {
        let mut rng = StdRng::seed_from_u64(case);
        let (dg, me) = machine(&mut rng);
        let (shard, nv) = (&dg.shards[me], dg.num_global_vertices);
        let seed: u64 = rng.random();
        let block_size = [1, 7, 64, 1024][rng.random_range(0..4usize)];
        let coherent: bool = rng.random();
        let pool =
            |threads| ParallelCtx::new(ParallelConfig { threads, block_size }).expect("pool");
        let reference = pool(1);
        let receipt = if rng.random() { Receipt::Inbox } else { Receipt::InboxAndDelta };
        // Scatter tasks: random replicas (repeats allowed) and deltas.
        let tasks: Vec<(u32, P::Delta)> = (0..rng.random_range(0..3 * shard.num_local() + 1))
            .map(|_| (rng.random_range(0..shard.num_local() as u32), of(delta(&mut rng))))
            .collect();

        let mut want_scatter = state(shard, program, nv, seed, of);
        let scattered =
            staged_scatter(shard, &mut want_scatter, program, nv, &reference, &tasks, receipt);
        let mut want_sweep = state(shard, program, nv, seed, of);
        let mut worklist = want_sweep.take_queue();
        worklist.sort_unstable();
        let swept =
            staged_sweep(shard, &mut want_sweep, program, nv, &reference, &worklist, coherent);

        for threads in [1, 2, 8] {
            let pctx = pool(threads);
            for window in [1, 3, 17, usize::MAX] {
                let at = format!("case {case}: threads {threads}, window {window}, {receipt:?}");
                let mut got = state(shard, program, nv, seed, of);
                let mut tasks = tasks.clone();
                let done =
                    scatter(shard, &mut got, program, nv, &pctx, &mut tasks, receipt, window);
                assert_eq!(done, scattered, "{at}: edges and delta folds");
                assert!(tasks.is_empty(), "{at}: tasks drained");
                assert_eq!(fingerprint(&got), fingerprint(&want_scatter), "{at}: scatter");

                let mut got = state(shard, program, nv, seed, of);
                let mut worklist = got.take_queue();
                worklist.sort_unstable();
                let done =
                    apply_scatter(shard, &mut got, program, nv, &pctx, &worklist, coherent, window);
                assert_eq!(done, swept, "{at}: edges, applies and delta folds");
                assert_eq!(fingerprint(&got), fingerprint(&want_sweep), "{at}: sweep");
            }
        }
    }

    #[test]
    fn windowed_sweeps_match_the_staged_reference_bitwise() {
        for case in 0..12 {
            check(&Sum64, case, |x| x);
            check(&Sum32, 100 + case, |x| x as f32);
        }
    }
}
