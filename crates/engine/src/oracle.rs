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
        crate::lazy_block::blocked_apply_scatter(
            shard,
            &mut state,
            program,
            num_vertices,
            &pctx,
            &worklist,
            false,
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
