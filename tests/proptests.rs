//! Property-based tests (proptest): partitioning invariants and the §3.5
//! equivalence claim — lazy coherency ≡ eager coherency ≡ sequential
//! semantics — over randomly generated graphs, weights, partitionings, and
//! machine counts.

use proptest::prelude::*;

use lazygraph::prelude::*;
use lazygraph_algorithms::reference;
use lazygraph_engine::IntervalPolicy;
use lazygraph_graph::VertexId;
use lazygraph_engine::parallel::{ParallelConfig, ParallelCtx};
use lazygraph_engine::state::{InitMessages, MachineState};
use lazygraph_partition::{
    build_distributed, partition_graph, plan_split, validate_distributed, SplitterConfig,
};

/// Strategy: a random directed graph as (num_vertices, edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (8usize..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..300);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)], symmetric: bool, seed: u64) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(s, d) in edges {
        b.add_edge(s, d);
    }
    b.remove_self_loops();
    if symmetric {
        b.symmetrize();
    } else {
        b.dedup();
    }
    b.randomize_weights(1.0, 9.0, seed);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every strategy × machine count yields a structurally valid
    /// distributed graph: every one-edge stored exactly once, parallel
    /// edges on exactly their dispatch set, one master per vertex, mirror
    /// lists consistent.
    #[test]
    fn distributed_graph_invariants(
        (n, edges) in arb_graph(),
        machines in 1usize..9,
        strategy_idx in 0usize..4,
        bidirectional in any::<bool>(),
        split in any::<bool>(),
    ) {
        let g = build(n, &edges, false, 7);
        let strategy = PartitionStrategy::all()[strategy_idx];
        let assignment = strategy.assign(&g, machines);
        prop_assert_eq!(assignment.len(), g.num_edges());
        let cfg = if split {
            SplitterConfig { t_extra: 0.001, max_fraction: 0.3, ..Default::default() }
        } else {
            SplitterConfig::disabled()
        };
        let plan = plan_split(&g, machines, &cfg);
        let dg = build_distributed(&g, &assignment, machines, &plan, bidirectional);
        prop_assert!(validate_distributed(&dg, &g, &assignment, &plan, bidirectional).is_ok());
        prop_assert!(dg.lambda() >= 1.0 - 1e-9);
        prop_assert!(dg.lambda() <= machines as f64 + 1e-9);
    }

    /// SSSP: every engine on every partitioning equals Dijkstra exactly.
    #[test]
    fn sssp_equivalence(
        (n, edges) in arb_graph(),
        machines in 1usize..7,
        strategy_idx in 0usize..4,
        engine_idx in 0usize..4,
    ) {
        let g = build(n, &edges, true, 11);
        let source = VertexId(0);
        let expected = reference::dijkstra(&g, source);
        let engine = [
            EngineKind::PowerGraphSync,
            EngineKind::PowerGraphAsync,
            EngineKind::LazyBlockAsync,
            EngineKind::LazyVertexAsync,
        ][engine_idx];
        let cfg = EngineConfig::lazygraph()
            .with_engine(engine)
            .with_partition(PartitionStrategy::all()[strategy_idx]);
        let result = run(&g, machines, &cfg, &Sssp::new(source)).expect("cluster run");
        prop_assert_eq!(result.values, expected);
    }

    /// k-core (additive, non-idempotent algebra — the hard case for the
    /// Inverse-based mirrors-to-master coherency): lazy equals peeling.
    #[test]
    fn kcore_equivalence(
        (n, edges) in arb_graph(),
        machines in 1usize..7,
        k in 1u32..6,
        m2m in any::<bool>(),
    ) {
        let g = build(n, &edges, true, 13);
        let expected = reference::kcore_peeling(&g, k);
        let cfg = EngineConfig::lazygraph()
            .with_bidirectional(true)
            .with_comm_mode(if m2m {
                CommModePolicy::MirrorsToMaster
            } else {
                CommModePolicy::AllToAll
            });
        let result = run(&g, machines, &cfg, &KCore::new(k)).expect("cluster run");
        prop_assert_eq!(result.values, expected);
    }

    /// CC with every interval policy equals union-find.
    #[test]
    fn cc_equivalence(
        (n, edges) in arb_graph(),
        machines in 1usize..7,
        policy_idx in 0usize..3,
    ) {
        let g = build(n, &edges, true, 17);
        let expected = reference::connected_components(&g);
        let policy = [
            IntervalPolicy::paper_adaptive(),
            IntervalPolicy::AlwaysLazy,
            IntervalPolicy::NeverLazy,
        ][policy_idx];
        let cfg = EngineConfig::lazygraph()
            .with_bidirectional(true)
            .with_interval(policy);
        let result = run(&g, machines, &cfg, &ConnectedComponents).expect("cluster run");
        prop_assert_eq!(result.values, expected);
    }

    /// PageRank (additive, tolerance-gated): sync and lazy agree with the
    /// sequential executor within tolerance-scaled error bounds.
    #[test]
    fn pagerank_equivalence(
        (n, edges) in arb_graph(),
        machines in 1usize..6,
    ) {
        let g = build(n, &edges, false, 19);
        let program = PageRankDelta { tolerance: 1e-7 };
        let seq = lazygraph_algorithms::reference::run_sequential(&g, &program);
        for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
            let cfg = EngineConfig::lazygraph().with_engine(engine);
            let result = run(&g, machines, &cfg, &program).expect("cluster run");
            for (v, (got, want)) in result.values.iter().zip(&seq).enumerate() {
                prop_assert!(
                    (got.rank - want.rank).abs() < 1e-3 * want.rank.max(1.0),
                    "{:?} vertex {}: {} vs {}", engine, v, got.rank, want.rank
                );
            }
        }
    }

    /// The block-ordered merge rule as a property: pushing a shuffled
    /// delta sequence through the parallel block merge (staged from
    /// source blocks, folded by `MachineState::deliver_staged`) must equal
    /// the sequential left-fold the single-threaded engine performs —
    /// bitwise, since PageRank's ⊕ is an order-sensitive float sum — at
    /// every thread count and block size. Queues may differ only in order
    /// (engines sort worklists).
    #[test]
    fn parallel_block_merge_equals_sequential_left_fold(
        (n, edges) in arb_graph(),
        raw in proptest::collection::vec(
            (0usize..1usize << 16, -1.0e6f64..1.0e6, any::<bool>()),
            1..250,
        ),
        threads in 1usize..9,
        block_size in 1usize..40,
    ) {
        let g = build(n, &edges, false, 23);
        let cfg = EngineConfig::lazygraph();
        let dg = partition_graph(&g, 1, cfg.partition, &cfg.splitter, cfg.bidirectional);
        let shard = &dg.shards[0];
        let program = PageRankDelta { tolerance: 1e-7 };
        let blank = || {
            let mut st: MachineState<PageRankDelta> =
                MachineState::init(shard, &program, InitMessages::MastersOnly, n);
            st.queue.clear();
            st.message.iter_mut().for_each(|m| *m = None);
            st.active.iter_mut().for_each(|a| *a = false);
            st
        };
        let items: Vec<(u32, f64, bool)> = raw
            .iter()
            .map(|&(t, d, fold)| ((t % shard.num_local()) as u32, d, fold))
            .collect();

        // Sequential reference: the left-fold in item order, deltas
        // accumulated exactly as one-edge-mode receipts are.
        let mut seq = blank();
        for &(l, d, fold) in &items {
            seq.deliver(&program, l, d);
            if fold {
                seq.accumulate_delta(&program, l, d);
            }
        }

        let pctx = ParallelCtx::new(ParallelConfig { threads, block_size }).expect("spawn pool");
        let mut par = blank();
        let blocks = par.scratch.staging.source_blocks(&pctx, shard.num_local(), &items);
        pctx.pool().map(blocks, |(chunk, b)| {
            for &(l, d, fold) in chunk {
                b.stage(l, d, fold);
            }
        });
        par.deliver_staged(&program, &pctx);

        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|m| m.map(f64::to_bits)).collect()
        };
        prop_assert_eq!(bits(&par.message), bits(&seq.message));
        prop_assert_eq!(bits(&par.delta_msg), bits(&seq.delta_msg));
        prop_assert_eq!(&par.active, &seq.active);
        let mut pq = par.queue.clone();
        let mut sq = seq.queue.clone();
        pq.sort_unstable();
        sq.sort_unstable();
        prop_assert_eq!(pq, sq);
    }
}
