//! Integration coverage for the extension algorithms (widest path,
//! personalised PageRank, multi-source BFS) across the distributed engines
//! — each exercises a different algebra corner: max–min, seeded additive,
//! and bitwise-OR.

mod common;

use lazygraph::prelude::*;
use lazygraph_algorithms::multi_bfs::MultiSourceBfs;
use lazygraph_algorithms::ppr::{ppr_power, PersonalizedPageRank};
use lazygraph_algorithms::reference;
use lazygraph_algorithms::widest_path::{widest_path_reference, WidestPath};
use lazygraph_graph::generators::{erdos_renyi, rmat, small_world, RmatConfig};
use lazygraph_graph::VertexId;

fn engines() -> [EngineKind; 4] {
    [
        EngineKind::PowerGraphSync,
        EngineKind::PowerGraphAsync,
        EngineKind::LazyBlockAsync,
        EngineKind::LazyVertexAsync,
    ]
}

#[test]
fn widest_path_all_engines_match_reference() {
    let base = rmat(RmatConfig::weblike(9, 6, 41));
    let mut b = GraphBuilder::new(base.num_vertices());
    b.extend(base.edges());
    b.randomize_weights(1.0, 50.0, 41);
    let g = b.build();
    let expected = widest_path_reference(&g, VertexId(0));
    for engine in engines() {
        let cfg = EngineConfig::lazygraph().with_engine(engine);
        let result = run(&g, 5, &cfg, &WidestPath::new(0u32)).expect("cluster run");
        assert_eq!(result.values, expected, "{engine:?} diverged");
    }
}

#[test]
fn multi_bfs_all_engines_match_reference() {
    let g = small_world(800, 3, 0.05, 42);
    let seeds = MultiSourceBfs::spread_seeds(g.num_vertices(), 12, 7);
    let program = MultiSourceBfs::new(seeds.clone());
    let expected = reference::run_sequential(&g, &program);
    for engine in engines() {
        let cfg = EngineConfig::lazygraph().with_engine(engine);
        let result = run(&g, 6, &cfg, &program).expect("cluster run");
        assert_eq!(result.values, expected, "{engine:?} diverged");
    }
}

#[test]
fn ppr_engines_near_power_iteration() {
    let g = erdos_renyi(250, 1800, 43);
    let seed = VertexId(11);
    let program = PersonalizedPageRank {
        seed,
        tolerance: 1e-7,
    };
    let power = ppr_power(&g, seed, 150);
    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        let cfg = EngineConfig::lazygraph().with_engine(engine);
        let result = run(&g, 4, &cfg, &program).expect("cluster run");
        for (v, (got, want)) in result.values.iter().zip(&power).enumerate() {
            assert!(
                (got.rank - want).abs() < 1e-2 * want.max(0.1),
                "{engine:?} vertex {v}: {} vs {}",
                got.rank,
                want
            );
        }
    }
}

#[test]
fn history_recording_round_trip() {
    let g = small_world(600, 3, 0.1, 45);
    let mut cfg = EngineConfig::lazygraph();
    cfg.record_history = true;
    let r = run(&g, 4, &cfg, &ConnectedComponents).expect("cluster run");
    let steps = common::lazy_supersteps(&r.metrics.history);
    assert_eq!(steps.len() as u64, r.metrics.coherency_points);
    assert!(!steps[0].lazy_on && steps[0].subrounds == 0, "first superstep is always eager");
    assert!(steps[1..].iter().all(|s| s.lazy_on), "E/V ≤ 10: lazy from superstep 2");
    // The trend observes every superstep's active count but the one that
    // found none.
    let last = &steps[steps.len() - 1].carry;
    assert_eq!(last.trend.observed(), steps.len() as u64 - 1, "last superstep must be quiescent");
    // Simulated time is monotone across supersteps.
    for w in r.metrics.history.windows(2) {
        assert!(w[0].sim_time <= w[1].sim_time);
        assert_eq!(w[0].superstep + 1, w[1].superstep);
    }
}

/// The skeleton books the trace for every engine: one record a step — a
/// superstep, or a barrier-free engine's round — numbered in order. And
/// the trace ends where the counters end: on a converged run machine 0's
/// last record holds the deterministic counters its machine returned, so
/// nothing is counted after the last step and no record is a step behind.
#[test]
fn every_engine_books_one_record_a_step() {
    fn check<P: VertexProgram>(g: &Graph, engine: EngineKind, program: &P) {
        let mut cfg = EngineConfig::lazygraph().with_engine(engine);
        cfg.record_history = true;
        let m = run(g, 4, &cfg, program).expect("cluster run").metrics;
        let at = format!("{} {}", engine.name(), program.name());
        let supersteps: Vec<u64> = m.history.iter().map(|r| r.superstep).collect();
        assert!(m.iterations > 0 && m.converged, "{at}");
        assert_eq!(supersteps, (1..=m.iterations).collect::<Vec<u64>>(), "{at}");
        let last = m.history.last().expect("a record a step");
        assert_eq!(last.counters, m.per_machine[0].deterministic(), "{at}");
    }
    let g = small_world(600, 3, 0.1, 45);
    for engine in [
        EngineKind::PowerGraphSync,
        EngineKind::PowerGraphAsync,
        EngineKind::LazyBlockAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
        EngineKind::DeltaAccum,
    ] {
        check(&g, engine, &PageRankDelta::default());
        check(&g, engine, &Sssp::new(0u32));
    }
}
