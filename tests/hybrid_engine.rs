//! Integration tests of the PowerSwitch-style hybrid engine (extension):
//! correctness against references, switch behaviour, and the regime where
//! the switch pays.

use lazygraph::prelude::*;
use lazygraph_algorithms::reference;
use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph_graph::VertexId;

fn road() -> Graph {
    let base = grid2d(Grid2dConfig::road(40, 40, 71));
    let mut b = GraphBuilder::new(base.num_vertices());
    b.extend(base.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 12.0, 71);
    b.build()
}

#[test]
fn hybrid_sssp_matches_dijkstra() {
    let g = road();
    let expected = reference::dijkstra(&g, VertexId(0));
    let r = run(&g, 6, &EngineConfig::powerswitch_hybrid(), &Sssp::new(0u32)).expect("cluster run");
    assert_eq!(r.values, expected);
    assert!(r.metrics.converged);
}

#[test]
fn hybrid_cc_and_kcore_match_references() {
    let base = rmat(RmatConfig::graph500(9, 6, 72));
    let mut b = GraphBuilder::new(base.num_vertices());
    b.extend(base.edges());
    b.symmetrize();
    let g = b.build();
    let cfg = EngineConfig::powerswitch_hybrid().with_bidirectional(true);
    let cc = run(&g, 5, &cfg, &ConnectedComponents).expect("cluster run");
    assert_eq!(cc.values, reference::connected_components(&g));
    let kc = run(&g, 5, &cfg, &KCore::new(4)).expect("cluster run");
    assert_eq!(kc.values, reference::kcore_peeling(&g, 4));
}

#[test]
fn hybrid_switches_on_sparse_frontiers() {
    // Road SSSP has a thin wavefront: the hybrid should run far fewer BSP
    // supersteps than pure Sync (it abandons BSP once the frontier falls
    // below the threshold). A BSP superstep is three syncs and an Async
    // round none, so its supersteps are its syncs / 3 (`iterations`
    // counts the rounds too).
    let g = road();
    let sync = run(&g, 6, &EngineConfig::powergraph_sync(), &Sssp::new(0u32)).expect("cluster run");
    let hybrid = run(&g, 6, &EngineConfig::powerswitch_hybrid(), &Sssp::new(0u32)).expect("cluster run");
    let bsp_supersteps = hybrid.metrics.global_syncs() / 3;
    assert!(
        bsp_supersteps < sync.metrics.iterations / 2,
        "hybrid stayed in BSP too long: {bsp_supersteps} supersteps vs sync {}",
        sync.metrics.iterations
    );
    assert!(hybrid.metrics.iterations > bsp_supersteps, "the hybrid never switched");
    assert!(
        hybrid.metrics.global_syncs() < sync.metrics.global_syncs(),
        "hybrid must pay fewer barriers"
    );
    assert!(
        hybrid.metrics.sim_time < sync.metrics.sim_time,
        "the switch must pay on sparse frontiers: hybrid {:.3}s vs sync {:.3}s",
        hybrid.metrics.sim_time,
        sync.metrics.sim_time
    );
}

/// The record of `program`'s run on `g` over 4 machines.
fn record<P: VertexProgram>(g: &Graph, cfg: &EngineConfig, program: &P) -> RunRecord {
    run(g, 4, cfg, program).expect("cluster run").record()
}

#[test]
fn hybrid_threshold_zero_degenerates_to_sync() {
    // Never switching is the Sync engine, not a second implementation of
    // it: the whole record matches, float folds included.
    let road = road();
    let web = rmat(RmatConfig::weblike(10, 8, 73));
    for threads in [1, 4] {
        let sync = EngineConfig::powergraph_sync().with_threads(threads);
        let mut hybrid = EngineConfig::powerswitch_hybrid().with_threads(threads);
        hybrid.hybrid_switch_threshold = 0.0;
        assert_eq!(
            record(&road, &hybrid, &Sssp::new(0u32)),
            record(&road, &sync, &Sssp::new(0u32)),
            "sssp, threads={threads}"
        );
        let pagerank = PageRankDelta { tolerance: 1e-5 };
        assert_eq!(
            record(&web, &hybrid, &pagerank),
            record(&web, &sync, &pagerank),
            "pagerank, threads={threads}"
        );
    }
}

#[test]
fn hybrid_capped_before_converging_reports_unconverged() {
    // The superstep cap is the skeleton's: a BSP phase that runs into it
    // without converging or switching did not converge, exactly as Sync.
    let g = road();
    let mut hybrid = EngineConfig::powerswitch_hybrid();
    hybrid.hybrid_switch_threshold = 0.0;
    for mut cfg in [hybrid, EngineConfig::powergraph_sync()] {
        cfg.max_iterations = 3;
        let r = run(&g, 4, &cfg, &Sssp::new(0u32)).expect("cluster run");
        assert!(!r.metrics.converged, "{}", r.metrics.engine);
        assert_eq!(r.metrics.iterations, 3, "{}", r.metrics.engine);
    }
}

#[test]
fn hybrid_pagerank_near_power_iteration() {
    let g = rmat(RmatConfig::weblike(9, 8, 73));
    let power = reference::pagerank_power(&g, 150);
    let r = run(
        &g,
        4,
        &EngineConfig::powerswitch_hybrid(),
        &PageRankDelta { tolerance: 1e-5 },
    ).expect("cluster run");
    for (v, (got, want)) in r.values.iter().zip(&power).enumerate() {
        assert!(
            (got.rank - want).abs() < 0.01 * want.max(1.0),
            "vertex {v}: {} vs {}",
            got.rank,
            want
        );
    }
}
