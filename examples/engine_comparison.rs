//! Side-by-side engine anatomy: run one workload on all six engines and
//! dissect *why* the lazy engines win — global synchronisations,
//! communication traffic, coherency points, comm-mode choices, and the
//! simulated-time breakdown (compute / communication / barrier).
//!
//! ```sh
//! cargo run --release --example engine_comparison
//! ```

use lazygraph::prelude::*;
use lazygraph_graph::Dataset;

fn main() {
    let ds = Dataset::RoadNetCaLike;
    let graph = ds.build_symmetric(0.25);
    println!(
        "{}: {} vertices, {} edges (symmetrised, weighted)",
        ds.name(),
        graph.num_vertices(),
        graph.num_edges()
    );
    println!("workload: SSSP from vertex 0 on 16 machines\n");

    for engine in [
        EngineKind::PowerGraphSync,
        EngineKind::PowerGraphAsync,
        EngineKind::PowerSwitchHybrid,
        EngineKind::LazyBlockAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::DeltaAccum,
    ] {
        let cfg = EngineConfig::lazygraph().with_engine(engine);
        let r = run(&graph, 16, &cfg, &Sssp::new(0u32)).expect("cluster run");
        let m = &r.metrics;
        assert!(m.converged, "{} did not converge", m.engine);
        println!("── {} {}", m.engine, "─".repeat(46_usize.saturating_sub(m.engine.len())));
        println!(
            "   simulated time {:>8.3}s   (compute {:.3}s | comm {:.3}s | barrier {:.3}s)",
            m.sim_time, m.breakdown.compute, m.breakdown.comm, m.breakdown.barrier
        );
        println!(
            "   global syncs   {:>8}    traffic {} bytes in {} batches",
            m.global_syncs(),
            m.traffic_bytes(),
            m.stats.total_batches()
        );
        if m.coherency_points > 0 {
            println!(
                "   coherency pts  {:>8}    local sub-rounds {} | a2a {} | m2m {}",
                m.coherency_points, m.local_subrounds, m.a2a_exchanges, m.m2m_exchanges
            );
        }
        println!(
            "   iterations     {:>8}    converged: {}\n",
            m.iterations, m.converged
        );
    }
    println!(
        "Reading the anatomy: the Sync baseline pays 3 barriers + 2 collective\n\
         communications per superstep; LazyBlockAsync collapses whole runs of\n\
         supersteps into barrier-free local sub-rounds and pays one sync per\n\
         data coherency point; the async engines have no barriers at all but\n\
         pay per-message overheads on every hop."
    );
}
