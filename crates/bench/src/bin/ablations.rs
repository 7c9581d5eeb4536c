//! Ablations of LazyGraph's design choices (beyond the paper's own
//! Fig. 8 ablation): edge splitter on/off, coherency comm-mode policies,
//! partition strategies, and the LazyVertexAsync extension engine.
//!
//! Regenerate: `cargo run -p lazygraph-bench --release --bin ablations`

use lazygraph_bench::{run_full, suite_graph, Args, Table, Workload};
use lazygraph_engine::{CommModePolicy, EngineConfig};
use lazygraph_graph::Dataset;
use lazygraph_partition::PartitionStrategy;

fn main() {
    let args = Args::parse();
    let machines = args.machines;

    // --- Ablation 1: the edge splitter. --------------------------------
    println!("Ablation 1: edge splitter (parallel-edges) on/off — SSSP");
    let mut table = Table::new(&["graph", "split off sim(s)", "split on sim(s)", "storage overhead"]);
    for ds in [Dataset::RoadNetCaLike, Dataset::TwitterLike] {
        let g = suite_graph(ds, args.scale);
        let mut off = EngineConfig::lazygraph();
        off.splitter.t_extra = 0.0;
        let mut on = EngineConfig::lazygraph();
        on.splitter.t_extra = 0.002;
        on.splitter.max_fraction = 0.10;
        let m_off = run_full(&g, machines, Workload::Sssp, ds, &off);
        let m_on = run_full(&g, machines, Workload::Sssp, ds, &on);
        let dg = lazygraph_bench::partition_for(&g, machines, &on);
        table.row(vec![
            ds.name().into(),
            format!("{:.3}", m_off.sim_time),
            format!("{:.3}", m_on.sim_time),
            format!("{:.3}", dg.storage_overhead()),
        ]);
    }
    table.print();

    // --- Ablation 2: coherency communication policy. --------------------
    println!("\nAblation 2: coherency communication policy — k-core");
    let mut table = Table::new(&["graph", "auto", "all-to-all", "mirrors-to-master", "auto traffic(B)"]);
    for ds in [Dataset::RoadNetCaLike, Dataset::EnwikiLike] {
        let g = suite_graph(ds, args.scale);
        let mut cells = vec![ds.name().to_string()];
        let mut auto_traffic = 0;
        for policy in [
            CommModePolicy::Auto,
            CommModePolicy::AllToAll,
            CommModePolicy::MirrorsToMaster,
        ] {
            let cfg = EngineConfig::lazygraph().with_comm_mode(policy);
            let m = run_full(&g, machines, Workload::KCore, ds, &cfg);
            if policy == CommModePolicy::Auto {
                auto_traffic = m.traffic_bytes();
            }
            cells.push(format!("{:.3}", m.sim_time));
        }
        cells.push(auto_traffic.to_string());
        table.row(cells);
    }
    table.print();

    // --- Ablation 3: partition strategy under the lazy engine. ----------
    println!("\nAblation 3: partition strategies — CC");
    let mut table = Table::new(&["graph", "strategy", "lambda", "sim(s)", "traffic(B)"]);
    for ds in [Dataset::RoadNetCaLike, Dataset::TwitterLike] {
        let g = suite_graph(ds, args.scale);
        for strategy in PartitionStrategy::all() {
            let cfg = EngineConfig::lazygraph().with_partition(strategy);
            let m = run_full(&g, machines, Workload::Cc, ds, &cfg);
            table.row(vec![
                ds.name().into(),
                strategy.name().into(),
                format!("{:.2}", m.lambda),
                format!("{:.3}", m.sim_time),
                m.traffic_bytes().to_string(),
            ]);
        }
    }
    table.print();

    // --- Ablation 4: LazyVertexAsync (the paper's future-work engine). --
    println!("\nAblation 4: LazyBlockAsync vs LazyVertexAsync — SSSP");
    let mut table = Table::new(&["graph", "block sim(s)", "vertex sim(s)", "block traffic", "vertex traffic"]);
    for ds in [Dataset::RoadNetCaLike, Dataset::TwitterLike] {
        let g = suite_graph(ds, args.scale);
        let block = run_full(
            &g,
            machines,
            Workload::Sssp,
            ds,
            &EngineConfig::lazygraph(),
        );
        let vertex = run_full(
            &g,
            machines,
            Workload::Sssp,
            ds,
            &EngineConfig::lazy_vertex_async(),
        );
        table.row(vec![
            ds.name().into(),
            format!("{:.3}", block.sim_time),
            format!("{:.3}", vertex.sim_time),
            block.traffic_bytes().to_string(),
            vertex.traffic_bytes().to_string(),
        ]);
    }
    table.print();
}
