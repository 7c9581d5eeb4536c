//! # lazygraph-partition
//!
//! Vertex-cut partitioning for LazyGraph (§4.1 of the paper): the four cut
//! strategies (random, grid, coordinated, hybrid), replica/master
//! accounting with the replication factor λ, the edge splitter that selects
//! and budgets parallel-edges, the degree-aware hub fan-out post-pass, and
//! the construction of per-machine [`LocalShard`]s with per-edge
//! transmission modes.

pub mod distributed;
pub mod edge_split;
pub mod replication;
pub mod vertex_cut;

pub use distributed::{
    build_distributed, validate_distributed, DistributedGraph, EdgeMode, LocalShard,
    PlacementShape, NO_LOCAL,
};
pub use edge_split::{apply_hub_fanout, plan_split, HubFanoutConfig, SplitPlan, SplitterConfig};
pub use replication::{Replication, MAX_MACHINES};
pub use vertex_cut::{
    load_imbalance, CoordinatedCut, GridCut, HybridCut, PartitionStrategy, Partitioner, RandomCut,
};

use lazygraph_graph::Graph;

/// One-call convenience: partition `graph` over `num_machines` with
/// `strategy`, apply `splitter`, and build the distributed graph.
pub fn partition_graph(
    graph: &Graph,
    num_machines: usize,
    strategy: PartitionStrategy,
    splitter: &SplitterConfig,
    bidirectional: bool,
) -> DistributedGraph {
    partition_graph_with(
        graph,
        num_machines,
        strategy,
        splitter,
        &HubFanoutConfig::default(),
        bidirectional,
    )
}

/// Like [`partition_graph`], with the hub fan-out post-pass applied to
/// the per-edge assignment before replica derivation. Replicas, mirrors,
/// and masters all derive from the reassigned placement, so a fanned-out
/// hub behaves like an ordinary multi-mirror vertex downstream.
pub fn partition_graph_with(
    graph: &Graph,
    num_machines: usize,
    strategy: PartitionStrategy,
    splitter: &SplitterConfig,
    hub_fanout: &HubFanoutConfig,
    bidirectional: bool,
) -> DistributedGraph {
    let mut assignment = strategy.assign(graph, num_machines);
    apply_hub_fanout(graph, &mut assignment, num_machines, hub_fanout);
    let plan = plan_split(graph, num_machines, splitter);
    build_distributed(graph, &assignment, num_machines, &plan, bidirectional)
}

/// Max/mean machine-load ratio in permille from per-machine edge counts
/// (stored or traversed): `max(loads) * 1000 * n / sum(loads)`. 1000 is
/// perfect balance; `1000 * n` means one machine holds all the work.
/// Integer arithmetic, so every host prints the same figure; returns 1000
/// (balanced) when no work was recorded.
pub fn load_ratio_milli(loads: &[u64]) -> u64 {
    let n = loads.len() as u128;
    let sum: u128 = loads.iter().map(|&x| x as u128).sum();
    if n == 0 || sum == 0 {
        return 1000;
    }
    let max = loads.iter().copied().max().unwrap_or(0) as u128;
    (max * 1000 * n / sum) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_graph::generators::{rmat, RmatConfig};

    #[test]
    fn one_call_partition() {
        let g = rmat(RmatConfig::graph500(9, 8, 9));
        let dg = partition_graph(
            &g,
            8,
            PartitionStrategy::Coordinated,
            &SplitterConfig::disabled(),
            false,
        );
        assert_eq!(dg.num_machines, 8);
        assert_eq!(dg.num_global_edges, g.num_edges());
    }

    #[test]
    fn fanout_changes_the_build_only_when_enabled() {
        let g = rmat(RmatConfig::skewed(9, 8, 9));
        let plain = partition_graph(
            &g,
            4,
            PartitionStrategy::AdversarialHubs,
            &SplitterConfig::disabled(),
            false,
        );
        let fanned = partition_graph_with(
            &g,
            4,
            PartitionStrategy::AdversarialHubs,
            &SplitterConfig::disabled(),
            &HubFanoutConfig::all_machines(),
            false,
        );
        assert_eq!(fanned.num_global_edges, plain.num_global_edges);
        let edges = |dg: &DistributedGraph| -> Vec<usize> {
            dg.shards.iter().map(|s| s.num_local_edges()).collect()
        };
        assert_ne!(edges(&plain), edges(&fanned), "fan-out reassigned nothing");
        assert!(
            load_ratio_milli(&edges(&fanned).iter().map(|&x| x as u64).collect::<Vec<_>>())
                < load_ratio_milli(&edges(&plain).iter().map(|&x| x as u64).collect::<Vec<_>>()),
            "fan-out did not flatten per-machine edge counts"
        );
    }

    #[test]
    fn load_ratio_milli_basics() {
        assert_eq!(load_ratio_milli(&[]), 1000);
        assert_eq!(load_ratio_milli(&[0, 0]), 1000);
        assert_eq!(load_ratio_milli(&[5, 5, 5, 5]), 1000);
        assert_eq!(load_ratio_milli(&[10, 0]), 2000);
        assert_eq!(load_ratio_milli(&[4, 0, 0, 0]), 4000);
    }
}
