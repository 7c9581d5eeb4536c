//! A placement streamed into shard files (DESIGN.md §10) writes exactly
//! what placing in memory and encoding would: every file is
//! `build_distributed(..).shards[m].to_wire()` byte for byte, and the
//! summary the launcher keeps — shape, λ, master table, file sizes — is the
//! in-memory placement's, on every kind of placement the partitioner
//! builds.

use std::path::PathBuf;

use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph_graph::{Graph, GraphBuilder};
use lazygraph_net::Wire;
use lazygraph_partition::{
    apply_hub_fanout, build_distributed, plan_split, write_shard_files, DistributedGraph,
    HubFanoutConfig, PartitionStrategy, SplitterConfig,
};

struct Case {
    name: &'static str,
    machines: usize,
    strategy: PartitionStrategy,
    splitter: SplitterConfig,
    fanout: HubFanoutConfig,
    bidirectional: bool,
}

impl Case {
    fn new(name: &'static str, machines: usize) -> Case {
        Case {
            name,
            machines,
            strategy: PartitionStrategy::Coordinated,
            splitter: SplitterConfig::default(),
            fanout: HubFanoutConfig::default(),
            bidirectional: false,
        }
    }
}

/// Places `g` both ways and compares; returns the in-memory placement for
/// the caller's own assertions about what the case exercised.
fn assert_files_are_the_shards(g: &Graph, case: &Case) -> DistributedGraph {
    let n = case.machines;
    let mut assignment = case.strategy.assign(g, n);
    apply_hub_fanout(g, &mut assignment, n, &case.fanout);
    let plan = plan_split(g, n, &case.splitter);
    let dg = build_distributed(g, &assignment, n, &plan, case.bidirectional);

    let dir = std::env::temp_dir().join(format!(
        "lazygraph-shard-files-{}-{}",
        std::process::id(),
        case.name
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |m: usize| -> PathBuf { dir.join(format!("shard-{m}.bin")) };
    let files = write_shard_files(g, &assignment, n, &plan, case.bidirectional, path)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let written: Vec<Vec<u8>> = (0..n)
        .map(|m| std::fs::read(path(m)).expect("a file per machine"))
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    for (m, (shard, file)) in dg.shards.iter().zip(&written).enumerate() {
        let wire = shard.to_wire();
        assert_eq!(file.len(), wire.len(), "{}: shard {m} length", case.name);
        if let Some(at) = file.iter().zip(&wire).position(|(a, b)| a != b) {
            panic!("{}: shard {m} differs from to_wire() at byte {at}", case.name);
        }
        assert_eq!(files.bytes[m], wire.len() as u64, "{}: shard {m} size", case.name);
    }
    assert_eq!(files.bytes.len(), n);
    assert_eq!(files.shape, dg.shape(), "{}", case.name);
    assert_eq!(files.lambda.to_bits(), dg.lambda().to_bits(), "{}", case.name);
    assert_eq!(files.masters, dg.replication.masters, "{}", case.name);
    dg
}

#[test]
fn rmat_with_the_splitter_on() {
    let g = rmat(RmatConfig::graph500(12, 8, 2));
    let dg = assert_files_are_the_shards(&g, &Case::new("rmat", 4));
    assert!(dg.num_parallel_edges > 0, "the splitter must be exercised");
}

#[test]
fn road_lattice_under_the_bidirectional_rule() {
    let g = grid2d(Grid2dConfig::road(40, 40, 3));
    let case = Case {
        bidirectional: true,
        splitter: SplitterConfig {
            t_extra: 0.0002,
            ..SplitterConfig::default()
        },
        ..Case::new("road", 6)
    };
    assert_files_are_the_shards(&g, &case);
}

#[test]
fn hub_fanout_over_all_machines() {
    let g = rmat(RmatConfig::skewed(10, 8, 9));
    let case = Case {
        strategy: PartitionStrategy::AdversarialHubs,
        splitter: SplitterConfig::disabled(),
        fanout: HubFanoutConfig::all_machines(),
        ..Case::new("fanout", 4)
    };
    assert_files_are_the_shards(&g, &case);
}

#[test]
fn one_machine() {
    let g = rmat(RmatConfig::graph500(9, 6, 6));
    let dg = assert_files_are_the_shards(&g, &Case::new("one", 1));
    assert_eq!(dg.shards[0].num_local_edges(), g.num_edges());
}

#[test]
fn a_machine_count_that_leaves_a_shard_without_edges() {
    // Three edges and a tail of isolated vertices over eight machines: at
    // most three shards store an edge, and the rest hold replicas of the
    // isolated vertices or nothing.
    let mut b = GraphBuilder::new(40);
    for (s, d) in [(0u32, 1u32), (1, 2), (2, 0)] {
        b.add_edge(s, d);
    }
    let g = b.build();
    let dg = assert_files_are_the_shards(&g, &Case::new("edgeless", 8));
    assert!(
        dg.shards.iter().any(|s| s.num_local_edges() == 0),
        "some shard must store no edge"
    );
}
