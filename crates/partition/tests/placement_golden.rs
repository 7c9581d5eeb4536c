//! Golden placement: FNV-1a digests of everything set-up produces. The
//! graph, assignment and plan digests were recorded at commit `8fdd981`
//! (the parent of the linear-time set-up rewrite) and never edited since.
//! The shard digests hashed each shard's `Wire` bytes until commit
//! `f720604`, where they were re-keyed on each shard's content read through
//! its public accessors (`shard_into`) and recorded again at that commit:
//! the shard file's layout may change, what is placed may not. A set-up
//! change that alters one bit of a `Graph`, a coordinated assignment, a
//! `SplitPlan` or a placed shard fails here, so every simulated and
//! traffic figure downstream is unchanged for free.
//!
//! The graphs are built the way `lazybench` builds its workloads: generate,
//! re-stage the generated edges in a fresh builder, symmetrise (the road
//! lattice also draws its weights), build.

use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph_graph::{Csr, Graph, GraphBuilder};
use lazygraph_partition::{
    build_distributed, plan_split, CoordinatedCut, EdgeMode, LocalShard, Partitioner, SplitPlan,
    SplitterConfig,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn social(seed: u64) -> Graph {
    let raw = rmat(RmatConfig::graph500(12, 8, seed));
    let mut builder = GraphBuilder::new(raw.num_vertices());
    builder.extend(raw.edges());
    builder.symmetrize();
    builder.build()
}

fn road(seed: u64) -> Graph {
    let raw = grid2d(Grid2dConfig::road(48, 48, seed));
    let mut builder = GraphBuilder::new(raw.num_vertices());
    builder.extend(raw.edges());
    builder.symmetrize();
    builder.randomize_weights(1.0, 64.0, seed);
    builder.build()
}

fn csr_into(h: &mut Fnv, csr: &Csr) {
    h.word(csr.num_vertices() as u64);
    h.word(csr.num_edges() as u64);
    for v in 0..csr.num_vertices() {
        let v = v.into();
        h.word(csr.degree(v) as u64);
        for (t, w) in csr.edges_of(v) {
            h.word(u64::from(t.0));
            h.word(u64::from(w.to_bits()));
        }
    }
}

/// The graph's flag, its forward CSR and the reverse CSR the `Graph` held
/// when the digests were recorded. It keeps in-degrees now, so the
/// reverse is the forward one's transpose, and each in-degree must be the
/// degree of its row there.
fn graph_digest(g: &Graph) -> u64 {
    let reverse = g.out_csr().transpose();
    for v in g.vertices() {
        assert_eq!(g.in_degree(v), reverse.degree(v), "in-degree of {v:?}");
    }
    let mut h = Fnv::new();
    h.word(u64::from(g.is_symmetric()));
    csr_into(&mut h, g.out_csr());
    csr_into(&mut h, &reverse);
    h.0
}

fn plan_digest(plan: &SplitPlan) -> u64 {
    let mut h = Fnv::new();
    h.word(plan.num_high as u64);
    h.word(plan.num_low as u64);
    h.word(plan.is_parallel.len() as u64);
    for &p in &plan.is_parallel {
        h.bytes(&[u8::from(p)]);
    }
    h.0
}

/// Everything a shard holds, read through its public accessors: its
/// machine, its locals and route table, each local's master, mirrors and
/// user-view degrees, the replicated locals, and every local's out-edges
/// with their weight bits and modes. Keyed on content, not on the shard
/// file's layout, so a layout change that places the same shards leaves it
/// fixed.
fn shard_into(h: &mut Fnv, shard: &LocalShard) {
    h.word(u64::from(shard.machine.0));
    h.word(shard.num_local() as u64);
    for v in &shard.globals {
        h.word(u64::from(v.0));
    }
    h.word(shard.route_table().len() as u64);
    for &l in shard.route_table() {
        h.word(u64::from(l));
    }
    for l in 0..shard.num_local() {
        h.word(u64::from(shard.master_of[l].0));
        h.word(u64::from(shard.global_out_degree[l]));
        h.word(u64::from(shard.global_in_degree[l]));
        let mirrors = shard.mirrors(l as u32);
        h.word(mirrors.len() as u64);
        for m in mirrors {
            h.word(u64::from(m.0));
        }
    }
    h.word(shard.replicated.len() as u64);
    for &l in &shard.replicated {
        h.word(u64::from(l));
    }
    h.word(shard.num_local_edges() as u64);
    for l in 0..shard.num_local() as u32 {
        h.word(shard.local_out_degree(l) as u64);
        for (t, w, mode) in shard.out_edges(l) {
            h.word(u64::from(t));
            h.word(u64::from(w.to_bits()));
            h.bytes(&[u8::from(mode == EdgeMode::Parallel)]);
        }
    }
}

/// `[assignment, lazy plan, Sync plan, lazy shards, lazy shards under the
/// bidirectional dispatch rule, Sync shards]` at one machine count; a
/// shard digest folds every machine's [`shard_into`] content.
fn placement_digests(g: &Graph, machines: usize) -> [u64; 6] {
    let assignment = CoordinatedCut.assign(g, machines);
    let mut h = Fnv::new();
    h.word(assignment.len() as u64);
    for m in &assignment {
        h.word(u64::from(m.0));
    }
    let plans = [SplitterConfig::default(), SplitterConfig::disabled()]
        .map(|cfg| plan_split(g, machines, &cfg));
    assert!(plans[0].num_parallel() > 0, "the lazy plan selects nothing");
    assert_eq!(plans[1].num_parallel(), 0);
    let shards = |plan: &SplitPlan, bidirectional: bool| {
        let dg = build_distributed(g, &assignment, machines, plan, bidirectional);
        let mut h = Fnv::new();
        for shard in &dg.shards {
            shard_into(&mut h, shard);
        }
        h.word(dg.total_stored_edges as u64);
        h.word(dg.lambda().to_bits());
        h.0
    };
    [
        h.0,
        plan_digest(&plans[0]),
        plan_digest(&plans[1]),
        shards(&plans[0], false),
        shards(&plans[0], true),
        shards(&plans[1], false),
    ]
}

/// `(graph, placement at 4 machines, placement at 8 machines)`.
type Golden = (u64, [u64; 6], [u64; 6]);

fn digests(g: &Graph) -> Golden {
    g.validate().expect("a built graph is valid");
    (
        graph_digest(g),
        placement_digests(g, 4),
        placement_digests(g, 8),
    )
}

fn check(name: &str, got: Golden, want: Golden) {
    assert_eq!(
        got, want,
        "{name}: set-up output moved; got\n({:#018x}, {:#018x?}, {:#018x?})",
        got.0, got.1, got.2
    );
}

const SOCIAL_SEED_7: Golden = (
    0xd92eedb70bc49010,
    [
        0xf37bc2b7b1e562fd,
        0xf258729e60c152b9,
        0x7f4da924e269f157,
        0xfac1efc1d7639b6d,
        0x1352829800af32f1,
        0x12e44cf166262acc,
    ],
    [
        0x1e422aa2a01254bd,
        0xf258729e60c152b9,
        0x7f4da924e269f157,
        0x0119ad1afcfa5f08,
        0x5ad58bf1eb2a3c7b,
        0xa0555c510254a0ae,
    ],
);
const SOCIAL_SEED_23: Golden = (
    0xc038ad3d245552a0,
    [
        0x32ff8e3a574227ec,
        0xb1692eb973e88539,
        0xee7d0898306ee0ad,
        0x319e8bd4a0636c76,
        0x9101bc048ae75397,
        0xd4a4a6e4e1de2a65,
    ],
    [
        0x754075356c33816e,
        0xb1692eb973e88539,
        0xee7d0898306ee0ad,
        0x8f23fc5c65a3ba62,
        0x595bdfc72e940d58,
        0x857e3e2f6f84849b,
    ],
);
const ROAD_SEED_7: Golden = (
    0xaa38ffcf84078344,
    [
        0xff0576b70fea7b9a,
        0xe417e532f1c357a3,
        0xbad7a16aaee368f8,
        0x2c538ff7ae1c8ce7,
        0x2c538ff7ae1c8ce7,
        0x8042b9e44f913dd0,
    ],
    [
        0xc17247a2980e4fff,
        0xe417e532f1c357a3,
        0xbad7a16aaee368f8,
        0x48919667b8945cb8,
        0x48919667b8945cb8,
        0xbb2901d4c0cbbf28,
    ],
);
const ROAD_SEED_23: Golden = (
    0xb9c54e6c4c1c3694,
    [
        0x164dcc5e2fc92f40,
        0xf2c543e3758c9823,
        0x2c592110421308c0,
        0x81cac3e14bfab88c,
        0xf918395a1b09d980,
        0x6893815e34e11450,
    ],
    [
        0x1710eeb38093c927,
        0xf2c543e3758c9823,
        0x2c592110421308c0,
        0xf3cd0b8dfa860eb5,
        0x1a1f2e7190155e69,
        0xf35019c5849072a7,
    ],
);

#[test]
fn social_placement_is_the_recorded_one() {
    check("rmat seed 7", digests(&social(7)), SOCIAL_SEED_7);
    check("rmat seed 23", digests(&social(23)), SOCIAL_SEED_23);
}

#[test]
fn road_placement_is_the_recorded_one() {
    check("road seed 7", digests(&road(7)), ROAD_SEED_7);
    check("road seed 23", digests(&road(23)), ROAD_SEED_23);
}
