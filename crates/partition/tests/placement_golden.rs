//! Golden placement: FNV-1a digests of everything set-up produces, recorded
//! at commit `8fdd981` (the parent of the linear-time set-up rewrite) and
//! never edited since. A set-up change that alters one bit of a `Graph`, a
//! coordinated assignment, a `SplitPlan` or a shipped shard fails here, so
//! every simulated and traffic figure downstream is unchanged for free.
//!
//! The graphs are built the way `lazybench` builds its workloads: generate,
//! re-stage the generated edges in a fresh builder, symmetrise (the road
//! lattice also draws its weights), build.

use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph_graph::{Csr, Graph, GraphBuilder};
use lazygraph_net::Wire;
use lazygraph_partition::{
    build_distributed, plan_split, CoordinatedCut, Partitioner, SplitPlan, SplitterConfig,
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
        for (t, w) in csr.neighbors(v).iter().zip(csr.weights(v)) {
            h.word(u64::from(t.0));
            h.word(u64::from(w.to_bits()));
        }
    }
}

fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(g.is_symmetric()));
    csr_into(&mut h, g.out_csr());
    csr_into(&mut h, g.in_csr());
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

/// `[assignment, lazy plan, Sync plan, lazy shards, lazy shards under the
/// bidirectional dispatch rule, Sync shards]` at one machine count; a
/// shard digest folds every machine's `Wire` bytes, length first.
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
            let bytes = shard.to_wire();
            h.word(bytes.len() as u64);
            h.bytes(&bytes);
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
        0x8ae0e81d2de5b19c,
        0x81428ee77b4e4765,
        0x8a92e0b13ef04b9d,
    ],
    [
        0x1e422aa2a01254bd,
        0xf258729e60c152b9,
        0x7f4da924e269f157,
        0xd7882c890436c9bf,
        0xbc50d85402d0e3b1,
        0x6643f8d83bef4dae,
    ],
);
const SOCIAL_SEED_23: Golden = (
    0xc038ad3d245552a0,
    [
        0x32ff8e3a574227ec,
        0xb1692eb973e88539,
        0xee7d0898306ee0ad,
        0xea0df627a8810496,
        0x61ec39d0ff96e0e1,
        0xe95eace8dddb8ec0,
    ],
    [
        0x754075356c33816e,
        0xb1692eb973e88539,
        0xee7d0898306ee0ad,
        0xfa913f7d2637aa3b,
        0x125c9bd9c17ab5dd,
        0x5c853da69e13d328,
    ],
);
const ROAD_SEED_7: Golden = (
    0xaa38ffcf84078344,
    [
        0xff0576b70fea7b9a,
        0xe417e532f1c357a3,
        0xbad7a16aaee368f8,
        0xc7d621cb6413bee0,
        0xc7d621cb6413bee0,
        0x31445d06d4cdae2a,
    ],
    [
        0xc17247a2980e4fff,
        0xe417e532f1c357a3,
        0xbad7a16aaee368f8,
        0xb1f5b4fd25a97b43,
        0xb1f5b4fd25a97b43,
        0x4d135f72675ab035,
    ],
);
const ROAD_SEED_23: Golden = (
    0xb9c54e6c4c1c3694,
    [
        0x164dcc5e2fc92f40,
        0xf2c543e3758c9823,
        0x2c592110421308c0,
        0x3d8215d75b2d1066,
        0x08e1c3576422f4ca,
        0x4d6391fc081e5a40,
    ],
    [
        0x1710eeb38093c927,
        0xf2c543e3758c9823,
        0x2c592110421308c0,
        0xdbb403ea474db315,
        0x5a30170c6d3fb1fe,
        0xf5523d3bbaed07c1,
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
