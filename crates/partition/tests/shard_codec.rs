//! Laws of the shard file (DESIGN.md §10): a [`LocalShard`] survives the
//! `Wire` codec exactly — every accessor equal, re-encoding
//! byte-identical — on every kind of placement the partitioner builds;
//! and a damaged file — cut at any
//! prefix, any single byte changed — is a typed error or a shard that
//! still holds every condition the engine indexes by. Never a panic, and
//! never an allocation the file's own length does not justify, which a
//! thread-local counting allocator checks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph_graph::{Graph, GraphBuilder};
use lazygraph_net::{NetError, Wire};
use lazygraph_partition::{
    partition_graph_with, DistributedGraph, EdgeMode, HubFanoutConfig, LocalShard,
    PartitionStrategy, PlacementShape, SplitterConfig,
};

struct Counting;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every request to `System` unchanged; the counter is a
// thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also serves threads that are tearing
        // their locals down.
        let _ = REQUESTED.try_with(|r| r.set(r.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// In memory a mirror list is a 16-byte fat pointer for the 4-byte count
/// the file spends on it — the widest gap between the two forms — plus
/// the list itself; a typed error formats a short message on top.
const BYTES_PER_FILE_BYTE: usize = 8;
const MESSAGE_SLACK: usize = 4096;

/// Decodes `bytes` and holds the attempt to the allocation bound.
fn decode_bounded(bytes: &[u8]) -> Result<LocalShard, NetError> {
    let before = REQUESTED.with(Cell::get);
    let result = LocalShard::from_wire(bytes);
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested <= BYTES_PER_FILE_BYTE * bytes.len() + MESSAGE_SLACK,
        "decoding {} bytes requested {requested} from the allocator",
        bytes.len()
    );
    result
}

fn place(
    g: &Graph,
    machines: usize,
    fanout: &HubFanoutConfig,
    bidirectional: bool,
) -> DistributedGraph {
    partition_graph_with(
        g,
        machines,
        PartitionStrategy::Coordinated,
        &SplitterConfig::default(),
        fanout,
        bidirectional,
    )
}

type Row = Vec<(u32, u32, EdgeMode)>;

fn rows(s: &LocalShard) -> Vec<Row> {
    (0..s.num_local() as u32)
        .map(|l| {
            s.out_edges(l)
                .map(|(t, w, mode)| (t, w.to_bits(), mode))
                .collect()
        })
        .collect()
}

/// Equality on everything a shard shows the outside.
fn assert_same(a: &LocalShard, b: &LocalShard) {
    assert_eq!(a.machine, b.machine);
    assert_eq!(a.globals, b.globals);
    assert_eq!(a.route_table(), b.route_table());
    assert_eq!(a.master_of, b.master_of);
    for l in 0..a.num_local() as u32 {
        assert_eq!(a.mirrors(l), b.mirrors(l));
    }
    assert_eq!(a.replicated, b.replicated);
    assert_eq!(a.global_out_degree, b.global_out_degree);
    assert_eq!(a.global_in_degree, b.global_in_degree);
    assert_eq!(a.num_local_edges(), b.num_local_edges());
    assert_eq!(rows(a), rows(b));
    for l in 0..a.num_local() as u32 {
        assert_eq!(a.is_master(l), b.is_master(l));
        assert_eq!(a.global_degree(l), b.global_degree(l));
        assert_eq!(a.local_out_degree(l), b.local_out_degree(l));
        assert_eq!(a.local_of(a.global_of(l)), b.local_of(a.global_of(l)));
    }
}

fn assert_round_trips(shard: &LocalShard, shape: &PlacementShape) {
    let bytes = shard.to_wire();
    let back = decode_bounded(&bytes).expect("a built shard decodes");
    assert_same(shard, &back);
    assert_eq!(
        back.to_wire(),
        bytes,
        "re-encoding must reproduce the shard file"
    );
    back.check_fits(shard.machine.index(), shape)
        .expect("fits its own placement");
}

fn assert_placement_round_trips(dg: &DistributedGraph) {
    for shard in &dg.shards {
        assert_round_trips(shard, &dg.shape());
    }
}

#[test]
fn rmat_with_parallel_edges_round_trips() {
    let g = rmat(RmatConfig::graph500(10, 8, 2));
    let dg = place(&g, 4, &HubFanoutConfig::default(), false);
    assert!(dg.num_parallel_edges > 0, "the splitter must be exercised");
    assert_placement_round_trips(&dg);
}

#[test]
fn bidirectional_road_lattice_round_trips() {
    let g = grid2d(Grid2dConfig::road(25, 25, 3));
    assert_placement_round_trips(&place(&g, 6, &HubFanoutConfig::default(), true));
}

#[test]
fn hub_fanout_over_all_machines_round_trips() {
    let g = rmat(RmatConfig::skewed(9, 8, 9));
    let dg = partition_graph_with(
        &g,
        4,
        PartitionStrategy::AdversarialHubs,
        &SplitterConfig::disabled(),
        &HubFanoutConfig::all_machines(),
        false,
    );
    assert_placement_round_trips(&dg);
}

#[test]
fn single_machine_round_trips() {
    let g = rmat(RmatConfig::graph500(8, 6, 6));
    let dg = place(&g, 1, &HubFanoutConfig::default(), false);
    assert!(dg.shards[0].replicated.is_empty());
    assert_placement_round_trips(&dg);
}

/// Shard 1 of a small placement: of an unweighted R-MAT graph, whose
/// shards store no weight, or of the same graph with weights drawn, whose
/// shards store one per edge.
fn small_shard_file(weighted: bool) -> Vec<u8> {
    let raw = rmat(RmatConfig::graph500(5, 4, 3));
    let g = if weighted {
        let mut b = GraphBuilder::new(raw.num_vertices());
        b.extend(raw.edges());
        b.randomize_weights(1.0, 64.0, 3);
        b.build()
    } else {
        raw
    };
    let dg = place(&g, 3, &HubFanoutConfig::default(), false);
    let shard = &dg.shards[1];
    let stored =
        (0..shard.num_local() as u32).any(|l| shard.out_edges(l).any(|(_, w, _)| w != 1.0));
    assert_eq!(stored, weighted);
    let bytes = shard.to_wire();
    assert!(
        bytes.len() < 4096,
        "the sweeps are quadratic in this: {}",
        bytes.len()
    );
    bytes
}

#[test]
fn a_file_cut_at_any_prefix_is_a_typed_error() {
    for weighted in [false, true] {
        let bytes = small_shard_file(weighted);
        for cut in 0..bytes.len() {
            let err = decode_bounded(&bytes[..cut]).expect_err("a prefix cannot be a whole shard");
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "weighted {weighted}, cut at {cut}: {err}"
            );
        }
    }
}

#[test]
fn any_single_corrupt_byte_is_an_error_or_a_valid_shard() {
    for weighted in [false, true] {
        let (rejected, accepted) = corrupt_every_byte(&small_shard_file(weighted));
        assert!(
            rejected > accepted,
            "weighted {weighted}: {rejected} rejected, {accepted} accepted"
        );
    }
}

/// Flips bits of every byte of `bytes` in turn and decodes each damaged
/// file: `(rejected, accepted)`.
fn corrupt_every_byte(bytes: &[u8]) -> (usize, usize) {
    let (mut rejected, mut accepted) = (0, 0);
    for at in 0..bytes.len() {
        for flip in [0x01, 0x80, 0xff] {
            let mut file = bytes.to_vec();
            file[at] ^= flip;
            match decode_bounded(&file) {
                // A changed weight, degree or gid-for-gid swap can still be a
                // shard; it must then be one the engine can index.
                Ok(shard) => {
                    shard
                        .validate()
                        .expect("decode only hands out validated shards");
                    let _ = rows(&shard);
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
    }
    (rejected, accepted)
}

#[test]
fn a_shard_must_fit_the_run_it_is_loaded_for() {
    let g = rmat(RmatConfig::graph500(6, 4, 3));
    let dg = place(&g, 3, &HubFanoutConfig::default(), false);
    let shape = dg.shape();
    let shard = &dg.shards[1];
    shard.check_fits(1, &shape).expect("its own seat");
    let misfit = |me: usize, shape: PlacementShape| {
        let err = shard.check_fits(me, &shape).expect_err("must not fit");
        assert!(
            matches!(
                err,
                NetError::Malformed {
                    ty: "LocalShard",
                    ..
                }
            ),
            "{err}"
        );
        err.to_string()
    };
    assert!(misfit(0, shape).contains("loaded as machine 0"));
    let fewer_vertices = PlacementShape {
        num_global_vertices: shape.num_global_vertices - 1,
        ..shape
    };
    assert!(misfit(1, fewer_vertices).contains("route table covers"));
    let one_machine = PlacementShape {
        num_machines: 1,
        ..shape
    };
    assert!(misfit(1, one_machine).contains("outside a 1-machine run"));
}
