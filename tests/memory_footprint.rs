//! Fixed-footprint delivery (DESIGN.md §9): a run's heap is the graph,
//! the per-vertex state and scratch bounded by the largest sweep — it must
//! not climb with the number of sweeps, and steady-state sweeps must reuse
//! their delivery buffers instead of reallocating them.
//!
//! A counting global allocator measures both. This file holds exactly one
//! `#[test]` so nothing else allocates while it measures. At the commit
//! before the single-copy delivery path the same run peaked at 12–18× the
//! heap it started from and allocated 67–95 bytes per traversed edge; it
//! now peaks under 3× and allocates 2.5 (lazy), 4.5 (delta) and 12.4
//! (Sync) — what is left are the per-round decision lists of the exchange
//! and of Sync's gather/apply phases, which are sized by active vertices.
//!
//! The same allocator holds set-up to holding the graph once (DESIGN.md
//! §18): see `assert_set_up_holds_the_graph_once` — and a checkpoint to one
//! chunk buffer whatever the state's size (DESIGN.md §12): see
//! `assert_checkpoints_stream_through_one_chunk`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

use lazygraph::prelude::*;
use lazygraph_algorithms::PageRankData;
use lazygraph_engine::checkpoint::{SnapshotHeader, SnapshotStore, CKPT_CHUNK};
use lazygraph_engine::state::{InitMessages, MachineState};
use lazygraph_engine::{run_on, DEFAULT_BLOCK_SIZE};
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_partition::partition_graph_with;

struct Counting;

/// Bytes currently allocated, their high-water mark, bytes ever
/// allocated, and allocations ever made.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request to `System` unchanged; the counters are
// plain relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap may reach this multiple of the live heap before the run
/// (graph + shards): state arrays, outboxes and scratch for one sweep.
const PEAK_FACTOR: usize = 4;

/// Bytes a run may allocate per edge it traverses after its first two
/// supersteps: one staged `(u32, f64)` item. A delivery path that
/// materialises messages into fresh memory costs several times that.
const STEADY_BYTES_PER_EDGE: u64 = 16;

/// Runs `program` on `engine` under the counting allocator and holds the
/// run to both bounds.
fn assert_flat_and_steady<P: VertexProgram>(g: &Graph, engine: EngineKind, program: &P) {
    let what = format!("{engine:?}/{}", program.name());
    let cfg = EngineConfig::lazygraph()
        .with_engine(engine)
        .with_threads(1)
        .with_block_size(64);
    let dg = partition_graph_with(
        g,
        4,
        cfg.partition,
        &cfg.splitter,
        &cfg.hub_fanout,
        cfg.bidirectional,
    );
    // The oracle: same placement, one block per machine. Block size
    // never changes results, so the measured run must reproduce it bit
    // for bit — it cannot pass by skipping work.
    let oracle = run_on(&dg, &cfg.clone().with_block_size(DEFAULT_BLOCK_SIZE << 8), program)
        .expect("oracle run");

    let mut warmup = cfg.clone();
    warmup.max_iterations = 2;
    let before = TOTAL.load(Ordering::Relaxed);
    let warm = run_on(&dg, &warmup, program).expect("two supersteps");
    let two_supersteps = TOTAL.load(Ordering::Relaxed) - before;

    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let before = TOTAL.load(Ordering::Relaxed);
    let result = run_on(&dg, &cfg, program).expect("measured run");
    let whole_run = TOTAL.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed);

    // `{:?}` on finite floats round-trips: string equality is bitwise.
    assert_eq!(
        format!("{:?}", result.values),
        format!("{:?}", oracle.values),
        "{what} diverged from its oracle"
    );
    assert!(result.metrics.converged && result.metrics.iterations > 4, "{what} barely ran");

    let steady_bytes = whole_run.saturating_sub(two_supersteps) as u64;
    let steady_edges = result.metrics.stats.edges_processed - warm.metrics.stats.edges_processed;
    assert!(
        peak <= PEAK_FACTOR * live_before,
        "{what}: peak live heap {peak} B is over {PEAK_FACTOR}x the {live_before} B live before the run"
    );
    assert!(
        steady_bytes <= STEADY_BYTES_PER_EDGE * steady_edges,
        "{what}: {steady_bytes} B allocated over the {steady_edges} edges traversed after the first two supersteps"
    );
}

/// What one set-up call did to the heap.
struct SetUpCall {
    /// High-water mark of live bytes during the call, over the live bytes
    /// before it.
    peak: usize,
    /// Bytes the returned value keeps alive.
    result: usize,
    /// Allocations made.
    allocs: usize,
}

fn measure_call<T>(call: impl FnOnce() -> T) -> (T, SetUpCall) {
    let live_before = LIVE.load(Ordering::Relaxed);
    let allocs_before = COUNT.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let value = call();
    let measured = SetUpCall {
        peak: PEAK.load(Ordering::Relaxed) - live_before,
        result: LIVE.load(Ordering::Relaxed) - live_before,
        allocs: COUNT.load(Ordering::Relaxed) - allocs_before,
    };
    (value, measured)
}

/// Set-up holds the graph once (DESIGN.md §18). At the commit before the
/// linear-time set-up (`8fdd981`), on this graph (1 904 912 B as a `Graph`):
///
/// - `load_edge_list` peaked at 7 044 208 B, 3.70× the `Graph` it returned
///   (a `String` per line, the `edges` vector, the builder's copy, the
///   triples and both CSRs together) — now 1.24×: the edges once, then the
///   forward CSR beside them, then the two CSRs;
/// - `build_distributed` held 3 089 185 B, 1.62× the input `Graph`, beyond
///   its own result (the edge triples, the per-shard edge tuples and one
///   `Vec<MachineId>` per vertex) — now under 1 KiB;
/// - one `build_distributed` call made 56 397 allocations (a replica `Vec`
///   per vertex, a mirror box per replicated local, a required-set clone
///   per parallel edge and pass) — now 62, a fixed number per shard.
///
/// Each is pinned at no more than half the parent's figure.
fn assert_set_up_holds_the_graph_once(g: &Graph) {
    const PARENT_LOAD_PEAK: f64 = 3.70;
    const PARENT_BUILD_TRANSIENT: f64 = 1.62;
    const PARENT_BUILD_ALLOCS: usize = 56_397;

    let path = std::env::temp_dir().join(format!("lazygraph-footprint-{}.el", std::process::id()));
    lazygraph_graph::io::save_edge_list(g, &path).expect("save");
    let (loaded, load) = measure_call(|| lazygraph_graph::io::load_edge_list(&path, None));
    std::fs::remove_file(&path).ok();
    let loaded = loaded.expect("load");
    assert_eq!(loaded.num_edges(), g.num_edges());
    let graph_bytes = load.result as f64;
    drop(loaded);

    let cfg = EngineConfig::lazygraph();
    let assignment = cfg.partition.assign(g, 4);
    let plan = lazygraph_partition::plan_split(g, 4, &cfg.splitter);
    assert!(plan.num_parallel() > 0, "the splitter's dispatch must be part of the figure");
    let (dg, build) =
        measure_call(|| lazygraph_partition::build_distributed(g, &assignment, 4, &plan, false));
    assert_eq!(dg.num_global_edges, g.num_edges());
    let transient = (build.peak - build.result) as f64;

    assert!(
        load.peak as f64 <= PARENT_LOAD_PEAK / 2.0 * graph_bytes,
        "load_edge_list peaked at {} B for a {graph_bytes} B graph",
        load.peak
    );
    assert!(
        transient <= PARENT_BUILD_TRANSIENT / 2.0 * graph_bytes,
        "build_distributed held {transient} B beyond its result for a {graph_bytes} B graph"
    );
    assert!(
        build.allocs <= PARENT_BUILD_ALLOCS / 2,
        "build_distributed made {} allocations",
        build.allocs
    );
}

/// A checkpoint costs one chunk buffer, not copies of the state (DESIGN.md
/// §12). On this 202 500-vertex machine (a 13 567 500 B state; 9 112 719 B
/// on disk as v7, 6 446 507 B as v8) the commit before the streaming codec
/// (`c51ebe2`) allocated 56 235 544 B to save it — `capture`'s clones,
/// `to_wire`'s vector with its doublings, `encode_container`'s copy: 4.1×
/// the state, 39 457 579 B (2.9×) of it live at once — and 68 753 972 B to
/// load and restore it (the file, the payload, the decoded snapshot,
/// `restore_into`'s clones: 5.1×, the same 2.9× live at once). Both are now
/// 1 114 863 B and 1 114 636 B: the chunk buffer and a few file names,
/// whatever the vertex count.
fn assert_checkpoints_stream_through_one_chunk() {
    let program = PageRankDelta::default();
    let g = common::road_lattice(450, 7);
    let cfg = EngineConfig::lazygraph();
    let dg = partition_graph_with(&g, 1, cfg.partition, &cfg.splitter, &cfg.hub_fanout, false);
    let n = g.num_vertices();
    let shard = &dg.shards[0];
    let init = || MachineState::init(shard, &program, InitMessages::AllReplicas, n);
    let initial = |_| PageRankData::default();

    // A mid-run state: every array holds something of each kind the format
    // treats apart, and half the vertices are queued.
    let mut state = init();
    for l in 0..n {
        state.vdata[l] = PageRankData { rank: l as f64, pending: 0.5 };
        match l % 3 {
            0 => state.coherent[l] = state.vdata[l],
            1 => state.coherent[l] = PageRankData { rank: -1.0, pending: l as f64 },
            _ => {}
        }
        state.delta_msg[l] = (l % 2 == 0).then_some(l as f64);
    }
    state.queue.retain(|l| l % 2 == 1);
    for (l, active) in state.active.iter_mut().enumerate() {
        *active = l % 2 == 1;
        if !*active {
            state.message[l] = None;
        }
    }
    let state_bytes = n * (2 * std::mem::size_of::<PageRankData>() + 2 * std::mem::size_of::<Option<f64>>() + 1)
        + 4 * state.queue.len();
    assert!(state_bytes > 8 * CKPT_CHUNK, "the state must dwarf a chunk: {state_bytes} B");

    let dir = std::env::temp_dir().join(format!("lazygraph-footprint-ckpt-{}", std::process::id()));
    let store = SnapshotStore::new(&dir, 0);
    let header = SnapshotHeader {
        engine: 1,
        iterations: 5,
        clock_bits: 0,
        data_round: 10,
        ctrl_round: 15,
        lazy: None,
        delta: None,
    };
    let before = TOTAL.load(Ordering::Relaxed);
    let file_bytes = store.save(&header, &state, initial).expect("save");
    let save_allocated = TOTAL.load(Ordering::Relaxed) - before;

    let mut restored = init();
    let before = TOTAL.load(Ordering::Relaxed);
    let snapshot = store.open_latest(|_, why| panic!("{why}")).expect("open").expect("saved");
    snapshot.restore_into(&mut restored).expect("restore");
    let restore_allocated = TOTAL.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).ok();

    assert!(file_bytes as usize > 4 * CKPT_CHUNK, "a {file_bytes} B file is not several chunks");
    assert_eq!(restored.vdata, state.vdata);
    assert_eq!(restored.coherent, state.coherent);
    assert_eq!(restored.message, state.message);
    assert_eq!(restored.delta_msg, state.delta_msg);
    assert_eq!(restored.active, state.active);
    assert_eq!(restored.queue, state.queue);
    for (what, allocated) in [("save", save_allocated), ("restore", restore_allocated)] {
        assert!(
            allocated < 2 * CKPT_CHUNK,
            "a {what} of a {state_bytes} B state allocated {allocated} B"
        );
    }
}

#[test]
fn run_heap_is_flat_and_steady_sweeps_reuse_their_buffers() {
    assert_checkpoints_stream_through_one_chunk();
    let g = rmat(RmatConfig::graph500(13, 16, 7));
    assert_set_up_holds_the_graph_once(&g);
    for engine in [
        EngineKind::LazyBlockAsync,
        EngineKind::PowerGraphSync,
        EngineKind::DeltaAccum,
    ] {
        assert_flat_and_steady(&g, engine, &PageRankDelta::default());
    }
    // An ordered local stage (DESIGN.md §17) runs several times the
    // sub-rounds over a fraction of the edges, so whatever a sub-round
    // allocates — its key scratch included — counts that much more
    // against the same per-edge budget.
    let road = common::road_lattice(160, 7);
    assert_flat_and_steady(&road, EngineKind::LazyBlockAsync, &Sssp::new(0u32));
}
