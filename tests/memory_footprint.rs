//! Fixed-footprint delivery (DESIGN.md §9): a run's heap is the graph,
//! the per-vertex state and scratch bounded by the largest sweep — it must
//! not climb with the number of sweeps, and steady-state sweeps must reuse
//! their delivery buffers instead of reallocating them.
//!
//! A counting global allocator measures both. This file holds exactly one
//! `#[test]` so nothing else allocates while it measures. At the commit
//! before the single-copy delivery path a run peaked at 12–18× the heap it
//! started from and allocated 67–95 bytes per traversed edge. On the
//! scale-15 R-MAT below, a PageRank run peaked at 2.33 (Sync) to 2.63×
//! (lazy) while a sweep staged every edge it traversed before the first
//! fold; with one scatter window staged at a time it peaks at 2.11–2.30×
//! (2.35–2.56× since the `Graph` the test holds lost its reverse CSR: the
//! same peak over a smaller heap before the run), and allocates 1.3
//! (lazy), 2.6 (delta) and 5.4 (Sync) bytes per traversed edge — what is
//! left are the per-round decision lists of the exchange and of Sync's
//! gather phase, which are sized by active vertices. The same bounds hold
//! Sync over threaded TCP, where every round arrives as frame payloads:
//! while its apply rounds decoded each batch of updates into a vector
//! first it peaked at 4.25–4.28× (38.1–38.3 MB, 9.1 B allocated per
//! steady edge); decoding in place, 3.14× (28.1 MB, 5.4 B per edge), as
//! in-proc.
//!
//! The same allocator holds set-up to holding the graph once (DESIGN.md
//! §18): see `assert_set_up_holds_the_graph_once` — the launcher's
//! placement to no placed shard (DESIGN.md §10): see
//! `assert_placement_streams_into_files` — the launcher's load and
//! placement together to the forward CSR and what each stage adds (DESIGN.md
//! §18): see `assert_the_launcher_holds_its_floor` — and a checkpoint to one
//! chunk buffer whatever the state's size (DESIGN.md §12): see
//! `assert_checkpoints_stream_through_one_chunk`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

use lazygraph::prelude::*;
use lazygraph_algorithms::PageRankData;
use lazygraph_engine::checkpoint::{SnapshotHeader, SnapshotStore, CKPT_CHUNK};
use lazygraph_engine::state::{InitMessages, MachineState};
use lazygraph_engine::{run_on, TransportKind, DEFAULT_BLOCK_SIZE};
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
/// (graph + shards): state arrays, outboxes and one scatter window's
/// staging. It was 2.45 while the `Graph` held a reverse CSR (4 795 210 B
/// of the 19 221 766 B before the lazy run), which staging a whole sweep
/// (2.59–2.63× for lazy and delta) failed. Without it the same run peaks
/// the same 22.5 MB over the same shards, but over 4.8 MB less graph
/// (14.4 MB before it): 2.56× where it read 2.17×, and a whole sweep
/// staged would read 3.12–3.17× (a 30.6–31.2 MB rise); the factor was 2.9,
/// 41.8 MB on this graph. Since the graph and its shards store no weight,
/// mode flag, master flag or total degree, the lazy run starts from 9.33
/// MB and peaks the same 22.6 MB above it, at 31.9 MB: 3.42× (Sync 3.07×,
/// delta 3.37×). 3.9 allows 36.4 MB, less than 2.9 allowed before, and the
/// rise of a whole sweep staged over the smaller heap would read 4.3×.
/// Without mirrors-to-master scratch until an m2m exchange runs (none does
/// here) the lazy run peaks at 29.9 MB: 3.21×. Since an outbox slot is
/// encoded in place and keeps its buffer, no free list holds a second set
/// of staging vectors: lazy PageRank, Sync in process, delta, Sync over
/// TCP and lazy SSSP peak at 29.74 / 27.22 / 31.39 / 27.38 / 9.77 MB,
/// where they read 30.22 / 27.90 / 31.82 / 28.13 / 9.79 MB with it. With
/// the delivery scratch holding one window — one flat staging buffer cut
/// per source block, one inbound buffer cut per batch, no per-target-block
/// vectors and no release slack — they peak at 25.76 / 23.70 / 27.40 /
/// 24.33 / 8.69 MB (2.76 / 2.65 / 2.94 / 2.72 / 1.24×), where the same
/// build of the parent read 29.69 / 26.96 / 31.29 / 28.59 / 9.26 MB
/// (3.18 / 3.01 / 3.35 / 3.20 / 1.32×). The factor keeps the margin 3.9
/// had over the parent's largest reading (delta's 3.35×, 16 %): 3.4.
const PEAK_FACTOR: f64 = 3.4;

/// Bytes a run may allocate per edge it traverses after its first two
/// supersteps: one staged `(u32, f64)` item. A delivery path that
/// materialises messages into fresh memory costs several times that.
const STEADY_BYTES_PER_EDGE: u64 = 16;

/// Runs `program` on `engine` over `transport` under the counting
/// allocator and holds the run to both bounds.
fn assert_flat_and_steady<P: VertexProgram>(
    g: &Graph,
    engine: EngineKind,
    transport: TransportKind,
    program: &P,
) {
    let what = format!("{engine:?}/{transport:?}/{}", program.name());
    let cfg = EngineConfig::lazygraph()
        .with_engine(engine)
        .with_threads(1)
        .with_block_size(64)
        .with_transport(transport);
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

    assert_eq!(result.record(), oracle.record(), "{what} diverged from its oracle");
    assert!(result.metrics.converged && result.metrics.iterations > 4, "{what} barely ran");

    let steady_bytes = whole_run.saturating_sub(two_supersteps) as u64;
    let steady_edges = result.metrics.stats.edges_processed - warm.metrics.stats.edges_processed;
    assert!(
        peak as f64 <= PEAK_FACTOR * live_before as f64,
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
///   triples and both CSRs together) — 1.24× with the edges once, then the
///   forward CSR beside them, then the two CSRs; now 1.04×, the forward
///   CSR filled in place (see `assert_the_launcher_holds_its_floor`);
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
    assert_shards_store_nothing_derivable(&dg);
}

/// What a shard may hold per local replica: its gid, master, mirror-list
/// offset, two user-view degrees, CSR offset and `replicated` entry (4 B
/// each but the 2 B master), and at most one mirror entry (2 B) for each
/// other machine.
const PER_LOCAL: usize = 6 * size_of::<u32>() + size_of::<MachineId>() * MACHINES;

/// A shard of an unweighted graph stores 4 B per edge — the target, its
/// mode in the top bit, no weight — beside its per-local arrays and its
/// route table (DESIGN.md §10). At commit `f720604` a shard also held a
/// weight and a mode flag per edge and a master flag and total degree per
/// local, 5 B more of each: on this graph's placement 411 313 – 470 944 B
/// a shard, 49–56 % over the bound; now 262 148 – 291 364 B, at most 95 %
/// of it.
fn assert_shards_store_nothing_derivable(dg: &lazygraph_partition::DistributedGraph) {
    for shard in &dg.shards {
        let (_, held) = measure_call(|| shard.clone());
        let bound = size_of::<u32>() * shard.num_local_edges()
            + PER_LOCAL * shard.num_local()
            + size_of::<u32>() * (shard.route_table().len() + 2);
        assert!(
            held.result <= bound,
            "shard {} holds {} B: over 4 B for each of its {} edges, {PER_LOCAL} B for each of \
             its {} locals and its route table ({bound} B)",
            shard.machine,
            held.result,
            shard.num_local_edges(),
            shard.num_local()
        );
    }
}

/// Machines the launcher's placement is measured at.
const MACHINES: usize = 4;
/// What placing into files holds per vertex: its replica mask, its master
/// and its entry in each shard's route table.
const PER_VERTEX: usize = size_of::<u128>() + size_of::<MachineId>() + 4 * MACHINES;
/// What placing into files holds per shard file: a write buffer for each
/// of its 10 arrays, and slack.
const PER_FILE: usize = 128 << 10;

/// The launcher's placement streams every shard into its file (DESIGN.md
/// §10) instead of placing all of them in memory first. At commit
/// `db3c888` the launcher placed all four shards of this graph, then
/// encoded them one at a time through one reused buffer: that peaked at
/// 2 743 227 B beyond the graph, the assignment and the plan — 1.52× the
/// 1 808 195 B of shard files it wrote. Streamed, it peaked at 706 922 B
/// (0.39×): the replica masks and the master table, one route table per
/// shard, the dispatch fix-point's parallel-edge list and an 8 KiB buffer
/// per array of each open file. Shard files that store no derivable byte
/// (and a route bit, not a route entry, per vertex) are 996 516 B; with
/// 4 KiB buffers, none longer than its array, the placement peaks at
/// 415 690 B (0.42×). Pinned at that sum, and under half the files.
fn assert_placement_streams_into_files(g: &Graph) {
    let cfg = EngineConfig::lazygraph();
    let assignment = cfg.partition.assign(g, MACHINES);
    let plan = lazygraph_partition::plan_split(g, MACHINES, &cfg.splitter);
    assert!(plan.num_parallel() > 0, "the dispatch fix-point must be part of the figure");
    let dir = std::env::temp_dir().join(format!("lazygraph-footprint-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (files, placed) = measure_call(|| {
        let path = |m: usize| dir.join(format!("shard-{m}.bin"));
        lazygraph_partition::write_shard_files(g, &assignment, MACHINES, &plan, false, path)
    });
    std::fs::remove_dir_all(&dir).ok();
    let shard_bytes: u64 = files.expect("shard files").bytes.iter().sum();

    let bound = PER_VERTEX * g.num_vertices()
        + size_of::<(VertexId, VertexId)>() * plan.num_parallel()
        + PER_FILE * MACHINES;
    assert!(
        placed.peak <= bound,
        "placing into files peaked at {} B, over the {bound} B of replica state and buffers",
        placed.peak
    );
    assert!(
        2 * placed.peak < shard_bytes as usize,
        "placing into files peaked at {} B for {shard_bytes} B of shard files",
        placed.peak
    );
}

/// The multiprocess launcher's set-up holds the forward CSR and what each
/// stage adds to it, never a reverse CSR or a staged edge list (DESIGN.md
/// §18, "Two reads, one fill"). At commit `17e37a8`, on this graph (8 177
/// vertices and 110 879 edges once saved, a 952 456 B forward CSR with a
/// weight per edge; 508 940 B since an unweighted CSR stores none):
///
/// - `load_edge_list` peaked at 2 356 695 B — the staged edge list (12 B an
///   edge) beside the forward CSR, then both CSRs — where filling the CSR
///   in place from two reads of the file peaks at 1 026 096 B (582 580 B
///   without weights): the CSR, a cursor per row and the reader's buffer.
///   Pinned at the CSR plus 16 B a vertex.
/// - load, cut, plan and the placement into shard files together peaked at
///   2 943 957 B: both CSRs beside the assignment, the plan and the
///   placement's replica state. Without the reverse CSR it is 2 024 209 B,
///   and 1 301 733 B without the weights. Pinned at the forward CSR, the
///   in-degrees, the assignment and the plan, plus the bound
///   `assert_placement_streams_into_files` holds the placement to.
/// - the loaded `Graph` is the forward CSR and the in-degrees exactly: 4 B
///   an edge, 12 B a vertex (541 648 B; 985 164 B with a weight per edge).
fn assert_the_launcher_holds_its_floor(g: &Graph) {
    let path = std::env::temp_dir().join(format!("lazygraph-footprint-floor-{}.el", std::process::id()));
    lazygraph_graph::io::save_edge_list(g, &path).expect("save");
    let cfg = EngineConfig::lazygraph();
    let (loaded, load) = measure_call(|| lazygraph_graph::io::load_edge_list(&path, None));
    let loaded = loaded.expect("load");
    let (vertices, edges) = (loaded.num_vertices(), loaded.num_edges());
    let parallel = lazygraph_partition::plan_split(&loaded, MACHINES, &cfg.splitter).num_parallel();
    assert!(parallel > 0, "the dispatch fix-point must be part of the figure");
    assert!(loaded.out_csr().is_unweighted());
    drop(loaded);
    // The graph is unweighted: its CSR is offsets and targets, no weight.
    let csr = size_of::<u64>() * (vertices + 1) + size_of::<VertexId>() * edges;

    let dir = std::env::temp_dir().join(format!("lazygraph-footprint-floor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (files, launcher) = measure_call(|| {
        let g = lazygraph_graph::io::load_edge_list(&path, None).expect("load");
        lazygraph_partition::partition_graph_to_files(
            &g,
            MACHINES,
            cfg.partition,
            &cfg.splitter,
            &cfg.hub_fanout,
            false,
            |m| dir.join(format!("shard-{m}.bin")),
        )
    });
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
    files.expect("shard files");

    let in_degrees = size_of::<u32>() * vertices;
    assert!(
        load.result <= csr + in_degrees,
        "an unweighted graph holds {} B, over 4 B for each of its {edges} edges and its {} B of \
         offsets and in-degrees",
        load.result,
        csr + in_degrees - size_of::<VertexId>() * edges
    );
    let load_bound = csr + 16 * vertices;
    assert!(
        load.peak <= load_bound,
        "load_edge_list peaked at {} B, over the {csr} B forward CSR + 16 B a vertex",
        load.peak
    );
    let assignment = size_of::<MachineId>() * edges;
    let plan = size_of::<bool>() * edges;
    let placement = PER_VERTEX * vertices
        + size_of::<(VertexId, VertexId)>() * parallel
        + PER_FILE * MACHINES;
    let bound = csr + in_degrees + assignment + plan + placement;
    assert!(
        launcher.peak <= bound,
        "load and placement into files peaked at {} B, over the {bound} B of the forward CSR, \
         the in-degrees, the assignment, the plan and the placement's state",
        launcher.peak
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
        clock: 0.0,
        breakdown: Default::default(),
        last_global: 0.0,
        carry: Vec::new(),
    };
    let before = TOTAL.load(Ordering::Relaxed);
    let file_bytes = store.save(&header, &state, &[], initial).expect("save");
    let save_allocated = TOTAL.load(Ordering::Relaxed) - before;

    let mut restored = init();
    let before = TOTAL.load(Ordering::Relaxed);
    let snapshot = store.open_at(header.iterations).expect("open");
    snapshot.restore_into(&mut restored, &mut Vec::new()).expect("restore");
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
    let set_up = rmat(RmatConfig::graph500(13, 16, 7));
    assert_set_up_holds_the_graph_once(&set_up);
    assert_placement_streams_into_files(&set_up);
    assert_the_launcher_holds_its_floor(&set_up);
    // Large enough that every machine's full sweep (≈ 131 k local edges)
    // is two scatter windows.
    let g = rmat(RmatConfig::graph500(15, 16, 7));
    for engine in [
        EngineKind::LazyBlockAsync,
        EngineKind::PowerGraphSync,
        EngineKind::DeltaAccum,
    ] {
        assert_flat_and_steady(&g, engine, TransportKind::InProc, &PageRankDelta::default());
    }
    // Over sockets a round arrives as frame payloads, which every round
    // decodes in place (DESIGN.md §14): Sync's eager updates to every
    // mirror, the heaviest rounds there are, are held to the same bounds.
    assert_flat_and_steady(&g, EngineKind::PowerGraphSync, TransportKind::Tcp, &PageRankDelta::default());
    // An ordered local stage (DESIGN.md §17) runs several times the
    // sub-rounds over a fraction of the edges, so whatever a sub-round
    // allocates — its key scratch included — counts that much more
    // against the same per-edge budget.
    let road = common::road_lattice(160, 7);
    assert_flat_and_steady(&road, EngineKind::LazyBlockAsync, TransportKind::InProc, &Sssp::new(0u32));
}
