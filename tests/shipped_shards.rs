//! The shipped-shard protocol and its footprint (DESIGN.md §10), in
//! bytes rather than RSS so the assertions are deterministic: the job
//! file is a header whose size does not depend on the graph, a shard file
//! is its own arrays and shrinks with the machine count, a respawned
//! worker reads the same shard file again, and a worker handed a shard
//! that is not its part of the job's placement — or a job whose address
//! lists do not cover that placement — exits before it dials anything.

use std::path::{Path, PathBuf};
use std::process::Command;

use lazygraph::multiproc::{
    run_multiprocess, shard_path, FailPoint, LaunchReport, MpOptions, MultiprocError, Shipped,
    WorkerJob,
};
use lazygraph::prelude::*;
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_net::Wire;
use lazygraph_partition::DistributedGraph;

fn worker_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_lazygraph-worker"))
}

fn cfg() -> EngineConfig {
    EngineConfig::lazygraph().with_threads(1)
}

fn place(g: &Graph, machines: usize) -> DistributedGraph {
    lazygraph_engine::place(g, machines, &cfg()).expect("a machine count in range")
}

fn sssp(g: &Graph, machines: usize, opts: &MpOptions) -> (RunResult<Sssp>, LaunchReport) {
    run_multiprocess(g, machines, &cfg(), &Sssp::new(0u32), worker_bin(), opts)
        .unwrap_or_else(|e| panic!("{machines} workers: {e}"))
}

/// Runs SSSP on `g` and holds what the launcher shipped to the bound a
/// shard's own arrays allow: 4 B per stored edge of an unweighted graph (8
/// B with weights), under 40 B per local replica, a route bit per global
/// vertex — nothing per global edge, whichever machine stores it.
fn shipped(g: &Graph, machines: usize) -> LaunchReport {
    let (_, out) = sssp(g, machines, &MpOptions::default());
    let dg = place(g, machines);
    let locals: usize = dg.shards.iter().map(|s| s.num_local()).sum();
    let bound = 8 * dg.total_stored_edges + 64 * locals + machines * g.num_vertices().div_ceil(8);
    assert_eq!(out.shard_bytes.len(), machines);
    let total: u64 = out.shard_bytes.iter().sum();
    assert!(
        total < bound as u64,
        "{machines} shard files hold {total} B, their arrays justify under {bound} B"
    );
    out
}

#[test]
fn the_job_is_a_header_and_a_shard_is_its_own_arrays() {
    let sparse = rmat(RmatConfig::graph500(14, 8, 11));
    let dense = rmat(RmatConfig::graph500(14, 16, 11));
    assert!(dense.num_edges() > sparse.num_edges() * 3 / 2);

    let four = shipped(&sparse, 4);
    assert!(four.job_bytes < 4096, "job.bin is {} B", four.job_bytes);
    let four_dense = shipped(&dense, 4);
    assert_eq!(
        four_dense.job_bytes, four.job_bytes,
        "the job file must not grow with the edge list"
    );
    assert!(four_dense.shard_bytes.iter().sum::<u64>() > four.shard_bytes.iter().sum::<u64>());

    let eight = shipped(&sparse, 8);
    let largest = |o: &LaunchReport| o.shard_bytes.iter().copied().max().unwrap_or(0);
    assert!(
        10 * largest(&eight) < 7 * largest(&four),
        "largest shard file: {} B on 8 machines, {} B on 4",
        largest(&eight),
        largest(&four)
    );
}

/// The restarted gang has no graph to re-partition: all it can start from
/// is the shard files its predecessor read.
#[test]
fn a_respawned_worker_reads_the_same_shard_file_again() {
    let g = rmat(RmatConfig::graph500(9, 8, 5));
    let opts = |failpoint| MpOptions {
        checkpoint_every: 2,
        respawn_budget: 2,
        failpoint,
    };
    let (calm, calm_launch) = sssp(&g, 4, &opts(vec![]));
    assert!(calm.metrics.iterations > 3, "the kill must land mid-run");
    assert_eq!(calm_launch.gang_restarts, 0);
    let (killed, killed_launch) = sssp(&g, 4, &opts(vec![(0, 1, FailPoint::Superstep(3))]));
    assert_eq!(killed_launch.gang_restarts, 1, "the fail point never fired");
    assert_eq!(killed.record(), calm.record());
    assert_eq!(killed_launch.shard_bytes, calm_launch.shard_bytes);
}

/// What [`stage`] lays out for one worker: a job for `machines` machines
/// whose address list has `addrs` entries, and the rank the worker is
/// started as.
#[derive(Clone, Copy)]
struct Staged {
    machines: usize,
    addrs: usize,
    rank: usize,
}

/// Worker 0 of a well-formed two-machine job.
const TWO: Staged = Staged { machines: 2, addrs: 2, rank: 0 };

/// A scratch directory holding the job `at` describes, whose
/// `shard-<rank>.bin` is whatever `shard_file` makes of the placement.
fn stage(name: &str, at: Staged, shard_file: impl FnOnce(&DistributedGraph) -> Vec<u8>) -> PathBuf {
    let g = rmat(RmatConfig::graph500(6, 4, 3));
    let dg = place(&g, at.machines);
    let job = WorkerJob {
        cfg: cfg(),
        algo: Sssp::new(0u32).spec(),
        shape: dg.shape(),
        // Never dialled: the worker must give up before it gets that far.
        data_addrs: vec!["127.0.0.1:1".into(); at.addrs],
        checkpoint_every: 0,
        checkpoint_dir: String::new(),
    };
    let dir = std::env::temp_dir().join(format!("lazygraph-shards-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let job_path = dir.join("job.bin");
    std::fs::write(&job_path, job.to_wire()).expect("job file");
    std::fs::write(shard_path(&job_path, at.rank), shard_file(&dg)).expect("shard file");
    dir
}

/// The staged job file's bytes as the hand-written codecs wrote them
/// (recorded at `145e8f4`, before `WorkerJob`, `EngineConfig` and
/// `PlacementShape` became field lists): 304 bytes then; 296 once the
/// job's last field — the rejoin window, 8 zero bytes here — was retired
/// with the rejoin itself; 295 since the configuration's
/// `delta_suppression` — the `01` byte after `max_iterations` — was
/// retired; 261 since the control mesh's address list — 34 bytes right
/// after `data_addrs`, the same two addresses here — was retired with the
/// control mesh. Every other byte is as recorded. Never
/// re-record to make this pass. A job file of any older layout is refused
/// as a typed decode error, never read as a job.
#[test]
fn the_staged_job_file_is_byte_for_byte_the_hand_written_codecs() {
    let golden = "\
         020200000000d0127341fca9f1d24d62403f00009a9999999999a93f0000000000000000002440ec51b81e85\
         ebb13f000000000000084000000000d012734148afbc9af2d77a3efca9f1d24d62503f691d554d10750f3ff1\
         68e388b5f8d43e2d431cebe2361a3f54e41071732ac93efa7e6abc7493583f0000000065cd9d4140420f0000\
         000000009a9999999999a93f010000000000000000040000000000001000000000000000fca9f1d24d6250\
         3f00000000000000000000010000000002000000000000004000000000000000000000000040074002000000\
         0b0000003132372e302e302e313a310b0000003132372e302e302e313a31000000000000000000000000";
    let dir = stage("golden", TWO, |dg| dg.shards[0].to_wire());
    let bytes = std::fs::read(dir.join("job.bin")).expect("job file");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden);
    let job = WorkerJob::read(&dir.join("job.bin")).expect("the worker's own entry reads it");
    assert_eq!(job.to_wire(), bytes);

    // The control mesh's address list sat between `data_addrs` and the 12
    // bytes of `checkpoint_every` and the empty `checkpoint_dir` that end
    // the file.
    let end = bytes.len() - 12;
    let list = 4 + 2 * (4 + "127.0.0.1:1".len());
    let mut parent = bytes.clone();
    parent.splice(end..end, bytes[end - list..end].to_vec());
    // `delta_suppression` sat right after `max_iterations`, 135 bytes in.
    let mut grandparent = parent.clone();
    grandparent.insert(135, 1);
    let great_grandparent = [&grandparent[..], &[0; 8]].concat();
    for old in [parent, grandparent, great_grandparent] {
        std::fs::write(dir.join("job.bin"), &old).expect("old job file");
        match WorkerJob::read(&dir.join("job.bin")) {
            Err(MultiprocError::Decode(detail)) => assert!(detail.contains("job file"), "{detail}"),
            other => panic!("an old-layout job file was not a decode error: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts worker `at.rank` on a staged directory and expects exit status 1
/// (a panic would be 101) with `mention` on stderr — what the launcher
/// reports as `MultiprocError::Worker` — and no result file.
fn assert_worker_refuses(dir: &Path, at: Staged, mention: &str) {
    let result = dir.join(format!("result-{}.bin", at.rank));
    let out = Command::new(worker_bin())
        .arg("--job")
        .arg(dir.join("job.bin"))
        .args(["--me", &at.rank.to_string(), "--out"])
        .arg(&result)
        .output()
        .expect("spawning lazygraph-worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(mention),
        "stderr does not mention `{mention}`: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!result.exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_worker_refuses_a_shard_that_is_not_its_part_of_the_job() {
    let dir = stage("rank", TWO, |dg| dg.shards[1].to_wire());
    assert_worker_refuses(&dir, TWO, "shard of machine 1 loaded as machine 0");

    let dir = stage("shape", TWO, |dg| {
        let other = rmat(RmatConfig::graph500(7, 4, 3));
        assert_ne!(other.num_vertices(), dg.num_global_vertices);
        place(&other, 2).shards[0].to_wire()
    });
    assert_worker_refuses(&dir, TWO, "route table covers");

    let dir = stage("cut", TWO, |dg| {
        let mut file = dg.shards[0].to_wire();
        file.truncate(file.len() / 2);
        file
    });
    assert_worker_refuses(&dir, TWO, "truncated");

    let dir = stage("damaged", TWO, |dg| {
        // The graph is unweighted, so the file ends with the last edge's
        // target and an empty weight section: raise that target's id (its
        // last byte sits under the mode bit) past every local.
        let mut file = dg.shards[0].to_wire();
        let weights = file.len() - 4;
        assert_eq!(file[weights..], [0; 4], "no weight is stored");
        file[weights - 1] |= 0x7f;
        file
    });
    assert_worker_refuses(&dir, TWO, "is not one of");
}

/// The job file is outside input too: address lists that do not cover the
/// placement's machines are refused where the job is decoded — rank 3 of a
/// list of two used to index out of bounds, and a list of one used to
/// build a one-machine mesh for a four-machine shape.
#[test]
fn a_worker_refuses_a_job_whose_address_lists_do_not_cover_its_machines() {
    for addrs in [2, 1] {
        let at = Staged { machines: 4, addrs, rank: 3 };
        let dir = stage(&format!("addrs{addrs}"), at, |dg| dg.shards[3].to_wire());
        let counts = format!("{addrs} addresses for 4 machines");
        assert_worker_refuses(&dir, at, &counts);
    }
}

/// A job that asks for checkpoints must say where to write them: one with
/// `checkpoint_every` above 0 and an empty `checkpoint_dir` used to run
/// with recovery silently off. It is refused where the job is decoded.
#[test]
fn a_worker_refuses_a_job_that_checkpoints_into_no_directory() {
    let dir = stage("nodir", TWO, |dg| dg.shards[0].to_wire());
    let path = dir.join("job.bin");
    let staged = WorkerJob::read(&path).expect("the staged job reads");
    let job = WorkerJob { checkpoint_every: 2, ..staged };
    std::fs::write(&path, job.to_wire()).expect("job file");
    let refusal = "checkpoints every 2 supersteps but names no checkpoint directory";
    match WorkerJob::read(&path) {
        Err(MultiprocError::Decode(detail)) => {
            assert!(detail.contains("job file") && detail.contains(refusal), "{detail}")
        }
        other => panic!("a job checkpointing nowhere was not a decode error: {other:?}"),
    }
    assert_worker_refuses(&dir, TWO, refusal);
}
