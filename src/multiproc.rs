//! The multiprocess worker runtime (DESIGN.md §10): a launcher that runs
//! one engine round-trip across N **separate OS processes** connected by
//! the framed-TCP mesh over loopback.
//!
//! The launcher places the graph **once**, then writes two kinds of file
//! into the run's scratch directory: `job.bin`, a [`WorkerJob`] — the
//! [`EngineConfig`], the socket addresses of both meshes and the three
//! scalars of the placement's shape, a few hundred bytes whatever the
//! graph — and one `shard-<rank>.bin` per machine, that machine's
//! `LocalShard` on the `Wire` codec (floats as exact IEEE-754 bit
//! patterns). It spawns N `lazygraph-worker` processes, each of which
//! reads the job and *its own* shard file and nothing else of the graph,
//! and collects each worker's Wire-encoded result file: its per-machine
//! outcome, its `NetStats` snapshot (with *measured* frame bytes, since
//! every exchange crossed a real socket), and its simulated time
//! breakdown. The shards are files rather than a stream because a
//! respawned worker reads the same shard again: nothing a run does changes
//! a shard, so a restart is that file plus the worker's latest snapshot
//! (DESIGN.md §12). The launcher folds the results with the in-process
//! driver's own epilogue, so both routes return one `RunResult`.
//!
//! Two meshes per run: a control mesh (`Endpoint<u8>`) backing the
//! mesh-based [`Collective`] (barriers/allreduce), and a data mesh typed
//! by the engine's message. Workers establish them in that fixed order.
//!
//! Only the engines whose machines communicate exclusively through
//! `Endpoint` + `Collective` can run multiprocess: **PowerGraphSync**,
//! **LazyBlockAsync**, and **DeltaAccum** — a worker starts its machine
//! through the same `run_mesh_engine` entry the in-process driver uses
//! (DESIGN.md §17). The async-family engines and the hybrid's tail
//! detect quiescence through shared memory and stay in-process (they
//! still support the threaded TCP transport via
//! `EngineConfig::with_transport`).
//!
//! Determinism: a multiprocess run is bitwise-identical to the in-process
//! run on the same graph and configuration — the codec is position-based
//! little-endian with floats as bit patterns, exchanges sort inbound
//! batches by sender, and the mesh collective folds contributions in
//! machine order.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use lazygraph_algorithms::{AlgoSpec, Shipped};
pub use lazygraph_cluster::FailPoint;
use lazygraph_cluster::{CommError, StatsSnapshot};
use lazygraph_engine::{
    assemble, place, snapshot_tag, EngineConfig, EngineKind, MachineOut, Measured, RunResult,
    SimBreakdown,
};
use lazygraph_graph::Graph;
use lazygraph_net::{wire_record, NetError, Wire, WireReader};
use lazygraph_partition::{LocalShard, PlacementShape};

/// Everything one worker process needs to run its machine except its
/// shard: the engine configuration, the two mesh address lists and the
/// shape of the placement. Written Wire-encoded to a job file read by
/// every worker; its size does not depend on the graph.
#[derive(Clone, Debug)]
pub struct WorkerJob {
    /// The run's configuration. `threads_per_machine` is already resolved
    /// (the launcher resolves `0 = auto` before shipping, so all workers
    /// agree); `transport` and `record_history` mean nothing to a worker
    /// (its mesh is TCP by definition and the trace sink is
    /// process-local).
    pub cfg: EngineConfig,
    pub algo: AlgoSpec,
    /// The placement every worker's shard must be a part of: machine
    /// count, global vertex count, `|E| / |V|`.
    pub shape: PlacementShape,
    /// Data-mesh socket addresses, one per machine (`127.0.0.1:port`).
    pub data_addrs: Vec<String>,
    /// Control-mesh socket addresses backing the collective.
    pub ctrl_addrs: Vec<String>,
    /// Snapshot every K supersteps (0 = checkpointing off, PR 4 fail-fast
    /// behaviour).
    pub checkpoint_every: u64,
    /// Directory for the per-rank snapshot files (empty = none).
    pub checkpoint_dir: String,
    /// How long a surviving worker keeps a torn link in the "awaiting
    /// rejoin" window, in milliseconds (0 = fail the gang at once).
    pub rejoin_window_ms: u64,
}

wire_record!(WorkerJob {
    cfg, algo, shape, data_addrs, ctrl_addrs, checkpoint_every, checkpoint_dir, rejoin_window_ms,
});

impl WorkerJob {
    /// Reads the job file a worker was started on. The bytes come from a
    /// file: besides decoding, every rank of the placement must find its
    /// own address in both meshes before anything indexes by rank.
    pub fn read(path: &Path) -> Result<WorkerJob, MultiprocError> {
        let bytes = std::fs::read(path).map_err(|e| io_err("reading job file", e))?;
        let job = WorkerJob::from_wire(&bytes).and_then(|job| {
            let machines = job.shape.num_machines;
            if job.data_addrs.len() != machines || job.ctrl_addrs.len() != machines {
                return Err(NetError::Malformed {
                    ty: "WorkerJob",
                    detail: format!(
                        "{} data and {} control addresses for {machines} machines",
                        job.data_addrs.len(),
                        job.ctrl_addrs.len()
                    ),
                });
            }
            Ok(job)
        });
        job.map_err(|e| MultiprocError::Decode(format!("job file {}: {e}", path.display())))
    }
}

/// Where machine `me`'s shard file lives: beside the job file.
pub fn shard_path(job_path: &Path, me: usize) -> PathBuf {
    job_path.with_file_name(format!("shard-{me}.bin"))
}

/// Fault-tolerance knobs for a multiprocess launch. `Default` is the
/// PR 4 behaviour: no checkpoints, no rejoin window, a dying worker
/// fails the gang and the launch fails fast.
#[derive(Clone, Debug, Default)]
pub struct MpOptions {
    /// Snapshot every K supersteps (0 = checkpointing off).
    pub checkpoint_every: u64,
    /// How long surviving workers hold a torn link awaiting a rejoin, in
    /// milliseconds (0 with checkpointing on picks a 30 s default).
    pub rejoin_window_ms: u64,
    /// How many crashed workers the launcher may respawn before reporting
    /// the failure instead.
    pub respawn_budget: u32,
    /// Arm `LAZYGRAPH_FAILPOINT` on one rank's *first* spawn
    /// (`(rank, point)`, e.g. `(2, FailPoint::Superstep(3))`). Respawns
    /// never re-arm it. Deterministic fault-injection hook for the test
    /// harness.
    pub failpoint: Option<(usize, FailPoint)>,
}

/// A multiprocess launch failure.
#[derive(Debug)]
pub enum MultiprocError {
    /// The configured engine cannot run multiprocess (async-family
    /// engines coordinate termination through shared memory).
    UnsupportedEngine(&'static str),
    /// The run cannot start as configured (a machine count no placement
    /// holds): the in-process route's error for the same request.
    Config(CommError),
    /// Filesystem / process-spawn failure.
    Io(String),
    /// A job, shard or result file failed to decode (or a shard does not
    /// fit the job it was loaded for).
    Decode(String),
    /// A worker process exited unsuccessfully; carries its stderr.
    Worker { me: usize, detail: String },
}

impl fmt::Display for MultiprocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiprocError::UnsupportedEngine(name) => {
                write!(
                    f,
                    "engine {name} cannot run multiprocess (shared-memory termination); \
                     use powergraph-sync, lazy-block-async, or delta-accum"
                )
            }
            MultiprocError::Config(e) => e.fmt(f),
            MultiprocError::Io(detail) => write!(f, "multiprocess launcher I/O: {detail}"),
            MultiprocError::Decode(detail) => write!(f, "multiprocess codec: {detail}"),
            MultiprocError::Worker { me, detail } => {
                write!(f, "worker {me} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for MultiprocError {}

/// What only a multiprocess launch has to report, beside the
/// [`RunResult`] both routes share.
pub struct LaunchReport {
    /// Size of the `job.bin` the launcher wrote.
    pub job_bytes: u64,
    /// Size of each machine's shard file, indexed by machine.
    pub shard_bytes: Vec<u64>,
    /// How long the launcher's one placement took.
    pub partition_time: Duration,
    /// Each worker's own counters, indexed by machine (the result's
    /// `metrics.stats` is their merge).
    pub per_worker_stats: Vec<StatsSnapshot>,
}

/// True if `engine` can run as separate processes: exactly the engines
/// that vote at barriers only, which are also the ones that can checkpoint.
pub fn multiproc_supported(engine: EngineKind) -> bool {
    snapshot_tag(engine).is_some()
}

static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err<E: fmt::Display>(what: &str, e: E) -> MultiprocError {
    MultiprocError::Io(format!("{what}: {e}"))
}

/// Reserves `n` distinct loopback ports by binding ephemeral listeners,
/// then releasing them. The usual probe pattern: a port could in
/// principle be re-taken before the worker binds it, in which case mesh
/// establishment fails loudly and the run errors out rather than hangs.
fn alloc_loopback_addrs(n: usize) -> Result<Vec<String>, MultiprocError> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| io_err("reserving loopback port", e))?;
        addrs.push(
            l.local_addr()
                .map_err(|e| io_err("reading reserved port", e))?
                .to_string(),
        );
        listeners.push(l); // hold all so the ports are distinct
    }
    Ok(addrs)
}

/// Runs `program` on `graph` across `num_machines` worker **processes**
/// connected by framed TCP over loopback — [`lazygraph_engine::run`] with
/// the machines as processes: same arguments, same [`RunResult`] (its
/// values bitwise the threaded run's, its byte counters *measured* — every
/// exchange crossed a socket), plus the launch's own [`LaunchReport`]. The
/// program must be a row of the shipped table ([`Shipped`]), since a
/// worker rebuilds it from `program.spec()`. `worker_bin` is the path to
/// the `lazygraph-worker` binary.
///
/// ```no_run
/// use lazygraph::multiproc::{run_multiprocess, MpOptions};
/// use lazygraph::prelude::*;
///
/// let graph = Dataset::RoadNetCaLike.build(0.02);
/// let worker = std::path::Path::new("target/release/lazygraph-worker");
/// let cfg = EngineConfig::lazygraph();
/// let (result, launch) =
///     run_multiprocess(&graph, 4, &cfg, &Sssp::new(0u32), worker, &MpOptions::default())?;
/// assert_eq!(launch.shard_bytes.len(), 4);
/// assert!(result.metrics.converged);
/// # Ok::<(), lazygraph::multiproc::MultiprocError>(())
/// ```
///
/// A program that is not in the table has no spec to ship, and is refused
/// by the signature:
///
/// ```compile_fail
/// use lazygraph::multiproc::{run_multiprocess, MpOptions};
/// use lazygraph::prelude::*;
/// use lazygraph::algorithms::MultiSourceBfs;
///
/// let graph = Dataset::RoadNetCaLike.build(0.02);
/// let worker = std::path::Path::new("target/release/lazygraph-worker");
/// let cfg = EngineConfig::lazygraph();
/// let program = MultiSourceBfs::new(vec![VertexId(0), VertexId(5)]);
/// run(&graph, 4, &cfg, &program).expect("any VertexProgram runs in-process");
/// run_multiprocess(&graph, 4, &cfg, &program, worker, &MpOptions::default());
/// ```
///
/// `opts` adds periodic worker checkpoints, a rejoin window on every mesh
/// link and a launcher-side respawn policy — a crashed worker is restarted
/// with `--resume`, loads its latest snapshot, rejoins the mesh, and the
/// run completes bitwise-identical to an undisturbed one (DESIGN.md §12).
/// `cfg.transport` is ignored — a multiprocess run is TCP by definition.
pub fn run_multiprocess<P: Shipped>(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    program: &P,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<(RunResult<P>, LaunchReport), MultiprocError> {
    if !multiproc_supported(cfg.engine) {
        return Err(MultiprocError::UnsupportedEngine(cfg.engine.name()));
    }
    let started = Instant::now();
    // Only the shards outlive this block; the placement's replica table
    // is the launcher's to drop.
    let (shape, lambda, shards) = {
        let dg = place(graph, num_machines, cfg).map_err(MultiprocError::Config)?;
        (dg.shape(), dg.lambda(), dg.shards)
    };
    let n = shape.num_machines;
    let partition_time = started.elapsed();
    // Both meshes' ports out of one reservation: two would each release
    // their listeners, and the second could be handed a port of the first
    // (one launch in a thousand, and the gang then fails at its handshakes).
    let mut data_addrs = alloc_loopback_addrs(2 * n)?;
    let ctrl_addrs = data_addrs.split_off(n);
    let mut job = WorkerJob {
        cfg: EngineConfig {
            threads_per_machine: cfg.resolve_threads(n),
            block_size: cfg.block_size.max(1),
            ..cfg.clone()
        },
        algo: program.spec(),
        shape,
        data_addrs,
        ctrl_addrs,
        checkpoint_every: opts.checkpoint_every,
        checkpoint_dir: String::new(),
        rejoin_window_ms: if opts.checkpoint_every > 0 && opts.rejoin_window_ms == 0 {
            30_000
        } else {
            opts.rejoin_window_ms
        },
    };

    let seq = LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "lazygraph-mp-{}-{seq}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| io_err("creating scratch dir", e))?;
    if job.checkpoint_every > 0 {
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).map_err(|e| io_err("creating checkpoint dir", e))?;
        job.checkpoint_dir = ckpt.to_string_lossy().into_owned();
    }
    let outcome = ship(&dir, &job, shards).and_then(|(job_bytes, shard_bytes)| {
        let launched = Instant::now();
        let result_files = launch_in(&dir, &job, worker_bin, opts)?;
        let (result, per_worker_stats) =
            assemble_result(&job, program, lambda, launched, result_files)?;
        let report = LaunchReport { job_bytes, shard_bytes, partition_time, per_worker_stats };
        Ok((result, report))
    });
    let _ = std::fs::remove_dir_all(&dir); // best-effort cleanup
    outcome
}

/// Writes `job.bin` and, consuming the placement one shard at a time
/// through one reused buffer, each machine's shard file beside it. Returns
/// the job file's size and every shard file's.
fn ship(
    dir: &Path,
    job: &WorkerJob,
    shards: Vec<LocalShard>,
) -> Result<(u64, Vec<u64>), MultiprocError> {
    let job_path = dir.join("job.bin");
    let mut buf = job.to_wire();
    std::fs::write(&job_path, &buf).map_err(|e| io_err("writing job file", e))?;
    let job_bytes = buf.len() as u64;
    let mut shard_bytes = Vec::with_capacity(shards.len());
    for (me, shard) in shards.into_iter().enumerate() {
        buf.clear();
        shard.encode(&mut buf);
        std::fs::write(shard_path(&job_path, me), &buf)
            .map_err(|e| io_err("writing shard file", e))?;
        shard_bytes.push(buf.len() as u64);
    }
    Ok((job_bytes, shard_bytes))
}

/// The other end of [`ship`]: reads machine `me`'s shard file from beside
/// the job file, decodes it and checks it is that machine's part of a
/// placement of `shape`. The file bytes are gone when this returns.
pub fn load_shard(
    job_path: &Path,
    me: usize,
    shape: &PlacementShape,
) -> Result<LocalShard, MultiprocError> {
    let path = shard_path(job_path, me);
    let started = Instant::now();
    let bytes = std::fs::read(&path).map_err(|e| io_err("reading shard file", e))?;
    let shard = LocalShard::from_wire(&bytes)
        .and_then(|shard| shard.check_fits(me, shape).map(|()| shard))
        .map_err(|e| MultiprocError::Decode(format!("shard file {}: {e}", path.display())))?;
    if std::env::var_os("LAZYGRAPH_MP_DEBUG").is_some() {
        eprintln!(
            "worker {me}: shard of {} B decoded to {} locals, {} edges in {:.3}s",
            bytes.len(),
            shard.num_local(),
            shard.num_local_edges(),
            started.elapsed().as_secs_f64()
        );
    }
    Ok(shard)
}

/// Spawns one worker process. `resume` adds `--resume` (load the latest
/// snapshot and rejoin the mesh); `failpoint` arms `LAZYGRAPH_FAILPOINT`
/// in the child's environment. The launcher's own environment never leaks
/// a failpoint into the gang.
fn spawn_worker(
    worker_bin: &Path,
    job_path: &Path,
    me: usize,
    out_path: &Path,
    resume: bool,
    failpoint: Option<FailPoint>,
) -> std::io::Result<std::process::Child> {
    let mut cmd = Command::new(worker_bin);
    cmd.arg("--job")
        .arg(job_path)
        .arg("--me")
        .arg(me.to_string())
        .arg("--out")
        .arg(out_path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .env_remove("LAZYGRAPH_FAILPOINT");
    if resume {
        cmd.arg("--resume");
    }
    if let Some(point) = failpoint {
        cmd.env("LAZYGRAPH_FAILPOINT", point.to_string());
    }
    cmd.spawn()
}

/// Spawns the workers on the files [`ship`] wrote, supervises them to
/// completion (respawning crashed ones with `--resume` while
/// `opts.respawn_budget` lasts and checkpointing is on), and returns the
/// raw result bytes per machine.
fn launch_in(
    dir: &Path,
    job: &WorkerJob,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<Vec<Vec<u8>>, MultiprocError> {
    let job_path = dir.join("job.bin");
    let out_paths: Vec<PathBuf> = (0..job.shape.num_machines)
        .map(|i| dir.join(format!("result-{i}.bin")))
        .collect();

    let mut children: Vec<Option<std::process::Child>> = Vec::with_capacity(job.shape.num_machines);
    for (me, out_path) in out_paths.iter().enumerate() {
        let failpoint = opts
            .failpoint
            .filter(|(rank, _)| *rank == me)
            .map(|(_, point)| point);
        match spawn_worker(worker_bin, &job_path, me, out_path, false, failpoint) {
            Ok(child) => children.push(Some(child)),
            Err(e) => {
                // A worker that never spawned would hang the mesh: kill
                // the ones already running and fail the launch.
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(io_err("spawning lazygraph-worker", e));
            }
        }
    }

    // Supervision loop. Without recovery a dying worker surfaces on its
    // peers as a transport error (a link torn without its Shutdown frame),
    // so every process exits rather than hangs. With recovery, a non-zero
    // exit is respawned with `--resume` (failpoint disarmed) while the
    // budget lasts; the survivors hold the torn links in their rejoin
    // windows until the restarted worker dials back in.
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut done = vec![false; job.shape.num_machines];
    let mut respawns_left = opts.respawn_budget;
    let recovery_on = job.checkpoint_every > 0 && job.rejoin_window_ms > 0;
    let debug = std::env::var_os("LAZYGRAPH_MP_DEBUG").is_some();
    while done.iter().any(|d| !d) {
        let mut progressed = false;
        for me in 0..job.shape.num_machines {
            if done[me] {
                continue;
            }
            let exited = match children[me].as_mut() {
                Some(child) => match child.try_wait() {
                    Ok(Some(_)) => true,
                    Ok(None) => false,
                    Err(e) => {
                        done[me] = true;
                        failures.push((me, format!("wait failed: {e}")));
                        continue;
                    }
                },
                None => {
                    done[me] = true;
                    continue;
                }
            };
            if !exited {
                continue;
            }
            progressed = true;
            // Already exited, so this drains the stderr pipe and reaps
            // without blocking on a live process.
            let out = match children[me]
                .take()
                // lazylint: allow(no-panic) -- the `exited` branch above only runs when this slot held a live child
                .expect("checked above")
                .wait_with_output()
            {
                Ok(out) => out,
                Err(e) => {
                    done[me] = true;
                    failures.push((me, format!("wait failed: {e}")));
                    continue;
                }
            };
            let stderr = String::from_utf8_lossy(&out.stderr).trim().to_string();
            if out.status.success() {
                done[me] = true;
                if debug && !stderr.is_empty() {
                    eprintln!("[worker {me}] {stderr}");
                }
            } else if recovery_on && respawns_left > 0 {
                respawns_left -= 1;
                if debug {
                    eprintln!(
                        "[launcher] worker {me} died (exit {:?}: {stderr}): respawning with --resume",
                        out.status.code()
                    );
                }
                match spawn_worker(worker_bin, &job_path, me, &out_paths[me], true, None) {
                    Ok(child) => children[me] = Some(child),
                    Err(e) => {
                        done[me] = true;
                        failures.push((me, format!("respawn failed: {e}")));
                    }
                }
            } else {
                done[me] = true;
                failures.push((me, format!("exit {:?}: {stderr}", out.status.code())));
            }
        }
        if !progressed {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
    // Report the first failing worker but include every peer's failure:
    // with a mesh transport the root cause is often on a *different*
    // machine than the one whose error the caller happens to see.
    if let Some((me, detail)) = failures.first() {
        let mut detail = detail.clone();
        for (peer, d) in &failures[1..] {
            detail.push_str(&format!("; worker {peer}: {d}"));
        }
        return Err(MultiprocError::Worker { me: *me, detail });
    }

    out_paths
        .iter()
        .enumerate()
        .map(|(me, p)| {
            std::fs::read(p).map_err(|e| {
                MultiprocError::Worker {
                    me,
                    detail: format!("exited 0 but wrote no result file: {e}"),
                }
            })
        })
        .collect()
}

/// Decodes every worker's result file (`MachineOut ++ StatsSnapshot ++
/// SimBreakdown`) and folds the machine outcomes through the in-process
/// driver's own epilogue. Returns each worker's own counters beside it.
fn assemble_result<P: Shipped>(
    job: &WorkerJob,
    program: &P,
    lambda: f64,
    launched: Instant,
    result_files: Vec<Vec<u8>>,
) -> Result<(RunResult<P>, Vec<StatsSnapshot>), MultiprocError> {
    let mut outs: Vec<MachineOut<P>> = Vec::with_capacity(result_files.len());
    let mut per_worker_stats = Vec::with_capacity(result_files.len());
    let mut merged = StatsSnapshot::default();
    let mut breakdown = SimBreakdown::default();
    for (me, bytes) in result_files.iter().enumerate() {
        let mut r = WireReader::new(bytes);
        let fail = |e: NetError| MultiprocError::Decode(format!("worker {me} result: {e}"));
        outs.push(MachineOut::<P>::decode(&mut r).map_err(fail)?);
        let stats = StatsSnapshot::decode(&mut r).map_err(fail)?;
        let bd = SimBreakdown::decode(&mut r).map_err(fail)?;
        r.finish().map_err(fail)?;
        if me == 0 {
            breakdown = bd; // worker 0 is the only recorder
        }
        merged.merge(&stats);
        per_worker_stats.push(stats);
    }
    let measured = Measured {
        lambda,
        wall_time: launched.elapsed(),
        stats: merged,
        breakdown,
        history: Vec::new(), // the trace sink is process-local
    };
    let result = assemble(outs, &job.cfg, program, job.shape.num_global_vertices, measured);
    Ok((result, per_worker_stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> WorkerJob {
        WorkerJob {
            cfg: EngineConfig::lazygraph().with_threads(2).with_block_size(64),
            algo: AlgoSpec::PageRank { tolerance: 1e-3 },
            shape: PlacementShape {
                num_machines: 3,
                num_global_vertices: 7,
                ev_ratio: 0.1 + 0.2, // not a round bit pattern
            },
            data_addrs: vec!["127.0.0.1:4000".into(); 3],
            ctrl_addrs: vec!["127.0.0.1:5000".into(); 3],
            checkpoint_every: 4,
            checkpoint_dir: "/tmp/lz-ckpt".into(),
            rejoin_window_ms: 15_000,
        }
    }

    #[test]
    fn worker_job_round_trips() {
        // The configuration's own round-trip law (every field, floats by
        // bit pattern) is `crates/engine/tests/config_wire.rs`; here only
        // the job's own fields and the embedding are at stake.
        let j = job();
        let bytes = j.to_wire();
        let back = WorkerJob::from_wire(&bytes).expect("decode");
        assert_eq!(back.to_wire(), bytes, "re-encoding must reproduce the job file");
        assert_eq!(format!("{back:?}"), format!("{j:?}"));
    }

    #[test]
    fn algo_specs_round_trip() {
        for spec in [
            AlgoSpec::PageRank { tolerance: 2.5e-4 },
            AlgoSpec::Sssp { source: 7 },
            AlgoSpec::Bfs { source: 0 },
            AlgoSpec::Cc,
            AlgoSpec::KCore { k: 4 },
            AlgoSpec::Widest { source: 9 },
        ] {
            let bytes = spec.to_wire();
            assert_eq!(AlgoSpec::from_wire(&bytes).expect("decode"), spec);
        }
    }

    #[test]
    fn unsupported_engines_are_rejected() {
        assert!(multiproc_supported(EngineKind::PowerGraphSync));
        assert!(multiproc_supported(EngineKind::LazyBlockAsync));
        assert!(multiproc_supported(EngineKind::DeltaAccum));
        assert!(!multiproc_supported(EngineKind::PowerGraphAsync));
        assert!(!multiproc_supported(EngineKind::LazyVertexAsync));
        assert!(!multiproc_supported(EngineKind::PowerSwitchHybrid));
    }

    /// The launcher no longer clamps `0` to one worker: both routes refuse
    /// the same counts with the same error, before anything is placed.
    #[test]
    fn a_machine_count_no_placement_holds_is_a_typed_error() {
        let g = lazygraph_graph::Dataset::RoadNetCaLike.build(0.01);
        let cfg = EngineConfig::lazygraph();
        let sssp = lazygraph_algorithms::Sssp::new(0u32);
        for n in [0, 129] {
            let refused = CommError::MachineCount { got: n, max: 128 };
            assert_eq!(lazygraph_engine::run(&g, n, &cfg, &sssp).err(), Some(refused.clone()));
            let launched =
                run_multiprocess(&g, n, &cfg, &sssp, Path::new("unused"), &MpOptions::default());
            assert!(matches!(launched, Err(MultiprocError::Config(e)) if e == refused), "{n}");
        }
    }

    #[test]
    fn loopback_ports_are_distinct() {
        let addrs = alloc_loopback_addrs(8).expect("alloc");
        let set: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(set.len(), 8);
        for a in &addrs {
            assert!(a.starts_with("127.0.0.1:"));
        }
    }
}
