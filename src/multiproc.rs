//! The multiprocess worker runtime (DESIGN.md §10): a launcher that runs
//! one engine round-trip across N **separate OS processes** connected by
//! the framed-TCP mesh over loopback.
//!
//! The launcher places the graph **once**, straight into the run's
//! scratch directory: one `shard-<rank>.bin` per machine, that machine's
//! `LocalShard` on the `Wire` codec (floats as exact IEEE-754 bit
//! patterns), streamed into its file as the placement walks — the
//! launcher never holds a placed shard. Beside them goes `job.bin`, a
//! [`WorkerJob`]: the [`EngineConfig`], the socket addresses of the mesh
//! and the three scalars of the placement's shape, a few hundred bytes
//! whatever the graph. It spawns N `lazygraph-worker` processes,
//! each of which reads the job and *its own* shard file and nothing else
//! of the graph, and collects each worker's Wire-encoded result file: one
//! `MachineOut`, the same outcome a machine thread returns, carrying its
//! simulated-time breakdown, its per-round trace and its counters (with
//! *measured* frame bytes, since every exchange crossed a real socket).
//! The shards are files
//! rather than a stream because a restarted gang reads the same shards
//! again: nothing a run does changes a shard, so a restart is those files
//! plus one snapshot generation every worker holds (DESIGN.md §12). Of the placement
//! the launcher keeps its shape, its λ and its master table; it holds each
//! worker's result to that table, then folds the results with the
//! in-process driver's own epilogue, so both routes return one
//! `RunResult`.
//!
//! One mesh per run, typed by the engine's message: a worker's endpoint
//! carries its data rounds and its barriers and allreduces alike, as one
//! sequence of rounds.
//!
//! All six engines run multiprocess, and all six recover: every machine
//! communicates only through rounds of its `Endpoint` (the barrier-free
//! engines' votes ride on their data rounds), every step ends with
//! nothing in flight, and a worker starts its machine through the same
//! `run_mesh_engine` entry the in-process driver uses (DESIGN.md §17).
//!
//! Determinism: a multiprocess run is bitwise-identical to the in-process
//! run on the same graph and configuration — the codec is position-based
//! little-endian with floats as bit patterns, exchanges sort inbound
//! batches by sender, and an allreduce folds contributions in machine
//! order.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use lazygraph_algorithms::{AlgoSpec, Shipped};
pub use lazygraph_cluster::FailPoint;
use lazygraph_cluster::CommError;
use lazygraph_engine::checkpoint::{CheckpointError, SnapshotStore};
use lazygraph_engine::{
    assemble, place_files, EngineConfig, MachineOut, Measured, RunResult,
};
use lazygraph_graph::{Graph, MachineId};
use lazygraph_net::{wire_record, NetError, Wire};
use lazygraph_partition::{LocalShard, PlacementShape, ShardFiles};

/// Everything one worker process needs to run its machine except its
/// shard: the engine configuration, the mesh's address list and the
/// shape of the placement. Written Wire-encoded to a job file read by
/// every worker; its size does not depend on the graph.
#[derive(Clone, Debug)]
pub struct WorkerJob {
    /// The run's configuration. `threads_per_machine` is already resolved
    /// (the launcher resolves `0 = auto` before shipping, so all workers
    /// agree); `transport` means nothing to a worker (its mesh is TCP by
    /// definition).
    pub cfg: EngineConfig,
    pub algo: AlgoSpec,
    /// The placement every worker's shard must be a part of: machine
    /// count, global vertex count, `|E| / |V|`.
    pub shape: PlacementShape,
    /// Mesh socket addresses, one per machine (`127.0.0.1:port`).
    pub data_addrs: Vec<String>,
    /// Snapshot every K supersteps (0 = checkpointing off, PR 4 fail-fast
    /// behaviour).
    pub checkpoint_every: u64,
    /// Directory for the per-rank snapshot files: empty exactly when
    /// `checkpoint_every` is 0.
    pub checkpoint_dir: String,
}

wire_record!(WorkerJob { cfg, algo, shape, data_addrs, checkpoint_every, checkpoint_dir });

impl WorkerJob {
    /// Reads the job file a worker was started on. The bytes come from a
    /// file: besides decoding, every rank of the placement must find its
    /// own address in the mesh before anything indexes by rank, and a job
    /// that checkpoints must say where to.
    pub fn read(path: &Path) -> Result<WorkerJob, MultiprocError> {
        let bytes = std::fs::read(path).map_err(|e| io_err("reading job file", e))?;
        let job = WorkerJob::from_wire(&bytes).and_then(|job| {
            let machines = job.shape.num_machines;
            if job.data_addrs.len() != machines {
                return Err(NetError::Malformed {
                    ty: "WorkerJob",
                    detail: format!("{} addresses for {machines} machines", job.data_addrs.len()),
                });
            }
            if job.checkpoint_every > 0 && job.checkpoint_dir.is_empty() {
                return Err(NetError::Malformed {
                    ty: "WorkerJob",
                    detail: format!(
                        "checkpoints every {} supersteps but names no checkpoint directory",
                        job.checkpoint_every
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

/// Fault-tolerance knobs for a multiprocess launch. `Default` is no
/// checkpoints: a dying worker fails the gang and the launch fails fast.
#[derive(Clone, Debug, Default)]
pub struct MpOptions {
    /// Snapshot every K supersteps (0 = checkpointing off).
    pub checkpoint_every: u64,
    /// How many gang restarts the launcher may make before reporting a
    /// worker's failure instead.
    pub respawn_budget: u32,
    /// Fail points to arm, each as `(incarnation, rank, point)`: rank
    /// `rank`'s worker in the gang's `incarnation`-th start (0 = the
    /// first, 1 = after the first restart, …) runs with
    /// `LAZYGRAPH_FAILPOINT` set to `point` — e.g.
    /// `(0, 2, FailPoint::Superstep(3))`. Deterministic fault-injection
    /// hook for the test harness.
    pub failpoint: Vec<(u32, usize, FailPoint)>,
}

/// A multiprocess launch failure.
#[derive(Debug)]
pub enum MultiprocError {
    /// The run cannot start as configured (a machine count no placement
    /// holds, a `LAZYGRAPH_THREADS` that is not a count): the in-process
    /// route's error for the same request.
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
    /// How long the launcher's one placement took, shard file writes
    /// included: the placement streams every shard into its file as it
    /// walks, so the two are one span.
    pub partition_time: Duration,
    /// How many times the launcher restarted the whole gang (0 on an
    /// undisturbed run).
    pub gang_restarts: u32,
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
/// `opts` adds periodic worker checkpoints and a launcher-side restart
/// policy — when a worker crashes, the launcher stops the whole gang and
/// restarts every worker from the newest snapshot generation all of them
/// hold, and the run completes bitwise-identical to an undisturbed one
/// (DESIGN.md §12).
/// `cfg.transport` is ignored — a multiprocess run is TCP by definition.
pub fn run_multiprocess<P: Shipped>(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    program: &P,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<(RunResult<P>, LaunchReport), MultiprocError> {
    let seq = LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "lazygraph-mp-{}-{seq}",
        std::process::id()
    ));
    launch_from(&dir, graph, num_machines, cfg, program, worker_bin, opts)
}

/// The launch in scratch directory `dir`, which it creates and always
/// removes, whatever the outcome.
fn launch_from<P: Shipped>(
    dir: &Path,
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    program: &P,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<(RunResult<P>, LaunchReport), MultiprocError> {
    let outcome = std::fs::create_dir_all(dir)
        .map_err(|e| io_err("creating scratch dir", e))
        .and_then(|()| launch_in(dir, graph, num_machines, cfg, program, worker_bin, opts));
    let _ = std::fs::remove_dir_all(dir); // best-effort cleanup
    outcome
}

/// Places the graph straight into one shard file per machine in `dir`,
/// writes `job.bin` beside them, runs the gang on them and folds its
/// results. Of the placement the launcher keeps only its shape, its λ
/// and its master table.
fn launch_in<P: Shipped>(
    dir: &Path,
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    program: &P,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<(RunResult<P>, LaunchReport), MultiprocError> {
    let threads = cfg.resolve_threads(num_machines).map_err(MultiprocError::Config)?;
    let job_path = dir.join("job.bin");
    let started = Instant::now();
    let placed = place_files(graph, num_machines, cfg, |me| shard_path(&job_path, me))
        .map_err(MultiprocError::Config)?
        .map_err(|e| io_err("writing shard files", e))?;
    let partition_time = started.elapsed();
    let ShardFiles { shape, lambda, masters, bytes: shard_bytes } = placed;
    let n = shape.num_machines;
    let data_addrs = alloc_loopback_addrs(n)?;
    let mut job = WorkerJob {
        cfg: EngineConfig {
            threads_per_machine: threads,
            block_size: cfg.block_size.max(1),
            ..cfg.clone()
        },
        algo: program.spec(),
        shape,
        data_addrs,
        checkpoint_every: opts.checkpoint_every,
        checkpoint_dir: String::new(),
    };
    if job.checkpoint_every > 0 {
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).map_err(|e| io_err("creating checkpoint dir", e))?;
        job.checkpoint_dir = ckpt.to_string_lossy().into_owned();
    }
    let job_file = job.to_wire();
    std::fs::write(&job_path, &job_file).map_err(|e| io_err("writing job file", e))?;

    let launched = Instant::now();
    let (result_files, gang_restarts) = supervise(dir, &job, worker_bin, opts)?;
    let result = assemble_result(&job, program, lambda, &masters, launched, result_files)?;
    let report = LaunchReport {
        job_bytes: job_file.len() as u64,
        shard_bytes,
        partition_time,
        gang_restarts,
    };
    Ok((result, report))
}

/// The worker's end of the launcher's placement: reads machine `me`'s shard
/// file from beside the job file, decodes it and checks it is that machine's part of a
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

/// Spawns one worker process. `resume` adds `--resume G` (open snapshot
/// generation `G` and start there); `failpoint` arms
/// `LAZYGRAPH_FAILPOINT` in the child's environment. The launcher's own
/// environment never leaks a failpoint into the gang.
fn spawn_worker(
    worker_bin: &Path,
    job_path: &Path,
    me: usize,
    out_path: &Path,
    resume: Option<u64>,
    failpoint: Option<FailPoint>,
) -> std::io::Result<Child> {
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
    if let Some(generation) = resume {
        cmd.arg("--resume").arg(generation.to_string());
    }
    if let Some(point) = failpoint {
        cmd.env("LAZYGRAPH_FAILPOINT", point.to_string());
    }
    cmd.spawn()
}

/// SIGKILLs and reaps every worker still running.
fn kill_gang(children: &mut [Option<Child>]) {
    for mut child in children.iter_mut().filter_map(Option::take) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Reaps worker `me`, which has exited: `None` if it exited 0, else what
/// went wrong, its stderr included.
fn reap(me: usize, child: Child, debug: bool) -> Option<String> {
    // Already exited, so this drains the stderr pipe without blocking.
    let out = match child.wait_with_output() {
        Ok(out) => out,
        Err(e) => return Some(format!("wait failed: {e}")),
    };
    let stderr = String::from_utf8_lossy(&out.stderr).trim().to_string();
    if !out.status.success() {
        return Some(format!("exit {:?}: {stderr}", out.status.code()));
    }
    if debug && !stderr.is_empty() {
        eprintln!("[worker {me}] {stderr}");
    }
    None
}

/// How one incarnation of the gang ended.
enum GangExit {
    /// Every worker exited 0.
    Done,
    /// Worker `me` failed and a restart is allowed: the rest of the gang
    /// has been killed.
    Restart { me: usize, detail: String },
    /// Workers failed and no restart is allowed: each failure, in the
    /// order the launcher saw them.
    Failed(Vec<(usize, String)>),
}

/// Waits on one incarnation of the gang. With `restart` the first failure
/// stops the rest at once; without it every worker is left to exit on its
/// own — a dying worker tears its peers' links, so none hangs — and each
/// failure is kept, since the root cause is often on a different machine
/// than the first to report.
fn wait_gang(children: &mut [Option<Child>], restart: bool, debug: bool) -> GangExit {
    let mut failures: Vec<(usize, String)> = Vec::new();
    while children.iter().any(Option::is_some) {
        let mut progressed = false;
        for me in 0..children.len() {
            let Some(child) = children[me].as_mut() else { continue };
            let failure = match child.try_wait() {
                Ok(None) => continue,
                Ok(Some(_)) => children[me].take().and_then(|child| reap(me, child, debug)),
                Err(e) => {
                    children[me] = None;
                    Some(format!("wait failed: {e}"))
                }
            };
            progressed = true;
            let Some(detail) = failure else { continue };
            if restart {
                kill_gang(children);
                return GangExit::Restart { me, detail };
            }
            failures.push((me, detail));
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    if failures.is_empty() {
        GangExit::Done
    } else {
        GangExit::Failed(failures)
    }
}

/// The generation a restarted gang resumes from: the newest one whose
/// file verifies on every rank (`None`: there is none, start afresh).
/// Each rank's files newer than it — and its torn temp files — are
/// removed, so the restarted gang's saves find only what it resumed from.
fn common_generation(job: &WorkerJob) -> Result<Option<u64>, MultiprocError> {
    let fail = |me: usize, e: CheckpointError| io_err(&format!("rank {me}'s snapshots"), e);
    let stores: Vec<SnapshotStore> = (0..job.shape.num_machines)
        .map(|me| SnapshotStore::new(&job.checkpoint_dir, me))
        .collect();
    let mut common: Option<Vec<u64>> = None;
    for (me, store) in stores.iter().enumerate() {
        let skipped = |path: &Path, why: &CheckpointError| {
            eprintln!("[launcher] rank {me}: skipping {}: {why}", path.display());
        };
        let valid = store.verified(skipped).map_err(|e| fail(me, e))?;
        common = Some(match common {
            None => valid,
            Some(held) => held.into_iter().filter(|g| valid.contains(g)).collect(),
        });
    }
    let generation = common.and_then(|held| held.into_iter().max());
    for (me, store) in stores.iter().enumerate() {
        store.discard_after(generation).map_err(|e| fail(me, e))?;
    }
    Ok(generation)
}

/// Runs the gang on the files in `dir` to completion and returns the raw
/// result bytes per machine, with the number of gang restarts it took.
/// With checkpointing on, a worker that exits non-zero stops the whole
/// gang, and every worker is started again from the newest generation all
/// of them hold ([`common_generation`]) while `opts.respawn_budget` lasts.
fn supervise(
    dir: &Path,
    job: &WorkerJob,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<(Vec<Vec<u8>>, u32), MultiprocError> {
    let job_path = dir.join("job.bin");
    let out_paths: Vec<PathBuf> = (0..job.shape.num_machines)
        .map(|i| dir.join(format!("result-{i}.bin")))
        .collect();
    let recovery_on = job.checkpoint_every > 0;
    let debug = std::env::var_os("LAZYGRAPH_MP_DEBUG").is_some();
    let mut resume = None;
    let mut restarts = 0u32;
    loop {
        let mut children: Vec<Option<Child>> = Vec::with_capacity(out_paths.len());
        for (me, out_path) in out_paths.iter().enumerate() {
            let failpoint = opts
                .failpoint
                .iter()
                .find(|&&(incarnation, rank, _)| incarnation == restarts && rank == me)
                .map(|&(_, _, point)| point);
            match spawn_worker(worker_bin, &job_path, me, out_path, resume, failpoint) {
                Ok(child) => children.push(Some(child)),
                Err(e) => {
                    // A worker that never spawned would hang the mesh.
                    kill_gang(&mut children);
                    return Err(io_err("spawning lazygraph-worker", e));
                }
            }
        }
        let restart = recovery_on && restarts < opts.respawn_budget;
        match wait_gang(&mut children, restart, debug) {
            GangExit::Done => break,
            GangExit::Restart { me, detail } => {
                resume = common_generation(job)?;
                restarts += 1;
                if debug {
                    eprintln!(
                        "[launcher] worker {me} failed ({detail}): restarting the gang from {}",
                        resume.map_or("the start".to_string(), |g| format!("generation {g}"))
                    );
                }
            }
            GangExit::Failed(failures) => {
                let (me, mut detail) = failures[0].clone();
                for (peer, d) in &failures[1..] {
                    detail.push_str(&format!("; worker {peer}: {d}"));
                }
                return Err(MultiprocError::Worker { me, detail });
            }
        }
    }

    let results = out_paths
        .iter()
        .enumerate()
        .map(|(me, p)| {
            std::fs::read(p).map_err(|e| MultiprocError::Worker {
                me,
                detail: format!("exited 0 but wrote no result file: {e}"),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((results, restarts))
}

/// Decodes every worker's result file (one `MachineOut`), checks the
/// master values it carries against the placement's master table, and
/// folds the machine outcomes through the in-process driver's own
/// epilogue.
fn assemble_result<P: Shipped>(
    job: &WorkerJob,
    program: &P,
    lambda: f64,
    masters: &[MachineId],
    launched: Instant,
    result_files: Vec<Vec<u8>>,
) -> Result<RunResult<P>, MultiprocError> {
    let mut outs: Vec<MachineOut<P>> = Vec::with_capacity(result_files.len());
    let mut sent = vec![false; masters.len()];
    for (me, bytes) in result_files.iter().enumerate() {
        let out = MachineOut::<P>::from_wire(bytes)
            .map_err(|e| MultiprocError::Decode(format!("worker {me} result: {e}")))?;
        check_masters(me, out.masters.iter().map(|&(gid, _)| gid), masters, &mut sent)?;
        outs.push(out);
    }
    if let Some(gid) = sent.iter().position(|&s| !s) {
        return Err(MultiprocError::Decode(format!(
            "worker {} result: no value for vertex {gid}, whose master it holds",
            masters[gid]
        )));
    }
    let measured = Measured {
        lambda,
        wall_time: launched.elapsed(),
    };
    Ok(assemble(outs, &job.cfg, program, job.shape.num_global_vertices, measured))
}

/// Holds the gids of worker `me`'s master values to the master table: each
/// is a vertex of the graph whose master is `me`, sent once. `sent` marks
/// the vertices seen so far, over all workers.
fn check_masters(
    me: usize,
    gids: impl Iterator<Item = u32>,
    masters: &[MachineId],
    sent: &mut [bool],
) -> Result<(), MultiprocError> {
    for gid in gids {
        let refused = match masters.get(gid as usize) {
            None => format!("is not one of the graph's {} vertices", masters.len()),
            Some(m) if m.index() != me => format!("has its master on worker {m}"),
            Some(_) if sent[gid as usize] => "is sent twice".to_string(),
            Some(_) => {
                sent[gid as usize] = true;
                continue;
            }
        };
        return Err(MultiprocError::Decode(format!(
            "worker {me} result: a value for vertex {gid}, which {refused}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_algorithms::ConnectedComponents;
    use lazygraph_engine::{EngineKind, SimBreakdown};

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
            checkpoint_every: 4,
            checkpoint_dir: "/tmp/lz-ckpt".into(),
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

    /// Every engine runs multiprocess and checkpoints, so a worker reads a
    /// checkpointed job of each of the six; what it refuses is a job
    /// naming an engine that is none of them (the configuration's first
    /// byte), as a typed decode error.
    #[test]
    fn unsupported_engines_are_rejected() {
        let dir = std::env::temp_dir().join(format!("lazygraph-engines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("job.bin");
        for engine in [
            EngineKind::PowerGraphSync,
            EngineKind::PowerGraphAsync,
            EngineKind::LazyBlockAsync,
            EngineKind::LazyVertexAsync,
            EngineKind::PowerSwitchHybrid,
            EngineKind::DeltaAccum,
        ] {
            let j = WorkerJob {
                cfg: EngineConfig::lazygraph().with_engine(engine),
                checkpoint_every: 4,
                ..job()
            };
            std::fs::write(&path, j.to_wire()).expect("write job");
            let read = WorkerJob::read(&path).unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            assert_eq!((read.cfg.engine, read.checkpoint_every), (engine, 4));
        }
        let mut unknown = job().to_wire();
        unknown[0] = 6;
        std::fs::write(&path, unknown).expect("write job");
        let refused = WorkerJob::read(&path).map(|_| ()).map_err(|e| e.to_string());
        assert!(
            matches!(&refused, Err(e) if e.contains("job file") && e.contains("EngineKind")),
            "{refused:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The outcome of a worker that sends `gids`' CC labels.
    fn machine_out(gids: &[u32]) -> MachineOut<ConnectedComponents> {
        MachineOut {
            masters: gids.iter().map(|&gid| (gid, gid)).collect(),
            iterations: 3,
            converged: true,
            sim_time: 1.0,
            breakdown: Default::default(),
            history: Vec::new(),
            stats: Default::default(),
        }
    }

    /// The result file of a worker that sends `gids`' CC labels.
    fn result_file(gids: &[u32]) -> Vec<u8> {
        machine_out(gids).to_wire()
    }

    /// A result file decodes from bytes a worker wrote, so the gids in it
    /// are held to the launcher's master table before anything indexes by
    /// them: out of range, sent twice, mastered elsewhere or missing is a
    /// typed error naming the worker and the vertex, never a panic or a
    /// silently overwritten value.
    #[test]
    fn a_result_file_is_held_to_the_master_table() {
        // `job()`'s 7 vertices over its 3 machines.
        let masters: Vec<MachineId> = [0, 1, 2, 0, 1, 2, 0].map(MachineId).to_vec();
        let assembled = |files: [&[u32]; 3]| {
            let files = files.map(result_file).to_vec();
            assemble_result(&job(), &ConnectedComponents, 1.0, &masters, Instant::now(), files)
                .map(|result| result.values)
        };
        let values = assembled([&[0, 3, 6], &[1, 4], &[2, 5]]).expect("every master once");
        assert_eq!(values, (0..7).collect::<Vec<u32>>());
        for (files, worker, gid, why) in [
            ([&[0, 3, 6, 7][..], &[1, 4], &[2, 5]], 0, 7, "not one of the graph's 7 vertices"),
            ([&[0, 3, 6, 3], &[1, 4], &[2, 5]], 0, 3, "sent twice"),
            ([&[0, 3, 6], &[1, 4, 0], &[2, 5]], 1, 0, "master on worker 0"),
            ([&[0, 3, 6], &[1, 4], &[2]], 2, 5, "no value"),
        ] {
            match assembled(files) {
                Err(MultiprocError::Decode(detail)) => assert!(
                    detail.starts_with(&format!("worker {worker} result: "))
                        && detail.contains(&format!("vertex {gid},"))
                        && detail.contains(why),
                    "{detail}"
                ),
                Err(e) => panic!("expected a decode error, got {e}"),
                Ok(_) => panic!("{files:?} assembled"),
            }
        }

        // The three-record layout — a `SimBreakdown` after the counters —
        // is refused whether its outcome has the fields a machine now
        // returns (40 bytes past the end) or only those it once did (the
        // trace and the counters missing).
        let breakdown = SimBreakdown::default().to_wire();
        let mut trailing = result_file(&[2, 5]);
        trailing.extend_from_slice(&breakdown);
        let out = machine_out(&[2, 5]);
        let mut once = Vec::new();
        out.masters.encode(&mut once);
        out.iterations.encode(&mut once);
        out.converged.encode(&mut once);
        out.sim_time.encode(&mut once);
        out.stats.encode(&mut once);
        once.extend_from_slice(&breakdown);
        for (file, why) in [(trailing, "40 trailing bytes"), (once, "truncated")] {
            let files = vec![result_file(&[0, 3, 6]), result_file(&[1, 4]), file];
            match assemble_result(&job(), &ConnectedComponents, 1.0, &masters, Instant::now(), files)
            {
                Err(MultiprocError::Decode(detail)) => {
                    assert!(detail.starts_with("worker 2 result: ") && detail.contains(why), "{detail}")
                }
                Err(e) => panic!("expected a decode error, got {e}"),
                Ok(_) => panic!("a three-record result file assembled ({why})"),
            }
        }
    }

    /// A scratch path the launcher cannot write fails the launch as a typed
    /// I/O error, whether the directory itself or a shard file in it cannot
    /// be created, and leaves no scratch directory behind.
    #[test]
    fn an_unwritable_scratch_path_is_a_typed_io_error_and_leaves_nothing() {
        let g = lazygraph_graph::Dataset::RoadNetCaLike.build(0.01);
        let cfg = EngineConfig::lazygraph();
        let sssp = lazygraph_algorithms::Sssp::new(0u32);
        let root = std::env::temp_dir().join(format!("lazygraph-unwritable-{}", std::process::id()));
        // A directory where shard 1's file belongs: no file can be created
        // there, whoever runs the test.
        let blocked = root.join("blocked");
        std::fs::create_dir_all(blocked.join("shard-1.bin")).expect("scratch");
        // A regular file where the scratch directory's parent belongs.
        let file = root.join("a-file");
        std::fs::write(&file, b"").expect("a file");
        for (dir, stage) in [
            (blocked, "writing shard files"),
            (file.join("scratch"), "creating scratch dir"),
        ] {
            let launched =
                launch_from(&dir, &g, 3, &cfg, &sssp, Path::new("unused"), &MpOptions::default());
            match launched {
                Err(MultiprocError::Io(detail)) => assert!(detail.starts_with(stage), "{detail}"),
                Err(e) => panic!("expected an I/O error, got {e}"),
                Ok(_) => panic!("{} was written", dir.display()),
            }
            assert!(!dir.exists(), "{} was left behind", dir.display());
        }
        assert!(file.is_file());
        std::fs::remove_dir_all(&root).ok();
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
