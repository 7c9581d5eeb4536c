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
//! respawned worker reads its pristine shard again before it replays its
//! snapshot's structural patches onto it (DESIGN.md §12).
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

pub use lazygraph_cluster::FailPoint;
use lazygraph_cluster::StatsSnapshot;
use lazygraph_engine::lazy_block::LazyCounters;
use lazygraph_engine::{
    assemble, snapshot_tag, EngineConfig, EngineKind, MachineOut, SimBreakdown, VertexProgram,
};
use lazygraph_graph::Graph;
use lazygraph_net::{NetError, Wire, WireReader};
use lazygraph_partition::{partition_graph_with, LocalShard, PlacementShape};

/// Which vertex program a worker process should instantiate. The launcher
/// and worker agree on this enum; the generic `P` of [`run_multiprocess`]
/// must be the program type the spec names, or result decoding fails.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgoSpec {
    /// PageRank-Delta with the given flush tolerance.
    PageRank { tolerance: f64 },
    /// Single-source shortest paths from `source`.
    Sssp { source: u32 },
    /// BFS levels from `source`.
    Bfs { source: u32 },
    /// Connected components (label propagation).
    Cc,
    /// k-core decomposition.
    KCore { k: u32 },
    /// Widest path from `source`.
    Widest { source: u32 },
}

impl AlgoSpec {
    /// Report name, matching the in-process program names.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoSpec::PageRank { .. } => "pagerank",
            AlgoSpec::Sssp { .. } => "sssp",
            AlgoSpec::Bfs { .. } => "bfs",
            AlgoSpec::Cc => "cc",
            AlgoSpec::KCore { .. } => "kcore",
            AlgoSpec::Widest { .. } => "widest-path",
        }
    }
}

impl Wire for AlgoSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AlgoSpec::PageRank { tolerance } => {
                out.push(0);
                tolerance.encode(out);
            }
            AlgoSpec::Sssp { source } => {
                out.push(1);
                source.encode(out);
            }
            AlgoSpec::Bfs { source } => {
                out.push(2);
                source.encode(out);
            }
            AlgoSpec::Cc => out.push(3),
            AlgoSpec::KCore { k } => {
                out.push(4);
                k.encode(out);
            }
            AlgoSpec::Widest { source } => {
                out.push(5);
                source.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(match r.take_u8()? {
            0 => AlgoSpec::PageRank {
                tolerance: f64::decode(r)?,
            },
            1 => AlgoSpec::Sssp {
                source: u32::decode(r)?,
            },
            2 => AlgoSpec::Bfs {
                source: u32::decode(r)?,
            },
            3 => AlgoSpec::Cc,
            4 => AlgoSpec::KCore { k: u32::decode(r)? },
            5 => AlgoSpec::Widest {
                source: u32::decode(r)?,
            },
            tag => return Err(NetError::BadTag { tag, ty: "AlgoSpec" }),
        })
    }
}

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
    /// rejoin" window, in milliseconds (0 = poison immediately).
    pub rejoin_window_ms: u64,
}

impl Wire for WorkerJob {
    fn encode(&self, out: &mut Vec<u8>) {
        let WorkerJob {
            cfg,
            algo,
            shape: PlacementShape { num_machines, num_global_vertices, ev_ratio },
            data_addrs,
            ctrl_addrs,
            checkpoint_every,
            checkpoint_dir,
            rejoin_window_ms,
        } = self;
        cfg.encode(out);
        algo.encode(out);
        (*num_machines as u64).encode(out);
        (*num_global_vertices as u64).encode(out);
        ev_ratio.encode(out);
        data_addrs.encode(out);
        ctrl_addrs.encode(out);
        checkpoint_every.encode(out);
        checkpoint_dir.encode(out);
        rejoin_window_ms.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let job = WorkerJob {
            cfg: EngineConfig::decode(r)?,
            algo: AlgoSpec::decode(r)?,
            shape: PlacementShape {
                num_machines: u64::decode(r)? as usize,
                num_global_vertices: u64::decode(r)? as usize,
                ev_ratio: f64::decode(r)?,
            },
            data_addrs: Vec::<String>::decode(r)?,
            ctrl_addrs: Vec::<String>::decode(r)?,
            checkpoint_every: u64::decode(r)?,
            checkpoint_dir: String::decode(r)?,
            rejoin_window_ms: u64::decode(r)?,
        };
        // The bytes come from a file: every rank of the placement must find
        // its own address in both meshes before anything indexes by rank.
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
    }
}

/// Where machine `me`'s shard file lives: beside the job file.
pub fn shard_path(job_path: &Path, me: usize) -> PathBuf {
    job_path.with_file_name(format!("shard-{me}.bin"))
}

/// Fault-tolerance knobs for a multiprocess launch. `Default` is the
/// PR 4 behaviour: no checkpoints, no rejoin window, a dying worker
/// poisons the gang and the launch fails fast.
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
            MultiprocError::Io(detail) => write!(f, "multiprocess launcher I/O: {detail}"),
            MultiprocError::Decode(detail) => write!(f, "multiprocess codec: {detail}"),
            MultiprocError::Worker { me, detail } => {
                write!(f, "worker {me} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for MultiprocError {}

/// The assembled outcome of a multiprocess run.
pub struct MultiprocOutcome<V> {
    /// Final vertex values, indexed by global vertex id — bitwise equal
    /// to the in-process run's.
    pub values: Vec<V>,
    /// Supersteps (Sync) / coherency iterations (LazyBlockAsync).
    pub iterations: u64,
    pub converged: bool,
    /// Final simulated time (max across workers).
    pub sim_time: f64,
    /// Lazy-engine counters (all zero for the Sync engine).
    pub counters: LazyCounters,
    /// Element-wise sum of all workers' `NetStats` snapshots. Wire byte
    /// counters are *measured* frame bytes — every exchange crossed a
    /// real socket.
    pub stats: StatsSnapshot,
    /// Each worker's own snapshot, indexed by machine.
    pub per_worker_stats: Vec<StatsSnapshot>,
    /// Worker 0's simulated-time breakdown (the only recorder).
    pub breakdown: SimBreakdown,
    /// Size of the `job.bin` the launcher wrote.
    pub job_bytes: u64,
    /// Size of each machine's shard file, indexed by machine.
    pub shard_bytes: Vec<u64>,
    /// How long the launcher's one placement took.
    pub partition_time: Duration,
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

/// Runs `spec` on `graph` across `num_machines` worker **processes**
/// connected by framed TCP over loopback. `P` must be the program type
/// `spec` names (e.g. `Sssp` for [`AlgoSpec::Sssp`]); `worker_bin` is the
/// path to the `lazygraph-worker` binary.
///
/// `cfg.transport` is ignored — a multiprocess run is TCP by definition.
pub fn run_multiprocess<P: VertexProgram>(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    spec: &AlgoSpec,
    worker_bin: &Path,
) -> Result<MultiprocOutcome<P::VData>, MultiprocError> {
    run_multiprocess_with::<P>(graph, num_machines, cfg, spec, worker_bin, &MpOptions::default())
}

/// [`run_multiprocess`] with fault-tolerance options: periodic worker
/// checkpoints, a rejoin window on every mesh link, and a launcher-side
/// respawn policy — a crashed worker is restarted with `--resume`, loads
/// its latest snapshot, rejoins the mesh, and the run completes with
/// results bitwise-identical to an undisturbed run (DESIGN.md §12).
pub fn run_multiprocess_with<P: VertexProgram>(
    graph: &Graph,
    num_machines: usize,
    cfg: &EngineConfig,
    spec: &AlgoSpec,
    worker_bin: &Path,
    opts: &MpOptions,
) -> Result<MultiprocOutcome<P::VData>, MultiprocError> {
    if !multiproc_supported(cfg.engine) {
        return Err(MultiprocError::UnsupportedEngine(cfg.engine.name()));
    }
    let n = num_machines.max(1);
    let started = Instant::now();
    // Only the shards outlive this block; the placement's replica table
    // is the launcher's to drop.
    let (shape, shards) = {
        let dg = partition_graph_with(
            graph,
            n,
            cfg.partition,
            &cfg.splitter,
            &cfg.hub_fanout,
            cfg.bidirectional,
        );
        (dg.shape(), dg.shards)
    };
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
        algo: spec.clone(),
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
        let result_files = launch_in(&dir, &job, worker_bin, opts)?;
        assemble_outcome::<P>(&job, result_files, job_bytes, shard_bytes, partition_time)
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
    // peers as a transport error (shutdown handshake / poisoned readers),
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
/// SimBreakdown`) and folds the machine outcomes with the in-process
/// rules.
fn assemble_outcome<P: VertexProgram>(
    job: &WorkerJob,
    result_files: Vec<Vec<u8>>,
    job_bytes: u64,
    shard_bytes: Vec<u64>,
    partition_time: Duration,
) -> Result<MultiprocOutcome<P::VData>, MultiprocError> {
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
    let outcome = assemble(outs, job.cfg.engine, job.shape.num_global_vertices);
    Ok(MultiprocOutcome {
        values: outcome.values,
        iterations: outcome.iterations,
        converged: outcome.converged,
        sim_time: outcome.sim_time,
        counters: outcome.counters,
        stats: merged,
        per_worker_stats,
        breakdown,
        job_bytes,
        shard_bytes,
        partition_time,
    })
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
