//! One machine of a multiprocess run (DESIGN.md §10).
//!
//! Spawned by [`lazygraph::multiproc::run_multiprocess`] (or the CLI's
//! `--multiprocess` flag) as `lazygraph-worker --job J --me I --out R`:
//! decodes the Wire-encoded [`WorkerJob`] and the one shard file the
//! launcher wrote for rank I beside it — the only part of the graph this
//! process ever holds — checks the shard against the job's placement
//! shape, drops the file bytes, joins the control and data TCP meshes
//! over loopback, runs its machine through the shared `run_mesh_engine`
//! entry, and writes its Wire-encoded result — `MachineOut ++
//! StatsSnapshot`: its master values, counters, simulated-time breakdown
//! and per-round trace, then its `NetStats` — to the output path. A
//! `--resume` respawn reads the same shard file: nothing a run does
//! changes a shard.
//!
//! Exit status 0 means the result file is complete; any failure prints to
//! stderr and exits 1, which the launcher surfaces as
//! `MultiprocError::Worker`. A worker dying mid-run tears its peers'
//! mesh legs, so the whole gang fails fast instead of hanging.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lazygraph::multiproc::{load_shard, Shipped, WorkerJob};
use lazygraph_algorithms::Visitor;
use lazygraph_cluster::{
    connect_tcp_endpoint, reconnect_tcp_endpoint, CommError, Endpoint, NetStats,
};
use lazygraph_engine::checkpoint::{CheckpointError, RecoveryCfg, SnapshotHeader, SnapshotStore};
use lazygraph_engine::{run_mesh_engine, Attach, Seat};
use lazygraph_net::{TcpOptions, Wire};
use lazygraph_partition::LocalShard;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lazygraph-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    job: PathBuf,
    me: usize,
    out: PathBuf,
    /// Rejoin an already-running gang: open the latest valid snapshot (if
    /// any), reconnect both meshes at the round watermarks its header
    /// records, and replay forward (DESIGN.md §12).
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut job = None;
    let mut me = None;
    let mut out = None;
    let mut resume = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--job" => job = Some(PathBuf::from(val()?)),
            "--me" => {
                me = Some(
                    val()?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --me: {e}"))?,
                )
            }
            "--out" => out = Some(PathBuf::from(val()?)),
            "--resume" => resume = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        job: job.ok_or("missing --job")?,
        me: me.ok_or("missing --me")?,
        out: out.ok_or("missing --out")?,
        resume,
    })
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    // A fail point this process cannot parse would never fire: refuse to
    // start rather than let a chaos run pass with nothing injected.
    if let Err(e) = lazygraph_cluster::armed_failpoint() {
        return Err(e.clone());
    }
    let job = WorkerJob::read(&args.job).map_err(|e| e.to_string())?;
    if args.me >= job.shape.num_machines {
        return Err(format!(
            "--me {} out of range for {} machines",
            args.me, job.shape.num_machines
        ));
    }
    job.algo.dispatch(Worker { job: &job, args })
}

fn parse_addrs(addrs: &[String]) -> Result<Vec<SocketAddr>, String> {
    addrs
        .iter()
        .map(|a| a.parse().map_err(|e| format!("bad mesh address {a}: {e}")))
        .collect()
}

/// This worker's seat: the shard it loaded and its legs of the control
/// and data meshes, connected fresh, or — for a resumed worker —
/// reconnected at the snapshot's two round watermarks (no snapshot,
/// crashed before the first checkpoint, means a fresh start at watermark
/// 0; peers still hold their full replay logs in that case, because log
/// pruning only ever happens at a completed checkpoint barrier).
struct WorkerSeat<'a> {
    me: usize,
    shard: &'a LocalShard,
    ctrl_addrs: &'a [SocketAddr],
    data_addrs: &'a [SocketAddr],
    opts: &'a TcpOptions,
    resume: bool,
    recovery: RecoveryCfg,
}

impl WorkerSeat<'_> {
    /// This worker's leg of the mesh at `addrs`; a resumed worker rejoins
    /// it at the round `watermark` reads off the snapshot header.
    fn join<T: Wire + Send + 'static>(
        &self,
        addrs: &[SocketAddr],
        watermark: impl Fn(&SnapshotHeader) -> u64,
        stats: &Arc<NetStats>,
    ) -> Result<Endpoint<T>, CommError> {
        if self.resume {
            let round = self.recovery.resume.as_ref().map_or(0, |s| watermark(s.header()));
            reconnect_tcp_endpoint::<T>(self.me, addrs, round, stats, self.opts)
        } else {
            connect_tcp_endpoint::<T>(self.me, addrs, stats, self.opts)
        }
    }
}

impl<'a> Attach<'a> for WorkerSeat<'a> {
    fn attach<T: Wire + Send + 'static>(
        self,
        stats: &Arc<NetStats>,
    ) -> Result<Vec<Seat<'a, T>>, CommError> {
        // Mesh establishment order is part of the protocol: every worker
        // joins the control mesh first, then the engine-typed data mesh.
        let ctrl = self.join::<u8>(self.ctrl_addrs, |h| h.ctrl_round, stats)?;
        let ep = self.join::<T>(self.data_addrs, |h| h.data_round, stats)?;
        Ok(vec![Seat {
            me: self.me,
            shard: self.shard,
            ctrl,
            ep,
            recovery: self.recovery,
        }])
    }
}

/// This process's part of the job, waiting for the table to hand it the
/// program the job names.
struct Worker<'a> {
    job: &'a WorkerJob,
    args: Args,
}

impl Visitor for Worker<'_> {
    type Out = Result<(), String>;

    fn visit<P: Shipped>(self, program: P) -> Result<(), String> {
        run_worker(self.job, self.args, program)
    }
}

/// Runs this worker's machine and writes the result file.
fn run_worker<P: Shipped>(job: &WorkerJob, args: Args, program: P) -> Result<(), String> {
    let me = args.me;
    let cfg = &job.cfg;
    let data_addrs = parse_addrs(&job.data_addrs)?;
    let ctrl_addrs = parse_addrs(&job.ctrl_addrs)?;
    // The only part of the graph this process holds; its file bytes are
    // dropped before a mesh is dialled.
    let shard = load_shard(&args.job, me, &job.shape).map_err(|e| e.to_string())?;

    let stats = Arc::new(NetStats::default());
    let recovery_on = job.checkpoint_every > 0 && !job.checkpoint_dir.is_empty();
    let mut opts = TcpOptions::default();
    if recovery_on && job.rejoin_window_ms > 0 {
        opts.rejoin_window = Some(std::time::Duration::from_millis(job.rejoin_window_ms));
    }
    let store = recovery_on.then(|| SnapshotStore::new(&job.checkpoint_dir, me));
    // Only the header is read here — the watermarks are all the meshes
    // need; the arrays stay in the open file until the machine loop has
    // built the state they stream into.
    let snapshot = if args.resume {
        let store = store.as_ref().ok_or("--resume without checkpointing configured")?;
        let skipped = |path: &std::path::Path, why: &CheckpointError| {
            let name = path.file_name().unwrap_or(path.as_os_str());
            eprintln!("worker {me}: skipping {}: {why}", name.to_string_lossy());
        };
        store.open_latest(skipped).map_err(|e| format!("loading snapshot: {e}"))?
    } else {
        None
    };
    let seat = WorkerSeat {
        me,
        shard: &shard,
        ctrl_addrs: &ctrl_addrs,
        data_addrs: &data_addrs,
        opts: &opts,
        resume: args.resume,
        recovery: RecoveryCfg {
            every: job.checkpoint_every,
            store,
            resume: snapshot,
        },
    };
    let out = run_mesh_engine(&job.shape, cfg, &program, seat, &stats)
        .map_err(|e| format!("{} machine {me}: {e}", cfg.engine.name()))?
        .pop()
        .ok_or("the engine returned no machine outcome")?;
    if std::env::var_os("LAZYGRAPH_MP_DEBUG").is_some() {
        eprintln!(
            "worker {me}: iters={} converged={} counters={:?}",
            out.iterations, out.converged, out.counters
        );
    }

    // Result file layout: MachineOut ++ StatsSnapshot. The machine loop
    // has returned, so both of its legs are closed: every frame this
    // worker sent, its Shutdown frames included, is counted.
    let mut result = out.to_wire();
    stats.snapshot().encode(&mut result);
    std::fs::write(&args.out, &result)
        .map_err(|e| format!("writing result {}: {e}", args.out.display()))?;
    Ok(())
}
