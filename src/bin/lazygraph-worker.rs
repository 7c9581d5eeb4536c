//! One machine of a multiprocess run (DESIGN.md §10).
//!
//! Spawned by [`lazygraph::multiproc::run_multiprocess`] (or the CLI's
//! `--multiprocess` flag) as `lazygraph-worker --job J --me I --out R`:
//! decodes the Wire-encoded [`WorkerJob`] and the one shard file the
//! launcher wrote for rank I beside it — the only part of the graph this
//! process ever holds — checks the shard against the job's placement
//! shape, drops the file bytes, joins the run's TCP mesh over loopback,
//! runs its machine through the shared `run_mesh_engine` entry, and
//! writes its Wire-encoded result — one `MachineOut`: its master values,
//! simulated-time breakdown, per-round trace and `NetStats` snapshot — to
//! the output path. A
//! restarted gang's worker, started with `--resume G`, reads the same
//! shard file — nothing a run does changes a shard — and its snapshot of
//! generation `G`, and joins a fresh mesh like any other start.
//!
//! Exit status 0 means the result file is complete; any failure prints to
//! stderr and exits 1, which the launcher surfaces as
//! `MultiprocError::Worker`. A worker dying mid-run tears its peers'
//! links to it, so the whole gang fails fast instead of hanging.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lazygraph::multiproc::{load_shard, Shipped, WorkerJob};
use lazygraph_algorithms::Visitor;
use lazygraph_cluster::{connect_tcp_endpoint, CommError, NetStats};
use lazygraph_engine::checkpoint::{RecoveryCfg, SnapshotStore};
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
    /// Start from snapshot generation `G` — the one the launcher chose
    /// for the restarted gang (DESIGN.md §12).
    resume: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut job = None;
    let mut me = None;
    let mut out = None;
    let mut resume = None;
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
            "--resume" => {
                resume = Some(
                    val()?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --resume: {e}"))?,
                )
            }
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

/// This worker's seat: the shard it loaded, its endpoint of the mesh —
/// always connected fresh, at round 0 — and its checkpoint/resume
/// configuration.
struct WorkerSeat<'a> {
    me: usize,
    shard: &'a LocalShard,
    data_addrs: &'a [SocketAddr],
    recovery: RecoveryCfg,
}

impl<'a> Attach<'a> for WorkerSeat<'a> {
    fn attach<T: Wire + Send + 'static>(self) -> Result<Vec<Seat<'a, T>>, CommError> {
        let stats = Arc::new(NetStats::new());
        let opts = TcpOptions::default();
        let ep = connect_tcp_endpoint::<T>(self.me, self.data_addrs, &stats, &opts)?;
        Ok(vec![Seat {
            me: self.me,
            shard: self.shard,
            ep,
            stats,
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
    // The only part of the graph this process holds; its file bytes are
    // dropped before a mesh is dialled.
    let shard = load_shard(&args.job, me, &job.shape).map_err(|e| e.to_string())?;

    let store = (job.checkpoint_every > 0).then(|| SnapshotStore::new(&job.checkpoint_dir, me));
    // Only the header is read here; the arrays stay in the open file until
    // the machine loop has built the state they stream into.
    let snapshot = match args.resume {
        Some(generation) => {
            let store = store.as_ref().ok_or("--resume without checkpointing configured")?;
            let opened = store.open_at(generation);
            Some(opened.map_err(|e| format!("loading snapshot {generation}: {e}"))?)
        }
        None => None,
    };
    let seat = WorkerSeat {
        me,
        shard: &shard,
        data_addrs: &data_addrs,
        recovery: RecoveryCfg {
            every: job.checkpoint_every,
            store,
            resume: snapshot,
        },
    };
    let out = run_mesh_engine(&job.shape, cfg, &program, seat)
        .map_err(|e| format!("{} machine {me}: {e}", cfg.engine.name()))?
        .pop()
        .ok_or("the engine returned no machine outcome")?;
    if std::env::var_os("LAZYGRAPH_MP_DEBUG").is_some() {
        eprintln!(
            "worker {me}: iters={} converged={} counters={:?}",
            out.iterations, out.converged, out.stats
        );
    }

    // The result file is the machine's outcome, whose counters were
    // snapshotted after its endpoint closed: every frame this worker
    // sent, its Shutdown frames included, is counted.
    std::fs::write(&args.out, out.to_wire())
        .map_err(|e| format!("writing result {}: {e}", args.out.display()))?;
    Ok(())
}
