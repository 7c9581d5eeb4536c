//! `pr-social-mp`: the `pr-social` graph through `lazygraph-cli run
//! --multiprocess`, one OS process per machine over a loopback TCP mesh.
//!
//! The timed region is the whole CLI process — load, job file, four
//! workers each rebuilding and re-partitioning the graph, mesh connect,
//! the run with a checkpoint every 5 coherency points, collection — since
//! a user pays all of it on every run.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use lazygraph_algorithms::PageRankDelta;
use lazygraph_engine::TransportKind;
use lazygraph_graph::io as graph_io;

use crate::stats::{fnv1a, vm_hwm_mb, Metrics};
use crate::trace::Tracer;
use crate::workloads::{
    configs, generate_graph, max_rel_err, one_machine, oracle_problems, put_end_to_end,
    put_engine_layers, traced_layers, Bench, Run, Verdict, ENGINES,
};
use crate::{Opts, Scratch, MACHINES};

type Algo = PageRankDelta;

const CHECKPOINT_EVERY: &str = "5";
/// How often the CLI is polled for exit, and how many polls pass between
/// two `/proc` memory samples (20 ms).
const POLL: Duration = Duration::from_millis(5);
const POLLS_PER_SAMPLE: u32 = 4;

/// Builds `lazygraph-cli` and `lazygraph-worker` from the checkout the
/// harness runs in, into the directory cargo already builds the harness in.
fn build_cli() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() {
        return Err("no Cargo.toml here: run lazybench from the repository root".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("lazybench/target"), PathBuf::from);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--bin",
            "lazygraph-cli",
            "--bin",
            "lazygraph-worker",
            "--target-dir",
        ])
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building lazygraph-cli: cargo {status}"));
    }
    std::path::absolute(target.join("release/lazygraph-cli")).map_err(|e| e.to_string())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--multiprocess --checkpoint-every 5`: the workload itself.
    Checkpointed,
    /// `--multiprocess` alone: what checkpointing adds is the difference.
    Multiprocess,
    /// `--transport tcp`: the same wire inside one process, so what
    /// process start-up adds is the difference.
    ThreadedTcp,
}

/// The built CLI and the directory its runs read and write in.
struct Cli {
    bin: PathBuf,
    scratch: Scratch,
}

/// One finished CLI process.
struct CliRun {
    wall_s: f64,
    stdout: String,
    values_path: PathBuf,
    /// Sum over the process tree of each process's last `VmHWM`.
    tree_rss_mb: f64,
    worker_peak_rss_mb: f64,
}

/// Parent pid of `pid`, from `/proc/<pid>/stat` (the field after the
/// parenthesised command name and the state).
fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| parent_of(pid) == Some(parent))
        .collect()
}

impl Cli {
    fn prepare() -> Result<Cli, String> {
        Ok(Cli {
            bin: build_cli()?,
            scratch: Scratch::create()?,
        })
    }

    /// Where the workload's graph is saved for the CLI to load.
    fn edge_list(&self) -> PathBuf {
        self.scratch.path("graph.el")
    }

    fn run(&self, tr: &mut Tracer, engine: &str, mode: Mode) -> Result<CliRun, String> {
        let values_path = self.scratch.path(&format!("values-{engine}.txt"));
        let stdout_path = self.scratch.path("cli-stdout.txt");
        let stdout = File::create(&stdout_path).map_err(|e| e.to_string())?;
        let machines = MACHINES.to_string();
        let mut cmd = Command::new(&self.bin);
        cmd.args(["run", "--algorithm", Algo::CLI_NAME, "--engine", engine])
            .args(["--machines", &machines, "--threads", "1", "--input"])
            .arg(self.edge_list())
            .arg("--output")
            .arg(&values_path);
        match mode {
            Mode::Checkpointed => {
                cmd.args(["--multiprocess", "--checkpoint-every", CHECKPOINT_EVERY]);
            }
            Mode::Multiprocess => {
                cmd.arg("--multiprocess");
            }
            Mode::ThreadedTcp => {
                cmd.args(["--transport", "tcp"]);
            }
        }
        // The launcher keeps its job file and checkpoints under the
        // system temp dir; keep them inside the checkout.
        cmd.env("TMPDIR", self.scratch.dir())
            .env_remove("LAZYGRAPH_THREADS")
            .env_remove("RAYON_NUM_THREADS")
            .stdin(Stdio::null())
            .stdout(stdout);

        let label = match mode {
            Mode::Checkpointed => format!("mp.cli.{engine}"),
            Mode::Multiprocess => format!("mp.cli.{engine}.no-checkpoint"),
            Mode::ThreadedTcp => format!("mp.cli.{engine}.threaded-tcp"),
        };
        let open = tr.begin(&label);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", self.bin.display()))?;
        let cli_pid = child.id();
        let mut workers: Vec<u32> = Vec::new();
        let mut last_hwm: BTreeMap<u32, f64> = BTreeMap::new();
        let mut polls = 0u32;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    // Never leave the CLI (and its workers) running.
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{label}: waiting for lazygraph-cli: {e}"));
                }
            }
            if polls.is_multiple_of(POLLS_PER_SAMPLE) {
                if mode != Mode::ThreadedTcp && workers.len() < MACHINES {
                    workers = children_of(cli_pid);
                }
                for &pid in workers.iter().chain([&cli_pid]) {
                    if let Some(mb) = vm_hwm_mb(pid) {
                        last_hwm.insert(pid, mb);
                    }
                }
            }
            polls += 1;
            std::thread::sleep(POLL);
        };
        let wall_s = tr.end(open);
        let stdout = std::fs::read_to_string(&stdout_path).map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("{label}: lazygraph-cli {status}\n{stdout}"));
        }
        Ok(CliRun {
            wall_s,
            stdout,
            values_path,
            tree_rss_mb: last_hwm.values().sum(),
            worker_peak_rss_mb: workers
                .iter()
                .filter_map(|pid| last_hwm.get(pid))
                .fold(0.0, |a, &b| a.max(b)),
        })
    }
}

/// The number printed right after `key` in the CLI's report.
fn number_after(text: &str, key: &str) -> Result<f64, String> {
    let rest = &text[text
        .find(key)
        .ok_or_else(|| format!("no '{key}' in CLI output"))?
        + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("no number after '{key}' in CLI output"))
}

/// Identity of a list of ranks as `--output` prints them, one per line.
fn digest_of(ranks_as_text: impl Iterator<Item = String>) -> u64 {
    fnv1a(ranks_as_text.flat_map(|text| (text + "\n").into_bytes()))
}

/// Checks one checkpointed multiprocess run against the oracle.
fn check_cli_run(cli: &CliRun, truth: &[f64]) -> Result<(Run, Vec<String>), String> {
    let path = &cli.values_path;
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // `vertex<TAB>rank` per line, the rank as `%.6f`.
    let texts = || {
        body.lines()
            .map(|line| line.split_once('\t').map_or(line, |(_, rank)| rank))
    };
    let ranks: Result<Vec<f64>, _> = texts().map(str::parse::<f64>).collect();
    let ranks = ranks.map_err(|e| format!("{}: {e}", path.display()))?;
    let run = Run {
        wall_s: cli.wall_s,
        sim_s: number_after(&cli.stdout, "sim_time ")?,
        traffic_bytes: number_after(&cli.stdout, ", est ")? as u64,
        digest: digest_of(texts().map(str::to_string)),
        rel_err: max_rel_err(ranks.iter().copied(), truth),
    };
    let mut problems = oracle_problems::<Algo>(cli.stdout.contains("converged=true"), run.rel_err);
    if ranks.len() != truth.len() {
        problems.push(format!(
            "{} values for {} vertices",
            ranks.len(),
            truth.len()
        ));
    }
    Ok((run, problems))
}

pub fn untraced(
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let cli = Cli::prepare()?;

    let mut setup_s = Vec::new();
    let mut truth = None;
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut tree_rss_mb = 0.0f64;
    let mut measured_s = 0.0;
    while measured_s < opts.seconds {
        let mut unused = Metrics::default();
        let open = tr.begin("setup");
        let graph = generate_graph::<Algo>(tr, opts.seed, &mut unused);
        graph_io::save_edge_list(&graph, cli.edge_list())
            .map_err(|e| format!("saving graph: {e}"))?;
        setup_s.push(tr.end(open));
        drop(graph);
        if truth.is_none() {
            // The oracle sees the graph as the CLI does: read back from the
            // file (which drops trailing isolated vertices).
            let loaded =
                graph_io::load_edge_list(cli.edge_list(), None).map_err(|e| e.to_string())?;
            truth = Some(Algo::truth(&loaded));
        }
        let truth = truth.as_deref().expect("computed in the first round");
        for e in 0..2 {
            let done = cli.run(tr, ENGINES[e], Mode::Checkpointed)?;
            measured_s += done.wall_s;
            tree_rss_mb = tree_rss_mb.max(done.tree_rss_mb);
            let (run, problems) = check_cli_run(&done, truth)?;
            verdict.record(&format!("pr-social-mp mp.cli.{}", ENGINES[e]), problems);
            runs[e].push(run);
        }
    }
    put_end_to_end(out, &setup_s, &runs, tree_rss_mb);
    Ok(())
}

pub fn traced(
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let cli = Cli::prepare()?;
    let (graph, placed) = traced_layers::<Algo>(opts, tr, out, &cli.edge_list(), true)?;
    let (truth, oracle_s) = tr.span("algorithms.oracle", || Algo::truth(&graph));
    out.put("algorithms.oracle_s", oracle_s, "s");
    let m1 = one_machine::<Algo>(tr, &graph, verdict, &truth)?;

    // The same placement on threaded TCP is what every worker computes,
    // so it yields the counters the CLI does not print and the values the
    // CLI must print.
    let mut cfgs = configs(TransportKind::Tcp);
    let mut worst_err = 0.0f64;
    let mut lazy_checkpointed_s = 0.0;
    for e in 0..2 {
        let engine = ENGINES[e];
        cfgs[e].record_history = true;
        let label = format!("engine.{engine}.run_on.traced");
        let (result, _) = tr.span(&label, || {
            lazygraph_engine::run_on(&placed[e], &cfgs[e], &Algo::program())
        });
        let result = result.map_err(|e| format!("{label}: {e}"))?;
        let expected = digest_of(result.values.iter().map(|v| format!("{:.6}", v.rank)));

        let done = cli.run(tr, engine, Mode::Checkpointed)?;
        let (run, mut problems) = check_cli_run(&done, &truth)?;
        worst_err = worst_err.max(run.rel_err);
        if run.digest != expected {
            problems.push("--output differs from the in-process values".into());
        }
        if format!("{:.4}", run.sim_s) != format!("{:.4}", result.metrics.sim_time) {
            problems.push(format!(
                "sim_time {} vs in-process {}",
                run.sim_s, result.metrics.sim_time
            ));
        }
        // The control mesh's collectives are counted on the multiprocess
        // path and free on the shared-memory one, so the estimate may
        // exceed the in-process one, by well under a thousandth.
        let inproc_bytes = result.metrics.traffic_bytes();
        if run.traffic_bytes < inproc_bytes
            || run.traffic_bytes - inproc_bytes > inproc_bytes / 1000
        {
            problems.push(format!(
                "est {} B vs in-process {inproc_bytes} B",
                run.traffic_bytes
            ));
        }
        verdict.record(&format!("pr-social-mp mp.cli.{engine}"), problems);
        put_engine_layers(out, engine, &result.metrics, run.wall_s, m1[e]);

        if e == 0 {
            lazy_checkpointed_s = done.wall_s;
            out.put(
                "mp.snapshot_bytes",
                number_after(&done.stdout, "recovery: ")?,
                "bytes",
            );
            out.put(
                "mp.wire_bytes",
                number_after(&done.stdout, ", wire ")?,
                "bytes",
            );
            out.put(
                "mp.wire_frames",
                number_after(&done.stdout, "sent / ")?,
                "count",
            );
            out.put("mp.worker_peak_rss_mb", done.worker_peak_rss_mb, "MiB");
        }
    }
    out.put("algorithms.max_rel_err", worst_err, "ratio");

    let plain = cli.run(tr, ENGINES[0], Mode::Multiprocess)?;
    let threaded = cli.run(tr, ENGINES[0], Mode::ThreadedTcp)?;
    verdict.attempted += 2;
    out.put("mp.startup_s", plain.wall_s - threaded.wall_s, "s");
    out.put(
        "mp.ckpt_overhead_s",
        lazy_checkpointed_s - plain.wall_s,
        "s",
    );
    // Spans here are the harness's own; the CLI path has no traced variant
    // to compare against until ROADMAP item 4.
    out.put("trace.overhead_frac", 0.0, "ratio");
    Ok(())
}
