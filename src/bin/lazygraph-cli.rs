//! `lazygraph-cli` — run LazyGraph algorithms on graph files or built-in
//! dataset analogues from the command line.
//!
//! ```text
//! lazygraph-cli run  --input <file.el|file.mtx|file.lzg|dataset:NAME> --algorithm sssp
//!                    [--engine lazy|sync|async|lazy-vertex|hybrid|delta] [--machines 8]
//!                    [--partition coordinated|random|grid|hybrid|adversarial-hubs]
//!                    [--hub-fanout N] [--hub-degree-threshold D]
//!                    [--delta-buckets 16] [--delta-tolerance 1e-3]
//!                    [--source 0] [--k 3] [--tolerance 1e-3] [--scale 0.1]
//!                    [--threads N] [--block-size 1024]
//!                    [--transport inproc|tcp] [--multiprocess]
//!                    [--checkpoint-every K] [--rejoin-window-ms MS] [--respawn-budget N]
//!                    [--failpoint RANK:superstep:N|RANK:send:ROUND:N|RANK:ckpt:ITER:CHUNK]
//!                    [--symmetrize] [--weights LO:HI] [--output values.txt]
//! lazygraph-cli info --input <...> [--machines 48] [--scale 0.1]
//!                    [--partition ...] [--hub-fanout N] [--hub-degree-threshold D]
//!                    [--symmetrize] [--weights LO:HI] [--bidirectional]
//! lazygraph-cli generate --kind rmat|road|web|social --vertices N --out FILE
//! ```
//!
//! `generate` picks the format by `--out`'s extension — `.mtx` Matrix
//! Market, `.lzg` the binary format, anything else a text edge list —
//! and `--input` recognises a binary file by its `LZGRAPH1` magic, whatever
//! it is called.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::exit;

use lazygraph::multiproc::{
    check_recovery, run_multiprocess, AlgoSpec, FailPoint, LaunchReport, MpOptions, Shipped,
};
use lazygraph::prelude::*;
use lazygraph_algorithms::{reference, Visitor};
use lazygraph_engine::{place, TransportKind};
use lazygraph_graph::generators::{grid2d, rmat, web_crawl, Grid2dConfig, RmatConfig, WebCrawlConfig};
use lazygraph_graph::{graph_stats, io as gio, mtx, Dataset};
use lazygraph_partition::MAX_MACHINES;

fn usage() -> ! {
    eprintln!(
        "usage:\n  lazygraph-cli run --input <file|dataset:NAME> --algorithm <{}> [options]\n  \
         lazygraph-cli info --input <file|dataset:NAME>\n  \
         lazygraph-cli generate --kind <rmat|road|web|social> --vertices N --out FILE\n\
         datasets: uk2005 web-google road-usa roadnet-ca twitter livejournal enwiki youtube",
        AlgoSpec::CLI_NAMES.join("|")
    );
    exit(2);
}

/// Prints a one-line diagnostic and exits with the usage-error status.
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// Prints the one line of a run that could not start or did not finish and
/// exits with the failure status.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{what}: {e}");
    exit(1);
}

/// `println!` for the report: a reader that went away (`| head -1`)
/// silences the rest of it but not the run, which still writes `--output`
/// and exits 0. Any other stdout error fails the run.
macro_rules! say {
    ($($line:tt)*) => {
        match writeln!(std::io::stdout(), $($line)*) {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                fail("cannot write to stdout", e)
            }
            _ => {}
        }
    };
}

/// Options of `run` and `info` (which shares the input and placement ones)
/// that take a value.
const RUN_VALUES: &[&str] = &[
    "input", "algorithm", "engine", "machines", "partition", "hub-fanout",
    "hub-degree-threshold", "delta-buckets", "delta-tolerance", "source", "k", "tolerance",
    "scale", "threads", "block-size", "transport", "weights", "output", "checkpoint-every",
    "rejoin-window-ms", "respawn-budget", "failpoint",
];
/// Boolean flags of `run` and `info`.
const RUN_FLAGS: &[&str] = &["multiprocess", "symmetrize", "bidirectional"];
/// The fault-tolerance family only the multiprocess launcher honours.
const MULTIPROCESS_ONLY: &[&str] =
    &["checkpoint-every", "rejoin-window-ms", "respawn-budget", "failpoint"];
/// The part of that family with nothing to act on without checkpoints.
const CHECKPOINT_ONLY: &[&str] = &["rejoin-window-ms", "respawn-budget", "failpoint"];
const GENERATE_VALUES: &[&str] = &["kind", "vertices", "out", "seed"];

struct Opts {
    values: std::collections::HashMap<String, String>,
    flags: std::collections::HashSet<String>,
}

impl Opts {
    /// Strict parse: every argument is `--flag` or `--option VALUE` from
    /// the subcommand's tables; anything else is a usage error, never
    /// silently ignored.
    fn parse(args: &[String], value_opts: &[&str], flag_opts: &[&str]) -> Opts {
        let mut values = std::collections::HashMap::new();
        let mut flags = std::collections::HashSet::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                die(&format!("unexpected argument {a}"));
            };
            if flag_opts.contains(&key) {
                flags.insert(key.to_string());
            } else if value_opts.contains(&key) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => values.insert(key.to_string(), v.clone()),
                    _ => die(&format!("--{key}: missing value")),
                };
            } else {
                die(&format!("unknown option --{key}"));
            }
        }
        Opts { values, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("--{key}: cannot parse {v}"))),
            None => default,
        }
    }
}

/// `--machines N` (or the subcommand's default): a count the replica masks
/// can hold, or a usage error — on `run` and `info`, both routes.
fn machine_count(opts: &Opts, default: usize) -> usize {
    let machines: usize = opts.parse_num("machines", default);
    if !(1..=MAX_MACHINES).contains(&machines) {
        die(&format!("--machines: {machines} is outside 1..={MAX_MACHINES}"));
    }
    machines
}

fn dataset_by_name(name: &str) -> Option<Dataset> {
    Some(match name.to_ascii_lowercase().as_str() {
        "uk2005" | "uk-2005" => Dataset::Uk2005Like,
        "web-google" | "google" => Dataset::WebGoogleLike,
        "road-usa" | "roadusa" => Dataset::RoadUsaLike,
        "roadnet-ca" | "roadnet" => Dataset::RoadNetCaLike,
        "twitter" => Dataset::TwitterLike,
        "livejournal" | "lj" => Dataset::LiveJournalLike,
        "enwiki" | "wiki" => Dataset::EnwikiLike,
        "youtube" | "com-youtube" => Dataset::ComYoutubeLike,
        _ => return None,
    })
}

/// `--weights LO:HI`: two numbers with `LO < HI`, or a usage error.
fn weight_range(opts: &Opts) -> Option<(f32, f32)> {
    let spec = opts.get("weights")?;
    let range = spec
        .split_once(':')
        .and_then(|(lo, hi)| Some((lo.parse::<f32>().ok()?, hi.parse::<f32>().ok()?)));
    match range {
        Some((lo, hi)) if lo < hi => Some((lo, hi)),
        _ => die(&format!("--weights: {spec} is not LO:HI with LO < HI")),
    }
}

fn load_input(opts: &Opts) -> Graph {
    let input = opts.get("input").unwrap_or_else(|| usage());
    let weights = weight_range(opts);
    let scale: f64 = opts.parse_num("scale", 0.1);
    let mut graph = if let Some(name) = input.strip_prefix("dataset:") {
        let ds = dataset_by_name(name).unwrap_or_else(|| {
            eprintln!("unknown dataset {name}");
            usage();
        });
        if opts.flags.contains("symmetrize") {
            ds.build_symmetric(scale)
        } else {
            ds.build(scale)
        }
    } else {
        let loaded = if input.ends_with(".mtx") {
            mtx::load_matrix_market(input)
        } else if gio::is_binary(input) {
            gio::load_binary(input)
        } else {
            gio::load_edge_list(input, None)
        };
        loaded.unwrap_or_else(|e| fail(&format!("failed to load {input}"), e))
    };
    let needs_symmetrize =
        opts.flags.contains("symmetrize") && !graph.is_symmetric();
    if needs_symmetrize || weights.is_some() {
        let mut b = GraphBuilder::new(graph.num_vertices());
        b.extend(graph.edges());
        if needs_symmetrize {
            b.symmetrize();
        }
        if let Some((lo, hi)) = weights {
            b.randomize_weights(lo, hi, 0xC11);
        }
        graph = b.build();
    }
    graph
}

fn engine_config(opts: &Opts) -> EngineConfig {
    let engine = match opts.get_or("engine", "lazy").as_str() {
        "lazy" | "lazy-block" => EngineKind::LazyBlockAsync,
        "sync" | "powergraph-sync" => EngineKind::PowerGraphSync,
        "async" | "powergraph-async" => EngineKind::PowerGraphAsync,
        "lazy-vertex" => EngineKind::LazyVertexAsync,
        "hybrid" | "powerswitch" => EngineKind::PowerSwitchHybrid,
        "delta" | "delta-accum" => EngineKind::DeltaAccum,
        other => {
            eprintln!("unknown engine {other}");
            usage();
        }
    };
    let partition = match opts.get_or("partition", "coordinated").as_str() {
        "coordinated" => PartitionStrategy::Coordinated,
        "random" => PartitionStrategy::Random,
        "grid" => PartitionStrategy::Grid,
        "hybrid" => PartitionStrategy::Hybrid,
        "adversarial-hubs" => PartitionStrategy::AdversarialHubs,
        other => {
            eprintln!("unknown partition strategy {other}");
            usage();
        }
    };
    let mut cfg = EngineConfig::lazygraph()
        .with_engine(engine)
        .with_partition(partition)
        .with_bidirectional(opts.flags.contains("bidirectional"))
        .with_threads(opts.parse_num("threads", 0usize))
        .with_block_size(opts.parse_num("block-size", lazygraph_engine::DEFAULT_BLOCK_SIZE));
    if opts.get("delta-buckets").is_some() {
        cfg = cfg.with_delta_buckets(opts.parse_num("delta-buckets", 0usize));
    }
    if opts.get("delta-tolerance").is_some() {
        cfg = cfg.with_delta_tolerance(opts.parse_num("delta-tolerance", 0.0));
    }
    if let Some(t) = opts.get("transport") {
        let kind: TransportKind = t.parse().unwrap_or_else(|e: String| {
            eprintln!("--transport: {e}");
            exit(2);
        });
        cfg = cfg.with_transport(kind);
    }
    // Skew handling (DESIGN.md §16): degree-aware hub fan-out at partition
    // time.
    let fanout: usize = opts.parse_num("hub-fanout", 0usize);
    if fanout > 0 || opts.get("hub-degree-threshold").is_some() {
        cfg = cfg.with_hub_fanout(lazygraph_partition::HubFanoutConfig {
            degree_threshold: opts
                .get("hub-degree-threshold")
                .map(|_| opts.parse_num("hub-degree-threshold", 0usize)),
            fanout: if fanout > 0 { fanout } else { usize::MAX },
        });
    }
    cfg
}

/// Locates the `lazygraph-worker` binary next to the running CLI.
fn worker_bin() -> std::path::PathBuf {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail("cannot locate current executable", e));
    let name = if cfg!(windows) {
        "lazygraph-worker.exe"
    } else {
        "lazygraph-worker"
    };
    exe.with_file_name(name)
}

/// The launcher's fault-tolerance options off the command line.
/// `--failpoint RANK:SPEC` (e.g. `1:superstep:3`) arms a deterministic
/// crash in one worker — chaos testing for the recovery path (DESIGN.md
/// §12). A spec that could not fire (unparseable, a rank the job does not
/// have) is a usage error: a chaos run that injected nothing must not
/// pass. So is every recovery option but `--checkpoint-every` itself
/// without it: no worker is respawned, and no link is held for a rejoin,
/// unless there is a snapshot to resume from.
fn mp_options(opts: &Opts, machines: usize) -> MpOptions {
    let checkpoint_every = opts.parse_num("checkpoint-every", 0u64);
    if checkpoint_every == 0 {
        if let Some(key) = CHECKPOINT_ONLY.iter().find(|k| opts.get(k).is_some()) {
            die(&format!("--{key} requires --checkpoint-every"));
        }
    }
    let failpoint = opts.get("failpoint").map(|s| {
        let parsed = s.split_once(':').and_then(|(rank, spec)| {
            Some((rank.parse::<usize>().ok()?, FailPoint::parse(spec)?))
        });
        let Some((rank, point)) = parsed else {
            die(&format!(
                "--failpoint: cannot parse {s} \
                 (RANK:superstep:N | RANK:send:ROUND:N | RANK:ckpt:ITER:CHUNK)"
            ));
        };
        if rank >= machines {
            die(&format!("--failpoint: rank {rank} out of range for {machines} machines"));
        }
        (rank, point)
    });
    MpOptions {
        checkpoint_every,
        rejoin_window_ms: opts.parse_num("rejoin-window-ms", 0u64),
        respawn_budget: opts.parse_num("respawn-budget", 2u32),
        failpoint,
    }
}

/// A validated `run` request, waiting for [`AlgoSpec::dispatch`] to hand it
/// the program: the one place either route is started and reported.
struct Request<'a> {
    graph: &'a Graph,
    machines: usize,
    cfg: EngineConfig,
    /// `Some` selects the multiprocess route.
    mp: Option<MpOptions>,
    output: Option<&'a str>,
}

impl Visitor for Request<'_> {
    type Out = ();

    fn visit<P: Shipped>(self, program: P) {
        let Request { graph, machines, cfg, mp, output } = self;
        let (result, launch) = match &mp {
            None => {
                let result = run(graph, machines, &cfg, &program)
                    .unwrap_or_else(|e| fail("run failed", e));
                (result, None)
            }
            Some(mp) => {
                let (result, launch) =
                    run_multiprocess(graph, machines, &cfg, &program, &worker_bin(), mp)
                        .unwrap_or_else(|e| fail("multiprocess run failed", e));
                (result, Some((launch, mp)))
            }
        };
        // The file first: it must not depend on anyone reading the report.
        if let Some(path) = output {
            let mut body = String::new();
            for (v, x) in result.values.iter().enumerate() {
                let _ = writeln!(body, "{v}\t{x}");
            }
            std::fs::write(path, body)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}"), e));
        }
        match launch {
            None => say!("{}", result.metrics.summary()),
            Some((launch, mp)) => report_launch(&result.metrics, &launch, mp),
        }
        if let Some(line) = program.headline(&result.values) {
            say!("{line}");
        }
        if let Some(path) = output {
            say!("wrote {} values to {path}", result.values.len());
        }
    }
}

/// The multiprocess route's report lines. `lazybench` reads `sim_time `,
/// `, est `, `converged=true` and the first number after `recovery: `:
/// new figures go at the end of a line, never in between.
fn report_launch(m: &RunMetrics, launch: &LaunchReport, mp: &MpOptions) {
    let shard_bytes = &launch.shard_bytes;
    say!(
        "multiprocess {} workers: {} iterations, converged={}, sim_time {:.4}s, \
         est {} B (cost model), wire {} B sent / {} frames (measured)",
        shard_bytes.len(),
        m.iterations,
        m.converged,
        m.sim_time,
        m.stats.total_est_bytes(),
        m.stats.wire_bytes_sent,
        m.stats.wire_frames_sent,
    );
    if mp.checkpoint_every > 0 {
        say!(
            "recovery: {} snapshot B written, {} reconnects, {} rounds replayed, \
             frame log peak {} B",
            m.stats.snapshot_bytes,
            m.stats.reconnects,
            m.stats.replay_rounds,
            m.stats.frame_log_high_water,
        );
    }
    say!(
        "shards: {} files, {} bytes shipped (largest {}), partitioned in {:.3} s",
        shard_bytes.len(),
        shard_bytes.iter().sum::<u64>(),
        shard_bytes.iter().max().copied().unwrap_or(0),
        launch.partition_time.as_secs_f64(),
    );
}

/// `run`: the request is parsed and validated once — everything that can
/// be refused before the input is loaded first — then handed to the table.
fn cmd_run(opts: &Opts) {
    let machines = machine_count(opts, 8);
    let mp = if opts.flags.contains("multiprocess") {
        Some(mp_options(opts, machines))
    } else {
        if let Some(key) = MULTIPROCESS_ONLY.iter().find(|k| opts.get(k).is_some()) {
            die(&format!("--{key} requires --multiprocess"));
        }
        None
    };
    let algorithm = opts.get("algorithm").unwrap_or_else(|| usage());
    let spec = AlgoSpec::parse(algorithm, |key| opts.get(key)).unwrap_or_else(|e| die(&e));
    let mut cfg = engine_config(opts);
    if let Some(mp) = &mp {
        check_recovery(cfg.engine, mp.checkpoint_every, mp.rejoin_window_ms)
            .unwrap_or_else(|e| die(&e.to_string()));
    }
    cfg.bidirectional |= spec.bidirectional();
    let graph = load_input(opts);
    spec.check_graph(graph.num_vertices()).unwrap_or_else(|e| die(&e));
    say!(
        "running {algorithm} on {} vertices / {} edges, {} machines, engine {}",
        graph.num_vertices(),
        graph.num_edges(),
        machines,
        cfg.engine.name()
    );
    spec.dispatch(Request {
        graph: &graph,
        machines,
        cfg,
        mp,
        output: opts.get("output"),
    });
}

fn cmd_info(opts: &Opts) {
    let machines = machine_count(opts, 48);
    let graph = load_input(opts);
    let s = graph_stats(&graph);
    say!("vertices:        {}", s.num_vertices);
    say!("edges:           {}", s.num_edges);
    say!("E/V:             {:.2}", s.ev_ratio);
    say!("max out-degree:  {}", s.max_out_degree);
    say!("max in-degree:   {}", s.max_in_degree);
    say!("top-1% share:    {:.3}", s.top1pct_edge_share);
    say!("symmetric:       {}", graph.is_symmetric());
    let cfg = engine_config(opts);
    // `machine_count` checked the one thing placement can refuse.
    let dg = place(&graph, machines, &cfg).unwrap_or_else(|e| die(&e.to_string()));
    say!(
        "lambda:          {:.2}  ({} partitions, {} cut)",
        dg.lambda(),
        machines,
        cfg.partition.name()
    );
    say!("parallel edges:  {}", dg.num_parallel_edges);
    say!("storage overhead:{:.3}", dg.storage_overhead());
    // What each machine will traverse, known at placement time: its
    // stored out-edges.
    let stored: Vec<u64> = dg.shards.iter().map(|s| s.num_local_edges() as u64).collect();
    say!(
        "edge load (max/mean): {:.3}",
        lazygraph_partition::load_ratio_milli(&stored) as f64 / 1000.0
    );
    let levels = reference::bfs_levels(&graph, VertexId(0));
    let reachable = levels.iter().filter(|&&l| l != u32::MAX).count();
    say!(
        "reach from v0:   {} vertices, eccentricity {}",
        reachable,
        levels.iter().filter(|&&l| l != u32::MAX).max().unwrap_or(&0)
    );
}

fn cmd_generate(opts: &Opts) {
    let out = opts.get("out").unwrap_or_else(|| usage());
    let n: usize = opts.parse_num("vertices", 10_000);
    let seed: u64 = opts.parse_num("seed", 42);
    let graph = match opts.get_or("kind", "rmat").as_str() {
        "rmat" | "social" => {
            let scale = (n.max(64) as f64).log2().round() as u32;
            rmat(RmatConfig::graph500(scale, 16, seed))
        }
        "road" => {
            let side = (n as f64).sqrt().round().max(8.0) as usize;
            grid2d(Grid2dConfig::road(side, side, seed))
        }
        "web" => web_crawl(WebCrawlConfig::uk_flavour(n, seed)),
        other => {
            eprintln!("unknown kind {other}");
            usage();
        }
    };
    let result = if out.ends_with(".mtx") {
        mtx::save_matrix_market(&graph, out)
    } else if out.ends_with(".lzg") {
        gio::save_binary(&graph, out)
    } else {
        gio::save_edge_list(&graph, out)
    };
    result.unwrap_or_else(|e| fail(&format!("cannot write {out}"), e));
    say!(
        "wrote {} vertices / {} edges to {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    match cmd.as_str() {
        "run" => cmd_run(&Opts::parse(rest, RUN_VALUES, RUN_FLAGS)),
        "info" => cmd_info(&Opts::parse(rest, RUN_VALUES, RUN_FLAGS)),
        "generate" => cmd_generate(&Opts::parse(rest, GENERATE_VALUES, &[])),
        _ => usage(),
    }
}
