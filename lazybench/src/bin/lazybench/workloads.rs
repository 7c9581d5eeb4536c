//! The four workloads and the passes that measure them.
//!
//! Every workload runs the lazy engine (`EngineConfig::lazygraph()`) and
//! the PowerGraph Sync baseline (`EngineConfig::powergraph_sync()`) on the
//! same graph and the same coordinated cut, 4 machines × 1 thread, one run
//! at a time (closed loop, one client). The untraced pass measures
//! (set-up, lazy run, sync run) rounds for `--seconds` and reports medians
//! over the rounds; the traced pass makes one run of everything, with a
//! span around every layer call.

use std::path::Path;

use lazygraph_algorithms::{reference, PageRankData, PageRankDelta, Sssp};
use lazygraph_engine::{run_on, EngineConfig, RunMetrics, TransportKind, VertexProgram};
use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph_graph::{io as graph_io, Graph, GraphBuilder, VertexId};
use lazygraph_partition::{
    build_distributed, load_imbalance, partition_graph, plan_split, DistributedGraph,
};

use crate::stats::{fnv1a, median, vm_hwm_mb, Metrics};
use crate::trace::Tracer;
use crate::{layers, mp, Opts, Scratch, MACHINES};

/// How the machines of a workload talk to each other.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Machine threads over in-process channels.
    InProc,
    /// Machine threads over framed loopback TCP.
    Tcp,
    /// `lazygraph-cli --multiprocess`: one OS process per machine.
    Multiprocess,
}

pub struct Workload {
    pub name: &'static str,
    pub road: bool,
    pub route: Route,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pr-social",
        road: false,
        route: Route::InProc,
    },
    Workload {
        name: "pr-social-tcp",
        road: false,
        route: Route::Tcp,
    },
    Workload {
        name: "sssp-road",
        road: true,
        route: Route::InProc,
    },
    Workload {
        name: "pr-social-mp",
        road: false,
        route: Route::Multiprocess,
    },
];

/// The two engines, in the order every pair runs them.
pub const ENGINES: [&str; 2] = ["lazy", "sync"];

/// What the harness needs from an algorithm beyond `VertexProgram`: its
/// input graph, its oracle, and a bitwise view of its results.
pub trait Bench: VertexProgram {
    /// `lazygraph-cli run --algorithm` name.
    const CLI_NAME: &'static str;
    /// Largest `|got - want| / max(want, 1)` a correct run may show.
    const TOLERANCE: f64;
    fn program() -> Self;
    /// The generator call (`graph.generate_s`).
    fn generate(seed: u64) -> Graph;
    /// The `GraphBuilder` pass over the generated edges (`graph.build_s`).
    fn finish(builder: &mut GraphBuilder, seed: u64);
    fn truth(graph: &Graph) -> Vec<f64>;
    fn scalar(value: &Self::VData) -> f64;
    fn bits(value: &Self::VData) -> [u64; 2];
}

/// PageRank-Delta on a symmetrised Graph500 R-MAT: scale 17, edge factor
/// 14 (131 072 vertices, about 3.3 M directed edges).
impl Bench for PageRankDelta {
    const CLI_NAME: &'static str = "pagerank";
    // The bar tests/engine_correctness.rs holds every engine to.
    const TOLERANCE: f64 = 0.01;

    fn program() -> Self {
        PageRankDelta::default()
    }

    fn generate(seed: u64) -> Graph {
        rmat(RmatConfig::graph500(17, 14, seed))
    }

    fn finish(builder: &mut GraphBuilder, _seed: u64) {
        builder.symmetrize();
    }

    fn truth(graph: &Graph) -> Vec<f64> {
        reference::pagerank_power(graph, 150)
    }

    fn scalar(value: &PageRankData) -> f64 {
        value.rank
    }

    fn bits(value: &PageRankData) -> [u64; 2] {
        [value.rank.to_bits(), value.pending.to_bits()]
    }
}

/// SSSP from vertex 0 on a 640 × 640 road lattice with 2 % local
/// shortcuts and weights in [1, 64): 409 600 vertices, high diameter.
impl Bench for Sssp {
    const CLI_NAME: &'static str = "sssp";
    const TOLERANCE: f64 = 0.0;

    fn program() -> Self {
        Sssp::new(0u32)
    }

    fn generate(seed: u64) -> Graph {
        grid2d(Grid2dConfig::road(640, 640, seed))
    }

    fn finish(builder: &mut GraphBuilder, seed: u64) {
        builder.symmetrize();
        builder.randomize_weights(1.0, 64.0, seed);
    }

    fn truth(graph: &Graph) -> Vec<f64> {
        reference::dijkstra(graph, VertexId(0))
            .into_iter()
            .map(f64::from)
            .collect()
    }

    fn scalar(value: &f32) -> f64 {
        f64::from(*value)
    }

    fn bits(value: &f32) -> [u64; 2] {
        [u64::from(value.to_bits()), 0]
    }
}

/// The engine configurations under test. Threads are pinned to 1 so the
/// program never sizes a pool from the host.
pub fn configs(transport: TransportKind) -> [EngineConfig; 2] {
    [
        EngineConfig::lazygraph()
            .with_threads(1)
            .with_transport(transport),
        EngineConfig::powergraph_sync()
            .with_threads(1)
            .with_transport(transport),
    ]
}

/// Operations attempted and failed; a failure is a run that errored, did
/// not converge, missed the oracle, or was not bitwise repeatable.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("lazybench: FAILED {what}: {p}");
            }
        }
    }
}

/// Largest relative error of `got` against the oracle (0 when equal,
/// which also covers matching infinities).
pub fn max_rel_err(got: impl Iterator<Item = f64>, truth: &[f64]) -> f64 {
    got.zip(truth)
        .map(|(g, &t)| {
            if g == t {
                0.0
            } else {
                (g - t).abs() / t.max(1.0)
            }
        })
        .fold(
            0.0,
            |worst, e| if e > worst || e.is_nan() { e } else { worst },
        )
}

/// Every result bit: two runs are bitwise equal iff equal here.
fn digest<P: Bench>(values: &[P::VData]) -> u64 {
    fnv1a(values.iter().flat_map(P::bits).flat_map(u64::to_le_bytes))
}

pub fn generate_graph<P: Bench>(tr: &mut Tracer, seed: u64, layers: &mut Metrics) -> Graph {
    let (raw, secs) = tr.span("graph.generate", || P::generate(seed));
    layers.put("graph.generate_s", secs, "s");
    let (graph, secs) = tr.span("graph.build", || {
        let mut builder = GraphBuilder::new(raw.num_vertices());
        builder.extend(raw.edges());
        P::finish(&mut builder, seed);
        builder.build()
    });
    layers.put("graph.build_s", secs, "s");
    graph
}

/// The coordinated cut once, then one shard set per engine: the lazy one
/// with the edge splitter's parallel-edges, the Sync one without.
fn place(tr: &mut Tracer, graph: &Graph, layers: &mut Metrics) -> [DistributedGraph; 2] {
    let cfgs = configs(TransportKind::InProc);
    let (assignment, secs) = tr.span("partition.assign", || {
        cfgs[0].partition.assign(graph, MACHINES)
    });
    layers.put("partition.assign_s", secs, "s");
    layers.put(
        "partition.load_imbalance",
        load_imbalance(&assignment, MACHINES),
        "ratio",
    );
    let (plans, secs) = tr.span("partition.plan_split", || {
        [&cfgs[0], &cfgs[1]].map(|cfg| plan_split(graph, MACHINES, &cfg.splitter))
    });
    layers.put("partition.plan_split_s", secs, "s");
    let (placed, secs) = tr.span("partition.build_distributed", || {
        [0, 1].map(|e| build_distributed(graph, &assignment, MACHINES, &plans[e], false))
    });
    layers.put("partition.build_distributed_s", secs, "s");
    layers.put("partition.lambda_lazy", placed[0].lambda(), "ratio");
    layers.put("partition.lambda_sync", placed[1].lambda(), "ratio");
    placed
}

/// One finished engine run, whichever route produced it.
pub struct Run {
    pub wall_s: f64,
    pub sim_s: f64,
    pub traffic_bytes: u64,
    /// Bitwise identity of the result values.
    pub digest: u64,
    /// Largest relative error against the oracle.
    pub rel_err: f64,
}

fn run_engine<P: Bench>(
    tr: &mut Tracer,
    label: &str,
    placed: &DistributedGraph,
    cfg: &EngineConfig,
) -> Result<(Vec<P::VData>, RunMetrics, f64), String> {
    let (result, wall_s) = tr.span(label, || run_on(placed, cfg, &P::program()));
    let result = result.map_err(|e| format!("{label}: {e}"))?;
    Ok((result.values, result.metrics, wall_s))
}

/// The problems of a finished run that every route shares: not converged,
/// or further from the oracle than the algorithm's tolerance.
pub fn oracle_problems<P: Bench>(converged: bool, rel_err: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if !converged {
        problems.push("did not converge".into());
    }
    if rel_err.is_nan() || rel_err > P::TOLERANCE {
        problems.push(format!(
            "max relative error {rel_err} exceeds {}",
            P::TOLERANCE
        ));
    }
    problems
}

/// Checks one in-process run: converged, within the oracle's tolerance,
/// and bitwise equal (values, `sim_time`, traffic) to `first`, an earlier
/// run of the same engine on the same placement.
fn check_run<P: Bench>(
    values: &[P::VData],
    metrics: &RunMetrics,
    wall_s: f64,
    truth: &[f64],
    first: Option<&Run>,
) -> (Run, Vec<String>) {
    let run = Run {
        wall_s,
        sim_s: metrics.sim_time,
        traffic_bytes: metrics.traffic_bytes(),
        digest: digest::<P>(values),
        rel_err: max_rel_err(values.iter().map(P::scalar), truth),
    };
    let mut problems = oracle_problems::<P>(metrics.converged, run.rel_err);
    if let Some(first) = first {
        if run.digest != first.digest {
            problems.push("values differ bitwise from the first run".into());
        }
        if run.sim_s.to_bits() != first.sim_s.to_bits() || run.traffic_bytes != first.traffic_bytes
        {
            problems.push("sim_time or traffic differ from the first run".into());
        }
    }
    (run, problems)
}

/// The end-to-end numbers, identical in meaning on every workload. Wall
/// times (medians over the rounds) and traffic go out as extras, see
/// `Metrics::extras`.
pub fn put_end_to_end(out: &mut Metrics, setup_s: &[f64], runs: &[Vec<Run>; 2], peak_rss_mb: f64) {
    out.put_median("setup_s", setup_s, "s");
    let sim_s = [runs[0][0].sim_s, runs[1][0].sim_s];
    out.put("lazy_sim_s", sim_s[0], "s");
    out.put("sync_sim_s", sim_s[1], "s");
    out.put("sim_speedup", sim_s[1] / sim_s[0], "ratio");
    out.put("peak_rss_mb", peak_rss_mb, "MiB");
    for (engine, runs) in ENGINES.iter().zip(runs) {
        let wall_s: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        out.extras
            .push((format!("{engine}_wall_s"), median(&wall_s), "s"));
        out.samples.push((format!("{engine}_wall_s"), wall_s));
    }
    for (engine, runs) in ENGINES.iter().zip(runs) {
        out.extras.push((
            format!("{engine}_traffic_bytes"),
            runs[0].traffic_bytes as f64,
            "bytes",
        ));
    }
}

pub fn run_workload(
    w: &Workload,
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    match (w.road, w.route, opts.trace) {
        (false, Route::Multiprocess, false) => mp::untraced(opts, tr, out, verdict),
        (false, Route::Multiprocess, true) => mp::traced(opts, tr, out, verdict),
        (true, Route::Multiprocess, _) => Err("no multiprocess road workload".into()),
        (false, _, false) => untraced::<PageRankDelta>(w, opts, tr, out, verdict),
        (false, _, true) => traced::<PageRankDelta>(w, opts, tr, out, verdict),
        (true, _, false) => untraced::<Sssp>(w, opts, tr, out, verdict),
        (true, _, true) => traced::<Sssp>(w, opts, tr, out, verdict),
    }
}

fn transport_of(w: &Workload) -> TransportKind {
    match w.route {
        Route::InProc => TransportKind::InProc,
        Route::Tcp | Route::Multiprocess => TransportKind::Tcp,
    }
}

fn untraced<P: Bench>(
    w: &Workload,
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let cfgs = configs(transport_of(w));
    let mut setup_s = Vec::new();
    let mut truth = None;
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut measured_s = 0.0;
    // Rounds until `--seconds` of engine time are measured: the last one may
    // run past it, and a slow host gets fewer, which bounds a run's length.
    // Each round sets the same graph up again, so `setup_s` is a median too.
    while measured_s < opts.seconds {
        let mut unused = Metrics::default();
        let open = tr.begin("setup");
        let graph = generate_graph::<P>(tr, opts.seed, &mut unused);
        let placed = place(tr, &graph, &mut unused);
        setup_s.push(tr.end(open));
        let truth = truth.get_or_insert_with(|| P::truth(&graph));
        for e in 0..2 {
            let label = format!("engine.{}.run_on", ENGINES[e]);
            let (values, metrics, wall_s) = run_engine::<P>(tr, &label, &placed[e], &cfgs[e])?;
            measured_s += wall_s;
            let (run, problems) = check_run::<P>(&values, &metrics, wall_s, truth, runs[e].first());
            verdict.record(&format!("{} {label}", w.name), problems);
            runs[e].push(run);
        }
    }
    let peak_rss_mb = vm_hwm_mb(std::process::id()).ok_or("cannot read /proc/self VmHWM")?;
    put_end_to_end(out, &setup_s, &runs, peak_rss_mb);
    Ok(())
}

/// Times `save_edge_list` + `load_edge_list` of `graph`.
fn save_and_load(
    tr: &mut Tracer,
    graph: &Graph,
    path: &Path,
    layers: &mut Metrics,
) -> Result<Graph, String> {
    let (saved, secs) = tr.span("graph.save", || graph_io::save_edge_list(graph, path));
    saved.map_err(|e| format!("saving {}: {e}", path.display()))?;
    layers.put("graph.save_s", secs, "s");
    let (loaded, secs) = tr.span("graph.load", || graph_io::load_edge_list(path, None));
    layers.put("graph.load_s", secs, "s");
    loaded.map_err(|e| format!("loading {}: {e}", path.display()))
}

/// The layers every traced pass walks before it reaches the engines:
/// graph, partition, codec, mesh. Returns the graph the engines will see
/// (for `reload`, the one read back from the saved edge list, as the CLI
/// reads it) and its placements.
pub fn traced_layers<P: Bench>(
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Metrics,
    edge_list: &Path,
    reload: bool,
) -> Result<(Graph, [DistributedGraph; 2]), String> {
    let generated = generate_graph::<P>(tr, opts.seed, out);
    let loaded = save_and_load(tr, &generated, edge_list, out)?;
    let graph = if reload { loaded } else { generated };
    out.put("graph.vertices", graph.num_vertices() as f64, "count");
    out.put("graph.edges", graph.num_edges() as f64, "count");
    let placed = place(tr, &graph, out);
    layers::probe(tr, out)?;
    Ok((graph, placed))
}

/// The one-machine baseline of both engines: same `run_on`, no replicas,
/// no exchange. Returns `(wall_s, edges_traversed)` per engine.
pub fn one_machine<P: Bench>(
    tr: &mut Tracer,
    graph: &Graph,
    verdict: &mut Verdict,
    truth: &[f64],
) -> Result<[(f64, u64); 2], String> {
    let cfgs = configs(TransportKind::InProc);
    let mut baseline = [(0.0, 0); 2];
    for e in 0..2 {
        let placed = partition_graph(graph, 1, cfgs[e].partition, &cfgs[e].splitter, false);
        let label = format!("engine.{}.run_on.m1", ENGINES[e]);
        let (values, metrics, wall_s) = run_engine::<P>(tr, &label, &placed, &cfgs[e])?;
        let (_, problems) = check_run::<P>(&values, &metrics, wall_s, truth, None);
        verdict.record(&label, problems);
        baseline[e] = (wall_s, metrics.stats.edges_processed);
    }
    Ok(baseline)
}

/// `engine.<e>.*`: the counters of one run plus the rates derived from
/// `wall_s`, the wall clock of that run on this workload's route.
pub fn put_engine_layers(
    out: &mut Metrics,
    engine: &str,
    m: &RunMetrics,
    wall_s: f64,
    m1: (f64, u64),
) {
    let s = &m.stats;
    let frac = |part: u64, rest: u64| {
        if part + rest == 0 {
            0.0
        } else {
            part as f64 / (part + rest) as f64
        }
    };
    let mut put =
        |name: &str, value: f64, unit| out.put(&format!("engine.{engine}.{name}"), value, unit);
    put("edges_traversed", s.edges_processed as f64, "count");
    put("applies", s.applies as f64, "count");
    put("global_syncs", s.global_syncs as f64, "count");
    put("iterations", m.iterations as f64, "count");
    put("coherency_points", m.coherency_points as f64, "count");
    put("local_subrounds", m.local_subrounds as f64, "count");
    put("wire_items", s.total_items() as f64, "count");
    put(
        "items_combined_frac",
        frac(s.items_combined, s.total_items()),
        "ratio",
    );
    put("est_bytes", s.total_est_bytes() as f64, "bytes");
    put("wire_bytes", s.wire_bytes_sent as f64, "bytes");
    put("wire_frames", s.wire_frames_sent as f64, "count");
    put("pool_hit_frac", frac(s.pool_hits, s.pool_misses), "ratio");
    put("zero_copy_frames", s.zero_copy_frames as f64, "count");
    put("fold_runs", s.fold_runs as f64, "count");
    put("sim_compute_s", m.breakdown.compute, "s");
    put("sim_comm_s", m.breakdown.comm, "s");
    put("sim_barrier_s", m.breakdown.barrier, "s");
    put("send_wait_ms", m.breakdown.send_wait_ms, "ms");
    put("overlap_ms", m.breakdown.overlap_ms, "ms");
    put("wall_s", wall_s, "s");
    put(
        "ns_per_edge",
        wall_s * 1e9 / s.edges_processed.max(1) as f64,
        "ns",
    );
    put(
        "ms_per_sync",
        wall_s * 1e3 / s.global_syncs.max(1) as f64,
        "ms",
    );
    put("m1_wall_s", m1.0, "s");
    put(
        "redundancy",
        s.edges_processed as f64 / m1.1.max(1) as f64,
        "ratio",
    );
}

/// The `mp.*` layer metrics; zero on workloads that start no processes.
pub const MP_LAYERS: [(&str, &str); 6] = [
    ("mp.startup_s", "s"),
    ("mp.ckpt_overhead_s", "s"),
    ("mp.snapshot_bytes", "bytes"),
    ("mp.wire_bytes", "bytes"),
    ("mp.wire_frames", "count"),
    ("mp.worker_peak_rss_mb", "MiB"),
];

fn traced<P: Bench>(
    w: &Workload,
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let scratch = Scratch::create()?;
    let (graph, placed) = traced_layers::<P>(opts, tr, out, &scratch.path("graph.el"), false)?;
    let (truth, oracle_s) = tr.span("algorithms.oracle", || P::truth(&graph));
    out.put("algorithms.oracle_s", oracle_s, "s");
    let m1 = one_machine::<P>(tr, &graph, verdict, &truth)?;

    let cfgs = configs(transport_of(w));
    let (mut plain_s, mut traced_s, mut worst_err) = (0.0, 0.0, 0.0f64);
    for e in 0..2 {
        let engine = ENGINES[e];
        let label = format!("engine.{engine}.run_on");
        let (values, metrics, wall_s) = run_engine::<P>(tr, &label, &placed[e], &cfgs[e])?;
        let (first, problems) = check_run::<P>(&values, &metrics, wall_s, &truth, None);
        worst_err = worst_err.max(first.rel_err);
        verdict.record(&format!("{} {label}", w.name), problems);
        plain_s += wall_s;

        let mut cfg = cfgs[e].clone();
        cfg.record_history = true;
        let label = format!("engine.{engine}.run_on.traced");
        let (values, metrics, wall_s) = run_engine::<P>(tr, &label, &placed[e], &cfg)?;
        let (_, problems) = check_run::<P>(&values, &metrics, wall_s, &truth, Some(&first));
        verdict.record(&format!("{} {label}", w.name), problems);
        traced_s += wall_s;
        put_engine_layers(out, engine, &metrics, wall_s, m1[e]);

        if w.route == Route::Tcp {
            // The wire must change nothing: same bits, same counts as the
            // channel mesh of `pr-social`.
            let cfg = cfgs[e].clone().with_transport(TransportKind::InProc);
            let label = format!("engine.{engine}.run_on.inproc");
            let (values, inproc, wall_s) = run_engine::<P>(tr, &label, &placed[e], &cfg)?;
            let (_, mut problems) = check_run::<P>(&values, &inproc, wall_s, &truth, Some(&first));
            let counts = |m: &RunMetrics| {
                (
                    m.stats.edges_processed,
                    m.stats.applies,
                    m.stats.global_syncs,
                    m.stats.total_items(),
                )
            };
            if counts(&inproc) != counts(&metrics) {
                problems.push("TCP run's counters differ from the in-process run's".into());
            }
            verdict.record(&format!("{} {label}", w.name), problems);
        }
    }
    out.put("algorithms.max_rel_err", worst_err, "ratio");
    for (name, unit) in MP_LAYERS {
        out.put(name, 0.0, unit);
    }
    out.put(
        "trace.overhead_frac",
        (traced_s - plain_s) / plain_s,
        "ratio",
    );
    Ok(())
}
