//! Checkpoint/replay fault-tolerance suite (DESIGN.md §12).
//!
//! Every test here follows the same shape: run an undisturbed **oracle**
//! gang with checkpointing enabled, then re-run the identical job with a
//! deterministic fail point armed in exactly one worker
//! (`LAZYGRAPH_FAILPOINT`, which calls `abort()` — no unwinding, no
//! clean-shutdown frame, a genuinely torn process). The launcher respawns
//! the victim with `--resume`; it loads its newest valid snapshot,
//! rejoins both meshes at the recorded round watermarks, and replays
//! forward. The recovered run must be **bitwise identical** to the
//! oracle: same values, same iteration count, same simulated time bits.
//!
//! No test here sleeps or polls wall-clock state: fail points key on
//! superstep / round / snapshot-chunk counters (deterministic under the PR 1 bitwise-
//! determinism contract; the mid-round `send:` point alone lets the
//! victim's already-issued sends drain to the wire before it aborts — the
//! outcome must be the oracle's either way), and recovery is proven by
//! output equality plus
//! the `reconnects` / `replay_rounds` counters — if a fail point silently
//! stopped firing, `reconnects == 0` fails the test rather than letting
//! it pass vacuously.

mod common;

use lazygraph::multiproc::{run_multiprocess, FailPoint, MpOptions, Shipped};
use lazygraph::prelude::*;
use lazygraph_graph::generators::{rmat, RmatConfig};

fn worker_bin() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_BIN_EXE_lazygraph-worker"))
}

/// Small power-law graph for the kill matrix: big enough that SSSP takes
/// several supersteps (so there are checkpoints to resume from and rounds
/// to replay), small enough that a 4-process gang stays fast.
fn matrix_graph() -> Graph {
    let g = rmat(RmatConfig::graph500(7, 6, 5));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 9.0, 5);
    b.build()
}

fn cfg(engine: EngineKind) -> EngineConfig {
    EngineConfig::lazygraph()
        .with_engine(engine)
        .with_threads(2)
        .with_block_size(64)
}

/// Checkpoint every 2 supersteps, generous rejoin window (an upper bound,
/// not a wait — recovery is event-driven), budget for one respawn plus
/// slack. The oracle uses the same options minus the fail point so both
/// runs share a checkpoint cadence.
fn mp_opts(failpoint: Option<(usize, FailPoint)>) -> MpOptions {
    MpOptions {
        checkpoint_every: 2,
        rejoin_window_ms: 30_000,
        respawn_budget: 2,
        failpoint,
    }
}

/// `{:?}` on finite floats round-trips, so string equality on the value
/// vector is bitwise equality; `sim_time` is compared as raw bits.
fn fingerprint<P: VertexProgram>(o: &RunResult<P>) -> String {
    let m = &o.metrics;
    format!(
        "values={:?} iters={} conv={} sim={} counters={:?}",
        o.values,
        m.iterations,
        m.converged,
        m.sim_time.to_bits(),
        (m.coherency_points, m.local_subrounds, m.a2a_exchanges, m.m2m_exchanges)
    )
}

/// One launch of the gang; the launch report is not this suite's subject.
fn launch<P: Shipped>(
    g: &Graph,
    workers: usize,
    cfg: &EngineConfig,
    program: &P,
    opts: &MpOptions,
) -> Result<RunResult<P>, lazygraph::multiproc::MultiprocError> {
    run_multiprocess(g, workers, cfg, program, worker_bin(), opts).map(|(result, _)| result)
}

/// Worker rank that gets killed in every fault run.
const VICTIM: usize = 1;

/// Kill points for a run of `f` supersteps: first, middle, last.
fn kill_points(f: u64) -> Vec<u64> {
    let mut ns = vec![1, (f / 2).max(1), f.max(1)];
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// The recovery-equivalence matrix body: oracle first, then kill the
/// victim at the first / middle / last superstep and demand a bitwise
/// identical outcome each time.
fn run_matrix(engine: EngineKind, workers: usize) {
    run_matrix_on(&matrix_graph(), &cfg(engine), workers);
}

fn run_matrix_on(g: &Graph, base: &EngineConfig, workers: usize) {
    run_matrix_for(g, base, &Sssp::new(0u32), workers, kill_points);
}

/// The matrix for any program: `kills` picks the supersteps to kill the
/// victim at from the oracle's superstep count.
fn run_matrix_for<P: Shipped>(
    g: &Graph,
    base: &EngineConfig,
    program: &P,
    workers: usize,
    kills: impl Fn(u64) -> Vec<u64>,
) {
    let engine = base.engine;

    let oracle = launch(g, workers, base, program, &mp_opts(None))
        .unwrap_or_else(|e| panic!("{} {workers}w oracle: {e}", engine.name()));
    assert!(
        oracle.metrics.iterations >= 3,
        "{} {workers}w: oracle converged in {} supersteps — too few for a \
         first/middle/last kill matrix, grow the graph",
        engine.name(),
        oracle.metrics.iterations
    );
    assert_eq!(oracle.metrics.stats.reconnects, 0, "oracle must run undisturbed");
    assert_eq!(oracle.metrics.stats.replay_rounds, 0, "oracle must run undisturbed");
    assert!(
        oracle.metrics.stats.snapshot_bytes > 0,
        "{} {workers}w: checkpointing was on but no snapshot was written",
        engine.name()
    );
    let want = fingerprint(&oracle);

    // Checkpointing must be observationally free: the same job without
    // any recovery machinery lands on the same bits.
    if workers == 4 {
        let plain = launch(g, workers, base, program, &MpOptions::default())
            .unwrap_or_else(|e| panic!("{} {workers}w plain: {e}", engine.name()));
        assert_eq!(
            fingerprint(&plain),
            want,
            "{} {workers}w: enabling checkpoints changed the result",
            engine.name()
        );
    }

    for n in kills(oracle.metrics.iterations) {
        let opts = mp_opts(Some((VICTIM, FailPoint::Superstep(n))));
        let out = launch(g, workers, base, program, &opts)
            .unwrap_or_else(|e| panic!("{} {workers}w kill@{n}: {e}", engine.name()));
        assert_eq!(
            fingerprint(&out),
            want,
            "{} {workers}w: recovery after a kill at superstep {n} is not \
             bitwise identical to the oracle",
            engine.name()
        );
        // If the fail point never fired the run degenerates to the oracle
        // and would pass vacuously — the reconnect counters catch that.
        assert!(
            out.metrics.stats.reconnects >= 1,
            "{} {workers}w kill@{n}: fail point never fired (no reconnects)",
            engine.name()
        );
        if n >= 2 {
            // To reach superstep n ≥ 2 the gang completed superstep n-1,
            // so the survivors' logs hold rounds the rejoiner needs.
            assert!(
                out.metrics.stats.replay_rounds >= 1,
                "{} {workers}w kill@{n}: rejoin happened but nothing was replayed",
                engine.name()
            );
        }
    }

    // A kill *inside* a save: the victim dies with the header chunk of the
    // run's last generation in its temp file and nothing renamed, while
    // its peers wait in that checkpoint's barrier. The respawn clears the
    // torn file and resumes from the generation before it — the survivors
    // pruned nothing past that one, the barrier never having completed —
    // or, where the torn generation was the first (the delta engine's few
    // epochs), from the start.
    let last_generation = (oracle.metrics.iterations - 1) / 2 * 2;
    assert!(last_generation >= 2, "{} {workers}w: no generation to tear", engine.name());
    let point = FailPoint::Ckpt {
        iteration: last_generation,
        chunk: 1,
    };
    let out = launch(g, workers, base, program, &mp_opts(Some((VICTIM, point))))
        .unwrap_or_else(|e| panic!("{} {workers}w kill@{point}: {e}", engine.name()));
    assert_eq!(
        fingerprint(&out),
        want,
        "{} {workers}w: recovery after a kill inside the save of generation \
         {last_generation} is not bitwise identical to the oracle",
        engine.name()
    );
    assert!(
        out.metrics.stats.reconnects >= 1,
        "{} {workers}w kill@{point}: fail point never fired (no reconnects)",
        engine.name()
    );
    assert!(
        out.metrics.stats.replay_rounds >= 1,
        "{} {workers}w kill@{point}: rejoin happened but nothing was replayed",
        engine.name()
    );
}

#[test]
fn sync_recovers_bitwise_2_workers() {
    run_matrix(EngineKind::PowerGraphSync, 2);
}

#[test]
fn sync_recovers_bitwise_4_workers() {
    run_matrix(EngineKind::PowerGraphSync, 4);
}

#[test]
fn lazy_block_recovers_bitwise_2_workers() {
    run_matrix(EngineKind::LazyBlockAsync, 2);
}

#[test]
fn lazy_block_recovers_bitwise_4_workers() {
    run_matrix(EngineKind::LazyBlockAsync, 4);
}

/// Kill/resume through *ordered* local stages (DESIGN.md §17): SSSP on a
/// road lattice declares a local order, and the tight stage bound (a
/// hundredth of `T`, which the first, whole-swept stage measures) stops
/// the ordered stages — those from `LOCAL_ORDER_FROM` on — after a
/// sub-round or two, while the cut still holds vertices deferred in the
/// queue. Those run in that superstep's coherency sweep, so what a
/// snapshot must carry for the resumed machine to repeat the oracle's
/// cuts is what it always carried — the queue, the inboxes, `T` and the
/// superstep number; the cut itself keeps no state. The fingerprint
/// includes `local_subrounds`, which any replayed cut that differed would
/// move.
#[test]
fn lazy_block_recovers_bitwise_through_cut_short_ordered_stages() {
    let g = common::road_lattice(96, 5);
    let bounded = |factor| {
        cfg(EngineKind::LazyBlockAsync).with_interval(IntervalPolicy::Adaptive {
            ev_threshold: 10.0,
            trend_threshold: 0.07,
            local_bound_factor: factor,
        })
    };
    // Anti-vacuity, in-process: the tight bound really ends stages early
    // (more coherency points than the paper's 3·T), and the cut really
    // defers work on this graph at this machine count (fewer edges than
    // the same program without its order).
    let sssp = Sssp::new(0u32);
    let tight = run(&g, 4, &bounded(0.01), &sssp).expect("tight run").metrics;
    let paper = run(&g, 4, &bounded(3.0), &sssp).expect("3T run").metrics;
    assert!(tight.coherency_points > paper.coherency_points, "the stage bound never fired");
    let unordered =
        run(&g, 4, &bounded(0.01), &common::Unordered(sssp)).expect("unordered run").metrics;
    assert!(tight.stats.edges_processed < unordered.stats.edges_processed, "the cut never deferred");

    run_matrix_on(&g, &bounded(0.01), 4);
}

/// Kill/resume through *budgeted* local stages (DESIGN.md §17, "How long
/// a local stage runs"): lazy-block PageRank on an `E/V > 10` R-MAT, on
/// machines slow enough that the budget refuses the dense phase's
/// sub-rounds and admits the tail's. What `doLC()` reads there that a
/// restart at a superstep boundary cannot recompute — the cost of the
/// coherency point before the stage, the charge of the sweep before it —
/// rides in the snapshot (`LazyResume`, checkpoint v5); a resumed machine
/// that read anything else would admit a different number of sub-rounds,
/// which the fingerprint's `local_subrounds` and `sim_time` both see. The
/// victim dies at the first budgeted superstep, at the last, and halfway
/// between.
fn run_budgeted_matrix(workers: usize) {
    let g = common::social_rmat(10, 5);
    let base = common::slow_machines(cfg(EngineKind::LazyBlockAsync));
    let tolerance = 1e-3;

    // The same job in-process (bitwise the multiprocess run, so the
    // superstep numbers line up) says where lazy mode turns on, and that
    // the budget is live on both sides: some stage admits nothing, some
    // stage admits sub-rounds.
    let mut traced = base.clone();
    traced.record_history = true;
    let history = run(&g, workers, &traced, &PageRankDelta { tolerance })
        .expect("in-process run")
        .metrics
        .history;
    let first_budgeted = history
        .iter()
        .find(|r| r.lazy_on)
        .expect("lazy mode never turned on")
        .iteration;
    assert!(
        history.iter().any(|r| r.lazy_on && r.local_subrounds == 0),
        "the budget never refused a whole stage"
    );
    assert!(
        history.iter().any(|r| r.local_subrounds > 0),
        "the budget never admitted a sub-round"
    );

    run_matrix_for(&g, &base, &PageRankDelta { tolerance }, workers, |last| {
        assert_eq!(last, history.len() as u64, "in-process and multiprocess runs disagree");
        let mut ns = vec![first_budgeted, (first_budgeted + last) / 2, last];
        ns.dedup();
        ns
    });
}

#[test]
fn lazy_block_recovers_bitwise_through_budgeted_stages_2_workers() {
    run_budgeted_matrix(2);
}

#[test]
fn lazy_block_recovers_bitwise_through_budgeted_stages_4_workers() {
    run_budgeted_matrix(4);
}

#[test]
fn delta_recovers_bitwise_2_workers() {
    // Delta checkpoints carry `(value, delta)` state implicitly through
    // the MachineState snapshot plus the DeltaResume counter extras; the
    // scheduler itself is stateless across epochs, so resume re-plans
    // from the restored state and must land on the oracle's bits.
    run_matrix(EngineKind::DeltaAccum, 2);
}

#[test]
fn delta_recovers_bitwise_4_workers() {
    run_matrix(EngineKind::DeltaAccum, 4);
}

/// Kill the victim *inside* a round: `send:<round>:<n>` aborts it in the
/// apply broadcast of superstep 3 (data round 5; a Sync superstep is a
/// gather round and an apply round) after it sent the round to worker 0
/// and before it sends it to workers 2 and 3. The survivors are left at
/// *different* watermarks for the same victim: worker 0 has forwarded its
/// round 5, the other two have not. The respawned victim resumes from the
/// superstep-2 snapshot (watermark 4) and regenerates rounds 4 and 5; the
/// count-based dedupe has to drop round 5 on one link and accept it on
/// the other two, per link, with no round-level agreement between them.
#[test]
fn kill_between_two_peers_sends_recovers_bitwise() {
    let g = matrix_graph();
    let workers = 4;
    let base = cfg(EngineKind::PowerGraphSync);
    let sssp = Sssp::new(0u32);

    let oracle = launch(&g, workers, &base, &sssp, &mp_opts(None)).expect("oracle");
    assert!(oracle.metrics.iterations > 3, "the kill must land before the last superstep");

    let opts = mp_opts(Some((VICTIM, FailPoint::Send { round: 5, n: 2 })));
    let out = launch(&g, workers, &base, &sssp, &opts).expect("mid-round kill run");

    assert_eq!(
        fingerprint(&out),
        fingerprint(&oracle),
        "recovery after a kill between two peers' sends is not bitwise identical"
    );
    assert!(out.metrics.stats.reconnects >= 1, "send:5:2 never fired (no reconnects)");
    assert!(out.metrics.stats.replay_rounds >= 1, "nothing was replayed on rejoin");
}
