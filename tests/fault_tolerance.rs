//! Checkpoint/restart fault-tolerance suite (DESIGN.md §12).
//!
//! Every test here follows the same shape: run an undisturbed **oracle**
//! gang with checkpointing enabled, then re-run the identical job with
//! deterministic fail points armed (`LAZYGRAPH_FAILPOINT`, which calls
//! `abort()` — no unwinding, no clean-shutdown frame, a genuinely torn
//! process). The launcher stops the whole gang and restarts every worker
//! with `--resume G`, `G` the newest snapshot generation all of them
//! hold; each loads it and builds fresh meshes. The recovered run must be
//! **bitwise identical** to the oracle: the same `RunRecord` but for its
//! counters (`common::recovered`).
//!
//! No test here sleeps or polls wall-clock state: fail points key on
//! superstep / round / snapshot-chunk counters (deterministic under the
//! bitwise-determinism contract; the mid-round `send:` point alone lets
//! the victim's already-issued sends drain to the wire before it aborts —
//! the outcome must be the oracle's either way), and recovery is proven
//! by output equality plus the launch's gang-restart count — if a fail
//! point silently stopped firing, the count is 0 and the test fails
//! rather than passing vacuously.

mod common;

use lazygraph::multiproc::{run_multiprocess, FailPoint, MpOptions, MultiprocError, Shipped};
use lazygraph::prelude::*;
use lazygraph_engine::scheduler::LOCAL_ORDER_FROM;
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_net::Wire;

fn worker_bin() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_BIN_EXE_lazygraph-worker"))
}

/// Small power-law graph for the kill matrix: big enough that SSSP takes
/// several supersteps (so there are checkpoints to resume from), small
/// enough that a 4-process gang stays fast.
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

/// Checkpoint every 2 supersteps, budget for two gang restarts. The
/// oracle uses the same options minus the fail points so both runs share
/// a checkpoint cadence. Each fail point is `(incarnation, rank, point)`.
fn mp_opts(failpoint: Vec<(u32, usize, FailPoint)>) -> MpOptions {
    MpOptions {
        checkpoint_every: 2,
        respawn_budget: 2,
        failpoint,
    }
}

/// One launch of the gang: its result and how many gang restarts it took.
fn launch<P: Shipped>(
    g: &Graph,
    workers: usize,
    cfg: &EngineConfig,
    program: &P,
    opts: &MpOptions,
) -> Result<(RunResult<P>, u32), MultiprocError> {
    run_multiprocess(g, workers, cfg, program, worker_bin(), opts)
        .map(|(result, launch)| (result, launch.gang_restarts))
}

/// Worker rank that gets killed in the fault runs, but for the one row
/// that kills worker 0.
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
    run_matrix_for(g, base, &Sssp::new(0u32), workers, VICTIM, kill_points);
}

/// The matrix for any program: `kills` picks the supersteps to kill
/// worker `victim` at from the oracle's superstep count.
fn run_matrix_for<P: Shipped>(
    g: &Graph,
    base: &EngineConfig,
    program: &P,
    workers: usize,
    victim: usize,
    kills: impl Fn(u64) -> Vec<u64>,
) {
    let engine = base.engine;

    let (oracle, restarts) = launch(g, workers, base, program, &mp_opts(vec![]))
        .unwrap_or_else(|e| panic!("{} {workers}w oracle: {e}", engine.name()));
    assert_eq!(restarts, 0, "oracle must run undisturbed");
    assert!(
        oracle.metrics.iterations >= 3,
        "{} {workers}w: oracle converged in {} supersteps — too few for a \
         first/middle/last kill matrix, grow the graph",
        engine.name(),
        oracle.metrics.iterations
    );
    assert!(
        oracle.metrics.stats.snapshot_bytes > 0,
        "{} {workers}w: checkpointing was on but no snapshot was written",
        engine.name()
    );
    let want = common::recovered(&oracle);

    // Checkpointing must be observationally free: the same job without
    // any recovery machinery lands on the same record, but for the
    // snapshot bytes the checkpoints write. A checkpoint's barrier is no
    // sync of the computation, so Fig. 10's count does not move either.
    if workers == 4 {
        let (plain, _) = launch(g, workers, base, program, &MpOptions::default())
            .unwrap_or_else(|e| panic!("{} {workers}w plain: {e}", engine.name()));
        assert_eq!(
            common::recovered(&plain),
            want,
            "{} {workers}w: enabling checkpoints changed the result",
            engine.name()
        );
        assert_eq!(
            plain.metrics.stats.global_syncs,
            oracle.metrics.stats.global_syncs,
            "{} {workers}w: checkpoint barriers were counted as syncs",
            engine.name()
        );
    }

    for n in kills(oracle.metrics.iterations) {
        let opts = mp_opts(vec![(0, victim, FailPoint::Superstep(n))]);
        let (out, restarts) = launch(g, workers, base, program, &opts)
            .unwrap_or_else(|e| panic!("{} {workers}w kill@{n}: {e}", engine.name()));
        assert_eq!(
            common::recovered(&out),
            want,
            "{} {workers}w: recovery after a kill at superstep {n} is not \
             bitwise identical to the oracle",
            engine.name()
        );
        // If the fail point never fired the run degenerates to the oracle
        // and would pass vacuously — the restart count catches that.
        assert_eq!(restarts, 1, "{} {workers}w kill@{n}: one gang restart", engine.name());
    }

    // A kill *inside* a save: the victim dies with the header chunk of the
    // run's last generation in its temp file and nothing renamed, while
    // its peers wait in that checkpoint's barrier, their own files of that
    // generation complete. The launcher clears the torn file, discards the
    // peers' newer generation, and restarts the gang from the generation
    // before it — or, where the torn generation was the first (the delta
    // engine's few epochs), from the start.
    let last_generation = (oracle.metrics.iterations - 1) / 2 * 2;
    assert!(last_generation >= 2, "{} {workers}w: no generation to tear", engine.name());
    let point = FailPoint::Ckpt {
        iteration: last_generation,
        chunk: 1,
    };
    let (out, restarts) = launch(g, workers, base, program, &mp_opts(vec![(0, victim, point)]))
        .unwrap_or_else(|e| panic!("{} {workers}w kill@{point}: {e}", engine.name()));
    assert_eq!(
        common::recovered(&out),
        want,
        "{} {workers}w: recovery after a kill inside the save of generation \
         {last_generation} is not bitwise identical to the oracle",
        engine.name()
    );
    assert_eq!(restarts, 1, "{} {workers}w kill@{point}: one gang restart", engine.name());
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

/// Machine 0's outcome is where the run's breakdown and trace come from:
/// killed and resumed, it continues the breakdown and the trace its
/// snapshot carries, so the recovered run books the oracle's compute,
/// communication and barrier time, not the whole pre-crash clock as
/// compute, and reports every superstep's record, not only those after
/// its snapshot.
#[test]
fn lazy_block_recovers_bitwise_when_worker_0_dies() {
    let mut base = cfg(EngineKind::LazyBlockAsync);
    base.record_history = true;
    run_matrix_for(&matrix_graph(), &base, &Sssp::new(0u32), 2, 0, kill_points);
}

/// A tight stage bound (a hundredth of `T`, which the first, whole-swept
/// stage measures): on a road lattice, SSSP's ordered stages — those from
/// `LOCAL_ORDER_FROM` on — stop after a sub-round or two, with vertices
/// the cut deferred still on the queue.
fn cut_short_ordered_stages() -> EngineConfig {
    common::stage_bound(cfg(EngineKind::LazyBlockAsync), 0.01)
}

/// Kill/resume through *ordered* local stages (DESIGN.md §17), cut short
/// ([`cut_short_ordered_stages`]). What a cut defers goes back onto the
/// queue, so what a stage leaves deferred when it ends runs in that
/// superstep's coherency sweep, and what a snapshot must carry for the
/// resumed machine to repeat the oracle's cuts is what it always carried
/// — the queue, the inboxes, `T` and the superstep number; the cut keeps
/// no state of its own. The record includes `local_subrounds`, which
/// any replayed cut that differed would move.
#[test]
fn lazy_block_recovers_bitwise_through_cut_short_ordered_stages() {
    let g = common::road_lattice(96, 5);
    // Anti-vacuity, in-process: the tight bound really ends stages early
    // (more coherency points than the paper's 3·T), and the cut really
    // defers work on this graph at this machine count (fewer edges than
    // the same program without its order).
    let sssp = Sssp::new(0u32);
    let tight = run(&g, 4, &cut_short_ordered_stages(), &sssp).expect("tight run").metrics;
    let paper_bound = common::stage_bound(cfg(EngineKind::LazyBlockAsync), 3.0);
    let paper = run(&g, 4, &paper_bound, &sssp).expect("3T run").metrics;
    assert!(tight.coherency_points > paper.coherency_points, "the stage bound never fired");
    let unordered = run(&g, 4, &cut_short_ordered_stages(), &common::Unordered(sssp))
        .expect("unordered run")
        .metrics;
    assert!(tight.stats.edges_processed < unordered.stats.edges_processed, "the cut never deferred");

    run_matrix_on(&g, &cut_short_ordered_stages(), 4);
}

/// Kill/resume inside early ordered stages: the victim dies in the
/// supersteps of the 4th and the 5th coherency point, read off the
/// trace's carried counters, where [`cut_short_ordered_stages`]' stages
/// are ordered (from `LOCAL_ORDER_FROM` on) and run sub-rounds. The
/// snapshot taken after such a stage holds nothing of its cuts but the
/// queue and the inboxes, and from them the resumed gang must repeat the
/// oracle's cuts bitwise.
#[test]
fn lazy_block_recovers_bitwise_inside_the_first_ordered_stages() {
    let g = common::road_lattice(96, 5);
    let base = cut_short_ordered_stages();
    let sssp = Sssp::new(0u32);
    let mut traced = base.clone();
    traced.record_history = true;
    let history = run(&g, 4, &traced, &sssp).expect("in-process run").metrics.history;
    let steps = common::lazy_supersteps(&history);
    let kills: Vec<u64> = steps
        .iter()
        .filter(|s| matches!(s.carry.counters.coherency_points, 4 | 5))
        .map(|s| s.superstep)
        .collect();
    assert_eq!(kills.len(), 2, "the run ended before its 5th coherency point");
    for s in steps.iter().filter(|s| kills.contains(&s.superstep)) {
        assert!(s.superstep >= LOCAL_ORDER_FROM, "superstep {} is not ordered", s.superstep);
        assert!(s.lazy_on && s.subrounds > 0, "superstep {} ran no local stage", s.superstep);
    }
    run_matrix_for(&g, &base, &sssp, 4, VICTIM, |last| {
        assert_eq!(last, history.len() as u64, "in-process and multiprocess runs disagree");
        kills.clone()
    });
}

/// Kill/resume through *budgeted* local stages (DESIGN.md §17, "How long
/// a local stage runs"): lazy-block PageRank on an `E/V > 10` R-MAT, on
/// machines slow enough that the budget refuses the dense phase's
/// sub-rounds and admits the tail's. What `doLC()` reads there that a
/// restart at a superstep boundary cannot recompute — the cost of the
/// coherency point before the stage, the charge of the sweep before it —
/// rides in the snapshot (the engine's carried record); a resumed machine
/// that read anything else would admit a different number of sub-rounds,
/// which the record's `local_subrounds` and `sim_time` both see. The
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
    let steps = common::lazy_supersteps(&history);
    let first_budgeted = steps
        .iter()
        .find(|s| s.lazy_on)
        .expect("lazy mode never turned on")
        .superstep;
    assert!(
        steps.iter().any(|s| s.lazy_on && s.subrounds == 0),
        "the budget never refused a whole stage"
    );
    assert!(steps.iter().any(|s| s.subrounds > 0), "the budget never admitted a sub-round");

    run_matrix_for(&g, &base, &PageRankDelta { tolerance }, workers, VICTIM, |last| {
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
    // the MachineState snapshot plus the engine's carried counters; the
    // scheduler itself is stateless across epochs, so resume re-plans
    // from the restored state and must land on the oracle's bits.
    run_matrix(EngineKind::DeltaAccum, 2);
}

#[test]
fn delta_recovers_bitwise_4_workers() {
    run_matrix(EngineKind::DeltaAccum, 4);
}

/// The barrier-free engines recover as the barriered ones do: a step is
/// one round with every peer, so it ends with nothing in flight
/// and its boundary is a cut a snapshot can be taken at (DESIGN.md §12).
/// Async carries nothing across it.
#[test]
fn async_recovers_bitwise() {
    run_matrix(EngineKind::PowerGraphAsync, 2);
}

/// Lazy-vertex carries its own coherency counters, and a boundary after a
/// sweep holds `deltaMsg` its next flush ships.
#[test]
fn lazy_vertex_recovers_bitwise() {
    run_matrix(EngineKind::LazyVertexAsync, 2);
}

/// The hybrid carries whether it has switched. Its victim dies after the
/// switch — before its first Async round, halfway through the rest, and
/// at the last — so the resumed machines must run Async rounds from a
/// snapshot whose carry says so.
#[test]
fn hybrid_recovers_bitwise_after_its_switch() {
    // A road lattice's SSSP wavefront is thin: the frontier goes sparse
    // a few supersteps in.
    let g = common::road_lattice(24, 5);
    let base = cfg(EngineKind::PowerSwitchHybrid);
    let sssp = Sssp::new(0u32);
    let mut traced = base.clone();
    traced.record_history = true;
    let history = run(&g, 2, &traced, &sssp).expect("in-process run").metrics.history;
    let switched = history
        .iter()
        .position(|r| bool::from_wire(&r.carry).ok() == Some(true))
        .expect("the hybrid never switched") as u64
        + 1;
    run_matrix_for(&g, &base, &sssp, 2, VICTIM, |last| {
        assert_eq!(last, history.len() as u64, "in-process and multiprocess runs disagree");
        assert!(switched < last, "the hybrid switched in its last superstep");
        let mut ns = vec![switched + 1, (switched + 1 + last) / 2, last];
        ns.dedup();
        ns
    });
}

/// Kills the victim of a 4-worker Sync SSSP gang inside round `round` of
/// its endpoint (`send:<round>:2`): after it sent the round to worker 0
/// and before it sends it to workers 2 and 3, so the survivors hold
/// different parts of the round. The restarted gang discards both on
/// fresh meshes and must land on the undisturbed run's bits.
fn kill_between_two_peers_sends(round: u64) {
    let g = matrix_graph();
    let base = cfg(EngineKind::PowerGraphSync);
    let sssp = Sssp::new(0u32);
    let (oracle, _) = launch(&g, 4, &base, &sssp, &mp_opts(vec![])).expect("oracle");
    assert_eq!(oracle.metrics.iterations, 6, "the rounds below are this run's");

    let opts = mp_opts(vec![(0, VICTIM, FailPoint::Send { round, n: 2 })]);
    let (out, restarts) = launch(&g, 4, &base, &sssp, &opts).expect("mid-round kill run");
    assert_eq!(
        common::recovered(&out),
        common::recovered(&oracle),
        "recovery after a kill between two peers' sends of round {round} is not bitwise identical"
    );
    assert_eq!(restarts, 1, "send:{round}:2 never fired (no gang restart)");
}

/// A machine's data rounds and its barriers and allreduces share one
/// numbering. A run of this job that printed each round of worker 1's
/// endpoint read 0 Gather, 1 Control, 2 Apply, 3 and 4 Control for
/// superstep 1, the same five for superstep 2 at 5–9, generation 2's
/// checkpoint barrier at 10, then superstep 3's gather at 11, its sync
/// at 12 and its apply broadcast at round 13: the round killed here. The
/// gang re-runs from the superstep-2 generation.
#[test]
fn kill_between_two_peers_sends_recovers_bitwise() {
    kill_between_two_peers_sends(13);
}

/// The same run read superstep 4 at rounds 16–20 (gather, sync, apply,
/// two syncs) and generation 4's checkpoint barrier at round 21, before
/// superstep 5's gather at 22: the round killed here. Every machine has
/// saved generation 4 when it enters that barrier, so the gang resumes
/// from it. The run's 6 supersteps are 12 data rounds, so a numbering of
/// data rounds alone never reaches 21: only a barrier's round fires.
#[test]
fn kill_inside_a_checkpoint_barrier_recovers_bitwise() {
    kill_between_two_peers_sends(21);
}

/// Two workers die at one superstep of one run: ranks 1 and 2 both abort
/// when the middle superstep begins. One gang restart recovers both —
/// the rejoin protocol this replaced could take back one dead peer per
/// link, not two at once.
#[test]
fn two_ranks_killed_at_one_superstep_recover_bitwise() {
    let g = matrix_graph();
    let workers = 4;
    let base = cfg(EngineKind::LazyBlockAsync);
    let sssp = Sssp::new(0u32);

    let (oracle, _) = launch(&g, workers, &base, &sssp, &mp_opts(vec![])).expect("oracle");
    let n = (oracle.metrics.iterations / 2).max(2);
    let kill = FailPoint::Superstep(n);
    let opts = mp_opts(vec![(0, 1, kill), (0, 2, kill)]);
    let (out, restarts) = launch(&g, workers, &base, &sssp, &opts).expect("two-kill run");

    assert_eq!(
        common::recovered(&out),
        common::recovered(&oracle),
        "recovery after ranks 1 and 2 died at superstep {n} is not bitwise identical"
    );
    assert_eq!(restarts, 1, "both kills land in one incarnation: one gang restart");
}

/// A second crash during the recovery from the first: rank 1 dies at the
/// middle superstep, and in the restarted gang rank 2 dies at the last.
/// Each costs one gang restart, and the run still lands on the oracle's
/// bits.
#[test]
fn a_second_kill_during_the_resumed_run_recovers_bitwise() {
    let g = matrix_graph();
    let workers = 4;
    let base = cfg(EngineKind::PowerGraphSync);
    let sssp = Sssp::new(0u32);

    let (oracle, _) = launch(&g, workers, &base, &sssp, &mp_opts(vec![])).expect("oracle");
    let last = oracle.metrics.iterations;
    let first = (last / 2).max(2);
    assert!(first < last, "the second kill must land after the first");
    let opts = mp_opts(vec![
        (0, 1, FailPoint::Superstep(first)),
        (1, 2, FailPoint::Superstep(last)),
    ]);
    let (out, restarts) = launch(&g, workers, &base, &sssp, &opts).expect("double-kill run");

    assert_eq!(
        common::recovered(&out),
        common::recovered(&oracle),
        "recovery after a kill at {first} and another at {last} is not bitwise identical"
    );
    assert_eq!(restarts, 2, "each incarnation's kill costs one gang restart");
}
