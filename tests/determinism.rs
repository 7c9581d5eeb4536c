//! Determinism harness for the two-level threading model: every engine,
//! at any per-machine thread count and block size, must produce
//! byte-identical vertex values — and, wherever the engine itself is
//! schedule-free, identical counters — as the sequential run.
//!
//! The BSP-shaped engines (PowerGraphSync and LazyBlockAsync, whose
//! coherency points are barriered) are deterministic end-to-end: values,
//! NetStats, and sim-time must all match bitwise at every thread count
//! and machine count. The barrier-free engines (PowerGraphAsync,
//! LazyVertexAsync, and the hybrid's tail) are only racy *across*
//! machines — batch arrival order is scheduling — so they get the full
//! bitwise bar at one machine, the bitwise value bar for idempotent
//! algebras (SSSP, CC) at four machines, and a tolerance bar for PageRank
//! at four machines.

mod common;

use common::{budget_withheld, road_lattice, slow_machines, social_rmat, Unordered};
use lazygraph::prelude::*;
use lazygraph_algorithms::WidestPath;
use lazygraph_engine::TransportKind;
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_graph::{Dataset, GraphBuilder};

const THREADS: [usize; 3] = [1, 2, 8];
const MACHINES: [usize; 2] = [1, 4];

fn test_graph() -> Graph {
    let g = rmat(RmatConfig::graph500(9, 6, 5));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 9.0, 5);
    b.build()
}

fn cfg(engine: EngineKind, threads: usize, bidirectional: bool) -> EngineConfig {
    EngineConfig::lazygraph()
        .with_engine(engine)
        .with_bidirectional(bidirectional)
        .with_threads(threads)
        .with_block_size(64) // small enough that every stage really chunks
}

/// Byte-faithful rendering of the final values: `{:?}` on finite floats
/// round-trips, so string equality here is bitwise equality.
fn run_fingerprint<P: VertexProgram>(
    g: &Graph,
    machines: usize,
    cfg: &EngineConfig,
    program: &P,
) -> (String, String) {
    let r = run(g, machines, cfg, program).expect("cluster run");
    let values = format!("{:?}", r.values);
    // Pool hit/miss depends on whether a recycled buffer has travelled back
    // through the return channel by acquisition time — pure cross-thread
    // timing, telemetry only. Every other counter is part of the contract.
    let mut stats = r.metrics.stats;
    stats.pool_hits = 0;
    stats.pool_misses = 0;
    // How many deliveries coalesce into vectorized runs depends on the
    // block partitioning (a run cannot cross a block boundary), so the
    // counter varies with block_size by design — vectorization telemetry,
    // not part of the contract. Values must still match bitwise.
    stats.fold_runs = 0;
    let counters = format!(
        "iters={} coh={} sub={} a2a={} m2m={} syncs={} stats={:?} sim={:?} conv={}",
        r.metrics.iterations,
        r.metrics.coherency_points,
        r.metrics.local_subrounds,
        r.metrics.a2a_exchanges,
        r.metrics.m2m_exchanges,
        r.metrics.global_syncs(),
        stats,
        r.metrics.sim_time,
        r.metrics.converged,
    );
    (values, counters)
}

/// Runs `program` across the thread-count grid and asserts every
/// fingerprint component selected by `check_counters` matches threads=1.
fn assert_thread_invariant<P: VertexProgram>(
    g: &Graph,
    engine: EngineKind,
    machines: usize,
    bidirectional: bool,
    program: &P,
    check_counters: bool,
) {
    let baseline = run_fingerprint(g, machines, &cfg(engine, 1, bidirectional), program);
    for threads in THREADS {
        let got = run_fingerprint(g, machines, &cfg(engine, threads, bidirectional), program);
        assert_eq!(
            got.0, baseline.0,
            "{engine:?}/{} values diverged at threads={threads}, machines={machines}",
            program.name()
        );
        if check_counters {
            assert_eq!(
                got.1, baseline.1,
                "{engine:?}/{} counters diverged at threads={threads}, machines={machines}",
                program.name()
            );
        }
    }
}

#[test]
fn bsp_engines_bitwise_identical_across_threads_and_machines() {
    let g = test_graph();
    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        for machines in MACHINES {
            assert_thread_invariant(&g, engine, machines, false, &Sssp::new(0u32), true);
            assert_thread_invariant(&g, engine, machines, false, &PageRankDelta::default(), true);
            assert_thread_invariant(&g, engine, machines, true, &ConnectedComponents, true);
        }
    }
}

#[test]
fn async_engines_bitwise_identical_at_one_machine() {
    let g = test_graph();
    for engine in [
        EngineKind::PowerGraphAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ] {
        assert_thread_invariant(&g, engine, 1, false, &Sssp::new(0u32), true);
        assert_thread_invariant(&g, engine, 1, false, &PageRankDelta::default(), true);
        assert_thread_invariant(&g, engine, 1, true, &ConnectedComponents, true);
    }
}

#[test]
fn async_engines_exact_values_for_idempotent_algebras_across_machines() {
    // Min-based algebras reach the same fixpoint no matter the arrival
    // order, so even the barrier-free engines owe bitwise values here
    // (counters legitimately vary with cross-machine timing).
    let g = test_graph();
    for engine in [EngineKind::PowerGraphAsync, EngineKind::LazyVertexAsync] {
        assert_thread_invariant(&g, engine, 4, false, &Sssp::new(0u32), false);
        assert_thread_invariant(&g, engine, 4, true, &ConnectedComponents, false);
    }
}

#[test]
fn async_pagerank_across_machines_stays_within_tolerance() {
    // PageRank's ⊕ is a float sum and the engine stops once residual
    // deltas drop under the program tolerance, so two arrival orders can
    // legitimately land anywhere within that residual of each other: the
    // bar at machines=4 is a tolerance-derived band, not bitwise.
    let g = test_graph();
    for engine in [EngineKind::PowerGraphAsync, EngineKind::LazyVertexAsync] {
        let program = PageRankDelta::default();
        let band = 10.0 * program.tolerance;
        let base = run(&g, 4, &cfg(engine, 1, false), &program).expect("cluster run").values;
        for threads in [2, 8] {
            let got = run(&g, 4, &cfg(engine, threads, false), &program).expect("cluster run").values;
            for (v, (a, b)) in base.iter().zip(&got).enumerate() {
                assert!(
                    (a.rank - b.rank).abs() <= band * a.rank.abs().max(1.0),
                    "{engine:?} pagerank vertex {v}: {} vs {} at threads={threads}",
                    a.rank,
                    b.rank
                );
            }
        }
    }
}

#[test]
fn block_size_never_changes_results() {
    let g = test_graph();
    let program = PageRankDelta::default();
    let baseline = run_fingerprint(
        &g,
        4,
        &cfg(EngineKind::LazyBlockAsync, 4, false),
        &program,
    );
    for block_size in [1usize, 7, 509, 1 << 20] {
        let c = cfg(EngineKind::LazyBlockAsync, 4, false).with_block_size(block_size);
        let got = run_fingerprint(&g, 4, &c, &program);
        assert_eq!(
            (got.0, got.1),
            (baseline.0.clone(), baseline.1.clone()),
            "block_size={block_size} changed the run"
        );
    }
}

#[test]
fn delta_engine_converges_to_dense_oracle() {
    // The bucket scheduler only reorders and defers work; parked
    // sub-tolerance mass is the same error model the dense single-machine
    // reference (`oracle::delta_dense_fixpoint`) applies, so the scheduled
    // 4-machine run must land within a tolerance-derived band of it.
    let g = test_graph();
    let pr = PageRankDelta::default();
    let (oracle_vals, _epochs, oracle_converged) =
        lazygraph_engine::oracle::delta_dense_fixpoint(&g, &pr, pr.tolerance, 100_000);
    assert!(oracle_converged, "dense delta oracle must converge");
    let r = run(&g, 4, &cfg(EngineKind::DeltaAccum, 4, false), &pr).expect("cluster run");
    assert!(r.metrics.converged, "scheduled delta engine must converge");
    let band = 20.0 * pr.tolerance;
    for (v, (got, want)) in r.values.iter().zip(&oracle_vals).enumerate() {
        assert!(
            (got.rank - want.rank).abs() <= band * want.rank.abs().max(1.0),
            "pagerank vertex {v}: scheduled {} vs oracle {}",
            got.rank,
            want.rank
        );
    }

    let sssp = Sssp::new(0u32);
    let (oracle_vals, _epochs, oracle_converged) =
        lazygraph_engine::oracle::delta_dense_fixpoint(&g, &sssp, 1e-3, 100_000);
    assert!(oracle_converged);
    let r = run(&g, 4, &cfg(EngineKind::DeltaAccum, 4, false), &sssp).expect("cluster run");
    assert!(r.metrics.converged);
    for (v, (got, want)) in r.values.iter().zip(&oracle_vals).enumerate() {
        if got.is_infinite() && want.is_infinite() {
            continue; // both unreachable
        }
        assert!(
            (got - want).abs() <= 0.05,
            "sssp vertex {v}: scheduled {got} vs oracle {want}"
        );
    }
}

#[test]
fn delta_engine_bitwise_deterministic_across_transports_and_threads() {
    // Within a machine count the epoch plan is a pure function of state,
    // so values must be bitwise identical on every transport and thread
    // count; the full counter fingerprint must also hold thread-invariant
    // on the in-proc transport (TCP measures real frame bytes, which are
    // part of the wire contract but not the thread contract).
    let g = test_graph();
    let program = PageRankDelta::default();
    for machines in [1usize, 2, 4] {
        let baseline = run_fingerprint(
            &g,
            machines,
            &cfg(EngineKind::DeltaAccum, 1, false),
            &program,
        );
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            for threads in THREADS {
                let c = cfg(EngineKind::DeltaAccum, threads, false).with_transport(transport);
                let got = run_fingerprint(&g, machines, &c, &program);
                assert_eq!(
                    got.0, baseline.0,
                    "delta values diverged on {transport:?}, threads={threads}, machines={machines}"
                );
                if transport == TransportKind::InProc {
                    assert_eq!(
                        got.1, baseline.1,
                        "delta counters diverged at threads={threads}, machines={machines}"
                    );
                }
            }
        }
        // Same config twice: no hidden global state in the scheduler.
        let c = cfg(EngineKind::DeltaAccum, 8, false);
        let a = run_fingerprint(&g, machines, &c, &program);
        let b = run_fingerprint(&g, machines, &c, &program);
        assert_eq!(a, b, "delta engine not reproducible at machines={machines}");
    }
}

#[test]
fn delta_engine_skips_work_the_lazy_engine_processes() {
    // The point of the scheduler: sub-tolerance vertices park instead of
    // burning applies. On the PageRank workload the delta engine must
    // record skipped vertices and fewer applies than lazy-block.
    let g = test_graph();
    let program = PageRankDelta::default();
    let delta = run(&g, 4, &cfg(EngineKind::DeltaAccum, 4, false), &program)
        .expect("cluster run");
    let lazy = run(&g, 4, &cfg(EngineKind::LazyBlockAsync, 4, false), &program)
        .expect("cluster run");
    assert!(
        delta.metrics.stats.delta_skipped_vertices > 0,
        "scheduler never parked a vertex"
    );
    assert!(delta.metrics.stats.sched_epochs > 0);
    assert!(delta.metrics.stats.bucket_high_water > 0);
    assert!(
        delta.metrics.stats.applies < lazy.metrics.stats.applies,
        "delta applies {} not below lazy applies {}",
        delta.metrics.stats.applies,
        lazy.metrics.stats.applies
    );
}

// ---------------------------------------------------------------------------
// Ordered local stages (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// What an ordered run owes bitwise: the values, the simulated clock, and
/// the two counters the scheduling cut moves.
fn ordered_fingerprint<P: VertexProgram>(
    g: &Graph,
    machines: usize,
    cfg: &EngineConfig,
    program: &P,
) -> (String, u64, u64, u64) {
    let r = run(g, machines, cfg, program).expect("cluster run");
    assert!(r.metrics.converged);
    (
        format!("{:?}", r.values),
        r.metrics.sim_time.to_bits(),
        r.metrics.stats.edges_processed,
        r.metrics.local_subrounds,
    )
}

/// Runs `program` under `lazy(threads)` on {in-proc, TCP} × threads
/// {1, 2, 4} and asserts every fingerprint equals the in-proc,
/// single-threaded one, which it returns.
fn assert_transport_thread_invariant<P: VertexProgram>(
    g: &Graph,
    machines: usize,
    lazy: impl Fn(usize) -> EngineConfig,
    program: &P,
) -> (String, u64, u64, u64) {
    let baseline = ordered_fingerprint(g, machines, &lazy(1), program);
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        for threads in [1usize, 2, 4] {
            let c = lazy(threads).with_transport(transport);
            assert_eq!(
                ordered_fingerprint(g, machines, &c, program),
                baseline,
                "{}: lazy run diverged on {transport:?}, threads={threads}, machines={machines}",
                program.name()
            );
        }
    }
    baseline
}

fn assert_ordered_stage_invariant<P: VertexProgram + Copy>(g: &Graph, program: P) {
    let name = program.name();
    for machines in [1usize, 4, 8] {
        let lazy = |threads| cfg(EngineKind::LazyBlockAsync, threads, false);
        let baseline = assert_transport_thread_invariant(g, machines, lazy, &program);
        // The cut selects by key, never by position in the worklist, so
        // the block size (which shapes activation order) cannot matter.
        assert_eq!(
            ordered_fingerprint(g, machines, &lazy(2).with_block_size(7), &program),
            baseline,
            "{name}: block size changed an ordered run at machines={machines}"
        );
        // Anti-vacuity, and the point of the order: the same program on
        // the sweep-everything stage reaches the same values over more
        // edges — so the cut really deferred work in the runs above. (One
        // machine is one local stage from one source: BFS is already
        // level-synchronous there, so only "no more" is owed.)
        let unordered = ordered_fingerprint(g, machines, &lazy(1), &Unordered(program));
        assert_eq!(unordered.0, baseline.0, "{name}: the order changed the fixpoint");
        assert!(
            baseline.2 < unordered.2 || (machines == 1 && baseline.2 == unordered.2),
            "{name}, machines={machines}: ordered stage traversed {} edges, unordered {}",
            baseline.2,
            unordered.2
        );
    }
}

#[test]
fn ordered_local_stages_bitwise_identical_across_threads_transports_and_machines() {
    // The scheduling cut is a function of which vertices are pending and
    // of their keys alone, so a run of a program with a local order is as
    // schedule-free as any other lazy-block run.
    let g = road_lattice(96, 11);
    assert_ordered_stage_invariant(&g, Sssp::new(0u32));
    assert_ordered_stage_invariant(&g, Bfs::new(0u32));
    assert_ordered_stage_invariant(&g, WidestPath::new(0u32));
}

// ---------------------------------------------------------------------------
// Budgeted local stages (DESIGN.md §17, "How long a local stage runs")
// ---------------------------------------------------------------------------

fn assert_budgeted_stage_invariant<P: VertexProgram>(g: &Graph, program: &P) {
    let name = program.name();
    for machines in [1usize, 4, 8] {
        let lazy = |threads| slow_machines(cfg(EngineKind::LazyBlockAsync, threads, false));
        let baseline = assert_transport_thread_invariant(g, machines, lazy, program);
        // Anti-vacuity, and the point of the budget: with it withheld the
        // same run sweeps whole stages the budget would have refused — more
        // sub-rounds, and (where there is anybody to be incoherent with)
        // more edges. One machine runs the same sweeps under either name.
        let withheld = ordered_fingerprint(g, machines, &budget_withheld(lazy(1)), program);
        assert!(
            baseline.3 < withheld.3
                && (baseline.2 < withheld.2 || (machines == 1 && baseline.2 == withheld.2)),
            "{name}, machines={machines}: budgeted {} sub-rounds over {} edges, withheld {} over {}",
            baseline.3,
            baseline.2,
            withheld.3,
            withheld.2
        );
    }
}

#[test]
fn budgeted_local_stages_bitwise_identical_across_threads_transports_and_machines() {
    // Every input of the budgeted `doLC()` is a simulated quantity: the
    // coherency point's charge comes out of the bundled reduction, the
    // stage's elapsed time and the previous sweep's charge off this
    // machine's own `SimClock`. None of them sees the host, so a run whose
    // stages are cut short by the budget is as schedule-free as any other.
    let g = social_rmat(10, 5);
    assert_budgeted_stage_invariant(&g, &PageRankDelta::default());

    // SSSP declares a local order, so its budgeted stages from
    // `LOCAL_ORDER_FROM` on are also cut — on a graph where it runs that
    // long: an R-MAT's handful of supersteps are over first, the web
    // analogue (E/V ≈ 25, strong locality) takes fourteen.
    let web = Dataset::Uk2005Like.build_symmetric(0.1);
    let sssp = Sssp::new(0u32);
    assert_budgeted_stage_invariant(&web, &sssp);
    // Both really are live in one stage: with the order withheld the same
    // budgeted run reaches the same values in fewer, larger sub-rounds.
    let lazy = slow_machines(cfg(EngineKind::LazyBlockAsync, 1, false));
    let cut = ordered_fingerprint(&web, 4, &lazy, &sssp);
    let whole = ordered_fingerprint(&web, 4, &lazy, &Unordered(sssp));
    assert_eq!(cut.0, whole.0, "the order changed the fixpoint");
    assert!(cut.3 > whole.3, "no budgeted stage was cut: {} sub-rounds vs {}", cut.3, whole.3);
}

// ---------------------------------------------------------------------------
// Skew-aware hub fan-out (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// High-skew R-MAT (a = 0.7): a handful of hubs own a large share of all
/// edges, and the adversarial partition drops every hub shard on machine
/// 0 — the stress input hub fan-out exists for.
fn skew_graph() -> Graph {
    let g = rmat(RmatConfig::skewed(9, 8, 9));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 9.0, 5);
    b.build()
}

#[test]
fn hub_fanout_bitwise_deterministic_and_value_neutral() {
    // Hub fan-out is a partition-time pass: replicas of a split hub are
    // ordinary mirrors, so (a) a fanned-out run must be bitwise identical
    // across transports and thread counts, and (b) for a min-algebra
    // program the placement cannot change the values at all.
    let g = skew_graph();
    let program = Sssp::new(0u32);
    let fan = |threads: usize| {
        EngineConfig::lazygraph()
            .with_engine(EngineKind::LazyBlockAsync)
            .with_threads(threads)
            .with_block_size(64)
            .with_partition(PartitionStrategy::AdversarialHubs)
            .with_hub_fanout(HubFanoutConfig::all_machines())
    };
    let baseline = run_fingerprint(&g, 4, &fan(1), &program);
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        for threads in THREADS {
            let got = run_fingerprint(&g, 4, &fan(threads).with_transport(transport), &program);
            assert_eq!(
                got.0, baseline.0,
                "fanned-out values diverged on {transport:?}, threads={threads}"
            );
            if transport == TransportKind::InProc {
                assert_eq!(
                    got.1, baseline.1,
                    "fanned-out counters diverged at threads={threads}"
                );
            }
        }
    }
    // Placement neutrality: same bits as the unfanned static partition.
    let plain = fan(4).with_hub_fanout(HubFanoutConfig::default());
    let off = run(&g, 4, &plain, &program).expect("cluster run");
    let on = run(&g, 4, &fan(4), &program).expect("cluster run");
    assert_eq!(
        format!("{:?}", on.values),
        format!("{:?}", off.values),
        "hub fan-out changed SSSP values"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same config twice — catches hidden global state (hash seeds, pool
    // scheduling) leaking into results even when thread counts agree.
    let g = test_graph();
    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        let c = cfg(engine, 8, false);
        let a = run_fingerprint(&g, 4, &c, &PageRankDelta::default());
        let b = run_fingerprint(&g, 4, &c, &PageRankDelta::default());
        assert_eq!(a, b, "{engine:?} not reproducible run-to-run");
    }
}
