//! Determinism harness for the two-level threading model: every engine,
//! at any per-machine thread count and block size, must produce
//! byte-identical vertex values and identical counters as the sequential
//! run.
//!
//! Every engine is round-synchronous — the barriered ones sync at their
//! coherency points, the barrier-free ones (PowerGraphAsync,
//! LazyVertexAsync, the hybrid's tail) still take one round with every
//! peer a step — so every engine is deterministic end-to-end: its
//! [`RunRecord`] — values, sim-time, breakdown, deterministic counters,
//! trace — must match at every thread count, transport and machine
//! count, PageRank included.

mod common;

use common::{budget_withheld, road_lattice, slow_machines, social_rmat, stage_bound, Unordered};
use lazygraph::prelude::*;
use lazygraph_algorithms::WidestPath;
use lazygraph_cluster::StatsSnapshot;
use lazygraph_engine::TransportKind;
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_graph::{Dataset, GraphBuilder};
use lazygraph_net::Wire;

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

/// The record of `program`'s run on `g` over `machines` machines.
fn record<P: VertexProgram>(
    g: &Graph,
    machines: usize,
    cfg: &EngineConfig,
    program: &P,
) -> RunRecord {
    run(g, machines, cfg, program).expect("cluster run").record()
}

/// Runs `program` across the thread-count grid and asserts every record
/// equals threads=1's.
fn assert_thread_invariant<P: VertexProgram>(
    g: &Graph,
    engine: EngineKind,
    machines: usize,
    bidirectional: bool,
    program: &P,
) {
    let baseline = record(g, machines, &cfg(engine, 1, bidirectional), program);
    for threads in THREADS {
        assert_eq!(
            record(g, machines, &cfg(engine, threads, bidirectional), program),
            baseline,
            "{engine:?}/{} diverged at threads={threads}, machines={machines}",
            program.name()
        );
    }
}

/// The matrix every engine is held to: threads {1, 2, 8} × machines
/// {1, 4}, SSSP, PageRank and CC, values and every counter bitwise. The
/// barriered engines run it here; the barrier-free ones run the same
/// cells in the three tests below.
#[test]
fn bsp_engines_bitwise_identical_across_threads_and_machines() {
    let g = test_graph();
    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        for machines in MACHINES {
            assert_thread_invariant(&g, engine, machines, false, &Sssp::new(0u32));
            assert_thread_invariant(&g, engine, machines, false, &PageRankDelta::default());
            assert_thread_invariant(&g, engine, machines, true, &ConnectedComponents);
        }
    }
}

/// The barrier-free engines take one round with every peer a step, their
/// batches sorted by sender like everyone's, so they owe the barriered
/// engines' bar: values and every counter bitwise.
const BARRIER_FREE: [EngineKind; 3] = [
    EngineKind::PowerGraphAsync,
    EngineKind::LazyVertexAsync,
    EngineKind::PowerSwitchHybrid,
];

#[test]
fn async_engines_bitwise_identical_at_one_machine() {
    let g = test_graph();
    for engine in BARRIER_FREE {
        assert_thread_invariant(&g, engine, 1, false, &Sssp::new(0u32));
        assert_thread_invariant(&g, engine, 1, false, &PageRankDelta::default());
        assert_thread_invariant(&g, engine, 1, true, &ConnectedComponents);
    }
}

#[test]
fn async_engines_exact_values_for_idempotent_algebras_across_machines() {
    // Min-based algebras reach the same fixpoint in any arrival order; a
    // round step fixes that order too, so the counters must match as well.
    let g = test_graph();
    for engine in BARRIER_FREE {
        assert_thread_invariant(&g, engine, 4, false, &Sssp::new(0u32));
        assert_thread_invariant(&g, engine, 4, true, &ConnectedComponents);
    }
}

#[test]
fn async_pagerank_across_machines_stays_within_tolerance() {
    // PageRank's ⊕ is a float sum, so only a fixed fold order keeps it
    // bitwise. Each round folds in sender order, so at machines=4 the bar
    // is bitwise — inside any tolerance band — and the counters match.
    let g = test_graph();
    for engine in BARRIER_FREE {
        assert_thread_invariant(&g, engine, 4, false, &PageRankDelta::default());
    }
}

#[test]
fn block_size_never_changes_results() {
    let g = test_graph();
    let program = PageRankDelta::default();
    let baseline = record(&g, 4, &cfg(EngineKind::LazyBlockAsync, 4, false), &program);
    for block_size in [1usize, 7, 509, 1 << 20] {
        let c = cfg(EngineKind::LazyBlockAsync, 4, false).with_block_size(block_size);
        let got = record(&g, 4, &c, &program);
        assert_eq!(got, baseline, "block_size={block_size} changed the run");
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
    // so the record must be the same on every transport and thread count
    // (TCP's measured frame bytes are telemetry, outside the record).
    let g = test_graph();
    let program = PageRankDelta::default();
    for machines in [1usize, 2, 4] {
        let baseline = record(&g, machines, &cfg(EngineKind::DeltaAccum, 1, false), &program);
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            for threads in THREADS {
                let c = cfg(EngineKind::DeltaAccum, threads, false).with_transport(transport);
                assert_eq!(
                    record(&g, machines, &c, &program),
                    baseline,
                    "delta run diverged on {transport:?}, threads={threads}, machines={machines}"
                );
            }
        }
        // Same config twice: no hidden global state in the scheduler.
        let c = cfg(EngineKind::DeltaAccum, 8, false);
        let (a, b) = (record(&g, machines, &c, &program), record(&g, machines, &c, &program));
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

/// Runs `program` under `lazy(threads)` on {in-proc, TCP} × threads
/// {1, 2, 4} and asserts every record equals the in-proc,
/// single-threaded one, which it returns.
fn assert_transport_thread_invariant<P: VertexProgram>(
    g: &Graph,
    machines: usize,
    lazy: impl Fn(usize) -> EngineConfig,
    program: &P,
) -> RunRecord {
    let baseline = record(g, machines, &lazy(1), program);
    assert!(baseline.converged, "{}: machines={machines}", program.name());
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        for threads in [1usize, 2, 4] {
            let c = lazy(threads).with_transport(transport);
            assert_eq!(
                record(g, machines, &c, program),
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
            record(g, machines, &lazy(2).with_block_size(7), &program),
            baseline,
            "{name}: block size changed an ordered run at machines={machines}"
        );
        // Anti-vacuity, and the point of the order: the same program on
        // the sweep-everything stage reaches the same values over more
        // edges — so the cut really deferred work in the runs above. (One
        // machine is one local stage from one source: BFS is already
        // level-synchronous there, so only "no more" is owed.)
        let unordered = record(g, machines, &lazy(1), &Unordered(program));
        let fixpoint = (unordered.values, unordered.converged);
        assert_eq!(fixpoint, (baseline.values, true), "{name}: the order changed the fixpoint");
        let (ordered, unordered) =
            (baseline.counters.edges_processed, unordered.counters.edges_processed);
        assert!(
            ordered < unordered || (machines == 1 && ordered == unordered),
            "{name}, machines={machines}: ordered stage traversed {ordered} edges, \
             unordered {unordered}"
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

/// The first golden of simulated figures: SSSP, BFS and widest path — the
/// programs with a local order — at 4 machines on the road lattice the
/// bitwise matrix above runs, each under a stage bound that cuts the
/// ordered stages short (a hundredth of `T`, as `tests/fault_tolerance.rs`
/// kills inside them) and under the paper's `3·T`. Every figure is a
/// literal, recorded at `4c68105` and re-recorded on `0b18599` with
/// `LOCAL_ORDER_FROM` 4 → 3 (ROADMAP item 2(a)'s third step): the values
/// digests did not move, the clock and the counters did. A change meant to
/// move what an ordered stage does — a bucketed cut (item 19), ordering
/// earlier stages (item 2(a)) — re-records it on purpose and says so in its
/// change log; any other change leaves it as it stands.
#[test]
fn ordered_stages_match_their_golden() {
    /// A golden's six figures, each a field of the run's record: the
    /// values digest, the `sim_time` bits, `counters.edges_processed`,
    /// `counters.applies`, `counters.local_subrounds` and
    /// `counters.coherency_points`.
    type Golden = [u64; 6];
    fn check<P: VertexProgram + Copy>(g: &Graph, program: P, goldens: [Golden; 2]) {
        let name = program.name();
        for (factor, golden) in [0.01, 3.0].into_iter().zip(goldens) {
            let lazy = stage_bound(cfg(EngineKind::LazyBlockAsync, 2, false), factor);
            let got = record(g, 4, &lazy, &program);
            assert!(got.converged, "{name} at {factor}·T");
            let [values, sim_time, edges_processed, applies, local_subrounds, coherency_points] =
                golden;
            let want = RunRecord {
                values,
                sim_time,
                counters: StatsSnapshot {
                    edges_processed,
                    applies,
                    local_subrounds,
                    coherency_points,
                    ..got.counters
                },
                ..got.clone()
            };
            assert_eq!(got, want, "{name} at {factor}·T moved off its golden");
            // Anti-vacuity: the cut deferred work in the pinned run.
            let unordered = record(g, 4, &lazy, &Unordered(program));
            let fixpoint = (unordered.values, unordered.converged);
            assert_eq!(fixpoint, (got.values, true), "{name}: the order changed the fixpoint");
            let (ordered, unordered_edges) =
                (edges_processed, unordered.counters.edges_processed);
            assert!(
                ordered < unordered_edges,
                "{name} at {factor}·T: ordered {ordered} edges, unordered {unordered_edges}"
            );
            // Under the paper's bound the order also wins the clock. (Cut
            // short at 0.01·T it loses it for BFS and widest path:
            // EXPERIMENTS.md, "Ordered local stages, step three".)
            if factor == 3.0 {
                let (ordered, unordered) =
                    (f64::from_bits(sim_time), f64::from_bits(unordered.sim_time));
                assert!(
                    ordered < unordered,
                    "{name} at 3·T: ordered {ordered} s, unordered {unordered} s"
                );
            }
        }
    }
    let g = road_lattice(96, 11);
    check(&g, Sssp::new(0u32), [
        [0x92e91f3e1f4a3319, 0x3ff8149b227645a7, 805_063, 342_355, 1_707, 38],
        [0x92e91f3e1f4a3319, 0x3fe0c570be334ae6, 842_505, 406_063, 4_033, 14],
    ]);
    check(&g, Bfs::new(0u32), [
        [0xc71174c6183571f9, 0x4007135507323d1f, 285_403, 166_787, 1_175, 72],
        [0xc71174c6183571f9, 0x3fdb0164440f5df4, 245_805, 154_627, 2_441, 12],
    ]);
    check(&g, WidestPath::new(0u32), [
        [0xce36a2a5f87d4f0c, 0x400b6386d3a023d9, 481_222, 260_971, 1_926, 85],
        [0xce36a2a5f87d4f0c, 0x3fd5fb00c77b2942, 306_170, 168_099, 1_830, 10],
    ]);
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
        let withheld = record(g, machines, &budget_withheld(lazy(1)), program);
        assert!(withheld.converged, "{name}, machines={machines}: withheld");
        let (edges, withheld_edges) =
            (baseline.counters.edges_processed, withheld.counters.edges_processed);
        let (subrounds, withheld_subrounds) =
            (baseline.counters.local_subrounds, withheld.counters.local_subrounds);
        assert!(
            subrounds < withheld_subrounds
                && (edges < withheld_edges || (machines == 1 && edges == withheld_edges)),
            "{name}, machines={machines}: budgeted {subrounds} sub-rounds over {edges} edges, \
             withheld {withheld_subrounds} over {withheld_edges}",
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
    let cut = record(&web, 4, &lazy, &sssp);
    let whole = record(&web, 4, &lazy, &Unordered(sssp));
    assert!(cut.converged, "the budgeted, ordered run did not converge");
    let fixpoint = (whole.values, whole.converged);
    assert_eq!(fixpoint, (cut.values, true), "the order changed the fixpoint");
    assert!(
        cut.counters.local_subrounds > whole.counters.local_subrounds,
        "no budgeted stage was cut: {} sub-rounds vs {}",
        cut.counters.local_subrounds,
        whole.counters.local_subrounds
    );
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
    let baseline = record(&g, 4, &fan(1), &program);
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        for threads in THREADS {
            assert_eq!(
                record(&g, 4, &fan(threads).with_transport(transport), &program),
                baseline,
                "fanned-out run diverged on {transport:?}, threads={threads}"
            );
        }
    }
    // Placement neutrality: same value bits as the unfanned static
    // partition (only the values: another placement is another run).
    let plain = fan(4).with_hub_fanout(HubFanoutConfig::default());
    let off = record(&g, 4, &plain, &program);
    assert_eq!(baseline.values, off.values, "hub fan-out changed SSSP values");
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same config twice — catches hidden global state (hash seeds, pool
    // scheduling) leaking into results even when thread counts agree.
    let g = test_graph();
    for engine in [
        EngineKind::PowerGraphSync,
        EngineKind::LazyBlockAsync,
        EngineKind::PowerGraphAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ] {
        let (c, pagerank) = (cfg(engine, 8, false), PageRankDelta::default());
        let (a, b) = (record(&g, 4, &c, &pagerank), record(&g, 4, &c, &pagerank));
        assert_eq!(a, b, "{engine:?} not reproducible run-to-run");
    }
}

/// A graph whose weights are all `1.0` stores none, in its CSR and in its
/// shards. The same graph with one weight nudged to 2.0 is weighted, so
/// every shard of it stores a weight per edge; with that weight set back
/// to exactly `1.0` in its shard file, both placements hold the same
/// edges, and SSSP (which reads weights) and PageRank must run on them
/// bitwise alike — values, `sim_time`, traffic and every other counter.
#[test]
fn unit_weights_run_alike_stored_or_elided() {
    let raw = road_lattice(24, 5);
    let mut edges: Vec<Edge> = raw.edges().map(|e| Edge::new(e.src, e.dst)).collect();
    let unit = Graph::from_edges(raw.num_vertices(), &edges);
    let at = edges.len() / 3;
    edges[at].weight = 2.0;
    let nudged = Graph::from_edges(raw.num_vertices(), &edges);
    assert!(unit.out_csr().is_unweighted() && !nudged.out_csr().is_unweighted());

    for engine in [EngineKind::LazyBlockAsync, EngineKind::PowerGraphSync] {
        let cfg = EngineConfig::lazygraph()
            .with_engine(engine)
            .with_threads(1)
            .with_block_size(64);
        let elided = lazygraph_engine::place(&unit, 4, &cfg).expect("placed");
        let stored =
            unit_weights_stored(lazygraph_engine::place(&nudged, 4, &cfg).expect("placed"));
        for (shard, unit_shard) in stored.shards.iter().zip(&elided.shards) {
            assert_eq!(
                shard.to_wire().len(),
                unit_shard.to_wire().len() + 4 * shard.num_local_edges()
            );
            for l in 0..shard.num_local() as u32 {
                assert!(shard.out_edges(l).eq(unit_shard.out_edges(l)), "local {l}");
            }
        }
        let sssp = |dg| run_on(dg, &cfg, &Sssp::new(0u32)).expect("cluster run").record();
        let pagerank =
            |dg| run_on(dg, &cfg, &PageRankDelta::default()).expect("cluster run").record();
        for (what, a, b) in [
            ("sssp", sssp(&elided), sssp(&stored)),
            ("pagerank", pagerank(&elided), pagerank(&stored)),
        ] {
            assert!(a.converged, "{engine:?}/{what}");
            assert_eq!(a, b, "{engine:?}/{what}");
        }
    }
}

/// `dg` with every stored weight of 2.0 set back to exactly `1.0` in its
/// shard file — the last section, one `f32` per edge — and decoded again.
fn unit_weights_stored(
    mut dg: lazygraph_partition::DistributedGraph,
) -> lazygraph_partition::DistributedGraph {
    for shard in &mut dg.shards {
        let mut file = shard.to_wire();
        let weights = file.len() - 4 * shard.num_local_edges();
        for w in file[weights..].chunks_exact_mut(4) {
            if w == 2.0f32.to_le_bytes() {
                w.copy_from_slice(&1.0f32.to_le_bytes());
            }
        }
        *shard =
            lazygraph_partition::LocalShard::from_wire(&file).expect("a patched shard decodes");
    }
    dg
}
