//! Invariants of the measurement plumbing itself — the quantities the
//! figures plot must obey the protocol's structure exactly.

mod common;

use lazygraph::prelude::*;
use lazygraph_cluster::Phase;
use lazygraph_graph::Dataset;

fn road() -> Graph {
    Dataset::RoadNetCaLike.build_symmetric(0.1)
}

fn social() -> Graph {
    Dataset::TwitterLike.build_symmetric(0.1)
}

#[test]
fn sync_engine_pays_three_syncs_per_superstep() {
    let g = road();
    let r = run(&g, 6, &EngineConfig::powergraph_sync(), &Sssp::new(0u32)).expect("cluster run");
    assert_eq!(
        r.metrics.global_syncs(),
        3 * r.metrics.iterations,
        "PowerGraph Sync must pay exactly 3 global syncs per superstep (§2.2)"
    );
    // And exactly two communication phases: gather and apply.
    let snap = &r.metrics.stats;
    assert!(snap.phase(Phase::Gather).est_bytes > 0);
    assert!(snap.phase(Phase::Apply).est_bytes > 0);
    assert_eq!(snap.phase(Phase::Coherency).est_bytes, 0);
    assert_eq!(snap.phase(Phase::Async).est_bytes, 0);
}

#[test]
fn lazy_engine_pays_one_sync_per_coherency_point() {
    let g = road();
    let r = run(&g, 6, &EngineConfig::lazygraph(), &Sssp::new(0u32)).expect("cluster run");
    assert_eq!(
        r.metrics.global_syncs(),
        r.metrics.coherency_points,
        "LazyBlockAsync: one global sync per data coherency point (Fig. 1(c))"
    );
    assert_eq!(
        r.metrics.a2a_exchanges + r.metrics.m2m_exchanges,
        r.metrics.coherency_points
    );
    let snap = &r.metrics.stats;
    assert_eq!(snap.phase(Phase::Gather).est_bytes, 0);
    assert_eq!(snap.phase(Phase::Apply).est_bytes, 0);
    assert!(snap.phase(Phase::Coherency).est_bytes > 0);
}

#[test]
fn async_engine_has_no_barriers() {
    let g = road();
    let r = run(&g, 4, &EngineConfig::powergraph_async(), &Sssp::new(0u32)).expect("cluster run");
    assert_eq!(r.metrics.global_syncs(), 0);
    assert!(r.metrics.stats.phase(Phase::Async).est_bytes > 0);
    assert!(r.metrics.sim_time > 0.0);
}

#[test]
fn lazy_reduces_syncs_and_traffic_on_road(// the §5.3 headline mechanism
) {
    let g = road();
    let sync = run(&g, 8, &EngineConfig::powergraph_sync(), &Sssp::new(0u32)).expect("cluster run").metrics;
    let lazy = run(&g, 8, &EngineConfig::lazygraph(), &Sssp::new(0u32)).expect("cluster run").metrics;
    assert!(
        lazy.global_syncs() * 3 < sync.global_syncs(),
        "lazy must cut global syncs by >3x on road SSSP: {} vs {}",
        lazy.global_syncs(),
        sync.global_syncs()
    );
    assert!(
        lazy.traffic_bytes() < sync.traffic_bytes(),
        "lazy must cut traffic on road SSSP: {} vs {}",
        lazy.traffic_bytes(),
        sync.traffic_bytes()
    );
    assert!(
        lazy.sim_time < sync.sim_time,
        "lazy must be faster on road SSSP"
    );
}

#[test]
fn ordered_local_stages_traverse_fewer_edges_on_a_road_lattice() {
    // A lazy local stage re-relaxes: swept whole, it is a Bellman-Ford wave
    // per sub-round over every pending vertex. Relaxing the nearest
    // pending vertices first (DESIGN.md §17) reaches the same fixpoint at
    // the same coherency points over fewer edges, in less simulated time.
    // (Not yet fewer than Sync's: only stages from `LOCAL_ORDER_FROM` on
    // are ordered, and the early, long ones still do 3× Sync's work.)
    let g = common::road_lattice(160, 7);
    let sssp = Sssp::new(0u32);
    let whole = run(&g, 4, &EngineConfig::lazygraph(), &common::Unordered(sssp)).expect("cluster run");
    let ordered = run(&g, 4, &EngineConfig::lazygraph(), &sssp).expect("cluster run");
    assert_eq!(ordered.values, whole.values);
    let (o, w) = (&ordered.metrics, &whole.metrics);
    assert_eq!(o.coherency_points, w.coherency_points);
    assert_eq!(o.traffic_bytes(), w.traffic_bytes());
    assert!(
        o.stats.edges_processed < w.stats.edges_processed && o.sim_time < w.sim_time,
        "ordered: {} edges, {} s; whole: {} edges, {} s",
        o.stats.edges_processed,
        o.sim_time,
        w.stats.edges_processed,
        w.sim_time
    );
}

#[test]
fn budgeted_local_stages_keep_lazy_pagerank_near_syncs_work() {
    // Where locality is poor a dense-phase sub-round is a full-graph sweep
    // that buys less than the coherency point it postpones; bounded by
    // `3·T` the stages ran dozens of them and lazy PageRank traversed 2.3×
    // Sync's edges on `pr-social`. Budgeted by the coherency point's cost
    // (DESIGN.md §17) the redundancy goes, and what lazy coherency is for
    // stays: fewer global syncs and fewer bytes than Sync.
    let g = common::social_rmat(12, 7);
    let pr = PageRankDelta::default();
    let on = |cfg| run(&g, 4, &common::slow_machines(cfg), &pr).expect("cluster run").metrics;
    let sync = on(EngineConfig::powergraph_sync());
    let lazy = on(EngineConfig::lazygraph());
    let withheld = on(common::budget_withheld(EngineConfig::lazygraph()));
    let edges = |m: &RunMetrics| m.stats.edges_processed;
    assert!(
        edges(&lazy) * 10 <= edges(&sync) * 11,
        "budgeted lazy PageRank traversed {} edges, Sync {}",
        edges(&lazy),
        edges(&sync)
    );
    assert!(
        edges(&withheld) * 10 > edges(&sync) * 15,
        "the control lost its redundancy ({} edges, Sync {}): the bound above proves nothing",
        edges(&withheld),
        edges(&sync)
    );
    assert!(lazy.global_syncs() < sync.global_syncs());
    assert!(lazy.traffic_bytes() < sync.traffic_bytes());
    assert!(lazy.sim_time < sync.sim_time && lazy.sim_time < withheld.sim_time);
}

#[test]
fn speedup_ordering_tracks_lambda() {
    // §5.3: "The lower λ of the input graph, the greater the speedup."
    let road = road();
    let social = social();
    let s = |g: &Graph| {
        let sync = run(g, 8, &EngineConfig::powergraph_sync(), &Sssp::new(0u32)).expect("cluster run").metrics;
        let lazy = run(g, 8, &EngineConfig::lazygraph(), &Sssp::new(0u32)).expect("cluster run").metrics;
        (lazy.lambda, sync.sim_time / lazy.sim_time)
    };
    let (road_lambda, road_speedup) = s(&road);
    let (social_lambda, social_speedup) = s(&social);
    assert!(road_lambda < social_lambda, "λ ordering broken");
    assert!(
        road_speedup > social_speedup,
        "speedup ordering must track 1/λ: road {road_speedup:.2} vs social {social_speedup:.2}"
    );
}

#[test]
fn sim_breakdown_sums_to_sim_time_for_bsp_engines() {
    let g = road();
    for cfg in [EngineConfig::powergraph_sync(), EngineConfig::lazygraph()] {
        let r = run(&g, 5, &cfg, &Sssp::new(0u32)).expect("cluster run");
        let total = r.metrics.breakdown.total();
        assert!(
            (total - r.metrics.sim_time).abs() < 0.05 * r.metrics.sim_time,
            "{}: breakdown {total} vs sim {}",
            r.metrics.engine,
            r.metrics.sim_time
        );
    }
}

#[test]
fn deterministic_metrics_for_bsp_engines() {
    // The BSP engines are fully deterministic: same graph, same config →
    // identical counted quantities AND identical simulated time.
    let g = social();
    let run_once = || {
        let r = run(&g, 6, &EngineConfig::lazygraph(), &Sssp::new(0u32)).expect("cluster run");
        (
            r.metrics.global_syncs(),
            r.metrics.traffic_bytes(),
            r.metrics.iterations,
            r.metrics.sim_time.to_bits(),
            r.values,
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn sync_engine_determinism() {
    let g = road();
    let run_once = || {
        let r = run(&g, 7, &EngineConfig::powergraph_sync(), &Sssp::new(0u32)).expect("cluster run");
        (r.metrics.global_syncs(), r.metrics.traffic_bytes(), r.metrics.sim_time.to_bits())
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn single_machine_runs_have_no_traffic() {
    let g = road();
    for cfg in [
        EngineConfig::powergraph_sync(),
        EngineConfig::lazygraph(),
        EngineConfig::powergraph_async(),
    ] {
        let r = run(&g, 1, &cfg, &Sssp::new(0u32)).expect("cluster run");
        assert_eq!(
            r.metrics.traffic_bytes(),
            0,
            "{}: single machine must not communicate",
            r.metrics.engine
        );
    }
}

#[test]
fn recovery_counters_stay_zero_without_faults() {
    // The recovery counters (DESIGN.md §12) are strictly event-driven:
    // `reconnects` only ticks on a Rejoin handshake, `snapshot_bytes`
    // only on a checkpoint save, `replay_rounds` only when a logged
    // round is re-sent to a rejoiner. An in-proc run has none of those
    // — any nonzero here means recovery machinery leaked into the
    // fault-free fast path.
    let g = road();
    for cfg in [EngineConfig::powergraph_sync(), EngineConfig::lazygraph()] {
        let r = run(&g, 4, &cfg, &Sssp::new(0u32)).expect("cluster run");
        let s = &r.metrics.stats;
        assert_eq!(s.reconnects, 0, "{}", r.metrics.engine);
        assert_eq!(s.snapshot_bytes, 0, "{}", r.metrics.engine);
        assert_eq!(s.replay_rounds, 0, "{}", r.metrics.engine);
    }
}

#[test]
fn recovery_counters_survive_wire_and_merge() {
    use lazygraph_cluster::{NetStats, StatsSnapshot};
    use lazygraph_net::Wire;

    // The counters ride the worker result files as part of the
    // StatsSnapshot Wire encoding, and the launcher aggregates them by
    // `merge` — both paths must preserve them exactly.
    let stats = NetStats::default();
    stats.record_reconnect();
    stats.record_reconnect();
    stats.record_snapshot_bytes(12_345);
    stats.record_replay_round();
    let snap = stats.snapshot();
    assert_eq!(snap.reconnects, 2);
    assert_eq!(snap.snapshot_bytes, 12_345);
    assert_eq!(snap.replay_rounds, 1);

    let back = StatsSnapshot::from_wire(&snap.to_wire()).expect("decode");
    assert_eq!(back.reconnects, snap.reconnects);
    assert_eq!(back.snapshot_bytes, snap.snapshot_bytes);
    assert_eq!(back.replay_rounds, snap.replay_rounds);

    let mut merged = StatsSnapshot::default();
    merged.merge(&snap);
    merged.merge(&back);
    assert_eq!(merged.reconnects, 4);
    assert_eq!(merged.snapshot_bytes, 24_690);
    assert_eq!(merged.replay_rounds, 2);
}

#[test]
fn zero_copy_counters_survive_wire_and_merge() {
    use lazygraph_cluster::{NetStats, StatsSnapshot};
    use lazygraph_net::Wire;

    // PR 8 counters: `zero_copy_frames` and `fold_runs` are sums across
    // workers.
    let stats = NetStats::default();
    stats.record_zero_copy_frames(5);
    stats.record_fold_runs(17);
    let snap = stats.snapshot();
    assert_eq!(snap.zero_copy_frames, 5);
    assert_eq!(snap.fold_runs, 17);

    let back = StatsSnapshot::from_wire(&snap.to_wire()).expect("decode");
    assert_eq!(back.zero_copy_frames, snap.zero_copy_frames);
    assert_eq!(back.fold_runs, snap.fold_runs);

    let other = StatsSnapshot {
        zero_copy_frames: 3,
        fold_runs: 4,
        ..Default::default()
    };
    let mut merged = StatsSnapshot::default();
    merged.merge(&snap);
    merged.merge(&other);
    assert_eq!(merged.zero_copy_frames, 8);
    assert_eq!(merged.fold_runs, 21);
}

#[test]
fn tcp_inbound_path_is_zero_copy() {
    use lazygraph_engine::TransportKind;

    // Every framed-TCP data batch should draw its payload buffer from the
    // reader's pool after warmup and route through the borrowing cursor —
    // `zero_copy_frames` is counted at the only place payload buffers are
    // born, so frames ≈ zero-copy frames proves the per-batch `Vec<Item>`
    // is gone.
    let g = road();
    for base in [EngineConfig::powergraph_sync(), EngineConfig::lazygraph()] {
        let cfg = base.with_transport(TransportKind::Tcp);
        let r = run(&g, 4, &cfg, &Sssp::new(0u32)).expect("cluster run");
        let s = &r.metrics.stats;
        assert!(
            s.zero_copy_frames > 0,
            "{}: tcp run recorded no zero-copy frames",
            r.metrics.engine
        );
    }
    // In-proc ships no frames, so the counter must stay zero there: it
    // measures the wire path, not deliveries.
    let r = run(&g, 4, &EngineConfig::lazygraph(), &Sssp::new(0u32)).expect("cluster run");
    assert_eq!(r.metrics.stats.zero_copy_frames, 0);
}

#[test]
fn fold_runs_are_deterministic_and_fingerprint_stable() {
    // `fold_runs` counts contiguous same-vertex runs in the delivered
    // segments; segment contents are part of the determinism contract, so
    // the counter must reproduce run-to-run in a fixed configuration.
    // Sender-side combining leaves one item per vertex per sender, so a
    // hot vertex's deltas sit in consecutive *segments* of its block —
    // the run fold spans those boundaries, so the default production
    // config must already vectorize on a skewed graph.
    let g = social();
    let run_once = || {
        let cfg = EngineConfig::lazygraph();
        let r = run(&g, 6, &cfg, &PageRankDelta::default()).expect("cluster run");
        (r.metrics.stats.fold_runs, r.metrics.sim_time.to_bits())
    };
    let (folds, sim) = run_once();
    assert_eq!((folds, sim), run_once());
    assert!(
        folds > 0,
        "PageRank on a social graph must fold at least one multi-delta run"
    );
}

#[test]
fn iteration_cap_reports_non_convergence() {
    let g = road();
    let mut cfg = EngineConfig::powergraph_sync();
    cfg.max_iterations = 3; // far too few for a road lattice
    let r = run(&g, 4, &cfg, &Sssp::new(0u32)).expect("cluster run");
    assert!(!r.metrics.converged);
    assert_eq!(r.metrics.iterations, 3);
}
