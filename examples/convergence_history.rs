//! Convergence anatomy: record the trace of a lazy run and show the
//! adaptive interval model doing its job — the first eager superstep, the
//! moment `turnOnLazy()` fires, the active-vertex trend that drives it,
//! and what each local stage was allowed (§4.2.1 of the paper; DESIGN.md
//! §17, "How long a local stage runs").
//!
//! Each record of the trace carries the engine's carried record as the
//! superstep left it, a `LazyCarry`, and machine 0's counters after it; a
//! superstep is read off the record before it and the record after it:
//! its sub-rounds and its exchange mode off the counters, the interval
//! model's state off the carry.
//!
//! Two runs, one on each side of the model's `E/V ≤ 10` split: SSSP on a
//! road graph (lazy from superstep 2, stages bounded by `3·T`) and
//! PageRank on a social graph (lazy once the active set shrinks, stages
//! budgeted by half the previous coherency point's cost).
//!
//! ```sh
//! cargo run --release --example convergence_history
//! ```

use lazygraph::prelude::*;
use lazygraph_cluster::StatsSnapshot;
use lazygraph_engine::lazy_block::LazyCarry;
use lazygraph_engine::IntervalModel;
use lazygraph_graph::Dataset;
use lazygraph_net::Wire;

/// One superstep of machine 0, as its trace tells it.
struct Step {
    superstep: u64,
    /// Whether the superstep ran a local stage (the carry before it).
    lazy_on: bool,
    /// Local sub-rounds machine 0 ran in it.
    subrounds: u64,
    /// What the interval model allowed its local stage, simulated seconds.
    budget: f64,
    /// `T` as the superstep left it.
    first_stage_time: Option<f64>,
}

fn trace<P: VertexProgram>(ds: Dataset, scale: f64, machines: usize, program: &P) -> Vec<Step> {
    let graph = ds.build_symmetric(scale);
    let mut cfg = EngineConfig::lazygraph();
    cfg.record_history = true;
    let result = run(&graph, machines, &cfg, program).expect("cluster run");
    let model = IntervalModel::new(cfg.interval, graph.ev_ratio());
    println!(
        "{} {} on {machines} machines (E/V {:.1}): {} coherency points, sim {:.3}s\n",
        ds.name(),
        program.name(),
        graph.ev_ratio(),
        result.metrics.coherency_points,
        result.metrics.sim_time
    );
    println!("step  active   trend    lazy  subrounds  T(ms)   budget(ms)  mode  sim(s)");
    println!("---------------------------------------------------------------------------");
    let mut before = LazyCarry::default();
    let mut counted = StatsSnapshot::default();
    let mut steps = Vec::new();
    for rec in &result.metrics.history {
        let after = LazyCarry::from_wire(&rec.carry).expect("a lazy-block carry");
        // The superstep that finds no pending work is the one the trend
        // does not observe.
        let observed = after.trend.observed() > before.trend.observed();
        let active = if observed { after.trend.active().unwrap_or(0) } else { 0 };
        let budget = if before.do_local {
            model.stage_budget(before.first_stage_time, before.coherency_cost)
        } else {
            0.0
        };
        let m2m = rec.counters.m2m_exchanges > counted.m2m_exchanges;
        let step = Step {
            superstep: rec.superstep,
            lazy_on: before.do_local,
            subrounds: rec.counters.local_subrounds - counted.local_subrounds,
            budget,
            first_stage_time: after.first_stage_time,
        };
        println!(
            "{:>4}  {:>6}  {:>+.3}   {:>4}  {:>9}  {:>6.3}  {:>10.3}  {:>4}  {:>6.3}",
            step.superstep,
            active,
            after.trend.value(),
            if step.lazy_on { "on" } else { "off" },
            step.subrounds,
            step.first_stage_time.unwrap_or(0.0) * 1e3,
            step.budget * 1e3,
            if m2m { "m2m" } else { "a2a" },
            rec.sim_time,
        );
        steps.push(step);
        (before, counted) = (after, rec.counters);
    }
    println!();
    steps
}

fn main() {
    // The paper's rule on a good-locality graph: first superstep eager,
    // then (E/V ≤ 10) lazy for good; the first stage runs unbounded to
    // measure T, the later ones get 3·T.
    let h = trace(Dataset::RoadNetCaLike, 0.2, 12, &Sssp::new(0u32));
    assert!(!h[0].lazy_on, "first superstep must run without a local stage");
    assert!(
        h.iter().skip(1).all(|s| s.lazy_on),
        "road graphs (E/V ≤ 10) must go lazy from superstep 2"
    );
    assert_eq!(h[1].budget, f64::INFINITY, "the first stage measures T");
    let t = h[1].first_stage_time.expect("superstep 2 measured T");
    assert!(
        h.iter().skip(1).all(|s| s.first_stage_time == Some(t)),
        "T is measured once"
    );
    assert!(
        h.iter().skip(2).all(|s| s.budget == 3.0 * t),
        "later stages are bounded by 3·T"
    );

    // Poor locality: lazy mode waits for the descent, and every stage is
    // rationed by the coherency point it postpones. While a sub-round is
    // still a sweep over most of the graph it costs more than half that
    // point, and the stage admits none — the superstep is an eager one;
    // in the sparse tail whole stages fit and run to local quiescence.
    // (Four machines on the 4× analogue, so that a machine's share of the
    // graph is large enough for a sweep of it to be dear: at the default
    // scale on twelve, every sub-round is cheap and none is refused.)
    let h = trace(Dataset::TwitterLike, 4.0, 4, &PageRankDelta::default());
    assert!(!h[0].lazy_on, "first superstep must run without a local stage");
    let lazy: Vec<_> = h.iter().filter(|s| s.lazy_on).collect();
    let refused = lazy.iter().take_while(|s| s.subrounds == 0).count();
    assert!(refused > 0, "the dense phase's stages must be refused outright");
    assert!(
        lazy[refused..].iter().any(|s| s.subrounds > 1),
        "the tail's stages must run"
    );
    println!(
        "interval-model behaviour verified: eager first superstep on both; road SSSP lazy \
         from superstep 2 under 3·T; social PageRank lazy from superstep {} with {refused} \
         stages refused outright before the tail's fit their budget",
        lazy[0].superstep
    );
}
