//! Convergence anatomy: record the per-round trace of a lazy run and show
//! the adaptive interval model doing its job — the first eager iteration,
//! the moment `turnOnLazy()` fires, the active-vertex trend that drives
//! it, and why each local stage stopped where it did (§4.2.1 of the
//! paper; DESIGN.md §17, "How long a local stage runs").
//!
//! Two runs, one on each side of the model's `E/V ≤ 10` split: SSSP on a
//! road graph (lazy from iteration 2, stages bounded by `3·T`) and
//! PageRank on a social graph (lazy once the active set shrinks, stages
//! budgeted by half the previous coherency point's cost).
//!
//! ```sh
//! cargo run --release --example convergence_history
//! ```

use lazygraph::prelude::*;
use lazygraph_engine::metrics::IterationRecord;
use lazygraph_graph::Dataset;

fn trace<P: VertexProgram>(
    ds: Dataset,
    scale: f64,
    machines: usize,
    program: &P,
) -> Vec<IterationRecord> {
    let graph = ds.build_symmetric(scale);
    let mut cfg = EngineConfig::lazygraph();
    cfg.record_history = true;
    let result = run(&graph, machines, &cfg, program).expect("cluster run");
    println!(
        "{} {} on {machines} machines (E/V {:.1}): {} coherency points, sim {:.3}s\n",
        ds.name(),
        program.name(),
        graph.ev_ratio(),
        result.metrics.coherency_points,
        result.metrics.sim_time
    );
    println!("round  active   trend    lazy  subrounds  stage(ms)  budget(ms)  mode  sim(s)");
    println!("-----------------------------------------------------------------------------");
    let mut prev: Option<u64> = None;
    for rec in &result.metrics.history {
        let trend = match prev {
            Some(p) if p > 0 => (p as f64 - rec.pending as f64) / p as f64,
            _ => 0.0,
        };
        prev = Some(rec.pending);
        println!(
            "{:>5}  {:>6}  {:>+.3}   {:>4}  {:>9}  {:>9.3}  {:>10.3}  {:>4}  {:>6.3}",
            rec.iteration,
            rec.pending,
            trend,
            if rec.lazy_on { "on" } else { "off" },
            rec.local_subrounds,
            rec.local_stage_s * 1e3,
            rec.stage_budget_s * 1e3,
            if rec.used_m2m { "m2m" } else { "a2a" },
            rec.sim_time,
        );
    }
    println!();
    result.metrics.history
}

fn main() {
    // The paper's rule on a good-locality graph: first iteration eager,
    // then (E/V ≤ 10) lazy for good; the first stage runs unbounded to
    // measure T, the later ones get 3·T.
    let h = trace(Dataset::RoadNetCaLike, 0.2, 12, &Sssp::new(0u32));
    assert!(!h[0].lazy_on, "first iteration must run without a local stage");
    assert!(
        h.iter().skip(1).all(|r| r.lazy_on),
        "road graphs (E/V ≤ 10) must go lazy from iteration 2"
    );
    assert_eq!(h[1].stage_budget_s, f64::INFINITY, "the first stage measures T");
    let t = h[1].local_stage_s;
    assert!(
        h.iter().skip(2).all(|r| r.stage_budget_s == 3.0 * t),
        "later stages are bounded by 3·T"
    );

    // Poor locality: lazy mode waits for the descent, and every stage is
    // rationed by the coherency point it postpones. While a sub-round is
    // still a sweep over most of the graph it costs more than half that
    // point, and the stage admits none — the iteration is an eager one;
    // in the sparse tail whole stages fit and run to local quiescence.
    // (Four machines on the 4× analogue, so that a machine's share of the
    // graph is large enough for a sweep of it to be dear: at the default
    // scale on twelve, every sub-round is cheap and none is refused.)
    let h = trace(Dataset::TwitterLike, 4.0, 4, &PageRankDelta::default());
    assert!(!h[0].lazy_on, "first iteration must run without a local stage");
    let lazy: Vec<_> = h.iter().filter(|r| r.lazy_on).collect();
    let refused = lazy.iter().take_while(|r| r.local_subrounds == 0).count();
    assert!(refused > 0, "the dense phase's stages must be refused outright");
    assert!(
        lazy[refused..].iter().any(|r| r.local_subrounds > 1),
        "the tail's stages must run"
    );
    println!(
        "interval-model behaviour verified: eager first iteration on both; road SSSP lazy \
         from iteration 2 under 3·T; social PageRank lazy from iteration {} with {refused} \
         stages refused outright before the tail's fit their budget",
        lazy[0].iteration
    );
}
