//! Helpers shared by the integration-test crates (`mod common;`).

#![allow(dead_code)] // each test crate uses its own subset

use lazygraph::prelude::*;
use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx};
use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};

/// A symmetrised, weighted `side × side` road lattice (the `sssp-road`
/// benchmark's graph class). Sides of ≈ 100 and up on 4–8 machines run
/// past coherency iteration `LOCAL_ORDER_FROM` with pending sets longer
/// than the ordered local stage's minimum batch, so the scheduling cut
/// (DESIGN.md §17) really defers work.
pub fn road_lattice(side: usize, seed: u64) -> Graph {
    let g = grid2d(Grid2dConfig::road(side, side, seed));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 64.0, seed);
    b.build()
}

/// A symmetrised, weighted Graph500 R-MAT of `2^scale` vertices with
/// `E/V` ≈ 17 (the `pr-social` benchmark's graph class): above the
/// interval model's locality threshold, so lazy mode is trend-gated and
/// every local stage is budgeted (DESIGN.md §17).
pub fn social_rmat(scale: u32, seed: u64) -> Graph {
    let g = rmat(RmatConfig::graph500(scale, 12, seed));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 9.0, seed);
    let g = b.build();
    assert!(g.ev_ratio() > 10.0, "social_rmat must sit above the E/V threshold");
    g
}

/// `cfg` on a simulated cluster whose machines traverse edges 100× slower
/// than the paper's. On a test-sized [`social_rmat`] a sub-round is then
/// dear next to the coherency point it postpones — as a full-graph sweep
/// is on `pr-social` — so the stage budget really refuses sub-rounds
/// instead of admitting every one of them for being tiny.
pub fn slow_machines(mut cfg: EngineConfig) -> EngineConfig {
    cfg.cost.teps /= 100.0;
    cfg
}

/// `cfg` with the stage budget withheld: an infinite `ev_threshold` puts
/// any graph on the paper's branch of the interval model (lazy from the
/// second iteration, first stage to quiescence, later ones `≤ 3·T`).
pub fn budget_withheld(cfg: EngineConfig) -> EngineConfig {
    cfg.with_interval(IntervalPolicy::Adaptive {
        ev_threshold: f64::INFINITY,
        trend_threshold: 0.07,
        local_bound_factor: 3.0,
    })
}

/// `P` with its local order withheld: the same program on the
/// sweep-everything local stage. The reference an ordered run is compared
/// against — same fixpoint, more traversed edges.
pub struct Unordered<P>(pub P);

impl<P: VertexProgram> VertexProgram for Unordered<P> {
    type VData = P::VData;
    type Delta = P::Delta;

    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init_data(&self, v: VertexId, ctx: &VertexCtx) -> P::VData {
        self.0.init_data(v, ctx)
    }
    fn init_message(&self, v: VertexId, ctx: &VertexCtx) -> Option<P::Delta> {
        self.0.init_message(v, ctx)
    }
    fn gather(&self, v: VertexId, msg: P::Delta) -> P::Delta {
        self.0.gather(v, msg)
    }
    fn sum(&self, a: P::Delta, b: P::Delta) -> P::Delta {
        self.0.sum(a, b)
    }
    fn inverse(&self, accum: P::Delta, a: P::Delta) -> P::Delta {
        self.0.inverse(accum, a)
    }
    fn apply(
        &self,
        v: VertexId,
        data: &mut P::VData,
        accum: P::Delta,
        ctx: &VertexCtx,
    ) -> Option<P::Delta> {
        self.0.apply(v, data, accum, ctx)
    }
    fn scatter(
        &self,
        v: VertexId,
        data: &P::VData,
        delta: P::Delta,
        ctx: &VertexCtx,
        edge: &EdgeCtx,
    ) -> Option<P::Delta> {
        self.0.scatter(v, data, delta, ctx, edge)
    }
    fn exchange_policy(&self, coherent: &P::VData, delta: &P::Delta) -> DeltaExchange {
        self.0.exchange_policy(coherent, delta)
    }
    fn idempotent(&self) -> bool {
        self.0.idempotent()
    }
    fn priority(&self, data: &P::VData, accum: &P::Delta) -> f64 {
        self.0.priority(data, accum)
    }
    fn delta_bytes(&self) -> usize {
        self.0.delta_bytes()
    }
    fn vdata_bytes(&self) -> usize {
        self.0.vdata_bytes()
    }
}
