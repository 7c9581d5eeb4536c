//! Helpers shared by the integration-test crates (`mod common;`).

#![allow(dead_code)] // each test crate uses its own subset

use lazygraph::prelude::*;
use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx};
use lazygraph_graph::generators::{grid2d, Grid2dConfig};

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
