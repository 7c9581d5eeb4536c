//! Connected components (CC) via min-label propagation, one of the paper's
//! four evaluation workloads. Run on symmetrised graphs (each undirected
//! edge present in both directions) so labels flood whole components.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

/// The connected-components vertex program: every vertex converges to the
/// minimum vertex id in its (weakly, given symmetrisation) connected
/// component.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type VData = u32;
    type Delta = u32;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> u32 {
        // Start above every real label; the init message (own id) relaxes
        // it in the first apply and triggers the initial flood.
        u32::MAX
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<u32> {
        Some(v.0)
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn inverse(&self, accum: u32, _a: u32) -> u32 {
        accum // idempotent
    }

    fn apply(&self, _v: VertexId, data: &mut u32, accum: u32, _ctx: &VertexCtx) -> Option<u32> {
        if accum < *data {
            *data = accum;
            Some(accum)
        } else {
            None
        }
    }

    fn scatter(
        &self,
        _v: VertexId,
        _data: &u32,
        delta: u32,
        _ctx: &VertexCtx,
        _edge: &EdgeCtx,
    ) -> Option<u32> {
        Some(delta)
    }

    fn exchange_policy(&self, coherent: &u32, delta: &u32) -> DeltaExchange {
        if *delta >= *coherent {
            DeltaExchange::Drop
        } else {
            DeltaExchange::Send
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> VertexCtx {
        VertexCtx {
            out_degree: 1,
            in_degree: 1,
            degree: 2,
            num_vertices: 8,
        }
    }

    #[test]
    fn every_vertex_starts_with_its_own_id() {
        let p = ConnectedComponents;
        assert_eq!(p.init_message(VertexId(5), &ctx()), Some(5));
        let mut d = p.init_data(VertexId(5), &ctx());
        let out = p.apply(VertexId(5), &mut d, 5, &ctx());
        assert_eq!(d, 5);
        assert_eq!(out, Some(5), "first apply must flood the own label");
    }

    #[test]
    fn smaller_label_wins() {
        let p = ConnectedComponents;
        let mut d = 7u32;
        assert_eq!(p.apply(VertexId(9), &mut d, 3, &ctx()), Some(3));
        assert_eq!(d, 3);
        assert_eq!(p.apply(VertexId(9), &mut d, 5, &ctx()), None);
        assert_eq!(d, 3);
    }

    #[test]
    fn scatter_forwards_label() {
        let p = ConnectedComponents;
        let e = EdgeCtx {
            dst: VertexId(1),
            weight: 1.0,
        };
        assert_eq!(p.scatter(VertexId(0), &3, 3, &ctx(), &e), Some(3));
    }
}
