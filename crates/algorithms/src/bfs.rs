//! Breadth-first search levels — an extra unidirectional workload beyond
//! the paper's four, structurally SSSP with unit weights.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, LocalOrder, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

/// The BFS vertex program: each vertex converges to its hop distance from
/// the source (`u32::MAX` if unreachable).
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// The BFS root.
    pub source: VertexId,
}

impl Bfs {
    /// BFS from `source`.
    pub fn new(source: impl Into<VertexId>) -> Self {
        Bfs {
            source: source.into(),
        }
    }
}

impl VertexProgram for Bfs {
    type VData = u32;
    type Delta = u32;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> u32 {
        u32::MAX
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<u32> {
        (v == self.source).then_some(0)
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn inverse(&self, accum: u32, _a: u32) -> u32 {
        accum
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
        Some(delta + 1)
    }

    fn idempotent(&self) -> bool {
        true
    }

    fn exchange_policy(&self, coherent: &u32, delta: &u32) -> DeltaExchange {
        if *delta >= *coherent {
            DeltaExchange::Drop
        } else {
            DeltaExchange::Send
        }
    }

    fn local_order(&self) -> Option<LocalOrder<u32, u32>> {
        // Lowest improving level first (ties run together, so a local
        // stage is level-synchronous).
        Some(crate::smallest_improving_first::<u32>)
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
            num_vertices: 4,
        }
    }

    #[test]
    fn levels_increment() {
        let p = Bfs::new(0u32);
        let e = EdgeCtx {
            dst: VertexId(1),
            weight: 1.0,
        };
        assert_eq!(p.scatter(VertexId(0), &0, 0, &ctx(), &e), Some(1));
        assert_eq!(p.scatter(VertexId(0), &3, 3, &ctx(), &e), Some(4));
    }

    #[test]
    fn only_source_starts() {
        let p = Bfs::new(7u32);
        assert_eq!(p.init_message(VertexId(7), &ctx()), Some(0));
        assert_eq!(p.init_message(VertexId(6), &ctx()), None);
    }

    #[test]
    fn apply_keeps_minimum() {
        let p = Bfs::new(0u32);
        let mut d = u32::MAX;
        assert_eq!(p.apply(VertexId(1), &mut d, 2, &ctx()), Some(2));
        assert_eq!(p.apply(VertexId(1), &mut d, 4, &ctx()), None);
        assert_eq!(d, 2);
    }
}
