//! k-core decomposition (paper Fig. 1(a), Eqs. 1–2).
//!
//! Iteratively deletes vertices with fewer than `k` surviving neighbours.
//! `v.core` starts at the degree; every deleted neighbour sends `1` per
//! connecting edge; a vertex whose core drops below `k` is deleted
//! (core ← 0) and floods `1` to its neighbours exactly once. Deletion
//! counts are additive, so the lazy coherency algebra applies with true
//! subtraction as `Inverse`.
//!
//! Run on symmetrised graphs: `out_degree` is then the undirected degree
//! and scatters reach all neighbours.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

/// The k-core decomposition vertex program.
#[derive(Clone, Copy, Debug)]
pub struct KCore {
    /// Minimum degree of the core subgraph.
    pub k: u32,
}

impl KCore {
    /// k-core with the given `k` (the paper's example uses 3).
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        KCore { k }
    }
}

impl VertexProgram for KCore {
    type VData = u32;
    type Delta = u32;

    fn name(&self) -> &'static str {
        "kcore"
    }

    fn init_data(&self, _v: VertexId, ctx: &VertexCtx) -> u32 {
        // On a symmetrised graph, out-degree == undirected degree.
        ctx.out_degree
    }

    fn init_message(&self, _v: VertexId, _ctx: &VertexCtx) -> Option<u32> {
        // Activate everyone with a zero deletion count: the first apply
        // deletes every vertex whose initial degree is already below k.
        Some(0)
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    fn inverse(&self, accum: u32, a: u32) -> u32 {
        accum - a
    }

    fn apply(&self, _v: VertexId, data: &mut u32, accum: u32, _ctx: &VertexCtx) -> Option<u32> {
        if *data == 0 {
            return None; // already deleted
        }
        *data = data.saturating_sub(accum);
        if *data < self.k {
            *data = 0;
            Some(1) // flood the deletion exactly once
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

    fn exchange_policy(&self, coherent: &u32, _delta: &u32) -> DeltaExchange {
        // Deletion counts aimed at an already-deleted vertex are no-ops
        // for every replica (apply ignores them once core == 0).
        if *coherent == 0 {
            DeltaExchange::Drop
        } else {
            DeltaExchange::Send
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(degree: u32) -> VertexCtx {
        VertexCtx {
            out_degree: degree,
            in_degree: degree,
            degree: 2 * degree,
            num_vertices: 16,
        }
    }

    #[test]
    fn low_degree_vertex_deleted_at_init() {
        let p = KCore::new(3);
        let mut core = p.init_data(VertexId(0), &ctx(2));
        assert_eq!(core, 2);
        let out = p.apply(VertexId(0), &mut core, 0, &ctx(2));
        assert_eq!(core, 0);
        assert_eq!(out, Some(1), "deletion floods 1");
    }

    #[test]
    fn surviving_vertex_stays_quiet() {
        let p = KCore::new(3);
        let mut core = 5u32;
        assert_eq!(p.apply(VertexId(0), &mut core, 1, &ctx(5)), None);
        assert_eq!(core, 4);
    }

    #[test]
    fn deletion_happens_once() {
        let p = KCore::new(3);
        let mut core = 3u32;
        assert_eq!(p.apply(VertexId(0), &mut core, 1, &ctx(3)), Some(1));
        assert_eq!(core, 0);
        // Further deletion notices are ignored.
        assert_eq!(p.apply(VertexId(0), &mut core, 2, &ctx(3)), None);
        assert_eq!(core, 0);
    }

    #[test]
    fn saturating_subtraction() {
        let p = KCore::new(2);
        let mut core = 3u32;
        // A burst of 10 deletions at once must not underflow.
        assert_eq!(p.apply(VertexId(0), &mut core, 10, &ctx(3)), Some(1));
        assert_eq!(core, 0);
    }

    #[test]
    fn additive_inverse_law() {
        let p = KCore::new(3);
        assert_eq!(p.inverse(p.sum(4, 9), 4), 9);
    }
}
