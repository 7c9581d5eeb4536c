//! Single-source shortest paths (SSSP), one of the paper's four evaluation
//! workloads. Min-based ⊕, hence idempotent: duplicate or regrouped
//! deliveries are harmless and `Inverse` is the identity.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, LocalOrder, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

/// The SSSP vertex program. Distances are `f32` like edge weights.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// The source vertex.
    pub source: VertexId,
}

impl Sssp {
    /// SSSP from `source`.
    pub fn new(source: impl Into<VertexId>) -> Self {
        Sssp {
            source: source.into(),
        }
    }
}

impl VertexProgram for Sssp {
    type VData = f32;
    type Delta = f32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> f32 {
        // The source too starts at ∞; its initial message 0.0 relaxes it in
        // the first apply (and thereby triggers its initial scatter).
        f32::INFINITY
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<f32> {
        (v == self.source).then_some(0.0)
    }

    fn sum(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }

    fn inverse(&self, accum: f32, _a: f32) -> f32 {
        accum // idempotent ⊕: re-applying one's own delta is a no-op
    }

    fn apply(&self, _v: VertexId, data: &mut f32, accum: f32, _ctx: &VertexCtx) -> Option<f32> {
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
        _data: &f32,
        delta: f32,
        _ctx: &VertexCtx,
        edge: &EdgeCtx,
    ) -> Option<f32> {
        debug_assert!(edge.weight >= 0.0, "SSSP requires non-negative weights");
        Some(delta + edge.weight)
    }

    fn exchange_policy(&self, coherent: &f32, delta: &f32) -> DeltaExchange {
        // A candidate no better than the last common view is a no-op for
        // every replica (distances only decrease from there).
        if *delta >= *coherent {
            DeltaExchange::Drop
        } else {
            DeltaExchange::Send
        }
    }

    fn local_order(&self) -> Option<LocalOrder<f32, f32>> {
        // Nearest improving candidate first — Dijkstra's order, so a local
        // stage settles most vertices the first time it relaxes them.
        Some(crate::smallest_improving_first::<f32>)
    }

    fn priority(&self, data: &f32, accum: &f32) -> f64 {
        // Urgency = how much this candidate would shorten the current
        // distance. A non-improving candidate prices at ≤ 0 (the
        // scheduler parks it: applying it would be a no-op), and the
        // first relaxation of an ∞ vertex prices at ∞ (top bucket).
        (*data - *accum) as f64
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
    fn source_relaxes_from_infinity() {
        let p = Sssp::new(2u32);
        assert_eq!(p.init_message(VertexId(2), &ctx()), Some(0.0));
        assert_eq!(p.init_message(VertexId(1), &ctx()), None);
        let mut d = p.init_data(VertexId(2), &ctx());
        assert_eq!(d, f32::INFINITY);
        let out = p.apply(VertexId(2), &mut d, 0.0, &ctx());
        assert_eq!(d, 0.0);
        assert_eq!(out, Some(0.0), "source must scatter its distance");
    }

    #[test]
    fn worse_distance_is_ignored() {
        let p = Sssp::new(0u32);
        let mut d = 3.0f32;
        assert_eq!(p.apply(VertexId(1), &mut d, 5.0, &ctx()), None);
        assert_eq!(d, 3.0);
        assert_eq!(p.apply(VertexId(1), &mut d, 1.5, &ctx()), Some(1.5));
        assert_eq!(d, 1.5);
    }

    #[test]
    fn scatter_adds_weight() {
        let p = Sssp::new(0u32);
        let e = EdgeCtx {
            dst: VertexId(1),
            weight: 2.5,
        };
        assert_eq!(p.scatter(VertexId(0), &0.0, 4.0, &ctx(), &e), Some(6.5));
    }

    #[test]
    fn priority_is_the_improvement() {
        let p = Sssp::new(0u32);
        assert_eq!(p.priority(&5.0, &3.0), 2.0);
        assert!(p.priority(&3.0, &5.0) <= 0.0, "non-improving parks");
        assert_eq!(p.priority(&f32::INFINITY, &3.0), f64::INFINITY);
    }

    #[test]
    fn min_is_idempotent_and_inverse_is_identity() {
        let p = Sssp::new(0u32);
        assert_eq!(p.sum(3.0, 5.0), 3.0);
        assert_eq!(p.sum(3.0, 3.0), 3.0);
        assert_eq!(p.inverse(3.0, 5.0), 3.0);
    }
}
