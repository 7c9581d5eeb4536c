//! PageRank-Delta (paper §3.1, Fig. 3 / Eq. 4).
//!
//! Each vertex accumulates *changes* in rank mass; once the accumulated
//! pending delta exceeds the tolerance it is flushed to out-neighbours,
//! scaled by `1/outDegree`. With damping 0.85 and teleport 0.15 the
//! fixpoint satisfies the paper's Eq. 3
//! (`PR(i) = 0.15 + 0.85 Σ PR(j)/outDeg(j)`).
//!
//! Formulated so that every quantity a vertex emits is additive: the lazy
//! coherency protocol may regroup deliveries arbitrarily and the emitted
//! totals still telescope to the same fixpoint (§3.5).

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;
use lazygraph_net::wire_record;

/// Vertex state: the converged rank plus the not-yet-flushed delta.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PageRankData {
    /// Current rank estimate.
    pub rank: f64,
    /// Accumulated rank mass not yet propagated to neighbours.
    pub pending: f64,
}

// Both components ride as IEEE-754 bit patterns, so a TCP run's vertex
// data is bit-identical to an in-proc run's.
wire_record!(PageRankData { rank, pending });

/// A vertex's value as a report prints it: its rank, to six places.
impl std::fmt::Display for PageRankData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.rank)
    }
}

/// The PageRank-Delta vertex program.
#[derive(Clone, Copy, Debug)]
pub struct PageRankDelta {
    /// Flush threshold: a vertex scatters once `|pending| > tolerance`.
    pub tolerance: f64,
}

impl Default for PageRankDelta {
    fn default() -> Self {
        PageRankDelta { tolerance: 1e-3 }
    }
}

/// Damping factor (paper uses 0.85).
pub const DAMPING: f64 = 0.85;
/// Teleport mass (paper uses 0.15).
pub const BASE_RANK: f64 = 0.15;

impl VertexProgram for PageRankDelta {
    type VData = PageRankData;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> PageRankData {
        PageRankData::default()
    }

    fn init_message(&self, _v: VertexId, _ctx: &VertexCtx) -> Option<f64> {
        // First apply produces Δ = 0.85 · (0.15/0.85) = 0.15 = BASE_RANK.
        Some(BASE_RANK / DAMPING)
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn inverse(&self, accum: f64, a: f64) -> f64 {
        accum - a
    }

    fn apply(
        &self,
        _v: VertexId,
        data: &mut PageRankData,
        accum: f64,
        _ctx: &VertexCtx,
    ) -> Option<f64> {
        let delta = DAMPING * accum;
        data.rank += delta;
        data.pending += delta;
        if data.pending.abs() > self.tolerance {
            let out = data.pending;
            data.pending = 0.0;
            Some(out)
        } else {
            None
        }
    }

    fn scatter(
        &self,
        _v: VertexId,
        _data: &PageRankData,
        delta: f64,
        ctx: &VertexCtx,
        _edge: &EdgeCtx,
    ) -> Option<f64> {
        if ctx.out_degree == 0 {
            None
        } else {
            Some(delta / ctx.out_degree as f64)
        }
    }

    fn exchange_policy(&self, _coherent: &PageRankData, delta: &f64) -> DeltaExchange {
        // Sub-tolerance mass may wait for more to accumulate — the same
        // error model the scatter threshold already defines.
        if delta.abs() < self.tolerance {
            DeltaExchange::Defer
        } else {
            DeltaExchange::Send
        }
    }

    fn reads_coherent(&self) -> bool {
        false
    }

    fn priority(&self, _data: &PageRankData, accum: &f64) -> f64 {
        // Maiter-style urgency: the pending inbox mass. Sub-tolerance
        // residue parks (its mass is conserved in the inbox) until more
        // arrives — the same error model the flush threshold defines.
        accum.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(out_degree: u32) -> VertexCtx {
        VertexCtx {
            out_degree,
            in_degree: 0,
            degree: out_degree,
            num_vertices: 10,
        }
    }

    #[test]
    fn first_apply_yields_base_rank() {
        let p = PageRankDelta::default();
        let mut d = p.init_data(VertexId(0), &ctx(2));
        let init = p.init_message(VertexId(0), &ctx(2)).unwrap();
        let out = p.apply(VertexId(0), &mut d, init, &ctx(2));
        assert!((d.rank - BASE_RANK).abs() < 1e-12);
        let flushed = out.expect("0.15 exceeds the 1e-3 tolerance");
        assert!((flushed - BASE_RANK).abs() < 1e-12);
        assert_eq!(d.pending, 0.0);
    }

    #[test]
    fn small_deltas_accumulate_until_threshold() {
        let p = PageRankDelta { tolerance: 0.1 };
        let mut d = PageRankData::default();
        // Three sub-threshold applies (pending 0.0765), then the fourth
        // (pending 0.102) tips it over.
        assert!(p.apply(VertexId(0), &mut d, 0.03, &ctx(1)).is_none());
        assert!(p.apply(VertexId(0), &mut d, 0.03, &ctx(1)).is_none());
        assert!(p.apply(VertexId(0), &mut d, 0.03, &ctx(1)).is_none());
        let out = p.apply(VertexId(0), &mut d, 0.03, &ctx(1)).unwrap();
        // Everything accumulated is emitted at once.
        assert!((out - 4.0 * 0.85 * 0.03).abs() < 1e-12);
        assert_eq!(d.pending, 0.0);
        // The rank kept every contribution regardless of flush timing.
        assert!((d.rank - 4.0 * 0.85 * 0.03).abs() < 1e-12);
    }

    #[test]
    fn scatter_divides_by_out_degree() {
        let p = PageRankDelta::default();
        let e = EdgeCtx {
            dst: VertexId(1),
            weight: 1.0,
        };
        assert_eq!(
            p.scatter(VertexId(0), &PageRankData::default(), 0.8, &ctx(4), &e),
            Some(0.2)
        );
        assert_eq!(
            p.scatter(VertexId(0), &PageRankData::default(), 0.8, &ctx(0), &e),
            None,
            "sinks drop mass"
        );
    }

    #[test]
    fn priority_is_inbox_magnitude() {
        let p = PageRankDelta::default();
        let d = PageRankData::default();
        assert_eq!(p.priority(&d, &0.25), 0.25);
        assert_eq!(p.priority(&d, &-0.25), 0.25, "negative mass is as urgent");
    }

    #[test]
    fn sum_inverse_laws() {
        let p = PageRankDelta::default();
        let s = p.sum(0.25, 0.5);
        assert_eq!(p.inverse(s, 0.25), 0.5);
        assert_eq!(p.sum(0.1, 0.2), p.sum(0.2, 0.1));
    }
}
