//! Personalised PageRank (PPR) by residual push — the single-seed variant
//! of PageRank-Delta. The teleport mass is concentrated on one seed vertex,
//! so ranks measure proximity to the seed. Same additive delta algebra as
//! global PageRank; a second tolerance-gated workload for the engines.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

use crate::pagerank::{PageRankData, DAMPING};

/// The personalised-PageRank vertex program.
#[derive(Clone, Copy, Debug)]
pub struct PersonalizedPageRank {
    /// The seed vertex receiving all teleport mass.
    pub seed: VertexId,
    /// Flush threshold on accumulated pending mass.
    pub tolerance: f64,
}

impl PersonalizedPageRank {
    /// PPR from `seed` with the default 1e-4 tolerance.
    pub fn new(seed: impl Into<VertexId>) -> Self {
        PersonalizedPageRank {
            seed: seed.into(),
            tolerance: 1e-4,
        }
    }
}

impl VertexProgram for PersonalizedPageRank {
    type VData = PageRankData;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "ppr"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> PageRankData {
        PageRankData::default()
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<f64> {
        // All teleport mass starts at the seed: rank(seed) gains
        // (1 − d) = 0.15-style mass scaled to 1.0 for readability.
        (v == self.seed).then_some(1.0 / DAMPING)
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
        // Residual push: urgency is the unapplied residual mass.
        accum.abs()
    }
}

/// Sequential reference: dense personalised power iteration.
pub fn ppr_power(graph: &lazygraph_graph::Graph, seed: VertexId, sweeps: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    let out_deg: Vec<f64> = graph
        .vertices()
        .map(|v| graph.out_degree(v) as f64)
        .collect();
    let mut rank = vec![0.0f64; n];
    for _ in 0..sweeps {
        let mut next = vec![0.0f64; n];
        next[seed.index()] = 1.0;
        for v in graph.vertices() {
            if out_deg[v.index()] == 0.0 || rank[v.index()] == 0.0 {
                continue;
            }
            let share = DAMPING * rank[v.index()] / out_deg[v.index()];
            for (u, _) in graph.out_edges(v) {
                next[u.index()] += share;
            }
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_sequential;
    use lazygraph_graph::generators::erdos_renyi;

    #[test]
    fn mass_concentrates_near_seed() {
        let g = erdos_renyi(300, 1500, 21);
        let seed = VertexId(7);
        let ranks = run_sequential(&g, &PersonalizedPageRank::new(seed));
        let seed_rank = ranks[seed.index()].rank;
        let max_other = ranks
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != seed.index())
            .map(|(_, d)| d.rank)
            .fold(0.0f64, f64::max);
        assert!(
            seed_rank > max_other,
            "seed rank {seed_rank} must dominate {max_other}"
        );
    }

    #[test]
    fn matches_power_iteration() {
        let g = erdos_renyi(200, 1400, 22);
        let seed = VertexId(3);
        let p = PersonalizedPageRank {
            seed,
            tolerance: 1e-8,
        };
        let push = run_sequential(&g, &p);
        let power = ppr_power(&g, seed, 120);
        for (v, (got, want)) in push.iter().zip(&power).enumerate() {
            assert!(
                (got.rank - want).abs() < 1e-2 * want.max(0.1),
                "vertex {v}: {} vs {}",
                got.rank,
                want
            );
        }
    }

    #[test]
    fn non_seed_vertices_start_silent() {
        let p = PersonalizedPageRank::new(5u32);
        let ctx = VertexCtx {
            out_degree: 2,
            in_degree: 2,
            degree: 4,
            num_vertices: 10,
        };
        assert!(p.init_message(VertexId(4), &ctx).is_none());
        assert!(p.init_message(VertexId(5), &ctx).is_some());
    }
}
