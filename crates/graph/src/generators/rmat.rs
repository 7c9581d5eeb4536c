//! Recursive-matrix (R-MAT / Graph500-style) generator.
//!
//! R-MAT graphs exhibit the power-law degree distributions of web and social
//! networks; the `(a, b, c, d)` quadrant probabilities control the skew.
//! Heavier `a` concentrates edges on few hubs, raising the replication
//! factor λ under vertex-cut partitioning — exactly the knob we need to
//! emulate Table 1's λ ordering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::graph::Graph;

/// Parameters of the R-MAT recursion.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Edges per vertex (the generated edge count is `edge_factor << scale`).
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to ~1.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Random seed.
    pub seed: u64,
    /// Remove self loops and duplicate edges after generation.
    pub clean: bool,
}

impl RmatConfig {
    /// Graph500 reference parameters (a=0.57, b=c=0.19): heavy skew,
    /// social-network-like.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            clean: true,
        }
    }

    /// Milder skew typical of web crawls.
    pub fn weblike(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.45,
            b: 0.22,
            c: 0.22,
            seed,
            clean: true,
        }
    }

    /// Extreme skew (hub-dominated, wiki-like).
    pub fn hub_heavy(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.65,
            b: 0.15,
            c: 0.15,
            seed,
            clean: true,
        }
    }

    /// High-skew benchmark preset (a=0.7): a handful of hubs own a large
    /// share of all edges, so machine load under a static vertex-cut is
    /// dominated by wherever those hubs land. The stress input for
    /// skew-aware hub fan-out.
    pub fn skewed(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.70,
            b: 0.12,
            c: 0.12,
            seed,
            clean: true,
        }
    }
}

/// Generates an R-MAT graph.
pub fn rmat(cfg: RmatConfig) -> Graph {
    assert!(cfg.scale < 31, "scale too large for u32 vertex ids");
    let d = 1.0 - cfg.a - cfg.b - cfg.c;
    assert!(d >= -1e-9, "quadrant probabilities exceed 1");
    let n = 1usize << cfg.scale;
    let m = cfg.edge_factor * n;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::new(n);
    builder.reserve(m);
    let ab = cfg.a + cfg.b;
    let a_frac = cfg.a / ab;
    let c_frac = cfg.c / (cfg.c + d.max(0.0)).max(f64::EPSILON);
    for _ in 0..m {
        let (mut src, mut dst) = (0usize, 0usize);
        // One level per bit, most significant first. Either way a level
        // takes two draws (noise keeps the recursion from producing a
        // deterministic fractal; standard R-MAT practice), so the quadrant
        // is picked by selecting the second threshold, not by branching on
        // a coin the predictor cannot call.
        for _ in 0..cfg.scale {
            let go_right = rng.random::<f64>() > ab;
            let go_down = rng.random::<f64>() > if go_right { c_frac } else { a_frac };
            src = src << 1 | usize::from(go_right);
            dst = dst << 1 | usize::from(go_down);
        }
        builder.add_edge(src, dst);
    }
    if cfg.clean {
        builder.remove_self_loops();
        builder.dedup();
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let g1 = rmat(RmatConfig::graph500(10, 8, 1));
        let g2 = rmat(RmatConfig::graph500(10, 8, 1));
        assert_eq!(g1.num_edges(), g2.num_edges());
        let e1: Vec<_> = g1.edges().map(|e| (e.src, e.dst)).collect();
        let e2: Vec<_> = g2.edges().map(|e| (e.src, e.dst)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = rmat(RmatConfig::graph500(10, 8, 1));
        let g2 = rmat(RmatConfig::graph500(10, 8, 2));
        let e1: Vec<_> = g1.edges().map(|e| (e.src, e.dst)).collect();
        let e2: Vec<_> = g2.edges().map(|e| (e.src, e.dst)).collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn skew_produces_hubs() {
        let g = rmat(RmatConfig::graph500(12, 8, 3));
        let n = g.num_vertices();
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        // A power-law graph has hubs far above average degree.
        assert!(
            max_deg as f64 > 10.0 * avg,
            "max degree {max_deg} not hub-like vs avg {avg}"
        );
    }

    #[test]
    fn clean_removes_loops_and_dups() {
        let g = rmat(RmatConfig::graph500(8, 16, 5));
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            assert_ne!(e.src, e.dst, "self loop survived cleaning");
            assert!(seen.insert((e.src, e.dst)), "duplicate edge survived");
        }
    }
}
