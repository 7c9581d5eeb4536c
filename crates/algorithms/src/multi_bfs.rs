//! Multi-source BFS over a 64-seed bit mask plus the radii/diameter
//! estimator built on it (HADI/flajolet-style but exact for ≤64 seeds).
//!
//! Each of up to 64 seeds owns one bit; a vertex's value packs, per seed,
//! whether the seed has reached it. The ⊕ is bitwise OR (idempotent), so
//! the program stresses a non-numeric idempotent algebra, and running it
//! repeatedly with hop counting yields eccentricity lower bounds and a
//! diameter estimate.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

/// Reachability masks from up to 64 seeds.
#[derive(Clone, Debug)]
pub struct MultiSourceBfs {
    /// The seed vertices (≤ 64).
    pub seeds: Vec<VertexId>,
}

impl MultiSourceBfs {
    /// A multi-source BFS from the given seeds.
    pub fn new(seeds: Vec<VertexId>) -> Self {
        assert!(!seeds.is_empty() && seeds.len() <= 64, "1..=64 seeds");
        MultiSourceBfs { seeds }
    }

    /// `k` deterministic, distinct pseudo-random seeds for an `n`-vertex
    /// graph.
    pub fn spread_seeds(n: usize, k: usize, salt: u64) -> Vec<VertexId> {
        assert!(k <= 64 && k <= n);
        let mut seeds = Vec::with_capacity(k);
        let mut x = salt;
        while seeds.len() < k {
            x = lazygraph_graph::hash::mix64(x);
            let v = VertexId((x % n as u64) as u32);
            if !seeds.contains(&v) {
                seeds.push(v);
            }
        }
        seeds
    }
}

impl VertexProgram for MultiSourceBfs {
    type VData = u64;
    type Delta = u64;

    fn name(&self) -> &'static str {
        "multi-bfs"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> u64 {
        0
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<u64> {
        let mask = self
            .seeds
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == v)
            .fold(0u64, |m, (bit, _)| m | (1 << bit));
        (mask != 0).then_some(mask)
    }

    fn sum(&self, a: u64, b: u64) -> u64 {
        a | b
    }

    fn inverse(&self, accum: u64, _a: u64) -> u64 {
        accum // OR is idempotent
    }

    fn apply(&self, _v: VertexId, data: &mut u64, accum: u64, _ctx: &VertexCtx) -> Option<u64> {
        let new_bits = accum & !*data;
        if new_bits == 0 {
            return None;
        }
        *data |= new_bits;
        Some(new_bits)
    }

    fn scatter(
        &self,
        _v: VertexId,
        _data: &u64,
        delta: u64,
        _ctx: &VertexCtx,
        _edge: &EdgeCtx,
    ) -> Option<u64> {
        Some(delta)
    }

    fn exchange_policy(&self, coherent: &u64, delta: &u64) -> DeltaExchange {
        // Bits the common view already holds are no-ops for every replica.
        if *delta & !*coherent == 0 {
            DeltaExchange::Drop
        } else {
            DeltaExchange::Send
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{bfs_levels, run_sequential};
    use lazygraph_graph::generators::erdos_renyi;

    #[test]
    fn masks_match_individual_bfs() {
        let g = erdos_renyi(200, 800, 31);
        let seeds = MultiSourceBfs::spread_seeds(g.num_vertices(), 8, 1);
        let program = MultiSourceBfs::new(seeds.clone());
        let masks = run_sequential(&g, &program);
        for (bit, &s) in seeds.iter().enumerate() {
            let levels = bfs_levels(&g, s);
            for v in g.vertices() {
                let reached = levels[v.index()] != u32::MAX;
                let bit_set = masks[v.index()] & (1 << bit) != 0;
                assert_eq!(reached, bit_set, "seed {s:?} vertex {v:?}");
            }
        }
    }

    #[test]
    fn spread_seeds_distinct_and_deterministic() {
        let a = MultiSourceBfs::spread_seeds(1000, 16, 9);
        let b = MultiSourceBfs::spread_seeds(1000, 16, 9);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn or_algebra_laws() {
        let p = MultiSourceBfs::new(vec![VertexId(0)]);
        assert_eq!(p.sum(0b101, 0b011), 0b111);
        assert_eq!(p.sum(0b101, 0b101), 0b101);
        assert_eq!(
            p.exchange_policy(&0b111, &0b101),
            lazygraph_engine::program::DeltaExchange::Drop
        );
        assert_eq!(
            p.exchange_policy(&0b001, &0b101),
            lazygraph_engine::program::DeltaExchange::Send
        );
    }
}
