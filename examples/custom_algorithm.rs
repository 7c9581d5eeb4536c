//! Writing your own vertex program: reachability counting ("how many of my
//! in-neighbourhood's seeds can reach me?") as a push-style delta program.
//!
//! This demonstrates the full [`VertexProgram`] contract the LazyGraph
//! engines require (§3.1 of the paper):
//! * a commutative, associative `sum` (bitwise OR over seed masks),
//! * an `inverse` (OR is idempotent, so identity),
//! * an `apply` that folds the accumulator into the vertex value and
//!   decides whether to keep flooding.
//!
//! ```sh
//! cargo run --release --example custom_algorithm
//! ```

use lazygraph::prelude::*;
use lazygraph_engine::{EdgeCtx, VertexCtx};
use lazygraph_graph::generators::{small_world, erdos_renyi};

/// Multi-source reachability: each of up to 64 seed vertices owns one bit;
/// every vertex converges to the OR of the seeds that can reach it.
struct MultiReach {
    seeds: Vec<VertexId>,
}

impl VertexProgram for MultiReach {
    type VData = u64;
    type Delta = u64;

    fn name(&self) -> &'static str {
        "multi-reach"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> u64 {
        0
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<u64> {
        self.seeds
            .iter()
            .position(|&s| s == v)
            .map(|bit| 1u64 << bit)
    }

    fn sum(&self, a: u64, b: u64) -> u64 {
        a | b // commutative, associative, idempotent
    }

    fn inverse(&self, accum: u64, _a: u64) -> u64 {
        accum // OR is idempotent: re-applying your own delta is harmless
    }

    fn apply(&self, _v: VertexId, data: &mut u64, accum: u64, _ctx: &VertexCtx) -> Option<u64> {
        let new_bits = accum & !*data;
        if new_bits == 0 {
            return None; // nothing new reached us; stay quiet
        }
        *data |= new_bits;
        Some(new_bits) // flood only the newly learned seeds
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
}

fn main() {
    let graph = small_world(4000, 3, 0.05, 5);
    let seeds: Vec<VertexId> = (0..16).map(|i| VertexId(i * 250)).collect();
    let program = MultiReach {
        seeds: seeds.clone(),
    };

    // The custom program runs unchanged on every engine.
    for cfg in [
        EngineConfig::powergraph_sync(),
        EngineConfig::lazygraph(),
        EngineConfig::lazy_vertex_async(),
    ] {
        let result = run(&graph, 6, &cfg, &program).expect("cluster run");
        let fully_covered = result
            .values
            .iter()
            .filter(|&&m| m.count_ones() as usize == seeds.len())
            .count();
        println!(
            "{:<18} vertices reached by all {} seeds: {:>5}   ({})",
            result.metrics.engine,
            seeds.len(),
            fully_covered,
            result.metrics.summary()
        );
    }

    // Sanity: on a sparse random digraph, reachability is partial.
    let sparse = erdos_renyi(2000, 2500, 9);
    let result = run(&graph, 4, &EngineConfig::lazygraph(), &program).expect("cluster run");
    let coverage: u32 = result.values.iter().map(|m| m.count_ones()).sum();
    println!(
        "\nsmall-world mean seeds-reaching-a-vertex: {:.2} / {}",
        coverage as f64 / graph.num_vertices() as f64,
        seeds.len()
    );
    let _ = sparse;
}
