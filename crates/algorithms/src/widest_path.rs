//! Single-source *widest* path (maximum bottleneck bandwidth) — a max–min
//! algebra workload. Like SSSP it is idempotent (`⊕ = max`), but the
//! per-edge transform is `min(delta, capacity)` instead of `+weight`,
//! exercising a different corner of the delta contract.

use lazygraph_engine::program::DeltaExchange;
use lazygraph_engine::{EdgeCtx, LocalOrder, VertexCtx, VertexProgram};
use lazygraph_graph::VertexId;

/// The widest-path vertex program: every vertex converges to the maximum,
/// over all paths from the source, of the minimum edge weight along the
/// path (`0.0` if unreachable). Edge weights are capacities.
#[derive(Clone, Copy, Debug)]
pub struct WidestPath {
    /// The source vertex.
    pub source: VertexId,
}

impl WidestPath {
    /// Widest paths from `source`.
    pub fn new(source: impl Into<VertexId>) -> Self {
        WidestPath {
            source: source.into(),
        }
    }
}

impl VertexProgram for WidestPath {
    type VData = f32;
    type Delta = f32;

    fn name(&self) -> &'static str {
        "widest-path"
    }

    fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> f32 {
        0.0
    }

    fn init_message(&self, v: VertexId, _ctx: &VertexCtx) -> Option<f32> {
        (v == self.source).then_some(f32::INFINITY)
    }

    fn sum(&self, a: f32, b: f32) -> f32 {
        a.max(b)
    }

    fn inverse(&self, accum: f32, _a: f32) -> f32 {
        accum // idempotent max
    }

    fn apply(&self, _v: VertexId, data: &mut f32, accum: f32, _ctx: &VertexCtx) -> Option<f32> {
        if accum > *data {
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
        debug_assert!(edge.weight >= 0.0, "capacities must be non-negative");
        Some(delta.min(edge.weight))
    }

    fn exchange_policy(&self, coherent: &f32, delta: &f32) -> DeltaExchange {
        // Widths only grow; a candidate no wider than the common view is
        // useless to every replica.
        if *delta <= *coherent {
            DeltaExchange::Drop
        } else {
            DeltaExchange::Send
        }
    }

    fn local_order(&self) -> Option<LocalOrder<f32, f32>> {
        // Widest improving candidate first (the max-heap order of the
        // reference below); rejected candidates clear at once.
        Some(|width, cand| if cand > width { f64::from(*cand) } else { f64::INFINITY })
    }
}

/// Sequential reference: Dijkstra-style widest path with a max-heap.
pub fn widest_path_reference(graph: &lazygraph_graph::Graph, source: VertexId) -> Vec<f32> {
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Item(f32, u32);
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
    let n = graph.num_vertices();
    let mut width = vec![0.0f32; n];
    let mut heap = BinaryHeap::new();
    width[source.index()] = f32::INFINITY;
    heap.push(Item(f32::INFINITY, source.0));
    while let Some(Item(w, v)) = heap.pop() {
        if w < width[v as usize] {
            continue;
        }
        for (u, cap) in graph.out_edges(VertexId(v)) {
            let nw = w.min(cap);
            if nw > width[u.index()] {
                width[u.index()] = nw;
                heap.push(Item(nw, u.0));
            }
        }
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_sequential;
    use lazygraph_graph::GraphBuilder;

    fn capacity_graph() -> lazygraph_graph::Graph {
        // 0 -10-> 1 -2-> 3 ; 0 -4-> 2 -5-> 3: widest 0→3 is min(4,5)=4.
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0u32, 1u32, 10.0)
            .add_weighted_edge(1u32, 3u32, 2.0)
            .add_weighted_edge(0u32, 2u32, 4.0)
            .add_weighted_edge(2u32, 3u32, 5.0);
        b.build()
    }

    #[test]
    fn hand_computed_bottleneck() {
        let g = capacity_graph();
        let w = run_sequential(&g, &WidestPath::new(0u32));
        assert_eq!(w[0], f32::INFINITY);
        assert_eq!(w[1], 10.0);
        assert_eq!(w[2], 4.0);
        assert_eq!(w[3], 4.0, "bottleneck must route via the 4/5 branch");
    }

    #[test]
    fn sequential_matches_reference_on_random_graph() {
        let base = lazygraph_graph::generators::erdos_renyi(200, 900, 3);
        let mut b = GraphBuilder::new(base.num_vertices());
        b.extend(base.edges());
        b.randomize_weights(1.0, 100.0, 3);
        let g = b.build();
        let seq = run_sequential(&g, &WidestPath::new(0u32));
        let reference = widest_path_reference(&g, VertexId(0));
        assert_eq!(seq, reference);
    }

    #[test]
    fn unreachable_stays_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0u32, 1u32, 7.0);
        let g = b.build();
        let w = run_sequential(&g, &WidestPath::new(0u32));
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn algebra_is_max_min() {
        let p = WidestPath::new(0u32);
        assert_eq!(p.sum(3.0, 5.0), 5.0);
        let e = EdgeCtx {
            dst: VertexId(1),
            weight: 2.0,
        };
        let ctx = VertexCtx {
            out_degree: 1,
            in_degree: 0,
            degree: 1,
            num_vertices: 2,
        };
        assert_eq!(p.scatter(VertexId(0), &9.0, 9.0, &ctx, &e), Some(2.0));
    }
}
