//! Graph transformations: the preprocessing passes a graph-engine user
//! reaches for before running algorithms — largest-component extraction,
//! degree filtering, and locality-improving relabelling.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::VertexId;

/// Extracts the largest weakly connected component, renumbering vertices
/// densely. Returns the subgraph and the old→new id mapping (`None` for
/// dropped vertices).
pub fn largest_component(graph: &Graph) -> (Graph, Vec<Option<VertexId>>) {
    let n = graph.num_vertices();
    // Union-find over the undirected closure.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for e in graph.edges() {
        let (a, b) = (find(&mut parent, e.src.0), find(&mut parent, e.dst.0));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    let mut sizes = vec![0usize; n];
    for v in 0..n as u32 {
        sizes[find(&mut parent, v) as usize] += 1;
    }
    let biggest_root = (0..n).max_by_key(|&r| sizes[r]).unwrap_or(0) as u32;
    let mut mapping: Vec<Option<VertexId>> = vec![None; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if find(&mut parent, v) == biggest_root {
            mapping[v as usize] = Some(VertexId(next));
            next += 1;
        }
    }
    let mut b = GraphBuilder::new(next as usize);
    for e in graph.edges() {
        if let (Some(s), Some(d)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
            b.add_weighted_edge(s, d, e.weight);
        }
    }
    (b.build(), mapping)
}

/// Removes vertices with total degree below `min_degree` (one pass, not
/// iterated — use k-core for the iterated fixpoint) and renumbers densely.
pub fn filter_min_degree(graph: &Graph, min_degree: usize) -> (Graph, Vec<Option<VertexId>>) {
    let n = graph.num_vertices();
    let mut mapping: Vec<Option<VertexId>> = vec![None; n];
    let mut next = 0u32;
    for v in graph.vertices() {
        if graph.degree(v) >= min_degree {
            mapping[v.index()] = Some(VertexId(next));
            next += 1;
        }
    }
    let mut b = GraphBuilder::new((next as usize).max(1));
    for e in graph.edges() {
        if let (Some(s), Some(d)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
            b.add_weighted_edge(s, d, e.weight);
        }
    }
    (b.build(), mapping)
}

/// Relabels vertices in BFS visitation order from the highest-degree
/// vertex. Improves id locality — which both the coordinated vertex-cut
/// and CSR scans exploit — on inputs with randomised ids. Unreached
/// vertices are appended after the reached ones in original order.
pub fn bfs_relabel(graph: &Graph) -> (Graph, Vec<VertexId>) {
    let n = graph.num_vertices();
    let root = graph
        .vertices()
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(VertexId(0));
    // Edges are undirected for visitation: a vertex's in-edges are its
    // out-edges when the graph is symmetric, else its transposed row.
    let reverse = (!graph.is_symmetric()).then(|| graph.out_csr().transpose());
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut frontier = vec![root];
    seen[root.index()] = true;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for v in frontier {
            order.push(v.0);
            let ins = reverse.iter().flat_map(|r| r.neighbors(v));
            for &u in graph.out_csr().neighbors(v).iter().chain(ins) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    for v in 0..n as u32 {
        if !seen[v as usize] {
            order.push(v);
        }
    }
    let mut new_id = vec![VertexId(0); n];
    for (new, &old) in order.iter().enumerate() {
        new_id[old as usize] = VertexId(new as u32);
    }
    let mut b = GraphBuilder::new(n);
    for e in graph.edges() {
        b.add_weighted_edge(new_id[e.src.index()], new_id[e.dst.index()], e.weight);
    }
    if graph.is_symmetric() {
        b.symmetrize();
    }
    (b.build(), new_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn largest_component_of_two_islands() {
        let mut b = GraphBuilder::new(7);
        // Island A: 0-1-2-3 (4 vertices); island B: 4-5 (2); isolated: 6.
        b.add_edge(0u32, 1u32)
            .add_edge(1u32, 2u32)
            .add_edge(2u32, 3u32)
            .add_edge(4u32, 5u32);
        let g = b.build();
        let (sub, mapping) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.num_edges(), 3);
        assert!(mapping[4].is_none() && mapping[5].is_none() && mapping[6].is_none());
        assert!(mapping[0].is_some());
    }

    #[test]
    fn filter_min_degree_drops_leaves() {
        let mut b = GraphBuilder::new(4);
        // Triangle 0-1-2 plus pendant 3.
        b.add_edge(0u32, 1u32)
            .add_edge(1u32, 2u32)
            .add_edge(2u32, 0u32)
            .add_edge(2u32, 3u32);
        let g = b.build();
        let (sub, mapping) = filter_min_degree(&g, 2);
        assert!(mapping[3].is_none());
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3, "triangle survives intact");
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = erdos_renyi(120, 500, 5);
        let (relabelled, new_id) = bfs_relabel(&g);
        assert_eq!(relabelled.num_vertices(), g.num_vertices());
        assert_eq!(relabelled.num_edges(), g.num_edges());
        // Degrees are a graph invariant under relabelling.
        for v in g.vertices() {
            assert_eq!(
                g.out_degree(v),
                relabelled.out_degree(new_id[v.index()]),
                "{v:?}"
            );
        }
        // The mapping is a permutation.
        let mut seen = vec![false; g.num_vertices()];
        for id in &new_id {
            assert!(!seen[id.index()], "duplicate new id");
            seen[id.index()] = true;
        }
    }

    #[test]
    fn relabel_improves_locality_of_shuffled_ids() {
        // An R-MAT graph has correlated ids; shuffle-free baseline compare:
        // after BFS relabelling, average |src − dst| should not blow up.
        let g = rmat(RmatConfig::weblike(10, 6, 9));
        let spread = |g: &Graph| {
            let s: u64 = g
                .edges()
                .map(|e| (e.src.0 as i64 - e.dst.0 as i64).unsigned_abs())
                .sum();
            s / g.num_edges() as u64
        };
        let (relabelled, _) = bfs_relabel(&g);
        // BFS order clusters neighbourhoods: locality must improve or hold.
        assert!(spread(&relabelled) <= spread(&g));
    }
}
