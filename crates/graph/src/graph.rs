//! The global (user-view) directed graph.
//!
//! In the paper's terms this is the graph "from a user view" (§2.2): the
//! partitioner turns it into the per-machine system view. It keeps the
//! forward CSR and each vertex's in-degree: every reader of the user view —
//! the coordinated vertex-cut, the edge splitter's degree criterion (§4),
//! the k-core initialiser, PageRank's out-degree scaling — walks edges
//! forward and asks for degrees, so a reverse CSR (as large as the forward
//! one) would be held for nothing.

use crate::csr::Csr;
use crate::types::{Edge, VertexId};

/// An immutable directed graph with per-edge `f32` weights. An unweighted
/// graph — every weight bitwise `1.0` — stores none; its edges read `1.0`
/// ([`Csr::is_unweighted`]).
#[derive(Clone, Debug)]
pub struct Graph {
    out: Csr,
    in_degree: Vec<u32>,
    symmetric: bool,
}

impl Graph {
    /// Builds a graph from an edge list. Prefer [`crate::GraphBuilder`] for
    /// deduplication / symmetrisation options.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        Graph::from_csr(Csr::from_edges(num_vertices, edges), false)
    }

    pub(crate) fn from_csr(out: Csr, symmetric: bool) -> Self {
        let in_degree = out.in_degrees();
        Graph {
            out,
            in_degree,
            symmetric,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Whether the builder marked this graph as symmetrised (every edge has
    /// its reverse). Bidirectional algorithms (CC, k-core) expect this.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Edge-to-vertex ratio `E/V`, the locality feature of the adaptive
    /// interval model (§4.2.1).
    pub fn ev_ratio(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_degree[v.index()] as usize
    }

    /// Total degree (`in + out`) of `v` — the "degree" used by k-core and
    /// the edge splitter's high/low classification.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Out-neighbours of `v` with weights.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        self.out.edges_of(v)
    }

    /// Iterates every directed edge in row order: ascending source, a
    /// row's edges as the forward CSR stores them. An edge's position here
    /// is its *edge index* — what assignments and split plans are keyed by.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        self.out
            .iter_all()
            .map(|(src, dst, weight)| Edge { src, dst, weight })
    }

    /// All vertex ids, `0..V`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// The forward CSR.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// Structural validation: the forward CSR's invariants, and in-degrees
    /// that count its targets.
    pub fn validate(&self) -> Result<(), String> {
        self.out.validate()?;
        if self.in_degree != self.out.in_degrees() {
            return Err("in-degrees disagree with the forward CSR".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        Graph::from_edges(
            4,
            &[
                Edge::new(0u32, 1u32),
                Edge::new(0u32, 2u32),
                Edge::new(1u32, 3u32),
                Edge::new(2u32, 3u32),
            ],
        )
    }

    #[test]
    fn degrees() {
        let g = diamond();
        g.validate().unwrap();
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(0)), 0);
        assert_eq!(g.in_degree(VertexId(3)), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert_eq!(g.ev_ratio(), 1.0);
    }

    #[test]
    fn in_degrees_are_the_transpose_degrees() {
        let g = diamond();
        let reverse = g.out_csr().transpose();
        for v in g.vertices() {
            assert_eq!(g.in_degree(v), reverse.degree(v), "{v:?}");
        }
    }

    #[test]
    fn edge_iteration_matches_count() {
        let g = diamond();
        assert_eq!(g.edges().count(), g.num_edges());
        assert_eq!(g.vertices().count(), g.num_vertices());
    }
}
