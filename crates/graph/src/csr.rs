//! Compressed sparse row (CSR) adjacency storage.
//!
//! A [`Csr`] stores, for every vertex, a contiguous slice of (target, weight)
//! pairs. It is the storage backbone of both the global [`crate::Graph`] and
//! the per-machine local shards built by the partitioner: one allocation per
//! array, cache-friendly sequential scans, and O(1) per-vertex slicing.

use crate::types::{Edge, VertexId};

/// Immutable CSR adjacency: `offsets[v]..offsets[v+1]` indexes into
/// `targets`/`weights`.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<f32>,
}

/// Turns per-row counts stored at `counts[row + 1]` into row offsets.
fn prefix_sum(counts: &mut [u64]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
}

impl Csr {
    /// Builds a CSR straight from an edge slice: one counting pass for the
    /// offsets, one pass that drops every edge into its row's next slot.
    ///
    /// The relative order of edges sharing a source is preserved, which
    /// keeps builds deterministic; on input already in row order (what a
    /// deduplicated builder holds) the second pass is a sequential copy.
    ///
    /// # Panics
    /// If an endpoint is not below `num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        for e in edges {
            assert!(
                e.src.index() < num_vertices && e.dst.index() < num_vertices,
                "edge {:?}->{:?} out of range {num_vertices}",
                e.src,
                e.dst,
            );
        }
        Csr::by_rows(
            num_vertices,
            edges.iter().map(|e| (e.src, e.dst, e.weight)),
        )
    }

    /// The CSR of `(row, target, weight)` entries, every row below
    /// `num_rows`: rows counted, then each entry dropped into its row's
    /// next slot, so a row keeps the order its entries arrive in.
    fn by_rows(
        num_rows: usize,
        entries: impl ExactSizeIterator<Item = (VertexId, VertexId, f32)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u64; num_rows + 1];
        for (row, ..) in entries.clone() {
            offsets[row.index() + 1] += 1;
        }
        prefix_sum(&mut offsets);
        let mut cursor = offsets.clone();
        let mut targets = vec![VertexId::default(); entries.len()];
        let mut weights = vec![0.0f32; entries.len()];
        for (row, target, weight) in entries {
            let slot = &mut cursor[row.index()];
            targets[*slot as usize] = target;
            weights[*slot as usize] = weight;
            *slot += 1;
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// The build [`Csr::from_edges`] and [`Csr::transpose`] replaced — a
    /// counting sort over materialised `(src, dst, weight)` triples — kept
    /// as the oracle they are tested against.
    #[cfg(test)]
    pub(crate) fn from_triples(num_vertices: usize, edges: &[(VertexId, VertexId, f32)]) -> Self {
        let mut counts = vec![0u64; num_vertices + 1];
        for &(src, _, _) in edges {
            counts[src.index() + 1] += 1;
        }
        prefix_sum(&mut counts);
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![VertexId::default(); edges.len()];
        let mut weights = vec![0.0f32; edges.len()];
        for &(src, dst, w) in edges {
            let slot = cursor[src.index()] as usize;
            targets[slot] = dst;
            weights[slot] = w;
            cursor[src.index()] += 1;
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// The three arrays with weights as bits, for bitwise comparison.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> (&[u64], &[VertexId], Vec<u32>) {
        let weights = self.weights.iter().map(|w| w.to_bits()).collect();
        (&self.offsets, &self.targets, weights)
    }

    /// An empty CSR over `num_vertices` vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Csr {
            offsets: vec![0; num_vertices + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices (rows).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v` in this CSR.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The edge-index range covering `v`'s adjacency.
    #[inline]
    pub fn range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// Neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.range(v)]
    }

    /// Weight slice of `v`, parallel to [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[f32] {
        &self.weights[self.range(v)]
    }

    /// Iterates `(target, weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let r = self.range(v);
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }

    /// Iterates every `(src, dst, weight)` triple in row order.
    pub fn iter_all(
        &self,
    ) -> impl ExactSizeIterator<Item = (VertexId, VertexId, f32)> + Clone + '_ {
        let mut row = 0usize;
        self.targets
            .iter()
            .zip(&self.weights)
            .enumerate()
            .map(move |(i, (&dst, &w))| {
                while self.offsets[row + 1] as usize <= i {
                    row += 1;
                }
                (VertexId(row as u32), dst, w)
            })
    }

    /// Builds the transpose (reverse) of this CSR by a counting pass over
    /// its own arrays: in-degrees counted, then every edge dropped into its
    /// target's next slot in row order, so a reverse row lists its sources
    /// in the order the forward rows name it.
    pub fn transpose(&self) -> Csr {
        Csr::by_rows(
            self.num_vertices(),
            self.iter_all().map(|(src, dst, w)| (dst, src, w)),
        )
    }

    /// Checks structural invariants; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must contain at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if self.offsets.last().copied().unwrap_or(0) as usize != self.targets.len() {
            return Err("last offset must equal edge count".into());
        }
        if self.targets.len() != self.weights.len() {
            return Err("targets and weights must be parallel".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        let n = self.num_vertices();
        for &t in &self.targets {
            if t.index() >= n {
                return Err(format!("target {t:?} out of range {n}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(list: &[(u32, u32)]) -> Vec<Edge> {
        list.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    #[test]
    fn builds_and_indexes() {
        let csr = Csr::from_edges(4, &edges(&[(0, 1), (0, 2), (2, 3), (3, 0)]));
        csr.validate().unwrap();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.degree(VertexId(0)), 2);
        assert_eq!(csr.degree(VertexId(1)), 0);
        assert_eq!(csr.neighbors(VertexId(0)), &[VertexId(1), VertexId(2)]);
        assert_eq!(csr.neighbors(VertexId(3)), &[VertexId(0)]);
    }

    #[test]
    fn preserves_weights() {
        let csr = Csr::from_edges(
            2,
            &[
                Edge::weighted(0u32, 1u32, 2.5),
                Edge::weighted(1u32, 0u32, 0.5),
            ],
        );
        assert_eq!(csr.weights(VertexId(0)), &[2.5]);
        assert_eq!(csr.weights(VertexId(1)), &[0.5]);
    }

    #[test]
    fn stable_within_row() {
        // Three parallel edges 0->{3,1,2} must keep insertion order.
        let csr = Csr::from_edges(4, &edges(&[(0, 3), (0, 1), (0, 2)]));
        assert_eq!(
            csr.neighbors(VertexId(0)),
            &[VertexId(3), VertexId(1), VertexId(2)]
        );
    }

    #[test]
    fn transpose_roundtrip() {
        let csr = Csr::from_edges(5, &edges(&[(0, 1), (1, 2), (2, 0), (4, 1)]));
        let t = csr.transpose();
        t.validate().unwrap();
        assert_eq!(t.degree(VertexId(1)), 2); // from 0 and 4
        assert_eq!(t.degree(VertexId(0)), 1); // from 2
        let tt = t.transpose();
        assert_eq!(tt.num_edges(), csr.num_edges());
        for v in 0..5 {
            let v = VertexId(v);
            let mut a: Vec<_> = csr.neighbors(v).to_vec();
            let mut b: Vec<_> = tt.neighbors(v).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::empty(3);
        csr.validate().unwrap();
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.degree(VertexId(2)), 0);
        assert!(csr.edges_of(VertexId(0)).next().is_none());
    }

    #[test]
    fn iter_all_covers_everything() {
        let edges = edges(&[(0, 1), (1, 0), (1, 2), (2, 2)]);
        let csr = Csr::from_edges(3, &edges);
        assert_eq!(csr.iter_all().len(), 4);
        let mut expected: Vec<_> = edges.iter().map(|e| (e.src, e.dst, e.weight)).collect();
        let mut got: Vec<_> = csr.iter_all().collect();
        expected.sort_by_key(|e| (e.0, e.1));
        got.sort_by_key(|e| (e.0, e.1));
        assert_eq!(expected, got);
    }
}
