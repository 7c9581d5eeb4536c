//! Mutable graph construction with the clean-up passes a loader needs:
//! self-loop removal, parallel-edge deduplication, symmetrisation, and
//! deterministic random weight assignment for SSSP workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::Csr;
use crate::graph::Graph;
use crate::types::{Edge, VertexId};

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<Edge>,
    symmetric: bool,
}

impl GraphBuilder {
    /// A builder over a fixed vertex set `0..num_vertices`.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            symmetric: false,
        }
    }

    /// A builder that takes over an already collected edge vector.
    pub(crate) fn with_edges(num_vertices: usize, edges: Vec<Edge>) -> Self {
        GraphBuilder {
            num_vertices,
            edges,
            symmetric: false,
        }
    }

    /// Pre-reserves capacity for `n` additional edges.
    pub fn reserve(&mut self, n: usize) -> &mut Self {
        self.edges.reserve(n);
        self
    }

    /// Adds one directed edge with unit weight.
    pub fn add_edge(&mut self, src: impl Into<VertexId>, dst: impl Into<VertexId>) -> &mut Self {
        self.edges.push(Edge::new(src, dst));
        self
    }

    /// Adds one directed edge with an explicit weight.
    pub fn add_weighted_edge(
        &mut self,
        src: impl Into<VertexId>,
        dst: impl Into<VertexId>,
        weight: f32,
    ) -> &mut Self {
        self.edges.push(Edge::weighted(src, dst, weight));
        self
    }

    /// Bulk-adds edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = Edge>) -> &mut Self {
        self.edges.extend(edges);
        self
    }

    /// Current number of staged edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Drops `v -> v` edges.
    pub fn remove_self_loops(&mut self) -> &mut Self {
        self.edges.retain(|e| e.src != e.dst);
        self
    }

    /// Collapses parallel edges, keeping the *minimum* weight per `(src,
    /// dst)` pair (the natural choice for distance-like weights). Leaves
    /// the edges in `(src, dst)` order.
    pub fn dedup(&mut self) -> &mut Self {
        self.sort_edges();
        self.edges.dedup_by_key(|e| (e.src, e.dst));
        self
    }

    /// Brings the edges into `(src, dst, weight)` order, weights by
    /// `total_cmp`. Input already in order — whatever came out of a built
    /// graph — costs one scan.
    fn sort_edges(&mut self) {
        if !self.edges.is_sorted_by(|a, b| edge_order(a, b).is_le()) {
            self.edges = sorted_by_rows(self.num_vertices, self.edges.iter().copied());
        }
    }

    /// Adds the reverse of every edge (same weight) and dedups; marks the
    /// graph symmetric. Bidirectional algorithms (CC, k-core) require this.
    ///
    /// # Panics
    /// If an endpoint is not below the vertex count.
    pub fn symmetrize(&mut self) -> &mut Self {
        self.sort_edges();
        // With the forward half in order, grouping the reversed edges by
        // their new source leaves every row in order as well (it lists its
        // targets as the forward rows named it): one counting pass.
        let reversed = sorted_by_rows(
            self.num_vertices,
            self.edges
                .iter()
                .map(|e| Edge::weighted(e.dst, e.src, e.weight)),
        );
        // Merge from the back into the grown forward half: the write
        // position never catches up with the unread forward edges.
        let forward = self.edges.len();
        self.edges.extend_from_slice(&reversed);
        let (mut i, mut j) = (forward, forward);
        while j > 0 {
            if i > 0 && edge_order(&self.edges[i - 1], &reversed[j - 1]).is_gt() {
                self.edges[i + j - 1] = self.edges[i - 1];
                i -= 1;
            } else {
                self.edges[i + j - 1] = reversed[j - 1];
                j -= 1;
            }
        }
        self.edges.dedup_by_key(|e| (e.src, e.dst));
        self.symmetric = true;
        self
    }

    /// Replaces all weights with uniform draws from `lo..hi`, seeded —
    /// deterministic across runs, used by the SSSP workloads.
    pub fn randomize_weights(&mut self, lo: f32, hi: f32, seed: u64) -> &mut Self {
        assert!(lo < hi, "empty weight range");
        let mut rng = StdRng::seed_from_u64(seed);
        // Parallel edges created later by symmetrize() should agree on the
        // weight of (u,v) and (v,u); we hash the endpoint pair into the seed
        // stream instead of drawing sequentially when symmetric.
        if self.symmetric {
            for e in &mut self.edges {
                let (a, b) = if e.src <= e.dst {
                    (e.src, e.dst)
                } else {
                    (e.dst, e.src)
                };
                let mut pair_rng =
                    StdRng::seed_from_u64(seed ^ ((a.0 as u64) << 32 | b.0 as u64));
                e.weight = pair_rng.random_range(lo..hi);
            }
        } else {
            for e in &mut self.edges {
                e.weight = rng.random_range(lo..hi);
            }
        }
        self
    }

    /// Finalises into an immutable [`Graph`]: the forward CSR is filled
    /// straight from the staged edges, which are released before the
    /// reverse CSR is derived from it.
    ///
    /// # Panics
    /// If an endpoint is not below the vertex count.
    pub fn build(self) -> Graph {
        let out = Csr::from_edges(self.num_vertices, &self.edges);
        drop(self.edges);
        Graph::from_csr(out, self.symmetric)
    }
}

/// `edges` in `(src, dst, weight)` order: a stable counting pass groups
/// them by source, then a row that did not come out in order is sorted on
/// its own — a hub costs its own `d log d`, never a share of a global sort.
/// Edges that compare equal are the same bits, so the unstable row sort has
/// one possible result.
///
/// # Panics
/// If an endpoint is not below `num_vertices`.
fn sorted_by_rows(
    num_vertices: usize,
    edges: impl ExactSizeIterator<Item = Edge> + Clone,
) -> Vec<Edge> {
    let mut cursor = vec![0usize; num_vertices + 1];
    for e in edges.clone() {
        assert!(
            e.src.index() < num_vertices && e.dst.index() < num_vertices,
            "edge {:?}->{:?} out of range {num_vertices}",
            e.src,
            e.dst,
        );
        cursor[e.src.index() + 1] += 1;
    }
    for row in 1..cursor.len() {
        cursor[row] += cursor[row - 1];
    }
    let mut sorted = vec![Edge::new(0u32, 0u32); edges.len()];
    for e in edges {
        let slot = &mut cursor[e.src.index()];
        sorted[*slot] = e;
        *slot += 1;
    }
    // Every cursor now stands at the end of its row.
    let mut start = 0;
    for &end in &cursor[..num_vertices] {
        let row = &mut sorted[start..end];
        if !row.is_sorted_by(|a, b| edge_order(a, b).is_le()) {
            row.sort_unstable_by(edge_order);
        }
        start = end;
    }
    sorted
}

/// `(src, dst, weight)` order, weights by `total_cmp`: a total order in
/// which equal means bitwise identical.
fn edge_order(a: &Edge, b: &Edge) -> std::cmp::Ordering {
    (a.src, a.dst)
        .cmp(&(b.src, b.dst))
        .then(a.weight.total_cmp(&b.weight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The set-up path this module replaced, kept as the oracle the linear
    /// passes are tested against: a full stable comparison sort for every
    /// `dedup`, the edge list materialised as triples for every build.
    mod oracle {
        use super::*;

        pub fn dedup(edges: &mut Vec<Edge>) {
            edges.sort_by(|a, b| {
                (a.src, a.dst)
                    .cmp(&(b.src, b.dst))
                    .then(a.weight.total_cmp(&b.weight))
            });
            edges.dedup_by_key(|e| (e.src, e.dst));
        }

        pub fn symmetrize(edges: &mut Vec<Edge>) {
            let reversed: Vec<Edge> = edges
                .iter()
                .map(|e| Edge::weighted(e.dst, e.src, e.weight))
                .collect();
            edges.extend(reversed);
            dedup(edges);
        }

        /// `(forward, reverse)`.
        pub fn build(num_vertices: usize, edges: &[Edge]) -> (Csr, Csr) {
            let triples: Vec<(VertexId, VertexId, f32)> =
                edges.iter().map(|e| (e.src, e.dst, e.weight)).collect();
            let out = Csr::from_triples(num_vertices, &triples);
            let flipped: Vec<(VertexId, VertexId, f32)> =
                out.iter_all().map(|(src, dst, w)| (dst, src, w)).collect();
            let inc = Csr::from_triples(num_vertices, &flipped);
            (out, inc)
        }
    }

    /// Weights a sort has to order by bits, not by value: both zeros,
    /// subnormals, infinities, and NaNs of either sign and several payloads.
    const AWKWARD_WEIGHTS: [u32; 14] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x8000_0001,
        0x007f_ffff, // largest subnormal
        0x3f80_0000, // 1.0
        0xbf80_0000, // -1.0
        0x4049_0fdb, // pi
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // quiet NaN
        0xffc0_0000, // quiet NaN, sign set
        0x7fc0_0001, // NaN, payload 1
        0x7f80_0001, // signalling NaN
    ];

    /// A vertex count and an edge list over a *prefix* of it — so trailing
    /// and isolated vertices exist — drawn from few enough endpoints that
    /// duplicates and self-loops are common; possibly empty; either as
    /// drawn (unsorted) or in the order a built graph hands back.
    fn arb_edges() -> impl Strategy<Value = (usize, Vec<Edge>)> {
        (1usize..40, 0usize..4).prop_flat_map(|(used, trailing)| {
            let edge = (0..used as u32, 0..used as u32, 0..AWKWARD_WEIGHTS.len())
                .prop_map(|(s, d, w)| Edge::weighted(s, d, f32::from_bits(AWKWARD_WEIGHTS[w])));
            (
                Just(used + trailing),
                proptest::collection::vec(edge, 0..200),
                any::<bool>(),
            )
                .prop_map(|(n, mut edges, presorted)| {
                    if presorted {
                        oracle::dedup(&mut edges);
                    }
                    (n, edges)
                })
        })
    }

    fn bits(edges: &[Edge]) -> Vec<(u32, u32, u32)> {
        edges
            .iter()
            .map(|e| (e.src.0, e.dst.0, e.weight.to_bits()))
            .collect()
    }

    fn assert_same_graph(g: &Graph, n: usize, edges: &[Edge]) {
        g.validate().unwrap();
        let (out, inc) = oracle::build(n, edges);
        assert_eq!(g.out_csr().bits(), out.bits());
        assert_eq!(g.in_csr().bits(), inc.bits());
        assert_eq!(g.edges().len(), edges.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_matches_the_triples_build((n, edges) in arb_edges()) {
            let mut b = GraphBuilder::new(n);
            b.extend(edges.iter().copied());
            assert_same_graph(&b.build(), n, &edges);
            assert_same_graph(&Graph::from_edges(n, &edges), n, &edges);
        }

        #[test]
        fn dedup_matches_the_full_sort((n, edges) in arb_edges()) {
            let mut b = GraphBuilder::new(n);
            b.extend(edges.iter().copied());
            b.dedup();
            let mut want = edges.clone();
            oracle::dedup(&mut want);
            prop_assert_eq!(bits(&b.edges), bits(&want));
            assert_same_graph(&b.build(), n, &want);
        }

        #[test]
        fn symmetrize_matches_the_full_sort((n, edges) in arb_edges(), twice in any::<bool>()) {
            let mut b = GraphBuilder::new(n);
            b.extend(edges.iter().copied());
            b.symmetrize();
            let mut want = edges.clone();
            oracle::symmetrize(&mut want);
            if twice {
                // What `lazybench` does: symmetrise what a symmetrised
                // graph hands back.
                b.symmetrize();
                oracle::symmetrize(&mut want);
            }
            prop_assert_eq!(bits(&b.edges), bits(&want));
            let g = b.build();
            prop_assert!(g.is_symmetric());
            assert_same_graph(&g, n, &want);
        }
    }

    #[test]
    fn basic_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0u32, 1u32).add_edge(1u32, 2u32);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn self_loop_removal() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0u32, 0u32).add_edge(0u32, 1u32).add_edge(1u32, 1u32);
        b.remove_self_loops();
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0u32, 1u32, 5.0)
            .add_weighted_edge(0u32, 1u32, 2.0)
            .add_weighted_edge(0u32, 1u32, 9.0);
        b.dedup();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(VertexId(0)).next().unwrap().1, 2.0);
    }

    #[test]
    fn symmetrize_adds_reverses() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0u32, 1u32).add_edge(1u32, 2u32);
        b.symmetrize();
        let g = b.build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId(1)), 2);
    }

    #[test]
    fn symmetrize_idempotent_on_symmetric_input() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0u32, 1u32).add_edge(1u32, 0u32);
        b.symmetrize();
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    fn symmetric_weights_agree() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0u32, 1u32)
            .add_edge(2u32, 3u32)
            .symmetrize()
            .randomize_weights(1.0, 10.0, 7);
        let g = b.build();
        let w01 = g.out_edges(VertexId(0)).next().unwrap().1;
        let w10 = g.out_edges(VertexId(1)).next().unwrap().1;
        assert_eq!(w01, w10);
        assert!((1.0..10.0).contains(&w01));
    }

    #[test]
    fn weights_deterministic_by_seed() {
        let make = |seed| {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0u32, 1u32).add_edge(1u32, 2u32);
            b.randomize_weights(0.0, 1.0, seed);
            b.build()
        };
        let g1 = make(42);
        let g2 = make(42);
        let g3 = make(43);
        let w = |g: &Graph| {
            g.edges().map(|e| e.weight).collect::<Vec<_>>()
        };
        assert_eq!(w(&g1), w(&g2));
        assert_ne!(w(&g1), w(&g3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0u32, 5u32);
        let _ = b.build();
    }
}
