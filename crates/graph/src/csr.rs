//! Compressed sparse row (CSR) adjacency storage.
//!
//! A [`Csr`] stores, for every vertex, a contiguous slice of targets and,
//! when some weight is not `1.0`, a parallel slice of weights. It is the
//! storage backbone of the global [`crate::Graph`]: one allocation per
//! array, cache-friendly sequential scans, and O(1) per-vertex slicing.

use crate::types::{Edge, VertexId};

/// Immutable CSR adjacency: `offsets[v]..offsets[v+1]` indexes into
/// `targets`/`weights`.
///
/// An unweighted edge costs only its target, as PowerGraph's empty edge
/// data does: `weights` is empty when every weight is bitwise `1.0f32`,
/// and parallel to `targets` otherwise. Every accessor reads a missing
/// weight as `1.0`, so the two cases differ in bytes only.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<f32>,
}

/// Whether `weight` is the unit weight an unweighted edge stands for —
/// bitwise, so no other bit pattern (a NaN, say) is ever dropped.
#[inline]
fn is_unit(weight: f32) -> bool {
    weight.to_bits() == 1.0f32.to_bits()
}

/// A count/fill walk whose second run handed over other entries than its
/// first counted ([`Csr::try_by_rows`]).
#[derive(Debug)]
pub(crate) struct WalkChanged;

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

    /// The CSR of `(row, target, weight)` entries, every row and target
    /// below `num_rows`: [`Csr::try_by_rows`] over a walk that a clone
    /// replays.
    #[expect(
        clippy::panic,
        reason = "a clone replays the entries of the iterator it was cloned from, and every \
                  caller has checked them against `num_rows`"
    )]
    fn by_rows(
        num_rows: usize,
        entries: impl ExactSizeIterator<Item = (VertexId, VertexId, f32)> + Clone,
    ) -> Self {
        let built = Csr::try_by_rows(|sink| {
            for (row, target, weight) in entries.clone() {
                sink(row, target, weight);
            }
            Ok::<_, WalkChanged>(num_rows)
        });
        built.unwrap_or_else(|WalkChanged| panic!("a replayed walk over {num_rows} rows changed"))
    }

    /// The count/fill core every CSR is built by. `walk` hands each
    /// `(row, target, weight)` entry to the sink it is given and returns
    /// the number of rows, more than any row or target it handed over. It
    /// runs twice and must hand over the same entries both times: the first
    /// run counts each row's entries and notes whether every weight is
    /// unit, the second drops each entry into its row's next slot, so a row
    /// keeps the order its entries arrive in. A unit CSR never allocates a
    /// weight array.
    ///
    /// An error of `walk`'s own is returned as it is. A second run that
    /// hands over anything else than the first counted — a file rewritten
    /// between two reads — is [`WalkChanged`], never a panic or a CSR that
    /// breaks its invariants.
    pub(crate) fn try_by_rows<E: From<WalkChanged>>(
        mut walk: impl FnMut(&mut dyn FnMut(VertexId, VertexId, f32)) -> Result<usize, E>,
    ) -> Result<Self, E> {
        // Counts at `row + 1`, grown as rows appear: a loader learns how
        // many rows there are only at the end of its first read.
        let mut offsets: Vec<u64> = Vec::new();
        let mut unit = true;
        let num_rows = walk(&mut |row, _, weight| {
            let at = row.index() + 1;
            if at >= offsets.len() {
                offsets.resize(at + 1, 0);
            }
            offsets[at] += 1;
            unit &= is_unit(weight);
        })?;
        if offsets.len() > num_rows + 1 {
            return Err(WalkChanged.into());
        }
        offsets.resize(num_rows + 1, 0);
        offsets.shrink_to_fit();
        prefix_sum(&mut offsets);
        let num_entries = offsets[num_rows] as usize;
        let mut cursor = offsets.clone();
        let mut targets = vec![VertexId::default(); num_entries];
        let mut weights = if unit {
            Vec::new()
        } else {
            vec![0.0f32; num_entries]
        };
        let mut fits = true;
        walk(&mut |row, target, weight| {
            let Some(slot) = cursor.get_mut(row.index()) else {
                fits = false;
                return;
            };
            let at = *slot as usize;
            if at < num_entries && target.index() < num_rows {
                targets[at] = target;
                if unit {
                    // A weight the first run did not see is a changed walk.
                    fits &= is_unit(weight);
                } else {
                    weights[at] = weight;
                }
                *slot += 1;
            } else {
                fits = false;
            }
        })?;
        // Every row filled to the count, and no further, leaves each
        // cursor where the next row starts.
        if !fits || cursor[..num_rows] != offsets[1..] {
            return Err(WalkChanged.into());
        }
        Ok(Csr {
            offsets,
            targets,
            weights,
        })
    }

    /// How many entries name each vertex as their target, in one pass
    /// over `targets`: a graph's in-degrees, read off its forward CSR.
    pub(crate) fn in_degrees(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_vertices()];
        for t in &self.targets {
            counts[t.index()] += 1;
        }
        counts
    }

    /// The build [`Csr::from_edges`] and [`Csr::transpose`] replaced — a
    /// counting sort over materialised `(src, dst, weight)` triples — kept
    /// as the oracle they are tested against. It drops the weights of a
    /// unit edge list by the same rule, decided over the whole list.
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
        if edges.iter().all(|&(_, _, w)| is_unit(w)) {
            weights = Vec::new();
        }
        Csr {
            offsets,
            targets,
            weights,
        }
    }

    /// The three arrays with the stored weights as bits (none for a unit
    /// CSR), for bitwise comparison of content and representation.
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

    /// Whether every weight is bitwise `1.0`, so none is stored.
    #[inline]
    pub fn is_unweighted(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight slice of `v`, parallel to [`Csr::neighbors`]; `None` when
    /// the CSR is unweighted and every weight is `1.0`.
    #[inline]
    pub fn weights(&self, v: VertexId) -> Option<&[f32]> {
        (!self.is_unweighted()).then(|| &self.weights[self.range(v)])
    }

    /// The weight of the entry at index `i`: `1.0` where none is stored.
    #[inline]
    fn weight_at(&self, i: usize) -> f32 {
        self.weights.get(i).copied().unwrap_or(1.0)
    }

    /// Iterates `(target, weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let r = self.range(v);
        self.targets[r.clone()]
            .iter()
            .zip(r)
            .map(|(&dst, i)| (dst, self.weight_at(i)))
    }

    /// Iterates every `(src, dst, weight)` triple in row order.
    pub fn iter_all(
        &self,
    ) -> impl ExactSizeIterator<Item = (VertexId, VertexId, f32)> + Clone + '_ {
        let mut row = 0usize;
        self.targets.iter().enumerate().map(move |(i, &dst)| {
            while self.offsets[row + 1] as usize <= i {
                row += 1;
            }
            (VertexId(row as u32), dst, self.weight_at(i))
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
        if !self.is_unweighted() {
            if self.targets.len() != self.weights.len() {
                return Err("targets and weights must be parallel".into());
            }
            if self.weights.iter().all(|&w| is_unit(w)) {
                return Err("a unit CSR must store no weights".into());
            }
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
        assert_eq!(csr.weights(VertexId(0)), Some(&[2.5][..]));
        assert_eq!(csr.weights(VertexId(1)), Some(&[0.5][..]));
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

    /// A second run that differs from the counted one in any way — an
    /// entry fewer or more, one moved to another row, a row or target past
    /// the row count — is refused, not a panic or a broken CSR.
    #[test]
    fn a_changed_walk_is_refused() {
        let counted = [(0, 1), (1, 0), (1, 2)];
        let seconds: [&[(u32, u32)]; 6] = [
            &counted,
            &[(0, 1), (1, 0)],
            &[(0, 1), (1, 0), (1, 2), (2, 0)],
            &[(0, 1), (0, 0), (1, 2)],
            &[(0, 1), (1, 0), (1, 3)],
            &[(0, 1), (1, 0), (3, 2)],
        ];
        for (i, second) in seconds.into_iter().enumerate() {
            let mut runs = 0;
            let built = Csr::try_by_rows(|sink| {
                let entries = if runs == 0 { &counted[..] } else { second };
                runs += 1;
                for &(row, target) in entries {
                    sink(VertexId(row), VertexId(target), 1.0);
                }
                Ok::<_, WalkChanged>(3)
            });
            assert_eq!(built.is_ok(), i == 0, "{second:?}");
        }
        let past_its_rows = Csr::try_by_rows(|sink| {
            sink(VertexId(3), VertexId(0), 1.0);
            Ok::<_, WalkChanged>(3)
        });
        assert!(past_its_rows.is_err());
    }

    /// A walk whose weights are all bitwise `1.0` stores none and reads
    /// `1.0` back; a second run that hands over any other weight is a
    /// changed walk, refused like any other.
    #[test]
    fn a_unit_walk_stores_no_weights_and_must_stay_unit() {
        let build = |second: f32| {
            let mut runs = 0;
            Csr::try_by_rows(|sink| {
                let weight = if runs == 0 { 1.0 } else { second };
                runs += 1;
                sink(VertexId(0), VertexId(1), 1.0);
                sink(VertexId(1), VertexId(0), weight);
                Ok::<_, WalkChanged>(2)
            })
        };
        let unit = build(1.0).unwrap();
        unit.validate().unwrap();
        assert!(unit.is_unweighted());
        assert_eq!(unit.weights(VertexId(1)), None);
        assert!(unit.edges_of(VertexId(1)).eq([(VertexId(0), 1.0)]));
        assert!(unit
            .iter_all()
            .all(|(_, _, w)| w.to_bits() == 1.0f32.to_bits()));
        for changed in [2.0, -1.0, 0.0, f32::NAN, f32::from_bits(0x3f80_0001)] {
            assert!(build(changed).is_err(), "{changed}");
        }
    }

    /// One representation per CSR: a weight array that only repeats `1.0`
    /// is refused.
    #[test]
    fn stored_unit_weights_are_invalid() {
        let csr = Csr {
            offsets: vec![0, 1, 1],
            targets: vec![VertexId(1)],
            weights: vec![1.0],
        };
        assert!(csr.validate().is_err());
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
