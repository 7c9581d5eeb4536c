//! Replica accounting: which machines hold a copy of each vertex, which
//! copy is the master, and the replication factor λ (Table 1's last column,
//! the quantity §5.3 identifies as the speedup's main driver).
//!
//! A vertex's replica set is one machine bitmask: deriving the sets is an
//! OR per edge endpoint, the splitter's dispatch fix-point is an OR per
//! parallel edge, and no per-vertex list is ever allocated.

use lazygraph_graph::hash::mix64;
use lazygraph_graph::{Graph, MachineId};

/// One bit per machine; bit `m` set means machine `m` holds a replica.
pub type MachineMask = u128;

/// The most machines a [`MachineMask`] can name.
pub const MAX_MACHINES: usize = MachineMask::BITS as usize;

/// The machines of `mask`, ascending.
pub fn machines_of(mut mask: MachineMask) -> impl Iterator<Item = MachineId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let m = mask.trailing_zeros();
            mask &= mask - 1;
            MachineId(m as u16)
        })
    })
}

/// The mask naming only `m`.
#[inline]
pub fn bit(m: MachineId) -> MachineMask {
    1 << m.index()
}

/// Replica sets and master election for every vertex.
#[derive(Clone, Debug)]
pub struct Replication {
    /// Replica set per vertex; never zero.
    masks: Vec<MachineMask>,
    /// The master machine per vertex; always a member of the replica set.
    pub masters: Vec<MachineId>,
}

impl Replication {
    /// Builds replication from raw per-vertex masks: hash-places a single
    /// replica for vertices with an empty set (isolated vertices — CC and
    /// k-core iterate all vertices, so every vertex exists somewhere) and
    /// elects masters.
    pub fn new(mut masks: Vec<MachineMask>, num_machines: usize) -> Self {
        assert!(
            (1..=MAX_MACHINES).contains(&num_machines),
            "replica masks support 1 to {MAX_MACHINES} machines"
        );
        for (v, mask) in masks.iter_mut().enumerate() {
            if *mask == 0 {
                *mask = 1 << (mix64(v as u64) % num_machines as u64);
            }
        }
        let masters = elect_masters(&masks);
        Replication { masks, masters }
    }

    /// Derives replication from a one-edge assignment: a vertex is
    /// replicated on every machine owning one of its adjacent edges.
    pub fn from_assignment(graph: &Graph, assignment: &[MachineId], num_machines: usize) -> Self {
        assert_eq!(assignment.len(), graph.num_edges());
        let mut masks = vec![0; graph.num_vertices()];
        for (e, &m) in graph.edges().zip(assignment) {
            masks[e.src.index()] |= bit(m);
            masks[e.dst.index()] |= bit(m);
        }
        Replication::new(masks, num_machines)
    }

    /// The replica set of `v` as a mask.
    #[inline]
    pub fn mask(&self, v: usize) -> MachineMask {
        self.masks[v]
    }

    /// The machines holding a replica of `v`, ascending.
    pub fn replicas(&self, v: usize) -> impl Iterator<Item = MachineId> {
        machines_of(self.masks[v])
    }

    /// How many machines hold a replica of `v`.
    #[inline]
    pub fn num_replicas(&self, v: usize) -> usize {
        self.masks[v].count_ones() as usize
    }

    /// Ensures `v` has a replica on every machine of `machines` (used by the
    /// edge splitter's dispatch, which may create replicas — paper Fig.
    /// 7(b)). Returns true if a replica was added. Masters are *not*
    /// re-elected here; call [`Replication::reelect_masters`] after dispatch
    /// completes.
    pub fn ensure_replicas(&mut self, v: usize, machines: MachineMask) -> bool {
        let before = self.masks[v];
        self.masks[v] |= machines;
        self.masks[v] != before
    }

    /// Re-elects masters after replica sets changed.
    pub fn reelect_masters(&mut self) {
        self.masters = elect_masters(&self.masks);
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.masks.len()
    }

    /// The replication factor λ: average number of replicas per vertex.
    pub fn lambda(&self) -> f64 {
        if self.masks.is_empty() {
            return 0.0;
        }
        self.total_replicas() as f64 / self.masks.len() as f64
    }

    /// Total replica count.
    pub fn total_replicas(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Validates the master invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (v, (&mask, &master)) in self.masks.iter().zip(&self.masters).enumerate() {
            if mask == 0 {
                return Err(format!("vertex {v} has no replicas"));
            }
            if mask & bit(master) == 0 {
                return Err(format!("vertex {v}: master {master:?} not in replica set"));
            }
        }
        Ok(())
    }
}

/// The master of `v` is the `mix64(v ^ 0xDEAD_BEEF) mod k`-th of its `k`
/// replica machines, ascending.
fn elect_masters(masks: &[MachineMask]) -> Vec<MachineId> {
    masks
        .iter()
        .enumerate()
        .map(|(v, &mask)| {
            let pick = mix64(v as u64 ^ 0xDEAD_BEEF) % u64::from(mask.count_ones());
            // Drop the `pick` lowest machines; the lowest left is the pick.
            let rest = (0..pick).fold(mask, |rest, _| rest & (rest - 1));
            MachineId(rest.trailing_zeros() as u16)
        })
        .collect()
}

/// The derivation this module replaced, kept as the oracle the mask path
/// is tested against: one `Vec<MachineId>` per vertex grown with
/// `contains`, sorted, masters picked by index.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn replica_lists(
        graph: &Graph,
        assignment: &[MachineId],
        skip: &[bool],
        num_machines: usize,
    ) -> Vec<Vec<MachineId>> {
        let mut replicas: Vec<Vec<MachineId>> = vec![Vec::new(); graph.num_vertices()];
        for (idx, (e, &m)) in graph.edges().zip(assignment).enumerate() {
            if skip[idx] {
                continue;
            }
            for v in [e.src, e.dst] {
                if !replicas[v.index()].contains(&m) {
                    replicas[v.index()].push(m);
                }
            }
        }
        for (v, set) in replicas.iter_mut().enumerate() {
            set.sort();
            set.dedup();
            if set.is_empty() {
                set.push(MachineId::from(
                    (mix64(v as u64) % num_machines as u64) as usize,
                ));
            }
        }
        replicas
    }

    pub(crate) fn elect_masters(replicas: &[Vec<MachineId>]) -> Vec<MachineId> {
        replicas
            .iter()
            .enumerate()
            .map(|(v, set)| set[(mix64(v as u64 ^ 0xDEAD_BEEF) % set.len() as u64) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cut::{CoordinatedCut, Partitioner, RandomCut};
    use lazygraph_graph::generators::{rmat, RmatConfig};
    use lazygraph_graph::GraphBuilder;

    #[test]
    fn lambda_of_single_machine_is_one() {
        let g = rmat(RmatConfig::graph500(9, 8, 1));
        let a = RandomCut.assign(&g, 1);
        let r = Replication::from_assignment(&g, &a, 1);
        r.validate().unwrap();
        assert_eq!(r.lambda(), 1.0);
    }

    #[test]
    fn isolated_vertices_get_one_replica() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0u32, 1u32); // vertices 2..4 are isolated
        let g = b.build();
        let a = RandomCut.assign(&g, 4);
        let r = Replication::from_assignment(&g, &a, 4);
        r.validate().unwrap();
        for v in 2..5 {
            assert_eq!(r.num_replicas(v), 1);
        }
    }

    #[test]
    fn lambda_grows_with_machines() {
        let g = rmat(RmatConfig::graph500(10, 8, 2));
        let l4 = {
            let a = CoordinatedCut.assign(&g, 4);
            Replication::from_assignment(&g, &a, 4).lambda()
        };
        let l16 = {
            let a = CoordinatedCut.assign(&g, 16);
            Replication::from_assignment(&g, &a, 16).lambda()
        };
        assert!(l16 > l4, "λ should grow with machine count: {l4} vs {l16}");
        assert!(l4 >= 1.0);
    }

    #[test]
    fn ensure_replicas_and_reelect() {
        let g = rmat(RmatConfig::graph500(8, 4, 3));
        let a = RandomCut.assign(&g, 4);
        let mut r = Replication::from_assignment(&g, &a, 4);
        let before = r.num_replicas(0);
        let mut added = 0;
        for m in 0..4 {
            if r.ensure_replicas(0, bit(MachineId::from(m))) {
                added += 1;
            }
        }
        assert_eq!(r.num_replicas(0), before + added);
        assert_eq!(r.num_replicas(0), 4);
        assert!(r.replicas(0).eq((0..4).map(MachineId::from)));
        r.reelect_masters();
        r.validate().unwrap();
    }

    #[test]
    fn masters_deterministic() {
        let g = rmat(RmatConfig::graph500(9, 6, 4));
        let a = CoordinatedCut.assign(&g, 8);
        let r1 = Replication::from_assignment(&g, &a, 8);
        let r2 = Replication::from_assignment(&g, &a, 8);
        assert_eq!(r1.masters, r2.masters);
    }

    #[test]
    fn masks_agree_with_the_per_vertex_lists_they_replaced() {
        for (machines, seed) in [(1usize, 1u64), (4, 2), (7, 3), (128, 4)] {
            let g = rmat(RmatConfig::skewed(8, 6, seed));
            let a = RandomCut.assign(&g, machines);
            let lists = reference::replica_lists(&g, &a, &vec![false; a.len()], machines);
            let r = Replication::from_assignment(&g, &a, machines);
            for (v, list) in lists.iter().enumerate() {
                assert!(r.replicas(v).eq(list.iter().copied()), "vertex {v}");
            }
            assert_eq!(r.masters, reference::elect_masters(&lists));
        }
    }
}
