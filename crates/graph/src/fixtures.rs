//! Adversarial partition fixtures for skew benchmarks.
//!
//! A static vertex-cut is only as good as where the hubs land. The
//! fixture here constructs the worst reasonable placement — every edge
//! touching a hub piled onto machine 0, everything else spread evenly —
//! so hub fan-out has a measurable baseline to flatten.

use crate::hash::mix64;
use crate::{Graph, MachineId};

/// Degree above which a vertex counts as a hub for the adversarial
/// fixture: 8× the average degree. On a high-skew R-MAT this captures
/// the handful of vertices that own a large share of all edges while
/// leaving the long tail untouched.
pub fn hub_degree_threshold(graph: &Graph) -> usize {
    if graph.num_vertices() == 0 {
        return usize::MAX;
    }
    let avg = 2.0 * graph.num_edges() as f64 / graph.num_vertices() as f64;
    ((8.0 * avg).ceil() as usize).max(2)
}

/// Adversarial "all hubs on machine 0" per-edge assignment: every edge
/// with a hub endpoint goes to machine 0, the rest hash uniformly over
/// all machines. Deterministic for a given graph.
pub fn adversarial_hub_assignment(graph: &Graph, num_machines: usize) -> Vec<MachineId> {
    assert!(num_machines > 0);
    let t = hub_degree_threshold(graph);
    let is_hub: Vec<bool> = graph.vertices().map(|v| graph.degree(v) >= t).collect();
    graph
        .edges()
        .map(|e| {
            if is_hub[e.src.index()] || is_hub[e.dst.index()] {
                MachineId::from(0usize)
            } else {
                let h = mix64(((e.src.0 as u64) << 32) | e.dst.0 as u64 ^ 0xADE5);
                MachineId::from((h % num_machines as u64) as usize)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, RmatConfig};

    #[test]
    fn hubs_land_on_machine_zero() {
        let g = rmat(RmatConfig::skewed(10, 8, 7));
        let t = hub_degree_threshold(&g);
        assert!(g.vertices().any(|v| g.degree(v) >= t), "skewed preset must produce hubs");
        let assignment = adversarial_hub_assignment(&g, 4);
        for (e, &m) in g.edges().zip(&assignment) {
            if g.degree(e.src) >= t || g.degree(e.dst) >= t {
                assert_eq!(m.index(), 0, "hub edge {e:?} escaped machine 0");
            }
        }
        // The fixture must actually be skewed: machine 0 owns well over
        // its fair share of edges.
        let on_zero = assignment.iter().filter(|m| m.index() == 0).count();
        assert!(
            on_zero as f64 > 1.5 * g.num_edges() as f64 / 4.0,
            "machine 0 owns only {on_zero}/{} edges — not adversarial",
            g.num_edges()
        );
    }

    #[test]
    fn assignment_is_deterministic() {
        let g = rmat(RmatConfig::skewed(9, 8, 3));
        assert_eq!(
            adversarial_hub_assignment(&g, 4),
            adversarial_hub_assignment(&g, 4)
        );
    }
}
