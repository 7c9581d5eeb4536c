//! Vertex-cut partitioners (§4.1).
//!
//! A vertex-cut assigns every *edge* to exactly one machine and lets
//! vertices span machines (replicas). The paper's LazyGraph supports
//! "random-cut, coordinated-cut, grid-cut and hybrid-cut"; the evaluation
//! uses the coordinated cut. All four are implemented here, deterministic
//! for a given input graph.

use lazygraph_graph::hash::mix64;
use lazygraph_graph::{Graph, MachineId, VertexId};
use lazygraph_net::wire_enum;

/// Assigns each edge of `graph` (in [`Graph::edges`] iteration order) to a
/// machine.
pub trait Partitioner {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Produces the per-edge machine assignment, one entry per edge in
    /// iteration order.
    fn assign(&self, graph: &Graph, num_machines: usize) -> Vec<MachineId>;
}

/// Random vertex-cut: each edge is placed by a hash of its endpoints.
/// Fast, balanced, but ignores locality entirely — the worst λ of the four.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomCut;

impl Partitioner for RandomCut {
    fn name(&self) -> &'static str {
        "random"
    }

    fn assign(&self, graph: &Graph, num_machines: usize) -> Vec<MachineId> {
        assert!(num_machines > 0);
        graph
            .edges()
            .map(|e| {
                let h = mix64(((e.src.0 as u64) << 32) | e.dst.0 as u64);
                MachineId::from((h % num_machines as u64) as usize)
            })
            .collect()
    }
}

/// 2-D grid cut: machines form a `rows × cols` grid; vertex `v` hashes to a
/// shard whose row/column form its constraint set, and edge `(u, v)` lands
/// on the machine at `(row(u), col(v))`. Bounds λ by `rows + cols − 1`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GridCut;

impl GridCut {
    /// Factors `p` into the most-square `rows × cols ≥ p` grid.
    fn grid_shape(p: usize) -> (usize, usize) {
        let rows = (p as f64).sqrt().floor() as usize;
        let rows = rows.max(1);
        let cols = p.div_ceil(rows);
        (rows, cols)
    }
}

impl Partitioner for GridCut {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn assign(&self, graph: &Graph, num_machines: usize) -> Vec<MachineId> {
        assert!(num_machines > 0);
        let (rows, cols) = Self::grid_shape(num_machines);
        graph
            .edges()
            .map(|e| {
                let r = (mix64(e.src.0 as u64) % rows as u64) as usize;
                let c = (mix64(e.dst.0 as u64 ^ 0x5bd1_e995) % cols as u64) as usize;
                // Grid cells beyond num_machines wrap around; slight
                // imbalance for non-rectangular P, documented in DESIGN.md.
                MachineId::from((r * cols + c) % num_machines)
            })
            .collect()
    }
}

/// Coordinated greedy vertex-cut (PowerGraph's heuristic, the cut used in
/// the paper's evaluation). Edges are placed sequentially with a global view
/// of current replica sets and loads:
///
/// 1. both endpoints already share machines → least-loaded shared machine;
/// 2. both placed but disjoint → least-loaded machine among the endpoint
///    with more remaining unplaced edges (degree heuristic);
/// 3. one endpoint placed → least-loaded of its machines;
/// 4. neither placed → least-loaded machine overall.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordinatedCut;

impl Partitioner for CoordinatedCut {
    fn name(&self) -> &'static str {
        "coordinated"
    }

    fn assign(&self, graph: &Graph, num_machines: usize) -> Vec<MachineId> {
        assert!(num_machines > 0);
        let p = num_machines;
        let n = graph.num_vertices();
        // Bitset of machines per vertex; P ≤ 128 keeps this in two words.
        assert!(p <= 128, "coordinated cut supports up to 128 machines");
        let mut placed = vec![0u128; n];
        let mut load = vec![0u64; p];
        let mut remaining: Vec<u32> = graph
            .vertices()
            .map(|v| graph.degree(v) as u32)
            .collect();
        let least_loaded_in = |mask: u128, load: &[u64]| -> usize {
            let mut best = usize::MAX;
            let mut best_load = u64::MAX;
            for (m, &l) in load.iter().enumerate() {
                if mask & (1u128 << m) != 0 && l < best_load {
                    best_load = l;
                    best = m;
                }
            }
            best
        };
        // Visit order: row by row (vertex ids are locality-correlated on
        // road lattices and crawl-ordered corpora), and within each row
        // *locality-first* (ascending |src − dst|): a row's placement is
        // anchored by its most local link, and its hub links — which would
        // otherwise drag the row onto an arbitrary hub machine — come last,
        // when case 1 already pins them to the row's cluster. Balance is
        // kept by a sticky relief front: when the natural target is
        // overloaded, growth is redirected to a persistent front machine
        // (rotated to the globally least-loaded when it too fills up), so
        // diverted regions stay contiguous instead of fragmenting.
        //
        // The global order is `(src, |src − dst|, edge index)` and edge
        // indices already ascend with `src`, so it is each CSR row ordered
        // by `(|src − dst|, edge index)` in turn: a hub row costs its own
        // sort, and nothing edge-sized is built besides the result.
        let csr = graph.out_csr();
        assert!(
            graph.num_edges() <= u32::MAX as usize,
            "edge indices are 32-bit"
        );
        let mut out = vec![MachineId::default(); graph.num_edges()];
        let mut row_order: Vec<u64> = Vec::new();
        let mut front = 0usize;
        let mut k = 0usize;
        for src in graph.vertices() {
            let u = src.index();
            let neighbors = csr.neighbors(src);
            let first = csr.range(src).start;
            row_order.clear();
            row_order.extend(
                neighbors
                    .iter()
                    .zip(0u64..)
                    .map(|(dst, j)| u64::from(src.0.abs_diff(dst.0)) << 32 | j),
            );
            row_order.sort_unstable();
            for &key in &row_order {
                let j = key as u32 as usize;
                let v = neighbors[j].index();
                let mu = placed[u];
                let mv = placed[v];
                let both = mu & mv;
                let target = if both != 0 {
                    least_loaded_in(both, &load)
                } else if mu != 0 && mv != 0 {
                    // Degree heuristic (PowerGraph): choose among the
                    // machines of the endpoint with more unplaced edges.
                    let mask = if remaining[u] >= remaining[v] { mu } else { mv };
                    least_loaded_in(mask, &load)
                } else if mu != 0 {
                    least_loaded_in(mu, &load)
                } else if mv != 0 {
                    least_loaded_in(mv, &load)
                } else {
                    front
                };
                let avg = k as f64 / p as f64;
                let overloaded = |m: usize, load: &[u64]| load[m] as f64 > 1.2 * avg + 8.0;
                let target = if overloaded(target, &load) {
                    if overloaded(front, &load) {
                        front = least_loaded_in(u128::MAX >> (128 - p), &load);
                    }
                    front
                } else {
                    target
                };
                placed[u] |= 1u128 << target;
                placed[v] |= 1u128 << target;
                load[target] += 1;
                remaining[u] = remaining[u].saturating_sub(1);
                remaining[v] = remaining[v].saturating_sub(1);
                out[first + j] = MachineId::from(target);
                k += 1;
            }
        }
        out
    }
}

/// Hybrid cut (PowerLyra-style): differentiates by in-degree. Edges into a
/// *low*-in-degree target are hashed by target (edge-cut-like locality);
/// edges into a *high*-in-degree target are hashed by source (vertex-cut
/// load spreading for hubs).
#[derive(Clone, Copy, Debug)]
pub struct HybridCut {
    /// In-degree above which a target counts as high-degree.
    pub threshold: usize,
}

impl Default for HybridCut {
    fn default() -> Self {
        HybridCut { threshold: 100 }
    }
}

impl Partitioner for HybridCut {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn assign(&self, graph: &Graph, num_machines: usize) -> Vec<MachineId> {
        assert!(num_machines > 0);
        graph
            .edges()
            .map(|e| {
                let key = if graph.in_degree(e.dst) > self.threshold {
                    e.src
                } else {
                    e.dst
                };
                MachineId::from((mix64(key.0 as u64) % num_machines as u64) as usize)
            })
            .collect()
    }
}

/// Convenience: the partitioner selection used across the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    Random,
    Grid,
    Coordinated,
    Hybrid,
    /// Benchmark fixture, not a real partitioner: every hub edge piled
    /// onto machine 0 (`lazygraph_graph::fixtures`), the worst placement
    /// the skew-aware machinery has to recover from. Excluded from
    /// [`PartitionStrategy::all`] sweeps.
    AdversarialHubs,
}

wire_enum!(PartitionStrategy { Random = 0, Grid = 1, Coordinated = 2, Hybrid = 3, AdversarialHubs = 4 });

impl PartitionStrategy {
    /// All *real* strategies, for sweep experiments (the adversarial
    /// fixture is a stress input, not a contender).
    pub fn all() -> [PartitionStrategy; 4] {
        [
            PartitionStrategy::Random,
            PartitionStrategy::Grid,
            PartitionStrategy::Coordinated,
            PartitionStrategy::Hybrid,
        ]
    }

    /// Runs the corresponding partitioner.
    pub fn assign(self, graph: &Graph, num_machines: usize) -> Vec<MachineId> {
        match self {
            PartitionStrategy::Random => RandomCut.assign(graph, num_machines),
            PartitionStrategy::Grid => GridCut.assign(graph, num_machines),
            PartitionStrategy::Coordinated => CoordinatedCut.assign(graph, num_machines),
            PartitionStrategy::Hybrid => HybridCut::default().assign(graph, num_machines),
            PartitionStrategy::AdversarialHubs => {
                lazygraph_graph::fixtures::adversarial_hub_assignment(graph, num_machines)
            }
        }
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Random => RandomCut.name(),
            PartitionStrategy::Grid => GridCut.name(),
            PartitionStrategy::Coordinated => CoordinatedCut.name(),
            PartitionStrategy::Hybrid => HybridCut::default().name(),
            PartitionStrategy::AdversarialHubs => "adversarial-hubs",
        }
    }
}

/// Edge-count balance: max machine load / ideal load. 1.0 is perfect.
pub fn load_imbalance(assignment: &[MachineId], num_machines: usize) -> f64 {
    if assignment.is_empty() {
        return 1.0;
    }
    let mut load = vec![0usize; num_machines];
    for &m in assignment {
        load[m.index()] += 1;
    }
    let max = load.iter().copied().max().unwrap_or(0);
    let ideal = assignment.len() as f64 / num_machines as f64;
    max as f64 / ideal
}

/// Used by tests: recomputes which machines each vertex touches via
/// one-edge placement only.
pub fn touched_machines(
    graph: &Graph,
    assignment: &[MachineId],
) -> Vec<Vec<MachineId>> {
    let mut sets: Vec<Vec<MachineId>> = vec![Vec::new(); graph.num_vertices()];
    for (e, &m) in graph.edges().zip(assignment) {
        for v in [e.src, e.dst] {
            if !sets[v.index()].contains(&m) {
                sets[v.index()].push(m);
            }
        }
    }
    for s in &mut sets {
        s.sort();
    }
    let _ = VertexId(0);
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
    use lazygraph_graph::GraphBuilder;
    use proptest::prelude::*;

    /// The coordinated cut as it was before it walked rows: one global sort
    /// of `(src, |src − dst|, edge index)` keys over a copy of every edge.
    /// Kept as the oracle for the visit order.
    fn coordinated_by_global_sort(graph: &Graph, p: usize) -> Vec<MachineId> {
        let mut placed = vec![0u128; graph.num_vertices()];
        let mut load = vec![0u64; p];
        let mut remaining: Vec<u32> = graph.vertices().map(|v| graph.degree(v) as u32).collect();
        let least_loaded_in = |mask: u128, load: &[u64]| -> usize {
            let mut best = usize::MAX;
            let mut best_load = u64::MAX;
            for (m, &l) in load.iter().enumerate() {
                if mask & (1u128 << m) != 0 && l < best_load {
                    best_load = l;
                    best = m;
                }
            }
            best
        };
        let mut order: Vec<(u32, u32, u32)> = graph
            .edges()
            .enumerate()
            .map(|(i, e)| (e.src.0, e.src.0.abs_diff(e.dst.0), i as u32))
            .collect();
        order.sort_unstable();
        let all_edges: Vec<(usize, usize)> = graph
            .edges()
            .map(|e| (e.src.index(), e.dst.index()))
            .collect();
        let mut out = vec![MachineId::default(); all_edges.len()];
        let mut front = 0usize;
        for (k, &(_, _, edge_idx)) in order.iter().enumerate() {
            let (u, v) = all_edges[edge_idx as usize];
            let (mu, mv) = (placed[u], placed[v]);
            let target = if mu & mv != 0 {
                least_loaded_in(mu & mv, &load)
            } else if mu != 0 && mv != 0 {
                let mask = if remaining[u] >= remaining[v] { mu } else { mv };
                least_loaded_in(mask, &load)
            } else if mu != 0 {
                least_loaded_in(mu, &load)
            } else if mv != 0 {
                least_loaded_in(mv, &load)
            } else {
                front
            };
            let avg = k as f64 / p as f64;
            let overloaded = |m: usize, load: &[u64]| load[m] as f64 > 1.2 * avg + 8.0;
            let target = if overloaded(target, &load) {
                if overloaded(front, &load) {
                    front = least_loaded_in(u128::MAX >> (128 - p), &load);
                }
                front
            } else {
                target
            };
            placed[u] |= 1u128 << target;
            placed[v] |= 1u128 << target;
            load[target] += 1;
            remaining[u] = remaining[u].saturating_sub(1);
            remaining[v] = remaining[v].saturating_sub(1);
            out[edge_idx as usize] = MachineId::from(target);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Row by row is the global order: on graphs whose rows are not
        /// sorted by target (no dedup), with duplicates and self-loops, and
        /// with hub rows — every vertex also links to and from a few hubs —
        /// long enough for a row's own sort to matter.
        #[test]
        fn row_order_is_the_global_sort_order(
            n in 8usize..80,
            links in proptest::collection::vec((0u32..80, 0u32..80), 0..300),
            hubs in 0usize..4,
            machines in 1usize..10,
        ) {
            let mut b = GraphBuilder::new(n);
            for (s, d) in links {
                b.add_edge(s % n as u32, d % n as u32);
            }
            for hub in 0..hubs as u32 {
                for v in (0..n as u32).rev() {
                    b.add_edge(hub * 7 % n as u32, v);
                    b.add_edge(v, hub * 7 % n as u32);
                }
            }
            let g = b.build();
            prop_assert_eq!(
                CoordinatedCut.assign(&g, machines),
                coordinated_by_global_sort(&g, machines)
            );
        }
    }

    #[test]
    fn row_order_is_the_global_sort_order_on_generated_graphs() {
        for g in [rmat(RmatConfig::skewed(10, 8, 3)), social(), road()] {
            for machines in [1, 4, 7, 128] {
                assert_eq!(
                    CoordinatedCut.assign(&g, machines),
                    coordinated_by_global_sort(&g, machines)
                );
            }
        }
    }

    fn social() -> Graph {
        rmat(RmatConfig::graph500(11, 8, 7))
    }

    fn road() -> Graph {
        grid2d(Grid2dConfig::road(40, 40, 7))
    }

    #[test]
    fn assignments_cover_all_edges_in_range() {
        let g = social();
        for s in PartitionStrategy::all() {
            let a = s.assign(&g, 8);
            assert_eq!(a.len(), g.num_edges(), "{}", s.name());
            assert!(a.iter().all(|m| m.index() < 8), "{}", s.name());
        }
    }

    #[test]
    fn deterministic() {
        let g = social();
        for s in PartitionStrategy::all() {
            assert_eq!(s.assign(&g, 8), s.assign(&g, 8), "{}", s.name());
        }
    }

    #[test]
    fn random_cut_is_balanced() {
        let g = social();
        let a = RandomCut.assign(&g, 8);
        assert!(load_imbalance(&a, 8) < 1.2);
    }

    #[test]
    fn coordinated_is_balanced_and_local() {
        let g = social();
        let a = CoordinatedCut.assign(&g, 8);
        assert!(load_imbalance(&a, 8) < 1.5);
        // Coordinated must beat random on replication (λ proxy: total
        // touched machine count).
        let coord: usize = touched_machines(&g, &a).iter().map(|s| s.len()).sum();
        let rand: usize = touched_machines(&g, &RandomCut.assign(&g, 8))
            .iter()
            .map(|s| s.len())
            .sum();
        assert!(
            coord < rand,
            "coordinated ({coord}) should replicate less than random ({rand})"
        );
    }

    #[test]
    fn grid_bounds_replication() {
        let g = social();
        let p = 16; // 4x4 grid
        let sets = touched_machines(&g, &GridCut.assign(&g, p));
        let max_replicas = sets.iter().map(|s| s.len()).max().unwrap();
        assert!(max_replicas < 8, "grid bound violated: {max_replicas}");
    }

    #[test]
    fn road_replicates_less_than_social() {
        // The core premise of Table 1: road-class graphs have lower λ.
        let p = 16;
        let lam = |g: &Graph| {
            let sets = touched_machines(g, &CoordinatedCut.assign(g, p));
            let active = sets.iter().filter(|s| !s.is_empty()).count();
            sets.iter().map(|s| s.len()).sum::<usize>() as f64 / active as f64
        };
        let road_l = lam(&road());
        let social_l = lam(&social());
        assert!(
            road_l < social_l,
            "road λ {road_l} should be below social λ {social_l}"
        );
    }

    #[test]
    fn single_machine_degenerate() {
        let g = road();
        for s in PartitionStrategy::all() {
            let a = s.assign(&g, 1);
            assert!(a.iter().all(|m| m.index() == 0));
        }
    }

    #[test]
    fn hybrid_splits_by_degree() {
        let g = social();
        let a = HybridCut { threshold: 10 }.assign(&g, 8);
        assert_eq!(a.len(), g.num_edges());
        // Low-degree targets: all their in-edges land on one machine.
        for v in g.vertices() {
            if g.in_degree(v) > 0 && g.in_degree(v) <= 10 {
                let machines: std::collections::BTreeSet<_> = g
                    .edges()
                    .zip(&a)
                    .filter(|(e, _)| e.dst == v)
                    .map(|(_, m)| *m)
                    .collect();
                assert_eq!(machines.len(), 1, "low-degree {v:?} spread over {machines:?}");
                break;
            }
        }
    }
}
