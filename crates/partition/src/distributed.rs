//! Construction of the *system-view* graph: per-machine [`LocalShard`]s with
//! master/mirror metadata and per-edge transmission modes.
//!
//! This is where the paper's two transmission modes become concrete:
//! a one-edge-mode edge is stored on exactly the machine its vertex-cut
//! assignment chose; a parallel-edges-mode edge is *copied* onto every
//! machine required by the dispatch rule (§4.1), creating replicas where
//! needed (Fig. 7(b)) — the dispatch therefore runs to a fixpoint, since
//! created replicas can enlarge the required set of other parallel edges.

use lazygraph_graph::{Graph, MachineId, VertexId};

use crate::edge_split::SplitPlan;
use crate::replication::Replication;

mod codec;

/// Transmission mode of a stored local edge (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeMode {
    /// The edge exists on one machine; remote delivery rides on replica
    /// coherency exchanges.
    OneEdge,
    /// The edge is replicated; delivery is a local write on every holder.
    Parallel,
}

/// Sentinel in a shard's dense routing table: global vertex not replicated
/// here.
pub const NO_LOCAL: u32 = u32::MAX;

/// Everything one machine knows about its part of the graph.
#[derive(Clone, Debug)]
pub struct LocalShard {
    /// This machine's id.
    pub machine: MachineId,
    /// Sorted global ids of local replicas; index = local id.
    pub globals: Vec<VertexId>,
    /// Dense gid → local-id routing table (`NO_LOCAL` where absent), built
    /// at partition time so inbound delta translation is one indexed load —
    /// no hash map in the exchange hot loop. Costs 4 bytes per global
    /// vertex per machine, which the simulator trades happily for the
    /// branch-free lookup.
    route: Box<[u32]>,
    /// Per local vertex: is this replica the master?
    pub is_master: Vec<bool>,
    /// Per local vertex: the machine hosting the master replica.
    pub master_of: Vec<MachineId>,
    /// Per local vertex: the *other* machines holding replicas.
    pub mirrors: Vec<Box<[MachineId]>>,
    /// Sorted local ids of the vertices that have remote replicas — the
    /// only candidates a coherency exchange can ever ship. Block-chunked
    /// coherency scans iterate this instead of `0..num_local`.
    pub replicated: Vec<u32>,
    /// Per local vertex: user-view out-degree (PageRank scaling).
    pub global_out_degree: Vec<u32>,
    /// Per local vertex: user-view in-degree.
    pub global_in_degree: Vec<u32>,
    /// Per local vertex: user-view total degree (k-core initialisation).
    pub global_degree: Vec<u32>,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    out_weights: Vec<f32>,
    out_parallel: Vec<bool>,
}

impl LocalShard {
    /// Number of local replicas.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.globals.len()
    }

    /// Number of locally stored edges (including parallel copies).
    #[inline]
    pub fn num_local_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Local id of global vertex `v`, if replicated here.
    #[inline]
    pub fn local_of(&self, v: VertexId) -> Option<u32> {
        match self.route.get(v.index()) {
            Some(&l) if l != NO_LOCAL => Some(l),
            _ => None,
        }
    }

    /// The raw dense routing table (index = gid, value = local id or
    /// [`NO_LOCAL`]), for block-parallel inbound translation.
    #[inline]
    pub fn route_table(&self) -> &[u32] {
        &self.route
    }

    /// Global id of local vertex `l`.
    #[inline]
    pub fn global_of(&self, l: u32) -> VertexId {
        self.globals[l as usize]
    }

    /// Local out-edges of local vertex `l`: `(target local id, weight,
    /// mode)`.
    #[inline]
    pub fn out_edges(&self, l: u32) -> impl Iterator<Item = (u32, f32, EdgeMode)> + '_ {
        let r = self.out_offsets[l as usize] as usize..self.out_offsets[l as usize + 1] as usize;
        self.out_targets[r.clone()]
            .iter()
            .copied()
            .zip(self.out_weights[r.clone()].iter().copied())
            .zip(self.out_parallel[r].iter().copied())
            .map(|((t, w), p)| (t, w, if p { EdgeMode::Parallel } else { EdgeMode::OneEdge }))
    }

    /// Local out-degree of local vertex `l`.
    #[inline]
    pub fn local_out_degree(&self, l: u32) -> usize {
        (self.out_offsets[l as usize + 1] - self.out_offsets[l as usize]) as usize
    }

    /// Whether this replica has any remote siblings.
    #[inline]
    pub fn has_mirrors(&self, l: u32) -> bool {
        !self.mirrors[l as usize].is_empty()
    }
}

/// The partitioned graph: all shards plus global metadata.
#[derive(Clone, Debug)]
pub struct DistributedGraph {
    pub shards: Vec<LocalShard>,
    pub replication: Replication,
    pub num_machines: usize,
    pub num_global_vertices: usize,
    /// User-view edge count.
    pub num_global_edges: usize,
    /// Edges selected as parallel-edges.
    pub num_parallel_edges: usize,
    /// Stored edges across all shards (parallel copies included).
    pub total_stored_edges: usize,
    /// `E/V` of the user-view graph (interval-model feature).
    pub ev_ratio: f64,
}

/// What a machine reads of the placement besides its own shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementShape {
    pub num_machines: usize,
    pub num_global_vertices: usize,
    /// `E/V` of the user-view graph (interval-model feature).
    pub ev_ratio: f64,
}

impl DistributedGraph {
    /// The placement's [`PlacementShape`].
    pub fn shape(&self) -> PlacementShape {
        PlacementShape {
            num_machines: self.num_machines,
            num_global_vertices: self.num_global_vertices,
            ev_ratio: self.ev_ratio,
        }
    }

    /// The replication factor λ of the final placement (splitter-created
    /// replicas included).
    pub fn lambda(&self) -> f64 {
        self.replication.lambda()
    }

    /// Memory overhead of parallel-edge copies:
    /// `total_stored / num_global_edges`.
    pub fn storage_overhead(&self) -> f64 {
        if self.num_global_edges == 0 {
            1.0
        } else {
            self.total_stored_edges as f64 / self.num_global_edges as f64
        }
    }
}

/// Computes the dispatch rule's required machine set for a parallel edge.
fn required_machines(
    replication: &Replication,
    src: VertexId,
    dst: VertexId,
    bidirectional: bool,
) -> Vec<MachineId> {
    let mut req = replication.replicas[dst.index()].clone();
    if bidirectional {
        for &m in &replication.replicas[src.index()] {
            if !req.contains(&m) {
                req.push(m);
            }
        }
        req.sort();
    }
    req
}

/// Builds the distributed graph from a one-edge assignment and a split
/// plan. `bidirectional` selects the dispatch rule variant (§4.1 element 3):
/// set it for algorithms that propagate against edge direction too (CC,
/// k-core on symmetrised graphs still work with `false` since both
/// directions exist as edges; `true` matches the paper's stricter rule).
pub fn build_distributed(
    graph: &Graph,
    assignment: &[MachineId],
    num_machines: usize,
    plan: &SplitPlan,
    bidirectional: bool,
) -> DistributedGraph {
    assert_eq!(assignment.len(), graph.num_edges());
    assert_eq!(plan.is_parallel.len(), graph.num_edges());
    let n = graph.num_vertices();

    // --- Replica sets from one-edge placements only. -------------------
    let mut replica_sets: Vec<Vec<MachineId>> = vec![Vec::new(); n];
    let edges: Vec<(VertexId, VertexId, f32)> = graph
        .edges()
        .map(|e| (e.src, e.dst, e.weight))
        .collect();
    for (idx, &(src, dst, _)) in edges.iter().enumerate() {
        if plan.is_parallel[idx] {
            continue;
        }
        let m = assignment[idx];
        for v in [src, dst] {
            if !replica_sets[v.index()].contains(&m) {
                replica_sets[v.index()].push(m);
            }
        }
    }
    let mut replication = Replication::new(replica_sets, num_machines);

    // --- Fixpoint dispatch of parallel edges (may create replicas). ----
    let parallel_indices: Vec<usize> = plan
        .is_parallel
        .iter()
        .enumerate()
        .filter_map(|(i, &p)| p.then_some(i))
        .collect();
    loop {
        let mut changed = false;
        for &idx in &parallel_indices {
            let (src, dst, _) = edges[idx];
            let req = required_machines(&replication, src, dst, bidirectional);
            for m in req {
                changed |= replication.ensure_replica(src.index(), m);
                changed |= replication.ensure_replica(dst.index(), m);
            }
        }
        if !changed {
            break;
        }
    }
    replication.reelect_masters();

    // --- Shard assembly. ------------------------------------------------
    let mut shard_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); num_machines];
    for v in graph.vertices() {
        for &m in &replication.replicas[v.index()] {
            shard_vertices[m.index()].push(v); // already in ascending v order
        }
    }
    let mut routes: Vec<Box<[u32]>> = Vec::with_capacity(num_machines);
    for verts in &shard_vertices {
        let mut route = vec![NO_LOCAL; n].into_boxed_slice();
        for (l, v) in verts.iter().enumerate() {
            route[v.index()] = l as u32;
        }
        routes.push(route);
    }

    // Per-shard raw edge lists: (src_local, dst_local, weight, parallel).
    let mut shard_edges: Vec<Vec<(u32, u32, f32, bool)>> = vec![Vec::new(); num_machines];
    let mut total_stored = 0usize;
    for (idx, &(src, dst, w)) in edges.iter().enumerate() {
        if plan.is_parallel[idx] {
            let req = required_machines(&replication, src, dst, bidirectional);
            for m in req {
                let route = &routes[m.index()];
                let sl = route[src.index()];
                let dl = route[dst.index()];
                shard_edges[m.index()].push((sl, dl, w, true));
                total_stored += 1;
            }
        } else {
            let m = assignment[idx];
            let route = &routes[m.index()];
            let sl = route[src.index()];
            let dl = route[dst.index()];
            shard_edges[m.index()].push((sl, dl, w, false));
            total_stored += 1;
        }
    }

    let mut shards = Vec::with_capacity(num_machines);
    for m in 0..num_machines {
        let verts = std::mem::take(&mut shard_vertices[m]);
        let route = std::mem::replace(&mut routes[m], Box::new([]));
        let mut es = std::mem::take(&mut shard_edges[m]);
        es.sort_by_key(|&(sl, ..)| sl); // stable: keeps edge-index order per row
        let nl = verts.len();
        let mut out_offsets = vec![0u32; nl + 1];
        for &(sl, ..) in &es {
            out_offsets[sl as usize + 1] += 1;
        }
        for i in 1..out_offsets.len() {
            out_offsets[i] += out_offsets[i - 1];
        }
        let out_targets: Vec<u32> = es.iter().map(|&(_, dl, ..)| dl).collect();
        let out_weights: Vec<f32> = es.iter().map(|&(_, _, w, _)| w).collect();
        let out_parallel: Vec<bool> = es.iter().map(|&(.., p)| p).collect();
        let machine = MachineId::from(m);
        let mut is_master = Vec::with_capacity(nl);
        let mut master_of = Vec::with_capacity(nl);
        let mut mirrors = Vec::with_capacity(nl);
        let mut god = Vec::with_capacity(nl);
        let mut gid_ = Vec::with_capacity(nl);
        let mut gdeg = Vec::with_capacity(nl);
        let mut replicated = Vec::new();
        for (l, &v) in verts.iter().enumerate() {
            let master = replication.masters[v.index()];
            is_master.push(master == machine);
            master_of.push(master);
            let mirr: Vec<MachineId> = replication.replicas[v.index()]
                .iter()
                .copied()
                .filter(|&x| x != machine)
                .collect();
            if !mirr.is_empty() {
                replicated.push(l as u32);
            }
            mirrors.push(mirr.into_boxed_slice());
            god.push(graph.out_degree(v) as u32);
            gid_.push(graph.in_degree(v) as u32);
            gdeg.push(graph.degree(v) as u32);
        }
        shards.push(LocalShard {
            machine,
            globals: verts,
            route,
            is_master,
            master_of,
            mirrors,
            replicated,
            global_out_degree: god,
            global_in_degree: gid_,
            global_degree: gdeg,
            out_offsets,
            out_targets,
            out_weights,
            out_parallel,
        });
    }

    DistributedGraph {
        shards,
        replication,
        num_machines,
        num_global_vertices: n,
        num_global_edges: graph.num_edges(),
        num_parallel_edges: plan.num_parallel(),
        total_stored_edges: total_stored,
        ev_ratio: graph.ev_ratio(),
    }
}

/// Exhaustive structural validation against the source graph; used by tests
/// and the property suite.
pub fn validate_distributed(
    dg: &DistributedGraph,
    graph: &Graph,
    assignment: &[MachineId],
    plan: &SplitPlan,
    bidirectional: bool,
) -> Result<(), String> {
    dg.replication.validate()?;
    let n = graph.num_vertices();
    if dg.num_global_vertices != n {
        return Err("vertex count mismatch".into());
    }
    // Master uniqueness and replica consistency.
    let mut master_count = vec![0usize; n];
    let mut replica_count = vec![0usize; n];
    for shard in &dg.shards {
        if shard.globals.len() != shard.num_local() {
            return Err("shard size inconsistency".into());
        }
        if shard.route_table().len() != n {
            return Err(format!("{:?}: routing table wrong length", shard.machine));
        }
        let routed = shard.route_table().iter().filter(|&&l| l != NO_LOCAL).count();
        if routed != shard.num_local() {
            return Err(format!(
                "{:?}: routing table has {routed} entries for {} locals",
                shard.machine,
                shard.num_local()
            ));
        }
        let mut prev: Option<VertexId> = None;
        for (l, &v) in shard.globals.iter().enumerate() {
            if let Some(p) = prev {
                if p >= v {
                    return Err(format!("{:?}: globals not sorted", shard.machine));
                }
            }
            prev = Some(v);
            if shard.local_of(v) != Some(l as u32) {
                return Err(format!("{:?}: local map broken for {v:?}", shard.machine));
            }
            replica_count[v.index()] += 1;
            if shard.is_master[l] {
                master_count[v.index()] += 1;
                if shard.master_of[l] != shard.machine {
                    return Err("master_of disagrees with is_master".into());
                }
            }
            let expected_mirrors = dg.replication.replicas[v.index()].len() - 1;
            if shard.mirrors[l].len() != expected_mirrors {
                return Err(format!("{v:?}: mirror list size mismatch"));
            }
            if shard.global_out_degree[l] as usize != graph.out_degree(v) {
                return Err(format!("{v:?}: global out-degree wrong"));
            }
        }
        let expected_replicated: Vec<u32> = (0..shard.num_local() as u32)
            .filter(|&l| shard.has_mirrors(l))
            .collect();
        if shard.replicated != expected_replicated {
            return Err(format!(
                "{:?}: replicated list disagrees with mirror sets",
                shard.machine
            ));
        }
    }
    for v in 0..n {
        if master_count[v] != 1 {
            return Err(format!("vertex {v} has {} masters", master_count[v]));
        }
        if replica_count[v] != dg.replication.replicas[v].len() {
            return Err(format!("vertex {v} replica count mismatch"));
        }
    }
    // Edge multiset: every one-edge exactly once on its assigned machine;
    // every parallel edge on exactly its required set.
    use std::collections::HashMap;
    let mut stored: HashMap<(u32, u32, u32), Vec<MachineId>> = HashMap::new();
    for shard in &dg.shards {
        for l in 0..shard.num_local() as u32 {
            let src = shard.global_of(l);
            for (dl, w, _mode) in shard.out_edges(l) {
                let dst = shard.global_of(dl);
                stored
                    .entry((src.0, dst.0, w.to_bits()))
                    .or_default()
                    .push(shard.machine);
            }
        }
    }
    for (idx, e) in graph.edges().enumerate() {
        let key = (e.src.0, e.dst.0, e.weight.to_bits());
        let machines = stored
            .get(&key)
            .ok_or_else(|| format!("edge {idx} missing from all shards"))?;
        if plan.is_parallel[idx] {
            let mut req = required_machines(&dg.replication, e.src, e.dst, bidirectional);
            req.sort();
            let mut got = machines.clone();
            got.sort();
            if got != req {
                return Err(format!(
                    "parallel edge {idx} on {got:?}, required {req:?}"
                ));
            }
        } else {
            if machines.len() != 1 {
                return Err(format!(
                    "one-edge {idx} stored {} times",
                    machines.len()
                ));
            }
            if machines[0] != assignment[idx] {
                return Err(format!("one-edge {idx} on wrong machine"));
            }
        }
    }
    let total: usize = dg.shards.iter().map(|s| s.num_local_edges()).sum();
    if total != dg.total_stored_edges {
        return Err("total_stored_edges mismatch".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_split::{plan_split, SplitPlan, SplitterConfig};
    use crate::vertex_cut::{CoordinatedCut, Partitioner, RandomCut};
    use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};

    #[test]
    fn one_edge_only_build_validates() {
        let g = rmat(RmatConfig::graph500(10, 8, 1));
        let a = CoordinatedCut.assign(&g, 8);
        let plan = SplitPlan::none(g.num_edges());
        let dg = build_distributed(&g, &a, 8, &plan, false);
        validate_distributed(&dg, &g, &a, &plan, false).unwrap();
        assert_eq!(dg.total_stored_edges, g.num_edges());
        assert_eq!(dg.storage_overhead(), 1.0);
        assert!(dg.lambda() >= 1.0);
    }

    #[test]
    fn parallel_edges_build_validates() {
        let g = rmat(RmatConfig::graph500(10, 8, 2));
        let a = CoordinatedCut.assign(&g, 8);
        let plan = plan_split(&g, 8, &SplitterConfig::default());
        assert!(plan.num_parallel() > 0);
        let dg = build_distributed(&g, &a, 8, &plan, false);
        validate_distributed(&dg, &g, &a, &plan, false).unwrap();
        assert!(dg.total_stored_edges > g.num_edges());
        assert!(dg.num_parallel_edges == plan.num_parallel());
    }

    #[test]
    fn bidirectional_dispatch_validates() {
        let g = grid2d(Grid2dConfig::road(25, 25, 3));
        let a = RandomCut.assign(&g, 6);
        let plan = plan_split(
            &g,
            6,
            &SplitterConfig {
                t_extra: 0.0002,
                ..Default::default()
            },
        );
        let dg = build_distributed(&g, &a, 6, &plan, true);
        validate_distributed(&dg, &g, &a, &plan, true).unwrap();
    }

    #[test]
    fn splitting_can_create_replicas() {
        let g = rmat(RmatConfig::graph500(10, 8, 4));
        let a = CoordinatedCut.assign(&g, 8);
        let base = build_distributed(&g, &a, 8, &SplitPlan::none(g.num_edges()), false);
        let plan = plan_split(
            &g,
            8,
            &SplitterConfig {
                t_extra: 0.002,
                ..Default::default()
            },
        );
        let split = build_distributed(&g, &a, 8, &plan, false);
        assert!(
            split.replication.total_replicas() >= base.replication.total_replicas(),
            "dispatch must never shrink replica sets"
        );
    }

    #[test]
    fn lambda_matches_manual_count() {
        let g = rmat(RmatConfig::graph500(9, 6, 5));
        let a = RandomCut.assign(&g, 4);
        let plan = SplitPlan::none(g.num_edges());
        let dg = build_distributed(&g, &a, 4, &plan, false);
        let manual: usize = (0..g.num_vertices())
            .map(|v| dg.replication.replicas[v].len())
            .sum();
        assert_eq!(dg.lambda(), manual as f64 / g.num_vertices() as f64);
    }

    #[test]
    fn single_machine_shard_has_everything() {
        let g = rmat(RmatConfig::graph500(8, 6, 6));
        let a = RandomCut.assign(&g, 1);
        let plan = SplitPlan::none(g.num_edges());
        let dg = build_distributed(&g, &a, 1, &plan, false);
        assert_eq!(dg.shards.len(), 1);
        assert_eq!(dg.shards[0].num_local(), g.num_vertices());
        assert_eq!(dg.shards[0].num_local_edges(), g.num_edges());
        assert_eq!(dg.lambda(), 1.0);
        assert!(dg.shards[0].is_master.iter().all(|&b| b));
    }

    #[test]
    fn dense_route_table_agrees_with_globals() {
        let g = rmat(RmatConfig::graph500(9, 6, 5));
        let a = CoordinatedCut.assign(&g, 4);
        let plan = SplitPlan::none(g.num_edges());
        let dg = build_distributed(&g, &a, 4, &plan, false);
        for shard in &dg.shards {
            let route = shard.route_table();
            assert_eq!(route.len(), g.num_vertices());
            // Every global vertex either routes to the local slot holding
            // exactly its gid, or is marked absent.
            for v in g.vertices() {
                match route[v.index()] {
                    NO_LOCAL => assert!(!shard.globals.contains(&v)),
                    l => assert_eq!(shard.global_of(l), v),
                }
            }
            // local_of is the same table behind an Option.
            for (l, &v) in shard.globals.iter().enumerate() {
                assert_eq!(shard.local_of(v), Some(l as u32));
            }
        }
    }

    #[test]
    fn local_degrees_sum_to_global() {
        let g = rmat(RmatConfig::graph500(9, 8, 7));
        let a = CoordinatedCut.assign(&g, 8);
        let plan = SplitPlan::none(g.num_edges());
        let dg = build_distributed(&g, &a, 8, &plan, false);
        // Sum of local out-degrees over all replicas of v == global out-deg.
        let mut sums = vec![0usize; g.num_vertices()];
        for shard in &dg.shards {
            for l in 0..shard.num_local() as u32 {
                sums[shard.global_of(l).index()] += shard.local_out_degree(l);
            }
        }
        for v in g.vertices() {
            assert_eq!(sums[v.index()], g.out_degree(v), "{v:?}");
        }
    }
}
