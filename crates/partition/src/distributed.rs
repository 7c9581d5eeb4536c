//! Construction of the *system-view* graph: per-machine [`LocalShard`]s with
//! master/mirror metadata and per-edge transmission modes.
//!
//! This is where the paper's two transmission modes become concrete:
//! a one-edge-mode edge is stored on exactly the machine its vertex-cut
//! assignment chose; a parallel-edges-mode edge is *copied* onto every
//! machine required by the dispatch rule (§4.1), creating replicas where
//! needed (Fig. 7(b)) — the dispatch therefore runs to a fixpoint, since
//! created replicas can enlarge the required set of other parallel edges.

use std::convert::Infallible;
use std::io;
use std::path::PathBuf;

use lazygraph_graph::{Graph, MachineId, VertexId};
use lazygraph_net::wire_record;

use crate::edge_split::SplitPlan;
use crate::replication::{bit, machines_of, MachineMask, Replication};
use file::ShardFile;

mod codec;
mod file;

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
    /// The *other* machines holding replicas of each local vertex, all
    /// lists in one array: local `l`'s are
    /// `mirror_machines[mirror_offsets[l]..mirror_offsets[l + 1]]`, sorted.
    /// See [`LocalShard::mirrors`].
    mirror_offsets: Vec<u32>,
    mirror_machines: Vec<MachineId>,
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

    /// The *other* machines holding replicas of local vertex `l`, sorted.
    #[inline]
    pub fn mirrors(&self, l: u32) -> &[MachineId] {
        let l = l as usize;
        &self.mirror_machines[self.mirror_offsets[l] as usize..self.mirror_offsets[l + 1] as usize]
    }

    /// Whether this replica has any remote siblings.
    #[inline]
    pub fn has_mirrors(&self, l: u32) -> bool {
        self.mirror_offsets[l as usize] != self.mirror_offsets[l as usize + 1]
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

// The part of a multiprocess job file every shard is checked against.
wire_record!(PlacementShape { num_machines, num_global_vertices, ev_ratio });

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

/// The dispatch rule's required machine set for a parallel edge.
fn required_machines(
    replication: &Replication,
    src: VertexId,
    dst: VertexId,
    bidirectional: bool,
) -> MachineMask {
    let req = replication.mask(dst.index());
    if bidirectional {
        req | replication.mask(src.index())
    } else {
        req
    }
}

/// The final lengths of one shard's arrays, counted before any is filled:
/// in memory each array is allocated once, and in a shard file every
/// array's byte offset is known before its first byte is written.
#[derive(Clone, Copy, Default)]
struct ShardSize {
    locals: usize,
    /// Locals that have mirrors.
    replicated: usize,
    /// Mirror-list entries over all locals.
    mirrors: usize,
    edges: usize,
}

/// A vertex's user-view degrees, which every replica of it records.
#[derive(Clone, Copy)]
struct Degrees {
    out: u32,
    inward: u32,
    total: u32,
}

/// Where the placement walk puts one shard: a [`LocalShard`] in memory,
/// or the shard's file ([`file::ShardFile`]). The walk hands a sink its
/// locals ascending by gid, then its rows in the same order, so every
/// array of the shard only ever grows at its end.
trait ShardSink {
    type Error;

    /// Appends the next local, a replica of `v`: routes `v` to it and
    /// records its master, the other machines holding `v` and its degrees.
    fn push_vertex(
        &mut self,
        v: VertexId,
        master: MachineId,
        others: MachineMask,
        degrees: Degrees,
    ) -> Result<(), Self::Error>;

    /// Appends an edge of the row being filled; `dst` is a local here.
    fn push_edge(&mut self, dst: VertexId, weight: f32, parallel: bool) -> Result<(), Self::Error>;

    /// Closes the row being filled.
    fn close_row(&mut self) -> Result<(), Self::Error>;
}

impl LocalShard {
    /// An empty shard of machine `m` with every array reserved to `size`.
    fn reserved(m: usize, num_global: usize, size: ShardSize) -> LocalShard {
        let offsets = || {
            let mut offsets = Vec::with_capacity(size.locals + 1);
            offsets.push(0);
            offsets
        };
        LocalShard {
            machine: MachineId::from(m),
            globals: Vec::with_capacity(size.locals),
            route: vec![NO_LOCAL; num_global].into_boxed_slice(),
            is_master: Vec::with_capacity(size.locals),
            master_of: Vec::with_capacity(size.locals),
            mirror_offsets: offsets(),
            mirror_machines: Vec::with_capacity(size.mirrors),
            replicated: Vec::with_capacity(size.replicated),
            global_out_degree: Vec::with_capacity(size.locals),
            global_in_degree: Vec::with_capacity(size.locals),
            global_degree: Vec::with_capacity(size.locals),
            out_offsets: offsets(),
            out_targets: Vec::with_capacity(size.edges),
            out_weights: Vec::with_capacity(size.edges),
            out_parallel: Vec::with_capacity(size.edges),
        }
    }
}

impl ShardSink for LocalShard {
    type Error = Infallible;

    fn push_vertex(
        &mut self,
        v: VertexId,
        master: MachineId,
        others: MachineMask,
        degrees: Degrees,
    ) -> Result<(), Infallible> {
        let l = self.globals.len() as u32;
        self.route[v.index()] = l;
        self.globals.push(v);
        self.is_master.push(master == self.machine);
        self.master_of.push(master);
        if others != 0 {
            self.replicated.push(l);
            self.mirror_machines.extend(machines_of(others));
        }
        self.mirror_offsets.push(self.mirror_machines.len() as u32);
        self.global_out_degree.push(degrees.out);
        self.global_in_degree.push(degrees.inward);
        self.global_degree.push(degrees.total);
        Ok(())
    }

    fn push_edge(&mut self, dst: VertexId, weight: f32, parallel: bool) -> Result<(), Infallible> {
        self.out_targets.push(self.route[dst.index()]);
        self.out_weights.push(weight);
        self.out_parallel.push(parallel);
        Ok(())
    }

    fn close_row(&mut self) -> Result<(), Infallible> {
        self.out_offsets.push(self.out_targets.len() as u32);
        Ok(())
    }
}

/// The first walk over the graph's rows and what it settles before any
/// shard exists: every vertex's replica set and master, and every shard's
/// array lengths. It ORs every one-edge placement into its endpoints'
/// replica masks, then runs the dispatch fix-point along the (few)
/// parallel edges.
fn replicate(
    graph: &Graph,
    assignment: &[MachineId],
    num_machines: usize,
    plan: &SplitPlan,
    bidirectional: bool,
) -> (Replication, Vec<ShardSize>) {
    assert_eq!(assignment.len(), graph.num_edges());
    assert_eq!(plan.is_parallel.len(), graph.num_edges());
    let n = graph.num_vertices();
    let out = graph.out_csr();

    // --- Replica sets from one-edge placements only. -------------------
    let mut masks: Vec<MachineMask> = vec![0; n];
    let mut sizes = vec![ShardSize::default(); num_machines];
    let mut parallel_edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(plan.num_parallel());
    for src in graph.vertices() {
        let mut src_mask = 0;
        for (idx, &dst) in out.range(src).zip(out.neighbors(src)) {
            if plan.is_parallel[idx] {
                parallel_edges.push((src, dst));
            } else {
                let m = assignment[idx];
                src_mask |= bit(m);
                masks[dst.index()] |= bit(m);
                sizes[m.index()].edges += 1;
            }
        }
        masks[src.index()] |= src_mask;
    }
    let mut replication = Replication::new(masks, num_machines);

    // --- Fixpoint dispatch of parallel edges (may create replicas). ----
    loop {
        let mut changed = false;
        for &(src, dst) in &parallel_edges {
            let req = required_machines(&replication, src, dst, bidirectional);
            changed |= replication.ensure_replicas(src.index(), req);
            changed |= replication.ensure_replicas(dst.index(), req);
        }
        if !changed {
            break;
        }
    }
    replication.reelect_masters();
    for &(src, dst) in &parallel_edges {
        for m in machines_of(required_machines(&replication, src, dst, bidirectional)) {
            sizes[m.index()].edges += 1;
        }
    }
    drop(parallel_edges);

    for v in 0..n {
        let others = replication.num_replicas(v) - 1;
        for m in replication.replicas(v) {
            let size = &mut sizes[m.index()];
            size.locals += 1;
            size.replicated += usize::from(others > 0);
            size.mirrors += others;
        }
    }
    (replication, sizes)
}

/// The second walk: hands every shard's sink its locals, then every edge
/// it stores. Per-vertex entries and the route tables come first, since an
/// edge's target is translated through its shard's table whichever row it
/// sits in. Rows ascend and a shard's local ids ascend with them, so what
/// a sink receives is already its CSR (DESIGN.md §18).
fn fill<S: ShardSink>(
    graph: &Graph,
    assignment: &[MachineId],
    plan: &SplitPlan,
    replication: &Replication,
    bidirectional: bool,
    sinks: &mut [S],
) -> Result<(), S::Error> {
    for v in graph.vertices() {
        let mask = replication.mask(v.index());
        let master = replication.masters[v.index()];
        let degrees = Degrees {
            out: graph.out_degree(v) as u32,
            inward: graph.in_degree(v) as u32,
            total: graph.degree(v) as u32,
        };
        for m in machines_of(mask) {
            sinks[m.index()].push_vertex(v, master, mask & !bit(m), degrees)?;
        }
    }
    let out = graph.out_csr();
    for src in graph.vertices() {
        let edges = out.range(src).zip(out.neighbors(src)).zip(out.weights(src));
        for ((idx, &dst), &w) in edges {
            if plan.is_parallel[idx] {
                for m in machines_of(required_machines(replication, src, dst, bidirectional)) {
                    sinks[m.index()].push_edge(dst, w, true)?;
                }
            } else {
                sinks[assignment[idx].index()].push_edge(dst, w, false)?;
            }
        }
        // Close the row on every shard that holds `src`.
        for m in replication.replicas(src.index()) {
            sinks[m.index()].close_row()?;
        }
    }
    Ok(())
}

/// Builds the distributed graph from a one-edge assignment and a split
/// plan. `bidirectional` selects the dispatch rule variant (§4.1 element 3):
/// set it for algorithms that propagate against edge direction too (CC,
/// k-core on symmetrised graphs still work with `false` since both
/// directions exist as edges; `true` matches the paper's stricter rule).
///
/// Two walks over the graph's rows and nothing edge-sized in between: the
/// first ORs every one-edge placement into its endpoints' replica masks,
/// the second appends every edge to the arrays of the shards that store it.
/// Rows ascend and a shard's local ids ascend with them, so what a shard
/// receives is already its CSR (DESIGN.md §18).
pub fn build_distributed(
    graph: &Graph,
    assignment: &[MachineId],
    num_machines: usize,
    plan: &SplitPlan,
    bidirectional: bool,
) -> DistributedGraph {
    let (replication, sizes) = replicate(graph, assignment, num_machines, plan, bidirectional);
    let n = graph.num_vertices();
    let mut shards: Vec<LocalShard> = sizes
        .iter()
        .enumerate()
        .map(|(m, &size)| LocalShard::reserved(m, n, size))
        .collect();
    let Ok(()) = fill(graph, assignment, plan, &replication, bidirectional, &mut shards);
    let total_stored = shards.iter().map(LocalShard::num_local_edges).sum();

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

/// What a placement streamed into shard files leaves its caller: the
/// three scalars every machine reads of it, its λ, the master table, and
/// each file's size. No shard.
#[derive(Clone, Debug)]
pub struct ShardFiles {
    pub shape: PlacementShape,
    /// The replication factor λ (splitter-created replicas included).
    pub lambda: f64,
    /// The machine holding each vertex's master replica, indexed by gid.
    pub masters: Vec<MachineId>,
    /// Each shard file's size in bytes, indexed by machine.
    pub bytes: Vec<u64>,
}

/// [`build_distributed`] into files: the same two walks, but machine
/// `m`'s shard goes to the file `path(m)` as it is placed — byte for byte
/// `build_distributed(..).shards[m].to_wire()` — instead of into memory.
/// The second walk still visits every row once and fills all N files as it
/// goes. Besides its arguments it holds the replica masks, one route table
/// per shard (4 B per vertex) and a small buffer per array of each file;
/// no placed shard exists at any point (DESIGN.md §10). On an error the
/// files already created are left for the caller to remove.
pub fn write_shard_files(
    graph: &Graph,
    assignment: &[MachineId],
    num_machines: usize,
    plan: &SplitPlan,
    bidirectional: bool,
    path: impl Fn(usize) -> PathBuf,
) -> io::Result<ShardFiles> {
    let (replication, sizes) = replicate(graph, assignment, num_machines, plan, bidirectional);
    let n = graph.num_vertices();
    let mut files = sizes
        .iter()
        .enumerate()
        .map(|(m, &size)| ShardFile::create(&path(m), MachineId::from(m), size, n))
        .collect::<io::Result<Vec<_>>>()?;
    fill(graph, assignment, plan, &replication, bidirectional, &mut files)?;
    let bytes = files.into_iter().map(ShardFile::finish).collect::<io::Result<_>>()?;
    Ok(ShardFiles {
        shape: PlacementShape {
            num_machines,
            num_global_vertices: n,
            ev_ratio: graph.ev_ratio(),
        },
        lambda: replication.lambda(),
        masters: replication.masters,
        bytes,
    })
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
            let expected_mirrors = dg
                .replication
                .replicas(v.index())
                .filter(|&m| m != shard.machine);
            if !expected_mirrors.eq(shard.mirrors(l as u32).iter().copied()) {
                return Err(format!("{v:?}: mirror list is not the other replicas"));
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
        if replica_count[v] != dg.replication.num_replicas(v) {
            return Err(format!("vertex {v} replica count mismatch"));
        }
    }
    // Edge multiset: every one-edge exactly once on its assigned machine;
    // every parallel edge on exactly its required set.
    let mut stored: std::collections::BTreeMap<(u32, u32, u32), Vec<MachineId>> =
        std::collections::BTreeMap::new();
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
            let req = required_machines(&dg.replication, e.src, e.dst, bidirectional);
            let req: Vec<MachineId> = machines_of(req).collect();
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
    use crate::replication::reference;
    use crate::vertex_cut::{CoordinatedCut, Partitioner, RandomCut};
    use lazygraph_graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
    use lazygraph_graph::GraphBuilder;
    use proptest::prelude::*;

    /// Replica sets as they were derived before they were masks: one list
    /// per vertex from the one-edge placements, then the dispatch fix-point
    /// inserting into sorted lists. Kept as the oracle.
    fn replicas_by_lists(
        graph: &Graph,
        assignment: &[MachineId],
        num_machines: usize,
        plan: &SplitPlan,
        bidirectional: bool,
    ) -> Vec<Vec<MachineId>> {
        let mut replicas =
            reference::replica_lists(graph, assignment, &plan.is_parallel, num_machines);
        let parallel: Vec<_> = graph
            .edges()
            .zip(&plan.is_parallel)
            .filter_map(|(e, &p)| p.then_some((e.src.index(), e.dst.index())))
            .collect();
        loop {
            let mut changed = false;
            for &(src, dst) in &parallel {
                let mut req = replicas[dst].clone();
                if bidirectional {
                    req.extend(&replicas[src]);
                }
                for m in req {
                    for v in [src, dst] {
                        if let Err(at) = replicas[v].binary_search(&m) {
                            replicas[v].insert(at, m);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return replicas;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Masks against lists on arbitrary placements and arbitrary split
        /// flags (chains of parallel edges make the fix-point take several
        /// passes), with isolated and trailing vertices, and the shards
        /// against the exhaustive structural check.
        #[test]
        fn replica_masks_match_the_lists_they_replaced(
            n in 2usize..40,
            links in proptest::collection::vec((0u32..40, 0u32..40, 0u16..128, 0u32..4), 0..200),
            machines in 1usize..12,
            bidirectional in any::<bool>(),
        ) {
            let mut b = GraphBuilder::new(n + 3);
            for &(s, d, _, _) in &links {
                b.add_edge(s % n as u32, d % n as u32);
            }
            // `validate_distributed` tells edges apart by their endpoints.
            b.dedup();
            let g = b.build();
            let assignment: Vec<MachineId> = g
                .edges()
                .zip(&links)
                .map(|(_, &(_, _, m, _))| MachineId(m % machines as u16))
                .collect();
            let mut plan = SplitPlan::none(g.num_edges());
            for (flag, &(_, _, _, split)) in plan.is_parallel.iter_mut().zip(&links) {
                *flag = split == 0;
            }
            plan.num_low = plan.is_parallel.iter().filter(|&&p| p).count();

            let dg = build_distributed(&g, &assignment, machines, &plan, bidirectional);
            let lists = replicas_by_lists(&g, &assignment, machines, &plan, bidirectional);
            for (v, list) in lists.iter().enumerate() {
                prop_assert!(dg.replication.replicas(v).eq(list.iter().copied()), "vertex {}", v);
            }
            prop_assert_eq!(&dg.replication.masters, &reference::elect_masters(&lists));
            validate_distributed(&dg, &g, &assignment, &plan, bidirectional).unwrap();
            for shard in &dg.shards {
                shard.validate().unwrap();
            }
        }
    }

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
            .map(|v| dg.replication.num_replicas(v))
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
