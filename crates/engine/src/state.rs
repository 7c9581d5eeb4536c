//! Per-machine replica state: the runtime variables §3.2 lists for every
//! replica — `vdata[v]`, `message[v]`, `deltaMsg[v]`, `isActive[v]` (the
//! replica/master topology lives in the shard itself).

use lazygraph_partition::LocalShard;

use crate::exchange::Inbound;
use crate::parallel::ParallelCtx;
use crate::program::{VertexCtx, VertexProgram};

/// Which replicas receive the program's initial messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitMessages {
    /// Lazy engines: every replica applies the initial message locally
    /// (each replica scatters along its own local edges, covering every
    /// edge exactly once).
    AllReplicas,
    /// Eager engines: apply happens at masters only, so only masters are
    /// pre-loaded.
    MastersOnly,
}

/// The mutable vertex arrays of one machine.
pub struct MachineState<P: VertexProgram> {
    /// Local view of the vertex value, per local replica.
    pub vdata: Vec<P::VData>,
    /// Replica value as of the last data coherency point — the common view
    /// all replicas shared there; used by delta-suppression policies.
    pub coherent: Vec<P::VData>,
    /// Pending gathered messages (`message[v]`).
    pub message: Vec<Option<P::Delta>>,
    /// Delta accumulated from local one-edge-mode receipts since the last
    /// coherency point (`deltaMsg[v]`).
    pub delta_msg: Vec<Option<P::Delta>>,
    /// Activation flag (`isActive[v]`), guarding `queue` membership.
    pub active: Vec<bool>,
    /// Worklist of active local vertices.
    pub queue: Vec<u32>,
    /// Iteration-persistent delivery scratch (DESIGN.md §9). Capacity-only
    /// state: contents are always written before being read, so reuse
    /// cannot affect results — which is why a snapshot leaves it out
    /// (`checkpoint::write_snapshot`'s `scratch: _`).
    pub scratch: Scratch<P>,
}

/// One producer's deliveries, bucketed by target block: `segments[b]` holds,
/// in production order, the items whose target falls in block `b`
/// (`l / block_size`). A producer is one source block of a local sweep
/// ([`SourceBlock`]) or one routed inbound batch
/// ([`Inbound`](crate::exchange::Inbound)).
pub type Segments<D> = Vec<Vec<(u32, D)>>;

/// Top bit of a staged item's local id: the delivery also folds into
/// `deltaMsg[l]` (a one-edge-mode receipt on a replicated target). Riding
/// in the id keeps one 16-byte item layout for every engine.
const FOLD_DELTA: u32 = 1 << 31;

/// Most source blocks per pool thread one sweep is split into: enough for
/// the pool to balance a skewed sweep, no more. Staging keeps one segment
/// per (source block, target block) pair, and fewer, fuller segments keep
/// their shape from sweep to sweep, so this bounds both the segment
/// headers (however small the block size) and how often a segment
/// regrows. The fold order (source block, item) is the flat scatter order
/// for any contiguous split, so the split cannot affect results. The fold
/// splits the *target* blocks into as many contiguous runs per thread, for
/// the same balance (`deliver_segments`).
const SOURCE_BLOCKS_PER_THREAD: usize = 4;

/// Retained-capacity bound of a scratch role, in multiples of the largest
/// single fold: a role that outgrows it (a frontier wandering across
/// target blocks leaves capacity behind in each) is released and regrows.
const SCRATCH_SLACK: usize = 4;

/// Items `segments` holds capacity for.
pub(crate) fn retained<D>(segments: &Segments<D>) -> usize {
    segments.iter().map(Vec::capacity).sum()
}

/// Target blocks of a machine with `num_local` vertices.
pub(crate) fn num_blocks(num_local: usize, block_size: usize) -> usize {
    num_local.div_ceil(block_size.max(1))
}

/// The staging buffers of one source block of a sweep: phase A fills them
/// from a read-only view of the state, phase B commits them in block
/// order. Reused in place by the same source block of the next sweep.
pub struct SourceBlock<P: VertexProgram> {
    /// Apply outcomes of this block's worklist entries (`None`: the entry
    /// had an empty inbox and only deactivates).
    pub commits: Vec<(u32, Option<P::VData>)>,
    segments: Segments<P::Delta>,
    block_size: usize,
}

impl<P: VertexProgram> SourceBlock<P> {
    /// Stages one scattered message for local vertex `l` — its only copy
    /// until the fold. `fold_delta` marks a one-edge-mode receipt that
    /// also accumulates into `deltaMsg[l]`.
    #[inline]
    pub fn stage(&mut self, l: u32, d: P::Delta, fold_delta: bool) {
        let tag = if fold_delta { FOLD_DELTA } else { 0 };
        self.segments[l as usize / self.block_size].push((l | tag, d));
    }
}

/// Iteration-persistent delivery scratch, one owner per role (DESIGN.md
/// §9): a buffer is only ever reused in the role it grew in, so a steady
/// sweep reuses every per-item buffer and none is regrown to another
/// role's size.
pub struct Scratch<P: VertexProgram> {
    /// Local-scatter role: the source blocks of a sweep.
    pub staging: Staging<P>,
    /// Inbound role: the exchange router's per-batch buckets.
    pub inbound: Inbound<P::Delta>,
    /// `activated[t]`: the vertices fold task `t` newly activated, in
    /// block order; drained into the worklist before the fold returns.
    activated: Vec<Vec<u32>>,
    /// Most items any single fold delivered so far.
    peak_items: usize,
}

impl<P: VertexProgram> Default for Scratch<P> {
    fn default() -> Self {
        Scratch {
            staging: Staging {
                blocks: Vec::new(),
                open: 0,
            },
            inbound: Inbound::default(),
            activated: Vec::new(),
            peak_items: 0,
        }
    }
}

/// The source blocks of a machine's sweeps: `blocks[s]` belongs to source
/// block `s` of every sweep.
pub struct Staging<P: VertexProgram> {
    blocks: Vec<SourceBlock<P>>,
    /// Source blocks the sweep in flight opened; `blocks[..open]` feed the
    /// next [`MachineState::deliver_staged`].
    open: usize,
}

impl<P: VertexProgram> Staging<P> {
    /// Opens `n` emptied source blocks for a sweep on a machine with
    /// `num_local` vertices (the same count, and the same block size, on
    /// every sweep of a run: a block is built with its segments).
    pub fn open_blocks(
        &mut self,
        pctx: &ParallelCtx,
        num_local: usize,
        n: usize,
    ) -> &mut [SourceBlock<P>] {
        let block_size = pctx.block_size();
        let num_blocks = num_blocks(num_local, block_size);
        if self.blocks.len() < n {
            self.blocks.resize_with(n, || SourceBlock {
                commits: Vec::new(),
                segments: std::iter::repeat_with(Vec::new).take(num_blocks).collect(),
                block_size,
            });
        }
        self.open = n;
        let blocks = &mut self.blocks[..n];
        for b in blocks.iter_mut() {
            b.commits.clear();
            b.segments.iter_mut().for_each(Vec::clear);
        }
        blocks
    }

    /// Splits an ordered task list into contiguous source blocks, each
    /// paired with its staging buffers — the work items of a sweep's
    /// parallel phase A.
    pub fn source_blocks<'a, T>(
        &'a mut self,
        pctx: &ParallelCtx,
        num_local: usize,
        tasks: &'a [T],
    ) -> Vec<(&'a [T], &'a mut SourceBlock<P>)> {
        let most = SOURCE_BLOCKS_PER_THREAD * pctx.threads();
        let chunk = pctx.block_size().max(tasks.len().div_ceil(most));
        let n = tasks.len().div_ceil(chunk);
        tasks.chunks(chunk).zip(self.open_blocks(pctx, num_local, n)).collect()
    }

    /// The source blocks of the sweep in flight, for phase B's commits.
    pub fn opened(&mut self) -> &mut [SourceBlock<P>] {
        &mut self.blocks[..self.open]
    }
}

/// What one [`MachineState::deliver_segments`] pass did.
#[derive(Clone, Copy, Default)]
struct Folded {
    /// Vectorized runs (length ≥ 2).
    runs: u64,
    /// Items folded into an occupied `deltaMsg` slot.
    delta_folds: u64,
    items: usize,
}

impl<P: VertexProgram> MachineState<P> {
    /// Initialises all local replicas: `vdata` from `initData` and the
    /// worklist from `initMsg` per the engine's [`InitMessages`] policy.
    pub fn init(
        shard: &LocalShard,
        program: &P,
        init: InitMessages,
        num_vertices: usize,
    ) -> Self {
        let n = shard.num_local();
        debug_assert!(n < FOLD_DELTA as usize, "local ids must leave the tag bit free");
        let mut vdata = Vec::with_capacity(n);
        let mut message = Vec::with_capacity(n);
        let mut active = vec![false; n];
        let mut queue = Vec::new();
        for l in 0..n as u32 {
            let v = shard.global_of(l);
            let ctx = vertex_ctx(shard, l, num_vertices);
            vdata.push(initial_data(shard, program, l, num_vertices));
            let eligible = match init {
                InitMessages::AllReplicas => true,
                InitMessages::MastersOnly => shard.is_master[l as usize],
            };
            let msg = if eligible {
                program.init_message(v, &ctx)
            } else {
                None
            };
            if msg.is_some() {
                active[l as usize] = true;
                queue.push(l);
            }
            message.push(msg);
        }
        let coherent = vdata.clone();
        MachineState {
            vdata,
            coherent,
            message,
            delta_msg: vec![None; n],
            active,
            queue,
            scratch: Scratch::default(),
        }
    }

    /// Accumulates `d` into `message[l]` and activates `l` if quiet.
    #[inline]
    pub fn deliver(&mut self, program: &P, l: u32, d: P::Delta) {
        let slot = &mut self.message[l as usize];
        *slot = Some(match slot.take() {
            Some(prev) => program.sum(prev, d),
            None => d,
        });
        if !self.active[l as usize] {
            self.active[l as usize] = true;
            self.queue.push(l);
        }
    }

    /// Accumulates `d` into `deltaMsg[l]` (one-edge-mode receipt awaiting
    /// the next coherency point).
    #[inline]
    pub fn accumulate_delta(&mut self, program: &P, l: u32, d: P::Delta) {
        let slot = &mut self.delta_msg[l as usize];
        *slot = Some(match slot.take() {
            Some(prev) => program.sum(prev, d),
            None => d,
        });
    }

    /// The one delivery sink: folds `producers`' segments into `message`
    /// (and, for [`FOLD_DELTA`]-tagged items, `deltaMsg`), bitwise-identical
    /// to the sequential left-fold `for (l, d) in items { deliver(l, d) }`
    /// over the producers' items in (producer, item) order.
    ///
    /// The trick is ownership by *target block*: every producer bucketed
    /// its items by `l / block_size`, and each block exclusively owns its
    /// slice of `message`/`delta_msg`/`active`, so a pool task owning a
    /// contiguous run of blocks walks, block by block, that block's
    /// segment of every producer in order. Every vertex's fold therefore
    /// runs as the exact sequential reduction regardless of schedule —
    /// float results cannot drift with the thread count. Per-task
    /// activation lists, filled in block order, join the worklist in task
    /// order — block-index order overall — so the worklist order is
    /// reproducible too.
    ///
    /// The fold is *run-vectorized*: a maximal run of consecutive items
    /// with the same target loads the slot once, folds the run's deltas
    /// left-to-right (`((slot ⊕ d₁) ⊕ d₂) ⊕ …` — exactly the per-item
    /// delivery order, so no float re-association), and stores once.
    /// Runs deliberately span *segment boundaries*: sender-side combining
    /// means a gid appears at most once per inbound batch (= per
    /// producer), so a high-degree vertex's deltas from k senders land in
    /// k consecutive segments of its block, not k consecutive items of
    /// one segment. The loaded slot stays open across the boundary and
    /// only stores when the target changes.
    fn deliver_segments(
        &mut self,
        program: &P,
        ctx: &ParallelCtx,
        producers: &[&Segments<P::Delta>],
    ) -> Folded {
        let bs = ctx.block_size();
        let num_blocks = num_blocks(self.message.len(), bs);
        // One pool task per contiguous run of target blocks — as few runs
        // per thread as a sweep has source blocks, and for the same
        // reason: a sub-round of an ordered local stage delivers a few
        // hundred items, and a task list (or an `activated` list) per
        // target block would cost more than the fold itself.
        let per_task = num_blocks.div_ceil(SOURCE_BLOCKS_PER_THREAD * ctx.threads()).max(1);
        let span = per_task.saturating_mul(bs);
        self.scratch.activated.resize_with(num_blocks.div_ceil(per_task), Vec::new);
        struct FoldTask<'a, P: VertexProgram> {
            first_block: usize,
            message: &'a mut [Option<P::Delta>],
            delta_msg: &'a mut [Option<P::Delta>],
            active: &'a mut [bool],
            newly: &'a mut Vec<u32>,
        }
        let work: Vec<FoldTask<'_, P>> = (self.message.chunks_mut(span))
            .zip(self.delta_msg.chunks_mut(span))
            .zip(self.active.chunks_mut(span))
            .zip(&mut self.scratch.activated)
            .enumerate()
            .map(|(task, (((message, delta_msg), active), newly))| FoldTask {
                first_block: task * per_task,
                message,
                delta_msg,
                active,
                newly,
            })
            .collect();
        let folded: Vec<Folded> = ctx.pool().map(work, |w| {
            let FoldTask {
                first_block,
                message,
                delta_msg,
                active,
                newly,
            } = w;
            let base = first_block * bs;
            let mut out = Folded::default();
            // Open run: (slot index, loaded-and-folded accumulator,
            // length). Kept across producers so a run continues through a
            // segment boundary; stored only when the target changes.
            let mut open: Option<(usize, P::Delta, u64)> = None;
            let store = |message: &mut [Option<P::Delta>], out: &mut Folded, (i, acc, n)| {
                message[i] = Some(acc);
                out.runs += u64::from(n >= 2);
            };
            for block in first_block..(first_block + per_task).min(num_blocks) {
                for segments in producers {
                    let segment = &segments[block];
                    out.items += segment.len();
                    for &(tagged, d) in segment {
                        let i = (tagged & !FOLD_DELTA) as usize - base;
                        open = Some(match open.take() {
                            Some((oi, acc, n)) if oi == i => (i, program.sum(acc, d), n + 1),
                            prev => {
                                if let Some(run) = prev {
                                    store(message, &mut out, run);
                                }
                                if !active[i] {
                                    active[i] = true;
                                    newly.push(tagged & !FOLD_DELTA);
                                }
                                let acc = match message[i].take() {
                                    Some(prev) => program.sum(prev, d),
                                    None => d,
                                };
                                (i, acc, 1)
                            }
                        });
                        if tagged & FOLD_DELTA != 0 {
                            let slot = &mut delta_msg[i];
                            *slot = Some(match slot.take() {
                                Some(prev) => {
                                    out.delta_folds += 1;
                                    program.sum(prev, d)
                                }
                                None => d,
                            });
                        }
                    }
                }
            }
            if let Some(run) = open {
                store(message, &mut out, run);
            }
            out
        });
        for newly in &mut self.scratch.activated {
            self.queue.append(newly);
        }
        let total = folded.into_iter().fold(Folded::default(), |a, b| Folded {
            runs: a.runs + b.runs,
            delta_folds: a.delta_folds + b.delta_folds,
            items: a.items + b.items,
        });
        self.scratch.peak_items = self.scratch.peak_items.max(total.items);
        total
    }

    /// Folds what the current sweep's source blocks staged
    /// ([`Staging::source_blocks`]) in (source block, item) order — exactly
    /// the flat order the sweep scattered in. Returns the number of items
    /// folded into an *occupied* `deltaMsg` slot: each such fold is one
    /// contribution the coherency exchange will not ship as its own wire
    /// item (the sender-side combining the exchange counts as
    /// `items_combined`).
    pub fn deliver_staged(&mut self, program: &P, ctx: &ParallelCtx) -> u64 {
        let mut blocks = std::mem::take(&mut self.scratch.staging.blocks);
        let open = std::mem::take(&mut self.scratch.staging.open);
        let producers: Vec<&Segments<P::Delta>> =
            blocks[..open].iter().map(|b| &b.segments).collect();
        let folded = self.deliver_segments(program, ctx, &producers);
        let retained: usize = blocks.iter().map(|b| retained(&b.segments)).sum();
        if retained > self.retention_limit() {
            blocks.iter_mut().flat_map(|b| &mut b.segments).for_each(|s| *s = Vec::new());
        }
        self.scratch.staging.blocks = blocks;
        folded.delta_folds
    }

    /// Folds the batches the inbound router parked this round
    /// ([`crate::exchange::route_inbound`]) in the order it routed them —
    /// sender order.
    /// Returns the number of vectorized runs (length ≥ 2) folded — the
    /// engines record it as `fold_runs` in
    /// [`NetStats`](lazygraph_cluster::NetStats).
    pub fn deliver_inbound(&mut self, program: &P, ctx: &ParallelCtx) -> u64 {
        let mut inbound = std::mem::take(&mut self.scratch.inbound);
        let producers: Vec<&Segments<P::Delta>> = inbound.routed().iter().collect();
        let folded = self.deliver_segments(program, ctx, &producers);
        inbound.finish_round(self.retention_limit());
        self.scratch.inbound = inbound;
        folded.runs
    }

    /// How many items each scratch role may keep capacity for: a small
    /// multiple of the largest single fold (floored at the vertex count,
    /// so a machine that only ever saw tiny sweeps does not thrash).
    fn retention_limit(&self) -> usize {
        SCRATCH_SLACK * self.scratch.peak_items.max(self.message.len())
    }

    /// Number of local replicas with a pending message.
    pub fn pending_messages(&self) -> u64 {
        self.message.iter().filter(|m| m.is_some()).count() as u64
    }

    /// Takes the current worklist, leaving an empty one (one sub-round).
    pub fn take_queue(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.queue)
    }

    /// [`Self::take_queue`] into a caller-owned buffer whose emptied
    /// capacity becomes the fresh queue: the two vectors trade places every
    /// sub-round instead of one being regrown from zero.
    pub fn take_queue_into(&mut self, worklist: &mut Vec<u32>) {
        worklist.clear();
        std::mem::swap(&mut self.queue, worklist);
    }
}

/// The value [`MachineState::init`] gives local vertex `l` in `vdata` and
/// `coherent` — the *initial view* a snapshot does not write where
/// `coherent[l]` still holds it (`checkpoint::write_snapshot`).
#[inline]
pub fn initial_data<P: VertexProgram>(
    shard: &LocalShard,
    program: &P,
    l: u32,
    num_vertices: usize,
) -> P::VData {
    program.init_data(shard.global_of(l), &vertex_ctx(shard, l, num_vertices))
}

/// Builds the [`VertexCtx`] of local vertex `l` from shard metadata.
#[inline]
pub fn vertex_ctx(shard: &LocalShard, l: u32, num_vertices: usize) -> VertexCtx {
    VertexCtx {
        out_degree: shard.global_out_degree[l as usize],
        in_degree: shard.global_in_degree[l as usize],
        degree: shard.global_degree[l as usize],
        num_vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::EdgeCtx;
    use lazygraph_graph::generators::{rmat, RmatConfig};
    use lazygraph_graph::VertexId;
    use lazygraph_partition::{partition_graph, PartitionStrategy, SplitterConfig};

    struct P0;
    impl VertexProgram for P0 {
        type VData = u32;
        type Delta = u32;
        fn name(&self) -> &'static str {
            "p0"
        }
        fn init_data(&self, v: VertexId, _c: &VertexCtx) -> u32 {
            v.0
        }
        fn init_message(&self, v: VertexId, _c: &VertexCtx) -> Option<u32> {
            v.0.is_multiple_of(2).then_some(1)
        }
        fn sum(&self, a: u32, b: u32) -> u32 {
            a + b
        }
        fn inverse(&self, accum: u32, a: u32) -> u32 {
            accum - a
        }
        fn apply(&self, _v: VertexId, d: &mut u32, a: u32, _c: &VertexCtx) -> Option<u32> {
            *d += a;
            None
        }
        fn scatter(
            &self,
            _v: VertexId,
            _d: &u32,
            x: u32,
            _c: &VertexCtx,
            _e: &EdgeCtx,
        ) -> Option<u32> {
            Some(x)
        }
    }

    fn dist() -> lazygraph_partition::DistributedGraph {
        let g = rmat(RmatConfig::graph500(8, 6, 1));
        partition_graph(
            &g,
            4,
            PartitionStrategy::Coordinated,
            &SplitterConfig::disabled(),
            false,
        )
    }

    #[test]
    fn init_all_replicas_activates_even_vertices() {
        let dg = dist();
        for shard in &dg.shards {
            let st = MachineState::init(shard, &P0, InitMessages::AllReplicas, dg.num_global_vertices);
            for l in 0..shard.num_local() as u32 {
                let v = shard.global_of(l);
                assert_eq!(st.vdata[l as usize], v.0);
                assert_eq!(st.message[l as usize].is_some(), v.0 % 2 == 0);
                assert_eq!(st.active[l as usize], v.0 % 2 == 0);
            }
        }
    }

    #[test]
    fn init_masters_only_restricts_activation() {
        let dg = dist();
        for shard in &dg.shards {
            let st = MachineState::init(shard, &P0, InitMessages::MastersOnly, dg.num_global_vertices);
            for l in 0..shard.num_local() as u32 {
                let v = shard.global_of(l);
                let expect = v.0 % 2 == 0 && shard.is_master[l as usize];
                assert_eq!(st.message[l as usize].is_some(), expect);
            }
        }
    }

    #[test]
    fn deliver_accumulates_and_activates_once() {
        let dg = dist();
        let shard = &dg.shards[0];
        let mut st = MachineState::init(shard, &P0, InitMessages::MastersOnly, dg.num_global_vertices);
        // Find an odd (inactive) vertex.
        let l = (0..shard.num_local() as u32)
            .find(|&l| st.message[l as usize].is_none())
            .unwrap();
        let before = st.queue.len();
        st.deliver(&P0, l, 5);
        st.deliver(&P0, l, 7);
        assert_eq!(st.message[l as usize], Some(12));
        assert_eq!(st.queue.len(), before + 1, "activated exactly once");
    }

    #[test]
    fn delta_accumulation() {
        let dg = dist();
        let shard = &dg.shards[0];
        let mut st = MachineState::init(shard, &P0, InitMessages::MastersOnly, dg.num_global_vertices);
        st.accumulate_delta(&P0, 0, 3);
        st.accumulate_delta(&P0, 0, 4);
        assert_eq!(st.delta_msg[0], Some(7));
        // deltaMsg does not activate.
        assert!(!st.active[0] || st.message[0].is_some());
    }

    /// Float ⊕: addition is order-sensitive, so any fold-order deviation
    /// shows up bitwise.
    struct FSum;
    impl VertexProgram for FSum {
        type VData = f64;
        type Delta = f64;
        fn name(&self) -> &'static str {
            "fsum"
        }
        fn init_data(&self, _v: VertexId, _c: &VertexCtx) -> f64 {
            0.0
        }
        fn init_message(&self, _v: VertexId, _c: &VertexCtx) -> Option<f64> {
            None
        }
        fn sum(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn inverse(&self, accum: f64, a: f64) -> f64 {
            accum - a
        }
        fn apply(&self, _v: VertexId, d: &mut f64, a: f64, _c: &VertexCtx) -> Option<f64> {
            *d += a;
            None
        }
        fn scatter(
            &self,
            _v: VertexId,
            _d: &f64,
            x: f64,
            _c: &VertexCtx,
            _e: &EdgeCtx,
        ) -> Option<f64> {
            Some(x)
        }
    }

    /// One sweep's delivery half: `items` staged from contiguous source
    /// blocks (as a sweep's phase A would), then folded.
    fn stage_and_fold<P: VertexProgram>(
        st: &mut MachineState<P>,
        program: &P,
        ctx: &ParallelCtx,
        items: &[(u32, P::Delta, bool)],
    ) -> u64 {
        let blocks = st.scratch.staging.source_blocks(ctx, st.message.len(), items);
        ctx.pool().map(blocks, |(chunk, b)| {
            for &(l, d, fold_delta) in chunk {
                b.stage(l, d, fold_delta);
            }
        });
        st.deliver_staged(program, ctx)
    }

    fn retained_items<P: VertexProgram>(st: &MachineState<P>) -> usize {
        let staged: usize = st.scratch.staging.blocks.iter().map(|b| retained(&b.segments)).sum();
        staged + st.scratch.activated.iter().map(Vec::capacity).sum::<usize>()
    }

    #[test]
    fn staged_fold_matches_sequential_left_fold() {
        use crate::parallel::{ParallelConfig, ParallelCtx};

        let dg = dist();
        let shard = &dg.shards[0];
        let n = shard.num_local() as u32;
        // Awkward magnitudes on purpose (see `FSum`).
        let items: Vec<(u32, f64, bool)> = (0..4096u64)
            .map(|i| {
                let l = (i.wrapping_mul(2654435761) % n as u64) as u32;
                (l, ((i * 37) % 1000) as f64 * 1e-3 + (i % 7) as f64 * 1e12, i % 3 == 0)
            })
            .collect();
        let mut reference =
            MachineState::init(shard, &FSum, InitMessages::MastersOnly, dg.num_global_vertices);
        for &(l, d, fold_delta) in &items {
            reference.deliver(&FSum, l, d);
            if fold_delta {
                reference.accumulate_delta(&FSum, l, d);
            }
        }
        let bits = |m: &Vec<Option<f64>>| -> Vec<Option<u64>> {
            m.iter().map(|o| o.map(f64::to_bits)).collect()
        };
        for threads in [1, 2, 8] {
            for block_size in [1, 16, 1024] {
                let ctx = ParallelCtx::new(ParallelConfig {
                    threads,
                    block_size,
                }).expect("spawn pool");
                let mut st = MachineState::init(
                    shard,
                    &FSum,
                    InitMessages::MastersOnly,
                    dg.num_global_vertices,
                );
                stage_and_fold(&mut st, &FSum, &ctx, &items);
                let at = format!("threads={threads} block_size={block_size}");
                assert_eq!(bits(&st.message), bits(&reference.message), "{at}");
                assert_eq!(bits(&st.delta_msg), bits(&reference.delta_msg), "{at}");
                assert_eq!(st.active, reference.active, "{at}");
                // Activation order: the flat order, grouped by target block.
                let mut expect = reference.queue.clone();
                expect.sort_by_key(|&l| l as usize / block_size);
                assert_eq!(st.queue, expect, "{at}");
            }
        }
    }

    #[test]
    fn staged_fold_counts_occupied_delta_folds() {
        use crate::parallel::{ParallelConfig, ParallelCtx};

        let dg = dist();
        let shard = &dg.shards[0];
        // Three folding items on one vertex: first lands in an empty slot,
        // the next two fold — two wire items saved.
        let items = [(0u32, 1u32, true), (0, 2, true), (0, 3, true), (1, 4, false)];
        for threads in [1, 4] {
            let ctx = ParallelCtx::new(ParallelConfig {
                threads,
                block_size: 1,
            }).expect("spawn pool");
            let mut st =
                MachineState::init(shard, &P0, InitMessages::MastersOnly, dg.num_global_vertices);
            let folds = stage_and_fold(&mut st, &P0, &ctx, &items);
            assert_eq!(folds, 2, "threads={threads}");
            assert_eq!(st.delta_msg[0], Some(6));
            assert_eq!(st.delta_msg[1], None);
            assert_eq!(st.message[1], Some(4));
        }
    }

    #[test]
    fn retained_scratch_is_bounded_by_the_largest_sweep() {
        use crate::parallel::{ParallelConfig, ParallelCtx};

        let dg = dist();
        let shard = &dg.shards[0];
        let n = shard.num_local();
        let block_size = 4;
        let ctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size,
        }).expect("spawn pool");
        let mut st =
            MachineState::init(shard, &P0, InitMessages::MastersOnly, dg.num_global_vertices);
        // Skewed and wandering: nine tenths of every sweep lands in one hot
        // target block, and the hot block moves every sweep — the pattern
        // that made a shared husk pool regrow every pooled vector to
        // whole-sweep size. Sweep sizes vary so small sweeps follow big ones.
        let num_blocks = n.div_ceil(block_size);
        let mut largest = 0usize;
        for sweep in 0..200usize {
            let len = 4 * n + (sweep * 97) % (4 * n);
            largest = largest.max(len);
            let hot = (sweep * 7) % num_blocks * block_size;
            let items: Vec<(u32, u32, bool)> = (0..len)
                .map(|i| {
                    let l = if i % 10 != 0 { hot + i % block_size } else { i * 31 };
                    ((l % n) as u32, 1, i % 2 == 0)
                })
                .collect();
            stage_and_fold(&mut st, &P0, &ctx, &items);
            assert!(
                retained_items(&st) <= (SCRATCH_SLACK + 1) * largest,
                "sweep {sweep}: scratch keeps capacity for {} items, largest sweep had {largest}",
                retained_items(&st)
            );
        }
        // A repeating sweep reuses its buffers in place: nothing grows.
        let items: Vec<(u32, u32, bool)> = (0..4 * n).map(|i| ((i % n) as u32, 1, false)).collect();
        // (The first pass may release what the wandering sweeps left
        // behind; the second regrows to this pattern's own shape.)
        for _ in 0..2 {
            stage_and_fold(&mut st, &P0, &ctx, &items);
        }
        let settled = retained_items(&st);
        for _ in 0..3 {
            stage_and_fold(&mut st, &P0, &ctx, &items);
        }
        assert_eq!(retained_items(&st), settled);
    }

    #[test]
    fn pending_counts() {
        let dg = dist();
        let shard = &dg.shards[0];
        let mut st = MachineState::init(shard, &P0, InitMessages::AllReplicas, dg.num_global_vertices);
        let pending = st.pending_messages();
        let evens = (0..shard.num_local() as u32)
            .filter(|&l| shard.global_of(l).0.is_multiple_of(2))
            .count() as u64;
        assert_eq!(pending, evens);
        let q = st.take_queue();
        assert_eq!(q.len() as u64, pending);
        assert!(st.queue.is_empty());
    }
}
