//! Per-machine replica state: the runtime variables §3.2 lists for every
//! replica — `vdata[v]`, `message[v]`, `deltaMsg[v]`, `isActive[v]` (the
//! replica/master topology lives in the shard itself) — each held only
//! where its engine and program read it ([`Layout`], DESIGN.md §9).

use std::ops::Range;

use lazygraph_net::wire_record;
use lazygraph_partition::LocalShard;

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

/// The per-replica arrays a machine holds beyond `vdata`, the inbox and
/// the worklist — what a snapshot records it held, so a restore reads
/// exactly the sections that were written.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Held {
    /// `coherent`: the view `exchange_policy` is asked about.
    pub coherent: bool,
    /// `deltaMsg`: one-edge-mode receipts awaiting a coherency point.
    pub delta_msg: bool,
}

wire_record!(Held { coherent, delta_msg });

/// What an engine's replicas hold, and which of them its initial messages
/// load: each engine declares one ([`crate::machine::Superstep::LAYOUT`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Which replicas the program's initial messages are loaded into.
    pub init: InitMessages,
    /// The optional arrays the engine reads. `coherent` is held only where
    /// the program reads it too ([`VertexProgram::reads_coherent`]).
    pub held: Held,
}

impl Layout {
    /// Sync, Async and the hybrid: masters apply and broadcast, so no
    /// replica accumulates a `deltaMsg` or is asked about a coherent view.
    pub const EAGER: Layout = Layout {
        init: InitMessages::MastersOnly,
        held: Held { coherent: false, delta_msg: false },
    };
    /// LazyBlockAsync, LazyVertexAsync and DeltaAccum: every replica
    /// applies, folds one-edge receipts into `deltaMsg` and exchanges it
    /// under the program's `exchange_policy`.
    pub const LAZY: Layout = Layout {
        init: InitMessages::AllReplicas,
        held: Held { coherent: true, delta_msg: true },
    };
}

/// The mutable vertex arrays of one machine.
pub struct MachineState<P: VertexProgram> {
    /// Local view of the vertex value, per local replica.
    pub vdata: Vec<P::VData>,
    /// Replica value as of the last data coherency point — the common view
    /// all replicas shared there; what `exchange_policy` is asked about.
    /// `None` where the engine or the program never reads it.
    pub coherent: Option<Vec<P::VData>>,
    /// Pending gathered messages (`message[v]`).
    pub message: Slots<P::Delta>,
    /// Delta accumulated from local one-edge-mode receipts since the last
    /// coherency point (`deltaMsg[v]`); `None` on the eager engines.
    pub delta_msg: Option<Slots<P::Delta>>,
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

/// Dense per-replica ⊕ slots — an inbox `message[v]` or a `deltaMsg[v]` —
/// as values beside one occupancy byte each: 9 B a slot for an `f64` delta
/// where `Option<f64>` takes 16. A byte, not a bit, so the fold tasks that
/// own contiguous target ranges ([`MachineState::deliver_staged`]) never
/// share a word whatever the block size. An empty slot holds
/// `D::default()`, so equal contents compare equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slots<D> {
    values: Vec<D>,
    occupied: Vec<bool>,
}

/// One fold task's contiguous range of [`Slots`].
struct SlotsMut<'a, D> {
    values: &'a mut [D],
    occupied: &'a mut [bool],
}

impl<D: Copy + Default> Slots<D> {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        Slots {
            values: vec![D::default(); n],
            occupied: vec![false; n],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Slot `l`'s delta, if it holds one.
    #[inline]
    pub fn get(&self, l: usize) -> Option<D> {
        self.occupied[l].then(|| self.values[l])
    }

    /// Empties slot `l`, returning what it held.
    #[inline]
    pub fn take(&mut self, l: usize) -> Option<D> {
        std::mem::take(&mut self.occupied[l]).then(|| std::mem::take(&mut self.values[l]))
    }

    /// Overwrites slot `l`.
    #[inline]
    pub fn set(&mut self, l: usize, d: Option<D>) {
        self.occupied[l] = d.is_some();
        self.values[l] = d.unwrap_or_default();
    }

    /// ⊕-folds `d` into slot `l` ([`fold_into`]); returns whether the slot
    /// was occupied.
    #[inline]
    pub fn fold<P: VertexProgram<Delta = D>>(&mut self, program: &P, l: usize, d: D) -> bool {
        fold_into(program, &mut self.values[l], &mut self.occupied[l], d)
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.occupied.iter().filter(|&&o| o).count()
    }

    /// Every slot in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<D>> + '_ {
        self.values.iter().zip(&self.occupied).map(|(&d, &o)| o.then_some(d))
    }

    /// Consecutive ranges of `span` slots, as fold tasks own them.
    fn chunks_mut(&mut self, span: usize) -> impl Iterator<Item = SlotsMut<'_, D>> {
        (self.values.chunks_mut(span))
            .zip(self.occupied.chunks_mut(span))
            .map(|(values, occupied)| SlotsMut { values, occupied })
    }
}

impl<D: Copy + Default> FromIterator<Option<D>> for Slots<D> {
    fn from_iter<I: IntoIterator<Item = Option<D>>>(slots: I) -> Self {
        let (occupied, values) =
            slots.into_iter().map(|d| (d.is_some(), d.unwrap_or_default())).unzip();
        Slots { values, occupied }
    }
}

impl<D> SlotsMut<'_, D> {
    /// [`Slots::fold`] on slot `i` of the range.
    #[inline]
    fn fold<P: VertexProgram<Delta = D>>(&mut self, program: &P, i: usize, d: D) -> bool {
        fold_into(program, &mut self.values[i], &mut self.occupied[i], d)
    }
}

/// Top bit of a staged item's local id: the delivery also folds into
/// `deltaMsg[l]` (a one-edge-mode receipt on a replicated target). Riding
/// in the id keeps one 16-byte item layout for every engine.
const FOLD_DELTA: u32 = 1 << 31;

/// Most source blocks per pool thread one sweep is split into: enough for
/// the pool to balance a skewed sweep, no more. A source block writes its
/// own slice of the window's one buffer, so the split costs a slice, not
/// capacity; and the fold order (source block, item) is the flat scatter
/// order for any contiguous split, so the split cannot affect results.
const SOURCE_BLOCKS_PER_THREAD: usize = 4;

/// Target blocks of a machine with `num_local` vertices.
fn num_blocks(num_local: usize, block_size: usize) -> usize {
    num_local.div_ceil(block_size.max(1))
}

/// One delivery role's buffer: its producers' items in production order,
/// producer after producer. A producer — one source block of a scatter
/// window, one routed inbound batch, or one serial stream — owns a slice
/// as long as the most it can stage, and `spans[p]` is what producer `p`
/// staged. The buffer is as long as the most any fold has needed and
/// never shrinks, so a steady sweep keeps no slack and reallocates
/// nothing.
pub struct Delivery<D> {
    items: Vec<(u32, D)>,
    /// The open producers' staged items, in production order; emptied by
    /// the fold.
    spans: Vec<Range<usize>>,
}

impl<D> Default for Delivery<D> {
    fn default() -> Self {
        Delivery {
            items: Vec::new(),
            spans: Vec::new(),
        }
    }
}

/// One producer's slice of a [`Delivery`] buffer.
pub struct Producer<'a, D> {
    slot: &'a mut [(u32, D)],
    span: &'a mut Range<usize>,
}

#[inline]
fn tag(l: u32, fold_delta: bool) -> u32 {
    if fold_delta {
        l | FOLD_DELTA
    } else {
        l
    }
}

impl<D> Producer<'_, D> {
    /// Stages one message for local vertex `l` — its only copy until the
    /// fold. `fold_delta` marks a one-edge-mode receipt that also
    /// accumulates into `deltaMsg[l]`.
    #[inline]
    pub fn stage(&mut self, l: u32, d: D, fold_delta: bool) {
        self.slot[self.span.len()] = (tag(l, fold_delta), d);
        self.span.end += 1;
    }
}

impl<D: Copy + Default> Delivery<D> {
    /// Opens one producer per entry of `bounds`, in order, each with a
    /// slice of that many items.
    pub(crate) fn open(&mut self, bounds: impl IntoIterator<Item = usize>) -> Vec<Producer<'_, D>> {
        self.spans.clear();
        let mut end = 0;
        for bound in bounds {
            self.spans.push(end..end);
            end += bound;
        }
        if self.items.len() < end {
            self.items.reserve_exact(end - self.items.len());
            self.items.resize(end, (0, D::default()));
        }
        let mut rest = &mut self.items[..end];
        let mut producers: Vec<Producer<'_, D>> = (self.spans.iter_mut().rev())
            .map(|span| {
                let (head, slot) = std::mem::take(&mut rest).split_at_mut(span.start);
                rest = head;
                Producer { slot, span }
            })
            .collect();
        producers.reverse();
        producers
    }

    /// Splits an ordered task list into contiguous source blocks, each
    /// paired with its producer — the work items of a sweep's parallel
    /// phase A. A source block's slice holds `bound(task)` items for each
    /// of its tasks: the most they can stage.
    pub fn source_blocks<'a, T>(
        &'a mut self,
        pctx: &ParallelCtx,
        tasks: &'a [T],
        bound: impl Fn(&T) -> usize,
    ) -> Vec<(&'a [T], Producer<'a, D>)> {
        let most = SOURCE_BLOCKS_PER_THREAD * pctx.threads();
        let chunks = tasks.chunks(pctx.block_size().max(tasks.len().div_ceil(most)));
        let bounds = chunks.clone().map(|chunk| chunk.iter().map(&bound).sum());
        chunks.zip(self.open(bounds)).collect()
    }

    /// Stages one item behind everything staged since the last fold, as
    /// one serial producer of no known bound.
    pub(crate) fn push(&mut self, l: u32, d: D, fold_delta: bool) {
        let end = self.spans.last().map_or(0, |span| span.end);
        let item = (tag(l, fold_delta), d);
        match self.items.get_mut(end) {
            Some(slot) => *slot = item,
            None => self.items.push(item),
        }
        match self.spans.last_mut() {
            Some(span) => span.end += 1,
            None => self.spans.push(0..1),
        }
    }

    /// Items the buffer holds capacity for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.items.capacity()
    }

    /// The open producers' staged items, in production order.
    #[cfg(test)]
    pub(crate) fn staged(&self) -> Vec<&[(u32, D)]> {
        self.spans.iter().map(|span| &self.items[span.clone()]).collect()
    }
}

/// Iteration-persistent delivery scratch, one owner per role (DESIGN.md
/// §9): a buffer is only ever reused in the role it grew in, so a steady
/// sweep reuses every per-item buffer and none is regrown to another
/// role's size.
pub struct Scratch<P: VertexProgram> {
    /// Local-scatter role: one scatter window's source blocks, or one
    /// serial producer.
    pub staging: Delivery<P::Delta>,
    /// A lazy sweep's scatter tasks, between its apply pass and its scatter.
    pub tasks: Vec<(u32, P::Delta)>,
    /// Inbound role: one round's routed batches.
    pub inbound: Delivery<P::Delta>,
    /// `activated[t]`: the vertices fold task `t` newly activated, in
    /// production order; drained into the worklist before the fold returns.
    activated: Vec<Vec<u32>>,
    /// Per target block: how many vertices a fold newly activated in it,
    /// then the worklist slot the next of them goes to.
    block_slots: Vec<usize>,
}

impl<P: VertexProgram> Default for Scratch<P> {
    fn default() -> Self {
        Scratch {
            staging: Delivery::default(),
            inbound: Delivery::default(),
            tasks: Vec::new(),
            activated: Vec::new(),
            block_slots: Vec::new(),
        }
    }
}

/// ⊕-folds `d` into a slot — `value ⊕ d` when it is `occupied`, `d` when
/// it is empty — and marks it occupied. Returns whether it was. Every
/// `message`, `deltaMsg` and mirrors-to-master total is folded through
/// here, so each slot is the left fold of its deliveries in delivery order.
#[inline]
pub(crate) fn fold_into<P: VertexProgram>(
    program: &P,
    value: &mut P::Delta,
    occupied: &mut bool,
    d: P::Delta,
) -> bool {
    let was = std::mem::replace(occupied, true);
    *value = if was { program.sum(*value, d) } else { d };
    was
}

impl<P: VertexProgram> MachineState<P> {
    /// Initialises all local replicas: `vdata` from `initData` and the
    /// worklist from `initMsg` per the engine's [`InitMessages`] policy,
    /// and the optional arrays the layout holds — `coherent` only if the
    /// program reads it too.
    pub fn init(shard: &LocalShard, program: &P, layout: Layout, num_vertices: usize) -> Self {
        let n = shard.num_local();
        // Invariant: local ids leave bit 31 free everywhere (partition's
        // `PARALLEL` tags it in edge targets); 2^31 replicas would not fit
        // one machine's memory.
        debug_assert!(n < FOLD_DELTA as usize, "local ids must leave the tag bit free");
        let mut vdata = Vec::with_capacity(n);
        let mut message = Slots::new(n);
        let mut active = vec![false; n];
        let mut queue = Vec::new();
        for l in 0..n as u32 {
            let v = shard.global_of(l);
            let ctx = vertex_ctx(shard, l, num_vertices);
            vdata.push(initial_data(shard, program, l, num_vertices));
            let eligible = match layout.init {
                InitMessages::AllReplicas => true,
                InitMessages::MastersOnly => shard.is_master(l),
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
            message.set(l as usize, msg);
        }
        let Held { coherent, delta_msg } = layout.held;
        MachineState {
            coherent: (coherent && program.reads_coherent()).then(|| vdata.clone()),
            vdata,
            message,
            delta_msg: delta_msg.then(|| Slots::new(n)),
            active,
            queue,
            scratch: Scratch::default(),
        }
    }

    /// The optional arrays this machine holds.
    pub fn held(&self) -> Held {
        Held {
            coherent: self.coherent.is_some(),
            delta_msg: self.delta_msg.is_some(),
        }
    }

    /// Accumulates `d` into `message[l]` and activates `l` if quiet.
    #[inline]
    pub fn deliver(&mut self, program: &P, l: u32, d: P::Delta) {
        self.message.fold(program, l as usize, d);
        if !self.active[l as usize] {
            self.active[l as usize] = true;
            self.queue.push(l);
        }
    }

    /// Accumulates `d` into `deltaMsg[l]` (one-edge-mode receipt awaiting
    /// the next coherency point); a machine that holds no `deltaMsg` has
    /// nothing to accumulate into.
    #[inline]
    pub fn accumulate_delta(&mut self, program: &P, l: u32, d: P::Delta) {
        if let Some(delta_msg) = &mut self.delta_msg {
            delta_msg.fold(program, l as usize, d);
        }
    }

    /// The one delivery sink: folds a role's producers into `message` (and,
    /// for [`FOLD_DELTA`]-tagged items, `deltaMsg`), bitwise-identical to
    /// the sequential left-fold `for (l, d) in items { deliver(l, d) }`
    /// over the producers' items in (producer, item) order.
    ///
    /// The trick is ownership by *target block*: one pool task per thread
    /// owns a contiguous run of target blocks — its slice of
    /// `message`/`delta_msg`/`active` — and walks every producer in order,
    /// folding only the items whose target it owns. Every vertex's fold
    /// therefore runs as the exact sequential reduction regardless of
    /// schedule — float results cannot drift with the thread count. A task
    /// notes the vertices it newly activates in production order and
    /// counts them per block; they join the worklist block by block, in
    /// production order within a block, so the worklist order is
    /// reproducible too.
    ///
    /// Each item folds into its slot on its own ([`fold_into`]). Returns
    /// the number of items folded into an *occupied* `deltaMsg` slot.
    fn deliver_role(
        &mut self,
        program: &P,
        ctx: &ParallelCtx,
        role: fn(&mut Scratch<P>) -> &mut Delivery<P::Delta>,
    ) -> u64 {
        let mut delivery = std::mem::take(role(&mut self.scratch));
        let MachineState { message, delta_msg, active, queue, scratch, .. } = self;
        let bs = ctx.block_size();
        let num_blocks = num_blocks(message.len(), bs);
        let per_task = num_blocks.div_ceil(ctx.threads()).max(1);
        let span = per_task.saturating_mul(bs);
        scratch.activated.resize_with(num_blocks.div_ceil(per_task), Vec::new);
        scratch.block_slots.resize(num_blocks, 0);
        struct FoldTask<'a, D> {
            base: usize,
            message: SlotsMut<'a, D>,
            /// Tagged items fold here too; only a machine that holds a
            /// `deltaMsg` stages them.
            delta_msg: Option<SlotsMut<'a, D>>,
            active: &'a mut [bool],
            newly: &'a mut Vec<u32>,
            counts: &'a mut [usize],
        }
        let mut delta_chunks = delta_msg.as_mut().map(|d| d.chunks_mut(span));
        let work: Vec<FoldTask<'_, P::Delta>> = (message.chunks_mut(span))
            .zip(active.chunks_mut(span))
            .zip(&mut scratch.activated)
            .zip(scratch.block_slots.chunks_mut(per_task))
            .enumerate()
            .map(|(task, (((message, active), newly), counts))| FoldTask {
                base: task * span,
                message,
                delta_msg: delta_chunks.as_mut().and_then(Iterator::next),
                active,
                newly,
                counts,
            })
            .collect();
        let items = &delivery.items;
        let folded: Vec<u64> = ctx.pool().map(work, |mut w| {
            w.counts.fill(0);
            let mut delta_folds = 0;
            for span in &delivery.spans {
                for &(tagged, d) in &items[span.clone()] {
                    let l = tagged & !FOLD_DELTA;
                    let i = (l as usize).wrapping_sub(w.base);
                    if i >= w.active.len() {
                        continue;
                    }
                    w.message.fold(program, i, d);
                    if !w.active[i] {
                        w.active[i] = true;
                        w.newly.push(l);
                        w.counts[i / bs] += 1;
                    }
                    let delta_msg = w.delta_msg.as_mut().filter(|_| tagged & FOLD_DELTA != 0);
                    if let Some(delta_msg) = delta_msg {
                        delta_folds += u64::from(delta_msg.fold(program, i, d));
                    }
                }
            }
            delta_folds
        });
        let mut next = queue.len();
        for slot in scratch.block_slots.iter_mut() {
            (next, *slot) = (next + *slot, next);
        }
        queue.resize(next, 0);
        for newly in &mut scratch.activated {
            for l in newly.drain(..) {
                let slot = &mut scratch.block_slots[l as usize / bs];
                queue[*slot] = l;
                *slot += 1;
            }
        }
        delivery.spans.clear();
        *role(&mut self.scratch) = delivery;
        folded.iter().sum()
    }

    /// Folds what the current window's source blocks staged
    /// ([`Delivery::source_blocks`]) in (source block, item) order —
    /// exactly the flat order the window scattered in. Returns the number
    /// of items folded into an *occupied* `deltaMsg` slot: each such fold
    /// is one contribution the coherency exchange will not ship as its own
    /// wire item (the sender-side combining the exchange counts as
    /// `items_combined`).
    pub fn deliver_staged(&mut self, program: &P, ctx: &ParallelCtx) -> u64 {
        self.deliver_role(program, ctx, |scratch| &mut scratch.staging)
    }

    /// Folds the batches the inbound router parked this round
    /// ([`crate::exchange::route_inbound`]) in the order it routed them —
    /// sender order.
    pub fn deliver_inbound(&mut self, program: &P, ctx: &ParallelCtx) {
        self.deliver_role(program, ctx, |scratch| &mut scratch.inbound);
    }

    /// Number of local replicas with a pending message.
    pub fn pending_messages(&self) -> u64 {
        self.message.occupied() as u64
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
        degree: shard.global_degree(l),
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

    /// Masters pre-loaded, every optional array held.
    const MASTERS: Layout = Layout { init: InitMessages::MastersOnly, ..Layout::LAZY };

    fn delta_msg<P: VertexProgram>(st: &MachineState<P>) -> &Slots<P::Delta> {
        st.delta_msg.as_ref().expect("the layout holds deltaMsg")
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
            let st = MachineState::init(shard, &P0, Layout::LAZY, dg.num_global_vertices);
            for l in 0..shard.num_local() as u32 {
                let v = shard.global_of(l);
                assert_eq!(st.vdata[l as usize], v.0);
                assert_eq!(st.message.get(l as usize).is_some(), v.0 % 2 == 0);
                assert_eq!(st.active[l as usize], v.0 % 2 == 0);
            }
        }
    }

    #[test]
    fn init_masters_only_restricts_activation() {
        let dg = dist();
        for shard in &dg.shards {
            let st = MachineState::init(shard, &P0, MASTERS, dg.num_global_vertices);
            for l in 0..shard.num_local() as u32 {
                let v = shard.global_of(l);
                let expect = v.0 % 2 == 0 && shard.is_master(l);
                assert_eq!(st.message.get(l as usize).is_some(), expect);
            }
        }
    }

    #[test]
    fn deliver_accumulates_and_activates_once() {
        let dg = dist();
        let shard = &dg.shards[0];
        let mut st = MachineState::init(shard, &P0, MASTERS, dg.num_global_vertices);
        // Find an odd (inactive) vertex.
        let l = (0..shard.num_local() as u32)
            .find(|&l| st.message.get(l as usize).is_none())
            .unwrap();
        let before = st.queue.len();
        st.deliver(&P0, l, 5);
        st.deliver(&P0, l, 7);
        assert_eq!(st.message.get(l as usize), Some(12));
        assert_eq!(st.queue.len(), before + 1, "activated exactly once");
    }

    #[test]
    fn delta_accumulation() {
        let dg = dist();
        let shard = &dg.shards[0];
        let mut st = MachineState::init(shard, &P0, MASTERS, dg.num_global_vertices);
        st.accumulate_delta(&P0, 0, 3);
        st.accumulate_delta(&P0, 0, 4);
        assert_eq!(delta_msg(&st).get(0), Some(7));
        // deltaMsg does not activate.
        assert!(!st.active[0] || st.message.get(0).is_some());
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
        let blocks = st.scratch.staging.source_blocks(ctx, items, |_| 1);
        ctx.pool().map(blocks, |(chunk, mut b)| {
            for &(l, d, fold_delta) in chunk {
                b.stage(l, d, fold_delta);
            }
        });
        st.deliver_staged(program, ctx)
    }

    fn retained_items<P: VertexProgram>(st: &MachineState<P>) -> usize {
        st.scratch.staging.capacity() + st.scratch.activated.iter().map(Vec::capacity).sum::<usize>()
    }

    #[test]
    fn staged_fold_matches_sequential_left_fold() {
        use crate::parallel::{ParallelConfig, ParallelCtx};

        let dg = dist();
        let shard = &dg.shards[0];
        let n = shard.num_local() as u32;
        // Awkward magnitudes on purpose (see `FSum`).
        let value = |i: u64| ((i * 37) % 1000) as f64 * 1e-3 + (i % 7) as f64 * 1e12;
        let scattered = |i: u64| (i.wrapping_mul(2654435761) % n as u64) as u32;
        // Random targets, and a hub: every 256th item starts a run of four
        // consecutive deltas for one target, some of them `FOLD_DELTA`,
        // spread over every source block of the window.
        let hub = n / 2;
        let is_hub = |i: u64| i % 256 < 4;
        let random: Vec<(u32, f64, bool)> =
            (0..4096u64).map(|i| (scattered(i), value(i), i % 3 == 0)).collect();
        let hubbed: Vec<(u32, f64, bool)> = (0..4096u64)
            .map(|i| (if is_hub(i) { hub } else { scattered(i) }, value(i), i % 3 == 0))
            .collect();
        let bits = |m: &Slots<f64>| -> Vec<Option<u64>> {
            m.iter().map(|o| o.map(f64::to_bits)).collect()
        };
        for items in [&random, &hubbed] {
            let mut reference =
                MachineState::init(shard, &FSum, MASTERS, dg.num_global_vertices);
            for &(l, d, fold_delta) in items {
                reference.deliver(&FSum, l, d);
                if fold_delta {
                    reference.accumulate_delta(&FSum, l, d);
                }
            }
            for threads in [1, 2, 8] {
                for block_size in [1, 16, 1024] {
                    let ctx = ParallelCtx::new(ParallelConfig {
                        threads,
                        block_size,
                    }).expect("spawn pool");
                    // The hub's deltas reach its slot from at least three
                    // source blocks (`Delivery::source_blocks`' split).
                    let most = SOURCE_BLOCKS_PER_THREAD * threads;
                    let chunk = block_size.max(items.len().div_ceil(most)) as u64;
                    let mut sources: Vec<u64> =
                        (0..4096u64).filter(|&i| is_hub(i)).map(|i| i / chunk).collect();
                    sources.dedup();
                    assert!(sources.len() >= 3, "threads={threads} block_size={block_size}");
                    let mut st = MachineState::init(
                        shard,
                        &FSum,
                        MASTERS,
                        dg.num_global_vertices,
                    );
                    stage_and_fold(&mut st, &FSum, &ctx, items);
                    let at = format!("threads={threads} block_size={block_size}");
                    assert_eq!(bits(&st.message), bits(&reference.message), "{at}");
                    assert_eq!(bits(delta_msg(&st)), bits(delta_msg(&reference)), "{at}");
                    assert_eq!(st.active, reference.active, "{at}");
                    // Activation order: the flat order, grouped by target block.
                    let mut expect = reference.queue.clone();
                    expect.sort_by_key(|&l| l as usize / block_size);
                    assert_eq!(st.queue, expect, "{at}");
                }
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
                MachineState::init(shard, &P0, MASTERS, dg.num_global_vertices);
            let folds = stage_and_fold(&mut st, &P0, &ctx, &items);
            assert_eq!(folds, 2, "threads={threads}");
            assert_eq!(delta_msg(&st).get(0), Some(6));
            assert_eq!(delta_msg(&st).get(1), None);
            assert_eq!(st.message.get(1), Some(4));
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
            MachineState::init(shard, &P0, MASTERS, dg.num_global_vertices);
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
            // The staging buffer holds the largest sweep; the activation
            // lists at most every vertex once.
            assert!(
                retained_items(&st) <= largest + n,
                "sweep {sweep}: scratch keeps capacity for {} items, largest sweep had {largest}",
                retained_items(&st)
            );
        }
        // A repeating sweep reuses its buffers in place: nothing grows.
        let items: Vec<(u32, u32, bool)> = (0..4 * n).map(|i| ((i % n) as u32, 1, false)).collect();
        stage_and_fold(&mut st, &P0, &ctx, &items);
        let settled = retained_items(&st);
        for _ in 0..3 {
            stage_and_fold(&mut st, &P0, &ctx, &items);
        }
        assert_eq!(retained_items(&st), settled);
    }

    /// A sweep holds one window, not the sweep: sweeps of 10 to 80 windows'
    /// worth of items leave the staging role holding one window — or one
    /// task, where a single task's out-degree is more than a window —
    /// where staging a whole sweep kept capacity for all of it.
    #[test]
    fn retained_staging_is_bounded_by_the_window_not_the_sweep() {
        use crate::parallel::{ParallelConfig, ParallelCtx};
        use crate::sync_engine::scatter;

        let dg = dist();
        let shard = &dg.shards[0];
        let n = shard.num_local();
        let window = 4 * n;
        let ctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size: 4,
        }).expect("spawn pool");
        let mut st =
            MachineState::init(shard, &P0, MASTERS, dg.num_global_vertices);
        let sources: Vec<u32> = (0..n as u32).filter(|&l| shard.local_out_degree(l) > 0).collect();
        let widest = sources.iter().map(|&l| shard.local_out_degree(l)).max().unwrap_or(0);
        let mut tasks = Vec::new();
        for sweep in 1..=8 {
            let mut staged = 0;
            for i in 0.. {
                if staged >= 10 * sweep * window {
                    break;
                }
                let l = sources[(i * 7 + sweep) % sources.len()];
                tasks.push((l, 1));
                staged += shard.local_out_degree(l);
            }
            let (edges, _) = scatter(
                shard,
                &mut st,
                &P0,
                dg.num_global_vertices,
                &ctx,
                &mut tasks,
                window,
            );
            assert_eq!(edges as usize, staged);
            let retained = st.scratch.staging.capacity();
            assert!(
                retained <= window.max(widest),
                "sweep of {staged} items: staging keeps capacity for {retained}, window {window}"
            );
        }
    }

    /// A slot is its left fold, emptied by `take` back to the value a
    /// fresh slot holds, so equal contents compare equal.
    #[test]
    fn slots_fold_take_and_compare_by_content() {
        let mut slots: Slots<u32> = Slots::new(3);
        assert!(!slots.fold(&P0, 1, 5));
        assert!(slots.fold(&P0, 1, 7));
        assert_eq!(slots.iter().collect::<Vec<_>>(), [None, Some(12), None]);
        assert_eq!(slots.occupied(), 1);
        assert_eq!(slots.take(1), Some(12));
        assert_eq!(slots.take(1), None);
        assert_eq!(slots, Slots::new(3));
        slots.set(2, Some(4));
        assert_eq!(slots, [None, None, Some(4)].into_iter().collect());
    }

    /// A layout's optional arrays exist only where the program reads them
    /// too: a program whose policy reads no coherent view gets none.
    #[test]
    fn init_holds_what_the_layout_and_program_read() {
        struct Blind;
        impl VertexProgram for Blind {
            type VData = u32;
            type Delta = u32;
            fn name(&self) -> &'static str {
                "blind"
            }
            fn init_data(&self, v: VertexId, c: &VertexCtx) -> u32 {
                P0.init_data(v, c)
            }
            fn init_message(&self, v: VertexId, c: &VertexCtx) -> Option<u32> {
                P0.init_message(v, c)
            }
            fn sum(&self, a: u32, b: u32) -> u32 {
                a + b
            }
            fn inverse(&self, accum: u32, a: u32) -> u32 {
                accum - a
            }
            fn apply(&self, v: VertexId, d: &mut u32, a: u32, c: &VertexCtx) -> Option<u32> {
                P0.apply(v, d, a, c)
            }
            fn scatter(
                &self,
                v: VertexId,
                d: &u32,
                x: u32,
                c: &VertexCtx,
                e: &EdgeCtx,
            ) -> Option<u32> {
                P0.scatter(v, d, x, c, e)
            }
            fn reads_coherent(&self) -> bool {
                false
            }
        }
        let dg = dist();
        let (shard, n) = (&dg.shards[0], dg.num_global_vertices);
        let all = Held { coherent: true, delta_msg: true };
        assert_eq!(MachineState::init(shard, &P0, Layout::LAZY, n).held(), all);
        assert_eq!(MachineState::init(shard, &P0, Layout::EAGER, n).held(), Held::default());
        let lazy = MachineState::init(shard, &Blind, Layout::LAZY, n);
        assert_eq!(lazy.held(), Held { coherent: false, delta_msg: true });
        assert_eq!(delta_msg(&lazy).len(), shard.num_local());
        assert_eq!(MachineState::init(shard, &Blind, Layout::EAGER, n).held(), Held::default());
    }

    #[test]
    fn pending_counts() {
        let dg = dist();
        let shard = &dg.shards[0];
        let mut st = MachineState::init(shard, &P0, Layout::LAZY, dg.num_global_vertices);
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
