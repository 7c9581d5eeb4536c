//! The zero-allocation exchange fast path shared by the engines.
//!
//! Every coherency point (and every sync-engine phase) is an exchange of
//! keyed delta items, and three per-item costs used to dominate it:
//! fresh outbox allocation each phase, a serial hash lookup per inbound
//! item, and bucketing each item twice (once to translate, once inside
//! `deliver_all`). The fast path removes all three:
//!
//! 1. **Pooled outboxes** — engines stage into a persistent
//!    [`OutboxSet`](lazygraph_cluster::OutboxSet); `Endpoint::exchange`
//!    refills each shipped slot from the endpoint's buffer pool, and
//!    receivers [`recycle`](lazygraph_cluster::Endpoint::recycle) drained
//!    batches back to their senders, so steady-state rounds allocate
//!    nothing.
//! 2. **Sender-side combining** ([`stage_combining`]) — consecutive items
//!    staged for the same `(dst, gid)` fold with `program.sum` before
//!    they ever reach the wire. Engines stage in canonical (ascending
//!    local id) order, so adjacent-run combining is exhaustive per key
//!    and the receiver's left-fold association is unchanged.
//! 3. **Parallel inbound routing** ([`route_inbound`]) — one block-parallel
//!    translate-and-bucket pass over the received batches into the
//!    machine's persistent [`Inbound`] buckets, which
//!    [`MachineState::deliver_inbound`](crate::state::MachineState::deliver_inbound)
//!    folds in place. The gid → local translation reads the shard's dense
//!    route table (`LocalShard::local_of`, an array index since PR 3), not
//!    a hash map.
//!
//! Determinism: the router preserves (batch order, item order) within
//! each target block, and batches arrive sorted by sender, so per-vertex
//! fold order is exactly the serial translate-then-deliver order —
//! bitwise-identical at any thread count. DESIGN.md §9 is the full
//! contract.
//!
//! Engines never drive the endpoint's round API themselves: every
//! exchange is one of the two rounds a [`Port`] opens — a [`FoldRound`]
//! (inbound items ⊕-fold into `message`: Sync gather, all-to-all
//! coherency, mirrors-to-master hop 2) or an [`OrderedRound`] (inbound
//! items are applied one by one in sender order: Sync updates,
//! mirrors-to-master hop 1). Either way a round is one batch per (sender,
//! round), collected sorted by sender (DESIGN.md §11 records why rounds
//! are not cut into streamed parts). The barrier-free engines have no
//! rounds: they open the port's [`Pump`] instead, the one loop that
//! drains, flushes and detects quiescence (DESIGN.md §17).

use std::sync::Arc;

use lazygraph_cluster::{
    Batch, CommError, CostModel, Endpoint, NetStats, OutboxSet, Phase, SimClock, Termination,
};
use lazygraph_net::{NetError, Wire, WireReader};

use crate::config::EngineConfig;
use crate::parallel::ParallelCtx;
use crate::program::VertexProgram;
use crate::state::{num_blocks, retained, MachineState, Segments};

/// The inbound router's persistent buckets and the round in flight.
///
/// Every batch [`route_inbound`] translates lands in the next free slot —
/// one [`Segments`] per batch, reused in place by the same slot of the
/// next round. A round's batches arrive sorted by sender
/// (`Endpoint::exchange`) and every replicated vertex ships at most once
/// per (sender, round), so slot order *is* the per-vertex fold order.
pub struct Inbound<D> {
    slots: Vec<Segments<D>>,
    /// Leading slots holding this round's routed batches.
    routed: usize,
}

impl<D> Default for Inbound<D> {
    fn default() -> Self {
        Inbound {
            slots: Vec::new(),
            routed: 0,
        }
    }
}

impl<D> Inbound<D> {
    /// This round's routed batches, in the order they were routed.
    pub(crate) fn routed(&self) -> &[Segments<D>] {
        &self.slots[..self.routed]
    }

    /// Ends the round after its fold, releasing the buckets if they keep
    /// capacity for more than `limit` items.
    pub(crate) fn finish_round(&mut self, limit: usize) {
        self.routed = 0;
        if self.slots.iter().map(retained).sum::<usize>() > limit {
            self.slots.clear();
        }
    }
}

/// Stages `(gid, d)` for `dst`, folding into the previously staged item
/// when it carries the same gid (sender-side `⊕` combining). Returns
/// `true` iff the item was folded rather than pushed — the caller counts
/// those into [`NetStats::record_combined`](lazygraph_cluster::NetStats).
///
/// Only *adjacent* duplicates combine, which is exhaustive because every
/// engine stages its coherency decisions in ascending local-id order
/// (equal to ascending gid order within a destination). Folding adjacent
/// items of a stream never changes the receiver's left-fold result for
/// an associative `⊕`, so combined and uncombined streams deliver
/// bitwise-identical accumulators.
#[inline]
pub fn stage_combining<P: VertexProgram>(
    program: &P,
    outboxes: &mut lazygraph_cluster::OutboxSet<(u32, P::Delta)>,
    dst: usize,
    gid: u32,
    d: P::Delta,
) -> bool {
    if let Some((last_gid, last_d)) = outboxes.last_mut(dst) {
        if *last_gid == gid {
            *last_d = program.sum(*last_d, d);
            return true;
        }
    }
    outboxes.push(dst, (gid, d));
    false
}

/// The plain inbound translation of a `(gid, delta)` item: dense
/// route-table lookup (`LocalShard::route_table`) plus `program.gather`;
/// an item for a vertex this machine does not hold is dropped.
#[inline]
pub fn local_delta<P: VertexProgram>(
    route: &[u32],
    program: &P,
    (gid, d): (u32, P::Delta),
) -> Option<(u32, P::Delta)> {
    match route.get(gid as usize) {
        Some(&l) if l != lazygraph_partition::NO_LOCAL => Some((l, program.gather(gid.into(), d))),
        _ => None,
    }
}

/// Block-parallel translate-and-bucket over received batches: the
/// replacement for the serial per-item `local_of` + push loop.
///
/// Each batch is drained by one pool task (batches are disjoint, so this
/// needs no locking) into the next free slot of `inbound`; every item goes
/// through `translate` — typically a dense route-table lookup plus
/// `program.gather` — and lands in that slot's per-block bucket.
/// `translate` returning `None` drops the item (unroutable or filtered),
/// keeping the hot loop panic-free. An item that fails to decode off a raw
/// frame payload is wire corruption the frame layer missed: the whole call
/// fails with the codec error (first failing batch in batch order), which
/// the rounds turn into a [`CommError::Transport`] that fails the run.
/// [`MachineState::deliver_inbound`](crate::state::MachineState::deliver_inbound)
/// then folds the slots where they lie: no second bucketing pass, and
/// per-vertex fold order is identical to translating the batches serially
/// in sender order.
///
/// Drained batches keep their capacity; the caller recycles them back to
/// their senders via [`Endpoint::recycle`](lazygraph_cluster::Endpoint::recycle).
pub fn route_inbound<T, D, F>(
    pctx: &ParallelCtx,
    num_local: usize,
    batches: &mut [Batch<T>],
    translate: F,
    inbound: &mut Inbound<D>,
) -> Result<(), NetError>
where
    T: Wire + Send,
    D: Send,
    F: Fn(T) -> Option<(u32, D)> + Sync,
{
    let bs = pctx.block_size();
    let num_blocks = num_blocks(num_local, bs);
    let first = inbound.routed;
    inbound.routed += batches.len();
    if inbound.slots.len() < inbound.routed {
        inbound.slots.resize_with(inbound.routed, Vec::new);
    }
    let work: Vec<(&mut Batch<T>, &mut Segments<D>)> =
        batches.iter_mut().zip(&mut inbound.slots[first..]).collect();
    let routed: Vec<Result<(), NetError>> = pctx.pool().map(work, |(batch, buckets)| {
        // Capacities differ per slot but contents never do: every bucket
        // is emptied before it is filled, so reuse cannot affect results.
        buckets.iter_mut().for_each(Vec::clear);
        buckets.resize_with(num_blocks, Vec::new);
        // Zero-copy inbound path: a TCP batch arrives as the raw frame
        // payload, and each item decodes straight off those bytes into
        // its destination bucket — no intermediate `Vec<T>` per batch.
        // Decode order equals wire order equals the materialized path's
        // item order, so fold order (and thus every value) is identical.
        if let Some(raw) = batch.raw.as_mut() {
            let mut r = WireReader::new(&raw.bytes[raw.offset..]);
            for _ in 0..raw.count {
                if let Some((l, d)) = translate(T::decode(&mut r)?) {
                    if let Some(bucket) = buckets.get_mut(l as usize / bs) {
                        bucket.push((l, d));
                    }
                }
            }
            // Mark drained; the buffer itself rides home through
            // `Endpoint::recycle` back to the reader's free list.
            raw.count = 0;
        }
        for item in batch.items.drain(..) {
            if let Some((l, d)) = translate(item) {
                // Out-of-range l means a corrupt route table; drop
                // rather than panic in the hot loop.
                if let Some(bucket) = buckets.get_mut(l as usize / bs) {
                    bucket.push((l, d));
                }
            }
        }
        Ok(())
    });
    routed.into_iter().collect()
}

/// The wire half of a machine frame: the mesh endpoint and the persistent
/// staging outboxes (every round refills shipped slots from the buffer
/// pool, so steady-state supersteps allocate nothing — DESIGN.md §9).
/// Engines exchange only by opening a [`FoldRound`] or an [`OrderedRound`]
/// on it.
pub struct Port<T> {
    pub ep: Endpoint<T>,
    pub outboxes: OutboxSet<T>,
    stats: Arc<NetStats>,
    /// How a barrier-free run on this mesh agrees that it is over; `None`
    /// when the machines share no memory ([`Port::pump`]).
    quiescence: Option<Quiescence>,
}

/// A run's quiescence detector: "no machine has work and no batch is in
/// flight", decided without a barrier. Today that is the shared-memory
/// counting detector, so only a mesh whose machines are threads of one
/// process can hand one out.
#[derive(Clone)]
pub struct Quiescence(Arc<Termination>);

impl Quiescence {
    /// The detector for `num_machines` machines that are all threads of
    /// this process.
    pub fn shared_memory(num_machines: usize) -> Self {
        Quiescence(Arc::new(Termination::new(num_machines)))
    }
}

impl<T: Wire + Send> Port<T> {
    pub fn new(
        ep: Endpoint<T>,
        stats: Arc<NetStats>,
        quiescence: Option<Quiescence>,
    ) -> Self {
        let outboxes = OutboxSet::new(ep.num_machines());
        Port {
            ep,
            outboxes,
            stats,
            quiescence,
        }
    }

    /// Opens a ⊕-fold round: inbound items go through `translate` and
    /// fold into `message` at [`FoldRound::close`]. `num_local` is the
    /// shard's local-vertex count.
    pub fn fold_round<'a, D, F>(
        &'a mut self,
        pctx: &'a ParallelCtx,
        num_local: usize,
        phase: Phase,
        bytes_per_item: usize,
        translate: F,
    ) -> FoldRound<'a, T, F>
    where
        F: Fn(T) -> Option<(u32, D)> + Sync,
    {
        FoldRound {
            wire: self.round_wire(phase, bytes_per_item),
            pctx,
            num_local,
            translate,
        }
    }

    /// Opens a sender-ordered round: inbound items are handed to the
    /// [`OrderedRound::close`] callback one by one, in (sender, item)
    /// order.
    pub fn ordered_round(&mut self, phase: Phase, bytes_per_item: usize) -> OrderedRound<'_, T> {
        OrderedRound {
            wire: self.round_wire(phase, bytes_per_item),
        }
    }

    fn round_wire(&mut self, phase: Phase, bytes_per_item: usize) -> RoundWire<'_, T> {
        RoundWire {
            phase,
            bytes_per_item,
            port: self,
        }
    }

    /// Opens the barrier-free side of the port for `cfg.engine`: batches
    /// travel out of band under `phase`, and `clock` is the machine's
    /// clock, which the pump merges arrivals into and charges sends to.
    /// The one place a run finds out that its mesh cannot detect
    /// quiescence ([`CommError::NeedsSharedMemory`]) — and the one
    /// seam a mesh-carried vote would replace.
    pub fn pump<'a>(
        &'a mut self,
        clock: &'a mut SimClock,
        cfg: &EngineConfig,
        phase: Phase,
        bytes_per_item: usize,
    ) -> Result<Pump<'a, T>, CommError> {
        let Some(Quiescence(term)) = &self.quiescence else {
            return Err(CommError::NeedsSharedMemory {
                engine: cfg.engine.name(),
            });
        };
        Ok(Pump {
            ep: &mut self.ep,
            outboxes: &mut self.outboxes,
            clock,
            stats: &self.stats,
            term,
            idle: false,
            cost: cfg.cost,
            phase,
            bytes_per_item,
        })
    }
}

/// What a barrier-free engine plugs into [`Pump::run`].
pub trait PumpStep<T> {
    /// Absorbs one inbound batch into the machine's state. Its arrival is
    /// already on the clock; the pump recycles it afterwards.
    fn absorb(&mut self, batch: &mut Batch<T>) -> Result<(), NetError>;

    /// One turn of local work: whatever the machine can do without
    /// hearing from a peer, with outbound items staged in
    /// [`Pump::outboxes`]. Returns `false` iff there was nothing to do.
    fn turn(&mut self, pump: &mut Pump<'_, T>) -> Result<bool, CommError>;
}

/// The barrier-free side of a [`Port`]: the endpoint's out-of-band
/// send/receive, the staging outboxes, the machine clock, and this
/// machine's seat at the quiescence detector (DESIGN.md §17). Every
/// detector call of the engine crate is in this type, in the order the
/// detector's proof needs: *sent* is counted before the push, *delivered*
/// after the batch is absorbed, and a machine is idle only while it has
/// neither work nor an undelivered batch.
pub struct Pump<'a, T> {
    ep: &'a mut Endpoint<T>,
    /// Staging for a turn's outbound items; the loop ships every non-empty
    /// slot when the turn returns.
    pub outboxes: &'a mut OutboxSet<T>,
    pub clock: &'a mut SimClock,
    stats: &'a NetStats,
    term: &'a Termination,
    idle: bool,
    cost: CostModel,
    phase: Phase,
    bytes_per_item: usize,
}

impl<T: Wire + Send> Pump<'_, T> {
    /// Pumps `engine` until the whole run is quiescent: drain the
    /// endpoint, take a turn, ship what it staged, and park at the
    /// detector when neither made progress.
    pub fn run(mut self, engine: &mut impl PumpStep<T>) -> Result<(), CommError> {
        loop {
            let mut progressed = false;
            while let Some(mut batch) = self.ep.try_recv()? {
                self.unpark();
                let bytes = batch.item_count() * self.bytes_per_item;
                self.clock.merge(batch.sent_at + self.cost.async_batch_time(bytes as u64));
                engine
                    .absorb(&mut batch)
                    .map_err(|e| CommError::transport(self.ep.me(), &e))?;
                self.ep.recycle(batch);
                self.term.note_delivered(1);
                progressed = true;
            }
            if engine.turn(&mut self)? {
                progressed = true;
                for dst in 0..self.ep.num_machines() {
                    self.flush(dst)?;
                }
            }
            if !progressed {
                if !self.idle {
                    self.term.enter_idle();
                    self.idle = true;
                }
                if self.term.check() {
                    return Ok(());
                }
                std::thread::yield_now();
            }
        }
    }

    /// Ships what is staged for `dst`, as one batch paying the per-message
    /// overhead (no-op on an empty slot).
    fn flush(&mut self, dst: usize) -> Result<(), CommError> {
        if self.outboxes.staged(dst).is_empty() {
            return Ok(());
        }
        self.unpark();
        self.term.note_sent(1);
        self.clock.advance(self.cost.async_send_cpu);
        let now = self.clock.now();
        self.ep
            .send_staged(self.outboxes, dst, now, self.phase, self.bytes_per_item, self.stats)?;
        Ok(())
    }

    fn unpark(&mut self) {
        if self.idle {
            self.term.leave_idle();
            self.idle = false;
        }
    }
}

/// What both round shapes share: the port and the round's wire parameters.
struct RoundWire<'a, T> {
    port: &'a mut Port<T>,
    phase: Phase,
    bytes_per_item: usize,
}

impl<T: Wire + Send> RoundWire<'_, T> {
    /// The round itself: one batch to and from every peer, the received
    /// ones sorted by sender.
    fn exchange(&mut self, now: f64) -> Result<Vec<Batch<T>>, CommError> {
        let port = &mut *self.port;
        port.ep
            .exchange(&mut port.outboxes, now, self.phase, self.bytes_per_item, &port.stats)
    }
}

/// One ⊕-fold exchange round (see [`Port::fold_round`]). Stage items into
/// [`Self::outboxes`] and [`Self::close`] the round.
pub struct FoldRound<'a, T, F> {
    wire: RoundWire<'a, T>,
    pctx: &'a ParallelCtx,
    num_local: usize,
    translate: F,
}

impl<T: Wire + Send, F> FoldRound<'_, T, F> {
    /// The staging outboxes of this round.
    pub fn outboxes(&mut self) -> &mut OutboxSet<T> {
        &mut self.wire.port.outboxes
    }

    /// Ships what is staged, waits for every peer's batch of the round,
    /// and ⊕-folds the routed items into `state.message` in (sender, item)
    /// order: one [`route_inbound`] pass over the sender-sorted batches.
    pub fn close<P: VertexProgram>(
        mut self,
        program: &P,
        state: &mut MachineState<P>,
        now: f64,
    ) -> Result<(), CommError>
    where
        F: Fn(T) -> Option<(u32, P::Delta)> + Sync,
    {
        let mut received = self.wire.exchange(now)?;
        let port = self.wire.port;
        route_inbound(
            self.pctx,
            self.num_local,
            &mut received,
            &self.translate,
            &mut state.scratch.inbound,
        )
        .map_err(|e| CommError::transport(port.ep.me(), &e))?;
        for batch in received {
            port.ep.recycle(batch);
        }
        let runs = state.deliver_inbound(program, self.pctx);
        port.stats.record_fold_runs(runs);
        Ok(())
    }
}

/// One sender-ordered exchange round (see [`Port::ordered_round`]): the
/// inbound items are not a commutative stream — Sync updates overwrite
/// `vdata`, mirrors-to-master hop 1 folds into the master's total — so
/// they are applied one by one, walking the sender-sorted batches.
pub struct OrderedRound<'a, T> {
    wire: RoundWire<'a, T>,
}

impl<T: Wire + Send> OrderedRound<'_, T> {
    /// The staging outboxes of this round.
    pub fn outboxes(&mut self) -> &mut OutboxSet<T> {
        &mut self.wire.port.outboxes
    }

    /// Ships what is staged, waits for every peer's batch of the round,
    /// and hands each inbound item to `apply` in (sender, item) order.
    pub fn close(mut self, now: f64, mut apply: impl FnMut(T)) -> Result<(), CommError> {
        let received = self.wire.exchange(now)?;
        let port = self.wire.port;
        for mut batch in received {
            batch
                .make_items()
                .map_err(|e| CommError::transport(port.ep.me(), &e))?;
            batch.items.drain(..).for_each(&mut apply);
            port.ep.recycle(batch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{ParallelConfig, ParallelCtx};
    use crate::program::{EdgeCtx, VertexCtx};
    use lazygraph_cluster::OutboxSet;
    use lazygraph_graph::VertexId;
    use lazygraph_net::FrameKind;

    struct Sum;
    impl VertexProgram for Sum {
        type VData = u64;
        type Delta = u64;
        fn name(&self) -> &'static str {
            "sum"
        }
        fn init_data(&self, _v: VertexId, _c: &VertexCtx) -> u64 {
            0
        }
        fn init_message(&self, _v: VertexId, _c: &VertexCtx) -> Option<u64> {
            None
        }
        fn sum(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn inverse(&self, accum: u64, a: u64) -> u64 {
            accum - a
        }
        fn apply(&self, _v: VertexId, d: &mut u64, a: u64, _c: &VertexCtx) -> Option<u64> {
            *d += a;
            None
        }
        fn scatter(
            &self,
            _v: VertexId,
            _d: &u64,
            x: u64,
            _c: &VertexCtx,
            _e: &EdgeCtx,
        ) -> Option<u64> {
            Some(x)
        }
    }

    #[test]
    fn stage_combining_folds_adjacent_keys_only() {
        let mut out = OutboxSet::new(2);
        assert!(!stage_combining(&Sum, &mut out, 1, 7, 10));
        assert!(stage_combining(&Sum, &mut out, 1, 7, 5)); // adjacent dup folds
        assert!(!stage_combining(&Sum, &mut out, 1, 9, 1));
        assert!(!stage_combining(&Sum, &mut out, 1, 7, 2)); // non-adjacent: new item
        assert!(!stage_combining(&Sum, &mut out, 0, 7, 3)); // other dst untouched
        assert_eq!(out.staged(1), &[(7, 15), (9, 1), (7, 2)]);
        assert_eq!(out.staged(0), &[(7, 3)]);
    }

    fn batch(from: usize, items: Vec<(u32, u64)>) -> Batch<(u32, u64)> {
        Batch {
            from,
            sent_at: 0.0,
            round: 0,
            last: true,
            kind: FrameKind::Data,
            items,
            raw: None,
        }
    }

    /// Routes `batches` (gid == local id, `d` scaled by ten) into fresh
    /// buckets and returns them in fold order.
    fn routed(
        pctx: &ParallelCtx,
        num_local: usize,
        batches: &mut [Batch<(u32, u64)>],
    ) -> Result<Vec<Segments<u64>>, NetError> {
        let mut inbound = Inbound::default();
        let translate = |(gid, d): (u32, u64)| (gid != 99).then_some((gid, d * 10));
        route_inbound(pctx, num_local, batches, translate, &mut inbound)?;
        Ok(inbound.routed().to_vec())
    }

    #[test]
    fn route_inbound_preserves_batch_then_item_order() {
        // 3 batches (already sender-sorted), 2 blocks.
        for threads in [1, 4] {
            let pctx = ParallelCtx::new(ParallelConfig {
                threads,
                block_size: 4,
            }).expect("spawn pool");
            let mut batches = vec![
                batch(0, vec![(0, 1), (5, 2), (1, 3)]),
                batch(1, vec![(5, 4), (0, 5)]),
                batch(2, vec![(7, 6)]),
            ];
            let slots = routed(&pctx, 8, &mut batches).expect("well-formed batches");
            // One producer per batch, its items split by target block in
            // item order.
            assert_eq!(
                slots,
                vec![
                    vec![vec![(0, 10), (1, 30)], vec![(5, 20)]],
                    vec![vec![(0, 50)], vec![(5, 40)]],
                    vec![vec![], vec![(7, 60)]],
                ]
            );
            // Batches were drained in place (capacity recyclable).
            assert!(batches.iter().all(|b| b.items.is_empty()));
        }
    }

    #[test]
    fn route_inbound_drops_untranslatable_and_out_of_range_items() {
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size: 4,
        }).expect("spawn pool");
        let mut batches = vec![batch(0, vec![(0, 1), (99, 2), (3, 3), (64, 4)])];
        let slots = routed(&pctx, 4, &mut batches).expect("well-formed batch");
        assert_eq!(slots, vec![vec![vec![(0, 10), (3, 30)]]]);
    }

    #[test]
    fn inbound_slots_are_reused_in_place_and_released_past_the_limit() {
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 1,
            block_size: 4,
        }).expect("spawn pool");
        let mut inbound: Inbound<u64> = Inbound::default();
        let translate = |(gid, d): (u32, u64)| Some((gid, d));
        let items: Vec<(u32, u64)> = (0..100).map(|i| (i % 4, u64::from(i))).collect();
        for _ in 0..3 {
            let mut batches = vec![batch(0, items.clone())];
            route_inbound(&pctx, 8, &mut batches, translate, &mut inbound).expect("routed");
            assert_eq!(inbound.routed()[0][0].len(), 100);
            inbound.finish_round(usize::MAX);
            assert!(inbound.routed().is_empty(), "the round is over");
        }
        // Same slot, same bucket, same capacity: the second and third
        // rounds allocated nothing.
        let kept = retained(&inbound.slots[0]);
        assert!((100..=256).contains(&kept), "kept {kept}");
        assert_eq!(inbound.slots.len(), 1);
        inbound.finish_round(kept - 1);
        assert!(inbound.slots.is_empty(), "over the limit: released");
    }

    #[test]
    fn route_inbound_raw_cursor_matches_materialized_routing() {
        use lazygraph_cluster::RawBatch;
        // Same logical items twice: once materialized, once as raw wire
        // bytes behind a cursor (with a nonzero offset, as a real frame
        // payload has). Routing must be identical.
        let items: Vec<(u32, u64)> = vec![(0, 1), (5, 2), (1, 3), (5, 4), (7, 5)];
        let mut bytes = vec![0xAB, 0xCD, 0xEF]; // stand-in header bytes
        let offset = bytes.len();
        for it in &items {
            it.encode(&mut bytes);
        }
        for threads in [1, 4] {
            let pctx = ParallelCtx::new(ParallelConfig {
                threads,
                block_size: 4,
            }).expect("spawn pool");
            let mut materialized = vec![batch(0, items.clone())];
            let mut raw = vec![batch(0, Vec::new())];
            raw[0].raw = Some(RawBatch {
                bytes: bytes.clone(),
                offset,
                count: items.len() as u32,
            });
            let a = routed(&pctx, 8, &mut materialized);
            let b = routed(&pctx, 8, &mut raw);
            assert_eq!(a.expect("materialized"), b.expect("raw"));
            // The raw batch is drained (count zeroed) but keeps its buffer
            // for recycling back to the frame reader's free list.
            let r = raw[0].raw.as_ref().unwrap();
            assert_eq!(r.count, 0);
            assert!(!r.bytes.is_empty());
        }
    }

    #[test]
    fn route_inbound_fails_on_a_malformed_raw_item() {
        use lazygraph_cluster::RawBatch;
        // Three items claimed, the third cut short: the frame layer let it
        // through, so the router must fail the round — never deliver the
        // well-formed prefix as if it were the whole batch.
        let mut bytes = Vec::new();
        for it in [(0u32, 1u64), (1, 2), (2, 3)] {
            it.encode(&mut bytes);
        }
        bytes.truncate(bytes.len() - 3);
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size: 4,
        }).expect("spawn pool");
        let mut raw = vec![batch(0, Vec::new())];
        raw[0].raw = Some(RawBatch {
            bytes,
            offset: 0,
            count: 3,
        });
        assert!(
            routed(&pctx, 4, &mut raw).is_err(),
            "a torn item region must be a typed error"
        );
    }

    /// A toy pump engine: tokens ride the ring `me → me + 1`, losing one
    /// hop per forward.
    struct Ring<'a> {
        me: usize,
        held: Vec<u32>,
        absorbed: u64,
        /// Turns in a row that found nothing to do, with no batch absorbed
        /// in between: from the second on, the loop has parked this
        /// machine at the detector.
        empty_turns: u32,
        /// Machine 2 only: tells machine 1 it is parked.
        parked: Option<std::sync::mpsc::Sender<()>>,
        /// Machine 1 only: awaited before its first forward.
        await_parked: Option<std::sync::mpsc::Receiver<()>>,
        term: &'a Termination,
    }

    impl PumpStep<u32> for Ring<'_> {
        fn absorb(&mut self, batch: &mut Batch<u32>) -> Result<(), NetError> {
            assert!(!self.term.is_done(), "latched with a batch in flight");
            batch.make_items()?;
            self.absorbed += batch.items.len() as u64;
            self.held.append(&mut batch.items);
            self.empty_turns = 0;
            Ok(())
        }

        fn turn(&mut self, pump: &mut Pump<'_, u32>) -> Result<bool, CommError> {
            if self.held.is_empty() {
                self.empty_turns += 1;
                if self.empty_turns == 2 {
                    if let Some(parked) = self.parked.take() {
                        parked.send(()).expect("machine 1 is waiting");
                    }
                }
                return Ok(false);
            }
            // Machine 2 has never held a token, so once it reports itself
            // parked it stays parked until this forward lands: the hop is
            // delivered to an idle receiver.
            if let Some(parked) = self.await_parked.take() {
                parked.recv().expect("machine 2 parks before its first token");
            }
            for hops in self.held.drain(..).filter(|&hops| hops > 0) {
                pump.outboxes.push((self.me + 1) % 3, hops - 1);
            }
            Ok(true)
        }
    }

    #[test]
    fn pump_forwards_a_token_round_the_ring_and_terminates() {
        use lazygraph_cluster::{build_endpoints, try_run_machines, TransportKind};
        const HOPS: u32 = 40;
        let cfg = EngineConfig::powergraph_async();
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let quiescence = Quiescence::shared_memory(3);
            let endpoints = build_endpoints::<u32>(transport, 3, &stats).expect("mesh");
            let (parked, await_parked) = std::sync::mpsc::channel();
            let signals = [(None, None), (None, Some(await_parked)), (Some(parked), None)];
            let seats: Vec<_> = endpoints.into_iter().zip(signals).collect();
            let absorbed = try_run_machines(seats, |(ep, (parked, await_parked))| {
                let me = ep.me();
                let mut port = Port::new(ep, stats.clone(), Some(quiescence.clone()));
                let mut clock = SimClock::new();
                let mut ring = Ring {
                    me,
                    held: if me == 0 { vec![HOPS] } else { Vec::new() },
                    absorbed: 0,
                    empty_turns: 0,
                    parked,
                    await_parked,
                    term: &quiescence.0,
                };
                port.pump(&mut clock, &cfg, Phase::Async, 4)?.run(&mut ring)?;
                assert!(ring.held.is_empty(), "machine {me} quit holding a token");
                Ok::<u64, CommError>(ring.absorbed)
            })
            .expect("pump run");
            assert!(quiescence.0.is_done());
            assert_eq!(quiescence.0.total_sent(), u64::from(HOPS), "{transport:?}");
            assert_eq!(absorbed.iter().sum::<u64>(), u64::from(HOPS), "{transport:?}: {absorbed:?}");
        }
    }

    /// A pump engine whose machine 2 dies in its first turn.
    struct DiesOnTwo {
        me: usize,
    }

    impl PumpStep<u32> for DiesOnTwo {
        fn absorb(&mut self, _batch: &mut Batch<u32>) -> Result<(), NetError> {
            Ok(())
        }

        fn turn(&mut self, _pump: &mut Pump<'_, u32>) -> Result<bool, CommError> {
            assert_ne!(self.me, 2, "machine 2 dies");
            Ok(false)
        }
    }

    #[test]
    fn a_pump_whose_peer_died_fails_typed() {
        use lazygraph_cluster::{build_endpoints, TransportKind};
        // Machine 2 panics: its endpoint unwinds without a Shutdown frame,
        // so its sockets tear as a killed process's would. Machines 0 and
        // 1 sit parked at the detector, which can never see machine 2
        // idle; only the torn links can end their pumps.
        let cfg = EngineConfig::powergraph_async();
        let stats = Arc::new(NetStats::new());
        let quiescence = Quiescence::shared_memory(3);
        let endpoints = build_endpoints::<u32>(TransportKind::Tcp, 3, &stats).expect("mesh");
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let machines: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let (stats, quiescence, cfg) = (stats.clone(), quiescence.clone(), &cfg);
                    s.spawn(move || {
                        let me = ep.me();
                        let mut port = Port::new(ep, stats, Some(quiescence));
                        let mut clock = SimClock::new();
                        port.pump(&mut clock, cfg, Phase::Async, 4)?
                            .run(&mut DiesOnTwo { me })
                    })
                })
                .collect();
            machines.into_iter().map(|m| m.join()).collect()
        });
        assert!(outcomes[2].is_err(), "machine 2 was to panic");
        // A machine whose mesh failed severs its own links on the way out,
        // so the survivor that notices second may see either tear.
        let torn: Vec<&str> = outcomes[..2]
            .iter()
            .enumerate()
            .map(|(me, outcome)| match outcome {
                Ok(Err(CommError::Transport { detail, .. })) => detail.as_str(),
                other => panic!("machine {me}: expected a torn link, got {other:?}"),
            })
            .collect();
        assert!(torn.iter().any(|d| d.contains("machine 2")), "{torn:?}");
    }

    #[test]
    fn pump_without_a_detector_is_a_typed_error() {
        let ep = lazygraph_cluster::build_mesh::<u32>(1).remove(0);
        let mut port = Port::new(ep, Arc::new(NetStats::new()), None);
        let cfg = EngineConfig::lazy_vertex_async();
        let err = port.pump(&mut SimClock::new(), &cfg, Phase::Coherency, 4).err();
        assert_eq!(
            err,
            Some(CommError::NeedsSharedMemory {
                engine: "lazy-vertex-async"
            })
        );
    }
}
