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
//! rounds of their own: they open the port's [`Pump`] instead, the one
//! loop that drains, flushes and votes on whether the run is over
//! (DESIGN.md §17).

use std::sync::Arc;

use lazygraph_cluster::{
    Batch, Collective, CommError, CostModel, Endpoint, NetStats, OutboxSet, Phase, SimClock,
};
use lazygraph_net::{NetError, Wire};
use lazygraph_partition::{LocalShard, NO_LOCAL};

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

/// The local id of `gid` in an item machine `from` sent here, through the
/// shard's dense route table. A vertex this machine holds no replica of is
/// a malformed frame, not a partitioner bug to panic on: the caller fails
/// the run with it, naming the sender.
pub(crate) fn route_item(route: &[u32], from: usize, gid: u32) -> Result<u32, NetError> {
    match route.get(gid as usize) {
        Some(&l) if l != NO_LOCAL => Ok(l),
        _ => Err(misrouted(from, "an item", gid, "holds no replica")),
    }
}

/// The error for a peer's item that names a vertex it may not send here.
pub(crate) fn misrouted(from: usize, what: &str, gid: u32, here: &str) -> NetError {
    NetError::Malformed {
        ty: "routed item",
        detail: format!(
            "machine {from} sent {what} for vertex {gid}, of which this machine {here}"
        ),
    }
}

/// Block-parallel translate-and-bucket over received batches: the
/// replacement for the serial per-item `local_of` + push loop.
///
/// Each batch is drained by one pool task (batches are disjoint, so this
/// needs no locking) into the next free slot of `inbound`. Every
/// `(gid, x)` item is routed to its local id through the dense `route`
/// table ([`route_item`]) and handed to `translate` as `(local id, gid,
/// x)` — typically `program.gather` — and what `translate` returns lands
/// in that slot's per-block bucket; `Ok(None)` means there is nothing to
/// fold (mirrors-to-master hop 2: a replica that contributed the whole
/// total). An item for a vertex this machine holds no replica of, or one
/// the table routes past the last local vertex, fails the whole call
/// naming its sender, as does an item `translate` refuses or one that
/// fails to decode off a raw frame payload (first failing batch in batch
/// order); the rounds turn that into a [`CommError::Transport`] that fails
/// the run.
/// [`MachineState::deliver_inbound`](crate::state::MachineState::deliver_inbound)
/// then folds the slots where they lie: no second bucketing pass, and
/// per-vertex fold order is identical to translating the batches serially
/// in sender order.
///
/// Drained batches keep their capacity; the caller recycles them back to
/// their senders via [`Endpoint::recycle`](lazygraph_cluster::Endpoint::recycle).
pub fn route_inbound<X, D, F>(
    pctx: &ParallelCtx,
    route: &[u32],
    num_local: usize,
    batches: &mut [Batch<(u32, X)>],
    translate: F,
    inbound: &mut Inbound<D>,
) -> Result<(), NetError>
where
    (u32, X): Wire + Send,
    D: Send,
    F: Fn(u32, u32, X) -> Result<Option<D>, NetError> + Sync,
{
    let bs = pctx.block_size();
    let num_blocks = num_blocks(num_local, bs);
    let first = inbound.routed;
    inbound.routed += batches.len();
    if inbound.slots.len() < inbound.routed {
        inbound.slots.resize_with(inbound.routed, Vec::new);
    }
    let work: Vec<_> = batches.iter_mut().zip(&mut inbound.slots[first..]).collect();
    let routed: Vec<Result<(), NetError>> = pctx.pool().map(work, |(batch, buckets)| {
        // Capacities differ per slot but contents never do: every bucket
        // is emptied before it is filled, so reuse cannot affect results.
        buckets.iter_mut().for_each(Vec::clear);
        buckets.resize_with(num_blocks, Vec::new);
        let from = batch.from;
        let route_one = |(gid, x): (u32, X)| -> Result<(), NetError> {
            let l = route_item(route, from, gid)?;
            let bucket = buckets.get_mut(l as usize / bs).filter(|_| (l as usize) < num_local);
            let Some(bucket) = bucket else {
                return Err(misrouted(from, "an item", gid, "routes past its last local vertex"));
            };
            if let Some(d) = translate(l, gid, x)? {
                bucket.push((l, d));
            }
            Ok(())
        };
        // A TCP batch's items decode straight off the frame payload into
        // their buckets; decode order is wire order is the materialized
        // path's item order, so fold order (and every value) is identical.
        batch.drain_each(route_one)
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
}

impl<T: Wire + Send> Port<T> {
    pub fn new(ep: Endpoint<T>, stats: Arc<NetStats>) -> Self {
        let outboxes = OutboxSet::new(ep.num_machines());
        Port { ep, outboxes, stats }
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

    /// Opens the barrier-free side of the port: batches travel out of
    /// band under `phase`, `clock` is the machine's clock, which the pump
    /// merges arrivals into and charges sends to under `cost`, and `coll`
    /// is the machine's collective, which carries the pump's vote.
    pub fn pump<'a>(
        &'a mut self,
        clock: &'a mut SimClock,
        coll: &'a Collective,
        cost: CostModel,
        phase: Phase,
        bytes_per_item: usize,
    ) -> Pump<'a, T> {
        Pump {
            ep: &mut self.ep,
            outboxes: &mut self.outboxes,
            clock,
            stats: &self.stats,
            coll,
            cost,
            phase,
            bytes_per_item,
        }
    }
}

impl<X> Port<(u32, X)>
where
    (u32, X): Wire + Send,
{
    /// Opens a ⊕-fold round: inbound items are routed through `shard`'s
    /// route table, go through `translate` ([`route_inbound`]) and fold
    /// into `message` at [`FoldRound::close`].
    pub fn fold_round<'a, D, F>(
        &'a mut self,
        pctx: &'a ParallelCtx,
        shard: &'a LocalShard,
        phase: Phase,
        bytes_per_item: usize,
        translate: F,
    ) -> FoldRound<'a, (u32, X), F>
    where
        F: Fn(u32, u32, X) -> Result<Option<D>, NetError> + Sync,
    {
        FoldRound {
            wire: self.round_wire(phase, bytes_per_item),
            pctx,
            shard,
            translate,
        }
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
/// send/receive, the staging outboxes, the machine clock, and the
/// collective its vote runs over (DESIGN.md §17).
pub struct Pump<'a, T> {
    ep: &'a mut Endpoint<T>,
    /// Staging for a turn's outbound items; the loop ships every non-empty
    /// slot when the turn returns.
    pub outboxes: &'a mut OutboxSet<T>,
    pub clock: &'a mut SimClock,
    stats: &'a NetStats,
    coll: &'a Collective,
    cost: CostModel,
    phase: Phase,
    bytes_per_item: usize,
}

impl<T: Wire + Send> Pump<'_, T> {
    /// Pumps `engine` until the whole run is quiescent: drain the
    /// endpoint, take a turn, ship what it staged, and vote when neither
    /// made progress.
    pub fn run(mut self, engine: &mut impl PumpStep<T>) -> Result<(), CommError> {
        loop {
            let mut progressed = false;
            while let Some(mut batch) = self.ep.try_recv()? {
                let bytes = batch.item_count() * self.bytes_per_item;
                self.clock.merge(batch.sent_at + self.cost.async_batch_time(bytes as u64));
                engine
                    .absorb(&mut batch)
                    .map_err(|e| CommError::transport(self.ep.me(), &e))?;
                self.ep.recycle(batch);
                progressed = true;
            }
            progressed |= engine.turn(&mut self)?;
            // Every turn's items leave before any vote round can: the
            // round ships whatever is staged as its own payload.
            for dst in 0..self.ep.num_machines() {
                self.flush(dst)?;
            }
            if !progressed && self.vote()? {
                return Ok(());
            }
        }
    }

    /// The vote of a machine with no work and nothing received: one empty
    /// round on the data mesh, then an or-reduce of "I hold an undelivered
    /// batch". Links are FIFO per peer and every machine sends its round
    /// batch after everything it sent before it, so once the round is
    /// complete every batch sent before the vote waits in its receiver's
    /// `pending`; nothing is in flight. All false: no machine has work and
    /// none can get any, and the run is over (`true`). Any true: every
    /// machine pumps on. Neither part is a global synchronisation or
    /// simulated time.
    fn vote(&mut self) -> Result<bool, CommError> {
        let now = self.clock.now();
        let round =
            self.ep.exchange(self.outboxes, now, self.phase, self.bytes_per_item, self.stats)?;
        for batch in round {
            self.ep.recycle(batch);
        }
        let held = self.ep.holds_async();
        Ok(!self.coll.vote(self.ep.me(), held, self.stats)?)
    }

    /// Ships what is staged for `dst`, as one batch paying the per-message
    /// overhead (no-op on an empty slot).
    fn flush(&mut self, dst: usize) -> Result<(), CommError> {
        if self.outboxes.staged(dst).is_empty() {
            return Ok(());
        }
        self.clock.advance(self.cost.async_send_cpu);
        let now = self.clock.now();
        self.ep
            .send_staged(self.outboxes, dst, now, self.phase, self.bytes_per_item, self.stats)?;
        Ok(())
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
    shard: &'a LocalShard,
    translate: F,
}

impl<X, F> FoldRound<'_, (u32, X), F>
where
    (u32, X): Wire + Send,
{
    /// The staging outboxes of this round.
    pub fn outboxes(&mut self) -> &mut OutboxSet<(u32, X)> {
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
        F: Fn(u32, u32, X) -> Result<Option<P::Delta>, NetError> + Sync,
    {
        let mut received = self.wire.exchange(now)?;
        let port = self.wire.port;
        route_inbound(
            self.pctx,
            self.shard.route_table(),
            self.shard.num_local(),
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
}

impl<X> OrderedRound<'_, (u32, X)>
where
    (u32, X): Wire + Send,
{
    /// Ships what is staged, waits for every peer's batch of the round,
    /// and hands each inbound `(gid, x)` to `apply` as `(local id, x)`
    /// through `route`, in (sender, item) order. An item for a vertex this
    /// machine holds no replica of fails the round ([`route_item`]).
    pub fn close(
        mut self,
        now: f64,
        route: &[u32],
        mut apply: impl FnMut(u32, X),
    ) -> Result<(), CommError> {
        let received = self.wire.exchange(now)?;
        let port = self.wire.port;
        for mut batch in received {
            apply_routed(&mut batch, route, &mut apply)
                .map_err(|e| CommError::transport(port.ep.me(), &e))?;
            port.ep.recycle(batch);
        }
        Ok(())
    }
}

/// Hands each `(gid, x)` of `batch` to `apply` as `(local id, x)` through
/// `route`, in item order, decoding a zero-copy payload in place: the walk
/// of an [`OrderedRound`]. An item for a vertex this machine holds no
/// replica of, or a malformed one, ends the walk ([`route_item`]).
fn apply_routed<X>(
    batch: &mut Batch<(u32, X)>,
    route: &[u32],
    apply: &mut impl FnMut(u32, X),
) -> Result<(), NetError>
where
    (u32, X): Wire,
{
    let from = batch.from;
    batch.drain_each(|(gid, x)| {
        apply(route_item(route, from, gid)?, x);
        Ok(())
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parallel::{ParallelConfig, ParallelCtx};
    use crate::program::{EdgeCtx, VertexCtx};
    use lazygraph_cluster::OutboxSet;
    use lazygraph_graph::VertexId;
    use lazygraph_net::FrameKind;

    /// A program whose vertex data and deltas are plain `u64` sums.
    pub(crate) struct Sum;
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

    /// `items` as a zero-copy batch: encoded behind `header` stand-in
    /// bytes, the way the TCP reader hands a frame payload off.
    fn raw_batch(from: usize, items: &[(u32, u64)], header: usize) -> Batch<(u32, u64)> {
        let mut bytes = vec![0xAB; header];
        for it in items {
            it.encode(&mut bytes);
        }
        let mut b = batch(from, Vec::new());
        b.raw = Some(lazygraph_cluster::RawBatch { bytes, offset: header, count: items.len() as u32 });
        b
    }

    /// Routes `batches` (gid == local id, `d` scaled by ten) into fresh
    /// buckets and returns them in fold order.
    fn routed(
        pctx: &ParallelCtx,
        num_local: usize,
        batches: &mut [Batch<(u32, u64)>],
    ) -> Result<Vec<Segments<u64>>, NetError> {
        let route: Vec<u32> = (0..num_local as u32).collect();
        routed_through(pctx, &route, num_local, batches)
    }

    fn routed_through(
        pctx: &ParallelCtx,
        route: &[u32],
        num_local: usize,
        batches: &mut [Batch<(u32, u64)>],
    ) -> Result<Vec<Segments<u64>>, NetError> {
        let mut inbound = Inbound::default();
        let translate = |_, _, d: u64| Ok(Some(d * 10));
        route_inbound(pctx, route, num_local, batches, translate, &mut inbound)?;
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
    fn route_inbound_refuses_a_misrouted_item_naming_its_sender() {
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size: 4,
        }).expect("spawn pool");
        let refused = |result: Result<Vec<Segments<u64>>, NetError>, sender: &str, why: &str| {
            match result {
                Err(NetError::Malformed { ty: "routed item", detail }) => {
                    assert!(detail.contains(sender) && detail.contains(why), "{detail}")
                }
                other => panic!("expected a misrouted item, got {other:?}"),
            }
        };
        // A vertex this machine holds no replica of, inside the route
        // table and past its end, from sender 2 after two good items.
        for gid in [2, 99] {
            let route = [0, 1, NO_LOCAL, 3];
            let mut batches =
                vec![batch(0, vec![(0, 1)]), batch(2, vec![(3, 3), (gid, 2), (1, 4)])];
            let sender = format!("machine 2 sent an item for vertex {gid},");
            refused(routed_through(&pctx, &route, 4, &mut batches), &sender, "holds no replica");
        }
        // A table that routes past the last local vertex, inside the last
        // block and past it.
        for gid in [3, 4] {
            let mut batches = vec![batch(1, vec![(0, 1), (gid, 5)])];
            let sender = format!("machine 1 sent an item for vertex {gid},");
            let why = "routes past its last local vertex";
            refused(routed_through(&pctx, &[0, 1, 2, 3, 9], 3, &mut batches), &sender, why);
        }
        // On a raw cursor too.
        let mut raw = vec![raw_batch(3, &[(0, 1), (64, 4)], 0)];
        refused(routed(&pctx, 4, &mut raw), "machine 3 sent an item for vertex 64,", "no replica");
    }

    #[test]
    fn inbound_slots_are_reused_in_place_and_released_past_the_limit() {
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 1,
            block_size: 4,
        }).expect("spawn pool");
        let mut inbound: Inbound<u64> = Inbound::default();
        let translate = |_, _, d: u64| Ok(Some(d));
        let route: Vec<u32> = (0..8).collect();
        let items: Vec<(u32, u64)> = (0..100).map(|i| (i % 4, u64::from(i))).collect();
        for _ in 0..3 {
            let mut batches = vec![batch(0, items.clone())];
            route_inbound(&pctx, &route, 8, &mut batches, translate, &mut inbound).expect("routed");
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
        // Same logical items twice: once materialized, once as raw wire
        // bytes behind a cursor (with a nonzero offset, as a real frame
        // payload has). Routing must be identical.
        let items: Vec<(u32, u64)> = vec![(0, 1), (5, 2), (1, 3), (5, 4), (7, 5)];
        for threads in [1, 4] {
            let pctx = ParallelCtx::new(ParallelConfig {
                threads,
                block_size: 4,
            }).expect("spawn pool");
            let mut materialized = vec![batch(0, items.clone())];
            let mut raw = vec![raw_batch(0, &items, 3)];
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
    fn an_ordered_round_walks_a_raw_cursor_as_it_walks_materialized_items() {
        // gid g is local 7 - g here, so the walk's translation shows.
        let route: Vec<u32> = (0..8).rev().collect();
        let sent = [(0, vec![(0, 1), (5, 2), (1, 3)]), (2, vec![(5, 4), (7, 5)])];
        let walk = |raw: bool| {
            let mut seen = Vec::new();
            for (from, items) in &sent {
                let mut b = if raw { raw_batch(*from, items, 3) } else { batch(*from, items.clone()) };
                apply_routed(&mut b, &route, &mut |l, x| seen.push((l, x))).expect("well-formed");
                assert_eq!(b.item_count(), 0, "the walk drains the batch");
                // What goes to `Endpoint::recycle`: the frame buffer, and
                // no item vector a raw payload was decoded into.
                assert_eq!(b.items.capacity() == 0, raw, "raw: {raw}");
                assert_eq!(b.raw.is_some_and(|r| !r.bytes.is_empty()), raw);
            }
            seen
        };
        assert_eq!(walk(false), vec![(7, 1), (2, 2), (6, 3), (2, 4), (0, 5)]);
        assert_eq!(walk(true), walk(false));
        // A torn item region fails the walk typed, after the whole prefix.
        let mut torn = raw_batch(1, &[(0, 1), (1, 2), (2, 3)], 3);
        let bytes = &mut torn.raw.as_mut().expect("raw").bytes;
        bytes.truncate(bytes.len() - 3);
        let mut seen = Vec::new();
        let walked = apply_routed(&mut torn, &route, &mut |l, x| seen.push((l, x)));
        assert!(matches!(walked, Err(NetError::Truncated { .. })), "{walked:?}");
        assert_eq!(seen, vec![(7, 1), (6, 2)]);
    }

    /// The same rounds over both transports: in-proc batches carry their
    /// items, TCP batches arrive as raw frame payloads, and every
    /// machine's `close` sees one `(local id, x)` sequence either way.
    #[test]
    fn an_ordered_round_applies_the_same_sequence_on_both_transports() {
        use lazygraph_cluster::{build_endpoints, run_machines, TransportKind};
        const N: usize = 3;
        let route: Vec<u32> = (0..64).rev().collect();
        let applied = |transport| {
            let stats = Arc::new(NetStats::new());
            let endpoints = build_endpoints::<(u32, u64)>(transport, N, &stats).expect("mesh");
            run_machines(endpoints, |ep| {
                let me = ep.me() as u32;
                let mut port = Port::new(ep, stats.clone());
                let mut seen = Vec::new();
                for round in 0..3u32 {
                    let mut r = port.ordered_round(Phase::Apply, 12);
                    for dst in 0..N as u32 {
                        for k in 0..(me + round + dst) % 5 {
                            let gid = (7 * me + 3 * k + round) % 64;
                            r.outboxes().push(dst as usize, (gid, u64::from(me << 16 | round << 8 | k)));
                        }
                    }
                    r.close(0.0, &route, |l, x| seen.push((l, x)))?;
                }
                Ok::<_, CommError>(seen)
            })
        };
        let inproc = applied(TransportKind::InProc);
        assert!(inproc.iter().all(|seen| seen.as_ref().is_ok_and(|s| s.len() > 10)), "{inproc:?}");
        assert_eq!(applied(TransportKind::Tcp), inproc);
    }

    #[test]
    fn route_inbound_fails_on_a_malformed_raw_item() {
        // Three items claimed, the third cut short: the frame layer let it
        // through, so the router must fail the round — never deliver the
        // well-formed prefix as if it were the whole batch.
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size: 4,
        }).expect("spawn pool");
        let mut raw = vec![raw_batch(0, &[(0, 1), (1, 2), (2, 3)], 0)];
        let bytes = &mut raw[0].raw.as_mut().expect("raw").bytes;
        bytes.truncate(bytes.len() - 3);
        assert!(
            routed(&pctx, 4, &mut raw).is_err(),
            "a torn item region must be a typed error"
        );
    }

    #[test]
    fn an_item_for_a_vertex_without_a_replica_here_fails_the_round_typed() {
        use lazygraph_cluster::{build_endpoints, run_machines, TransportKind};
        // Machine 1 holds vertices 0 and 1 only, and machine 0 sends it
        // vertex 7: the round fails on machine 1, naming machine 0.
        let route = [0, 1];
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let endpoints = build_endpoints::<(u32, u64)>(transport, 2, &stats).expect("mesh");
            let outcomes = run_machines(endpoints, |ep| {
                let me = ep.me();
                let mut port = Port::new(ep, stats.clone());
                let mut round = port.ordered_round(Phase::Apply, 12);
                if me == 0 {
                    round.outboxes().push(1, (1, 10));
                    round.outboxes().push(1, (7, 70));
                }
                round.close(0.0, &route, |_, _| {})
            });
            assert_eq!(outcomes[0], Ok(()), "{transport:?}");
            match &outcomes[1] {
                Err(CommError::Transport { me: 1, detail }) => assert!(
                    detail.contains("machine 0 sent an item for vertex 7"),
                    "{transport:?}: {detail}"
                ),
                other => panic!("{transport:?}: expected a typed transport error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_fold_round_item_for_a_vertex_without_a_replica_here_fails_typed() {
        use lazygraph_cluster::{build_endpoints, run_machines, TransportKind};
        use lazygraph_graph::generators::{rmat, RmatConfig};
        use lazygraph_partition::{partition_graph, PartitionStrategy, SplitterConfig};
        // Machine 0 sends machine 1 one of its vertices, then one it does
        // not hold: the round fails on machine 1, naming machine 0.
        let g = rmat(RmatConfig::graph500(6, 4, 11));
        let strategy = PartitionStrategy::Random;
        let dg = partition_graph(&g, 2, strategy, &SplitterConfig::disabled(), false);
        let held = dg.shards[1].global_of(0).0;
        let stranger = (0..dg.num_global_vertices as u32)
            .find(|&v| dg.shards[1].local_of(v.into()).is_none())
            .expect("machine 1 does not hold every vertex");
        let par = ParallelConfig { threads: 1, block_size: 4 };
        let pctx = ParallelCtx::new(par).expect("spawn pool");
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let endpoints = build_endpoints::<(u32, u64)>(transport, 2, &stats).expect("mesh");
            let outcomes = run_machines(endpoints, |ep| {
                let me = ep.me();
                let shard = &dg.shards[me];
                let mut state = MachineState::init(
                    shard,
                    &Sum,
                    crate::state::InitMessages::AllReplicas,
                    dg.num_global_vertices,
                );
                let mut port = Port::new(ep, stats.clone());
                let mut round =
                    port.fold_round(&pctx, shard, Phase::Coherency, 12, |_, _, d| Ok(Some(d)));
                if me == 0 {
                    round.outboxes().push(1, (held, 10));
                    round.outboxes().push(1, (stranger, 70));
                }
                round.close(&Sum, &mut state, 0.0).map(|()| state.message)
            });
            assert!(outcomes[0].is_ok(), "{transport:?}");
            match &outcomes[1] {
                Err(CommError::Transport { me: 1, detail }) => assert!(
                    detail.contains(&format!("machine 0 sent an item for vertex {stranger}")),
                    "{transport:?}: {detail}"
                ),
                other => panic!("{transport:?}: expected a typed transport error, got {other:?}"),
            }
        }
    }

    /// A toy pump engine: tokens ride the ring `me → me + 1`, losing one
    /// hop per forward.
    struct Ring {
        me: usize,
        held: Vec<u32>,
        absorbed: u64,
        /// Machine 2 only: tells machine 1, in its first empty turn, that
        /// the loop is about to take it into the vote.
        parked: Option<std::sync::mpsc::Sender<()>>,
        /// Machine 1 only: awaited before its first forward.
        await_parked: Option<std::sync::mpsc::Receiver<()>>,
        /// A batch reached this machine after it said it was parked.
        woken: bool,
    }

    impl PumpStep<u32> for Ring {
        fn absorb(&mut self, batch: &mut Batch<u32>) -> Result<(), NetError> {
            batch.make_items()?;
            self.absorbed += batch.items.len() as u64;
            self.held.append(&mut batch.items);
            self.woken |= self.me == 2 && self.parked.is_none();
            Ok(())
        }

        fn turn(&mut self, pump: &mut Pump<'_, u32>) -> Result<bool, CommError> {
            if self.held.is_empty() {
                if let Some(parked) = self.parked.take() {
                    parked.send(()).expect("machine 1 is waiting");
                }
                return Ok(false);
            }
            // Machine 2 has never held a token, so once it reports itself
            // parked it is in the vote's round, or about to be, and stays
            // there until this forward lands: the hop is delivered to a
            // machine that has voted, and that vote must fail. Nothing can
            // signal from inside the round, so the pause only makes "in"
            // the likely case; the assertions hold for "about to be" too.
            if let Some(parked) = self.await_parked.take() {
                parked.recv().expect("machine 2 parks before its first token");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            for hops in self.held.drain(..).filter(|&hops| hops > 0) {
                pump.outboxes.push((self.me + 1) % 3, hops - 1);
            }
            Ok(true)
        }
    }

    /// The vote's law on both transports, with one collective hosting
    /// every machine's leg and with one per machine: the run ends only once every
    /// token has been absorbed, and a forward that lands on a machine
    /// already in the vote fails that vote instead of being lost.
    #[test]
    fn pump_forwards_a_token_round_the_ring_and_terminates() {
        use lazygraph_cluster::{build_endpoints, build_mesh, try_run_machines, TransportKind};
        const HOPS: u32 = 40;
        let cost = CostModel::paper_cluster();
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            for per_machine in [false, true] {
                let stats = Arc::new(NetStats::new());
                let shared = Collective::new(3);
                let endpoints = build_endpoints::<u32>(transport, 3, &stats).expect("mesh");
                let (parked, await_parked) = std::sync::mpsc::channel();
                let signals = [(None, None), (None, Some(await_parked)), (Some(parked), None)];
                let seats: Vec<_> =
                    endpoints.into_iter().zip(build_mesh::<u8>(3)).zip(signals).collect();
                let rings = try_run_machines(seats, |((ep, ctrl), (parked, await_parked))| {
                    let me = ep.me();
                    let own = Collective::mesh(ctrl);
                    let coll = if per_machine { &own } else { &shared };
                    let mut port = Port::new(ep, stats.clone());
                    let mut clock = SimClock::new();
                    let mut ring = Ring {
                        me,
                        held: if me == 0 { vec![HOPS] } else { Vec::new() },
                        absorbed: 0,
                        parked,
                        await_parked,
                        woken: false,
                    };
                    port.pump(&mut clock, coll, cost, Phase::Async, 4).run(&mut ring)?;
                    assert!(ring.held.is_empty(), "machine {me} quit holding a token");
                    Ok::<(u64, bool), CommError>((ring.absorbed, ring.woken))
                })
                .expect("pump run");
                let what = format!("{transport:?}, per-machine collective {per_machine}");
                let absorbed: u64 = rings.iter().map(|r| r.0).sum();
                assert_eq!(absorbed, u64::from(HOPS), "{what}: {rings:?}");
                assert!(rings[2].1, "{what}: machine 2 left its vote with the forward unread");
                assert_eq!(stats.snapshot().global_syncs, 0, "{what}: a vote is not a sync");
            }
        }
    }

    /// What a pump engine with nothing to do does: no turn finds work.
    struct Idle {
        turns: u32,
    }

    impl PumpStep<u32> for Idle {
        fn absorb(&mut self, _batch: &mut Batch<u32>) -> Result<(), NetError> {
            Ok(())
        }

        fn turn(&mut self, _pump: &mut Pump<'_, u32>) -> Result<bool, CommError> {
            self.turns += 1;
            Ok(false)
        }
    }

    #[test]
    fn a_one_machine_pump_ends_at_its_first_vote() {
        let ep = lazygraph_cluster::build_mesh::<u32>(1).remove(0);
        let stats = Arc::new(NetStats::new());
        let mut port = Port::new(ep, stats.clone());
        let (mut clock, coll) = (SimClock::new(), Collective::new(1));
        let mut idle = Idle { turns: 0 };
        let pump = port.pump(&mut clock, &coll, CostModel::paper_cluster(), Phase::Coherency, 4);
        pump.run(&mut idle).expect("a lone machine's vote");
        assert_eq!(idle.turns, 1);
        assert_eq!(clock.now(), 0.0, "the vote is not simulated time");
        assert_eq!(stats.snapshot().global_syncs, 0);
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
        // 1 find nothing to do and enter the vote's round, which machine 2
        // never joins; only the torn links can end their pumps.
        let cost = CostModel::paper_cluster();
        let stats = Arc::new(NetStats::new());
        let coll = Collective::new(3);
        let endpoints = build_endpoints::<u32>(TransportKind::Tcp, 3, &stats).expect("mesh");
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let machines: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let (stats, coll) = (stats.clone(), &coll);
                    s.spawn(move || {
                        let me = ep.me();
                        let mut port = Port::new(ep, stats);
                        let mut clock = SimClock::new();
                        port.pump(&mut clock, coll, cost, Phase::Async, 4)
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
}
