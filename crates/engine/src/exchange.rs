//! The zero-allocation exchange fast path shared by the engines.
//!
//! Every coherency point (and every sync-engine phase) is an exchange of
//! keyed delta items, and three per-item costs used to dominate it:
//! fresh outbox allocation each phase, a serial hash lookup per inbound
//! item, and bucketing each item twice (once to translate, once inside
//! `deliver_all`). The fast path removes all three:
//!
//! 1. **Persistent outboxes** — engines stage into a persistent
//!    [`OutboxSet`](lazygraph_cluster::OutboxSet); `Endpoint::exchange`
//!    encodes each slot where it lies and clears it, so the slot keeps its
//!    buffer, and receivers [`recycle`](lazygraph_cluster::Endpoint::recycle)
//!    drained batches' payload buffers to their own carrier for its next
//!    encode, so steady-state rounds allocate nothing.
//! 2. **Sender-side combining** ([`stage_combining`]) — consecutive items
//!    staged for the same `(dst, gid)` fold with `program.sum` before
//!    they ever reach the wire. Engines stage in canonical (ascending
//!    local id) order, so adjacent-run combining is exhaustive per key
//!    and the receiver's left-fold association is unchanged.
//! 3. **Parallel inbound routing** ([`route_inbound`]) — one parallel
//!    translate pass over the received batches into the machine's
//!    persistent inbound [`Delivery`] buffer, one slice per batch, which
//!    [`MachineState::deliver_inbound`](crate::state::MachineState::deliver_inbound)
//!    folds in place. The gid → local translation reads the shard's dense
//!    route table (`LocalShard::local_of`, an array index since PR 3), not
//!    a hash map.
//!
//! Determinism: the router keeps (batch order, item order), and batches
//! arrive sorted by sender, so per-vertex fold order is exactly the
//! serial translate-then-deliver order — bitwise-identical at any thread
//! count. DESIGN.md §9 is the full contract.
//!
//! Engines never drive the endpoint's round API themselves: every
//! exchange is one of the two rounds a [`Port`] opens — a [`FoldRound`]
//! (inbound items ⊕-fold into `message`: Sync gather, all-to-all
//! coherency, mirrors-to-master hop 2) or an [`OrderedRound`] (inbound
//! items are applied one by one in sender order: Sync updates,
//! mirrors-to-master hop 1). Either way a round is one batch per (sender,
//! round), collected sorted by sender (DESIGN.md §11 records why rounds
//! are not cut into streamed parts). The barrier-free engines close the
//! same rounds; what differs is only how a round meets the machine's
//! clock ([`Stamp`], DESIGN.md §17).

use std::sync::Arc;

use lazygraph_cluster::{
    Batch, CommError, CostModel, Endpoint, NetStats, OutboxSet, Phase, SimClock,
};
use lazygraph_net::{NetError, Wire};
use lazygraph_partition::{LocalShard, NO_LOCAL};

use crate::parallel::ParallelCtx;
use crate::program::VertexProgram;
use crate::state::{Delivery, MachineState};

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

/// Parallel translate over received batches: the replacement for the
/// serial per-item `local_of` + push loop.
///
/// Each batch is drained by one pool task (batches are disjoint, so this
/// needs no locking) into its own slice of `inbound`, opened for as many
/// items as its payload can hold. Every `(gid, x)` item is routed to its
/// local id through the dense `route` table ([`route_item`]) and handed to
/// `translate` as `(local id, gid, x)` — typically `program.gather` — and
/// what `translate` returns is staged in the batch's slice, in item order;
/// `Ok(None)` means there is nothing to fold (mirrors-to-master hop 2: a
/// replica that contributed the whole total). An item for a vertex this
/// machine holds no replica of, or one the table routes past the last
/// local vertex, fails the whole call naming its sender, as does an item
/// `translate` refuses or one that fails to decode off a raw frame payload
/// (first failing batch in batch order); the rounds turn that into a
/// [`CommError::Transport`] that fails the run.
/// [`MachineState::deliver_inbound`](crate::state::MachineState::deliver_inbound)
/// then folds the slices where they lie, in batch order: per-vertex fold
/// order is identical to translating the batches serially in sender
/// order.
///
/// Drained batches keep their capacity; the caller recycles them back to
/// their senders via [`Endpoint::recycle`](lazygraph_cluster::Endpoint::recycle).
pub fn route_inbound<X, D, F>(
    pctx: &ParallelCtx,
    route: &[u32],
    num_local: usize,
    batches: &mut [Batch<(u32, X)>],
    translate: F,
    inbound: &mut Delivery<D>,
) -> Result<(), NetError>
where
    (u32, X): Wire + Send,
    D: Copy + Default + Send,
    F: Fn(u32, u32, X) -> Result<Option<D>, NetError> + Sync,
{
    // A raw item takes at least a byte, so a corrupt count cannot size a
    // slice past its frame.
    let bounds = batches.iter().map(|b| {
        let raw = b.raw.as_ref();
        b.items.len() + raw.map_or(0, |r| (r.count as usize).min(r.bytes.len().saturating_sub(r.offset)))
    });
    let producers = inbound.open(bounds);
    let work: Vec<_> = batches.iter_mut().zip(producers).collect();
    let routed: Vec<Result<(), NetError>> = pctx.pool().map(work, |(batch, mut into)| {
        let from = batch.from;
        // A TCP batch's items decode straight off the frame payload;
        // decode order is wire order is the materialized path's item
        // order, so fold order (and every value) is identical.
        batch.drain_each(|(gid, x)| {
            let l = route_item(route, from, gid)?;
            if l as usize >= num_local {
                return Err(misrouted(from, "an item", gid, "routes past its last local vertex"));
            }
            if let Some(d) = translate(l, gid, x)? {
                into.stage(l, d, false);
            }
            Ok(())
        })
    });
    routed.into_iter().collect()
}

/// The wire half of a machine frame: the machine's one endpoint and the
/// persistent staging outboxes (every round encodes each slot in place
/// and clears it, so steady-state supersteps allocate nothing — DESIGN.md
/// §9). Engines exchange only by opening a [`FoldRound`] or an
/// [`OrderedRound`] on it; barriers and allreduces are rounds of the same
/// endpoint ([`Port::allreduce`]).
pub struct Port<T> {
    pub ep: Endpoint<T>,
    pub outboxes: OutboxSet<T>,
    /// The staging of the collective rounds, reused like `outboxes`.
    control: OutboxSet<u8>,
    stats: Arc<NetStats>,
}

impl<T: Wire + Send> Port<T> {
    pub fn new(ep: Endpoint<T>, stats: Arc<NetStats>) -> Self {
        let outboxes = OutboxSet::new(ep.num_machines());
        let control = OutboxSet::new(ep.num_machines());
        Port { ep, outboxes, control, stats }
    }

    /// One allreduce, a round of this machine's endpoint
    /// ([`Endpoint::allreduce`]).
    pub fn allreduce<V: Wire>(
        &mut self,
        val: V,
        combine: impl Fn(V, V) -> V,
    ) -> Result<V, CommError> {
        self.ep.allreduce(&mut self.control, val, &self.stats, combine)
    }

    /// One barrier that is no sync of the computation — a checkpoint's:
    /// an empty-payload allreduce round that `global_syncs` does not count
    /// ([`Endpoint::uncounted_barrier`]).
    pub fn uncounted_barrier(&mut self) -> Result<(), CommError> {
        self.ep.uncounted_barrier(&mut self.control, &self.stats)
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

/// How a round meets the machine's clock.
pub enum Stamp<'c> {
    /// A barriered round: its batches carry the clock as it stands, and
    /// the sync after the round books the wait (`BspSync::sync`).
    At(f64),
    /// A barrier-free engine's round (DESIGN.md §17). On the clock: each
    /// non-empty outbox charges `async_send_cpu` before the round ships;
    /// then, one peer at a time in sender order, each non-empty inbound
    /// batch lands at `sent_at + async_wire_time(bytes)` and costs the
    /// receiver `async_dispatch_time()`. An empty round batch moves no
    /// clock. On the vote: `busy`, whether this machine's turn did any
    /// work, goes out in every batch's header ([`Batch::last`]) and comes
    /// back or-ed with every peer's — false means no machine worked and
    /// nothing moved, so the run is over.
    Arrivals {
        clock: &'c mut SimClock,
        cost: CostModel,
        busy: &'c mut bool,
    },
}

impl From<f64> for Stamp<'_> {
    fn from(now: f64) -> Self {
        Stamp::At(now)
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
    /// ones sorted by sender, on the clock as `stamp` says.
    fn exchange(&mut self, stamp: Stamp<'_>) -> Result<Vec<Batch<T>>, CommError> {
        let port = &mut *self.port;
        let (phase, bytes_per_item) = (self.phase, self.bytes_per_item);
        let (clock, cost, busy) = match stamp {
            Stamp::At(now) => {
                return port.ep.exchange(&mut port.outboxes, now, phase, bytes_per_item, &port.stats)
            }
            Stamp::Arrivals { clock, cost, busy } => (clock, cost, busy),
        };
        for dst in 0..port.outboxes.num_machines() {
            if !port.outboxes.staged(dst).is_empty() {
                clock.advance(cost.async_send_cpu);
            }
        }
        let (outboxes, stats) = (&mut port.outboxes, &port.stats);
        let received =
            port.ep.exchange_voting(outboxes, clock.now(), !*busy, phase, bytes_per_item, stats)?;
        for batch in &received {
            *busy |= !batch.last;
            if batch.item_count() > 0 {
                let bytes = (batch.item_count() * bytes_per_item) as u64;
                clock.merge(batch.sent_at + cost.async_wire_time(bytes));
                clock.advance(cost.async_dispatch_time());
            }
        }
        Ok(received)
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
    pub fn close<'c, P: VertexProgram>(
        mut self,
        program: &P,
        state: &mut MachineState<P>,
        stamp: impl Into<Stamp<'c>>,
    ) -> Result<(), CommError>
    where
        F: Fn(u32, u32, X) -> Result<Option<P::Delta>, NetError> + Sync,
    {
        let mut received = self.wire.exchange(stamp.into())?;
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
        state.deliver_inbound(program, self.pctx);
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
    /// and hands each inbound `(gid, x)` to `apply` as `(sender, local id,
    /// x)` through `route`, in (sender, item) order. An item for a vertex
    /// this machine holds no replica of fails the round ([`route_item`]),
    /// and so does an item `apply` refuses.
    pub fn close<'c>(
        mut self,
        stamp: impl Into<Stamp<'c>>,
        route: &[u32],
        mut apply: impl FnMut(usize, u32, X) -> Result<(), NetError>,
    ) -> Result<(), CommError> {
        let received = self.wire.exchange(stamp.into())?;
        let port = self.wire.port;
        for mut batch in received {
            apply_routed(&mut batch, route, &mut apply)
                .map_err(|e| CommError::transport(port.ep.me(), &e))?;
            port.ep.recycle(batch);
        }
        Ok(())
    }
}

/// Hands each `(gid, x)` of `batch` to `apply` as `(sender, local id, x)`
/// through `route`, in item order, decoding a zero-copy payload in place:
/// the walk of an [`OrderedRound`]. An item for a vertex this machine
/// holds no replica of, a malformed one, or one `apply` refuses ends the
/// walk ([`route_item`]).
fn apply_routed<X>(
    batch: &mut Batch<(u32, X)>,
    route: &[u32],
    apply: &mut impl FnMut(usize, u32, X) -> Result<(), NetError>,
) -> Result<(), NetError>
where
    (u32, X): Wire,
{
    let from = batch.from;
    batch.drain_each(|(gid, x)| apply(from, route_item(route, from, gid)?, x))
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

    /// Routes `batches` (gid == local id, `d` scaled by ten) into a fresh
    /// buffer and returns each batch's items in fold order.
    fn routed(
        pctx: &ParallelCtx,
        num_local: usize,
        batches: &mut [Batch<(u32, u64)>],
    ) -> Result<Vec<Vec<(u32, u64)>>, NetError> {
        let route: Vec<u32> = (0..num_local as u32).collect();
        routed_through(pctx, &route, num_local, batches)
    }

    fn routed_through(
        pctx: &ParallelCtx,
        route: &[u32],
        num_local: usize,
        batches: &mut [Batch<(u32, u64)>],
    ) -> Result<Vec<Vec<(u32, u64)>>, NetError> {
        let mut inbound = Delivery::default();
        let translate = |_, _, d: u64| Ok(Some(d * 10));
        route_inbound(pctx, route, num_local, batches, translate, &mut inbound)?;
        Ok(inbound.staged().into_iter().map(<[_]>::to_vec).collect())
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
            // One producer per batch, its items in item order.
            assert_eq!(
                slots,
                vec![
                    vec![(0, 10), (5, 20), (1, 30)],
                    vec![(5, 40), (0, 50)],
                    vec![(7, 60)],
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
        let refused = |result: Result<Vec<Vec<(u32, u64)>>, NetError>, sender: &str, why: &str| {
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

    /// The inbound twin of `retained_staging_is_bounded_by_the_window_not_
    /// the_sweep`: rounds of varying sizes and batch counts leave the
    /// inbound buffer holding the largest round's items, however its
    /// batches were split, and a repeated round reallocates nothing.
    #[test]
    fn retained_inbound_is_bounded_by_the_largest_round() {
        let pctx = ParallelCtx::new(ParallelConfig {
            threads: 2,
            block_size: 4,
        }).expect("spawn pool");
        let mut inbound: Delivery<u64> = Delivery::default();
        let translate = |_, _, d: u64| Ok(Some(d));
        let route: Vec<u32> = (0..64).collect();
        let mut largest = 0;
        for round in 0..40usize {
            // Senders' batch sizes shift from round to round: the sum of
            // each sender's largest batch is well above any one round.
            let mut batches: Vec<_> = (0..3)
                .map(|from| {
                    let len = (round * 37 + from * 101) % 150;
                    let items = (0..len as u32).map(|i| (i % 64, u64::from(i))).collect();
                    if round % 2 == 0 {
                        batch(from, items)
                    } else {
                        raw_batch(from, &items, 5)
                    }
                })
                .collect();
            let items: usize = batches.iter().map(|b| b.item_count()).sum();
            largest = largest.max(items);
            route_inbound(&pctx, &route, 64, &mut batches, translate, &mut inbound).expect("routed");
            assert_eq!(inbound.staged().iter().map(|s| s.len()).sum::<usize>(), items);
            assert!(
                inbound.capacity() <= largest,
                "round {round}: inbound keeps capacity for {} items, largest round had {largest}",
                inbound.capacity()
            );
        }
        let kept = inbound.capacity();
        let mut batches = vec![batch(0, (0..100).map(|i| (i % 64, u64::from(i))).collect())];
        route_inbound(&pctx, &route, 64, &mut batches, translate, &mut inbound).expect("routed");
        assert_eq!(inbound.capacity(), kept, "a round that fits reallocates nothing");
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
                let mut push = |_, l, x| {
                    seen.push((l, x));
                    Ok(())
                };
                apply_routed(&mut b, &route, &mut push).expect("well-formed");
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
        let walked = apply_routed(&mut torn, &route, &mut |_, l, x| {
            seen.push((l, x));
            Ok(())
        });
        assert!(matches!(walked, Err(NetError::Truncated { .. })), "{walked:?}");
        assert_eq!(seen, vec![(7, 1), (6, 2)]);
    }

    /// The same rounds over both transports: every machine's `close` sees
    /// one `(local id, x)` sequence either way.
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
                    r.close(0.0, &route, |_, l, x| {
                        seen.push((l, x));
                        Ok(())
                    })?;
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
        // A count no payload could hold sizes the batch's slice by its
        // bytes, not by the count, and fails typed.
        let mut raw = vec![raw_batch(0, &[(0, 1), (1, 2)], 0)];
        raw[0].raw.as_mut().expect("raw").count = u32::MAX;
        let mut inbound = Delivery::default();
        let route = [0, 1, 2, 3];
        let translate = |_, _, d: u64| Ok(Some(d));
        assert!(route_inbound(&pctx, &route, 4, &mut raw, translate, &mut inbound).is_err());
        assert!(inbound.capacity() <= 24, "a 24 B payload sized {} items", inbound.capacity());
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
                round.close(0.0, &route, |_, _, _| Ok(()))
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
}
