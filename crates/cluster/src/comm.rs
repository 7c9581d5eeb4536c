//! The point-to-point message fabric: one machine's endpoint into a P×P
//! mesh, and the batches it moves.
//!
//! Machines never share graph or vertex state — everything crosses this
//! mesh as encoded batches (`carrier` in process, `io_loop` over TCP),
//! exactly like the RPC layer of a real distributed engine. Batches carry
//! the sender's simulated-clock timestamp so receivers can maintain causal
//! virtual time, and every send is accounted in [`NetStats`].

use std::collections::VecDeque;

use lazygraph_net::{FrameKind, NetError, Wire, WireReader};

use crate::error::CommError;
use crate::stats::{NetStats, Phase};

/// Cap on an endpoint's buffer-pool free list. A burst of sends can park
/// a vector per batch encoded in the pool; without a cap the
/// free list keeps every one of them alive forever, pinning the burst's
/// peak capacity. Vectors beyond the cap are dropped and counted in
/// `NetStats::pool_evictions`.
pub const POOL_FREE_CAP: usize = 32;

/// A still-encoded inbound payload: the Data-frame payload exactly as its
/// carrier delivered it, plus a cursor start. The zero-copy inbound path hands
/// these to the engine, which decodes items straight out of `bytes`
/// while routing them — no intermediate `Vec<T>` is ever built.
#[derive(Debug)]
pub struct RawBatch {
    /// The whole Data-frame payload (header included, so the buffer can
    /// go back to the frame reader's pool unchanged).
    pub bytes: Vec<u8>,
    /// Byte offset where the encoded items begin (just past the header
    /// and the item count).
    pub offset: usize,
    /// Encoded items remaining from `offset` on. Consumers zero this
    /// after the cursor pass so a batch is never decoded twice.
    pub count: u32,
}

/// One batch of typed items from one machine to another.
///
/// Deliberately not `Clone`: a batch owns a (possibly pooled) payload
/// vector, and accidental deep copies are exactly what the zero-allocation
/// exchange path exists to avoid.
#[derive(Debug)]
pub struct Batch<T> {
    /// Sending machine.
    pub from: usize,
    /// Sender's simulated clock at send time.
    pub sent_at: f64,
    /// The exchange round this batch belongs to.
    pub round: u64,
    /// The sender's termination vote: `false` while the sender still had
    /// work when it sent this batch. A barrier-free engine's round carries
    /// its vote here, so the round is also the vote (DESIGN.md §17,
    /// [`Endpoint::exchange_voting`]); every other round sets it. A round is
    /// exactly one batch per (sender, round) either way.
    pub last: bool,
    /// Frame kind this batch travels under: always [`FrameKind::Data`] — a
    /// batch is the only thing a data frame carries.
    pub kind: FrameKind,
    /// Decoded payload: what [`Batch::make_items`] materializes, or what a
    /// batch built by hand carries. Empty on arrival.
    pub items: Vec<T>,
    /// Still-encoded payload: every batch a carrier delivers arrives as
    /// one. Exactly one of `items` / `raw` carries the payload at any
    /// time; [`Batch::drain_each`] walks either.
    pub raw: Option<RawBatch>,
}

impl<T> Batch<T> {
    /// Items this batch carries, whether decoded or still on the wire.
    pub fn item_count(&self) -> usize {
        self.items.len() + self.raw.as_ref().map_or(0, |r| r.count as usize)
    }
}

impl<T: Wire> Batch<T> {
    /// Hands every item to `f` once, in wire order, and leaves the batch
    /// empty: a zero-copy payload decodes item by item straight off its
    /// cursor (no `Vec<T>` is built), then any materialized `items` drain.
    /// The batch keeps its buffers for [`Endpoint::recycle`]. A malformed
    /// item, or an error from `f`, ends the walk and is returned.
    pub fn drain_each(
        &mut self,
        mut f: impl FnMut(T) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        if let Some(raw) = &mut self.raw {
            let mut r = WireReader::new(&raw.bytes[raw.offset..]);
            for _ in 0..raw.count {
                f(T::decode(&mut r)?)?;
            }
            raw.count = 0;
        }
        self.items.drain(..).try_for_each(f)
    }

    /// Materializes a zero-copy payload into `items` — the escape hatch
    /// for consumers that genuinely need a `Vec<T>`: the collectives'
    /// control rounds and tests. Every engine round walks its batches
    /// with [`Batch::drain_each`] instead.
    pub fn make_items(&mut self) -> Result<(), NetError> {
        let Some(raw) = &mut self.raw else {
            return Ok(());
        };
        let mut r = WireReader::new(&raw.bytes[raw.offset..]);
        // Each encoded item is at least one byte, so this reserve is
        // bounded by the frame size even if `count` is corrupt.
        let cap = (raw.count as usize).min(raw.bytes.len() - raw.offset);
        self.items.reserve(cap);
        for _ in 0..raw.count {
            self.items.push(T::decode(&mut r)?);
        }
        // Bytes past the counted items are a malformed payload, or one a
        // walk has drained already: either way not a fresh decode.
        r.finish()?;
        raw.count = 0;
        raw.offset = raw.bytes.len();
        Ok(())
    }
}

/// Per-destination staging buffers for one machine's sends.
///
/// An `OutboxSet` lives as long as the machine loop and is handed to
/// [`Endpoint::exchange`] by mutable reference: the exchange moves each
/// destination's vector onto the wire and replaces it with a recycled one
/// from the buffer pool, so staged capacity flows around the mesh instead
/// of being reallocated every round.
#[derive(Debug)]
pub struct OutboxSet<T> {
    boxes: Vec<Vec<T>>,
}

impl<T> OutboxSet<T> {
    /// One empty outbox per machine.
    pub fn new(num_machines: usize) -> Self {
        OutboxSet {
            boxes: (0..num_machines).map(|_| Vec::new()).collect(),
        }
    }

    /// Wraps pre-filled per-destination vectors (tests, benches).
    pub fn from_boxes(boxes: Vec<Vec<T>>) -> Self {
        OutboxSet { boxes }
    }

    /// Number of destinations (== cluster size).
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.boxes.len()
    }

    /// Stages one item for `dst`.
    #[inline]
    pub fn push(&mut self, dst: usize, item: T) {
        self.boxes[dst].push(item);
    }

    /// The most recently staged item for `dst`, if any — the hook the
    /// sender-side combining fast path uses to fold a new contribution
    /// into the item already at the tail of the outbox.
    #[inline]
    pub fn last_mut(&mut self, dst: usize) -> Option<&mut T> {
        self.boxes[dst].last_mut()
    }

    /// Direct access to one destination's staging vector.
    #[inline]
    pub fn slot(&mut self, dst: usize) -> &mut Vec<T> {
        &mut self.boxes[dst]
    }

    /// Staged items for `dst`.
    #[inline]
    pub fn staged(&self, dst: usize) -> &[T] {
        &self.boxes[dst]
    }

    /// Total staged items across destinations.
    pub fn total_staged(&self) -> usize {
        self.boxes.iter().map(Vec::len).sum()
    }

    /// Sum of allocated capacities — visibility for pool behaviour tests.
    pub fn total_capacity(&self) -> usize {
        self.boxes.iter().map(Vec::capacity).sum()
    }

    /// Clears every outbox, keeping capacity.
    pub fn clear(&mut self) {
        for b in &mut self.boxes {
            b.clear();
        }
    }
}

/// What an [`Endpoint`] asks of the carrier under it: the in-memory one
/// (`carrier`) or a TCP endpoint's links (`io_loop`). Object-safe and free
/// of the codec bound, so the endpoint's own methods need no more of `T`
/// than `Send`.
pub(crate) trait SocketMesh<T>: Send {
    /// Encodes `items` as `dst`'s batch of `round`, starts it on its way
    /// and hands the vector back for the pool; a destination without a
    /// live link is [`CommError::PeerDisconnected`].
    fn send(&self, dst: usize, items: Vec<T>, sim_now: f64, round: u64, last: bool)
        -> Result<Vec<T>, CommError>;
    /// The next inbound batch, still encoded, waiting for one; fails once
    /// every peer `needed` accepts has left, or the mesh has failed.
    fn next(&self, needed: &dyn Fn(usize) -> bool) -> Result<Batch<T>, CommError>;
    /// Waits until everything sent so far has left this machine.
    fn flush(&self) -> Result<(), CommError>;
    /// Takes back a consumed payload buffer that came from machine `from`.
    fn recycle_raw(&self, from: usize, bytes: Vec<u8>);
    /// Leaves without the clean handshake, as a killed process would.
    #[cfg(test)]
    fn crash(&self);
    /// How the link to `peer` stands.
    #[cfg(test)]
    fn status(&self, peer: usize) -> Option<crate::recovery::LinkStatus>;
}

/// One machine's endpoint into the mesh, and the machine's side of the
/// buffer pool.
pub struct Endpoint<T> {
    me: usize,
    n: usize,
    mesh: Box<dyn SocketMesh<T>>,
    /// Emptied staging vectors, ready to reuse; at most [`POOL_FREE_CAP`].
    free: Vec<Vec<T>>,
    /// Next BSP exchange round issued by this endpoint.
    next_round: u64,
    /// Batches received ahead of the round currently being collected
    /// (two-hop exchanges can race ahead on fast peers).
    pending: VecDeque<Batch<T>>,
}

impl<T> Endpoint<T> {
    /// Machine `me`'s endpoint of an `n`-machine mesh, over `mesh`.
    pub(crate) fn new(me: usize, n: usize, mesh: Box<dyn SocketMesh<T>>) -> Self {
        Endpoint {
            me,
            n,
            mesh,
            free: Vec::new(),
            next_round: 0,
            pending: VecDeque::new(),
        }
    }

    /// The round the next `exchange` will be tagged with.
    #[inline]
    pub fn next_round(&self) -> u64 {
        self.next_round
    }
}

impl<T: Send> Endpoint<T> {
    /// This machine's id.
    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// Cluster size.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.n
    }

    /// Takes a staging vector from the buffer pool. A hit reuses capacity
    /// an earlier encode emptied; a miss allocates a fresh (empty) vector.
    pub fn take_buffer(&mut self, stats: &NetStats) -> Vec<T> {
        let v = self.free.pop();
        stats.record_pool(v.is_some());
        v.unwrap_or_default()
    }

    /// Hands a consumed batch's payload buffer back to the carrier it came
    /// through, so steady-state inbound decode allocates nothing per
    /// batch. (Items `make_items` decoded are dropped: the pool keeps what
    /// this machine stages.)
    pub fn recycle(&mut self, batch: Batch<T>) {
        if let Some(raw) = batch.raw {
            self.mesh.recycle_raw(batch.from, raw.bytes);
        }
    }

    /// Ships `items` to `dst` as its batch of `round` (with `last`, the
    /// sender's vote), charging `bytes_per_item · len` payload bytes to
    /// `phase`. The encode empties `items` into the pool; what the cap
    /// turns away is counted in `NetStats::pool_evictions`.
    #[expect(
        clippy::too_many_arguments,
        reason = "a batch's header fields, its destination and its accounting"
    )]
    pub(crate) fn send_tagged(
        &mut self,
        dst: usize,
        items: Vec<T>,
        sim_now: f64,
        round: u64,
        last: bool,
        phase: Phase,
        bytes_per_item: usize,
        stats: &NetStats,
    ) -> Result<(), CommError> {
        if !items.is_empty() {
            stats.record_batch(phase, items.len() as u64, (items.len() * bytes_per_item) as u64);
        }
        let mut emptied = self.mesh.send(dst, items, sim_now, round, last)?;
        emptied.clear();
        if emptied.capacity() != 0 {
            if self.free.len() < POOL_FREE_CAP {
                self.free.push(emptied);
            } else {
                stats.record_pool_evictions(1);
            }
        }
        Ok(())
    }

    /// BSP exchange round: sends `outboxes[dst]` to every other machine
    /// (empty vecs included, so the round is self-delimiting) and receives
    /// exactly one batch from every peer. Returns the received batches.
    ///
    /// Rounds are tagged: every machine must issue the same sequence of
    /// `exchange` calls (BSP lockstep), and batches from a later round that
    /// arrive early are buffered, which makes back-to-back exchanges (the
    /// two hops of mirrors-to-master coherency) safe. The round returns
    /// only once its own batches have left this machine too, so no peer
    /// ever waits on a machine that has moved on to local work.
    pub fn exchange(
        &mut self,
        outboxes: &mut OutboxSet<T>,
        sim_now: f64,
        phase: Phase,
        bytes_per_item: usize,
        stats: &NetStats,
    ) -> Result<Vec<Batch<T>>, CommError> {
        self.exchange_voting(outboxes, sim_now, true, phase, bytes_per_item, stats)
    }

    /// [`Self::exchange`] whose batches carry `last`, this machine's vote,
    /// in their header ([`Batch::last`]).
    pub fn exchange_voting(
        &mut self,
        outboxes: &mut OutboxSet<T>,
        sim_now: f64,
        last: bool,
        phase: Phase,
        bytes_per_item: usize,
        stats: &NetStats,
    ) -> Result<Vec<Batch<T>>, CommError> {
        assert_eq!(outboxes.num_machines(), self.n, "need one outbox per machine");
        let me = self.me;
        let round = self.next_round;
        self.next_round += 1;
        let mut sends = 0;
        for dst in 0..self.n {
            if dst == me {
                continue;
            }
            if phase != Phase::Control {
                sends += 1;
                crate::recovery::failpoint_send(round, sends, || {
                    let _ = self.mesh.flush();
                });
            }
            // The staged vector is encoded; the slot is refilled from the
            // pool so next round's staging reuses the capacity.
            let replacement = self.take_buffer(stats);
            let items = std::mem::replace(outboxes.slot(dst), replacement);
            self.send_tagged(dst, items, sim_now, round, last, phase, bytes_per_item, stats)
                .map_err(|e| match e {
                    // A peer that has left can no longer complete the round.
                    CommError::PeerDisconnected { .. } => CommError::MeshClosed { me },
                    e => e,
                })?;
        }
        let mut received: Vec<Batch<T>> = Vec::with_capacity(self.n - 1);
        // Single rotation pass over the ahead-of-round buffer: matching
        // batches move to `received`, the rest keep their FIFO order.
        for _ in 0..self.pending.len() {
            match self.pending.pop_front() {
                Some(b) if b.round == round => received.push(b),
                Some(b) => self.pending.push_back(b),
                None => break,
            }
        }
        while received.len() < self.n - 1 {
            let needed = |p: usize| p != me && received.iter().all(|b| b.from != p);
            let b = self.mesh.next(&needed)?;
            if b.round == round {
                received.push(b);
            } else {
                self.pending.push_back(b);
            }
        }
        self.mesh.flush()?;
        // Arrival order depends on peer scheduling; sender order does not.
        // Engines fold received deltas in batch order, so this sort is what
        // makes cross-machine float accumulation run-to-run deterministic.
        received.sort_unstable_by_key(|b| b.from);
        Ok(received)
    }
}

/// Builds an in-process mesh of `n` machines and hands out their
/// endpoints, in machine order.
pub fn build_mesh<T: Wire + Send + 'static>(n: usize) -> Vec<Endpoint<T>> {
    assert!(n > 0);
    crate::carrier::mem_mesh(n)
        .into_iter()
        .enumerate()
        .map(|(me, links)| Endpoint::new(me, n, Box::new(links)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Test-only reaches into an endpoint's carrier.
    impl<T: Send> Endpoint<T> {
        /// The next batch the carrier delivers, outside any round.
        pub(crate) fn next_batch(&self, needed: &dyn Fn(usize) -> bool) -> Result<Batch<T>, CommError> {
            self.mesh.next(needed)
        }

        /// Simulates a machine's death: peers see it leave torn (over TCP,
        /// a bare EOF), then the endpoint is dropped.
        pub(crate) fn crash_for_test(self) {
            self.mesh.crash();
        }

        /// How the link to `peer` stands.
        pub(crate) fn link_status(&self, peer: usize) -> Option<crate::recovery::LinkStatus> {
            self.mesh.status(peer)
        }
    }

    /// The items of an inbound batch, which arrives still encoded.
    fn items<T: Wire>(mut b: Batch<T>) -> Vec<T> {
        assert!(b.raw.is_some(), "an inbound batch arrives still encoded");
        b.make_items().unwrap();
        b.items
    }

    /// One round between two endpoints, machine 1's batch sent ahead:
    /// what machine 0's `exchange` hands back.
    fn round_from_1(items: Vec<u32>, sent_at: f64, phase: Phase, stats: &NetStats) -> Batch<u32> {
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        ep1.send_tagged(0, items, sent_at, 0, true, phase, 4, stats).unwrap();
        let mut got = ep0.exchange(&mut OutboxSet::new(2), 0.0, phase, 4, stats).unwrap();
        assert_eq!(got.len(), 1);
        got.pop().unwrap()
    }

    #[test]
    fn point_to_point() {
        let stats = NetStats::new();
        let got = round_from_1(vec![7, 8, 9], 1.5, Phase::Async, &stats);
        assert_eq!(got.from, 1);
        assert_eq!(got.sent_at, 1.5);
        assert_eq!(items(got), vec![7, 8, 9]);
        let snap = stats.snapshot();
        assert_eq!(snap.phase(Phase::Async).est_bytes, 12);
        assert_eq!(snap.phase(Phase::Async).items, 3);
        assert_eq!(snap.wire_frames_sent, 0, "wire counters are the sockets'");
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let stats = NetStats::new();
        let got = round_from_1(vec![], 0.0, Phase::Coherency, &stats);
        assert!(items(got).is_empty());
        assert_eq!(stats.snapshot().total_est_bytes(), 0);
        assert_eq!(stats.snapshot().total_batches(), 0);
    }

    #[test]
    fn bsp_exchange_all_pairs() {
        let n = 4;
        let eps = build_mesh::<u64>(n);
        let stats = Arc::new(NetStats::new());
        let sums: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .map(|mut ep| {
                    let stats = stats.clone();
                    s.spawn(move || {
                        // Machine m sends its id*10+dst to each dst.
                        let outboxes: Vec<Vec<u64>> = (0..n)
                            .map(|dst| {
                                if dst == ep.me() {
                                    vec![]
                                } else {
                                    vec![(ep.me() * 10 + dst) as u64]
                                }
                            })
                            .collect();
                        let mut outboxes = OutboxSet::from_boxes(outboxes);
                        let received = ep
                            .exchange(&mut outboxes, 0.0, Phase::Coherency, 8, &stats)
                            .unwrap();
                        assert_eq!(received.len(), n - 1);
                        received.into_iter().flat_map(items).sum::<u64>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Machine d receives {s*10 + d : s != d}.
        for (d, sum) in sums.iter().enumerate() {
            let expected: u64 = (0..n).filter(|&s| s != d).map(|s| (s * 10 + d) as u64).sum();
            assert_eq!(*sum, expected, "machine {d}");
        }
        // 4 machines × 3 non-empty batches each.
        assert_eq!(stats.snapshot().total_batches(), 12);
    }

    #[test]
    fn exchange_sorts_batches_by_sender() {
        let mut eps = build_mesh::<u32>(3);
        let mut ep2 = eps.pop().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        // Higher-id machine lands in the queue first; the exchange result
        // must come back in sender order anyway.
        ep2.send_tagged(0, vec![22], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![11], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let got = ep0
            .exchange(&mut OutboxSet::new(3), 0.0, Phase::Coherency, 4, &stats)
            .unwrap();
        let got: Vec<_> = got.into_iter().map(|b| (b.from, items(b))).collect();
        assert_eq!(got, vec![(1, vec![11]), (2, vec![22])]);
    }

    #[test]
    fn early_rounds_are_buffered_until_their_exchange() {
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        // Peer races ahead: its round-1 batch arrives before round 0.
        ep1.send_tagged(0, vec![201], 0.0, 1, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![100], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let mut ob = OutboxSet::new(2);
        let mut r0 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(r0.remove(0)), vec![100]);
        // The early batch sat in `pending` and satisfies round 1 without
        // touching the carrier again.
        let mut r1 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(r1.remove(0)), vec![201]);
    }

    #[test]
    fn racing_rounds_collect_in_one_pass_and_keep_fifo_order() {
        // A peer races three rounds ahead; each exchange must pull exactly
        // its round out of `pending` while the remaining stragglers keep
        // their arrival order.
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        ep1.send_tagged(0, vec![22], 0.0, 2, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![11], 0.0, 1, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![0], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let mut ob = OutboxSet::new(2);
        let mut r0 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(r0.remove(0)), vec![0]);
        // Rounds 2 and 1 now sit in `pending`, in arrival order.
        let waiting: Vec<u64> = ep0.pending.iter().map(|b| b.round).collect();
        assert_eq!(waiting, vec![2, 1]);
        let mut r1 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(r1.remove(0)), vec![11]);
        let mut r2 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(r2.remove(0)), vec![22]);
        assert!(ep0.pending.is_empty());
    }

    /// A staged vector's capacity stays with the machine that staged it:
    /// the encode empties it into the pool, and the next round's slot is
    /// refilled from there. Only the payload buffer crosses to the peer.
    #[test]
    fn buffer_pool_returns_staged_capacity_at_encode() {
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        let mut ob = OutboxSet::new(2);
        ob.slot(1).reserve(64);

        // Round 0: ep0's big staged vector is encoded for ep1…
        ep1.send_tagged(0, vec![9], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        ob.push(1, 5);
        let mut got = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(got.remove(0)), vec![9]);
        let travelled = ep1.next_batch(&|_| true).unwrap();
        assert_eq!(travelled.items.capacity(), 0, "no staging vector crosses machines");
        ep1.recycle(travelled);

        // …and round 1's slot gets its 64-slot capacity back from ep0's own
        // pool, without any new allocation.
        ep1.send_tagged(0, vec![10], 0.0, 1, true, Phase::Coherency, 4, &stats).unwrap();
        let _ = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert!(ob.total_capacity() >= 64, "recycled capacity must carry forward");
        let snap = stats.snapshot();
        assert_eq!(snap.pool_hits, 1, "round 1 must reuse the encoded vector");
        assert_eq!(snap.pool_misses, 1, "only round 0 may allocate");
    }

    #[test]
    fn a_recycled_payload_buffer_carries_the_next_encode() {
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        ep1.send_tagged(0, vec![1, 2, 3], 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
        let mut got = ep0.next_batch(&|_| true).unwrap();
        let buffer = got.raw.as_ref().unwrap().bytes.as_ptr();
        got.make_items().unwrap();
        ep0.recycle(got);
        assert!(ep0.free.is_empty(), "decoded items are not staging capacity");
        ep0.send_tagged(1, vec![4], 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
        let back = ep1.next_batch(&|_| true).unwrap();
        assert_eq!(back.raw.as_ref().unwrap().bytes.as_ptr(), buffer);
        assert_eq!(items(back), vec![4]);
    }

    #[test]
    fn free_list_cap_evicts_and_counts() {
        let mut eps = build_mesh::<u32>(2);
        let _ep1 = eps.pop().unwrap();
        let mut ep = eps.pop().unwrap();
        let stats = NetStats::new();
        // Encode far more vectors than the cap allows; the overflow must be
        // dropped, not hoarded. Capacity-less vectors are not pooled at all.
        for _ in 0..(POOL_FREE_CAP + 10) {
            ep.send_tagged(1, vec![1], 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
            ep.send_tagged(1, Vec::new(), 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
        }
        assert_eq!(ep.free.len(), POOL_FREE_CAP);
        assert_eq!(stats.snapshot().pool_evictions, 10);
    }

    #[test]
    fn outbox_set_staging_helpers() {
        let mut ob = OutboxSet::new(3);
        assert_eq!(ob.num_machines(), 3);
        ob.push(1, 10u32);
        ob.push(1, 20);
        ob.push(2, 30);
        assert_eq!(ob.total_staged(), 3);
        assert_eq!(ob.staged(1), &[10, 20]);
        *ob.last_mut(1).unwrap() += 5;
        assert_eq!(ob.staged(1), &[10, 25]);
        assert!(ob.last_mut(0).is_none());
        ob.clear();
        assert_eq!(ob.total_staged(), 0);
    }

    /// A raw batch of `values`, behind `header` bytes of fake frame header,
    /// claiming `count` items.
    fn raw_u32(header: usize, values: &[u32], count: u32) -> Batch<u32> {
        let mut bytes = vec![0xEE; header];
        for v in values {
            v.encode(&mut bytes);
        }
        let raw = Some(RawBatch { bytes, offset: header, count });
        Batch { from: 0, sent_at: 0.0, round: 0, last: true, kind: FrameKind::Data, items: Vec::new(), raw }
    }

    #[test]
    fn raw_batches_materialize_once_and_count_items() {
        // Three encoded items starting at `offset`, as a carrier hands them
        // off.
        let mut b = raw_u32(7, &[5, 6, 7], 3);
        assert_eq!(b.item_count(), 3);
        b.make_items().unwrap();
        assert_eq!(b.items, vec![5, 6, 7]);
        assert_eq!(b.item_count(), 3, "materialized items replace the raw count");
        // A re-call finds nothing left to decode.
        b.make_items().unwrap();
        assert_eq!(b.items, vec![5, 6, 7]);
    }

    /// Bytes past the counted items fail the decode typed, whether a peer
    /// sent them (a count short of its payload) or a walk left them (a
    /// payload `drain_each` has already handed out).
    #[test]
    fn materializing_an_overlong_or_drained_payload_is_a_typed_error() {
        let mut short = raw_u32(0, &[5, 6], 1);
        assert_eq!(short.make_items(), Err(NetError::TrailingBytes { extra: 4 }));
        let mut drained = raw_u32(0, &[5, 6], 2);
        drained.drain_each(|_| Ok(())).unwrap();
        assert_eq!(drained.make_items(), Err(NetError::TrailingBytes { extra: 8 }));
        assert!(drained.items.is_empty());
    }

    #[test]
    fn corrupt_raw_count_is_a_typed_error_not_a_panic() {
        assert!(raw_u32(0, &[5], 9).make_items().is_err());
    }

    #[test]
    fn multiple_rounds_fifo() {
        let eps = build_mesh::<u32>(2);
        let stats = Arc::new(NetStats::new());
        std::thread::scope(|s| {
            for mut ep in eps {
                let stats = stats.clone();
                s.spawn(move || {
                    let mut ob = OutboxSet::new(2);
                    for round in 0..100u32 {
                        ob.push(1 - ep.me(), round);
                        let mut got = ep.exchange(&mut ob, 0.0, Phase::Async, 4, &stats).unwrap();
                        let mut b = got.remove(0);
                        b.make_items().unwrap();
                        assert_eq!(b.items, vec![round], "round mixing detected");
                        ep.recycle(b);
                    }
                });
            }
        });
    }

    /// A peer that leaves in the middle of a round, after machine 0 has
    /// sent its half, ends machine 0's round in `MeshClosed` instead of
    /// leaving it waiting for a batch that cannot come.
    #[test]
    fn a_peer_leaving_mid_round_closes_the_round() {
        let mut eps = build_mesh::<u32>(2);
        let ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        let round = std::thread::scope(|s| {
            let waiting = s.spawn(|| ep0.exchange(&mut OutboxSet::new(2), 0.0, Phase::Async, 4, &stats));
            // Machine 0's half of the round has arrived: it has sent.
            let half = ep1.next_batch(&|p| p == 0).unwrap();
            assert_eq!(half.round, 0);
            drop(ep1);
            waiting.join().unwrap()
        });
        assert_eq!(round.unwrap_err(), CommError::MeshClosed { me: 0 });
    }

    /// A peer whose thread panics tears its links: the waiting round fails
    /// typed, naming it, and so does every later call.
    #[test]
    fn a_panicking_peer_fails_the_mesh_typed() {
        let mut eps = build_mesh::<u32>(3);
        let ep2 = eps.pop().unwrap();
        let _ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        std::thread::scope(|s| {
            let dies = s.spawn(move || {
                let _held = ep2;
                panic!("machine 2 fails");
            });
            assert!(dies.join().is_err());
        });
        let err = ep0.exchange(&mut OutboxSet::new(3), 0.0, Phase::Async, 4, &stats).unwrap_err();
        assert!(
            matches!(&err, CommError::Transport { me: 0, detail } if detail.contains("machine 2")),
            "{err:?}"
        );
        assert_eq!(ep0.send_tagged(1, vec![1], 0.0, 1, true, Phase::Async, 4, &stats), Err(err));
    }

    /// A send to this machine itself has no link to go over: a typed error,
    /// as over sockets, not a batch in its own inbox.
    #[test]
    fn a_self_send_is_a_typed_error() {
        let mut eps = build_mesh::<u32>(2);
        let stats = NetStats::new();
        let err = eps[1].send_tagged(1, vec![1], 0.0, 0, true, Phase::Async, 4, &stats);
        assert_eq!(err, Err(CommError::PeerDisconnected { from: 1, to: 1 }));
    }
}
