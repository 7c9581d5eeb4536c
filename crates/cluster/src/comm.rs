//! The point-to-point message fabric: one machine's endpoint into a P×P
//! mesh, and the batches it moves.
//!
//! Machines never share graph or vertex state — everything crosses this
//! mesh as encoded batches (`carrier` in process, `io_loop` over TCP),
//! exactly like the RPC layer of a real distributed engine. Batches carry
//! the sender's simulated-clock timestamp so receivers can maintain causal
//! virtual time, and every send is accounted in [`NetStats`]. A machine
//! holds one endpoint: its engine's data rounds and its barriers and
//! allreduces (`collective`) are rounds of one sequence on it.

use std::collections::VecDeque;

use lazygraph_net::{FrameKind, NetError, Wire, WireReader};

use crate::error::CommError;
use crate::stats::{NetStats, Phase};
use crate::transport::{decode_batch_raw, encode_data};

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

    /// The same still-encoded batch, its items read as `U`: an arrival's
    /// header does not depend on its item type. Decoded `items` (an
    /// arrival has none) are dropped.
    fn retype<U>(self) -> Batch<U> {
        let Batch { from, sent_at, round, last, kind, raw, .. } = self;
        Batch { from, sent_at, round, last, kind, items: Vec::new(), raw }
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
    /// for consumers that genuinely need a `Vec<T>`: the collective
    /// rounds and tests. Every engine round walks its batches
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
/// [`Endpoint::exchange`] by mutable reference: the exchange encodes each
/// destination's vector where it lies and clears it, so a slot keeps its
/// capacity from round to round instead of reallocating it.
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

    /// Clears every outbox, keeping capacity.
    pub fn clear(&mut self) {
        for b in &mut self.boxes {
            b.clear();
        }
    }
}

/// What an [`Endpoint`] asks of the carrier under it: the in-memory one
/// (`carrier`) or a TCP endpoint's links (`io_loop`). A carrier moves
/// Data-frame payloads and knows no codec: the endpoint encodes every
/// batch and parses every header.
pub(crate) trait SocketMesh: Send {
    /// Has `encode` append one payload to a buffer of the carrier's and
    /// starts it towards `dst`; a destination without a live link is
    /// [`CommError::PeerDisconnected`], an encode error a transport error.
    fn send(&self, dst: usize, encode: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), NetError>)
        -> Result<(), CommError>;
    /// The next inbound payload and the peer whose link carried it,
    /// waiting for one; fails once every peer `needed` accepts has left,
    /// or the mesh has failed.
    fn next(&self, needed: &dyn Fn(usize) -> bool) -> Result<(usize, Vec<u8>), CommError>;
    /// Waits until everything sent so far has left this machine.
    fn flush(&self) -> Result<(), CommError>;
    /// Takes back a consumed payload buffer that came from machine `from`.
    fn recycle(&self, from: usize, bytes: Vec<u8>);
    /// Fails the mesh with `err` unless it has failed already; returns the
    /// failure every later call reports.
    fn fail(&self, err: CommError) -> CommError;
    /// Leaves without the clean handshake, as a killed process would.
    #[cfg(test)]
    fn crash(&self);
    /// How the link to `peer` stands.
    #[cfg(test)]
    fn status(&self, peer: usize) -> Option<crate::recovery::LinkStatus>;
}

/// One machine's endpoint into the mesh: the one place a batch is encoded
/// and its header parsed.
pub struct Endpoint<T> {
    me: usize,
    n: usize,
    mesh: Box<dyn SocketMesh>,
    /// Next round issued by this endpoint. Data rounds and collective
    /// rounds share this one numbering.
    next_round: u64,
    /// Batches received ahead of the round currently being collected
    /// (two-hop exchanges can race ahead on fast peers), items still
    /// encoded: a batch is read as its round's item type — `T`, or a
    /// collective round's bytes — only when that round collects it.
    pending: VecDeque<Batch<T>>,
}

impl<T> Endpoint<T> {
    /// Machine `me`'s endpoint of an `n`-machine mesh, over `mesh`.
    pub(crate) fn new(me: usize, n: usize, mesh: Box<dyn SocketMesh>) -> Self {
        Endpoint {
            me,
            n,
            mesh,
            next_round: 0,
            pending: VecDeque::new(),
        }
    }

    /// The round the next `exchange` will be tagged with.
    #[cfg(test)]
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Hands a consumed batch's payload buffer back to the carrier it came
    /// through, so steady-state inbound decode allocates nothing per
    /// batch. (Items `make_items` decoded are dropped.)
    pub fn recycle<U>(&mut self, batch: Batch<U>) {
        if let Some(raw) = batch.raw {
            self.mesh.recycle(batch.from, raw.bytes);
        }
    }
}

impl<T: Wire + Send> Endpoint<T> {
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

    /// Ships `items` to `dst` as its batch of `round` (with `last`, the
    /// sender's vote), charging `bytes_per_item · len` payload bytes to
    /// `phase`. The items are encoded straight into the carrier's buffer.
    #[expect(
        clippy::too_many_arguments,
        reason = "a batch's header fields, its destination and its accounting"
    )]
    fn send_batch<U: Wire>(
        &mut self,
        dst: usize,
        items: &[U],
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
        let me = self.me;
        self.mesh.send(dst, &mut |out| encode_data(out, me, round, sim_now, last, items))
    }

    /// The next batch the carrier delivers, its header parsed and its
    /// items still encoded. A payload whose header does not parse, or
    /// names another sender than the peer whose link carried it, fails
    /// the mesh for good.
    pub(crate) fn next_batch(&self, needed: &dyn Fn(usize) -> bool) -> Result<Batch<T>, CommError> {
        let (peer, payload) = self.mesh.next(needed)?;
        let me = self.me;
        let err = match decode_batch_raw::<T>(payload) {
            Ok(batch) if batch.from == peer => return Ok(batch),
            Ok(batch) => CommError::Transport {
                me,
                detail: format!("the link to machine {peer} carried a batch from {}", batch.from),
            },
            Err(e) => CommError::transport(me, &e),
        };
        Err(self.mesh.fail(err))
    }

    /// BSP exchange round: sends `outboxes[dst]` to every other machine
    /// (empty vecs included, so the round is self-delimiting) and receives
    /// exactly one batch from every peer. Returns the received batches.
    ///
    /// Rounds are tagged: every machine must issue the same sequence of
    /// rounds (BSP lockstep), and batches from a later round that arrive
    /// early are buffered, which makes back-to-back exchanges (the two
    /// hops of mirrors-to-master coherency) safe. The round returns only
    /// once its own batches have left this machine too, so no peer ever
    /// waits on a machine that has moved on to local work.
    pub fn exchange(
        &mut self,
        outboxes: &mut OutboxSet<T>,
        sim_now: f64,
        phase: Phase,
        bytes_per_item: usize,
        stats: &NetStats,
    ) -> Result<Vec<Batch<T>>, CommError> {
        self.round(outboxes, sim_now, true, phase, bytes_per_item, stats)
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
        self.round(outboxes, sim_now, last, phase, bytes_per_item, stats)
    }

    /// The next round of this endpoint's one numbering, over items of
    /// `U`: the engine's `T` for an exchange, bytes for a collective
    /// round (`Endpoint::allreduce`).
    pub(crate) fn round<U: Wire>(
        &mut self,
        outboxes: &mut OutboxSet<U>,
        sim_now: f64,
        last: bool,
        phase: Phase,
        bytes_per_item: usize,
        stats: &NetStats,
    ) -> Result<Vec<Batch<U>>, CommError> {
        assert_eq!(outboxes.num_machines(), self.n, "need one outbox per machine");
        let me = self.me;
        let round = self.next_round;
        self.next_round += 1;
        for (i, dst) in (0..self.n).filter(|&dst| dst != me).enumerate() {
            crate::recovery::failpoint_send(round, i as u64 + 1, || {
                let _ = self.mesh.flush();
            });
            // Encoded where it lies, then emptied: the slot keeps its
            // capacity for the next round's staging.
            let staged = outboxes.slot(dst);
            let sent = self.send_batch(dst, staged, sim_now, round, last, phase, bytes_per_item, stats);
            staged.clear();
            sent.map_err(|e| match e {
                // A peer that has left can no longer complete the round.
                CommError::PeerDisconnected { .. } => CommError::MeshClosed { me },
                e => e,
            })?;
        }
        let mut received: Vec<Batch<U>> = Vec::with_capacity(self.n - 1);
        // Single rotation pass over the ahead-of-round buffer: matching
        // batches move to `received`, the rest keep their FIFO order.
        for _ in 0..self.pending.len() {
            match self.pending.pop_front() {
                Some(b) if b.round == round => received.push(b.retype()),
                Some(b) => self.pending.push_back(b),
                None => break,
            }
        }
        while received.len() < self.n - 1 {
            let needed = |p: usize| p != me && received.iter().all(|b| b.from != p);
            let b = self.next_batch(&needed)?;
            if b.round == round {
                received.push(b.retype());
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
pub fn build_mesh<T>(n: usize) -> Vec<Endpoint<T>> {
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
    impl<T> Endpoint<T> {
        /// Hands `payload` to the carrier as it is, for `dst`: bytes no
        /// encode wrote.
        pub(crate) fn send_payload(&self, dst: usize, payload: &[u8]) -> Result<(), CommError> {
            self.mesh.send(dst, &mut |out| {
                out.extend_from_slice(payload);
                Ok(())
            })
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

        /// Ships `items` to `dst` as its batch of `round`, outside any
        /// round of this endpoint: what a peer racing ahead would send.
        #[expect(
            clippy::too_many_arguments,
            reason = "a batch's header fields, its destination and its accounting"
        )]
        pub(crate) fn send_tagged(
            &mut self,
            dst: usize,
            items: impl AsRef<[T]>,
            sim_now: f64,
            round: u64,
            last: bool,
            phase: Phase,
            bytes_per_item: usize,
            stats: &NetStats,
        ) -> Result<(), CommError>
        where
            T: Wire + Send,
        {
            self.send_batch(dst, items.as_ref(), sim_now, round, last, phase, bytes_per_item, stats)
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
                        let mut outboxes = OutboxSet::new(n);
                        for dst in (0..n).filter(|&dst| dst != ep.me()) {
                            outboxes.slot(dst).push((ep.me() * 10 + dst) as u64);
                        }
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

    /// A collective round's batch that arrives ahead of a data round waits
    /// in the one ahead-of-round buffer, and its own round reads it as
    /// bytes.
    #[test]
    fn an_early_collective_batch_waits_for_its_round() {
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        ep1.send_batch::<u8>(0, &[7, 8, 9], 0.0, 1, true, Phase::Control, 0, &stats).unwrap();
        ep1.send_tagged(0, vec![100], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let mut r0 = ep0.exchange(&mut OutboxSet::new(2), 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(items(r0.remove(0)), vec![100]);
        assert_eq!(ep0.pending.iter().map(|b| b.round).collect::<Vec<_>>(), vec![1]);
        let mut control = OutboxSet::<u8>::new(2);
        let mut r1 = ep0.round(&mut control, 0.0, true, Phase::Control, 0, &stats).unwrap();
        assert_eq!(items(r1.remove(0)), vec![7, 8, 9]);
        assert_eq!(ep0.next_round(), 2);
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
        ep0.send_tagged(1, vec![4], 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
        let back = ep1.next_batch(&|_| true).unwrap();
        assert_eq!(back.raw.as_ref().unwrap().bytes.as_ptr(), buffer);
        assert_eq!(items(back), vec![4]);
    }

    #[test]
    fn outbox_set_staging_helpers() {
        let mut ob = OutboxSet::new(3);
        assert_eq!(ob.num_machines(), 3);
        ob.push(1, 10u32);
        ob.push(1, 20);
        ob.push(2, 30);
        assert_eq!((ob.staged(0), ob.staged(1), ob.staged(2)), (&[][..], &[10, 20][..], &[30][..]));
        *ob.last_mut(1).unwrap() += 5;
        assert_eq!(ob.staged(1), &[10, 25]);
        assert!(ob.last_mut(0).is_none());
        ob.clear();
        assert!((0..3).all(|dst| ob.staged(dst).is_empty()));
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
