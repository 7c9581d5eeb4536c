//! The typed point-to-point message fabric: a P×P channel mesh.
//!
//! Machines never share graph or vertex state — everything crosses this
//! mesh, exactly like the RPC layer of a real distributed engine. Batches
//! carry the sender's simulated-clock timestamp so receivers can maintain
//! causal virtual time, and every send is accounted in [`NetStats`].

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};

use lazygraph_net::{FrameKind, NetError, Wire, WireReader};

use crate::error::CommError;
use crate::io_loop::SocketMesh;
use crate::stats::{NetStats, Phase};

/// Cap on an endpoint's buffer-pool free list. A burst round can park a
/// vector per (peer × in-flight round) in the pool; without a cap the
/// free list keeps every one of them alive forever, pinning the burst's
/// peak capacity. Vectors beyond the cap are dropped and counted in
/// `NetStats::pool_evictions`.
pub const POOL_FREE_CAP: usize = 32;

/// A still-encoded inbound payload: the frame bytes exactly as they left
/// the socket, plus a cursor start. The zero-copy inbound path hands
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
    /// Frame kind this batch travels under on the TCP transport: always
    /// [`FrameKind::Data`] — a batch is the only thing a data frame
    /// carries. In-proc batches carry the kind too, purely for symmetry.
    pub kind: FrameKind,
    /// Payload. Empty when the batch arrived on the zero-copy wire path
    /// (`raw` is `Some`); [`Batch::drain_each`] walks either.
    pub items: Vec<T>,
    /// Still-encoded payload from the zero-copy inbound wire path.
    /// `None` for in-proc batches and for materialized ones. Exactly one
    /// of `items` / `raw` carries the payload at any time.
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
        // Calling again with the decoded items still in place is a benign
        // no-op (the count is drained, the loop below runs zero times).
        // The dangerous shape is a re-call *after* the items were taken:
        // encoded bytes still sit past the header, yet the caller gets an
        // empty payload back and believes it was a fresh decode.
        debug_assert!(
            raw.count > 0 || !self.items.is_empty() || raw.bytes.len() == raw.offset,
            "raw batch re-materialized after its items were drained; \
             hoist make_items to the delivery site"
        );
        let mut r = WireReader::new(&raw.bytes[raw.offset..]);
        // Each encoded item is at least one byte, so this reserve is
        // bounded by the frame size even if `count` is corrupt.
        let cap = (raw.count as usize).min(raw.bytes.len() - raw.offset);
        self.items.reserve(cap);
        for _ in 0..raw.count {
            self.items.push(T::decode(&mut r)?);
        }
        raw.count = 0;
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

/// One machine's endpoint into the mesh, and the machine's side of the
/// buffer pool.
pub struct Endpoint<T> {
    me: usize,
    n: usize,
    wiring: Wiring<T>,
    /// Local free list of ready-to-reuse payload vectors, capped at
    /// [`POOL_FREE_CAP`] entries.
    free: Vec<Vec<T>>,
    /// Evictions since the last flush into `NetStats` (recycle paths have
    /// no stats handle, so the count rides along until `take_buffer`).
    pending_evictions: u64,
    /// Next BSP exchange round issued by this endpoint.
    next_round: u64,
    /// Batches received ahead of the round currently being collected
    /// (two-hop exchanges can race ahead on fast peers).
    pending: VecDeque<Batch<T>>,
}

/// What carries an endpoint's batches.
enum Wiring<T> {
    /// The in-process channel mesh: batches move as values.
    Channels {
        txs: Vec<Sender<Batch<T>>>,
        rx: Receiver<Batch<T>>,
        /// Return path of the buffer pool: `ret_txs[m]` carries drained
        /// payload vectors back to machine `m`, their original allocator.
        ret_txs: Vec<Sender<Vec<T>>>,
        /// Vectors coming home from peers that finished consuming them.
        ret_rx: Receiver<Vec<T>>,
    },
    /// Framed sockets, moved by this machine's I/O loop (`io_loop`).
    Sockets(Box<dyn SocketMesh<T>>),
}

impl<T> Endpoint<T> {
    fn with_wiring(me: usize, n: usize, wiring: Wiring<T>) -> Self {
        Endpoint {
            me,
            n,
            wiring,
            free: Vec::new(),
            pending_evictions: 0,
            next_round: 0,
            pending: VecDeque::new(),
        }
    }

    /// An endpoint over a socket mesh (built by `transport`).
    pub(crate) fn on_sockets(me: usize, n: usize, links: Box<dyn SocketMesh<T>>) -> Self {
        Endpoint::with_wiring(me, n, Wiring::Sockets(links))
    }

    /// The round the next `exchange` will be tagged with.
    #[inline]
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Simulates a process death for in-process tests: severs every live
    /// socket without sending Shutdown frames (peers observe a bare EOF,
    /// exactly like a killed worker), then drops the endpoint. Only
    /// meaningful on TCP transports.
    #[cfg(test)]
    pub(crate) fn crash_for_test(self) {
        if let Wiring::Sockets(s) = &self.wiring {
            s.crash();
        }
    }

    /// The status of the link to `peer` after one pass over the sockets;
    /// `None` on the channel mesh.
    #[cfg(test)]
    pub(crate) fn link_status(&self, peer: usize) -> Option<crate::recovery::LinkStatus> {
        match &self.wiring {
            Wiring::Sockets(s) => s.status(peer),
            Wiring::Channels { .. } => None,
        }
    }
}

/// Parks a vector on a capped free list, counting what the cap turns away.
fn park<T>(free: &mut Vec<Vec<T>>, evictions: &mut u64, v: Vec<T>) {
    if free.len() < POOL_FREE_CAP {
        free.push(v);
    } else {
        *evictions += 1;
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

    /// Takes a payload vector from the buffer pool, pulling home any
    /// vectors peers (or, on sockets, encodes) have returned first. A pool
    /// hit reuses capacity that already travelled the mesh; a miss
    /// allocates a fresh (empty) vector.
    pub fn take_buffer(&mut self, stats: &NetStats) -> Vec<T> {
        match &self.wiring {
            Wiring::Channels { ret_rx, .. } => {
                while let Ok(v) = ret_rx.try_recv() {
                    park(&mut self.free, &mut self.pending_evictions, v);
                }
            }
            Wiring::Sockets(s) => {
                while let Some(v) = s.take_returned() {
                    park(&mut self.free, &mut self.pending_evictions, v);
                }
            }
        }
        if self.pending_evictions != 0 {
            stats.record_pool_evictions(self.pending_evictions);
            self.pending_evictions = 0;
        }
        match self.free.pop() {
            Some(v) => {
                stats.record_pool(true);
                v
            }
            None => {
                stats.record_pool(false);
                Vec::new()
            }
        }
    }

    /// Returns a consumed batch's payload vector to its allocating
    /// machine's free list (or our own, for locally produced vectors).
    /// If the owner already left the mesh the capacity is simply dropped.
    /// A zero-copy frame buffer goes back to the frame reader of the link
    /// it arrived on, so steady-state inbound decode allocates nothing per
    /// batch.
    pub fn recycle(&mut self, mut batch: Batch<T>) {
        if let (Some(raw), Wiring::Sockets(s)) = (batch.raw.take(), &self.wiring) {
            s.recycle_raw(batch.from, raw.bytes);
        }
        self.recycle_vec(batch.from, batch.items);
    }

    /// Returns a bare payload vector allocated by machine `owner`.
    pub fn recycle_vec(&mut self, owner: usize, mut items: Vec<T>) {
        items.clear();
        if items.capacity() == 0 {
            return;
        }
        match &self.wiring {
            Wiring::Channels { ret_txs, .. } if owner != self.me => {
                let _ = ret_txs[owner].send(items);
            }
            // Our own vectors, and every vector on a socket mesh: a remote
            // owner cannot take capacity back over a socket.
            _ => park(&mut self.free, &mut self.pending_evictions, items),
        }
    }

    /// Ships `items` to `dst` as its batch of `round` (with `last`, the
    /// sender's vote), charging `bytes_per_item · len` payload bytes to
    /// `phase`.
    #[expect(
        clippy::too_many_arguments,
        reason = "a batch's header fields, its destination and its accounting"
    )]
    pub(crate) fn send_tagged(
        &self,
        dst: usize,
        items: Vec<T>,
        sim_now: f64,
        round: u64,
        last: bool,
        phase: Phase,
        bytes_per_item: usize,
        stats: &NetStats,
    ) -> Result<(), CommError> {
        debug_assert_ne!(dst, self.me, "self-sends must be handled locally");
        if !items.is_empty() {
            stats.record_batch(phase, items.len() as u64, (items.len() * bytes_per_item) as u64);
        }
        match &self.wiring {
            Wiring::Channels { txs, .. } => {
                let batch = Batch {
                    from: self.me,
                    sent_at: sim_now,
                    round,
                    last,
                    kind: FrameKind::Data,
                    items,
                    raw: None,
                };
                txs[dst].send(batch).map_err(|_| CommError::PeerDisconnected {
                    from: self.me,
                    to: dst,
                })
            }
            Wiring::Sockets(s) => s.send(dst, items, sim_now, round, last),
        }
    }

    /// The next batch the wiring delivers, waiting for one; fails once
    /// every peer `needed` accepts has left (see `io_loop`).
    pub(crate) fn next_batch(
        &self,
        needed: &dyn Fn(usize) -> bool,
    ) -> Result<Batch<T>, CommError> {
        match &self.wiring {
            Wiring::Channels { rx, .. } => {
                rx.recv().map_err(|_| CommError::MeshClosed { me: self.me })
            }
            Wiring::Sockets(s) => s.next(needed),
        }
    }

    /// Waits until everything sent so far is on the wire (sockets only).
    fn flush(&self) -> Result<(), CommError> {
        match &self.wiring {
            Wiring::Sockets(s) => s.flush(),
            Wiring::Channels { .. } => Ok(()),
        }
    }

    /// BSP exchange round: sends `outboxes[dst]` to every other machine
    /// (empty vecs included, so the round is self-delimiting) and receives
    /// exactly one batch from every peer. Returns the received batches.
    ///
    /// Rounds are tagged: every machine must issue the same sequence of
    /// `exchange` calls (BSP lockstep), and batches from a later round that
    /// arrive early are buffered, which makes back-to-back exchanges (the
    /// two hops of mirrors-to-master coherency) safe. On a socket mesh the
    /// round returns only once its own frames are on the wire too, so no
    /// peer ever waits on a machine that has moved on to local work.
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
                    let _ = self.flush();
                });
            }
            // The staged vector goes on the wire; the slot is refilled from
            // the pool so next round's staging reuses travelled capacity.
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
            let b = self.next_batch(&needed)?;
            if b.round == round {
                received.push(b);
            } else {
                self.pending.push_back(b);
            }
        }
        self.flush()?;
        // Arrival order depends on peer scheduling; sender order does not.
        // Engines fold received deltas in batch order, so this sort is what
        // makes cross-machine float accumulation run-to-run deterministic.
        received.sort_unstable_by_key(|b| b.from);
        Ok(received)
    }
}

/// Builds the full mesh and hands out per-machine endpoints.
pub fn build_mesh<T: Send>(n: usize) -> Vec<Endpoint<T>> {
    assert!(n > 0);
    let mut rxs: Vec<Receiver<Batch<T>>> = Vec::with_capacity(n);
    let mut channel_txs: Vec<Sender<Batch<T>>> = Vec::with_capacity(n);
    let mut ret_rxs: Vec<Receiver<Vec<T>>> = Vec::with_capacity(n);
    let mut ret_channel_txs: Vec<Sender<Vec<T>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        channel_txs.push(tx);
        rxs.push(rx);
        let (rtx, rrx) = channel();
        ret_channel_txs.push(rtx);
        ret_rxs.push(rrx);
    }
    rxs.into_iter()
        .zip(ret_rxs)
        .enumerate()
        .map(|(me, (rx, ret_rx))| {
            let wiring = Wiring::Channels {
                txs: channel_txs.clone(),
                rx,
                ret_txs: ret_channel_txs.clone(),
                ret_rx,
            };
            Endpoint::with_wiring(me, n, wiring)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One round between two endpoints, machine 1's batch sent ahead:
    /// what machine 0's `exchange` hands back.
    fn round_from_1(items: Vec<u32>, sent_at: f64, phase: Phase, stats: &NetStats) -> Batch<u32> {
        let mut eps = build_mesh::<u32>(2);
        let ep1 = eps.pop().unwrap();
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
        assert_eq!(got.items, vec![7, 8, 9]);
        let snap = stats.snapshot();
        assert_eq!(snap.phase(Phase::Async).est_bytes, 12);
        assert_eq!(snap.phase(Phase::Async).items, 3);
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let stats = NetStats::new();
        let got = round_from_1(vec![], 0.0, Phase::Coherency, &stats);
        assert!(got.items.is_empty());
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
                        received
                            .iter()
                            .flat_map(|b| b.items.iter())
                            .sum::<u64>()
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
        let ep2 = eps.pop().unwrap();
        let ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        // Higher-id machine lands in the queue first; the exchange result
        // must come back in sender order anyway.
        ep2.send_tagged(0, vec![22], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![11], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let got = ep0
            .exchange(&mut OutboxSet::new(3), 0.0, Phase::Coherency, 4, &stats)
            .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].from, got[0].items[0]), (1, 11));
        assert_eq!((got[1].from, got[1].items[0]), (2, 22));
    }

    #[test]
    fn early_rounds_are_buffered_until_their_exchange() {
        let mut eps = build_mesh::<u32>(2);
        let ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        // Peer races ahead: its round-1 batch arrives before round 0.
        ep1.send_tagged(0, vec![201], 0.0, 1, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![100], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let mut ob = OutboxSet::new(2);
        let r0 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(r0[0].items, vec![100]);
        // The early batch sat in `pending` and satisfies round 1 without
        // touching the channel again.
        let r1 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(r1[0].items, vec![201]);
    }

    #[test]
    fn racing_rounds_collect_in_one_pass_and_keep_fifo_order() {
        // A peer races three rounds ahead; each exchange must pull exactly
        // its round out of `pending` while the remaining stragglers keep
        // their arrival order.
        let mut eps = build_mesh::<u32>(2);
        let ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        ep1.send_tagged(0, vec![22], 0.0, 2, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![11], 0.0, 1, true, Phase::Coherency, 4, &stats).unwrap();
        ep1.send_tagged(0, vec![0], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        let mut ob = OutboxSet::new(2);
        let r0 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(r0[0].items, vec![0]);
        // Rounds 2 and 1 now sit in `pending`, in arrival order.
        let waiting: Vec<u64> = ep0.pending.iter().map(|b| b.round).collect();
        assert_eq!(waiting, vec![2, 1]);
        let r1 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(r1[0].items, vec![11]);
        let r2 = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(r2[0].items, vec![22]);
        assert!(ep0.pending.is_empty());
    }

    #[test]
    fn buffer_pool_round_trips_capacity_through_the_mesh() {
        let mut eps = build_mesh::<u32>(2);
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let stats = NetStats::new();
        let mut ob = OutboxSet::new(2);
        ob.slot(1).reserve(64);

        // Round 0: ep0's big staged vector travels to ep1…
        ep1.send_tagged(0, vec![9], 0.0, 0, true, Phase::Coherency, 4, &stats).unwrap();
        ob.push(1, 5);
        let got = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert_eq!(got[0].items, vec![9]);
        let travelled = ep1.next_batch(&|_| true).unwrap();
        assert_eq!(travelled.items, vec![5]);
        assert!(travelled.items.capacity() >= 64);
        // …and ep1 hands it back to its allocator once drained.
        ep1.recycle(travelled);

        // Round 1: ep0's pool pulls the vector home; the outbox slot gets
        // its 64-slot capacity back without any new allocation.
        ep1.send_tagged(0, vec![10], 0.0, 1, true, Phase::Coherency, 4, &stats).unwrap();
        let _ = ep0.exchange(&mut ob, 0.0, Phase::Coherency, 4, &stats).unwrap();
        assert!(ob.total_capacity() >= 64, "recycled capacity must carry forward");
        let snap = stats.snapshot();
        assert_eq!(snap.pool_hits, 1, "round 1 must reuse the travelled vector");
        assert_eq!(snap.pool_misses, 1, "only round 0 may allocate");
    }

    #[test]
    fn recycle_own_vectors_feeds_local_free_list() {
        let mut eps = build_mesh::<u32>(1);
        let mut ep = eps.pop().unwrap();
        let stats = NetStats::new();
        let mut v = ep.take_buffer(&stats);
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        ep.recycle_vec(0, v);
        let v2 = ep.take_buffer(&stats);
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        let snap = stats.snapshot();
        assert_eq!((snap.pool_hits, snap.pool_misses), (1, 1));
    }

    #[test]
    fn free_list_cap_evicts_and_counts() {
        let mut eps = build_mesh::<u32>(1);
        let mut ep = eps.pop().unwrap();
        let stats = NetStats::new();
        // Recycle far more vectors than the cap allows; the overflow must
        // be dropped, not hoarded.
        for _ in 0..(POOL_FREE_CAP + 10) {
            ep.recycle_vec(0, Vec::with_capacity(8));
        }
        assert_eq!(ep.free.len(), POOL_FREE_CAP);
        // Eviction counts ride along until the next take_buffer flush.
        let _ = ep.take_buffer(&stats);
        assert_eq!(stats.snapshot().pool_evictions, 10);

        // The return-channel path is capped on drain too.
        let Wiring::Channels { ret_txs, .. } = &ep.wiring else {
            panic!("build_mesh wires channels")
        };
        for _ in 0..(POOL_FREE_CAP + 5) {
            ret_txs[0].send(Vec::with_capacity(4)).unwrap();
        }
        let _ = ep.take_buffer(&stats); // drains ret_rx: pool was at cap-1
        let snap = stats.snapshot();
        assert!(snap.pool_evictions >= 10 + 4, "drain must evict past-cap returns");
        assert!(ep.free.len() <= POOL_FREE_CAP);
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

    #[test]
    fn raw_batches_materialize_once_and_count_items() {
        // A zero-copy batch: fake frame-header bytes, then three encoded
        // items starting at `offset`, exactly as the TCP reader hands
        // them off.
        let mut bytes = vec![0xEE; 7];
        let offset = bytes.len();
        for v in [5u32, 6, 7] {
            v.encode(&mut bytes);
        }
        let mut b = Batch::<u32> {
            from: 1,
            sent_at: 0.0,
            round: 0,
            last: true,
            kind: FrameKind::Data,
            items: Vec::new(),
            raw: Some(RawBatch { bytes, offset, count: 3 }),
        };
        assert_eq!(b.item_count(), 3);
        b.make_items().unwrap();
        assert_eq!(b.items, vec![5, 6, 7]);
        assert_eq!(b.item_count(), 3, "materialized items replace the raw count");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-materialized")]
    fn double_materialize_after_drain_is_caught_in_debug() {
        let mut bytes = Vec::new();
        for v in [5u32, 6] {
            v.encode(&mut bytes);
        }
        let mut b = Batch::<u32> {
            from: 1,
            sent_at: 0.0,
            round: 0,
            last: true,
            kind: FrameKind::Data,
            items: Vec::new(),
            raw: Some(RawBatch { bytes, offset: 0, count: 2 }),
        };
        b.make_items().unwrap();
        // A re-call with the decoded items still in place is a benign
        // no-op; the bug `make_items` guards against is a re-call after
        // the consumer took the items — it would hand back an empty vec
        // while encoded bytes still sit in the buffer.
        let _ = std::mem::take(&mut b.items);
        b.make_items().unwrap();
    }

    #[test]
    fn corrupt_raw_count_is_a_typed_error_not_a_panic() {
        let mut bytes = Vec::new();
        5u32.encode(&mut bytes);
        let mut b = Batch::<u32> {
            from: 0,
            sent_at: 0.0,
            round: 0,
            last: true,
            kind: FrameKind::Data,
            items: Vec::new(),
            raw: Some(RawBatch { bytes, offset: 0, count: 9 }),
        };
        assert!(b.make_items().is_err());
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
                        let got = ep.exchange(&mut ob, 0.0, Phase::Async, 4, &stats).unwrap();
                        assert_eq!(got[0].items, vec![round], "round mixing detected");
                        for b in got {
                            ep.recycle(b);
                        }
                    }
                });
            }
        });
    }
}
