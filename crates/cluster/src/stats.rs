//! Network and synchronisation accounting.
//!
//! The paper explains LazyGraph's speedups entirely through two counted
//! quantities — the number of global synchronisations (Fig. 10) and the
//! communication traffic (Fig. 11). [`NetStats`] counts both exactly,
//! broken down by protocol phase, using relaxed atomics so that the 48
//! machine threads never contend.
//!
//! ## Two byte scales, never silently comparable
//!
//! There are **two distinct byte counters** and they measure different
//! things:
//!
//! * **`est_bytes`** (per phase) — the engine's `size_of`-based estimate
//!   of payload volume, charged at `send` time by every backend. This is
//!   the quantity the simulated cost model consumes and the Fig. 11
//!   comparisons use; it is identical whether batches cross a channel or
//!   a socket.
//! * **`wire_bytes_sent` / `wire_bytes_recv`** — *measured* frame bytes
//!   (header + encoded payload) recorded only by the TCP transport, as
//!   its sockets take and deliver frames. On the in-proc channel backend
//!   these stay 0:
//!   nothing is serialized, so there is no wire truth to report.
//!
//! The names are deliberately different so the two scales cannot be
//! compared by accident; `lazybench` reports both (`est_bytes`,
//! `wire_bytes`).

use std::sync::atomic::{AtomicU64, Ordering};

use lazygraph_net::wire_record;

/// Which protocol phase a communication belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Sync engine: mirrors → master accumulator exchange.
    Gather,
    /// Sync engine: master → mirrors data broadcast.
    Apply,
    /// Lazy engines: deltaMsg exchange at a data coherency point.
    Coherency,
    /// Async engine: fine-grained eager messages.
    Async,
    /// Anything else (setup, control).
    Control,
}

pub const NUM_PHASES: usize = 5;

impl Phase {
    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::Gather => 0,
            Phase::Apply => 1,
            Phase::Coherency => 2,
            Phase::Async => 3,
            Phase::Control => 4,
        }
    }
}

/// The counter table: one row per counter — its doc, its name, and how
/// per-worker snapshots of it aggregate (`sum` for event counts, `max` for
/// a high-water mark). The row is the only place a counter is listed: it
/// becomes a [`NetStats`] atomic, a public [`StatsSnapshot`] field, and
/// its slot in [`NetStats::snapshot`], [`StatsSnapshot::merge`] and the
/// `Wire` encoding, in row order. A counter is written through its
/// `record_*` method below; the per-phase triple rides in [`PhaseStats`].
macro_rules! counters {
    (@merge sum $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@merge max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    ($($(#[$doc:meta])* $name:ident: $rule:ident,)+) => {
        /// Shared counters, one instance per engine run.
        #[derive(Debug, Default)]
        pub struct NetStats {
            est_bytes: [AtomicU64; NUM_PHASES],
            batches: [AtomicU64; NUM_PHASES],
            items: [AtomicU64; NUM_PHASES],
            /// Bytes the outbound frame logs hold right now — the level
            /// `frame_log_high_water` is the mark of; not a counter, so
            /// not a row.
            frame_log_bytes: AtomicU64,
            $($name: AtomicU64,)+
        }

        /// Immutable snapshot of [`NetStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        pub struct StatsSnapshot {
            pub per_phase: [PhaseStats; NUM_PHASES],
            $($(#[$doc])* pub $name: u64,)+
        }

        impl NetStats {
            /// A consistent snapshot (exact once every machine thread joined).
            pub fn snapshot(&self) -> StatsSnapshot {
                let per_phase = std::array::from_fn(|i| PhaseStats {
                    est_bytes: self.est_bytes[i].load(Ordering::Relaxed),
                    batches: self.batches[i].load(Ordering::Relaxed),
                    items: self.items[i].load(Ordering::Relaxed),
                });
                StatsSnapshot { per_phase, $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        impl StatsSnapshot {
            /// Aggregates per-worker snapshots into a cluster total, each
            /// counter by its table rule. A `sum` counter is a plain sum
            /// over events; the one cluster-wide event (a global sync) is
            /// recorded by machine 0 only, so adding does not multiply it.
            pub fn merge(&mut self, other: &StatsSnapshot) {
                let StatsSnapshot { per_phase, $($name),+ } = other;
                for (mine, theirs) in self.per_phase.iter_mut().zip(per_phase) {
                    mine.merge(theirs);
                }
                $(counters!(@merge $rule self.$name, *$name);)+
            }
        }

        wire_record!(StatsSnapshot { per_phase, $($name),+ });
    };
}

counters! {
    /// Global synchronisations (Fig. 10), one per collective.
    global_syncs: sum,
    /// Scatter edge traversals — the local compute work.
    edges_processed: sum,
    /// Apply-operator executions.
    applies: sum,
    /// Contributions folded into an existing wire item before enqueue
    /// (sender-side combining + deltaMsg pre-accumulation).
    items_combined: sum,
    /// Estimated payload bytes those folds avoided shipping.
    bytes_saved: sum,
    /// Buffer-pool acquisitions served from a recycled vector.
    pool_hits: sum,
    /// Buffer-pool acquisitions that had to allocate.
    pool_misses: sum,
    /// Recycled vectors dropped because the free list was at capacity.
    pool_evictions: sum,
    /// Measured frame bytes written to sockets (0 on the in-proc backend).
    wire_bytes_sent: sum,
    /// Measured frame bytes read from sockets (0 on the in-proc backend).
    wire_bytes_recv: sum,
    /// Frames written to sockets.
    wire_frames_sent: sum,
    /// Frames read from sockets.
    wire_frames_recv: sum,
    /// Rejoins admitted after a torn link (recovery mode only; 0 on
    /// undisturbed runs). Fault telemetry, outside the determinism
    /// counter contract.
    reconnects: sum,
    /// Checkpoint snapshot bytes written to disk (0 with checkpointing
    /// disabled).
    snapshot_bytes: sum,
    /// Logged frames retransmitted to rejoined peers (0 on undisturbed
    /// runs). Fault telemetry, outside the determinism counter contract.
    replay_rounds: sum,
    /// Inbound Data frames handed off zero-copy in a recycled payload
    /// buffer (TCP only; 0 in-proc). Timing/pool telemetry like
    /// `pool_hits`: the warmup tail depends on scheduling, so this is
    /// excluded from the determinism counter contract.
    zero_copy_frames: sum,
    /// Contiguous same-destination runs (length ≥ 2) folded by the
    /// vectorized ⊕ loop in segment delivery. Deterministic per
    /// configuration: run boundaries follow the routed segment contents.
    fold_runs: sum,
    /// Pending vertices the delta engine's scheduler parked as
    /// sub-tolerance instead of processing. Deterministic per
    /// configuration: the plan is a pure function of state.
    delta_skipped_vertices: sum,
    /// Scheduler epochs executed, summed over machines (an `n`-machine
    /// run records `n` per epoch). Deterministic per configuration.
    sched_epochs: sum,
    /// High-water mark of any single priority bucket's occupancy in one
    /// epoch: across workers it is the largest any of them reached.
    bucket_high_water: max,
    /// High-water mark, in bytes, of the outbound frames a worker's links
    /// keep logged for replay between two checkpoint prunes (both meshes;
    /// 0 without a rejoin window): across workers, the largest any of them
    /// held. A frame is logged once its socket has taken all of it;
    /// outside the determinism counter contract like the other fault
    /// telemetry.
    frame_log_high_water: max,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one sent batch of `items` entries totalling `est_bytes`
    /// of *estimated* (`size_of`-based) payload.
    #[inline]
    pub fn record_batch(&self, phase: Phase, items: u64, est_bytes: u64) {
        let i = phase.index();
        self.est_bytes[i].fetch_add(est_bytes, Ordering::Relaxed);
        self.batches[i].fetch_add(1, Ordering::Relaxed);
        self.items[i].fetch_add(items, Ordering::Relaxed);
    }

    /// Records one global synchronisation (call once per collective, not
    /// once per participant).
    #[inline]
    pub fn record_sync(&self) {
        self.global_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records local compute work (scatter edge traversals).
    #[inline]
    pub fn record_edges(&self, n: u64) {
        self.edges_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records apply-operator executions.
    #[inline]
    pub fn record_applies(&self, n: u64) {
        self.applies.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `items` contributions folded into an existing wire item by
    /// the exchange fast path (sender-side `⊕` combining), saving `bytes`
    /// of wire payload versus shipping each contribution separately.
    #[inline]
    pub fn record_combined(&self, items: u64, bytes: u64) {
        if items != 0 {
            self.items_combined.fetch_add(items, Ordering::Relaxed);
            self.bytes_saved.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one buffer-pool acquisition: `hit` means a recycled vector
    /// was reused, a miss means the pool had to allocate.
    #[inline]
    pub fn record_pool(&self, hit: bool) {
        if hit {
            self.pool_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.pool_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `n` vectors dropped because an endpoint's free list hit its
    /// cap (capacity that would otherwise be pinned forever after a burst).
    #[inline]
    pub fn record_pool_evictions(&self, n: u64) {
        if n != 0 {
            self.pool_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `frames` frames totalling `bytes` *measured* bytes written
    /// to a socket (header + encoded payload). TCP backend only.
    #[inline]
    pub fn record_wire_sent(&self, frames: u64, bytes: u64) {
        self.wire_frames_sent.fetch_add(frames, Ordering::Relaxed);
        self.wire_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `frames` frames totalling `bytes` *measured* bytes read
    /// from a socket. TCP backend only.
    #[inline]
    pub fn record_wire_recv(&self, frames: u64, bytes: u64) {
        self.wire_frames_recv.fetch_add(frames, Ordering::Relaxed);
        self.wire_bytes_recv.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one rejoin admitted from this endpoint's listener (a torn
    /// link moved onto a restarted peer's new connection).
    #[inline]
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` of checkpoint snapshot written to disk.
    #[inline]
    pub fn record_snapshot_bytes(&self, bytes: u64) {
        self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` of outbound frame appended to a replay log.
    #[inline]
    pub fn record_frame_logged(&self, bytes: u64) {
        let held = self.frame_log_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.frame_log_high_water.fetch_max(held, Ordering::Relaxed);
    }

    /// Records `bytes` of logged frames dropped by a checkpoint prune.
    #[inline]
    pub fn record_frame_log_pruned(&self, bytes: u64) {
        self.frame_log_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records one logged frame retransmitted to a rejoined peer.
    #[inline]
    pub fn record_replay_round(&self) {
        self.replay_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` inbound Data frames handed off zero-copy in a payload
    /// buffer drawn from the reader's recycled pool — the frames whose
    /// decode allocated nothing. After warmup this tracks
    /// `wire_frames_recv` one-for-one.
    #[inline]
    pub fn record_zero_copy_frames(&self, n: u64) {
        if n != 0 {
            self.zero_copy_frames.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` contiguous same-destination runs (length ≥ 2) folded
    /// by the vectorized ⊕ loop in segment delivery — each run is one
    /// slot load/store instead of one per delta.
    #[inline]
    pub fn record_fold_runs(&self, n: u64) {
        if n != 0 {
            self.fold_runs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` pending vertices the delta engine's bucket scheduler
    /// parked this epoch (sub-tolerance accumulated mass — work the dense
    /// reference would have processed).
    #[inline]
    pub fn record_delta_skipped(&self, n: u64) {
        if n != 0 {
            self.delta_skipped_vertices.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one scheduler epoch executed by a machine (the cluster
    /// total is machine-epochs: every machine of an `n`-machine run
    /// contributes one per epoch).
    #[inline]
    pub fn record_sched_epochs(&self, n: u64) {
        self.sched_epochs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an epoch's largest single-bucket occupancy; the counter
    /// keeps the high-water mark (`fetch_max`).
    #[inline]
    pub fn record_bucket_high_water(&self, occupancy: u64) {
        self.bucket_high_water.fetch_max(occupancy, Ordering::Relaxed);
    }
}

/// Per-phase communication totals. `est_bytes` is the `size_of`-based
/// estimate charged at send time, *not* measured wire truth — see the
/// module docs for the distinction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Estimated payload bytes (`items × size_of` per send).
    pub est_bytes: u64,
    /// Non-empty batches sent.
    pub batches: u64,
    /// Items sent.
    pub items: u64,
}

impl PhaseStats {
    /// Element-wise sum — folds another worker's phase totals into this
    /// one (every counter is a plain event sum, so addition aggregates).
    pub fn merge(&mut self, other: &PhaseStats) {
        let PhaseStats { est_bytes, batches, items } = other;
        self.est_bytes += est_bytes;
        self.batches += batches;
        self.items += items;
    }
}

wire_record!(PhaseStats { est_bytes, batches, items });

impl StatsSnapshot {
    /// Total *estimated* payload bytes across phases — the Fig. 11
    /// quantity. Not comparable to [`Self::wire_bytes_sent`], which counts
    /// measured frame bytes on the TCP path.
    pub fn total_est_bytes(&self) -> u64 {
        self.per_phase.iter().map(|p| p.est_bytes).sum()
    }

    /// Total message items across phases.
    pub fn total_items(&self) -> u64 {
        self.per_phase.iter().map(|p| p.items).sum()
    }

    /// Total batches across phases.
    pub fn total_batches(&self) -> u64 {
        self.per_phase.iter().map(|p| p.batches).sum()
    }

    /// Stats for one phase.
    pub fn phase(&self, p: Phase) -> PhaseStats {
        self.per_phase[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_net::Wire;

    #[test]
    fn counts_accumulate() {
        let s = NetStats::new();
        s.record_batch(Phase::Coherency, 10, 120);
        s.record_batch(Phase::Coherency, 5, 60);
        s.record_batch(Phase::Gather, 1, 8);
        s.record_sync();
        s.record_sync();
        s.record_edges(100);
        s.record_applies(7);
        let snap = s.snapshot();
        assert_eq!(snap.phase(Phase::Coherency).est_bytes, 180);
        assert_eq!(snap.phase(Phase::Coherency).batches, 2);
        assert_eq!(snap.phase(Phase::Coherency).items, 15);
        assert_eq!(snap.phase(Phase::Gather).est_bytes, 8);
        assert_eq!(snap.total_est_bytes(), 188);
        assert_eq!(snap.total_items(), 16);
        assert_eq!(snap.global_syncs, 2);
        assert_eq!(snap.edges_processed, 100);
        assert_eq!(snap.applies, 7);
    }

    #[test]
    fn concurrent_updates() {
        let s = std::sync::Arc::new(NetStats::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_batch(Phase::Async, 1, 16);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.phase(Phase::Async).batches, 4000);
        assert_eq!(snap.phase(Phase::Async).est_bytes, 64_000);
    }

    #[test]
    fn wire_counters_are_separate_from_estimates() {
        let s = NetStats::new();
        s.record_batch(Phase::Gather, 4, 32); // estimate path
        s.record_wire_sent(1, 51); // measured frame: 5B header + payload
        s.record_wire_recv(1, 51);
        let snap = s.snapshot();
        assert_eq!(snap.total_est_bytes(), 32);
        assert_eq!(snap.wire_bytes_sent, 51);
        assert_eq!(snap.wire_bytes_recv, 51);
        assert_eq!(snap.wire_frames_sent, 1);
        assert_eq!(snap.wire_frames_recv, 1);
        // The two scales measure different things and must differ here.
        assert_ne!(snap.total_est_bytes(), snap.wire_bytes_sent);
    }

    #[test]
    fn snapshot_round_trips_over_the_wire() {
        let s = NetStats::new();
        s.record_batch(Phase::Apply, 9, 72);
        s.record_sync();
        s.record_edges(123);
        s.record_applies(45);
        s.record_combined(6, 48);
        s.record_pool(true);
        s.record_pool_evictions(3);
        s.record_wire_sent(7, 700);
        s.record_wire_recv(8, 800);
        s.record_reconnect();
        s.record_snapshot_bytes(4096);
        s.record_replay_round();
        s.record_replay_round();
        let snap = s.snapshot();
        assert_eq!(snap.reconnects, 1);
        assert_eq!(snap.snapshot_bytes, 4096);
        assert_eq!(snap.replay_rounds, 2);
        let back = StatsSnapshot::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back, snap);
    }

    /// Every row of a rule expands to the same code, so this covers the
    /// table per *rule* — `sum` rows (through the two `record_*` methods that
    /// branch), the `max` row, the per-phase arrays — up to the wire.
    #[test]
    fn table_rules_hold_through_snapshot_merge_and_wire() {
        let a = NetStats::new();
        a.record_batch(Phase::Coherency, 2, 16);
        a.record_sync();
        a.record_combined(3, 36);
        a.record_combined(0, 999); // nothing was folded: the bytes do not count
        a.record_pool(true);
        a.record_pool(true);
        a.record_pool(false);
        // High-water: a later, smaller epoch must not lower it.
        a.record_bucket_high_water(900);
        a.record_bucket_high_water(300);
        let snap = a.snapshot();
        assert_eq!((snap.items_combined, snap.bytes_saved), (3, 36));
        assert_eq!((snap.pool_hits, snap.pool_misses), (2, 1));
        assert_eq!(snap.bucket_high_water, 900);

        let b = NetStats::new();
        b.record_batch(Phase::Coherency, 3, 24);
        b.record_combined(2, 24);
        b.record_bucket_high_water(1500);
        let (mut ab, mut ba) = (snap, b.snapshot());
        ab.merge(&b.snapshot());
        ba.merge(&snap);
        assert_eq!(ab, ba, "both rules commute");
        let coherency = PhaseStats { est_bytes: 40, batches: 2, items: 5 };
        assert_eq!(ab.phase(Phase::Coherency), coherency);
        assert_eq!(ab.global_syncs, 1, "machine 0's count is not multiplied");
        assert_eq!((ab.items_combined, ab.bytes_saved), (5, 60), "event counts sum");
        assert_eq!(ab.bucket_high_water, 1500, "a high-water mark merges by max");

        assert_eq!(StatsSnapshot::from_wire(&ab.to_wire()).unwrap(), ab);
    }
}
