//! Network and synchronisation accounting.
//!
//! The paper explains LazyGraph's speedups entirely through two counted
//! quantities — the number of global synchronisations (Fig. 10) and the
//! communication traffic (Fig. 11). [`NetStats`] counts both exactly,
//! broken down by protocol phase. Every machine counts into a `NetStats` of
//! its own, on either route, and hands back its [`StatsSnapshot`] with its
//! outcome; a run's counters are the [`StatsSnapshot::merge`] of its
//! machines'. The counters are relaxed atomics because a machine shares its
//! own through an `Arc` with the TCP links of its endpoint, which count the
//! frames they carry.
//!
//! ## Two byte scales, never silently comparable
//!
//! There are **two distinct byte counters** and they measure different
//! things:
//!
//! * **`est_bytes`** (per phase) — the engine's `size_of`-based estimate
//!   of payload volume, charged at `send` time by every backend. This is
//!   the quantity the simulated cost model consumes and the Fig. 11
//!   comparisons use; it is identical whether batches cross in process or
//!   over a socket.
//! * **`wire_bytes_sent` / `wire_bytes_recv`** — *measured* frame bytes
//!   (header + encoded payload) recorded only by the TCP transport, as
//!   its sockets take and deliver frames. On the in-process carrier these
//!   stay 0: its payloads cross no wire, so there is no wire truth to
//!   report.
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
    /// Barrier and allreduce rounds (`Endpoint::allreduce`). They charge
    /// no `est_bytes`: a collective is synchronisation, not payload. An
    /// allreduce's batches count, their items the value's encoded bytes;
    /// a barrier reduces `()`, so its batches are empty and uncounted.
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

/// The counter table: one row per counter — its doc, its name, how
/// per-worker snapshots of it aggregate (`sum` for event counts, `max` for
/// a high-water mark), and whether it is part of the determinism contract
/// (`det`: a pure function of graph, placement and config, bitwise across
/// threads, transports and worker processes) or host `telemetry` (measured
/// on a socket, or shaped by scheduling). The row is the only place a
/// counter is listed: it becomes a [`NetStats`] atomic, a public
/// [`StatsSnapshot`] field, and its slot in [`NetStats::snapshot`],
/// [`StatsSnapshot::merge`], [`StatsSnapshot::deterministic`] and the
/// `Wire` encoding, in row order. A counter is written through its
/// `record_*` method below; the per-phase triple rides in [`PhaseStats`]
/// and is `det`.
macro_rules! counters {
    (@merge sum $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@merge max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@det det) => { true };
    (@det telemetry) => { false };
    (@restore sum $mine:expr, $theirs:expr) => { $mine.fetch_add($theirs, Ordering::Relaxed) };
    (@restore max $mine:expr, $theirs:expr) => { $mine.fetch_max($theirs, Ordering::Relaxed) };
    ($($(#[$doc:meta])* $name:ident: $rule:ident $column:ident,)+) => {
        /// One machine's counters.
        #[derive(Debug, Default)]
        pub struct NetStats {
            est_bytes: [AtomicU64; NUM_PHASES],
            batches: [AtomicU64; NUM_PHASES],
            items: [AtomicU64; NUM_PHASES],
            $($name: AtomicU64,)+
        }

        /// Immutable snapshot of [`NetStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

            /// Continues counting from `snap`, a snapshot of this machine's
            /// counters taken earlier (a checkpoint's): each counter folds
            /// it in by its table rule, so what was counted before the
            /// restore is kept. Into fresh counters, the snapshot comes
            /// back as it was taken.
            pub fn restore(&self, snap: &StatsSnapshot) {
                let StatsSnapshot { per_phase, $($name),+ } = snap;
                for (i, p) in per_phase.iter().enumerate() {
                    self.est_bytes[i].fetch_add(p.est_bytes, Ordering::Relaxed);
                    self.batches[i].fetch_add(p.batches, Ordering::Relaxed);
                    self.items[i].fetch_add(p.items, Ordering::Relaxed);
                }
                $(counters!(@restore $rule self.$name, *$name);)+
            }
        }

        impl StatsSnapshot {
            /// Aggregates per-machine snapshots into a cluster total, each
            /// counter by its table rule. A `sum` counter is a plain sum
            /// over events; a cluster-wide event (a global sync, a barriered
            /// engine's coherency point and its exchange) is recorded by
            /// machine 0 only, so adding does not multiply it.
            pub fn merge(&mut self, other: &StatsSnapshot) {
                let StatsSnapshot { per_phase, $($name),+ } = other;
                for (mine, theirs) in self.per_phase.iter_mut().zip(per_phase) {
                    mine.merge(theirs);
                }
                $(counters!(@merge $rule self.$name, *$name);)+
            }

            /// This snapshot with every `telemetry` row zeroed: the
            /// counters a run owes bitwise, wherever it ran.
            pub fn deterministic(&self) -> StatsSnapshot {
                StatsSnapshot {
                    per_phase: self.per_phase,
                    $($name: if counters!(@det $column) { self.$name } else { 0 },)+
                }
            }
        }

        #[cfg(test)]
        impl StatsSnapshot {
            /// Every row's name, whether it is `det`, and its field.
            fn rows_mut(&mut self) -> Vec<(&'static str, bool, &mut u64)> {
                vec![$((stringify!($name), counters!(@det $column), &mut self.$name),)+]
            }
        }

        wire_record!(StatsSnapshot { per_phase, $($name),+ });
    };
}

counters! {
    /// Global synchronisations (Fig. 10), one per collective.
    global_syncs: sum det,
    /// Scatter edge traversals — the local compute work.
    edges_processed: sum det,
    /// Apply-operator executions.
    applies: sum det,
    /// Contributions folded into an existing wire item before enqueue
    /// (sender-side combining + deltaMsg pre-accumulation).
    items_combined: sum det,
    /// Estimated payload bytes those folds avoided shipping.
    bytes_saved: sum det,
    /// Always 0: staging vectors the retired buffer pool served from its
    /// free list. Kept only because the frozen benchmark harness reads
    /// the field (ROADMAP item 1(d)).
    pool_hits: sum det,
    /// Always 0: staging vectors the retired buffer pool had to allocate.
    /// Kept only because the frozen benchmark harness reads the field
    /// (ROADMAP item 1(d)).
    pool_misses: sum det,
    /// Measured frame bytes written to sockets (0 on the in-proc backend).
    wire_bytes_sent: sum telemetry,
    /// Measured frame bytes read from sockets (0 on the in-proc backend).
    wire_bytes_recv: sum telemetry,
    /// Frames written to sockets.
    wire_frames_sent: sum telemetry,
    /// Frames read from sockets.
    wire_frames_recv: sum telemetry,
    /// Checkpoint snapshot bytes written to disk (0 with checkpointing
    /// disabled).
    snapshot_bytes: sum det,
    /// Inbound Data frames — engine batches and collective rounds alike —
    /// handed off zero-copy in a recycled payload buffer of their size
    /// class (TCP only; 0 in-proc). Telemetry: the warmup tail depends on
    /// scheduling.
    zero_copy_frames: sum telemetry,
    /// Always 0: the retired run-vectorised ⊕ fold's run count, which
    /// nothing records any more. Kept only because the frozen benchmark
    /// harness reads the field (ROADMAP item 1(d)).
    fold_runs: sum det,
    /// Pending vertices the delta engine's scheduler parked as
    /// sub-tolerance instead of processing. Deterministic per
    /// configuration: the plan is a pure function of state.
    delta_skipped_vertices: sum det,
    /// Sub-epoch plans the delta engine's scheduler made, summed over
    /// machines: every machine records one per plan it runs, the final
    /// empty plan of an epoch included. Deterministic per configuration.
    sched_epochs: sum det,
    /// High-water mark of any single priority bucket's occupancy in one
    /// epoch: across workers it is the largest any of them reached.
    bucket_high_water: max det,
    /// Data coherency points reached (lazy engines only). The barriered
    /// engines reach one together, so machine 0 records it; LazyVertex's
    /// machines each reach their own, and each records its own.
    coherency_points: sum det,
    /// Local computation sub-rounds executed (delta: sub-epochs), summed
    /// over machines: every machine records its own.
    local_subrounds: sum det,
    /// Coherency exchanges in all-to-all mode, recorded by whoever records
    /// the coherency point.
    a2a_exchanges: sum det,
    /// Coherency exchanges in mirrors-to-master mode, recorded by whoever
    /// records the coherency point.
    m2m_exchanges: sum det,
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

    /// Records `bytes` of checkpoint snapshot written to disk.
    #[inline]
    pub fn record_snapshot_bytes(&self, bytes: u64) {
        self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
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

    /// Records `n` pending vertices the delta engine's bucket scheduler
    /// parked this epoch (sub-tolerance accumulated mass — work the dense
    /// reference would have processed).
    #[inline]
    pub fn record_delta_skipped(&self, n: u64) {
        if n != 0 {
            self.delta_skipped_vertices.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` sub-epoch plans a machine's delta scheduler made, the
    /// final empty plan of an epoch included (the cluster total sums the
    /// machines').
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

    /// Records one data coherency point (call once per point, not once per
    /// participant, where the machines reach it together).
    #[inline]
    pub fn record_coherency_point(&self) {
        self.coherency_points.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` local sub-rounds this machine ran.
    #[inline]
    pub fn record_subrounds(&self, n: u64) {
        self.local_subrounds.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one all-to-all coherency exchange.
    #[inline]
    pub fn record_a2a_exchange(&self) {
        self.a2a_exchanges.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one mirrors-to-master coherency exchange.
    #[inline]
    pub fn record_m2m_exchange(&self) {
        self.m2m_exchanges.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-phase communication totals. `est_bytes` is the `size_of`-based
/// estimate charged at send time, *not* measured wire truth — see the
/// module docs for the distinction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
        s.record_wire_sent(7, 700);
        s.record_wire_recv(8, 800);
        s.record_snapshot_bytes(4096);
        let snap = s.snapshot();
        assert_eq!(snap.snapshot_bytes, 4096);
        let back = StatsSnapshot::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back, snap);
    }

    /// Every row of a rule expands to the same code, so this covers the
    /// table per *rule* — `sum` rows (through `record_combined`, which
    /// branches), the `max` row, the per-phase arrays — up to the wire.
    #[test]
    fn table_rules_hold_through_snapshot_merge_and_wire() {
        let a = NetStats::new();
        a.record_batch(Phase::Coherency, 2, 16);
        a.record_sync();
        a.record_combined(3, 36);
        a.record_combined(0, 999); // nothing was folded: the bytes do not count
        // High-water: a later, smaller epoch must not lower it.
        a.record_bucket_high_water(900);
        a.record_bucket_high_water(300);
        let snap = a.snapshot();
        assert_eq!((snap.items_combined, snap.bytes_saved), (3, 36));
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

    /// The `det | telemetry` column, read off the table itself: bumping a
    /// `det` row or any per-phase field moves `deterministic()`, bumping a
    /// `telemetry` row does not — so a new row is covered as it is added.
    #[test]
    fn deterministic_keeps_det_rows_and_drops_telemetry() {
        let base = StatsSnapshot::default();
        for i in 0..StatsSnapshot::default().rows_mut().len() {
            let mut s = base;
            let (name, det) = {
                let (name, det, field) = s.rows_mut().swap_remove(i);
                *field += 1;
                (name, det)
            };
            assert_eq!(s.deterministic() != base.deterministic(), det, "{name}");
        }
        let fields: [fn(&mut PhaseStats) -> &mut u64; 3] =
            [|p| &mut p.est_bytes, |p| &mut p.batches, |p| &mut p.items];
        for phase in 0..NUM_PHASES {
            for field in fields {
                let mut s = base;
                *field(&mut s.per_phase[phase]) += 1;
                assert_ne!(s.deterministic(), base.deterministic(), "phase {phase}");
            }
        }
    }

    /// What a checkpoint carries, read off the table: a snapshot with
    /// every row and every per-phase field set to a value of its own,
    /// restored into fresh counters, snapshots back as it was — so a new
    /// row is restored as it is added.
    #[test]
    fn a_restored_snapshot_snapshots_back_unchanged() {
        let mut taken = StatsSnapshot::default();
        let mut next = 0u64;
        let mut bump = |field: &mut u64| {
            next += 1;
            *field = 1000 + next;
        };
        for (_, _, field) in taken.rows_mut() {
            bump(field);
        }
        for p in &mut taken.per_phase {
            bump(&mut p.est_bytes);
            bump(&mut p.batches);
            bump(&mut p.items);
        }
        let first = NetStats::new();
        first.restore(&taken);
        let snap = first.snapshot();
        assert_eq!(snap, taken);
        let again = NetStats::new();
        again.restore(&snap);
        assert_eq!(again.snapshot(), snap);

        // Counts made before a restore are kept, by each row's rule.
        let counted = NetStats::new();
        counted.record_snapshot_bytes(5);
        counted.record_bucket_high_water(u64::MAX);
        counted.restore(&taken);
        let snap = counted.snapshot();
        assert_eq!(snap.snapshot_bytes, taken.snapshot_bytes + 5, "a sum row adds");
        assert_eq!(snap.bucket_high_water, u64::MAX, "a max row keeps its mark");
    }
}
