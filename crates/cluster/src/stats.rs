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
//!   (header + encoded payload) recorded only by the TCP transport's
//!   writer/reader threads. On the in-proc channel backend these stay 0:
//!   nothing is serialized, so there is no wire truth to report.
//!
//! The names are deliberately different so the two scales cannot be
//! compared by accident; `lazybench` reports both (`est_bytes`,
//! `wire_bytes`).

use std::sync::atomic::{AtomicU64, Ordering};

use lazygraph_net::{NetError, Wire, WireReader};

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

    /// Phase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Gather => "gather",
            Phase::Apply => "apply",
            Phase::Coherency => "coherency",
            Phase::Async => "async",
            Phase::Control => "control",
        }
    }
}

/// Shared counters, one instance per engine run.
#[derive(Debug, Default)]
pub struct NetStats {
    est_bytes: [AtomicU64; NUM_PHASES],
    batches: [AtomicU64; NUM_PHASES],
    items: [AtomicU64; NUM_PHASES],
    global_syncs: AtomicU64,
    edges_processed: AtomicU64,
    applies: AtomicU64,
    items_combined: AtomicU64,
    bytes_saved: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pool_evictions: AtomicU64,
    wire_bytes_sent: AtomicU64,
    wire_bytes_recv: AtomicU64,
    wire_frames_sent: AtomicU64,
    wire_frames_recv: AtomicU64,
    reconnects: AtomicU64,
    snapshot_bytes: AtomicU64,
    replay_rounds: AtomicU64,
    zero_copy_frames: AtomicU64,
    fold_runs: AtomicU64,
    delta_skipped_vertices: AtomicU64,
    sched_epochs: AtomicU64,
    bucket_high_water: AtomicU64,
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

    /// Records one rejoin admitted by this endpoint's acceptor (a torn
    /// link swapped onto a restarted peer's new connection).
    #[inline]
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` of checkpoint snapshot written to disk.
    #[inline]
    pub fn record_snapshot_bytes(&self, bytes: u64) {
        self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
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

    /// A consistent snapshot (exact once all machine threads have joined).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut per_phase = [PhaseStats::default(); NUM_PHASES];
        for (i, p) in per_phase.iter_mut().enumerate() {
            p.est_bytes = self.est_bytes[i].load(Ordering::Relaxed);
            p.batches = self.batches[i].load(Ordering::Relaxed);
            p.items = self.items[i].load(Ordering::Relaxed);
        }
        StatsSnapshot {
            per_phase,
            global_syncs: self.global_syncs.load(Ordering::Relaxed),
            edges_processed: self.edges_processed.load(Ordering::Relaxed),
            applies: self.applies.load(Ordering::Relaxed),
            items_combined: self.items_combined.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            pool_evictions: self.pool_evictions.load(Ordering::Relaxed),
            wire_bytes_sent: self.wire_bytes_sent.load(Ordering::Relaxed),
            wire_bytes_recv: self.wire_bytes_recv.load(Ordering::Relaxed),
            wire_frames_sent: self.wire_frames_sent.load(Ordering::Relaxed),
            wire_frames_recv: self.wire_frames_recv.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            replay_rounds: self.replay_rounds.load(Ordering::Relaxed),
            zero_copy_frames: self.zero_copy_frames.load(Ordering::Relaxed),
            fold_runs: self.fold_runs.load(Ordering::Relaxed),
            delta_skipped_vertices: self.delta_skipped_vertices.load(Ordering::Relaxed),
            sched_epochs: self.sched_epochs.load(Ordering::Relaxed),
            bucket_high_water: self.bucket_high_water.load(Ordering::Relaxed),
        }
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
        self.est_bytes += other.est_bytes;
        self.batches += other.batches;
        self.items += other.items;
    }

    /// One labelled report line for this phase's totals.
    pub fn report_line(&self, name: &str) -> String {
        format!(
            "phase {:<9} est_bytes={:<12} batches={:<8} items={}",
            name, self.est_bytes, self.batches, self.items
        )
    }
}

/// Immutable snapshot of [`NetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    pub per_phase: [PhaseStats; NUM_PHASES],
    pub global_syncs: u64,
    pub edges_processed: u64,
    pub applies: u64,
    /// Contributions folded into an existing wire item before enqueue
    /// (sender-side combining + deltaMsg pre-accumulation).
    pub items_combined: u64,
    /// Estimated payload bytes those folds avoided shipping.
    pub bytes_saved: u64,
    /// Buffer-pool acquisitions served from a recycled vector.
    pub pool_hits: u64,
    /// Buffer-pool acquisitions that had to allocate.
    pub pool_misses: u64,
    /// Recycled vectors dropped because the free list was at capacity.
    pub pool_evictions: u64,
    /// Measured frame bytes written to sockets (0 on the in-proc backend).
    pub wire_bytes_sent: u64,
    /// Measured frame bytes read from sockets (0 on the in-proc backend).
    pub wire_bytes_recv: u64,
    /// Frames written to sockets.
    pub wire_frames_sent: u64,
    /// Frames read from sockets.
    pub wire_frames_recv: u64,
    /// Rejoins admitted after a torn link (recovery mode only; 0 on
    /// undisturbed runs). Fault telemetry, outside the determinism
    /// counter contract.
    pub reconnects: u64,
    /// Checkpoint snapshot bytes written to disk (0 with checkpointing
    /// disabled).
    pub snapshot_bytes: u64,
    /// Logged frames retransmitted to rejoined peers (0 on undisturbed
    /// runs). Fault telemetry, outside the determinism counter contract.
    pub replay_rounds: u64,
    /// Inbound Data frames handed off zero-copy in a recycled payload
    /// buffer (TCP only; 0 in-proc). Timing/pool telemetry like
    /// `pool_hits`: the warmup tail depends on scheduling, so this is
    /// excluded from the determinism counter contract.
    pub zero_copy_frames: u64,
    /// Contiguous same-destination runs (length ≥ 2) folded by the
    /// vectorized ⊕ loop in segment delivery. Deterministic per
    /// configuration: run boundaries follow the routed segment contents.
    pub fold_runs: u64,
    /// Pending vertices the delta engine's scheduler parked as
    /// sub-tolerance instead of processing. Deterministic per
    /// configuration: the plan is a pure function of state.
    pub delta_skipped_vertices: u64,
    /// Scheduler epochs executed, summed over machines (an `n`-machine
    /// run records `n` per epoch). Deterministic per configuration.
    pub sched_epochs: u64,
    /// High-water mark of any single priority bucket's occupancy in one
    /// epoch. Merged by `max`, not `+`: a high-water mark across workers
    /// is the largest any of them reached.
    pub bucket_high_water: u64,
}

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

    /// Element-wise sum — aggregates per-worker snapshots into a cluster
    /// total. Valid because every counter is a plain sum over events and
    /// `global_syncs` is recorded by machine 0 only (so summing worker
    /// snapshots does not multiply it).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (a, b) in self.per_phase.iter_mut().zip(other.per_phase.iter()) {
            a.merge(b);
        }
        self.global_syncs += other.global_syncs;
        self.edges_processed += other.edges_processed;
        self.applies += other.applies;
        self.items_combined += other.items_combined;
        self.bytes_saved += other.bytes_saved;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_evictions += other.pool_evictions;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.wire_bytes_recv += other.wire_bytes_recv;
        self.wire_frames_sent += other.wire_frames_sent;
        self.wire_frames_recv += other.wire_frames_recv;
        self.reconnects += other.reconnects;
        self.snapshot_bytes += other.snapshot_bytes;
        self.replay_rounds += other.replay_rounds;
        self.zero_copy_frames += other.zero_copy_frames;
        self.fold_runs += other.fold_runs;
        self.delta_skipped_vertices += other.delta_skipped_vertices;
        self.sched_epochs += other.sched_epochs;
        self.bucket_high_water = self.bucket_high_water.max(other.bucket_high_water);
    }

    /// Labelled report lines: every counter of the snapshot appears here
    /// under its own field name (the L9 `stats-coverage` obligation), so
    /// a counter can never be recorded yet invisible in reports. The
    /// est/wire split keeps its deliberate naming — see the module docs.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = [
            Phase::Gather,
            Phase::Apply,
            Phase::Coherency,
            Phase::Async,
            Phase::Control,
        ]
        .iter()
        .map(|p| self.phase(*p).report_line(p.name()))
        .collect();
        lines.push(format!(
            "global_syncs={} edges_processed={} applies={}",
            self.global_syncs, self.edges_processed, self.applies
        ));
        lines.push(format!(
            "items_combined={} bytes_saved={}",
            self.items_combined, self.bytes_saved
        ));
        lines.push(format!(
            "pool_hits={} pool_misses={} pool_evictions={}",
            self.pool_hits, self.pool_misses, self.pool_evictions
        ));
        lines.push(format!(
            "wire_bytes_sent={} wire_bytes_recv={} wire_frames_sent={} wire_frames_recv={}",
            self.wire_bytes_sent, self.wire_bytes_recv, self.wire_frames_sent,
            self.wire_frames_recv
        ));
        lines.push(format!(
            "reconnects={} snapshot_bytes={} replay_rounds={}",
            self.reconnects, self.snapshot_bytes, self.replay_rounds
        ));
        lines.push(format!(
            "zero_copy_frames={} fold_runs={}",
            self.zero_copy_frames, self.fold_runs
        ));
        lines.push(format!(
            "delta_skipped_vertices={} sched_epochs={} bucket_high_water={}",
            self.delta_skipped_vertices, self.sched_epochs, self.bucket_high_water
        ));
        lines
    }
}

impl Wire for PhaseStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.est_bytes.encode(out);
        self.batches.encode(out);
        self.items.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(PhaseStats {
            est_bytes: u64::decode(r)?,
            batches: u64::decode(r)?,
            items: u64::decode(r)?,
        })
    }
}

impl Wire for StatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        for p in &self.per_phase {
            p.encode(out);
        }
        self.global_syncs.encode(out);
        self.edges_processed.encode(out);
        self.applies.encode(out);
        self.items_combined.encode(out);
        self.bytes_saved.encode(out);
        self.pool_hits.encode(out);
        self.pool_misses.encode(out);
        self.pool_evictions.encode(out);
        self.wire_bytes_sent.encode(out);
        self.wire_bytes_recv.encode(out);
        self.wire_frames_sent.encode(out);
        self.wire_frames_recv.encode(out);
        self.reconnects.encode(out);
        self.snapshot_bytes.encode(out);
        self.replay_rounds.encode(out);
        self.zero_copy_frames.encode(out);
        self.fold_runs.encode(out);
        self.delta_skipped_vertices.encode(out);
        self.sched_epochs.encode(out);
        self.bucket_high_water.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let mut per_phase = [PhaseStats::default(); NUM_PHASES];
        for p in per_phase.iter_mut() {
            *p = PhaseStats::decode(r)?;
        }
        Ok(StatsSnapshot {
            per_phase,
            global_syncs: u64::decode(r)?,
            edges_processed: u64::decode(r)?,
            applies: u64::decode(r)?,
            items_combined: u64::decode(r)?,
            bytes_saved: u64::decode(r)?,
            pool_hits: u64::decode(r)?,
            pool_misses: u64::decode(r)?,
            pool_evictions: u64::decode(r)?,
            wire_bytes_sent: u64::decode(r)?,
            wire_bytes_recv: u64::decode(r)?,
            wire_frames_sent: u64::decode(r)?,
            wire_frames_recv: u64::decode(r)?,
            reconnects: u64::decode(r)?,
            snapshot_bytes: u64::decode(r)?,
            replay_rounds: u64::decode(r)?,
            zero_copy_frames: u64::decode(r)?,
            fold_runs: u64::decode(r)?,
            delta_skipped_vertices: u64::decode(r)?,
            sched_epochs: u64::decode(r)?,
            bucket_high_water: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fast_path_counters_accumulate() {
        let s = NetStats::new();
        s.record_combined(3, 36);
        s.record_combined(0, 999); // no-op: nothing was folded
        s.record_combined(2, 24);
        s.record_pool(true);
        s.record_pool(true);
        s.record_pool(false);
        s.record_pool_evictions(2);
        s.record_pool_evictions(0); // no-op
        let snap = s.snapshot();
        assert_eq!(snap.items_combined, 5);
        assert_eq!(snap.bytes_saved, 60);
        assert_eq!(snap.pool_hits, 2);
        assert_eq!(snap.pool_misses, 1);
        assert_eq!(snap.pool_evictions, 2);
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
    fn snapshot_merge_sums_everything() {
        let a = NetStats::new();
        a.record_batch(Phase::Coherency, 2, 16);
        a.record_sync();
        a.record_wire_sent(3, 300);
        a.record_pool_evictions(1);
        let b = NetStats::new();
        b.record_batch(Phase::Coherency, 3, 24);
        b.record_wire_recv(2, 200);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.phase(Phase::Coherency).items, 5);
        assert_eq!(m.phase(Phase::Coherency).est_bytes, 40);
        assert_eq!(m.global_syncs, 1);
        assert_eq!(m.wire_bytes_sent, 300);
        assert_eq!(m.wire_bytes_recv, 200);
        assert_eq!(m.pool_evictions, 1);
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

    #[test]
    fn zero_copy_counters_accumulate_and_merge() {
        let s = NetStats::new();
        s.record_zero_copy_frames(3);
        s.record_zero_copy_frames(0); // no-op
        s.record_fold_runs(7);
        let snap = s.snapshot();
        assert_eq!(snap.zero_copy_frames, 3);
        assert_eq!(snap.fold_runs, 7);

        let other = NetStats::new();
        other.record_zero_copy_frames(4);
        other.record_fold_runs(1);
        let mut m = snap;
        m.merge(&other.snapshot());
        assert_eq!(m.zero_copy_frames, 7, "event counts sum");
        assert_eq!(m.fold_runs, 8);
        let back = StatsSnapshot::from_wire(&m.to_wire()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn delta_scheduler_counters_accumulate_and_merge() {
        let s = NetStats::new();
        s.record_delta_skipped(40);
        s.record_delta_skipped(0); // no-op
        s.record_delta_skipped(2);
        s.record_sched_epochs(1);
        s.record_sched_epochs(1);
        // High-water: later smaller epochs must not lower it.
        s.record_bucket_high_water(100);
        s.record_bucket_high_water(900);
        s.record_bucket_high_water(300);
        let snap = s.snapshot();
        assert_eq!(snap.delta_skipped_vertices, 42);
        assert_eq!(snap.sched_epochs, 2);
        assert_eq!(snap.bucket_high_water, 900);

        let other = NetStats::new();
        other.record_delta_skipped(8);
        other.record_sched_epochs(2);
        other.record_bucket_high_water(1500);
        let mut m = snap;
        m.merge(&other.snapshot());
        assert_eq!(m.delta_skipped_vertices, 50, "event counts sum");
        assert_eq!(m.sched_epochs, 4);
        assert_eq!(m.bucket_high_water, 1500, "high-water merges by max");
        let back = StatsSnapshot::from_wire(&m.to_wire()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn phase_names_unique() {
        let names = [
            Phase::Gather,
            Phase::Apply,
            Phase::Coherency,
            Phase::Async,
            Phase::Control,
        ]
        .map(Phase::name);
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
