//! Checkpoint/replay fault tolerance (PR 6): periodic vertex snapshots
//! riding the engines' existing coherency barriers.
//!
//! A checkpoint is one machine's complete cross-iteration state — the
//! [`MachineState`](crate::state::MachineState) arrays, the simulated
//! clock, the iteration counter, and the two mesh *round watermarks* (the
//! next data-mesh round and the next control-mesh round). The watermarks
//! are what make the log-based replay in `lazygraph-cluster::recovery`
//! sound: PR 1's determinism contract guarantees a restarted worker
//! re-executing from iteration `i` regenerates byte-identical outbound
//! rounds `>= W`, while every surviving peer replays its logged rounds
//! `>= W` — so the rejoined mesh is indistinguishable from one that never
//! tore. DESIGN.md §12 walks through the protocol.
//!
//! ## On-disk format
//!
//! ```text
//! [magic "LZCK" u32 LE][version u32][chunk_count u64]
//! chunk * chunk_count: [len u64][fnv1a64 u64][len bytes]
//! ```
//!
//! The payload (a Wire-encoded [`EngineSnapshot`]) is split into bounded
//! chunks, each carrying its own FNV-1a 64 checksum, so a torn write or a
//! flipped bit is detected chunk-locally and surfaces as a typed
//! [`CheckpointError`] — never a panic, mirroring the torn-frame rules of
//! the wire transport. Snapshots are written to a temp file and renamed
//! into place (atomic on POSIX), and the two most recent generations are
//! kept so a snapshot torn mid-write still leaves a valid predecessor.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use lazygraph_cluster::CommError;
use lazygraph_net::{wire_record, NetError, Wire, WireReader};

use crate::config::EngineKind;
use crate::lazy_block::LazyCounters;
use crate::machine::Frame;
use crate::program::VertexProgram;
use crate::state::MachineState;

/// Magic prefix of every checkpoint file ("LZCK", little-endian).
pub const CKPT_MAGIC: u32 = 0x4b435a4c;
/// Current checkpoint format version. v2 added the size of the parts a
/// round was once streamed in; v7 removed it with that path
/// (EXPERIMENTS.md, PR 20's verdict): a round is one batch per peer, so
/// there is no part boundary for replay to reproduce. v3 appended the
/// DeltaAccum engine's resume extras
/// (`delta`): the engine's cross-iteration counters; the scheduler's
/// buckets themselves are a pure function of `MachineState` and carry no
/// state of their own. v4 appended a structural patch log and two lazy
/// extras for moving vertices between machines at run time; v6 removed all
/// three with the feature (EXPERIMENTS.md, PR 19's verdict): replicas are
/// placed once, so a resumed machine's shard file is its topology. v5
/// appended `coherency_cost_bits` and `last_sweep_bits` to the lazy extras:
/// a budgeted local stage is rationed against the cost of the coherency
/// point before it and predicts its first sub-round from the sweep before
/// it, and a restart at a superstep boundary can recompute neither.
pub const CKPT_VERSION: u32 = 7;
/// Maximum payload bytes per checksummed chunk.
pub const CKPT_CHUNK: usize = 1 << 20;

/// Why a checkpoint could not be written or read. Corruption is a normal
/// runtime condition for this module (that is the point of the checksums),
/// so every variant is a value, never a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (create, write, rename, read, list).
    Io {
        /// What was being done.
        what: &'static str,
        /// The underlying error, stringified for `PartialEq`-free storage.
        detail: String,
    },
    /// The file does not start with the checkpoint magic/version.
    BadHeader {
        /// Human-readable mismatch description.
        detail: String,
    },
    /// A chunk is shorter than its declared length.
    Truncated {
        /// Which chunk (0-based).
        chunk: usize,
    },
    /// A chunk's FNV-1a 64 checksum does not match its bytes.
    ChecksumMismatch {
        /// Which chunk (0-based).
        chunk: usize,
    },
    /// The reassembled payload is not a valid snapshot encoding.
    Decode(NetError),
    /// The snapshot was taken by a different engine than the one resuming
    /// from it.
    WrongEngine {
        /// The snapshot's engine tag.
        found: u8,
        /// The engine that tried to resume.
        resuming: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { what, detail } => write!(f, "checkpoint io ({what}): {detail}"),
            CheckpointError::BadHeader { detail } => write!(f, "bad checkpoint header: {detail}"),
            CheckpointError::Truncated { chunk } => write!(f, "checkpoint chunk {chunk} truncated"),
            CheckpointError::ChecksumMismatch { chunk } => {
                write!(f, "checkpoint chunk {chunk} checksum mismatch")
            }
            CheckpointError::Decode(e) => write!(f, "checkpoint payload decode: {e}"),
            CheckpointError::WrongEngine { found, resuming } => {
                write!(f, "snapshot engine tag {found} is not a {resuming} snapshot")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<NetError> for CheckpointError {
    fn from(e: NetError) -> Self {
        CheckpointError::Decode(e)
    }
}

fn io_err(what: &'static str, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        what,
        detail: e.to_string(),
    }
}

/// FNV-1a 64 over `bytes` — the per-chunk checksum. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Frames `payload` into the chunked checkpoint container.
pub fn encode_container(payload: &[u8]) -> Vec<u8> {
    let chunks: Vec<&[u8]> = if payload.is_empty() {
        Vec::new()
    } else {
        payload.chunks(CKPT_CHUNK).collect()
    };
    let mut out = Vec::with_capacity(16 + payload.len() + chunks.len() * 16);
    CKPT_MAGIC.encode(&mut out);
    CKPT_VERSION.encode(&mut out);
    (chunks.len() as u64).encode(&mut out);
    for c in chunks {
        (c.len() as u64).encode(&mut out);
        fnv1a64(c).encode(&mut out);
        out.extend_from_slice(c);
    }
    out
}

/// Unframes a chunked checkpoint container back into its payload,
/// verifying every chunk's checksum. All malformations are typed errors.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    let mut r = WireReader::new(bytes);
    let magic = u32::decode(&mut r).map_err(|_| CheckpointError::BadHeader {
        detail: "file shorter than the header".into(),
    })?;
    if magic != CKPT_MAGIC {
        return Err(CheckpointError::BadHeader {
            detail: format!("magic {magic:#010x} != {CKPT_MAGIC:#010x}"),
        });
    }
    let version = u32::decode(&mut r).map_err(|_| CheckpointError::BadHeader {
        detail: "file shorter than the header".into(),
    })?;
    if version != CKPT_VERSION {
        return Err(CheckpointError::BadHeader {
            detail: format!("version {version} != {CKPT_VERSION}"),
        });
    }
    let count = u64::decode(&mut r).map_err(|_| CheckpointError::BadHeader {
        detail: "file shorter than the header".into(),
    })? as usize;
    let mut payload = Vec::new();
    for chunk in 0..count {
        let (len, sum) = match (u64::decode(&mut r), u64::decode(&mut r)) {
            (Ok(l), Ok(s)) => (l as usize, s),
            _ => return Err(CheckpointError::Truncated { chunk }),
        };
        let data = r
            .take(len)
            .map_err(|_| CheckpointError::Truncated { chunk })?;
        if fnv1a64(data) != sum {
            return Err(CheckpointError::ChecksumMismatch { chunk });
        }
        payload.extend_from_slice(data);
    }
    r.finish().map_err(|_| CheckpointError::BadHeader {
        detail: "trailing bytes after the last chunk".into(),
    })?;
    Ok(payload)
}

/// The engine tag a snapshot carries — the one `EngineKind` → tag mapping.
/// `None` for the engines that cannot checkpoint (their pump detects
/// quiescence through shared memory, so they never run in a worker
/// process).
pub fn snapshot_tag(kind: EngineKind) -> Option<u8> {
    match kind {
        EngineKind::PowerGraphSync => Some(0),
        EngineKind::LazyBlockAsync => Some(1),
        EngineKind::DeltaAccum => Some(2),
        EngineKind::PowerGraphAsync
        | EngineKind::LazyVertexAsync
        | EngineKind::PowerSwitchHybrid => None,
    }
}

/// Extra cross-iteration state of the LazyBlockAsync engine (absent for
/// the Sync engine, whose loop carries nothing beyond [`MachineState`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LazyResume {
    /// The per-machine counters (coherency points, subrounds, exchanges).
    pub counters: LazyCounters,
    /// `IntervalModel::export_state` — active count, trend, iterations.
    pub prev_active: Option<u64>,
    /// Trend value, bit-exact.
    pub last_trend_bits: u64,
    /// Coherency points the interval model has observed.
    pub iterations_seen: u64,
    /// Whether the lazy local-computation stage is switched on.
    pub do_local: bool,
    /// Duration `T` of the first local stage, bit-exact (None while
    /// unmeasured).
    pub first_stage_bits: Option<u64>,
    /// The comm mode the next coherency point will use.
    pub next_mode_m2m: bool,
    /// Simulated cost the last coherency point was charged, bit-exact —
    /// what the next local stage's budget is derived from. Appended in v5.
    pub coherency_cost_bits: u64,
    /// Simulated compute this machine's last sweep was charged, bit-exact —
    /// the next local stage's first prediction. Appended in v5.
    pub last_sweep_bits: u64,
}

wire_record!(LazyResume {
    counters,
    prev_active,
    last_trend_bits,
    iterations_seen,
    do_local,
    first_stage_bits,
    next_mode_m2m,
    coherency_cost_bits,
    last_sweep_bits,
});

/// Extra cross-iteration state of the DeltaAccum engine. The bucket
/// scheduler is deliberately stateless across epochs — every epoch's plan
/// is recomputed from `MachineState` alone — so the engine's counters are
/// all that must survive a crash for the resumed trajectory to stay
/// bitwise-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaResume {
    /// The per-machine counters (epochs double as coherency points; every
    /// exchange is all-to-all).
    pub counters: LazyCounters,
}

wire_record!(DeltaResume { counters });

/// What an engine adds to a snapshot beside `MachineState`
/// ([`Superstep::resume_extras`](crate::machine::Superstep::resume_extras)).
#[derive(Clone, Debug, Default)]
pub struct ResumeExtras {
    pub lazy: Option<LazyResume>,
    pub delta: Option<DeltaResume>,
}

/// One machine's complete resumable state at a checkpoint boundary (the
/// bottom of a superstep, after its last exchange and collective).
#[derive(Clone, Debug)]
pub struct EngineSnapshot<P: VertexProgram> {
    /// Engine tag ([`snapshot_tag`]): 0 = Sync, 1 = LazyBlock,
    /// 2 = DeltaAccum. A machine only resumes from a snapshot of the
    /// engine it is running ([`Self::check_engine`]).
    pub engine: u8,
    /// Supersteps completed when the snapshot was taken.
    pub iterations: u64,
    /// `SimClock::now().to_bits()` — bit-exact simulated time.
    pub clock_bits: u64,
    /// Data-mesh replay watermark `W`: the round the resumed machine will
    /// send next; peers replay their logged rounds `>= W`.
    pub data_round: u64,
    /// Control-mesh replay watermark: the round of the checkpoint barrier
    /// itself, which a resumed machine always re-executes.
    pub ctrl_round: u64,
    /// `MachineState::vdata`.
    pub vdata: Vec<P::VData>,
    /// `MachineState::coherent`.
    pub coherent: Vec<P::VData>,
    /// `MachineState::message`.
    pub message: Vec<Option<P::Delta>>,
    /// `MachineState::delta_msg`.
    pub delta_msg: Vec<Option<P::Delta>>,
    /// `MachineState::active`.
    pub active: Vec<bool>,
    /// `MachineState::queue`.
    pub queue: Vec<u32>,
    /// Lazy-engine extras (None for the Sync and DeltaAccum engines).
    pub lazy: Option<LazyResume>,
    /// DeltaAccum extras (None for every other engine). Appended last —
    /// wire evolution rule — hence the v3 version bump.
    pub delta: Option<DeltaResume>,
}

// `derive(PartialEq)` would demand `P: PartialEq` of the program itself.
// Opening `self` without `..` keeps the comparison list checked: a field
// that is not compared is an unused binding.
impl<P: VertexProgram> PartialEq for EngineSnapshot<P> {
    fn eq(&self, other: &Self) -> bool {
        let EngineSnapshot {
            engine,
            iterations,
            clock_bits,
            data_round,
            ctrl_round,
            vdata,
            coherent,
            message,
            delta_msg,
            active,
            queue,
            lazy,
            delta,
        } = self;
        *engine == other.engine
            && *iterations == other.iterations
            && *clock_bits == other.clock_bits
            && *data_round == other.data_round
            && *ctrl_round == other.ctrl_round
            && *vdata == other.vdata
            && *coherent == other.coherent
            && *message == other.message
            && *delta_msg == other.delta_msg
            && *active == other.active
            && *queue == other.queue
            && *lazy == other.lazy
            && *delta == other.delta
    }
}

wire_record!(EngineSnapshot<P> where P: VertexProgram {
    engine,
    iterations,
    clock_bits,
    data_round,
    ctrl_round,
    vdata,
    coherent,
    message,
    delta_msg,
    active,
    queue,
    lazy,
    delta,
});

impl<P: VertexProgram> EngineSnapshot<P> {
    /// Fails unless this snapshot was taken by engine `kind`.
    pub fn check_engine(&self, kind: EngineKind) -> Result<(), CheckpointError> {
        if snapshot_tag(kind) == Some(self.engine) {
            Ok(())
        } else {
            Err(CheckpointError::WrongEngine {
                found: self.engine,
                resuming: kind.name(),
            })
        }
    }

    /// Captures the state arrays from `state`. The pattern has no `..`: a
    /// new `MachineState` array that is neither captured nor exempted here
    /// (and in [`Self::restore_into`]) does not compile.
    pub fn capture(
        engine: u8,
        iterations: u64,
        clock_now: f64,
        data_round: u64,
        ctrl_round: u64,
        state: &MachineState<P>,
        extras: ResumeExtras,
    ) -> Self {
        // `scratch` is exempt: capacity-only buffers, always written before
        // read; a recovered worker regrows them from empty with
        // bitwise-identical results.
        let MachineState { vdata, coherent, message, delta_msg, active, queue, scratch: _ } = state;
        EngineSnapshot {
            engine,
            iterations,
            clock_bits: clock_now.to_bits(),
            data_round,
            ctrl_round,
            vdata: vdata.clone(),
            coherent: coherent.clone(),
            message: message.clone(),
            delta_msg: delta_msg.clone(),
            active: active.clone(),
            queue: queue.clone(),
            lazy: extras.lazy,
            delta: extras.delta,
        }
    }

    /// Restores the state arrays into `state` (scratch pools untouched).
    pub fn restore_into(&self, state: &mut MachineState<P>) {
        let MachineState { vdata, coherent, message, delta_msg, active, queue, scratch: _ } = state;
        *vdata = self.vdata.clone();
        *coherent = self.coherent.clone();
        *message = self.message.clone();
        *delta_msg = self.delta_msg.clone();
        *active = self.active.clone();
        *queue = self.queue.clone();
    }
}

/// A per-machine snapshot directory: `ckpt-<rank>-<iteration>.ck` files,
/// newest-2 retained.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    me: usize,
}

impl SnapshotStore {
    /// A store rooted at `dir` for machine `me`. The directory is created
    /// on first save, not here.
    pub fn new(dir: impl Into<PathBuf>, me: usize) -> Self {
        SnapshotStore {
            dir: dir.into(),
            me,
        }
    }

    fn file_name(&self, iteration: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{}-{:012}.ck", self.me, iteration))
    }

    /// Writes one snapshot atomically (temp file + rename), prunes all
    /// but the two newest generations, and returns the container's size
    /// in bytes.
    pub fn save<P: VertexProgram>(
        &self,
        snap: &EngineSnapshot<P>,
    ) -> Result<u64, CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err("create_dir_all", &e))?;
        let container = encode_container(&snap.to_wire());
        let tmp = self.dir.join(format!("ckpt-{}-{:012}.tmp", self.me, snap.iterations));
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", &e))?;
            f.write_all(&container).map_err(|e| io_err("write", &e))?;
            f.sync_all().map_err(|e| io_err("sync", &e))?;
        }
        std::fs::rename(&tmp, self.file_name(snap.iterations))
            .map_err(|e| io_err("rename", &e))?;
        self.prune_old(2)?;
        Ok(container.len() as u64)
    }

    /// All of this machine's snapshot files, newest iteration first.
    fn list(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let prefix = format!("ckpt-{}-", self.me);
        let mut found = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
            Err(e) => return Err(io_err("read_dir", &e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read_dir entry", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else { continue };
            let Some(iter_str) = rest.strip_suffix(".ck") else { continue };
            let Ok(iteration) = iter_str.parse::<u64>() else { continue };
            found.push((iteration, entry.path()));
        }
        found.sort_by_key(|e| std::cmp::Reverse(e.0));
        Ok(found)
    }

    fn prune_old(&self, keep: usize) -> Result<(), CheckpointError> {
        for (_, path) in self.list()?.into_iter().skip(keep) {
            // Best-effort: a stale file is wasted disk, not corruption.
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Loads one snapshot file.
    pub fn load<P: VertexProgram>(
        path: &Path,
    ) -> Result<EngineSnapshot<P>, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| io_err("read", &e))?;
        let payload = decode_container(&bytes)?;
        Ok(EngineSnapshot::<P>::from_wire(&payload)?)
    }

    /// Loads the newest snapshot that passes its checksums, falling back
    /// to older generations past corrupt ones. `Ok(None)` means no valid
    /// snapshot exists (a fresh start, not an error).
    pub fn load_latest<P: VertexProgram>(
        &self,
    ) -> Result<Option<EngineSnapshot<P>>, CheckpointError> {
        for (_, path) in self.list()? {
            match Self::load::<P>(&path) {
                Ok(snap) => return Ok(Some(snap)),
                // A torn newest generation is exactly what the retained
                // predecessor is for.
                Err(_) => continue,
            }
        }
        Ok(None)
    }
}

/// Checkpoint/resume configuration threaded into a machine loop.
/// `Default` means "fault tolerance off": no cadence, no store, no resume
/// — the path every in-process run takes.
pub struct RecoveryCfg<P: VertexProgram> {
    /// Snapshot every `every` supersteps (0 disables checkpointing).
    pub every: u64,
    /// Where snapshots go; required when `every > 0` or `resume` is set.
    pub store: Option<SnapshotStore>,
    /// A snapshot to resume from instead of a fresh init.
    pub resume: Option<EngineSnapshot<P>>,
}

impl<P: VertexProgram> Default for RecoveryCfg<P> {
    fn default() -> Self {
        RecoveryCfg {
            every: 0,
            store: None,
            resume: None,
        }
    }
}

impl<P: VertexProgram> RecoveryCfg<P> {
    /// Whether this superstep count lands on a checkpoint boundary.
    pub fn due(&self, iterations: u64) -> bool {
        self.every > 0 && self.store.is_some() && iterations.is_multiple_of(self.every)
    }
}

/// Takes one checkpoint at a superstep boundary (the skeleton's only
/// caller has already checked the cadence).
///
/// Ordering is load-bearing (DESIGN.md §12): the two replay watermarks are
/// captured *before* the barrier — `data_round` is the round this machine
/// sends next, `ctrl_round` is the round of the checkpoint barrier itself
/// (a resumed machine always re-executes that barrier, so `prune_log`'s
/// `>= watermark` retention keeps exactly the rounds replay needs). The
/// barrier guarantees every machine has durably saved before anyone prunes
/// the logs a rejoiner would replay from; it charges no simulated time, so
/// checkpointed and checkpoint-free oracle runs report identical
/// `sim_time` when both use the same cadence.
pub fn checkpoint_at_barrier<P: VertexProgram, M>(
    f: &Frame<'_, P, M>,
    store: &SnapshotStore,
    engine: EngineKind,
    extras: ResumeExtras,
) -> Result<(), CommError> {
    let fail = |what: &str, e: &dyn std::fmt::Display| CommError::Transport {
        me: f.me,
        detail: format!("checkpoint {what}: {e}"),
    };
    let tag = snapshot_tag(engine)
        .ok_or_else(|| fail("refused", &format_args!("{} has no snapshot tag", engine.name())))?;
    let coll = &f.bsp.coll;
    let data_round = f.port.ep.next_round();
    let ctrl_round = coll.next_round();
    let snap = EngineSnapshot::capture(
        tag,
        f.iterations,
        f.clock.now(),
        data_round,
        ctrl_round,
        &f.state,
        extras,
    );
    let bytes = store.save(&snap).map_err(|e| fail("save", &e))?;
    f.stats.record_snapshot_bytes(bytes);
    coll.barrier(f.me, &f.stats)?;
    f.port.ep.prune_log(data_round);
    coll.prune_log(ctrl_round);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{EdgeCtx, VertexCtx, VertexProgram};
    use lazygraph_graph::VertexId;

    #[derive(Debug)]
    struct P0;
    impl VertexProgram for P0 {
        type VData = u64;
        type Delta = u64;
        fn name(&self) -> &'static str {
            "ckpt-test"
        }
        fn init_data(&self, _v: VertexId, _ctx: &VertexCtx) -> u64 {
            0
        }
        fn init_message(&self, _v: VertexId, _ctx: &VertexCtx) -> Option<u64> {
            None
        }
        fn sum(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn inverse(&self, accum: u64, a: u64) -> u64 {
            accum - a
        }
        fn apply(&self, _v: VertexId, _data: &mut u64, _accum: u64, _ctx: &VertexCtx) -> Option<u64> {
            None
        }
        fn scatter(
            &self,
            _v: VertexId,
            _data: &u64,
            _d: u64,
            _ctx: &VertexCtx,
            _e: &EdgeCtx,
        ) -> Option<u64> {
            None
        }
    }

    fn sample_snapshot() -> EngineSnapshot<P0> {
        EngineSnapshot {
            engine: 1,
            iterations: 6,
            clock_bits: 1.5f64.to_bits(),
            data_round: 41,
            ctrl_round: 17,
            vdata: vec![1, 2, 3],
            coherent: vec![1, 2, 2],
            message: vec![None, Some(9), None],
            delta_msg: vec![Some(4), None, None],
            active: vec![false, true, false],
            queue: vec![1],
            lazy: Some(LazyResume {
                counters: LazyCounters {
                    coherency_points: 6,
                    local_subrounds: 11,
                    a2a_exchanges: 4,
                    m2m_exchanges: 2,
                },
                prev_active: Some(100),
                last_trend_bits: 0.25f64.to_bits(),
                iterations_seen: 5,
                do_local: true,
                first_stage_bits: Some(0.001f64.to_bits()),
                next_mode_m2m: true,
                coherency_cost_bits: 0.0445f64.to_bits(),
                last_sweep_bits: 0.0031f64.to_bits(),
            }),
            delta: None,
        }
    }

    fn sample_delta_snapshot() -> EngineSnapshot<P0> {
        let mut snap = sample_snapshot();
        snap.engine = 2;
        snap.lazy = None;
        snap.delta = Some(DeltaResume {
            counters: LazyCounters {
                coherency_points: 9,
                local_subrounds: 0,
                a2a_exchanges: 9,
                m2m_exchanges: 0,
            },
        });
        snap
    }

    #[test]
    fn container_round_trips() {
        for payload in [vec![], vec![7u8], vec![0xabu8; 3 * CKPT_CHUNK + 17]] {
            let framed = encode_container(&payload);
            assert_eq!(decode_container(&framed).unwrap(), payload);
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let back = EngineSnapshot::<P0>::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn delta_snapshot_round_trips() {
        let snap = sample_delta_snapshot();
        let back = EngineSnapshot::<P0>::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.engine, 2);
        assert_eq!(back.delta.unwrap().counters.coherency_points, 9);
    }

    #[test]
    fn older_snapshots_are_rejected_by_version_check() {
        // A current container with the version field rewritten to an older
        // one must fail the strict equality check, not decode garbage:
        // every version changed the field list (v4 and v5 appended fields,
        // v6 dropped v4's, v7 dropped v2's), so the payloads are
        // incompatible.
        let framed = encode_container(&sample_snapshot().to_wire());
        for version in [3u32, 4, 5, 6] {
            let mut old = framed.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_container(&old),
                Err(CheckpointError::BadHeader { .. })
            ));
        }
    }

    #[test]
    fn corrupted_chunk_is_a_typed_error() {
        let framed = encode_container(&[5u8; 100]);
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            decode_container(&bad),
            Err(CheckpointError::ChecksumMismatch { chunk: 0 })
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic() {
        let framed = encode_container(&[9u8; 300]);
        for cut in 0..framed.len() {
            // Every prefix must fail loudly but gracefully.
            assert!(decode_container(&framed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn store_saves_prunes_and_loads_latest() {
        let dir = std::env::temp_dir().join(format!("lzck-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 0);
        let mut snap = sample_snapshot();
        for it in [2u64, 4, 6] {
            snap.iterations = it;
            let bytes = store.save(&snap).unwrap();
            assert!(bytes > 0);
        }
        // Newest-2 retention: iteration 2 is gone, 4 and 6 remain.
        assert_eq!(store.list().unwrap().len(), 2);
        let latest = store.load_latest::<P0>().unwrap().unwrap();
        assert_eq!(latest.iterations, 6);
        // Corrupt the newest: load_latest falls back to iteration 4.
        let newest = store.file_name(6);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();
        let fallback = store.load_latest::<P0>().unwrap().unwrap();
        assert_eq!(fallback.iterations, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_is_a_fresh_start() {
        let dir = std::env::temp_dir().join(format!("lzck-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 3);
        assert!(store.load_latest::<P0>().unwrap().is_none());
    }
}
