//! Checkpoint/restart fault tolerance: periodic vertex snapshots riding
//! the engines' existing coherency barriers.
//!
//! A checkpoint is one machine's complete cross-iteration state — the
//! [`MachineState`](crate::state::MachineState) arrays, the simulated
//! clock and its breakdown, the iteration counter, the engine's carried
//! record ([`Superstep::Carry`](crate::machine::Superstep::Carry)) and the
//! machine's trace. Every machine snapshots at the same barrier, so one
//! generation across all machines is a consistent cut: no message is in
//! flight across it. A gang restarted from a generation every machine
//! holds re-executes from there, and the determinism contract makes the
//! rest of the run bitwise the undisturbed one's. DESIGN.md §12 walks
//! through the protocol.
//!
//! ## On-disk format (v12)
//!
//! ```text
//! [magic "LZCK" u32 LE][version u32]
//! chunk *: [len u64 > 0][fnv1a64 u64][len bytes]
//! end:     [0 u64][chunk count u64][sum of the chunks' len u64]
//! ```
//!
//! The chunks carry a stream of *elements* — `Wire` values — and always
//! end on an element boundary: the writer closes a chunk once it holds
//! [`CKPT_CHUNK`] bytes, so a chunk is at most `CKPT_CHUNK` plus one
//! element ([`CKPT_ELEMENT_MAX`]), and that sum is all a reader will ever
//! allocate for one, whatever a chunk header declares. The stream is
//!
//! ```text
//! SnapshotHeader                      -- alone in chunk 0
//! vdata:     n, then n values
//! coherent:  n, then per 32 vertices a word of 2-bit codes followed by
//!            the values of the vertices coded `explicit`
//! message:   n, then per 64 vertices an occupancy word followed by the
//!            occupied slots' values
//! delta_msg: as message
//! queue:     its length, then its entries
//! history:   its length, then its `StepRecord`s
//! ```
//!
//! and nothing of it is ever held whole: [`write_snapshot`] encodes
//! straight off `&MachineState` and [`SnapshotReader::restore_into`]
//! decodes straight into the arrays `MachineState::init` has just built,
//! both through one chunk buffer. The header holds the engine's carried
//! record as the bytes of its `Wire` encoding: the skeleton that wrote
//! them is the one that decodes them, into the resuming engine's own
//! `Carry`. The trace is a section, not a header field, because it grows
//! with the run and the header is one element. What a restart rebuilds
//! exactly is not written — `active` (it is `queue`'s membership), a
//! `coherent` entry that is bitwise `vdata`'s or still the initial view, an
//! empty inbox slot; DESIGN.md §12 has the table. Each chunk carries its own FNV-1a 64
//! checksum and the end record the chunk count and total length, so a torn
//! write, a flipped bit or a file cut at a chunk boundary surfaces as a
//! typed [`CheckpointError`] — never a panic, mirroring the torn-frame
//! rules of the wire transport. Snapshots are written to a temp file and
//! renamed into place (atomic on POSIX), and the two most recent
//! generations are kept so a snapshot torn mid-write still leaves a valid
//! predecessor.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use lazygraph_cluster::CommError;
use lazygraph_net::{wire_record, NetError, Wire, WireReader};

use crate::config::EngineKind;
use crate::machine::Frame;
use crate::metrics::{SimBreakdown, StepRecord};
use crate::program::VertexProgram;
use crate::state::{initial_data, MachineState};

/// Magic prefix of every checkpoint file ("LZCK", little-endian).
pub const CKPT_MAGIC: u32 = 0x4b435a4c;
/// Current checkpoint format version. v2 added the size of the parts a
/// round was once streamed in; v7 removed it with that path
/// (EXPERIMENTS.md, PR 20's verdict): a round is one batch per peer, so
/// there is no part boundary for replay to reproduce. v3 appended the
/// DeltaAccum engine's counters; the scheduler's
/// buckets themselves are a pure function of `MachineState` and carry no
/// state of their own. v4 appended a structural patch log and two lazy
/// extras for moving vertices between machines at run time; v6 removed all
/// three with the feature (EXPERIMENTS.md, PR 19's verdict): replicas are
/// placed once, so a resumed machine's shard file is its topology. v5
/// appended the last coherency point's cost and the last sweep's charge to
/// the lazy extras: a budgeted local stage is rationed against the cost of
/// the coherency point before it and predicts its first sub-round from the
/// sweep before it, and a restart at a superstep boundary can recompute neither. v8 is
/// the streamed layout of the module docs: the header record first, the
/// arrays as sections of whole elements, an end record, and only what a
/// restart cannot rebuild. v9 added the simulated-time breakdown and the
/// last sync's global clock to the header: every machine books the
/// breakdown, so a resumed one must continue its sums, not restart them.
/// v10 replaced the per-engine extras (a lazy block and a delta block,
/// each a hand-kept copy of engine fields) with `carry`, the bytes of the
/// engine's one carried record, and appended the trace as a section: a
/// resumed machine's trace continues from its snapshot instead of
/// restarting there. v11 dropped the two mesh round watermarks from the
/// header: a restarted gang builds fresh meshes at round 0 and replays
/// nothing. v12 changed the trace's record: the skeleton's `StepRecord`,
/// carrying the engine's carried record, replaced the engines' own.
pub const CKPT_VERSION: u32 = 12;
/// Payload bytes after which the writer closes a chunk.
pub const CKPT_CHUNK: usize = 1 << 20;
/// Largest encoding of one element (a value, or a mask word with the
/// values it announces): the writer refuses a larger one, so a chunk never
/// exceeds `CKPT_CHUNK + CKPT_ELEMENT_MAX` and a reader refuses any that
/// claims to.
pub const CKPT_ELEMENT_MAX: usize = 1 << 16;
/// `[len u64][fnv1a64 u64]` in front of every chunk.
const CHUNK_HEADER: usize = 16;

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
    /// The file ends inside a chunk, or before its end record.
    Truncated {
        /// Which chunk (0-based).
        chunk: u64,
    },
    /// A chunk's FNV-1a 64 checksum does not match its bytes.
    ChecksumMismatch {
        /// Which chunk (0-based).
        chunk: u64,
    },
    /// A chunk header declares more bytes than any writer puts in a chunk;
    /// nothing was allocated for it.
    ChunkTooLarge {
        /// Which chunk (0-based).
        chunk: u64,
        /// The declared length.
        len: u64,
    },
    /// One element encodes to more than [`CKPT_ELEMENT_MAX`] bytes; the
    /// snapshot was not written.
    ElementTooLarge {
        /// The element's encoded length.
        len: usize,
    },
    /// The chunks verify but what they carry is not a snapshot: a code or
    /// a queue entry no writer produces, an end record that disagrees with
    /// the chunks before it, bytes where the stream should have ended.
    Malformed {
        /// What was found.
        detail: String,
    },
    /// An element is not a valid encoding of its type.
    Decode(NetError),
    /// An array section was saved for a different number of local replicas
    /// than the state being restored has: a snapshot of another placement.
    WrongShape {
        /// Which section.
        array: &'static str,
        /// The length the section declares.
        found: u64,
        /// The length the state's arrays have.
        expected: usize,
    },
    /// The snapshot was taken by a different engine than the one resuming
    /// from it.
    WrongEngine {
        /// The snapshot's engine tag.
        found: u8,
        /// The engine that tried to resume.
        resuming: &'static str,
    },
}

impl CheckpointError {
    /// Whether this is what a torn or rotted file looks like — the one
    /// failure an older generation is kept for. An I/O error, another
    /// engine's snapshot and another placement's are none of that.
    pub fn is_corruption(&self) -> bool {
        match self {
            CheckpointError::BadHeader { .. }
            | CheckpointError::Truncated { .. }
            | CheckpointError::ChecksumMismatch { .. }
            | CheckpointError::ChunkTooLarge { .. }
            | CheckpointError::Malformed { .. }
            | CheckpointError::Decode(_) => true,
            CheckpointError::Io { .. }
            | CheckpointError::ElementTooLarge { .. }
            | CheckpointError::WrongShape { .. }
            | CheckpointError::WrongEngine { .. } => false,
        }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { what, detail } => write!(f, "checkpoint io ({what}): {detail}"),
            CheckpointError::BadHeader { detail } => write!(f, "bad checkpoint header: {detail}"),
            CheckpointError::Truncated { chunk } => write!(f, "chunk {chunk} truncated"),
            CheckpointError::ChecksumMismatch { chunk } => {
                write!(f, "chunk {chunk} checksum mismatch")
            }
            CheckpointError::ChunkTooLarge { chunk, len } => {
                write!(f, "chunk {chunk} declares {len} bytes, over the format's bound")
            }
            CheckpointError::ElementTooLarge { len } => {
                write!(f, "a {len}-byte element is over the format's {CKPT_ELEMENT_MAX}")
            }
            CheckpointError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
            CheckpointError::Decode(e) => write!(f, "snapshot element decode: {e}"),
            CheckpointError::WrongShape { array, found, expected } => write!(
                f,
                "snapshot holds {found} {array} entries, this shard has {expected} local replicas"
            ),
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

fn malformed(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed {
        detail: detail.into(),
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

/// The writing half of the container: elements go into one buffer, which
/// leaves as a checksummed chunk whenever it has filled.
pub struct ChunkWriter<W: Write> {
    out: W,
    /// [`CHUNK_HEADER`] bytes to be filled in, then the open chunk's
    /// elements: a chunk leaves in one `write_all`.
    buf: Vec<u8>,
    /// Chunks closed so far and the payload bytes they carried.
    chunks: u64,
    payload: u64,
    /// The superstep the container is a snapshot of — what the `ckpt:` fail
    /// point keys on beside the chunk number.
    generation: u64,
}

impl<W: Write> ChunkWriter<W> {
    /// Starts a container on `out` (magic and version leave at once).
    pub fn new(mut out: W, generation: u64) -> Result<Self, CheckpointError> {
        let mut buf = Vec::with_capacity(CHUNK_HEADER + CKPT_CHUNK + CKPT_ELEMENT_MAX);
        CKPT_MAGIC.encode(&mut buf);
        CKPT_VERSION.encode(&mut buf);
        out.write_all(&buf).map_err(|e| io_err("write", &e))?;
        buf.clear();
        buf.resize(CHUNK_HEADER, 0);
        Ok(ChunkWriter {
            out,
            buf,
            chunks: 0,
            payload: 0,
            generation,
        })
    }

    /// Appends one element.
    #[inline]
    pub fn put<T: Wire>(&mut self, v: &T) -> Result<(), CheckpointError> {
        let at = self.buf.len();
        v.encode(&mut self.buf);
        self.close_element(at)
    }

    /// Appends one element made of a mask word followed by the values it
    /// announces: `fill` appends the values and returns the word, which
    /// lands in front of them.
    fn put_masked(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>) -> u64,
    ) -> Result<(), CheckpointError> {
        let at = self.buf.len();
        0u64.encode(&mut self.buf);
        let word = fill(&mut self.buf);
        self.buf[at..at + 8].copy_from_slice(&word.to_le_bytes());
        self.close_element(at)
    }

    #[inline]
    fn close_element(&mut self, at: usize) -> Result<(), CheckpointError> {
        let len = self.buf.len() - at;
        if len > CKPT_ELEMENT_MAX {
            return Err(CheckpointError::ElementTooLarge { len });
        }
        if self.buf.len() - CHUNK_HEADER >= CKPT_CHUNK {
            self.end_chunk()?;
        }
        Ok(())
    }

    /// Closes the open chunk, if it holds anything: the next element
    /// starts a new one.
    pub fn end_chunk(&mut self) -> Result<(), CheckpointError> {
        let payload = &self.buf[CHUNK_HEADER..];
        if payload.is_empty() {
            return Ok(());
        }
        let (len, sum) = (payload.len() as u64, fnv1a64(payload));
        self.buf[..8].copy_from_slice(&len.to_le_bytes());
        self.buf[8..CHUNK_HEADER].copy_from_slice(&sum.to_le_bytes());
        self.out.write_all(&self.buf).map_err(|e| io_err("write", &e))?;
        self.chunks += 1;
        self.payload += len;
        self.buf.clear();
        self.buf.resize(CHUNK_HEADER, 0);
        lazygraph_cluster::failpoint_ckpt(self.generation, self.chunks);
        Ok(())
    }

    /// Closes the last chunk, writes the end record and returns the
    /// container's size in bytes.
    pub fn finish(mut self) -> Result<u64, CheckpointError> {
        self.end_chunk()?;
        // The open chunk is empty: its header slot carries the end record.
        self.buf[8..CHUNK_HEADER].copy_from_slice(&self.chunks.to_le_bytes());
        self.payload.encode(&mut self.buf);
        self.out.write_all(&self.buf).map_err(|e| io_err("write", &e))?;
        self.out.flush().map_err(|e| io_err("flush", &e))?;
        Ok(8 + self.chunks * CHUNK_HEADER as u64 + self.payload + self.buf.len() as u64)
    }
}

/// The reading half of the container: one chunk at a time in one buffer,
/// each verified before an element is decoded from it.
pub struct ChunkReader<R: Read> {
    src: R,
    buf: Vec<u8>,
    /// Next undecoded byte of `buf`.
    pos: usize,
    /// Chunks read so far and the payload bytes they carried.
    chunks: u64,
    payload: u64,
    /// The end record has been read and agreed with the two counts.
    ended: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Opens a container: checks magic and version, reads no chunk yet.
    pub fn new(mut src: R) -> Result<Self, CheckpointError> {
        let mut head = [0u8; 8];
        src.read_exact(&mut head).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => CheckpointError::BadHeader {
                detail: "file shorter than the header".into(),
            },
            _ => io_err("read", &e),
        })?;
        let mut r = WireReader::new(&head);
        let (magic, version) = (u32::decode(&mut r)?, u32::decode(&mut r)?);
        if magic != CKPT_MAGIC {
            return Err(CheckpointError::BadHeader {
                detail: format!("magic {magic:#010x} != {CKPT_MAGIC:#010x}"),
            });
        }
        if version != CKPT_VERSION {
            return Err(CheckpointError::BadHeader {
                detail: format!("version {version} != {CKPT_VERSION}"),
            });
        }
        Ok(ChunkReader {
            src,
            buf: Vec::new(),
            pos: 0,
            chunks: 0,
            payload: 0,
            ended: false,
        })
    }

    /// `read_exact` whose short read is this chunk's truncation.
    fn fill(&mut self, len: usize) -> Result<(), CheckpointError> {
        self.buf.resize(len, 0);
        self.pos = 0;
        self.src.read_exact(&mut self.buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => CheckpointError::Truncated { chunk: self.chunks },
            _ => io_err("read", &e),
        })
    }

    /// Loads and verifies the next chunk; `Ok(false)` once the end record
    /// has been read instead, has matched the chunks before it and is the
    /// last thing in the file.
    fn advance(&mut self) -> Result<bool, CheckpointError> {
        if self.ended {
            return Ok(false);
        }
        let chunk = self.chunks;
        self.fill(CHUNK_HEADER)?;
        let mut r = WireReader::new(&self.buf);
        let (len, sum) = (u64::decode(&mut r)?, u64::decode(&mut r)?);
        if len == 0 {
            // The end record: its second word sat where a checksum would.
            self.fill(8)?;
            let (chunks, payload) = (sum, u64::from_wire(&self.buf)?);
            if (chunks, payload) != (self.chunks, self.payload) {
                return Err(malformed(format!(
                    "the end record counts {chunks} chunks of {payload} bytes after {} of {}",
                    self.chunks, self.payload
                )));
            }
            let mut past = [0u8; 1];
            loop {
                match self.src.read(&mut past) {
                    Ok(0) => break,
                    Ok(_) => return Err(malformed("bytes after the end record")),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(io_err("read", &e)),
                }
            }
            self.buf.clear();
            self.pos = 0;
            self.ended = true;
            return Ok(false);
        }
        // A file must not drive an allocation: the buffer is sized once,
        // to the format's bound, and a header that claims more is refused.
        if len > (CKPT_CHUNK + CKPT_ELEMENT_MAX) as u64 {
            return Err(CheckpointError::ChunkTooLarge { chunk, len });
        }
        self.buf.clear();
        self.buf.reserve_exact(CKPT_CHUNK + CKPT_ELEMENT_MAX);
        self.fill(len as usize)?;
        if fnv1a64(&self.buf) != sum {
            return Err(CheckpointError::ChecksumMismatch { chunk });
        }
        self.chunks += 1;
        self.payload += len;
        Ok(true)
    }

    /// Decodes the next element.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T, CheckpointError> {
        if self.pos == self.buf.len() && !self.advance()? {
            return Err(malformed("the stream ends before its last element"));
        }
        let mut r = WireReader::new(&self.buf[self.pos..]);
        let v = T::decode(&mut r)?;
        self.pos = self.buf.len() - r.remaining();
        Ok(v)
    }

    /// Whether the chunk in the buffer has been decoded to its end.
    fn at_chunk_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Checks that the stream ends here: nothing undecoded in the buffer,
    /// then the end record, then the end of the file.
    pub fn finish(mut self) -> Result<(), CheckpointError> {
        if !self.at_chunk_end() {
            return Err(malformed("undecoded bytes after the last element"));
        }
        if self.advance()? {
            return Err(malformed("a chunk after the last element"));
        }
        Ok(())
    }
}

impl<R: Read + Seek> ChunkReader<R> {
    /// Reads the container to its end and checks everything that can be
    /// checked without decoding an element — every chunk's bound and
    /// checksum, the end record, the end of the file — then returns to the
    /// first chunk with the buffer the pass grew: verifying first costs a
    /// second read of the file and no second buffer.
    pub fn verified(mut self) -> Result<Self, CheckpointError> {
        while self.advance()? {}
        self.src.seek(SeekFrom::Start(8)).map_err(|e| io_err("seek", &e))?;
        (self.chunks, self.payload, self.ended) = (0, 0, false);
        Ok(self)
    }
}

/// The engine tag a snapshot carries — the one `EngineKind` → tag
/// mapping. Every engine has one: every step ends with nothing in flight,
/// so every step boundary is a cut a snapshot can be taken at.
pub fn snapshot_tag(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::PowerGraphSync => 0,
        EngineKind::LazyBlockAsync => 1,
        EngineKind::DeltaAccum => 2,
        EngineKind::PowerGraphAsync => 3,
        EngineKind::LazyVertexAsync => 4,
        EngineKind::PowerSwitchHybrid => 5,
    }
}

/// What a snapshot says before its arrays: everything of the skeleton's
/// and the engine's cross-iteration state that is not a per-vertex array
/// or the trace. Alone in the file's first chunk.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotHeader {
    /// Engine tag ([`snapshot_tag`]): 0 = Sync, 1 = LazyBlock,
    /// 2 = DeltaAccum, 3 = Async, 4 = LazyVertex, 5 = the hybrid. A
    /// machine only resumes from a snapshot of the engine it is running
    /// ([`Self::check_engine`]).
    pub engine: u8,
    /// Supersteps completed when the snapshot was taken.
    pub iterations: u64,
    /// The machine's simulated clock.
    pub clock: f64,
    /// The machine's simulated-time breakdown so far.
    pub breakdown: SimBreakdown,
    /// `BspSync::last_global`: the global clock the last sync set, from
    /// which the next sync books compute.
    pub last_global: f64,
    /// The `Wire` bytes of the engine's
    /// [`Carry`](crate::machine::Superstep::Carry) (none for an engine
    /// that carries nothing).
    pub carry: Vec<u8>,
}

wire_record!(SnapshotHeader {
    engine,
    iterations,
    clock,
    breakdown,
    last_global,
    carry,
});

impl SnapshotHeader {
    /// Fails unless this snapshot was taken by engine `kind`.
    pub fn check_engine(&self, kind: EngineKind) -> Result<(), CheckpointError> {
        if snapshot_tag(kind) == self.engine {
            Ok(())
        } else {
            Err(CheckpointError::WrongEngine {
                found: self.engine,
                resuming: kind.name(),
            })
        }
    }

    /// Fails unless a run can resume its clock here: a simulated clock
    /// starts at zero and never runs backwards.
    pub fn check_clock(&self) -> Result<(), CheckpointError> {
        if self.clock.is_nan() || self.clock < 0.0 {
            return Err(malformed(format!("the header's clock is {} s", self.clock)));
        }
        Ok(())
    }
}

/// `coherent[l]` codes, two bits a vertex, 32 vertices a word. Only
/// `LazyStep`'s coherency sweep ever writes `coherent`, and it writes the
/// value it is about to store in `vdata`: an entry is the initial view
/// until then and `vdata`'s own until a local stage moves `vdata` on.
const COHERENT_IS_VDATA: u64 = 0;
const COHERENT_IS_INITIAL: u64 = 1;
const COHERENT_EXPLICIT: u64 = 2;
const COHERENT_GROUP: usize = 32;
/// Inbox slots an occupancy word covers.
const SLOT_GROUP: usize = 64;

/// Whether `v` encodes to exactly `bytes` — equality as a restart sees it,
/// which `PartialEq` is not (`-0.0 == 0.0`, `NaN != NaN`).
fn encodes_as<T: Wire>(v: &T, bytes: &[u8], scratch: &mut Vec<u8>) -> bool {
    scratch.clear();
    v.encode(scratch);
    scratch == bytes
}

/// `active` is `queue`'s membership, by construction: a vertex is flagged
/// exactly when it is pushed (`deliver`, the fold's `newly`), a taken
/// worklist's entries are each unflagged or pushed back, and a checkpoint
/// is taken with no worklist in flight. That is why it is not written.
fn active_is_queue(active: &[bool], queue: &[u32]) -> bool {
    queue.len() == active.iter().filter(|&&a| a).count()
        && queue.iter().all(|&l| active.get(l as usize) == Some(&true))
}

fn write_slots<D: Wire, W: Write>(
    w: &mut ChunkWriter<W>,
    slots: &[Option<D>],
) -> Result<(), CheckpointError> {
    w.put(&(slots.len() as u64))?;
    for group in slots.chunks(SLOT_GROUP) {
        w.put_masked(|buf| {
            let mut occupied = 0u64;
            for (i, slot) in group.iter().enumerate() {
                if let Some(d) = slot {
                    occupied |= 1 << i;
                    d.encode(buf);
                }
            }
            occupied
        })?;
    }
    Ok(())
}

/// Streams one snapshot — `header`, then `state`'s arrays, then the
/// machine's trace `history` — into `out` and returns the container's
/// size. `initial(l)` is the value
/// `MachineState::init` gives local vertex `l`: where `coherent[l]` still
/// holds it, nothing is written. The pattern has no `..`: a new
/// `MachineState` array that is neither written, rebuilt nor exempted here
/// (and in [`SnapshotReader::restore_into`]) does not compile.
pub fn write_snapshot<P: VertexProgram, W: Write>(
    out: W,
    header: &SnapshotHeader,
    state: &MachineState<P>,
    history: &[StepRecord],
    initial: impl Fn(u32) -> P::VData,
) -> Result<u64, CheckpointError> {
    // `scratch` is exempt: capacity-only buffers, always written before
    // read; a recovered worker regrows them from empty with
    // bitwise-identical results. `active` is rebuilt from `queue`.
    let MachineState { vdata, coherent, message, delta_msg, active, queue, scratch: _ } = state;
    // Invariant: every engine moves `active` with `queue`, and a restore
    // rebuilds it from the queue.
    debug_assert!(active_is_queue(active, queue), "`active` is not `queue`'s membership");
    let n = vdata.len() as u64;
    let mut w = ChunkWriter::new(out, header.iterations)?;
    w.put(header)?;
    w.end_chunk()?;

    w.put(&n)?;
    for v in vdata {
        w.put(v)?;
    }

    w.put(&(coherent.len() as u64))?;
    let mut scratch = Vec::new();
    let groups = coherent.chunks(COHERENT_GROUP).zip(vdata.chunks(COHERENT_GROUP));
    for (g, (views, values)) in groups.enumerate() {
        w.put_masked(|buf| {
            let mut codes = 0u64;
            for (i, (view, value)) in views.iter().zip(values).enumerate() {
                let at = buf.len();
                view.encode(buf);
                let code = if encodes_as(value, &buf[at..], &mut scratch) {
                    COHERENT_IS_VDATA
                } else if encodes_as(
                    &initial((g * COHERENT_GROUP + i) as u32),
                    &buf[at..],
                    &mut scratch,
                ) {
                    COHERENT_IS_INITIAL
                } else {
                    COHERENT_EXPLICIT
                };
                if code != COHERENT_EXPLICIT {
                    buf.truncate(at);
                }
                codes |= code << (2 * i);
            }
            codes
        })?;
    }

    write_slots(&mut w, message)?;
    write_slots(&mut w, delta_msg)?;

    w.put(&(queue.len() as u64))?;
    for l in queue {
        w.put(l)?;
    }

    w.put(&(history.len() as u64))?;
    for record in history {
        w.put(record)?;
    }
    w.finish()
}

/// Reads a section's length and refuses one that is not `expected`.
fn section<R: Read>(
    chunks: &mut ChunkReader<R>,
    array: &'static str,
    expected: usize,
) -> Result<(), CheckpointError> {
    let found: u64 = chunks.get()?;
    if found != expected as u64 {
        return Err(CheckpointError::WrongShape { array, found, expected });
    }
    Ok(())
}

fn read_slots<D: Wire, R: Read>(
    chunks: &mut ChunkReader<R>,
    array: &'static str,
    slots: &mut [Option<D>],
) -> Result<(), CheckpointError> {
    section(chunks, array, slots.len())?;
    for group in slots.chunks_mut(SLOT_GROUP) {
        let mut occupied: u64 = chunks.get()?;
        for slot in group {
            *slot = if occupied & 1 == 1 { Some(chunks.get()?) } else { None };
            occupied >>= 1;
        }
        if occupied != 0 {
            return Err(malformed(format!("{array}: occupancy past the last slot")));
        }
    }
    Ok(())
}

/// An open snapshot whose header has been read: what `--resume` needs
/// before the meshes are connected, with the arrays still in the file.
pub struct SnapshotReader<R: Read> {
    header: SnapshotHeader,
    chunks: ChunkReader<R>,
}

impl<R: Read> SnapshotReader<R> {
    /// Reads `src` up to the end of its header chunk.
    pub fn open(src: R) -> Result<Self, CheckpointError> {
        Self::at_first_chunk(ChunkReader::new(src)?)
    }

    fn at_first_chunk(mut chunks: ChunkReader<R>) -> Result<Self, CheckpointError> {
        let header: SnapshotHeader = chunks.get()?;
        if !chunks.at_chunk_end() {
            return Err(malformed("the header does not fill its chunk"));
        }
        Ok(SnapshotReader { header, chunks })
    }

    /// The header record.
    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// Streams the arrays into `state`, which must be as
    /// `MachineState::init` built it for the machine that saved them — a
    /// `coherent` entry saved as the initial view is left as it stands —
    /// and the trace into `history`, and hands the header back. Every
    /// section's length is checked against the state's (the trace's against
    /// the superstep count: at most one record a superstep) before a slot
    /// of it is filled; on an error the state is part old, part new, and
    /// the run it belonged to is over.
    pub fn restore_into<P: VertexProgram>(
        self,
        state: &mut MachineState<P>,
        history: &mut Vec<StepRecord>,
    ) -> Result<SnapshotHeader, CheckpointError> {
        let SnapshotReader { header, mut chunks } = self;
        let MachineState { vdata, coherent, message, delta_msg, active, queue, scratch: _ } = state;
        let n = vdata.len();

        section(&mut chunks, "vdata", n)?;
        for v in vdata.iter_mut() {
            *v = chunks.get()?;
        }

        section(&mut chunks, "coherent", coherent.len())?;
        for (views, values) in coherent.chunks_mut(COHERENT_GROUP).zip(vdata.chunks(COHERENT_GROUP)) {
            let mut codes: u64 = chunks.get()?;
            for (view, value) in views.iter_mut().zip(values) {
                match codes & 3 {
                    COHERENT_IS_VDATA => *view = value.clone(),
                    COHERENT_IS_INITIAL => {}
                    COHERENT_EXPLICIT => *view = chunks.get()?,
                    code => return Err(malformed(format!("coherent: code {code}"))),
                }
                codes >>= 2;
            }
            if codes != 0 {
                return Err(malformed("coherent: codes past the last vertex"));
            }
        }

        read_slots(&mut chunks, "message", message)?;
        read_slots(&mut chunks, "delta_msg", delta_msg)?;

        let len: u64 = chunks.get()?;
        if len > active.len() as u64 {
            return Err(CheckpointError::WrongShape {
                array: "queue",
                found: len,
                expected: active.len(),
            });
        }
        active.fill(false);
        queue.clear();
        queue.reserve_exact(len as usize);
        for _ in 0..len {
            let l: u32 = chunks.get()?;
            match active.get_mut(l as usize) {
                Some(flag) if !*flag => *flag = true,
                Some(_) => return Err(malformed(format!("queue: vertex {l} twice"))),
                None => return Err(malformed(format!("queue: vertex {l} of {n}"))),
            }
            queue.push(l);
        }

        let len: u64 = chunks.get()?;
        if len > header.iterations {
            return Err(malformed(format!(
                "history: {len} records after {} supersteps",
                header.iterations
            )));
        }
        history.clear();
        for _ in 0..len {
            history.push(chunks.get()?);
        }
        chunks.finish()?;
        Ok(header)
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

    /// Writes one snapshot atomically ([`write_snapshot`] into a temp
    /// file, synced, renamed), prunes all but the two newest generations,
    /// and returns the file's size in bytes.
    pub fn save<P: VertexProgram>(
        &self,
        header: &SnapshotHeader,
        state: &MachineState<P>,
        history: &[StepRecord],
        initial: impl Fn(u32) -> P::VData,
    ) -> Result<u64, CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err("create_dir_all", &e))?;
        let tmp = self.dir.join(format!("ckpt-{}-{:012}.tmp", self.me, header.iterations));
        let bytes = {
            let mut f = File::create(&tmp).map_err(|e| io_err("create", &e))?;
            let bytes = write_snapshot(&mut f, header, state, history, initial)?;
            f.sync_all().map_err(|e| io_err("sync", &e))?;
            bytes
        };
        std::fs::rename(&tmp, self.file_name(header.iterations))
            .map_err(|e| io_err("rename", &e))?;
        self.prune_old(2)?;
        Ok(bytes)
    }

    /// This machine's files with the given extension, by iteration.
    fn list(&self, extension: &str) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
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
            let Some(iter_str) = rest.strip_suffix(extension) else { continue };
            let Ok(iteration) = iter_str.parse::<u64>() else { continue };
            found.push((iteration, entry.path()));
        }
        Ok(found)
    }

    /// All of this machine's snapshot files, newest iteration first.
    fn generations(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut found = self.list(".ck")?;
        found.sort_by_key(|e| std::cmp::Reverse(e.0));
        Ok(found)
    }

    fn prune_old(&self, keep: usize) -> Result<(), CheckpointError> {
        for (_, path) in self.generations()?.into_iter().skip(keep) {
            // Best-effort: a stale file is wasted disk, not corruption.
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// The generations of this machine whose files verify, newest first:
    /// what the launcher intersects over the gang to choose the generation
    /// a restart resumes from. First removes what a save this machine died
    /// in left behind: its `ckpt-<rank>-*.tmp`, never another rank's. A
    /// corrupt generation ([`CheckpointError::is_corruption`]) is reported
    /// to `skipped` and passed over — that is what its predecessor is kept
    /// for; any other failure is the caller's. Empty means a fresh start.
    pub fn verified(
        &self,
        mut skipped: impl FnMut(&Path, &CheckpointError),
    ) -> Result<Vec<u64>, CheckpointError> {
        for (_, torn) in self.list(".tmp")? {
            let _ = std::fs::remove_file(torn);
        }
        let mut found = Vec::new();
        for (iteration, path) in self.generations()? {
            match self.open_at(iteration) {
                Ok(_) => found.push(iteration),
                Err(e) if e.is_corruption() => skipped(&path, &e),
                Err(e) => return Err(e),
            }
        }
        Ok(found)
    }

    /// Opens generation `iteration` for a resume. Its whole container is
    /// verified before its header is trusted, so a corrupt chunk is found
    /// while an older generation can still be chosen.
    pub fn open_at(&self, iteration: u64) -> Result<SnapshotReader<File>, CheckpointError> {
        let file = File::open(self.file_name(iteration)).map_err(|e| io_err("open", &e))?;
        ChunkReader::new(file)
            .and_then(ChunkReader::verified)
            .and_then(SnapshotReader::at_first_chunk)
    }

    /// Removes every generation newer than `keep` — all of them when
    /// `None` — so that a restart from `keep` saves its own next
    /// generations over nothing the retention could mistake for newer.
    pub fn discard_after(&self, keep: Option<u64>) -> Result<(), CheckpointError> {
        for (iteration, path) in self.generations()? {
            if keep.is_none_or(|keep| iteration > keep) {
                std::fs::remove_file(path).map_err(|e| io_err("remove", &e))?;
            }
        }
        Ok(())
    }
}

/// Checkpoint/resume configuration threaded into a machine loop.
/// `Default` means "fault tolerance off": no cadence, no store, no resume
/// — the path every in-process run takes.
#[derive(Default)]
pub struct RecoveryCfg {
    /// Snapshot every `every` supersteps (0 disables checkpointing).
    pub every: u64,
    /// Where snapshots go; required when `every > 0`.
    pub store: Option<SnapshotStore>,
    /// An open snapshot to resume from instead of a fresh start.
    pub resume: Option<SnapshotReader<File>>,
}

impl RecoveryCfg {
    /// Whether this superstep count lands on a checkpoint boundary.
    pub fn due(&self, iterations: u64) -> bool {
        self.every > 0 && self.store.is_some() && iterations.is_multiple_of(self.every)
    }
}

/// Takes one checkpoint at a superstep boundary (the skeleton's only
/// caller has already checked the cadence): the frame, and `carry`, the
/// engine's carried record.
///
/// The barrier after the save is load-bearing (DESIGN.md §12): no machine
/// starts the next generation's save — whose retention would delete the
/// generation before this one — until every machine has durably saved
/// this one. So every machine stays within one generation of every other,
/// and with two generations kept a generation all of them hold always
/// exists. The barrier charges no simulated time and counts no global
/// sync, so checkpointed and checkpoint-free runs report identical
/// `sim_time` and `global_syncs`.
pub fn checkpoint_at_barrier<P: VertexProgram, M: Wire + Send>(
    f: &mut Frame<'_, P, M>,
    store: &SnapshotStore,
    engine: EngineKind,
    carry: &impl Wire,
) -> Result<(), CommError> {
    let fail = |what: &str, e: &dyn std::fmt::Display| CommError::Transport {
        me: f.me,
        detail: format!("checkpoint {what}: {e}"),
    };
    let header = SnapshotHeader {
        engine: snapshot_tag(engine),
        iterations: f.iterations,
        clock: f.clock.now(),
        breakdown: f.bsp.breakdown,
        last_global: f.bsp.last_global,
        carry: carry.to_wire(),
    };
    let initial = |l| initial_data(f.shard, f.program, l, f.num_vertices);
    let bytes =
        store.save(&header, &f.state, &f.history, initial).map_err(|e| fail("save", &e))?;
    f.stats.record_snapshot_bytes(bytes);
    f.port.uncounted_barrier()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_mode::CommMode;
    use crate::lazy_block::{LazyCarry, LazyCounters};
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

    fn sample_header() -> SnapshotHeader {
        let carry = LazyCarry {
            counters: LazyCounters {
                coherency_points: 6,
                local_subrounds: 11,
                a2a_exchanges: 4,
                m2m_exchanges: 2,
            },
            do_local: true,
            first_stage_time: Some(0.001),
            coherency_cost: 0.0445,
            last_sweep_cost: 0.0031,
            next_mode: CommMode::MirrorsToMaster,
            ..Default::default()
        };
        SnapshotHeader {
            engine: 1,
            iterations: 6,
            clock: 1.5,
            breakdown: SimBreakdown {
                compute: 1.25,
                comm: 0.125,
                barrier: 0.0625,
                ..Default::default()
            },
            last_global: 1.4375,
            carry: carry.to_wire(),
        }
    }

    /// A one-record trace.
    fn sample_history() -> Vec<StepRecord> {
        let header = sample_header();
        vec![StepRecord {
            superstep: header.iterations,
            sim_time: header.clock,
            breakdown: header.breakdown,
            carry: header.carry,
        }]
    }

    /// The initial view of `sample_state`'s machine.
    fn initial(l: u32) -> u64 {
        100 + l as u64
    }

    /// Three vertices, one per `coherent` code: `vdata`'s own value, the
    /// initial view, neither.
    fn sample_state() -> MachineState<P0> {
        MachineState {
            vdata: vec![1, 2, 3],
            coherent: vec![1, initial(1), 2],
            message: vec![None, Some(9), None],
            delta_msg: vec![Some(4), None, None],
            active: vec![false, true, false],
            queue: vec![1],
            scratch: Default::default(),
        }
    }

    fn fresh_state() -> MachineState<P0> {
        MachineState {
            vdata: (0..3).map(initial).collect(),
            coherent: (0..3).map(initial).collect(),
            message: vec![Some(7); 3],
            delta_msg: vec![None; 3],
            active: vec![true; 3],
            queue: vec![0, 1, 2],
            scratch: Default::default(),
        }
    }

    /// The whole-container check `open_at` makes before it trusts a file.
    fn verify(file: &[u8]) -> Result<(), CheckpointError> {
        ChunkReader::new(std::io::Cursor::new(file))?.verified().map(drop)
    }

    fn sample_file() -> Vec<u8> {
        let mut file = Vec::new();
        let (header, history) = (sample_header(), sample_history());
        let bytes = write_snapshot(&mut file, &header, &sample_state(), &history, initial).unwrap();
        assert_eq!(bytes, file.len() as u64);
        file
    }

    #[test]
    fn elements_round_trip_across_chunk_boundaries() {
        for count in [0usize, 1, CKPT_CHUNK / 8 - 1, CKPT_CHUNK / 8, 3 * (CKPT_CHUNK / 8) + 17] {
            let mut file = Vec::new();
            let mut w = ChunkWriter::new(&mut file, 0).unwrap();
            for i in 0..count as u64 {
                w.put(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).unwrap();
            }
            assert_eq!(w.finish().unwrap(), file.len() as u64);
            verify(&file).unwrap();
            let mut r = ChunkReader::new(&file[..]).unwrap();
            for i in 0..count as u64 {
                assert_eq!(r.get::<u64>().unwrap(), i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            }
            assert_eq!(r.chunks, (count * 8).div_ceil(CKPT_CHUNK) as u64);
            r.finish().unwrap();
        }
    }

    #[test]
    fn snapshot_round_trips_into_a_fresh_state() {
        let file = sample_file();
        let reader = SnapshotReader::open(&file[..]).unwrap();
        assert_eq!(reader.header(), &sample_header());
        let (mut state, saved) = (fresh_state(), sample_state());
        let mut history = Vec::new();
        assert_eq!(reader.restore_into(&mut state, &mut history).unwrap(), sample_header());
        assert_eq!(history, sample_history());
        assert_eq!(state.vdata, saved.vdata);
        assert_eq!(state.coherent, saved.coherent);
        assert_eq!(state.message, saved.message);
        assert_eq!(state.delta_msg, saved.delta_msg);
        assert_eq!(state.active, saved.active);
        assert_eq!(state.queue, saved.queue);
    }

    #[test]
    fn only_what_a_restart_cannot_rebuild_is_written() {
        // 8 magic + version; the header chunk; then one chunk: vdata n + 3
        // values, coherent n + one code word + the one explicit value,
        // message and delta_msg n + one occupancy word + one value each,
        // queue length + one entry, history length + one record; the end
        // record.
        let header = sample_header().to_wire().len();
        let record = sample_history()[0].to_wire().len();
        let arrays = (8 + 3 * 8) + (8 + 8 + 8) + 2 * (8 + 8 + 8) + (8 + 4) + (8 + record);
        assert_eq!(sample_file().len(), 8 + (16 + header) + (16 + arrays) + 24);
    }

    #[test]
    fn another_placements_snapshot_is_a_typed_refusal() {
        let file = sample_file();
        let mut state = fresh_state();
        for array in [&mut state.vdata, &mut state.coherent] {
            array.push(0);
        }
        state.message.push(None);
        state.delta_msg.push(None);
        state.active.push(false);
        let reader = SnapshotReader::open(&file[..]).unwrap();
        let err = reader.restore_into(&mut state, &mut Vec::new()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::WrongShape { array: "vdata", found: 3, expected: 4 }),
            "{err}"
        );
        assert!(!err.is_corruption());
    }

    /// A header whose clock is below zero or not a number still opens (the
    /// container round-trips any bits), but no run resumes from it: its
    /// clock would run backwards.
    #[test]
    fn a_clock_below_zero_is_a_typed_refusal() {
        sample_header().check_clock().unwrap();
        for clock in [-1.0, f64::NAN] {
            let mut file = Vec::new();
            let header = SnapshotHeader { clock, ..sample_header() };
            write_snapshot(&mut file, &header, &sample_state(), &sample_history(), initial).unwrap();
            let err = SnapshotReader::open(&file[..]).unwrap().header().check_clock().err();
            assert!(matches!(err, Some(CheckpointError::Malformed { .. })), "{clock}: {err:?}");
        }
    }

    #[test]
    fn a_declared_chunk_length_never_drives_an_allocation() {
        let mut file = sample_file();
        // Chunk 0's length field follows magic and version.
        file[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = verify(&file).unwrap_err();
        assert!(matches!(err, CheckpointError::ChunkTooLarge { chunk: 0, len } if len == 1 << 40));
        // One byte over the bound is refused; the bound itself only fails
        // for want of bytes.
        let bound = (CKPT_CHUNK + CKPT_ELEMENT_MAX) as u64;
        file[8..16].copy_from_slice(&(bound + 1).to_le_bytes());
        assert!(matches!(verify(&file), Err(CheckpointError::ChunkTooLarge { .. })));
        file[8..16].copy_from_slice(&bound.to_le_bytes());
        assert!(matches!(verify(&file), Err(CheckpointError::Truncated { chunk: 0 })));
    }

    #[test]
    fn an_oversized_element_is_refused_by_the_writer() {
        let mut w = ChunkWriter::new(Vec::new(), 0).unwrap();
        let err = w.put(&vec![0u8; CKPT_ELEMENT_MAX]).unwrap_err();
        assert!(matches!(err, CheckpointError::ElementTooLarge { len } if len == CKPT_ELEMENT_MAX + 4));
    }

    #[test]
    fn older_snapshots_are_rejected_by_version_check() {
        // A current file with the version field rewritten to an older one
        // must fail the strict equality check, not decode garbage: every
        // version changed the layout.
        let file = sample_file();
        for version in [3u32, 4, 5, 6, 7, 8, 9, 10, 11] {
            let mut old = file.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(verify(&old), Err(CheckpointError::BadHeader { .. })));
            assert!(matches!(
                SnapshotReader::open(&old[..]).err(),
                Some(CheckpointError::BadHeader { .. })
            ));
        }
    }

    #[test]
    fn corrupted_chunk_is_a_typed_error() {
        let file = sample_file();
        let mut bad = file.clone();
        // The last byte before the 24-byte end record is chunk 1's.
        bad[file.len() - 25] ^= 0xff;
        assert!(matches!(verify(&bad), Err(CheckpointError::ChecksumMismatch { chunk: 1 })));
        // The header chunk verifies on its own; the arrays do not restore.
        let reader = SnapshotReader::open(&bad[..]).unwrap();
        assert!(matches!(
            reader.restore_into(&mut fresh_state(), &mut Vec::new()),
            Err(CheckpointError::ChecksumMismatch { chunk: 1 })
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic() {
        let file = sample_file();
        for cut in 0..file.len() {
            // Every prefix must fail loudly but gracefully — one cut at a
            // chunk boundary included: the end record is missing.
            assert!(verify(&file[..cut]).is_err(), "cut at {cut}");
            let restored = SnapshotReader::open(&file[..cut])
                .and_then(|r| r.restore_into(&mut fresh_state(), &mut Vec::new()));
            assert!(restored.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn store_saves_and_prunes() {
        let dir = std::env::temp_dir().join(format!("lzck-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 0);
        let mut header = sample_header();
        for it in [2u64, 4, 6] {
            header.iterations = it;
            let bytes = store.save(&header, &sample_state(), &sample_history(), initial).unwrap();
            assert!(bytes > 0);
        }
        // Newest-2 retention: iteration 2 is gone, 4 and 6 remain.
        assert_eq!(store.generations().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a gang restart asks of one rank's store: the generations that
    /// verify, newest first and without a corrupt one; exactly the chosen
    /// one, opened; and nothing newer than it left behind.
    #[test]
    fn store_lists_verified_generations_opens_one_and_discards_newer() {
        let dir = std::env::temp_dir().join(format!("lzck-gang-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 1);
        let mut header = sample_header();
        for it in [4u64, 6] {
            header.iterations = it;
            store.save(&header, &sample_state(), &sample_history(), initial).unwrap();
        }
        let none_skipped = |path: &Path, e: &CheckpointError| panic!("{}: {e}", path.display());
        assert_eq!(store.verified(none_skipped).unwrap(), [6, 4]);
        assert_eq!(store.open_at(4).unwrap().header().iterations, 4);
        assert!(matches!(store.open_at(2), Err(CheckpointError::Io { .. })));

        let newest = store.file_name(6);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();
        let mut skipped = 0;
        assert_eq!(store.verified(|_, _| skipped += 1).unwrap(), [4]);
        assert_eq!(skipped, 1);
        assert!(store.open_at(6).err().is_some_and(|e| e.is_corruption()));

        store.discard_after(Some(4)).unwrap();
        assert_eq!(store.verified(none_skipped).unwrap(), [4]);
        assert!(!newest.exists());
        store.discard_after(None).unwrap();
        assert!(store.verified(none_skipped).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_is_a_fresh_start() {
        let dir = std::env::temp_dir().join(format!("lzck-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 3);
        assert!(store.verified(|_, _| {}).unwrap().is_empty());
    }
}
