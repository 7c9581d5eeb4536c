//! Checkpoint on-disk format laws (DESIGN.md §12), mirroring the
//! torn-frame suites in `wire_transport.rs`: the chunked container and
//! the snapshot streamed through it must round-trip bit-exactly, and
//! *every* way a file can be damaged — truncation at any prefix,
//! corruption of any single byte — must surface a typed
//! [`CheckpointError`], never a panic and never silently-wrong bytes.
//! The format never holds a snapshot whole, so the laws are stated on the
//! two ends it streams between: a `MachineState` and a file.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use lazygraph::prelude::*;
use lazygraph_cluster::{
    build_endpoints, try_run_machines, CommError, NetStats, SimClock, StatsSnapshot, TransportKind,
};
use lazygraph_engine::bsp::BspSync;
use lazygraph_engine::checkpoint::{
    checkpoint_at_barrier, fnv1a64, snapshot_tag, write_snapshot, CheckpointError,
    ChunkReader, ChunkWriter, RecoveryCfg, SnapshotHeader, SnapshotReader, SnapshotStore,
    CKPT_CHUNK, CKPT_MAGIC,
};
use lazygraph_engine::async_engine::AsyncPump;
use lazygraph_engine::delta_engine::DeltaStep;
use lazygraph_engine::exchange::Port;
use lazygraph_engine::hybrid_engine::HybridStep;
use lazygraph_engine::lazy_block::{LazyCarry, LazyStep};
use lazygraph_engine::lazy_vertex::LazyVertexPump;
use lazygraph_engine::machine::{Frame, Superstep, Vote};
use lazygraph_engine::metrics::StepRecord;
use lazygraph_engine::state::{Held, MachineState, Slots};
use lazygraph_engine::sync_engine::SyncStep;
use lazygraph_engine::{run_mesh_engine, Attach, ParallelCtx, Seat, SimBreakdown};
use lazygraph_net::Wire;
use lazygraph_partition::{partition_graph, LocalShard, PartitionStrategy, SplitterConfig};

// ---------------------------------------------------------------------------
// Container laws
// ---------------------------------------------------------------------------

/// The whole-container check `SnapshotStore::open_at` makes before it
/// trusts a file: every chunk's bound and checksum, the end record, the end
/// of the file — no element decoded.
fn verify(file: &[u8]) -> Result<(), CheckpointError> {
    ChunkReader::new(std::io::Cursor::new(file))?.verified().map(drop)
}

/// `payload` as a container of one-byte elements.
fn container_of(payload: &[u8]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut w = ChunkWriter::new(&mut file, 0).expect("start");
    for b in payload {
        w.put(b).expect("put");
    }
    assert_eq!(w.finish().expect("finish"), file.len() as u64);
    file
}

/// Reads `len` one-byte elements and the end of the stream.
fn payload_of(file: &[u8], len: usize) -> Result<Vec<u8>, CheckpointError> {
    let mut r = ChunkReader::new(file)?;
    let payload = (0..len).map(|_| r.get::<u8>()).collect::<Result<Vec<u8>, _>>()?;
    r.finish()?;
    Ok(payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload survives the chunked container bit-exactly, and the
    /// encoding itself is deterministic.
    #[test]
    fn container_round_trips(payload in proptest::collection::vec(any::<u8>(), 0usize..4096)) {
        let file = container_of(&payload);
        prop_assert_eq!(&file, &container_of(&payload), "encode must be deterministic");
        verify(&file).expect("verify");
        prop_assert_eq!(payload_of(&file, payload.len()).expect("decode"), payload);
    }

    /// A file cut at any prefix is a typed error — never a panic, never
    /// a short payload that decodes "successfully".
    #[test]
    fn truncation_at_any_prefix_is_typed(
        payload in proptest::collection::vec(any::<u8>(), 1usize..512),
        frac in 0.0f64..1.0,
    ) {
        let file = container_of(&payload);
        let cut = ((file.len() - 1) as f64 * frac) as usize;
        prop_assert!(
            verify(&file[..cut]).is_err() && payload_of(&file[..cut], payload.len()).is_err(),
            "a {cut}-byte prefix of a {}-byte container decoded", file.len()
        );
    }

    /// Flipping any single byte is *detected*: the decode either fails
    /// with a typed error or — never — succeeds with different bytes.
    /// (No flip is undetectable: header bytes break the magic/version,
    /// length bytes break framing, data bytes break the FNV-1a checksum,
    /// checksum bytes break themselves, end-record bytes disagree with the
    /// chunks that were counted.)
    #[test]
    fn any_single_byte_flip_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1usize..512),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let mut file = container_of(&payload);
        let pos = ((file.len() - 1) as f64 * pos_frac) as usize;
        file[pos] ^= flip;
        prop_assert!(verify(&file).is_err(), "corruption at byte {pos} verified");
        match payload_of(&file, payload.len()) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(
                back, payload,
                "corruption at byte {} decoded to different bytes", pos
            ),
        }
    }

    /// FNV-1a is the format's integrity primitive: incremental identity
    /// with the reference fold, and any flipped byte changes the sum.
    #[test]
    fn fnv1a_reference_fold(bytes in proptest::collection::vec(any::<u8>(), 0usize..256)) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        prop_assert_eq!(fnv1a64(&bytes), h);
    }
}

/// Chunk boundaries are exercised deterministically (proptest payloads
/// stay small to keep the suite fast): one byte short of a chunk, exactly
/// one, one byte over, and a multi-chunk payload all round-trip, in the
/// chunks the format says — a chunk closes when it holds `CKPT_CHUNK`.
#[test]
fn chunk_boundaries_round_trip() {
    for (len, chunks) in
        [(CKPT_CHUNK - 1, 1), (CKPT_CHUNK, 1), (CKPT_CHUNK + 1, 2), (2 * CKPT_CHUNK + 5, 3)]
    {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let file = container_of(&payload);
        // Magic and version, a length and a checksum per chunk, the end record.
        assert_eq!(file.len(), 8 + chunks * 16 + len + 24, "payload of {len} bytes");
        assert_eq!(payload_of(&file, len).expect("decode"), payload, "payload of {len} bytes");
        // Cut exactly at a chunk boundary — before the end record — the
        // chunks all verify and the file is still refused.
        let cut = &file[..file.len() - 24];
        assert!(matches!(verify(cut), Err(CheckpointError::Truncated { chunk }) if chunk == chunks as u64));
    }
}

/// A corrupted *checksum field* (not data) reports `ChecksumMismatch`,
/// the same typed error as corrupted data — the decoder cannot tell
/// which side lied, only that they disagree.
#[test]
fn corrupted_checksum_field_is_a_checksum_mismatch() {
    let mut file = container_of(&[0xABu8; 100]);
    // Magic(4) + version(4), then the first chunk's length(8): its
    // checksum sits 16 bytes in.
    file[16] ^= 0x01;
    match verify(&file) {
        Err(CheckpointError::ChecksumMismatch { chunk: 0 }) => {}
        other => panic!("expected ChecksumMismatch on chunk 0, got {other:?}"),
    }
}

/// A container of `version` is refused at the header, whatever it holds.
fn assert_version_refused(version: u32) {
    let mut old = container_of(&[0xABu8; 100]);
    old[4..8].copy_from_slice(&version.to_le_bytes());
    assert!(matches!(verify(&old), Err(CheckpointError::BadHeader { .. })));
    let err = SnapshotReader::open(&old[..]).err().expect("refused");
    assert!(matches!(err, CheckpointError::BadHeader { .. }) && err.is_corruption(), "{err}");
}

/// A v10 file — the layout whose header still carried the two mesh round
/// watermarks — is refused at the header, not decoded as a header with a
/// carry that starts where the watermarks were.
#[test]
fn a_v10_file_is_a_bad_header() {
    assert_version_refused(10);
}

/// A v11 file — whose trace section holds the engines' own records, not
/// the skeleton's `StepRecord`s — is refused at the header, not decoded
/// into a trace of misread records.
#[test]
fn a_v11_file_is_a_bad_header() {
    assert_version_refused(11);
}

/// A v12 file — whose header says nothing of the arrays held and which
/// always carries the `coherent` and `delta_msg` sections — is refused at
/// the header, not decoded as a header whose `held` is the first bytes of
/// the vertex section.
#[test]
fn a_v12_file_is_a_bad_header() {
    assert_version_refused(12);
}

/// A v13 file — whose header ends at `held`, without the machine's
/// counters — is refused at the header, not resumed with counters read
/// out of the header chunk's end and the vertex section.
#[test]
fn a_v13_file_is_a_bad_header() {
    assert_version_refused(13);
}

/// A v14 file — whose lazy carried records begin with the engine's own
/// coherency points, sub-rounds and exchanges, and whose `StepRecord`s end
/// at `carry` — is refused at the header, not resumed with an interval
/// model decoded out of those counters.
#[test]
fn a_v14_file_is_a_bad_header() {
    assert_version_refused(14);
}

/// A v7 file — the parent's whole-payload container: magic, version,
/// chunk count — is refused at the header, not decoded as something else.
#[test]
fn a_v7_file_is_a_bad_header() {
    let mut v7 = Vec::new();
    CKPT_MAGIC.encode(&mut v7);
    7u32.encode(&mut v7);
    1u64.encode(&mut v7);
    let chunk = [5u8; 40];
    (chunk.len() as u64).encode(&mut v7);
    fnv1a64(&chunk).encode(&mut v7);
    v7.extend_from_slice(&chunk);
    assert!(matches!(verify(&v7), Err(CheckpointError::BadHeader { .. })));
    let err = SnapshotReader::open(&v7[..]).err().expect("refused");
    assert!(matches!(err, CheckpointError::BadHeader { .. }) && err.is_corruption(), "{err}");
}

// ---------------------------------------------------------------------------
// Snapshot laws
// ---------------------------------------------------------------------------

/// The value `MachineState::init` is taken to have given local vertex `l`
/// of the states below: an arbitrary bit pattern per vertex.
fn initial(l: u32) -> f32 {
    f32::from_bits(l.wrapping_mul(2_654_435_761) ^ 0x7fc0_1234)
}

/// Both optional arrays held: the lazy engines' layout for a program that
/// reads its coherent view, as SSSP does.
const ALL: Held = Held { coherent: true, delta_msg: true };

/// What `MachineState::init` would hand the restore: the initial view in
/// `vdata` and `coherent` (if held), and junk everywhere a restore must
/// overwrite.
fn fresh_state(n: usize, held: Held) -> MachineState<Sssp> {
    MachineState {
        vdata: (0..n as u32).map(initial).collect(),
        coherent: held.coherent.then(|| (0..n as u32).map(initial).collect()),
        message: (0..n).map(|_| Some(1.0)).collect(),
        delta_msg: held.delta_msg.then(|| (0..n).map(|_| Some(2.0)).collect()),
        active: vec![true; n],
        queue: (0..n as u32).collect(),
        scratch: Default::default(),
    }
}

/// A slot array's contents, for bitwise comparison.
fn slots<D: Wire + Copy + Default>(slots: &Slots<D>) -> Vec<u8> {
    slots.iter().collect::<Vec<_>>().to_wire()
}

/// Bitwise identity of the arrays, and of which of them are held: floats
/// compare as the bits the codec writes, so NaNs and signed zeros count.
fn assert_same_state<P: VertexProgram>(got: &MachineState<P>, want: &MachineState<P>, at: &str) {
    assert_eq!(got.held(), want.held(), "{at}: held");
    assert_eq!(got.vdata.to_wire(), want.vdata.to_wire(), "{at}: vdata");
    assert_eq!(got.coherent.to_wire(), want.coherent.to_wire(), "{at}: coherent");
    assert_eq!(slots(&got.message), slots(&want.message), "{at}: message");
    let delta_msg = |s: &MachineState<P>| s.delta_msg.as_ref().map(slots);
    assert_eq!(delta_msg(got), delta_msg(want), "{at}: delta_msg");
    assert_eq!(got.active, want.active, "{at}: active");
    assert_eq!(got.queue, want.queue, "{at}: queue");
}

fn snapshot_file(
    header: &SnapshotHeader,
    state: &MachineState<Sssp>,
    history: &[StepRecord],
) -> Vec<u8> {
    let mut file = Vec::new();
    let bytes = write_snapshot(&mut file, header, state, history, initial).expect("write");
    assert_eq!(bytes, file.len() as u64);
    file
}

/// A restored header, state and trace.
type Restored = (SnapshotHeader, MachineState<Sssp>, Vec<StepRecord>);

fn restore(file: &[u8], n: usize, held: Held) -> Result<Restored, CheckpointError> {
    let mut state = fresh_state(n, held);
    // Junk a restore must replace.
    let mut history = vec![StepRecord::default(); 3];
    let (header, bytes) = SnapshotReader::open(file)?.restore_into(&mut state, &mut history)?;
    assert_eq!(bytes, file.len() as u64, "a restore sizes the container it read");
    Ok((header, state, history))
}

/// A trace of `len` records of arbitrary bits.
fn history_of(len: u64, bits: u64) -> Vec<StepRecord> {
    (0..len)
        .map(|i| {
            let b = bits.rotate_left(i as u32) ^ i;
            StepRecord {
                superstep: i + 1,
                sim_time: f64::from_bits(b),
                breakdown: SimBreakdown {
                    compute: f64::from_bits(b.rotate_left(17)),
                    comm: f64::from_bits(b.rotate_left(31)),
                    barrier: f64::from_bits(b.rotate_left(43)),
                    ..Default::default()
                },
                carry: b.to_le_bytes()[..(b % 9) as usize].to_vec(),
                counters: StatsSnapshot {
                    edges_processed: b,
                    local_subrounds: b >> 3,
                    ..Default::default()
                },
            }
        })
        .collect()
}

/// One vertex of an arbitrary state: value bits, how `coherent` relates to
/// it (0 its own value, 1 the initial view, 2 bits of its own), the two
/// inbox slots, and whether the vertex is queued.
type VertexBits = (u32, (u8, u32), (bool, u32), (bool, u32), bool);

fn state_of(vertices: &[VertexBits], rotate: usize) -> MachineState<Sssp> {
    state_holding(vertices, rotate, ALL)
}

/// [`state_of`] holding only what `held` says.
fn state_holding(vertices: &[VertexBits], rotate: usize, held: Held) -> MachineState<Sssp> {
    let slot = |&(some, bits): &(bool, u32)| some.then(|| f32::from_bits(bits));
    let mut queue: Vec<u32> =
        (0..vertices.len() as u32).filter(|&l| vertices[l as usize].4).collect();
    // The worklist is in activation order, not id order.
    let by = rotate % queue.len().max(1);
    queue.rotate_left(by);
    MachineState {
        vdata: vertices.iter().map(|v| f32::from_bits(v.0)).collect(),
        coherent: held.coherent.then(|| {
            (vertices.iter().enumerate())
                .map(|(l, v)| match v.1 .0 {
                    0 => f32::from_bits(v.0),
                    1 => initial(l as u32),
                    _ => f32::from_bits(v.1 .1),
                })
                .collect()
        }),
        message: vertices.iter().map(|v| slot(&v.2)).collect(),
        delta_msg: held.delta_msg.then(|| vertices.iter().map(|v| slot(&v.3)).collect()),
        active: vertices.iter().map(|v| v.4).collect(),
        queue,
        scratch: Default::default(),
    }
}

/// Carried bytes of some length: four words derived from `bits`.
fn carried(bits: u64) -> Vec<u8> {
    [bits, bits >> 7, bits >> 13, bits >> 29].iter().flat_map(Wire::to_wire).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A header, a state and a trace of arbitrary bits — NaN payloads,
    /// empty inbox slots, every `coherent` code, either optional array held
    /// or not, carried bytes of any length, vertex counts on both sides of
    /// the 32- and 64-vertex mask words — restore bit-exactly into a
    /// freshly initialised state, `active` included, which is not in the
    /// file.
    #[test]
    fn snapshot_round_trips(
        engine in 0u8..3,
        held in (any::<bool>(), any::<bool>()),
        words in (any::<u64>(), any::<u64>()),
        sums in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
        vertices in proptest::collection::vec(
            (any::<u32>(), (0u8..3, any::<u32>()), (any::<bool>(), any::<u32>()),
             (any::<bool>(), any::<u32>()), any::<bool>()),
            0usize..150,
        ),
        rotate in any::<usize>(),
        carry in proptest::collection::vec(any::<u8>(), 0usize..200),
        history in (0u64..40, any::<u64>()),
    ) {
        let history = history_of(history.0.min(words.0), history.1);
        let header = SnapshotHeader {
            engine,
            iterations: words.0,
            clock: f64::from_bits(words.1),
            breakdown: SimBreakdown {
                compute: f64::from(sums.0) / 7.0,
                comm: f64::from(sums.1) / 7.0,
                barrier: f64::from(sums.2) / 7.0,
                ..Default::default()
            },
            last_global: f64::from_bits(sums.3),
            carry,
            held: Held { coherent: held.0, delta_msg: held.1 },
            counters: StatsSnapshot {
                global_syncs: words.0,
                edges_processed: sums.3,
                snapshot_bytes: u64::from(sums.0),
                bucket_high_water: u64::from(sums.1),
                local_subrounds: u64::from(sums.2),
                ..Default::default()
            },
        };
        let state = state_holding(&vertices, rotate, header.held);
        let file = snapshot_file(&header, &state, &history);
        let again = snapshot_file(&header, &state, &history);
        prop_assert_eq!(&file, &again, "encode must be deterministic");
        verify(&file).expect("verify");
        let opened = SnapshotReader::open(&file[..]).expect("open").header().to_wire();
        prop_assert_eq!(opened, header.to_wire());
        let (back, restored, back_history) =
            restore(&file, vertices.len(), header.held).expect("restore");
        prop_assert_eq!(back.to_wire(), header.to_wire());
        assert_same_state(&restored, &state, "round trip");
        prop_assert_eq!(back_history.to_wire(), history.to_wire());
    }

    /// Truncating the *element stream inside a valid container* (a short
    /// write that still checksums, e.g. a torn copy re-chunked by a broken
    /// tool) surfaces as a typed error from the decode, not a panic and
    /// not a state with a stale tail.
    #[test]
    fn truncated_snapshot_payload_is_typed(cut_frac in 0.0f64..1.0) {
        let header = SnapshotHeader {
            engine: 1,
            iterations: 3,
            clock: f64::from_bits(42),
            breakdown: SimBreakdown { compute: 0.5, comm: 0.25, barrier: 0.125, ..Default::default() },
            last_global: 0.75,
            // Carried bytes, so cuts land inside them too.
            carry: carried(0x0123_4567_89ab_cdef),
            held: ALL,
            counters: StatsSnapshot { applies: 0x0123_4567, ..Default::default() },
        };
        let state = state_of(
            &[(7, (0, 0), (false, 0), (true, 15), true), (8, (2, 9), (true, 5), (false, 0), false),
              (9, (1, 0), (false, 0), (false, 0), true)],
            1,
        );
        // The file's element stream, out of its two chunks; a trace too.
        let file = snapshot_file(&header, &state, &history_of(2, 0x5eed));
        let header_len = header.to_wire().len();
        let arrays = &file[8 + 16 + header_len + 16..file.len() - 24];
        let stream: Vec<u8> = [&header.to_wire()[..], arrays].concat();
        let cut = ((stream.len() - 1) as f64 * cut_frac) as usize;
        let mut torn = Vec::new();
        let mut w = ChunkWriter::new(&mut torn, 3).expect("start");
        for (i, b) in stream[..cut].iter().enumerate() {
            w.put(b).expect("put");
            if i + 1 == header_len {
                w.end_chunk().expect("header chunk");
            }
        }
        w.finish().expect("finish");
        verify(&torn).expect("the container itself is whole");
        prop_assert!(restore(&torn, 3, ALL).is_err(), "a stream cut at {cut} of {} restored", stream.len());
    }
}

/// The two damage laws, exhaustively on one small snapshot: every prefix
/// is refused, and every single-byte corruption is either refused or —
/// where the byte carries no information, which is nowhere — restores the
/// very same header and state. A panic anywhere fails the test.
#[test]
fn every_damaged_snapshot_is_refused_or_restores_the_same_state() {
    let header = SnapshotHeader {
        engine: 2,
        iterations: 8,
        clock: 2.5,
        breakdown: SimBreakdown { compute: 2.0, comm: 0.25, barrier: 0.125, ..Default::default() },
        last_global: 2.375,
        carry: carried(77),
        held: ALL,
        counters: StatsSnapshot::default(),
    };
    let vertices: Vec<VertexBits> = (0..70u32)
        .map(|l| (l * 3, ((l % 3) as u8, l + 1000), (l % 4 == 0, l), (l % 5 == 0, l * 7), l % 2 == 0))
        .collect();
    let state = state_of(&vertices, 11);
    // Finite times, so `PartialEq` is bitwise equality below.
    let history: Vec<StepRecord> = history_of(3, 99)
        .into_iter()
        .map(|r| StepRecord { sim_time: 0.5, breakdown: header.breakdown, ..r })
        .collect();
    let file = snapshot_file(&header, &state, &history);
    for cut in 0..file.len() {
        assert!(verify(&file[..cut]).is_err(), "a {cut}-byte prefix verified");
        assert!(restore(&file[..cut], vertices.len(), ALL).is_err(), "a {cut}-byte prefix restored");
    }
    for pos in 0..file.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = file.clone();
            bad[pos] ^= flip;
            assert!(verify(&bad).is_err(), "byte {pos} ^ {flip:#x} verified");
            if let Ok((back, restored, back_history)) = restore(&bad, vertices.len(), ALL) {
                assert_eq!(back, header, "byte {pos} ^ {flip:#x}");
                assert_same_state(&restored, &state, &format!("byte {pos} ^ {flip:#x}"));
                assert_eq!(back_history, history, "byte {pos} ^ {flip:#x}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The store: which failures fall back to an older generation
// ---------------------------------------------------------------------------

/// A scratch directory of this test's own, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("lzck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn header_at(engine: u8, iterations: u64) -> SnapshotHeader {
    SnapshotHeader {
        engine,
        iterations,
        clock: 0.0,
        breakdown: SimBreakdown::default(),
        last_global: 0.0,
        carry: Vec::new(),
        held: ALL,
        counters: StatsSnapshot::default(),
    }
}

/// Two generations, 4 and 6, of rank 2's store in `dir`.
fn two_generations(dir: &Path) -> SnapshotStore {
    let store = SnapshotStore::new(dir, 2);
    let state = state_of(&[(1, (0, 0), (true, 2), (false, 0), true); 40], 0);
    for iterations in [4, 6] {
        store.save(&header_at(0, iterations), &state, &[], initial).expect("save");
    }
    store
}

/// The newest generation `verified` lets a restart choose, and what it
/// passed over, as the launcher prints it.
fn newest_verified(store: &SnapshotStore) -> (Result<Option<u64>, CheckpointError>, Vec<String>) {
    let mut skipped = Vec::new();
    let found = store.verified(|path, why| {
        let name = path.file_name().expect("a file").to_string_lossy().into_owned();
        skipped.push(format!("skipping {name}: {why}"));
    });
    (found.map(|found| found.first().copied()), skipped)
}

/// Corruption of the newest generation — and only corruption — falls back
/// to its predecessor, and says so.
#[test]
fn a_corrupt_generation_is_skipped_out_loud() {
    let dir = ScratchDir::new("corrupt");
    let store = two_generations(&dir.0);
    assert_eq!(newest_verified(&store).0.expect("open"), Some(6));

    let newest = dir.0.join("ckpt-2-000000000006.ck");
    let whole = std::fs::read(&newest).expect("read");
    // A flipped byte in the arrays' chunk (chunk 1: the header is chunk 0).
    let mut bad = whole.clone();
    bad[whole.len() - 30] ^= 0x10;
    std::fs::write(&newest, &bad).expect("write");
    let (opened, skipped) = newest_verified(&store);
    assert_eq!(opened.expect("open"), Some(4));
    assert_eq!(skipped, ["skipping ckpt-2-000000000006.ck: chunk 1 checksum mismatch"]);

    // A file cut at a chunk boundary, and both generations gone bad: a
    // fresh start, each one reported.
    std::fs::write(&newest, &whole[..whole.len() - 24]).expect("write");
    std::fs::write(dir.0.join("ckpt-2-000000000004.ck"), b"LZCK").expect("write");
    let (opened, skipped) = newest_verified(&store);
    assert_eq!(opened.expect("open"), None);
    assert_eq!(
        skipped,
        [
            "skipping ckpt-2-000000000006.ck: chunk 2 truncated",
            "skipping ckpt-2-000000000004.ck: bad checkpoint header: file shorter than the header",
        ]
    );
}

/// An I/O error is not corruption: restarting from the older generation
/// (or from nothing) because the newest could not be *read* would be a
/// choice nobody knew was made.
#[test]
fn an_io_error_on_the_newest_generation_is_fatal() {
    let dir = ScratchDir::new("io");
    let store = two_generations(&dir.0);
    // A directory where generation 8's file should be: it opens, and every
    // read of it fails (EISDIR).
    std::fs::create_dir(dir.0.join("ckpt-2-000000000008.ck")).expect("mkdir");
    let (opened, skipped) = newest_verified(&store);
    let err = opened.expect_err("an unreadable newest generation must not be passed over");
    assert!(matches!(err, CheckpointError::Io { .. }) && !err.is_corruption(), "{err}");
    assert!(skipped.is_empty(), "{skipped:?}");
}

/// Listing the store for a restart clears what a save this rank died in
/// left behind — and nothing of another rank's.
#[test]
fn a_resume_removes_this_ranks_torn_temp_files() {
    let dir = ScratchDir::new("tmp");
    let store = two_generations(&dir.0);
    let (mine, theirs) = (dir.0.join("ckpt-2-000000000008.tmp"), dir.0.join("ckpt-1-000000000008.tmp"));
    for torn in [&mine, &theirs] {
        std::fs::write(torn, b"LZCK\x08\0\0\0 torn").expect("write");
    }
    assert_eq!(newest_verified(&store).0.expect("open"), Some(6));
    assert!(!mine.exists(), "rank 2's torn temp file survived its resume");
    assert!(theirs.exists(), "rank 1's temp file is rank 1's to remove");
}

// ---------------------------------------------------------------------------
// A snapshot only resumes the engine that took it
// ---------------------------------------------------------------------------

const ALL_ENGINES: [EngineKind; 6] = [
    EngineKind::PowerGraphSync,
    EngineKind::PowerGraphAsync,
    EngineKind::LazyBlockAsync,
    EngineKind::LazyVertexAsync,
    EngineKind::PowerSwitchHybrid,
    EngineKind::DeltaAccum,
];

/// `snapshot_tag` is the one engine → tag mapping: a distinct tag for
/// each of the six engines, all of which checkpoint, and `check_engine`
/// accepts exactly the snapshot's own engine.
#[test]
fn engine_tag_check_is_typed_and_exact() {
    let tagged: Vec<(EngineKind, u8)> = ALL_ENGINES.iter().map(|&k| (k, snapshot_tag(k))).collect();
    let mut tags: Vec<u8> = tagged.iter().map(|&(_, t)| t).collect();
    tags.sort_unstable();
    assert_eq!(tags, vec![0, 1, 2, 3, 4, 5], "six engines, six tags");
    for &(taken_by, tag) in &tagged {
        let header = header_at(tag, 2);
        for resuming in ALL_ENGINES {
            match header.check_engine(resuming) {
                Ok(()) => assert_eq!(resuming, taken_by),
                Err(CheckpointError::WrongEngine { found, resuming: name }) => {
                    assert_ne!(resuming, taken_by);
                    assert_eq!((found, name), (tag, resuming.name()));
                }
                Err(other) => panic!("expected WrongEngine, got {other:?}"),
            }
        }
    }
}

/// One machine resuming from `store`'s snapshot of the given generation,
/// on an in-process mesh of one.
struct ResumeFrom<'a>(&'a SnapshotStore, &'a LocalShard, u64);

impl<'a> Attach<'a> for ResumeFrom<'a> {
    fn attach<T: Wire + Send + 'static>(self) -> Result<Vec<Seat<'a, T>>, CommError> {
        let stats = Arc::new(NetStats::new());
        let ep = build_endpoints::<T>(TransportKind::InProc, 1, &stats)?.remove(0);
        Ok(vec![Seat {
            me: 0,
            shard: self.1,
            ep,
            stats,
            recovery: RecoveryCfg {
                every: 0,
                store: None,
                resume: Some(self.0.open_at(self.2).expect("open")),
            },
        }])
    }
}

/// Resumes `engine`'s SSSP on one machine from `store`'s generation 2 and
/// returns the typed error the run must fail with.
fn failed_resume(store: &SnapshotStore, engine: EngineKind) -> CommError {
    let g = lazygraph_graph::generators::rmat(lazygraph_graph::generators::RmatConfig::graph500(5, 4, 3));
    let cfg = EngineConfig::lazygraph().with_engine(engine).with_threads(1);
    let dg = partition_graph(&g, 1, cfg.partition, &cfg.splitter, false);
    let mesh = ResumeFrom(store, &dg.shards[0], 2);
    run_mesh_engine(&dg.shape(), &cfg, &Sssp::new(0u32), mesh)
        .err()
        .unwrap_or_else(|| panic!("{} resumed", engine.name()))
}

/// The skeleton refuses to resume from another engine's snapshot — a
/// failed run, in release builds too, not a `debug_assert` — before it
/// streams a byte of it into the state.
#[test]
fn resuming_from_another_engines_snapshot_fails_the_run() {
    let dir = ScratchDir::new("engine");
    let lazy_tag = snapshot_tag(EngineKind::LazyBlockAsync);
    // A lazy-block snapshot of no vertices: were the tag not checked first,
    // the arrays would be refused for their shape instead.
    let store = SnapshotStore::new(&dir.0, 0);
    store.save(&header_at(lazy_tag, 2), &state_of(&[], 0), &[], initial).expect("save");
    for engine in ALL_ENGINES.into_iter().filter(|&e| e != EngineKind::LazyBlockAsync) {
        let err = failed_resume(&store, engine);
        let text = err.to_string();
        assert!(
            matches!(err, CommError::Transport { .. })
                && text.contains(engine.name())
                && text.contains("engine tag"),
            "{text}"
        );
    }
}

/// A snapshot of the right engine whose carried bytes are not that
/// engine's `Carry` — too few, one too many, a tag no variant has — fails
/// the run typed, never a panic and never a default carry.
#[test]
fn a_carry_the_engine_cannot_decode_fails_the_resume() {
    let lazy_carry = LazyCarry::default().to_wire();
    let mut bad_mode = lazy_carry.clone();
    *bad_mode.last_mut().expect("next_mode is the last byte") = 7;
    let cases: [(EngineKind, Vec<u8>); 8] = [
        (EngineKind::LazyBlockAsync, lazy_carry[..lazy_carry.len() - 1].to_vec()),
        (EngineKind::LazyBlockAsync, [&lazy_carry[..], &[0]].concat()),
        (EngineKind::LazyBlockAsync, bad_mode),
        (EngineKind::DeltaAccum, vec![0]),
        (EngineKind::PowerGraphSync, vec![0]),
        (EngineKind::LazyVertexAsync, vec![0]),
        (EngineKind::PowerSwitchHybrid, vec![]),
        (EngineKind::PowerGraphAsync, vec![1]),
    ];
    for (engine, carry) in cases {
        let dir = ScratchDir::new("carry");
        let store = SnapshotStore::new(&dir.0, 0);
        let tag = snapshot_tag(engine);
        let header = SnapshotHeader { carry, ..header_at(tag, 2) };
        // No vertices: were the carry not decoded first, the arrays would
        // be refused for their shape instead.
        store.save(&header, &state_of(&[], 0), &[], initial).expect("save");
        let err = failed_resume(&store, engine);
        let text = err.to_string();
        assert!(
            matches!(err, CommError::Transport { me: 0, .. }) && text.contains("decode"),
            "{}: {text}",
            engine.name()
        );
    }
}

// ---------------------------------------------------------------------------
// What each engine holds
// ---------------------------------------------------------------------------

/// Which optional arrays engine `S`'s `init` builds for `program` on
/// `shard`, each as long as the shard, and that a snapshot of that state
/// — after a deliver and a `deltaMsg` fold, so the sections carry values
/// — restores into a fresh one of the same layout and is refused by a
/// state of any other.
fn held_by<P: VertexProgram, S: Superstep<P>>(
    shard: &LocalShard,
    program: &P,
    num_vertices: usize,
    delta: P::Delta,
) -> Held {
    let init = || MachineState::init(shard, program, S::LAYOUT, num_vertices);
    let mut state = init();
    let held = state.held();
    let n = shard.num_local();
    assert_eq!(state.coherent.as_ref().map(Vec::len), held.coherent.then_some(n));
    assert_eq!(state.delta_msg.as_ref().map(Slots::len), held.delta_msg.then_some(n));
    state.deliver(program, 0, delta);
    state.accumulate_delta(program, 1, delta);

    let header = SnapshotHeader { held, ..header_at(snapshot_tag(S::KIND), 1) };
    let mut file = Vec::new();
    write_snapshot(&mut file, &header, &state, &[], |l| state.vdata[l as usize].clone())
        .expect("write");
    let mut restored = init();
    let back = SnapshotReader::open(&file[..]).expect("open");
    assert_eq!(back.header().held, held);
    back.restore_into(&mut restored, &mut Vec::new()).expect("restore");
    assert_same_state(&restored, &state, S::KIND.name());

    for other in [Held::default(), Held { delta_msg: true, ..Held::default() }, ALL] {
        let mut other_state = init();
        other_state.coherent = other.coherent.then(|| other_state.vdata.clone());
        other_state.delta_msg = other.delta_msg.then(|| Slots::new(n));
        let err = SnapshotReader::open(&file[..])
            .expect("open")
            .restore_into(&mut other_state, &mut Vec::new())
            .err();
        match err {
            None => assert_eq!(other, held, "{}: restored into {other:?}", S::KIND.name()),
            Some(CheckpointError::WrongLayout { found, expected }) => {
                assert_eq!((found, expected), (held, other), "{}", S::KIND.name())
            }
            Some(e) => panic!("{}: expected WrongLayout, got {e}", S::KIND.name()),
        }
    }
    held
}

/// A replica holds only what its engine and its program read: the eager
/// engines neither a `deltaMsg` nor a coherent view, the lazy family a
/// `deltaMsg` always and a coherent view only for a program whose policy
/// reads it (SSSP's does, PageRank's does not). Each declaration survives
/// a snapshot, and a snapshot of one is refused by a state of another.
#[test]
fn each_engine_holds_what_it_and_its_program_read() {
    let g = common::road_lattice(12, 3);
    let splitter = SplitterConfig::disabled();
    let dg = partition_graph(&g, 2, PartitionStrategy::Coordinated, &splitter, false);
    let (shard, n) = (&dg.shards[1], dg.num_global_vertices);
    /// Engine `A`'s layout for PageRank and engine `B`'s for SSSP — the
    /// same engine, named twice for the two programs.
    fn both<A, B>(shard: &LocalShard, n: usize) -> (Held, Held)
    where
        A: Superstep<PageRankDelta>,
        B: Superstep<Sssp>,
    {
        let pagerank = held_by::<_, A>(shard, &PageRankDelta::default(), n, 0.5);
        (pagerank, held_by::<_, B>(shard, &Sssp::new(0u32), n, 2.0))
    }
    let eager = (Held::default(), Held::default());
    let lazy = (Held { coherent: false, delta_msg: true }, ALL);
    let cases = [
        ("sync", both::<SyncStep<_>, SyncStep<_>>(shard, n), eager),
        ("async", both::<AsyncPump<_>, AsyncPump<_>>(shard, n), eager),
        ("hybrid", both::<HybridStep<_>, HybridStep<_>>(shard, n), eager),
        ("lazy-block", both::<LazyStep<_>, LazyStep<_>>(shard, n), lazy),
        ("lazy-vertex", both::<LazyVertexPump, LazyVertexPump>(shard, n), lazy),
        ("delta", both::<DeltaStep, DeltaStep>(shard, n), lazy),
    ];
    for (engine, got, want) in cases {
        assert_eq!(got, want, "{engine}: (PageRank, SSSP)");
    }
}

// ---------------------------------------------------------------------------
// The live-state law
// ---------------------------------------------------------------------------

/// What the checkpoints of one machine of a live run looked like.
#[derive(Default)]
struct Seen {
    checkpoints: u64,
    /// The optional arrays every machine held.
    held: Held,
    /// Some `coherent[l]` was neither `vdata[l]` nor the initial view.
    explicit_coherent: bool,
    occupied_delta_msg: bool,
    /// Some vertex held a message without being active (the delta
    /// engine's parked, sub-tolerance mass).
    parked_message: bool,
    /// A snapshot held a trace.
    traced: bool,
}

/// Runs `S` on `machines` threads of this process through a skeleton of
/// the test's own — the engine's real supersteps and the real
/// `checkpoint_at_barrier`, after *every* superstep — and at each
/// checkpoint restores the file just written into a freshly `init`-ed
/// state and demands the live state back, bit for bit, every array it holds.
fn live_state_law<P: VertexProgram, S: Superstep<P>>(
    tag: &str,
    g: &Graph,
    machines: usize,
    cfg: &EngineConfig,
    program: &P,
) -> Seen {
    let dir = ScratchDir::new(tag);
    let dg = partition_graph(g, machines, cfg.partition, &cfg.splitter, cfg.bidirectional);
    let shape = dg.shape();
    let endpoints =
        build_endpoints::<(u32, S::Msg)>(TransportKind::InProc, machines, &Arc::default())
            .expect("in-process mesh");
    let seats: Vec<_> = endpoints.into_iter().zip(&dg.shards).enumerate().collect();
    let seen = try_run_machines(seats, |(me, (ep, shard))| -> Result<Seen, CommError> {
        let init = || MachineState::init(shard, program, S::LAYOUT, shape.num_global_vertices);
        let initial = init();
        let stats = Arc::new(NetStats::new());
        let mut f = Frame {
            me,
            cfg,
            program,
            num_vertices: shape.num_global_vertices,
            ev_ratio: shape.ev_ratio,
            shard,
            pctx: ParallelCtx::new(cfg.parallel(machines)).expect("spawn pool"),
            state: init(),
            clock: SimClock::new(),
            bsp: BspSync::new(cfg.cost),
            port: Port::new(ep, stats.clone()),
            stats,
            iterations: 0,
            history: Vec::new(),
        };
        let mut engine = S::new(&f, S::Carry::default());
        let store = SnapshotStore::new(&dir.0, me);
        let mut seen = Seen::default();
        while f.iterations < cfg.max_iterations {
            f.iterations += 1;
            let vote = engine.step(&mut f)?;
            f.book_step(engine.carry());
            if vote == Vote::Converged {
                return Ok(seen);
            }
            checkpoint_at_barrier(&mut f, &store, S::KIND, engine.carry())?;
            let at = format!("{tag}: machine {me}, superstep {}", f.iterations);
            let snapshot = store.open_at(f.iterations).expect("a generation was just saved");
            let (mut restored, mut history) = (init(), Vec::new());
            let (header, bytes) = snapshot.restore_into(&mut restored, &mut history).expect("restore");
            // What a resumed machine counts on from: the counters at the
            // cut, then this generation's own bytes.
            let resumed = NetStats::new();
            resumed.restore(&header.counters);
            resumed.record_snapshot_bytes(bytes);
            assert_eq!(resumed.snapshot(), f.stats.snapshot(), "{at}: counters");
            assert_eq!(header.iterations, f.iterations, "{at}");
            assert_eq!(header.clock.to_bits(), f.clock.now().to_bits(), "{at}");
            assert_eq!(header.breakdown.to_wire(), f.bsp.breakdown.to_wire(), "{at}");
            assert_eq!(header.last_global.to_bits(), f.bsp.last_global.to_bits(), "{at}");
            assert_eq!(header.carry, engine.carry().to_wire(), "{at}: carry");
            assert_eq!(history.to_wire(), f.history.to_wire(), "{at}: history");
            let last = history.last().expect("a record a superstep");
            assert_eq!((history.len() as u64, last.superstep), (f.iterations, f.iterations), "{at}");
            assert_eq!(last.carry, header.carry, "{at}: the record holds the snapshot's carry");
            assert_eq!(last.counters, header.counters.deterministic(), "{at}: and its counters");
            assert_same_state(&restored, &f.state, &at);

            seen.checkpoints += 1;
            let state = &f.state;
            seen.held = state.held();
            let differs = |a: &P::VData, b: &P::VData| a.to_wire() != b.to_wire();
            if let (Some(coherent), Some(first)) = (&state.coherent, &initial.coherent) {
                seen.explicit_coherent |= (0..state.vdata.len())
                    .any(|l| differs(&coherent[l], &state.vdata[l]) && differs(&coherent[l], &first[l]));
            }
            seen.occupied_delta_msg |= state.delta_msg.as_ref().is_some_and(|d| d.occupied() > 0);
            seen.parked_message |=
                state.message.iter().zip(&state.active).any(|(m, &a)| m.is_some() && !a);
            seen.traced |= !history.is_empty();
        }
        panic!("{tag}: machine {me} did not converge");
    })
    .expect("live run");
    let held = seen.first().map(|s| s.held).unwrap_or_default();
    assert!(seen.iter().all(|s| s.held == held), "{tag}: machines of one run hold alike");
    seen.into_iter().fold(Seen { held, ..Seen::default() }, |a, b| Seen {
        checkpoints: a.checkpoints + b.checkpoints,
        held,
        explicit_coherent: a.explicit_coherent | b.explicit_coherent,
        occupied_delta_msg: a.occupied_delta_msg | b.occupied_delta_msg,
        parked_message: a.parked_message | b.parked_message,
        traced: a.traced | b.traced,
    })
}

/// Save-then-restore is the identity on the live state of all three
/// checkpointing engines at every superstep boundary — including the
/// parts the file does not hold: `active` (rebuilt from `queue`), the
/// `coherent` entries that are `vdata`'s or still initial, the empty
/// inbox slots — and on the recorded trace, and the header carries the
/// engine's `Carry` byte for byte. Each run is checked to have reached the
/// cases the format treats apart.
#[test]
fn save_then_restore_is_the_identity_on_live_state() {
    let cfg = |engine| {
        let mut cfg =
            EngineConfig::lazygraph().with_engine(engine).with_threads(2).with_block_size(64);
        cfg.record_history = true;
        cfg
    };
    let social = common::social_rmat(9, 5);
    let pagerank = PageRankDelta { tolerance: 1e-3 };

    let sync = live_state_law::<_, SyncStep<_>>(
        "sync", &social, 4, &cfg(EngineKind::PowerGraphSync), &pagerank,
    );
    assert!(sync.checkpoints >= 4 * 5, "Sync barely ran: {}", sync.checkpoints);
    assert!(sync.traced, "Sync recorded no trace");
    assert_eq!(sync.held, Held::default(), "Sync holds neither optional array");

    // Budgeted local stages on slow machines: `vdata` runs ahead of the
    // last coherency point between coherency points. PageRank's policy
    // reads no coherent view, so its machines hold none.
    let lazy_cfg = common::slow_machines(cfg(EngineKind::LazyBlockAsync));
    let lazy = live_state_law::<_, LazyStep<_>>("lazy", &social, 4, &lazy_cfg, &pagerank);
    assert!(lazy.checkpoints >= 4 * 5, "lazy-block barely ran: {}", lazy.checkpoints);
    assert!(lazy.traced, "lazy-block recorded no trace");
    assert_eq!(lazy.held, Held { coherent: false, delta_msg: true }, "lazy PageRank");
    assert!(lazy.occupied_delta_msg, "the coherency sweep's scatter never refilled delta_msg");

    // SSSP's policy reads the view: its local stages move `vdata` off it.
    let road = common::road_lattice(32, 5);
    let ordered = live_state_law::<_, LazyStep<_>>(
        "ordered", &road, 4, &cfg(EngineKind::LazyBlockAsync), &Sssp::new(0u32),
    );
    assert!(ordered.checkpoints >= 4 * 3, "lazy SSSP barely ran: {}", ordered.checkpoints);
    assert_eq!(ordered.held, ALL, "lazy SSSP");
    assert!(ordered.explicit_coherent, "no local stage ever moved vdata off the coherent view");

    let delta = live_state_law::<_, DeltaStep>(
        "delta", &social, 2, &cfg(EngineKind::DeltaAccum), &pagerank,
    );
    assert!(delta.checkpoints >= 2 * 2, "delta barely ran: {}", delta.checkpoints);
    assert!(delta.parked_message, "the scheduler never parked sub-tolerance mass");
    assert_eq!(delta.held, Held { coherent: false, delta_msg: true }, "delta PageRank");

    // The barrier-free engines' step boundaries are cuts too: a round
    // leaves nothing in flight, so what a step leaves is all there is.
    let sssp = Sssp::new(0u32);
    let eager = live_state_law::<_, AsyncPump<_>>(
        "async", &road, 4, &cfg(EngineKind::PowerGraphAsync), &sssp,
    );
    assert!(eager.checkpoints >= 4 * 5, "async barely ran: {}", eager.checkpoints);
    let vertex = live_state_law::<_, LazyVertexPump>(
        "lazy-vertex", &road, 4, &cfg(EngineKind::LazyVertexAsync), &sssp,
    );
    assert!(vertex.checkpoints >= 4 * 5, "lazy-vertex barely ran: {}", vertex.checkpoints);
    // A step flushes what its sweeps left before its round: no boundary
    // holds a deltaMsg (lazy-block's run above covers that case).
    assert!(!vertex.occupied_delta_msg, "a step ended with deltaMsg left to flush");
    let hybrid = live_state_law::<_, HybridStep<_>>(
        "hybrid", &road, 4, &cfg(EngineKind::PowerSwitchHybrid), &sssp,
    );
    assert!(hybrid.checkpoints >= 4 * 5, "the hybrid barely ran: {}", hybrid.checkpoints);
}
