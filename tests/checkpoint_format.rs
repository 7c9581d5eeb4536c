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
    build_endpoints, try_run_machines, Collective, CommError, NetStats, SimClock, TransportKind,
};
use lazygraph_engine::bsp::BspSync;
use lazygraph_engine::checkpoint::{
    checkpoint_at_barrier, fnv1a64, snapshot_tag, write_snapshot, CheckpointError,
    ChunkReader, ChunkWriter, DeltaResume, LazyResume, RecoveryCfg, SnapshotHeader,
    SnapshotReader, SnapshotStore, CKPT_CHUNK, CKPT_MAGIC,
};
use lazygraph_engine::delta_engine::DeltaStep;
use lazygraph_engine::exchange::Port;
use lazygraph_engine::lazy_block::{LazyCounters, LazyStep};
use lazygraph_engine::machine::{Frame, Superstep, Vote};
use lazygraph_engine::state::MachineState;
use lazygraph_engine::sync_engine::SyncStep;
use lazygraph_engine::{run_mesh_engine, Attach, ParallelCtx, RunShared, Seat};
use lazygraph_net::Wire;
use lazygraph_partition::{partition_graph, LocalShard};

// ---------------------------------------------------------------------------
// Container laws
// ---------------------------------------------------------------------------

/// The whole-container check `SnapshotStore::open_latest` makes before it
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

/// What `MachineState::init` would hand the restore: the initial view in
/// `vdata` and `coherent`, and junk everywhere a restore must overwrite.
fn fresh_state(n: usize) -> MachineState<Sssp> {
    MachineState {
        vdata: (0..n as u32).map(initial).collect(),
        coherent: (0..n as u32).map(initial).collect(),
        message: vec![Some(1.0); n],
        delta_msg: vec![Some(2.0); n],
        active: vec![true; n],
        queue: (0..n as u32).collect(),
        scratch: Default::default(),
    }
}

/// Bitwise identity of the six arrays: floats compare as the bits the
/// codec writes, so NaNs and signed zeros count.
fn assert_same_state<P: VertexProgram>(got: &MachineState<P>, want: &MachineState<P>, at: &str) {
    assert_eq!(got.vdata.to_wire(), want.vdata.to_wire(), "{at}: vdata");
    assert_eq!(got.coherent.to_wire(), want.coherent.to_wire(), "{at}: coherent");
    assert_eq!(got.message.to_wire(), want.message.to_wire(), "{at}: message");
    assert_eq!(got.delta_msg.to_wire(), want.delta_msg.to_wire(), "{at}: delta_msg");
    assert_eq!(got.active, want.active, "{at}: active");
    assert_eq!(got.queue, want.queue, "{at}: queue");
}

fn snapshot_file(header: &SnapshotHeader, state: &MachineState<Sssp>) -> Vec<u8> {
    let mut file = Vec::new();
    let bytes = write_snapshot(&mut file, header, state, initial).expect("write");
    assert_eq!(bytes, file.len() as u64);
    file
}

fn restore(file: &[u8], n: usize) -> Result<(SnapshotHeader, MachineState<Sssp>), CheckpointError> {
    let mut state = fresh_state(n);
    let header = SnapshotReader::open(file)?.restore_into(&mut state)?;
    Ok((header, state))
}

/// One vertex of an arbitrary state: value bits, how `coherent` relates to
/// it (0 its own value, 1 the initial view, 2 bits of its own), the two
/// inbox slots, and whether the vertex is queued.
type VertexBits = (u32, (u8, u32), (bool, u32), (bool, u32), bool);

fn state_of(vertices: &[VertexBits], rotate: usize) -> MachineState<Sssp> {
    let slot = |&(some, bits): &(bool, u32)| some.then(|| f32::from_bits(bits));
    let mut queue: Vec<u32> =
        (0..vertices.len() as u32).filter(|&l| vertices[l as usize].4).collect();
    // The worklist is in activation order, not id order.
    let by = rotate % queue.len().max(1);
    queue.rotate_left(by);
    MachineState {
        vdata: vertices.iter().map(|v| f32::from_bits(v.0)).collect(),
        coherent: (vertices.iter().enumerate())
            .map(|(l, v)| match v.1 .0 {
                0 => f32::from_bits(v.0),
                1 => initial(l as u32),
                _ => f32::from_bits(v.1 .1),
            })
            .collect(),
        message: vertices.iter().map(|v| slot(&v.2)).collect(),
        delta_msg: vertices.iter().map(|v| slot(&v.3)).collect(),
        active: vertices.iter().map(|v| v.4).collect(),
        queue,
        scratch: Default::default(),
    }
}

fn lazy_resume(bits: u64) -> LazyResume {
    LazyResume {
        counters: LazyCounters {
            coherency_points: bits,
            local_subrounds: bits >> 7,
            a2a_exchanges: bits >> 13,
            m2m_exchanges: bits >> 29,
        },
        prev_active: (bits & 1 == 1).then_some(bits.rotate_left(9)),
        last_trend_bits: bits.rotate_left(17),
        iterations_seen: bits >> 3,
        do_local: bits & 2 == 2,
        first_stage_bits: (bits & 4 == 4).then_some(bits.rotate_left(23)),
        next_mode_m2m: bits & 8 == 8,
        // Arbitrary bit patterns, NaNs included: the stage budget's inputs
        // ride as bits so a resumed `doLC()` reads what the oracle read.
        coherency_cost_bits: bits.rotate_left(31),
        last_sweep_bits: bits.rotate_left(41),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A header and a state of arbitrary bits — NaN payloads, empty inbox
    /// slots, every `coherent` code, the optional resume blocks, vertex
    /// counts on both sides of the 32- and 64-vertex mask words — restore
    /// bit-exactly into a freshly initialised state, `active` included,
    /// which is not in the file.
    #[test]
    fn snapshot_round_trips(
        engine in 0u8..3,
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        vertices in proptest::collection::vec(
            (any::<u32>(), (0u8..3, any::<u32>()), (any::<bool>(), any::<u32>()),
             (any::<bool>(), any::<u32>()), any::<bool>()),
            0usize..150,
        ),
        rotate in any::<usize>(),
        lazy in (any::<bool>(), any::<u64>()),
        delta in (any::<bool>(), any::<u64>()),
    ) {
        let header = SnapshotHeader {
            engine,
            iterations: words.0,
            clock_bits: words.1,
            data_round: words.2,
            ctrl_round: words.3,
            lazy: lazy.0.then(|| lazy_resume(lazy.1)),
            delta: delta.0.then(|| DeltaResume { counters: lazy_resume(delta.1).counters }),
        };
        let state = state_of(&vertices, rotate);
        let file = snapshot_file(&header, &state);
        prop_assert_eq!(&file, &snapshot_file(&header, &state), "encode must be deterministic");
        verify(&file).expect("verify");
        prop_assert_eq!(SnapshotReader::open(&file[..]).expect("open").header(), &header);
        let (back, restored) = restore(&file, vertices.len()).expect("restore");
        prop_assert_eq!(back, header);
        assert_same_state(&restored, &state, "round trip");
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
            clock_bits: 42,
            data_round: 6,
            ctrl_round: 9,
            // With the lazy block, so cuts land inside every resume field.
            lazy: Some(lazy_resume(0x0123_4567_89ab_cdef)),
            delta: None,
        };
        let state = state_of(
            &[(7, (0, 0), (false, 0), (true, 15), true), (8, (2, 9), (true, 5), (false, 0), false),
              (9, (1, 0), (false, 0), (false, 0), true)],
            1,
        );
        // The file's element stream, out of its two chunks.
        let file = snapshot_file(&header, &state);
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
        prop_assert!(restore(&torn, 3).is_err(), "a stream cut at {cut} of {} restored", stream.len());
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
        clock_bits: 2.5f64.to_bits(),
        data_round: 16,
        ctrl_round: 25,
        lazy: None,
        delta: Some(DeltaResume { counters: lazy_resume(77).counters }),
    };
    let vertices: Vec<VertexBits> = (0..70u32)
        .map(|l| (l * 3, ((l % 3) as u8, l + 1000), (l % 4 == 0, l), (l % 5 == 0, l * 7), l % 2 == 0))
        .collect();
    let state = state_of(&vertices, 11);
    let file = snapshot_file(&header, &state);
    for cut in 0..file.len() {
        assert!(verify(&file[..cut]).is_err(), "a {cut}-byte prefix verified");
        assert!(restore(&file[..cut], vertices.len()).is_err(), "a {cut}-byte prefix restored");
    }
    for pos in 0..file.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = file.clone();
            bad[pos] ^= flip;
            assert!(verify(&bad).is_err(), "byte {pos} ^ {flip:#x} verified");
            if let Ok((back, restored)) = restore(&bad, vertices.len()) {
                assert_eq!(back, header, "byte {pos} ^ {flip:#x}");
                assert_same_state(&restored, &state, &format!("byte {pos} ^ {flip:#x}"));
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
        clock_bits: 0,
        data_round: 2 * iterations,
        ctrl_round: 3 * iterations,
        lazy: None,
        delta: None,
    }
}

/// Two generations, 4 and 6, of rank 2's store in `dir`.
fn two_generations(dir: &Path) -> SnapshotStore {
    let store = SnapshotStore::new(dir, 2);
    let state = state_of(&[(1, (0, 0), (true, 2), (false, 0), true); 40], 0);
    for iterations in [4, 6] {
        store.save(&header_at(0, iterations), &state, initial).expect("save");
    }
    store
}

/// What `open_latest` passed over, as the worker prints it.
fn open_latest_reporting(
    store: &SnapshotStore,
) -> (Result<Option<u64>, CheckpointError>, Vec<String>) {
    let mut skipped = Vec::new();
    let opened = store.open_latest(|path, why| {
        let name = path.file_name().expect("a file").to_string_lossy().into_owned();
        skipped.push(format!("skipping {name}: {why}"));
    });
    (opened.map(|s| s.map(|s| s.header().iterations)), skipped)
}

/// Corruption of the newest generation — and only corruption — falls back
/// to its predecessor, and says so.
#[test]
fn a_corrupt_generation_is_skipped_out_loud() {
    let dir = ScratchDir::new("corrupt");
    let store = two_generations(&dir.0);
    assert_eq!(open_latest_reporting(&store).0.expect("open"), Some(6));

    let newest = dir.0.join("ckpt-2-000000000006.ck");
    let whole = std::fs::read(&newest).expect("read");
    // A flipped byte in the arrays' chunk (chunk 1: the header is chunk 0).
    let mut bad = whole.clone();
    bad[whole.len() - 30] ^= 0x10;
    std::fs::write(&newest, &bad).expect("write");
    let (opened, skipped) = open_latest_reporting(&store);
    assert_eq!(opened.expect("open"), Some(4));
    assert_eq!(skipped, ["skipping ckpt-2-000000000006.ck: chunk 1 checksum mismatch"]);

    // A file cut at a chunk boundary, and both generations gone bad: a
    // fresh start, each one reported.
    std::fs::write(&newest, &whole[..whole.len() - 24]).expect("write");
    std::fs::write(dir.0.join("ckpt-2-000000000004.ck"), b"LZCK").expect("write");
    let (opened, skipped) = open_latest_reporting(&store);
    assert_eq!(opened.expect("open"), None);
    assert_eq!(
        skipped,
        [
            "skipping ckpt-2-000000000006.ck: chunk 2 truncated",
            "skipping ckpt-2-000000000004.ck: bad checkpoint header: file shorter than the header",
        ]
    );
}

/// An I/O error is not corruption: resuming from the older generation (or
/// from nothing) because the newest could not be *read* would silently
/// replay from the wrong watermark.
#[test]
fn an_io_error_on_the_newest_generation_is_fatal() {
    let dir = ScratchDir::new("io");
    let store = two_generations(&dir.0);
    // A directory where generation 8's file should be: it opens, and every
    // read of it fails (EISDIR).
    std::fs::create_dir(dir.0.join("ckpt-2-000000000008.ck")).expect("mkdir");
    let (opened, skipped) = open_latest_reporting(&store);
    let err = opened.expect_err("an unreadable newest generation must not be passed over");
    assert!(matches!(err, CheckpointError::Io { .. }) && !err.is_corruption(), "{err}");
    assert!(skipped.is_empty(), "{skipped:?}");
}

/// Opening the store for a resume clears what a save this rank died in
/// left behind — and nothing of another rank's.
#[test]
fn a_resume_removes_this_ranks_torn_temp_files() {
    let dir = ScratchDir::new("tmp");
    let store = two_generations(&dir.0);
    let (mine, theirs) = (dir.0.join("ckpt-2-000000000008.tmp"), dir.0.join("ckpt-1-000000000008.tmp"));
    for torn in [&mine, &theirs] {
        std::fs::write(torn, b"LZCK\x08\0\0\0 torn").expect("write");
    }
    assert_eq!(open_latest_reporting(&store).0.expect("open"), Some(6));
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

/// `snapshot_tag` is the one engine → tag mapping: distinct tags for the
/// three checkpointable engines, none for the rest, and `check_engine`
/// accepts exactly the snapshot's own engine.
#[test]
fn engine_tag_check_is_typed_and_exact() {
    let tagged: Vec<(EngineKind, u8)> = ALL_ENGINES
        .iter()
        .filter_map(|&k| snapshot_tag(k).map(|t| (k, t)))
        .collect();
    assert_eq!(tagged.len(), 3, "Sync, LazyBlock and DeltaAccum checkpoint");
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

/// The skeleton refuses to resume from another engine's snapshot — a
/// failed run, in release builds too, not a `debug_assert` — before it
/// streams a byte of it into the state.
#[test]
fn resuming_from_another_engines_snapshot_fails_the_run() {
    struct ResumeFrom<'a>(&'a SnapshotStore, &'a LocalShard);
    impl<'a> Attach<'a> for ResumeFrom<'a> {
        fn attach<T: Wire + Send + 'static>(
            self,
            stats: &Arc<NetStats>,
        ) -> Result<Vec<Seat<'a, T>>, CommError> {
            let ep = build_endpoints::<T>(TransportKind::InProc, 1, stats)?.remove(0);
            Ok(vec![Seat {
                me: 0,
                shard: self.1,
                ep,
                recovery: RecoveryCfg {
                    every: 0,
                    store: None,
                    resume: self.0.open_latest(|_, why| panic!("{why}")).expect("open"),
                },
            }])
        }
    }
    let dir = ScratchDir::new("engine");
    let g = lazygraph_graph::generators::rmat(lazygraph_graph::generators::RmatConfig::graph500(5, 4, 3));
    let lazy_tag = snapshot_tag(EngineKind::LazyBlockAsync).expect("lazy-block checkpoints");
    // A lazy-block snapshot of no vertices: were the tag not checked first,
    // the arrays would be refused for their shape instead.
    let store = SnapshotStore::new(&dir.0, 0);
    store.save(&header_at(lazy_tag, 2), &state_of(&[], 0), initial).expect("save");
    for engine in [EngineKind::PowerGraphSync, EngineKind::DeltaAccum] {
        let cfg = EngineConfig::lazygraph().with_engine(engine).with_threads(1);
        let dg = partition_graph(&g, 1, cfg.partition, &cfg.splitter, false);
        let shared = RunShared {
            coll: Arc::new(Collective::new(1)),
            stats: Arc::new(NetStats::new()),
            breakdown: Default::default(),
            history: None,
            quiescence: None,
        };
        let mesh = ResumeFrom(&store, &dg.shards[0]);
        let err = run_mesh_engine(&dg.shape(), &cfg, &Sssp::new(0u32), mesh, &shared)
            .err()
            .unwrap_or_else(|| panic!("{} resumed from a lazy-block snapshot", engine.name()));
        let text = err.to_string();
        assert!(
            matches!(err, CommError::Transport { .. })
                && text.contains(engine.name())
                && text.contains("engine tag"),
            "{text}"
        );
    }
}

// ---------------------------------------------------------------------------
// The live-state law
// ---------------------------------------------------------------------------

/// What the checkpoints of one machine of a live run looked like.
#[derive(Default)]
struct Seen {
    checkpoints: u64,
    /// Some `coherent[l]` was neither `vdata[l]` nor the initial view.
    explicit_coherent: bool,
    occupied_delta_msg: bool,
    /// Some vertex held a message without being active (the delta
    /// engine's parked, sub-tolerance mass).
    parked_message: bool,
}

/// Runs `S` on `machines` threads of this process through a skeleton of
/// the test's own — the engine's real supersteps and the real
/// `checkpoint_at_barrier`, after *every* superstep — and at each
/// checkpoint restores the file just written into a freshly `init`-ed
/// state and demands the live state back, bit for bit, all six arrays.
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
    let stats = Arc::new(NetStats::new());
    let coll = Arc::new(Collective::new(machines));
    let endpoints = build_endpoints::<(u32, S::Msg)>(TransportKind::InProc, machines, &stats)
        .expect("in-process mesh");
    let seats: Vec<_> = endpoints.into_iter().zip(&dg.shards).enumerate().collect();
    let seen = try_run_machines(seats, |(me, (ep, shard))| -> Result<Seen, CommError> {
        let init = || MachineState::init(shard, program, S::INIT, shape.num_global_vertices);
        let initial = init();
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
            bsp: BspSync::new(me, coll.clone(), stats.clone(), cfg.cost, Default::default()),
            port: Port::new(ep, stats.clone(), None),
            stats: stats.clone(),
            iterations: 0,
            history: None,
        };
        let mut engine = S::new(&f);
        let store = SnapshotStore::new(&dir.0, me);
        let mut seen = Seen::default();
        while f.iterations < cfg.max_iterations {
            f.iterations += 1;
            if engine.step(&mut f)? == Vote::Converged {
                return Ok(seen);
            }
            checkpoint_at_barrier(&f, &store, S::KIND, engine.resume_extras())?;
            let at = format!("{tag}: machine {me}, superstep {}", f.iterations);
            let snapshot = store.open_latest(|path, why| panic!("{at}: {}: {why}", path.display()));
            let snapshot = snapshot.expect("open").expect("a generation was just saved");
            let mut restored = init();
            let header = snapshot.restore_into(&mut restored).expect("restore");
            assert_eq!(header.iterations, f.iterations, "{at}");
            assert_eq!(header.clock_bits, f.clock.now().to_bits(), "{at}");
            assert_same_state(&restored, &f.state, &at);

            seen.checkpoints += 1;
            let state = &f.state;
            let differs = |a: &P::VData, b: &P::VData| a.to_wire() != b.to_wire();
            seen.explicit_coherent |= (0..state.vdata.len()).any(|l| {
                differs(&state.coherent[l], &state.vdata[l])
                    && differs(&state.coherent[l], &initial.coherent[l])
            });
            seen.occupied_delta_msg |= state.delta_msg.iter().any(Option::is_some);
            seen.parked_message |=
                state.message.iter().zip(&state.active).any(|(m, &a)| m.is_some() && !a);
        }
        panic!("{tag}: machine {me} did not converge");
    })
    .expect("live run");
    seen.into_iter().fold(Seen::default(), |a, b| Seen {
        checkpoints: a.checkpoints + b.checkpoints,
        explicit_coherent: a.explicit_coherent | b.explicit_coherent,
        occupied_delta_msg: a.occupied_delta_msg | b.occupied_delta_msg,
        parked_message: a.parked_message | b.parked_message,
    })
}

/// Save-then-restore is the identity on the live state of all three
/// checkpointing engines at every superstep boundary — including the
/// parts the file does not hold: `active` (rebuilt from `queue`), the
/// `coherent` entries that are `vdata`'s or still initial, the empty
/// inbox slots. Each run is checked to have reached the cases the format
/// treats apart.
#[test]
fn save_then_restore_is_the_identity_on_live_state() {
    let cfg = |engine| EngineConfig::lazygraph().with_engine(engine).with_threads(2).with_block_size(64);
    let social = common::social_rmat(9, 5);
    let pagerank = PageRankDelta { tolerance: 1e-3 };

    let sync = live_state_law::<_, SyncStep<_>>(
        "sync", &social, 4, &cfg(EngineKind::PowerGraphSync), &pagerank,
    );
    assert!(sync.checkpoints >= 4 * 5, "Sync barely ran: {}", sync.checkpoints);
    assert!(!sync.explicit_coherent && !sync.occupied_delta_msg, "Sync never writes either");

    // Budgeted local stages on slow machines: `vdata` runs ahead of the
    // last coherent view between coherency points.
    let lazy_cfg = common::slow_machines(cfg(EngineKind::LazyBlockAsync));
    let lazy = live_state_law::<_, LazyStep<_>>("lazy", &social, 4, &lazy_cfg, &pagerank);
    assert!(lazy.checkpoints >= 4 * 5, "lazy-block barely ran: {}", lazy.checkpoints);
    assert!(lazy.explicit_coherent, "no local stage ever moved vdata off the coherent view");
    assert!(lazy.occupied_delta_msg, "the coherency sweep's scatter never refilled delta_msg");

    let road = common::road_lattice(32, 5);
    let ordered = live_state_law::<_, LazyStep<_>>(
        "ordered", &road, 4, &cfg(EngineKind::LazyBlockAsync), &Sssp::new(0u32),
    );
    assert!(ordered.checkpoints >= 4 * 3, "lazy SSSP barely ran: {}", ordered.checkpoints);

    let delta = live_state_law::<_, DeltaStep>(
        "delta", &social, 2, &cfg(EngineKind::DeltaAccum), &pagerank,
    );
    assert!(delta.checkpoints >= 2 * 2, "delta barely ran: {}", delta.checkpoints);
    assert!(delta.parked_message, "the scheduler never parked sub-tolerance mass");
    assert!(!delta.explicit_coherent, "the delta engine never writes coherent");
}
