//! Checkpoint on-disk format laws (DESIGN.md §12), mirroring the
//! torn-frame suites in `wire_transport.rs`: the chunked container and
//! the Wire-encoded snapshot inside it must round-trip bit-exactly, and
//! *every* way a file can be damaged — truncation at any prefix,
//! corruption of any single byte — must surface a typed
//! [`CheckpointError`], never a panic and never silently-wrong bytes.

use std::sync::Arc;

use proptest::prelude::*;

use lazygraph_algorithms::Sssp;
use lazygraph_cluster::{build_endpoints, Collective, CommError, NetStats, TransportKind};
use lazygraph_engine::checkpoint::{
    decode_container, encode_container, fnv1a64, snapshot_tag, CheckpointError, DeltaResume,
    EngineSnapshot, LazyResume, RecoveryCfg, CKPT_CHUNK,
};
use lazygraph_engine::lazy_block::LazyCounters;
use lazygraph_engine::{run_mesh_engine, Attach, EngineConfig, EngineKind, RunShared, Seat};
use lazygraph_net::Wire;
use lazygraph_partition::{partition_graph, LocalShard};

// ---------------------------------------------------------------------------
// Container laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload survives the chunked container bit-exactly, and the
    /// encoding itself is deterministic.
    #[test]
    fn container_round_trips(payload in proptest::collection::vec(any::<u8>(), 0usize..4096)) {
        let file = encode_container(&payload);
        prop_assert_eq!(&file, &encode_container(&payload), "encode must be deterministic");
        prop_assert_eq!(decode_container(&file).expect("decode"), payload);
    }

    /// A file cut at any prefix is a typed error — never a panic, never
    /// a short payload that decodes "successfully".
    #[test]
    fn truncation_at_any_prefix_is_typed(
        payload in proptest::collection::vec(any::<u8>(), 1usize..512),
        frac in 0.0f64..1.0,
    ) {
        let file = encode_container(&payload);
        let cut = ((file.len() - 1) as f64 * frac) as usize;
        prop_assert!(
            decode_container(&file[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte container decoded", file.len()
        );
    }

    /// Flipping any single byte is *detected*: the decode either fails
    /// with a typed error or — never — succeeds with different bytes.
    /// (No flip is undetectable: header bytes break the magic/version/
    /// count, length bytes break framing, data bytes break the FNV-1a
    /// checksum, checksum bytes break themselves.)
    #[test]
    fn any_single_byte_flip_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1usize..512),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let mut file = encode_container(&payload);
        let pos = ((file.len() - 1) as f64 * pos_frac) as usize;
        file[pos] ^= flip;
        match decode_container(&file) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(
                back, payload,
                "corruption at byte {pos} decoded to different bytes",
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
/// stay small to keep the suite fast): exactly one chunk, one byte over,
/// and a multi-chunk payload all round-trip.
#[test]
fn chunk_boundaries_round_trip() {
    for len in [CKPT_CHUNK - 1, CKPT_CHUNK, CKPT_CHUNK + 1, 2 * CKPT_CHUNK + 5] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let file = encode_container(&payload);
        assert_eq!(
            decode_container(&file).expect("decode"),
            payload,
            "payload of {len} bytes"
        );
    }
}

/// A corrupted *checksum field* (not data) reports `ChecksumMismatch`,
/// the same typed error as corrupted data — the decoder cannot tell
/// which side lied, only that they disagree.
#[test]
fn corrupted_checksum_field_is_a_checksum_mismatch() {
    let payload = vec![0xABu8; 100];
    let mut file = encode_container(&payload);
    // Header is magic(4) + version(4) + count(8); the chunk checksum
    // sits 8 bytes after the chunk length that follows the header.
    let sum_pos = 4 + 4 + 8 + 8;
    file[sum_pos] ^= 0x01;
    match decode_container(&file) {
        Err(CheckpointError::ChecksumMismatch { chunk: 0 }) => {}
        other => panic!("expected ChecksumMismatch on chunk 0, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Snapshot laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Wire encoding of a full engine snapshot — including NaN-bit
    /// float payloads, `None` message slots, and the optional lazy
    /// resume block — round-trips bit-exactly.
    #[test]
    fn snapshot_round_trips(
        engine in 0u8..3,
        iterations in any::<u64>(),
        clock_bits in any::<u64>(),
        data_round in any::<u64>(),
        ctrl_round in any::<u64>(),
        vbits in proptest::collection::vec(any::<u32>(), 0usize..32),
        mbits in proptest::collection::vec((any::<bool>(), any::<u32>()), 0usize..32),
        active in proptest::collection::vec(any::<bool>(), 0usize..32),
        queue in proptest::collection::vec(any::<u32>(), 0usize..32),
        with_lazy in any::<bool>(),
        counters in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prev_active in (any::<bool>(), any::<u64>()),
        last_trend_bits in any::<u64>(),
        do_local in any::<bool>(),
        first_stage_bits in (any::<bool>(), any::<u64>()),
        next_mode_m2m in any::<bool>(),
        stage_budget_bits in (any::<u64>(), any::<u64>()),
        with_delta in any::<bool>(),
        delta_counters in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let prev_active = prev_active.0.then_some(prev_active.1);
        let first_stage_bits = first_stage_bits.0.then_some(first_stage_bits.1);
        let lazy = with_lazy.then_some(LazyResume {
            counters: LazyCounters {
                coherency_points: counters.0,
                local_subrounds: counters.1,
                a2a_exchanges: counters.2,
                m2m_exchanges: counters.3,
            },
            prev_active,
            last_trend_bits,
            iterations_seen: iterations,
            do_local,
            first_stage_bits,
            next_mode_m2m,
            // Arbitrary bit patterns, NaNs included: the stage budget's
            // inputs ride as bits so a resumed `doLC()` reads what the
            // oracle read.
            coherency_cost_bits: stage_budget_bits.0,
            last_sweep_bits: stage_budget_bits.1,
        });
        let delta = with_delta.then_some(DeltaResume {
            counters: LazyCounters {
                coherency_points: delta_counters.0,
                local_subrounds: delta_counters.1,
                a2a_exchanges: delta_counters.2,
                m2m_exchanges: delta_counters.3,
            },
        });
        let snap = EngineSnapshot::<Sssp> {
            engine,
            iterations,
            clock_bits,
            data_round,
            ctrl_round,
            vdata: vbits.iter().map(|&b| f32::from_bits(b)).collect(),
            coherent: vbits.iter().map(|&b| f32::from_bits(b ^ 1)).collect(),
            message: mbits.iter().map(|&(s, b)| s.then(|| f32::from_bits(b))).collect(),
            delta_msg: mbits.iter().map(|&(s, b)| s.then(|| f32::from_bits(!b))).collect(),
            active,
            queue,
            lazy: lazy.clone(),
            delta,
        };
        let bytes = snap.to_wire();
        prop_assert_eq!(&bytes, &snap.to_wire(), "encode must be deterministic");
        let back = EngineSnapshot::<Sssp>::from_wire(&bytes).expect("decode");
        // Bitwise comparison: floats as bit patterns, so NaNs count.
        prop_assert_eq!(format!("{back:?}"), format!("{snap:?}"));
        prop_assert_eq!(back.lazy, lazy);
        prop_assert_eq!(back.delta, delta);

        // And through the container, as `SnapshotStore::save` writes it.
        let file = encode_container(&bytes);
        prop_assert_eq!(decode_container(&file).expect("decode"), bytes);
    }

    /// Truncating the *payload inside a valid container* (a short write
    /// that still checksums, e.g. a torn copy re-chunked by a broken
    /// tool) surfaces as a typed decode error from the Wire layer.
    #[test]
    fn truncated_snapshot_payload_is_typed(cut_frac in 0.0f64..1.0) {
        let snap = EngineSnapshot::<Sssp> {
            engine: 0,
            iterations: 3,
            clock_bits: 42,
            data_round: 6,
            ctrl_round: 9,
            vdata: vec![1.0, 2.0, 3.0],
            coherent: vec![1.0, 2.0, 3.0],
            message: vec![None, Some(0.5), None],
            delta_msg: vec![Some(1.5), None, None],
            active: vec![true, false, true],
            queue: vec![2, 0],
            // With the lazy block, so cuts land inside every resume field
            // up to the last ones appended (v5: the stage budget's inputs).
            lazy: Some(LazyResume {
                counters: LazyCounters::default(),
                prev_active: Some(7),
                last_trend_bits: 0.25f64.to_bits(),
                iterations_seen: 3,
                do_local: true,
                first_stage_bits: None,
                next_mode_m2m: false,
                coherency_cost_bits: 0.041f64.to_bits(),
                last_sweep_bits: 0.002f64.to_bits(),
            }),
            delta: None,
        };
        let bytes = snap.to_wire();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(EngineSnapshot::<Sssp>::from_wire(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------------
// A snapshot only resumes the engine that took it
// ---------------------------------------------------------------------------

fn snapshot_of(engine: u8) -> EngineSnapshot<Sssp> {
    EngineSnapshot {
        engine,
        iterations: 2,
        clock_bits: 0,
        data_round: 0,
        ctrl_round: 0,
        vdata: vec![],
        coherent: vec![],
        message: vec![],
        delta_msg: vec![],
        active: vec![],
        queue: vec![],
        lazy: None,
        delta: None,
    }
}

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
        let snap = snapshot_of(tag);
        for resuming in ALL_ENGINES {
            match snap.check_engine(resuming) {
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
/// failed run, in release builds too, not a `debug_assert`.
#[test]
fn resuming_from_another_engines_snapshot_fails_the_run() {
    struct ResumeFrom<'a>(u8, &'a LocalShard);
    impl<'a> Attach<'a, Sssp> for ResumeFrom<'a> {
        fn attach<T: Wire + Send + 'static>(
            self,
            stats: &Arc<NetStats>,
        ) -> Result<Vec<Seat<'a, Sssp, T>>, CommError> {
            let ep = build_endpoints::<T>(TransportKind::InProc, 1, stats)?.remove(0);
            Ok(vec![Seat {
                me: 0,
                shard: self.1,
                ep,
                recovery: RecoveryCfg {
                    every: 0,
                    store: None,
                    resume: Some(snapshot_of(self.0)),
                },
            }])
        }
    }
    let g = lazygraph_graph::generators::rmat(lazygraph_graph::generators::RmatConfig::graph500(5, 4, 3));
    let lazy_tag = snapshot_tag(EngineKind::LazyBlockAsync).expect("lazy-block checkpoints");
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
        let mesh = ResumeFrom(lazy_tag, &dg.shards[0]);
        let err = run_mesh_engine(&dg.shape(), &cfg, &Sssp::new(0u32), mesh, &shared)
            .err()
            .unwrap_or_else(|| panic!("{} resumed from a lazy-block snapshot", engine.name()));
        let text = err.to_string();
        assert!(
            matches!(err, CommError::Transport { .. }) && text.contains(engine.name()),
            "{text}"
        );
    }
}
