//! Wire-transport integration suite (DESIGN.md §10).
//!
//! Three layers, matching the transport stack bottom-up:
//!
//! 1. **Codec laws** — property tests that `Wire` round-trips bit-exactly
//!    (floats compared as bit patterns, so NaN payloads count), that
//!    encodings are self-delimiting (values concatenate with no
//!    separators), and that encoding is deterministic.
//! 2. **Framing under adversity** — a reader that returns 1–3 bytes per
//!    `read` call must still reassemble every frame exactly; a stream cut
//!    mid-frame must surface a typed error, never a short frame.
//! 3. **Transport equivalence** — the same run over loopback TCP
//!    (threaded and multiprocess) produces *bitwise* identical vertex
//!    values, iteration counts, and simulated time as the in-proc channel
//!    mesh, while reporting measured wire bytes that the channel mesh
//!    (which never serializes) reports as zero.
//! 4. **One loop per machine** — a TCP mesh runs no thread of its own, and
//!    rounds and bursts far larger than socket buffers still complete
//!    (`lazygraph-cluster`'s `tests/one_loop.rs`, run here as well).

use std::io::Read;

use proptest::prelude::*;

use lazygraph::multiproc::{run_multiprocess, MpOptions};
use lazygraph::prelude::*;
use lazygraph_algorithms::PageRankData;
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_net::{FrameKind, FrameReader, NetError, Wire, WireReader, HEADER_LEN};
use lazygraph_engine::TransportKind;

// ---------------------------------------------------------------------------
// 1. Codec laws
// ---------------------------------------------------------------------------

/// Round-trips `x` through a fresh buffer and also checks determinism
/// (two encodes agree byte-for-byte).
fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(x: &T) {
    let bytes = x.to_wire();
    assert_eq!(bytes, x.to_wire(), "encode must be deterministic");
    let back = T::from_wire(&bytes).expect("decode");
    assert_eq!(&back, x);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn integers_round_trip(a in any::<u8>(), b in any::<u32>(), c in any::<u64>(),
                           d in any::<i64>(), e in any::<usize>()) {
        round_trip(&a);
        round_trip(&b);
        round_trip(&c);
        round_trip(&d);
        round_trip(&(e as u64));
    }

    /// Floats ride as IEEE-754 bit patterns: decode must reproduce the
    /// *bits*, including NaN payloads and negative zero, which `==`
    /// cannot check.
    #[test]
    fn floats_round_trip_bitwise(bits64 in any::<u64>(), bits32 in any::<u32>()) {
        let x = f64::from_bits(bits64);
        let back = f64::from_wire(&x.to_wire()).expect("decode f64");
        prop_assert_eq!(back.to_bits(), bits64);

        let y = f32::from_bits(bits32);
        let back = f32::from_wire(&y.to_wire()).expect("decode f32");
        prop_assert_eq!(back.to_bits(), bits32);
    }

    #[test]
    fn composites_round_trip(
        v in proptest::collection::vec(any::<u32>(), 0usize..40),
        opt_some in any::<bool>(),
        tag in any::<u64>(),
        flag in any::<bool>(),
    ) {
        round_trip(&v);
        round_trip(&if opt_some { Some(tag) } else { None });
        round_trip(&flag);
        round_trip(&(tag, v.clone()));
        round_trip(&(flag, tag, v.len() as u32));
        round_trip(&format!("id-{tag:x}"));
    }

    /// PageRank vertex data — the payload whose bit-exactness makes a TCP
    /// PageRank run indistinguishable from an in-proc one.
    #[test]
    fn pagerank_data_round_trips_bitwise(rank_bits in any::<u64>(), pending_bits in any::<u64>()) {
        let x = PageRankData {
            rank: f64::from_bits(rank_bits),
            pending: f64::from_bits(pending_bits),
        };
        let back = PageRankData::from_wire(&x.to_wire()).expect("decode");
        prop_assert_eq!(back.rank.to_bits(), rank_bits);
        prop_assert_eq!(back.pending.to_bits(), pending_bits);
    }

    /// Self-delimiting law: concatenated encodings decode back in order,
    /// each decode consuming exactly its own bytes.
    #[test]
    fn encodings_concatenate(
        a in proptest::collection::vec(any::<u64>(), 0usize..20),
        b in any::<u32>(),
        c_bits in any::<u64>(),
    ) {
        let c = f64::from_bits(c_bits);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        c.encode(&mut buf);

        let mut r = WireReader::new(&buf);
        prop_assert_eq!(Vec::<u64>::decode(&mut r).expect("a"), a);
        prop_assert_eq!(u32::decode(&mut r).expect("b"), b);
        prop_assert_eq!(f64::decode(&mut r).expect("c").to_bits(), c_bits);
        prop_assert!(r.finish().is_ok());
    }
}

/// Truncated input is a typed error at every prefix length, never a panic
/// or a phantom value.
#[test]
fn truncation_is_typed() {
    let full = (7u64, vec![1u32, 2, 3], Some(0.5f64)).to_wire();
    for cut in 0..full.len() {
        let err = <(u64, Vec<u32>, Option<f64>)>::from_wire(&full[..cut]);
        assert!(
            matches!(err, Err(NetError::Truncated { .. })),
            "prefix of {cut} bytes must be Truncated, got {err:?}"
        );
    }
    // ...and a trailing byte is TrailingBytes, not silently ignored.
    let mut padded = full.clone();
    padded.push(0);
    assert!(matches!(
        <(u64, Vec<u32>, Option<f64>)>::from_wire(&padded),
        Err(NetError::TrailingBytes { .. })
    ));
}

// ---------------------------------------------------------------------------
// 2. Framing under adversity
// ---------------------------------------------------------------------------

/// A reader that hands out at most 1–3 bytes per call in a fixed rotation,
/// simulating a TCP stream arriving in arbitrary small segments.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let n = (self.step % 3) + 1;
        self.step += 1;
        let n = n.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn torn_frames_reassemble_exactly() {
    // Several frames of assorted kinds and sizes, back to back — including
    // an empty payload, which is all header.
    let payloads: Vec<Vec<u8>> = vec![
        (0u32, 3u64, vec![9u32; 17]).to_wire(),
        Vec::new(),
        (1u32, 4u64, vec![0xABu32; 257]).to_wire(),
    ];
    let kinds = [FrameKind::Data, FrameKind::Shutdown, FrameKind::Data];
    let mut stream = Vec::new();
    for (p, k) in payloads.iter().zip(kinds) {
        lazygraph_net::write_frame(&mut stream, k, p).expect("write frame");
    }
    assert_eq!(
        stream.len(),
        payloads.iter().map(|p| p.len() + HEADER_LEN).sum::<usize>()
    );

    let mut src = Trickle { data: &stream, pos: 0, step: 0 };
    let mut reader = FrameReader::new();
    let mut got = Vec::new();
    loop {
        match reader.poll(&mut src) {
            Ok(Some(frame)) => got.push(frame),
            Ok(None) => unreachable!("Trickle never returns WouldBlock"),
            Err(NetError::PeerClosed) => break,
            Err(e) => panic!("unexpected frame error: {e}"),
        }
    }
    assert_eq!(got.len(), payloads.len());
    for ((frame, want), kind) in got.iter().zip(&payloads).zip(kinds) {
        assert_eq!(frame.kind, kind);
        assert_eq!(&frame.payload, want);
    }
}

#[test]
fn eof_mid_frame_is_an_error_not_a_short_frame() {
    let payload = vec![0x55u8; 64];
    let mut stream = Vec::new();
    lazygraph_net::write_frame(&mut stream, FrameKind::Data, &payload).expect("write frame");
    // Cut anywhere strictly inside the frame: header-torn or payload-torn.
    for cut in 1..stream.len() {
        let mut src = Trickle { data: &stream[..cut], pos: 0, step: 0 };
        let mut reader = FrameReader::new();
        let res = loop {
            match reader.poll(&mut src) {
                Ok(Some(f)) => break Ok(f),
                Ok(None) => continue,
                Err(e) => break Err(e),
            }
        };
        assert!(
            matches!(res, Err(NetError::PeerClosed)),
            "cut at {cut}: want PeerClosed, got {res:?}"
        );
        assert!(reader.mid_frame(), "cut at {cut}: reader must know it was mid-frame");
    }
}

// ---------------------------------------------------------------------------
// 3. Transport equivalence
// ---------------------------------------------------------------------------

fn test_graph() -> Graph {
    let g = rmat(RmatConfig::graph500(8, 6, 5));
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend(g.edges());
    b.symmetrize();
    b.randomize_weights(1.0, 9.0, 5);
    b.build()
}

fn cfg(engine: EngineKind) -> EngineConfig {
    EngineConfig::lazygraph()
        .with_engine(engine)
        .with_threads(2)
        .with_block_size(64)
}

/// `{:?}` on finite floats round-trips, so string equality on the value
/// vector is bitwise equality.
fn fingerprint<P: VertexProgram>(r: &lazygraph_engine::RunResult<P>) -> String {
    format!(
        "values={:?} iters={} sim={:?}",
        r.values, r.metrics.iterations, r.metrics.sim_time.to_bits()
    )
}

/// Threaded loopback TCP must be observationally identical to the channel
/// mesh — same values, same iteration count, same simulated time, bit for
/// bit — for every engine. Determinism across *machines* is the engines'
/// own contract (the async family is only schedule-free for idempotent
/// algebras, so they get SSSP; the BSP-shaped engines also get PageRank).
#[test]
fn threaded_tcp_matches_inproc_bitwise() {
    let g = test_graph();
    let machines = 4;
    let sssp = Sssp::new(0u32);
    let pagerank = PageRankDelta { tolerance: 1e-5 };

    let engines = [
        EngineKind::PowerGraphSync,
        EngineKind::PowerGraphAsync,
        EngineKind::LazyBlockAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ];
    for engine in engines {
        let base = cfg(engine);
        let tcp = base.clone().with_transport(TransportKind::Tcp);
        // The barrier-free engines are racy *across machines* — batch
        // arrival order is scheduling — so their clocks and counters are
        // schedule-dependent on any transport. Their values are still
        // bitwise for idempotent algebras (the determinism.rs contract);
        // the BSP-shaped engines get the full fingerprint.
        let bsp = matches!(
            engine,
            EngineKind::PowerGraphSync | EngineKind::LazyBlockAsync
        );

        let a = run(&g, machines, &base, &sssp).expect("in-proc sssp");
        let b = run(&g, machines, &tcp, &sssp).expect("tcp sssp");
        if bsp {
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "sssp on {} diverged across transports",
                engine.name()
            );
        } else {
            assert_eq!(
                format!("{:?}", a.values),
                format!("{:?}", b.values),
                "sssp values on {} diverged across transports",
                engine.name()
            );
        }

        // The channel mesh never serializes; TCP always does, and its wire
        // bytes are measured frames, not the cost model's estimate.
        assert_eq!(a.metrics.stats.wire_bytes_sent, 0);
        assert_eq!(a.metrics.stats.wire_frames_sent, 0);
        assert!(b.metrics.stats.wire_bytes_sent > 0, "{}", engine.name());
        assert!(b.metrics.stats.wire_frames_sent > 0, "{}", engine.name());
        assert_ne!(
            b.metrics.stats.wire_bytes_sent,
            b.metrics.stats.total_est_bytes(),
            "measured frame bytes and cost-model estimates are different \
             quantities; them agreeing would suggest one aliases the other"
        );

        if bsp {
            let a = run(&g, machines, &base, &pagerank).expect("in-proc pagerank");
            let b = run(&g, machines, &tcp, &pagerank).expect("tcp pagerank");
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "pagerank on {} diverged across transports",
                engine.name()
            );
        }
    }
}

fn worker_bin() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_BIN_EXE_lazygraph-worker"))
}

/// Four real OS processes over loopback TCP must reproduce the in-proc
/// run bitwise: values, iterations, convergence, and simulated time.
#[test]
fn multiprocess_pagerank_matches_inproc_bitwise() {
    let g = test_graph();
    let machines = 4;
    let tolerance = 1e-5;
    let program = PageRankDelta { tolerance };

    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        let base = cfg(engine);
        let inproc = run(&g, machines, &base, &program).expect("in-proc");
        let (mp, launch) =
            run_multiprocess(&g, machines, &base, &program, worker_bin(), &MpOptions::default())
                .expect("multiprocess");

        assert_eq!(
            format!("{:?}", inproc.values),
            format!("{:?}", mp.values),
            "pagerank values diverged on {}",
            engine.name()
        );
        assert_eq!(inproc.metrics.iterations, mp.metrics.iterations, "{}", engine.name());
        assert_eq!(
            inproc.metrics.sim_time.to_bits(),
            mp.metrics.sim_time.to_bits(),
            "{}",
            engine.name()
        );
        assert!(mp.metrics.converged, "{}", engine.name());

        // Every exchange crossed a real socket; the merged snapshot must
        // show measured traffic on all four workers.
        assert!(mp.metrics.stats.wire_bytes_sent > 0);
        assert_eq!(launch.per_worker_stats.len(), machines);
        for (i, s) in launch.per_worker_stats.iter().enumerate() {
            assert!(s.wire_bytes_sent > 0, "worker {i} sent no frames");
            assert!(s.wire_bytes_recv > 0, "worker {i} received no frames");
        }
    }
}

#[test]
fn multiprocess_sssp_matches_inproc_bitwise() {
    let g = test_graph();
    let machines = 4;
    let program = Sssp::new(0u32);

    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        let base = cfg(engine);
        let inproc = run(&g, machines, &base, &program).expect("in-proc");
        let (mp, _) =
            run_multiprocess(&g, machines, &base, &program, worker_bin(), &MpOptions::default())
                .expect("multiprocess");

        assert_eq!(
            format!("{:?}", inproc.values),
            format!("{:?}", mp.values),
            "sssp values diverged on {}",
            engine.name()
        );
        assert_eq!(inproc.metrics.iterations, mp.metrics.iterations, "{}", engine.name());
        assert_eq!(
            inproc.metrics.sim_time.to_bits(),
            mp.metrics.sim_time.to_bits(),
            "{}",
            engine.name()
        );
        assert!(mp.metrics.stats.wire_bytes_sent > 0);
    }
}

/// The unsupported engines fail fast with a typed error instead of
/// spawning workers that would deadlock on shared-memory termination.
#[test]
fn multiprocess_rejects_shared_memory_engines() {
    let g = test_graph();
    for engine in [
        EngineKind::PowerGraphAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ] {
        let err = run_multiprocess(
            &g,
            2,
            &cfg(engine),
            &Sssp::new(0u32),
            worker_bin(),
            &MpOptions::default(),
        );
        assert!(
            matches!(err, Err(lazygraph::multiproc::MultiprocError::UnsupportedEngine(_))),
            "{} must be rejected up front",
            engine.name()
        );
    }
}

/// Past the up-front rejection there is one more net: a machine started
/// without a quiescence detector — what a worker process would be — gets
/// a typed configuration error from the skeleton before anything runs:
/// the hybrid does not first spend Sync supersteps getting to its switch.
#[test]
fn barrier_free_engines_without_a_detector_fail_typed() {
    use lazygraph_engine::{run_mesh_engine, CommError, RunShared, ThreadedMesh};
    use std::sync::Arc;

    let g = test_graph();
    for engine in [
        EngineKind::PowerGraphAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ] {
        let cfg = cfg(engine);
        let dg = lazygraph_partition::partition_graph(&g, 2, cfg.partition, &cfg.splitter, false);
        let shared = RunShared {
            coll: Arc::new(lazygraph_cluster::Collective::new(2)),
            stats: Arc::new(lazygraph_cluster::NetStats::new()),
            breakdown: Default::default(),
            history: None,
            quiescence: None,
        };
        let mesh = ThreadedMesh {
            transport: TransportKind::InProc,
            shards: &dg.shards,
        };
        let err = run_mesh_engine(&dg.shape(), &cfg, &Sssp::new(0u32), mesh, &shared).err();
        assert_eq!(
            err,
            Some(CommError::NeedsSharedMemory {
                engine: engine.name()
            })
        );
        assert_eq!(shared.stats.snapshot().global_syncs, 0, "{} ran a barrier", engine.name());
    }
}

// ---------------------------------------------------------------------------
// 4. One loop per machine
// ---------------------------------------------------------------------------

#[path = "../crates/cluster/tests/one_loop.rs"]
mod one_loop;
