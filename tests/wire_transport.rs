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
//!    (threaded and multiprocess) has the in-process carrier's
//!    `RunRecord` — values, simulated time, every deterministic counter,
//!    the trace — while reporting measured wire bytes that the in-process
//!    carrier (which encodes but writes no socket) reports as zero — for
//!    every engine, the barrier-free ones included, and for PageRank as
//!    for the min-algebras.
//! 4. **One loop per machine** — a machine holds one mesh, a TCP mesh
//!    runs no thread of its own, and rounds and bursts far larger than
//!    socket buffers still complete (`lazygraph-cluster`'s
//!    `tests/one_loop.rs`, run here as well).

use std::io::Read;

use proptest::prelude::*;

use std::sync::Arc;

use lazygraph::multiproc::{run_multiprocess, MpOptions, Shipped};
use lazygraph::prelude::*;
use lazygraph_algorithms::PageRankData;
use lazygraph_cluster::{connect_tcp_endpoint, NetStats};
use lazygraph_engine::{
    place, run_mesh_engine, Attach, CommError, RecoveryCfg, Seat, ThreadedMesh, TransportKind,
};
use lazygraph_graph::generators::{rmat, RmatConfig};
use lazygraph_net::{FrameKind, FrameReader, NetError, TcpOptions, Wire, WireReader, HEADER_LEN};

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
    fn pagerank_vertex_values_round_trip_bitwise(rank_bits in any::<u64>(), pending_bits in any::<u64>()) {
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

/// Threaded loopback TCP must be observationally identical to the
/// in-process carrier — the same record, the syncs and batches of every
/// phase included — for every engine and program: every engine's step is
/// rounds with every peer, collected in sender order, whatever carries
/// them, and both routes reduce in rounds of each machine's one endpoint.
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

        let a = run(&g, machines, &base, &sssp).expect("in-proc sssp");
        let b = run(&g, machines, &tcp, &sssp).expect("tcp sssp");
        assert_eq!(a.record(), b.record(), "sssp on {} diverged across transports", engine.name());

        // The in-process carrier writes no socket; TCP always does, and its
        // wire bytes are measured frames, not the cost model's estimate.
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

        let a = run(&g, machines, &base, &pagerank).expect("in-proc pagerank");
        let b = run(&g, machines, &tcp, &pagerank).expect("tcp pagerank");
        let name = engine.name();
        assert_eq!(a.record(), b.record(), "pagerank on {name} diverged across transports");
    }
}

fn worker_bin() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_BIN_EXE_lazygraph-worker"))
}

/// Four real OS processes over loopback TCP must reproduce the in-proc
/// run's record. Four threads over loopback TCP send the same frames the
/// four processes do, collective rounds included: a figure beside the
/// record, which leaves measured frames out.
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
        assert_eq!(inproc.record(), mp.record(), "pagerank diverged on {}", engine.name());
        assert!(mp.metrics.converged, "{}", engine.name());
        let tcp = run(&g, machines, &base.clone().with_transport(TransportKind::Tcp), &program)
            .expect("threaded tcp");
        let frames =
            |m: &lazygraph_engine::RunMetrics| (m.stats.wire_frames_sent, m.stats.wire_bytes_sent);
        assert_eq!(frames(&tcp.metrics), frames(&mp.metrics), "{}", engine.name());

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

        assert_eq!(inproc.record(), mp.record(), "sssp diverged on {}", engine.name());
        assert!(mp.metrics.stats.wire_bytes_sent > 0);
    }
}

/// Machine 0's trace comes back in its outcome on both routes: threaded
/// TCP and two worker processes return the in-process record, trace
/// included, and a non-empty trace.
#[test]
fn multiprocess_returns_the_inproc_trace_bitwise() {
    fn check<P: Shipped>(g: &Graph, engine: EngineKind, program: &P) {
        let mut traced = cfg(engine);
        traced.record_history = true;
        let inproc = run(g, 2, &traced, program).expect("in-proc");
        let tcp = traced.clone().with_transport(TransportKind::Tcp);
        let tcp = run(g, 2, &tcp, program).expect("threaded tcp");
        let (mp, _) = run_multiprocess(g, 2, &traced, program, worker_bin(), &MpOptions::default())
            .expect("multiprocess");
        assert!(!inproc.metrics.history.is_empty(), "{}: nothing was recorded", engine.name());
        assert_eq!(inproc.record(), tcp.record(), "{}: threaded tcp", engine.name());
        assert_eq!(inproc.record(), mp.record(), "{}", engine.name());
    }
    let g = test_graph();
    check(&g, EngineKind::LazyBlockAsync, &PageRankDelta { tolerance: 1e-5 });
    check(&g, EngineKind::PowerGraphSync, &Sssp::new(0u32));
    check(&g, EngineKind::DeltaAccum, &PageRankDelta { tolerance: 1e-5 });
}

/// The record of `program`'s run on `engine` over `machines` machines:
/// in-process, over threaded TCP, and across worker processes.
fn on_every_route<P: Shipped>(
    g: &Graph,
    machines: usize,
    engine: EngineKind,
    program: &P,
) -> [(&'static str, RunRecord); 3] {
    let base = cfg(engine);
    let tcp = base.clone().with_transport(TransportKind::Tcp);
    let (mp, _) = run_multiprocess(g, machines, &base, program, worker_bin(), &MpOptions::default())
        .expect("multiprocess");
    [
        ("in-proc", run(g, machines, &base, program).expect("in-proc").record()),
        ("threaded tcp", run(g, machines, &tcp, program).expect("threaded tcp").record()),
        ("multiprocess", mp.record()),
    ]
}

/// The barrier-free engines on every route, at 2 and 4 machines: the same
/// record, for the min-algebras and PageRank alike.
#[test]
fn pump_engines_match_inproc_on_every_route() {
    let g = test_graph();
    let pagerank = PageRankDelta::default();
    for engine in [
        EngineKind::PowerGraphAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ] {
        let name = engine.name();
        for machines in [2, 4] {
            let runs = [
                ("sssp", on_every_route(&g, machines, engine, &Sssp::new(0u32))),
                ("cc", on_every_route(&g, machines, engine, &ConnectedComponents)),
                ("pagerank", on_every_route(&g, machines, engine, &pagerank)),
            ];
            for (algorithm, [(_, inproc), rest @ ..]) in runs {
                for (route, got) in rest {
                    assert_eq!(got, inproc, "{algorithm}, {name}, {machines} machines, {route}");
                }
            }
        }
    }
}

/// Distinct loopback addresses, reserved the way the launcher does.
fn loopback_addrs(n: usize) -> Vec<std::net::SocketAddr> {
    let listeners: Vec<_> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port"))
        .collect();
    listeners.iter().map(|l| l.local_addr().expect("reserved address")).collect()
}

/// One machine of a worker-shaped run: its own shard and its own
/// endpoint of the mesh.
struct OwnSeat<'a> {
    me: usize,
    shard: &'a lazygraph_partition::LocalShard,
    addrs: &'a [std::net::SocketAddr],
}

impl<'a> Attach<'a> for OwnSeat<'a> {
    fn attach<T: Wire + Send + 'static>(
        self,
        stats: &Arc<NetStats>,
    ) -> Result<Vec<Seat<'a, T>>, CommError> {
        let ep = connect_tcp_endpoint::<T>(self.me, self.addrs, stats, &TcpOptions::default())?;
        Ok(vec![Seat {
            me: self.me,
            shard: self.shard,
            ep,
            recovery: RecoveryCfg::default(),
        }])
    }
}

/// What replaced the typed refusal this test used to pin: a run shaped
/// like a worker gang, with each machine on a thread of its own connecting
/// its own endpoint of the mesh, so the machines share no memory, runs
/// every barrier-free engine to the in-process values.
#[test]
fn barrier_free_engines_without_a_detector_fail_typed() {
    let g = test_graph();
    let machines = 3;
    let program = Sssp::new(0u32);
    for engine in [
        EngineKind::PowerGraphAsync,
        EngineKind::LazyVertexAsync,
        EngineKind::PowerSwitchHybrid,
    ] {
        let cfg = cfg(engine);
        let expected = run(&g, machines, &cfg, &program).expect("in-proc").values;
        let dg = place(&g, machines, &cfg).expect("placement");
        let shape = dg.shape();
        let addrs = &loopback_addrs(machines);
        let outs = std::thread::scope(|s| {
            let machines: Vec<_> = dg
                .shards
                .iter()
                .enumerate()
                .map(|(me, shard)| {
                    let (cfg, shape, program) = (&cfg, &shape, &program);
                    s.spawn(move || {
                        let stats = Arc::new(NetStats::new());
                        let seat = OwnSeat { me, shard, addrs };
                        let mut outs = run_mesh_engine(shape, cfg, program, seat, &stats)?;
                        outs.pop().ok_or(CommError::MeshClosed { me })
                    })
                })
                .collect();
            machines
                .into_iter()
                .map(|m| m.join().expect("machine thread"))
                .collect::<Result<Vec<_>, CommError>>()
        })
        .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        let mut values = vec![None; g.num_vertices()];
        for (gid, v) in outs.into_iter().flat_map(|out| out.masters) {
            values[gid as usize] = Some(v);
        }
        let values: Vec<_> = values.into_iter().map(|v| v.expect("every vertex has a master")).collect();
        assert_eq!(format!("{values:?}"), format!("{expected:?}"), "{}", engine.name());
    }
}

// ---------------------------------------------------------------------------
// 4. One loop per machine
// ---------------------------------------------------------------------------

/// Sockets this process holds, as the kernel lists its descriptors;
/// `None` where there is no `/proc` to read.
fn open_sockets() -> Option<usize> {
    let fds = std::fs::read_dir("/proc/self/fd").ok()?;
    let is_socket = |fd: &std::fs::DirEntry| {
        std::fs::read_link(fd.path()).is_ok_and(|to| to.to_string_lossy().starts_with("socket:"))
    };
    Some(fds.flatten().filter(is_socket).count())
}

/// A machine holds one mesh: the threaded TCP route's 4 machines hold one
/// socket per peer each, 4 × 3 = 12 (a control mesh beside the data mesh
/// made it 24). Counted in a process of its own — this test binary again,
/// on this test alone — so that no other test's sockets are counted.
#[test]
fn a_machine_holds_one_mesh() {
    const NAME: &str = "a_machine_holds_one_mesh";
    if !std::env::args().any(|a| a == "--exact") {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([NAME, "--exact", "--test-threads=1", "--nocapture"])
            .output()
            .expect("re-running the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success() && stdout.contains("1 passed"), "{stdout}{stderr}");
        eprint!("{stderr}");
        return;
    }
    let Some(before) = open_sockets() else {
        eprintln!("{NAME}: no /proc/self/fd on this host, so no socket was counted");
        return;
    };
    let machines = 4;
    let dg = place(&test_graph(), machines, &cfg(EngineKind::PowerGraphSync)).expect("placement");
    let stats = Arc::new(NetStats::new());
    let mesh = ThreadedMesh { transport: TransportKind::Tcp, shards: &dg.shards };
    let seats = mesh.attach::<(u32, f64)>(&stats).expect("a threaded TCP mesh");
    let held = open_sockets().expect("/proc/self/fd was read a moment ago") - before;
    assert_eq!(held, machines * (machines - 1), "sockets held by {machines} machines' seats");
    drop(seats);
}

#[path = "../crates/cluster/tests/one_loop.rs"]
mod one_loop;
