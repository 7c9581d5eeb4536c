//! Transport selection: the same `Endpoint<T>` API in process or over TCP.
//!
//! Engines are written against [`Endpoint`] and never learn which carrier
//! moves their batches; both move the same encoded Data-frame payloads:
//!
//! * **InProc** (default) — [`build_mesh`]: handed to the peer's inbox in
//!   memory (`carrier`). NetStats byte counters stay `size_of` estimates.
//! * **Tcp** — behind a frame header, over non-blocking sockets that the
//!   machine thread drives through one `poll(2)` loop (`io_loop`).
//!   NetStats additionally gets **measured** frame bytes.
//!
//! ## Failure semantics
//!
//! A machine that finishes drops its endpoint: what it sent, then word
//! that it left (over TCP a `Shutdown` frame), reaches every peer — a
//! clean close. A machine that *dies* (process kill, panic) leaves torn:
//! over TCP its peers read EOF, in process its endpoint's drop tells them
//! so. That fails the mesh, and every later `exchange` reports
//! [`CommError::Transport`]; a round whose peers have all left cleanly
//! reports [`CommError::MeshClosed`] instead of waiting forever. A failed
//! mesh is never mended: recovery restarts the whole gang on fresh meshes
//! (DESIGN.md §12).
//!
//! ## Wire format of a Data frame payload
//!
//! ```text
//! [from: u32] [round: u64] [sent_at: f64 bits as u64] [last: u8] [items: Vec<T>]
//! ```
//!
//! all little-endian via [`Wire`]; see DESIGN.md §10.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use lazygraph_net::{
    connect_mesh, FrameKind, NetError, PeerLink, TcpOptions, Wire, WireReader, HEADER_LEN,
    MAX_FRAME,
};

use crate::comm::{build_mesh, Batch, Endpoint, RawBatch};
use crate::error::CommError;
use crate::io_loop::TcpLinks;
use crate::stats::NetStats;

/// Which carrier moves mesh batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process: encoded batches handed over in memory (estimates only).
    #[default]
    InProc,
    /// Framed TCP over loopback (serialized, measured wire bytes).
    Tcp,
}

lazygraph_net::wire_enum!(TransportKind { InProc = 0, Tcp = 1 });

impl TransportKind {
    /// Name for reports and CLI round-tripping.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inproc" | "channel" | "in-proc" => Ok(TransportKind::InProc),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport '{other}' (expected inproc|tcp)")),
        }
    }
}

/// Builds the full mesh for `n` machines over the chosen carrier.
///
/// For [`TransportKind::Tcp`] the machines still live in this process
/// (one thread each, exactly like InProc) but every batch crosses a real
/// loopback socket — the configuration the transport-equivalence tests
/// use to prove the sockets change nothing.
pub fn build_endpoints<T: Wire + Send + 'static>(
    kind: TransportKind,
    n: usize,
    stats: &Arc<NetStats>,
) -> Result<Vec<Endpoint<T>>, CommError> {
    match kind {
        TransportKind::InProc => Ok(build_mesh(n)),
        TransportKind::Tcp => build_tcp_mesh(n, stats, &TcpOptions::default()),
    }
}

/// Encodes one batch as a Data-frame payload.
pub fn encode_batch<T: Wire>(b: &Batch<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(22 + b.items.len() * 8);
    // Past `MAX_FRAME` the payload is still whole; only a carrier refuses it.
    let _ = encode_data(&mut out, b.from, b.round, b.sent_at, b.last, &b.items);
    out
}

/// Appends the Data-frame payload of a batch of `items` to `out`, refusing
/// one past [`MAX_FRAME`]: the bytes every route carries, over a socket
/// behind a frame header ([`encode_data_frame`]), in process as they are.
pub(crate) fn encode_data<T: Wire>(
    out: &mut Vec<u8>,
    from: usize,
    round: u64,
    sent_at: f64,
    last: bool,
    items: &Vec<T>,
) -> Result<(), NetError> {
    let start = out.len();
    (from as u32).encode(out);
    round.encode(out);
    sent_at.encode(out);
    last.encode(out);
    items.encode(out);
    let len = out.len() - start;
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    Ok(())
}

/// Encodes a whole Data frame — header, then [`encode_data`]'s payload —
/// into `out`, in place: the bytes a socket carries, with no intermediate
/// payload buffer.
pub(crate) fn encode_data_frame<T: Wire>(
    out: &mut Vec<u8>,
    from: usize,
    round: u64,
    sent_at: f64,
    last: bool,
    items: &Vec<T>,
) -> Result<(), NetError> {
    out.clear();
    out.extend_from_slice(&[0; HEADER_LEN]);
    encode_data(out, from, round, sent_at, last, items)?;
    let len = out.len() - HEADER_LEN;
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4] = FrameKind::Data.as_u8();
    Ok(())
}

/// Decodes a Data-frame payload back into a batch, materializing every
/// item into a fresh `Vec<T>`.
///
/// The materializing path, retained as the byte-equality oracle for the
/// zero-copy [`decode_batch_raw`] (see `tests/zero_copy.rs`) and for
/// consumers that want eager validation of the whole payload.
pub fn decode_batch<T: Wire>(payload: &[u8]) -> Result<Batch<T>, NetError> {
    let mut r = WireReader::new(payload);
    let from = u32::decode(&mut r)? as usize;
    let round = u64::decode(&mut r)?;
    let sent_at = f64::decode(&mut r)?;
    let last = bool::decode(&mut r)?;
    let items = Vec::<T>::decode(&mut r)?;
    r.finish()?;
    Ok(Batch { from, sent_at, round, last, kind: FrameKind::Data, items, raw: None })
}

/// Header-only decode of a Data-frame payload: parses the routing header
/// and the item count, then hands the payload buffer itself — items
/// still encoded — to the consumer as a [`RawBatch`] cursor. No per-item
/// decode, no `Vec<T>` allocation; the engine's route pass decodes each
/// item exactly once, straight into its destination bucket.
///
/// The items region is *not* validated here (that would require walking
/// it); a malformed tail surfaces at the cursor decode instead, where
/// the consumer drops the remainder of the batch.
pub fn decode_batch_raw<T: Wire>(payload: Vec<u8>) -> Result<Batch<T>, NetError> {
    let (from, round, sent_at, last, count, offset) = {
        let mut r = WireReader::new(&payload);
        let from = u32::decode(&mut r)? as usize;
        let round = u64::decode(&mut r)?;
        let sent_at = f64::decode(&mut r)?;
        let last = bool::decode(&mut r)?;
        let count = u32::decode(&mut r)?;
        (from, round, sent_at, last, count, payload.len() - r.remaining())
    };
    Ok(Batch {
        from,
        sent_at,
        round,
        last,
        kind: FrameKind::Data,
        items: Vec::new(),
        raw: Some(RawBatch { bytes: payload, offset, count }),
    })
}

fn io_err(me: usize, what: &'static str, e: &std::io::Error) -> CommError {
    CommError::transport(me, &NetError::from_io(e, what))
}

/// Builds an all-loopback TCP mesh with every machine in this process.
///
/// Listeners are bound (port 0) before any thread dials, so establishment
/// cannot race; one short-lived thread per machine then runs the standard
/// dial/accept split from `lazygraph_net::connect_mesh`, and every one of
/// them is joined before this returns: the mesh itself runs no thread.
pub fn build_tcp_mesh<T: Wire + Send + 'static>(
    n: usize,
    stats: &Arc<NetStats>,
    opts: &TcpOptions,
) -> Result<Vec<Endpoint<T>>, CommError> {
    assert!(n > 0);
    if n == 1 {
        // A 1-machine mesh has no peers and therefore no sockets.
        return Ok(build_mesh(1));
    }
    let mut listeners = Vec::with_capacity(n);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for me in 0..n {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(me, "mesh bind", &e))?;
        let addr = l.local_addr().map_err(|e| io_err(me, "mesh local_addr", &e))?;
        listeners.push(l);
        addrs.push(addr);
    }
    let addrs = &addrs;
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                s.spawn(move || -> Result<Endpoint<T>, CommError> {
                    let links = connect_mesh(me, addrs, &listener, opts)
                        .map_err(|e| CommError::transport(me, &e))?;
                    tcp_endpoint(me, n, links, stats, opts)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(me, h)| {
                h.join().map_err(|_| CommError::Transport {
                    me,
                    detail: "mesh establishment thread panicked".into(),
                })?
            })
            .collect()
    })
}

/// Machine `me`'s own address in the mesh `addrs` describes. A rank the
/// list has no entry for is a typed error — the list comes out of a job
/// file, and a short one must not index out of bounds or quietly shrink
/// the mesh.
fn own_addr(me: usize, addrs: &[SocketAddr]) -> Result<SocketAddr, CommError> {
    addrs.get(me).copied().ok_or_else(|| CommError::Transport {
        me,
        detail: format!("rank {me} has no address in a mesh of {} machines", addrs.len()),
    })
}

/// Binds `addrs[me]`, joins the mesh, and returns this machine's endpoint.
/// The worker-process entry point: one data (or control) mesh per call,
/// the same on a gang's first start and on every restart.
pub fn connect_tcp_endpoint<T: Wire + Send + 'static>(
    me: usize,
    addrs: &[SocketAddr],
    stats: &Arc<NetStats>,
    opts: &TcpOptions,
) -> Result<Endpoint<T>, CommError> {
    let n = addrs.len();
    let mine = own_addr(me, addrs)?;
    if n == 1 {
        let mut eps = build_mesh(1);
        // `build_mesh(1)` returns exactly one endpoint.
        return eps.pop().ok_or(CommError::MeshClosed { me });
    }
    let listener = TcpListener::bind(mine).map_err(|e| io_err(me, "worker mesh bind", &e))?;
    let links = connect_mesh(me, addrs, &listener, opts).map_err(|e| CommError::transport(me, &e))?;
    tcp_endpoint(me, n, links, stats, opts)
}

/// Wraps established peer connections into an [`Endpoint`] whose machine
/// thread drives them. A torn connection fails the mesh.
fn tcp_endpoint<T: Wire + Send + 'static>(
    me: usize,
    n: usize,
    links: Vec<PeerLink>,
    stats: &Arc<NetStats>,
    opts: &TcpOptions,
) -> Result<Endpoint<T>, CommError> {
    let links = TcpLinks::<T>::new(me, n, links, stats, opts)?;
    Ok(Endpoint::new(me, n, Box::new(links)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::OutboxSet;
    use crate::recovery::LinkStatus;
    use crate::stats::Phase;
    use std::time::{Duration, Instant};

    #[test]
    fn transport_kind_parses() {
        assert_eq!("inproc".parse::<TransportKind>().unwrap(), TransportKind::InProc);
        assert_eq!("tcp".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert!("smoke-signals".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Tcp.name(), "tcp");
    }

    #[test]
    fn a_rank_outside_the_address_list_is_a_typed_error() {
        let stats = Arc::new(NetStats::new());
        let opts = TcpOptions::default();
        // Also with a one-entry list, which must not become a 1-machine mesh.
        for n in [1, 2] {
            let addrs: Vec<SocketAddr> = vec!["127.0.0.1:1".parse().unwrap(); n];
            let err = connect_tcp_endpoint::<u8>(3, &addrs, &stats, &opts).err();
            let Some(CommError::Transport { me: 3, detail }) = err else {
                panic!("expected a transport error for rank 3 of {n}, got {err:?}");
            };
            assert!(detail.contains(&format!("mesh of {n} machines")), "{detail}");
        }
    }

    #[test]
    fn batch_payload_round_trips() {
        let b = Batch {
            from: 3,
            sent_at: 1.25,
            round: 42,
            last: true,
            kind: FrameKind::Data,
            items: vec![(7u32, -1.5f64), (9, 0.0)],
            raw: None,
        };
        let payload = encode_batch(&b);
        let back = decode_batch::<(u32, f64)>(&payload).unwrap();
        assert_eq!(back.from, 3);
        assert_eq!(back.round, 42);
        assert_eq!(back.sent_at.to_bits(), 1.25f64.to_bits());
        assert!(back.last);
        assert_eq!(back.items, b.items);
        // The zero-copy header decode agrees field-for-field, and its
        // cursor materializes the identical item vector.
        let mut raw = decode_batch_raw::<(u32, f64)>(payload).unwrap();
        assert_eq!(raw.item_count(), 2);
        raw.make_items().unwrap();
        assert_eq!(
            (raw.from, raw.round, raw.sent_at.to_bits(), raw.last, &raw.items),
            (back.from, back.round, back.sent_at.to_bits(), back.last, &back.items),
        );
    }

    /// A voting round carries each sender's vote in its batches' header on
    /// both transports, empty batches included; a plain round sets it.
    #[test]
    fn a_voting_round_carries_each_senders_vote_on_every_transport() {
        let n = 3;
        for kind in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let eps = build_endpoints::<u32>(kind, n, &stats).unwrap();
            let seen = crate::runtime::run_machines(eps, |mut ep| {
                let me = ep.me();
                let mut outboxes = OutboxSet::new(n);
                outboxes.push((me + 1) % n, 7);
                let busy = me == 1;
                let voted =
                    ep.exchange_voting(&mut outboxes, 0.0, !busy, Phase::Async, 4, &stats).unwrap();
                let plain = ep.exchange(&mut outboxes, 0.0, Phase::Async, 4, &stats).unwrap();
                let flags = |r: &[Batch<u32>]| r.iter().map(|b| (b.from, b.last)).collect::<Vec<_>>();
                (flags(&voted), flags(&plain))
            });
            for (me, (voted, plain)) in seen.into_iter().enumerate() {
                let peers = (0..n).filter(|&p| p != me);
                let want: Vec<_> = peers.clone().map(|p| (p, p != 1)).collect();
                assert_eq!(voted, want, "{kind:?}: machine {me}'s voting round");
                assert_eq!(plain, peers.map(|p| (p, true)).collect::<Vec<_>>(), "{kind:?}");
            }
        }
    }

    #[test]
    fn tcp_mesh_exchange_matches_inproc_semantics() {
        let n = 3;
        let stats = Arc::new(NetStats::new());
        let eps = build_tcp_mesh::<u64>(n, &stats, &TcpOptions::default()).unwrap();
        let sums: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .map(|mut ep| {
                    let stats = Arc::clone(&stats);
                    s.spawn(move || {
                        let mut total = 0u64;
                        for round in 0..5u64 {
                            let mut ob = OutboxSet::new(n);
                            for dst in 0..n {
                                if dst != ep.me() {
                                    ob.push(dst, (ep.me() as u64) * 100 + round);
                                }
                            }
                            let got = ep
                                .exchange(&mut ob, 0.0, Phase::Coherency, 8, &stats)
                                .unwrap();
                            assert_eq!(got.len(), n - 1);
                            // Sorted by sender, like the in-process mesh.
                            for w in got.windows(2) {
                                assert!(w[0].from < w[1].from);
                            }
                            for mut b in got {
                                b.make_items().unwrap();
                                assert_eq!(b.items.len(), 1);
                                assert_eq!(b.round, round);
                                total += b.items[0];
                                ep.recycle(b);
                            }
                        }
                        total
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (d, sum) in sums.iter().enumerate() {
            let expected: u64 = (0..5)
                .flat_map(|round| {
                    (0..n).filter(|&src| src != d).map(move |src| (src as u64) * 100 + round)
                })
                .sum();
            assert_eq!(*sum, expected, "machine {d}");
        }
        // Wire truth: measured frame bytes were recorded and differ from
        // the size_of estimates. (No sent == recv assertion here: a
        // machine that closes first never reads the Shutdown frames of
        // the peers that close after it, so the two counters differ by a
        // few frames.)
        let snap = stats.snapshot();
        assert!(snap.wire_frames_sent >= (5 * n * (n - 1)) as u64);
        assert!(snap.wire_frames_recv >= (5 * n * (n - 1)) as u64);
        assert!(snap.wire_bytes_sent > 0);
        assert_ne!(snap.wire_bytes_sent, snap.total_est_bytes());
    }

    /// Both carriers: one mesh of `n` for each.
    fn on_both(n: usize, mut f: impl FnMut(TransportKind, Vec<Endpoint<u32>>, &Arc<NetStats>)) {
        for kind in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            f(kind, build_endpoints::<u32>(kind, n, &stats).unwrap(), &stats);
        }
    }

    #[test]
    fn dropped_endpoint_shuts_down_cleanly() {
        on_both(2, |kind, mut eps, stats| {
            let mut ep1 = eps.pop().unwrap();
            let mut ep0 = eps.pop().unwrap();
            ep0.send_tagged(1, vec![5, 6], 0.0, 0, true, Phase::Async, 4, stats).unwrap();
            let mut got = ep1.next_batch(&|p| p == 0).unwrap();
            got.make_items().unwrap();
            assert_eq!(got.items, vec![5, 6], "{kind:?}");
            // Machine 0 finishes and drops its endpoint → word that it left
            // reaches machine 1 → the link is closed cleanly, and no peer is
            // left to send → a receive reports MeshClosed rather than hanging.
            drop(ep0);
            let err = ep1.next_batch(&|p| p == 0).unwrap_err();
            assert_eq!(err, CommError::MeshClosed { me: 1 }, "{kind:?}");
            // A round the departed peer can no longer complete reports the
            // closed mesh too, instead of blocking on a batch that cannot come.
            let err = ep1
                .exchange(&mut OutboxSet::new(2), 0.0, Phase::Coherency, 4, stats)
                .unwrap_err();
            assert_eq!(err, CommError::MeshClosed { me: 1 }, "{kind:?}");
        });
    }

    #[test]
    fn an_encoded_staging_vector_returns_to_the_pool() {
        on_both(2, |kind, mut eps, stats| {
            let ep1 = eps.pop().unwrap();
            let mut ep0 = eps.pop().unwrap();
            let mut staged = Vec::with_capacity(64);
            staged.extend([5, 6]);
            ep0.send_tagged(1, staged, 0.0, 0, true, Phase::Async, 4, stats).unwrap();
            // The batch reached machine 1, so machine 0 has encoded it — which
            // is where the emptied vector goes back to the pool.
            let mut got = ep1.next_batch(&|p| p == 0).unwrap();
            got.make_items().unwrap();
            assert_eq!(got.items, vec![5, 6], "{kind:?}");
            let reused = ep0.take_buffer(stats);
            assert!(reused.is_empty());
            assert!(reused.capacity() >= 64, "{kind:?}: the staged capacity must come home");
            let snap = stats.snapshot();
            assert_eq!((snap.pool_hits, snap.pool_misses), (1, 0), "{kind:?}");
        });
    }

    #[test]
    fn single_machine_tcp_mesh_opens_no_socket() {
        let stats = Arc::new(NetStats::new());
        let eps = build_tcp_mesh::<u32>(1, &stats, &TcpOptions::default()).unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(stats.snapshot().wire_frames_sent, 0);
    }

    #[test]
    fn clean_shutdown_race_is_not_a_failure() {
        // Regression: a peer that closed its socket right after sending
        // Shutdown — before this side noticed — used to fail the whole
        // mesh when a later write to it failed. The write error must be
        // classified against the link status instead: CleanClosed retires
        // the one link, the rest of the mesh lives.
        let n = 3;
        let stats = Arc::new(NetStats::new());
        // A short write timeout, so that no drop below waits long on a
        // peer that has stopped reading.
        let opts = TcpOptions {
            write_timeout: Duration::from_millis(500),
            ..TcpOptions::default()
        };
        let mut eps = build_tcp_mesh::<u32>(n, &stats, &opts).unwrap();
        let mut ep2 = eps.pop().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        // Peer 0 leaves cleanly: Shutdown frames, then closed sockets.
        drop(ep0);
        // Wait (bounded) until machine 1's loop has classified it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ep1.link_status(0) != Some(LinkStatus::CleanClosed) {
            assert!(Instant::now() < deadline, "Shutdown frame never classified");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Hammer the closed link until a send is refused; the retired link
        // surfaces as a *per-peer* disconnect on send, never as a
        // mesh-wide failure.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut writer_retired = false;
        while Instant::now() < deadline {
            let burst = vec![7u32; 64 * 1024];
            if ep1.send_tagged(0, burst, 0.0, 0, true, Phase::Async, 4, &stats).is_err() {
                writer_retired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(writer_retired, "writer never observed the torn socket");
        // The 1 <-> 2 half of the mesh must still work: no poison.
        ep1.send_tagged(2, vec![11], 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
        ep2.send_tagged(1, vec![22], 0.0, 0, true, Phase::Async, 4, &stats).unwrap();
        let mut b1 = ep1.next_batch(&|p| p == 2).unwrap();
        b1.make_items().unwrap();
        assert_eq!(b1.items, vec![22]);
        let mut b2 = ep2.next_batch(&|p| p == 1).unwrap();
        b2.make_items().unwrap();
        assert_eq!(b2.items, vec![11]);
    }

    /// Machines 0 and 1 of a 3-machine mesh whose machine 2 has died: over
    /// TCP a bare EOF on both of its links, as from a killed process; in
    /// process, word that it tore.
    fn mesh_without_machine_2(kind: TransportKind) -> (Endpoint<u32>, Endpoint<u32>, Arc<NetStats>) {
        let stats = Arc::new(NetStats::new());
        let mut eps = build_endpoints::<u32>(kind, 3, &stats).unwrap();
        eps.pop().unwrap().crash_for_test();
        let ep1 = eps.pop().unwrap();
        (eps.pop().unwrap(), ep1, stats)
    }

    /// The failure a torn link leaves on machine `me`, naming the peer.
    fn torn_by_machine_2(err: &CommError, me: usize) -> bool {
        matches!(err, CommError::Transport { me: m, detail } if *m == me && detail.contains("machine 2"))
    }

    #[test]
    fn a_torn_link_fails_every_later_call_alike() {
        for kind in [TransportKind::InProc, TransportKind::Tcp] {
            let (mut ep0, _ep1, stats) = mesh_without_machine_2(kind);
            let err = ep0.next_batch(&|p| p != 0).unwrap_err();
            assert!(torn_by_machine_2(&err, 0), "{kind:?}: {err:?}");
            // The first failure is kept: every later call returns it.
            assert_eq!(ep0.next_batch(&|p| p != 0).unwrap_err(), err);
            assert_eq!(ep0.send_tagged(1, vec![8], 0.0, 0, true, Phase::Async, 4, &stats).unwrap_err(), err);
        }
    }

    #[test]
    fn exchange_over_a_torn_link_is_a_transport_error() {
        for kind in [TransportKind::InProc, TransportKind::Tcp] {
            let (mut ep0, _ep1, stats) = mesh_without_machine_2(kind);
            let err = ep0
                .exchange(&mut OutboxSet::new(3), 0.0, Phase::Coherency, 4, &stats)
                .unwrap_err();
            assert!(torn_by_machine_2(&err, 0), "{kind:?}: {err:?}");
        }
    }
}
