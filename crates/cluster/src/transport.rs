//! Transport selection: the same `Endpoint<T>` API over channels or TCP.
//!
//! Engines are written against [`Endpoint`] and never learn which backend
//! carries their batches:
//!
//! * **InProc** (default) — the original channel mesh from
//!   [`build_mesh`]: zero-copy `Vec<T>` moves, buffer-pool recycling,
//!   no serialization. NetStats byte counters stay `size_of` estimates.
//! * **Tcp** — every batch is `Wire`-encoded into a length-prefixed Data
//!   frame and crosses a real socket. The endpoint drives its own
//!   non-blocking sockets on the machine thread, through one `poll(2)`
//!   loop per machine (`io_loop`). NetStats additionally gets
//!   **measured** frame bytes.
//!
//! ## Failure semantics
//!
//! A machine that finishes drops its endpoint: what it queued and then a
//! `Shutdown` frame reach every peer, and the sockets close — peers treat
//! that as a clean close. A machine that *dies* (process kill, panic)
//! never sends `Shutdown`: its peers read EOF. In fail-fast mode that
//! fails the mesh, and every later call — `exchange`, `send`, `recv`,
//! `try_recv` — reports [`CommError::Transport`]; a blocking call whose
//! peers have all left cleanly reports [`CommError::MeshClosed`] instead
//! of waiting forever. In recovery mode a torn link waits for its peer to
//! rejoin, and fails the mesh when the rejoin window runs out.
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
use std::time::Duration;

use lazygraph_net::{
    connect_mesh, dial_rejoin, FrameKind, NetError, PeerLink, TcpOptions, Wire, WireReader,
    HEADER_LEN, MAX_FRAME,
};

use crate::comm::{build_mesh, Batch, Endpoint, RawBatch};
use crate::error::CommError;
use crate::io_loop::TcpLinks;
use crate::stats::NetStats;

/// Which backend carries mesh batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channel mesh (zero-copy, estimates only).
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

/// Builds the full mesh for `n` machines over the chosen backend.
///
/// For [`TransportKind::Tcp`] the machines still live in this process
/// (one thread each, exactly like InProc) but every batch crosses a real
/// loopback socket — the configuration the transport-equivalence tests
/// use to prove serialization changes nothing.
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
    encode_payload(b.from, b.round, b.sent_at, b.last, &b.items, &mut out);
    out
}

fn encode_payload<T: Wire>(
    from: usize,
    round: u64,
    sent_at: f64,
    last: bool,
    items: &Vec<T>,
    out: &mut Vec<u8>,
) {
    (from as u32).encode(out);
    round.encode(out);
    sent_at.encode(out);
    last.encode(out);
    items.encode(out);
}

/// Encodes a whole Data frame — header, then [`encode_batch`]'s payload
/// for a batch of `items` — into `out`, in place: the bytes a socket
/// carries, with no intermediate payload buffer.
pub(crate) fn encode_data_frame<T: Wire>(
    out: &mut Vec<u8>,
    from: usize,
    round: u64,
    sent_at: f64,
    items: &Vec<T>,
) -> Result<(), NetError> {
    out.clear();
    out.extend_from_slice(&[0; HEADER_LEN]);
    encode_payload(from, round, sent_at, true, items, out);
    let len = out.len() - HEADER_LEN;
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4] = FrameKind::Data.as_u8();
    Ok(())
}

/// Decodes a Data-frame payload back into a batch, materializing every
/// item into a fresh `Vec<T>`.
///
/// This is the PR 4 path, retained as the byte-equality oracle for the
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
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(me, listener)| {
            let addrs = addrs.clone();
            let stats = Arc::clone(stats);
            let opts = opts.clone();
            std::thread::spawn(move || -> Result<Endpoint<T>, CommError> {
                let links = connect_mesh(me, &addrs, &listener, &opts)
                    .map_err(|e| CommError::transport(me, &e))?;
                // In recovery mode the listener joins the endpoint's poll
                // set so a restarted peer can dial back in.
                let keep = opts.rejoin_window.map(|_| listener);
                tcp_endpoint(me, n, links, &stats, &opts, keep, 0)
            })
        })
        .collect();
    let mut endpoints = Vec::with_capacity(n);
    for (me, h) in handles.into_iter().enumerate() {
        let ep = h
            .join()
            .map_err(|_| CommError::Transport {
                me,
                detail: "mesh establishment thread panicked".into(),
            })??;
        endpoints.push(ep);
    }
    Ok(endpoints)
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
/// The worker-process entry point: one data (or control) mesh per call.
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
    let keep = opts.rejoin_window.map(|_| listener);
    tcp_endpoint(me, n, links, stats, opts, keep, 0)
}

/// Rejoins established meshes after a worker restart: dials *every* peer
/// (no rank split — every rejoin leg is dialed by the restarted side, so
/// there is no glare) with a `Rejoin` frame carrying `resume_round`, the
/// first round this worker will regenerate. Each peer's loop admits the
/// dial from its listener, moves the torn link onto the new socket and
/// replays its logged outbound frames for rounds `>= resume_round`; this
/// endpoint's round counter and per-link dedupe baselines start at
/// `resume_round` likewise.
///
/// Recovery mode is mandatory here; if `opts.rejoin_window` is unset a
/// default window is applied.
pub fn reconnect_tcp_endpoint<T: Wire + Send + 'static>(
    me: usize,
    addrs: &[SocketAddr],
    resume_round: u64,
    stats: &Arc<NetStats>,
    opts: &TcpOptions,
) -> Result<Endpoint<T>, CommError> {
    let n = addrs.len();
    let mine = own_addr(me, addrs)?;
    let mut opts = opts.clone();
    opts.rejoin_window.get_or_insert(Duration::from_secs(10));
    if n == 1 {
        let mut eps = build_mesh(1);
        let mut ep = eps.pop().ok_or(CommError::MeshClosed { me })?;
        ep.set_next_round(resume_round);
        return Ok(ep);
    }
    // Best-effort rebind of our original mesh address so later failures
    // of *other* workers can still rejoin through us. Lingering kernel
    // state from the dead process can make the bind fail; single-failure
    // runs never need it, so that is not an error.
    let listener = TcpListener::bind(mine).ok();
    let mut links = Vec::with_capacity(n - 1);
    for (j, addr) in addrs.iter().enumerate() {
        if j == me {
            continue;
        }
        let stream =
            dial_rejoin(addr, me, resume_round, &opts).map_err(|e| CommError::transport(me, &e))?;
        links.push(PeerLink { peer: j, stream });
    }
    let mut ep = tcp_endpoint(me, n, links, stats, &opts, listener, resume_round)?;
    ep.set_next_round(resume_round);
    Ok(ep)
}

/// Wraps established peer connections into an [`Endpoint`] whose machine
/// thread drives them.
///
/// With `opts.rejoin_window` unset this is fail-fast: a torn connection
/// fails the mesh. With a window set the mesh runs in *recovery mode*:
/// written Data rounds are logged for replay, a torn link waits for its
/// peer instead of failing, and `listener` admits a restarted peer
/// dialing back in with a [`FrameKind::Rejoin`] handshake.
fn tcp_endpoint<T: Wire + Send + 'static>(
    me: usize,
    n: usize,
    links: Vec<PeerLink>,
    stats: &Arc<NetStats>,
    opts: &TcpOptions,
    listener: Option<TcpListener>,
    start_round: u64,
) -> Result<Endpoint<T>, CommError> {
    let links = TcpLinks::<T>::new(me, n, links, stats, opts, listener, start_round)?;
    Ok(Endpoint::on_sockets(me, n, Box::new(links)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::OutboxSet;
    use crate::recovery::LinkStatus;
    use crate::stats::Phase;
    use crossbeam::channel::unbounded;
    use std::time::Instant;

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
            let fresh = connect_tcp_endpoint::<u8>(3, &addrs, &stats, &opts).err();
            let rejoin = reconnect_tcp_endpoint::<u8>(3, &addrs, 0, &stats, &opts).err();
            for err in [fresh, rejoin] {
                let Some(CommError::Transport { me: 3, detail }) = err else {
                    panic!("expected a transport error for rank 3 of {n}, got {err:?}");
                };
                assert!(detail.contains(&format!("mesh of {n} machines")), "{detail}");
            }
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
                            // Sorted by sender, like the channel mesh.
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

    #[test]
    fn dropped_endpoint_shuts_down_cleanly() {
        let n = 2;
        let stats = Arc::new(NetStats::new());
        let mut eps = build_tcp_mesh::<u32>(n, &stats, &TcpOptions::default()).unwrap();
        let mut ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        ep0.send(1, vec![5, 6], 0.0, Phase::Async, 4, &stats).unwrap();
        let mut got = ep1.recv().unwrap();
        got.make_items().unwrap();
        assert_eq!(got.items, vec![5, 6]);
        // Machine 0 finishes and drops its endpoint → its Shutdown frame
        // reaches machine 1 → the link is closed cleanly, and no peer is
        // left to send → recv reports MeshClosed rather than hanging.
        drop(ep0);
        let err = ep1.recv().unwrap_err();
        assert_eq!(err, CommError::MeshClosed { me: 1 });
        // A round the departed peer can no longer complete reports the
        // closed mesh too, instead of blocking on a batch that cannot come.
        let err = ep1
            .exchange(&mut OutboxSet::new(n), 0.0, Phase::Coherency, 4, &stats)
            .unwrap_err();
        assert_eq!(err, CommError::MeshClosed { me: 1 });
    }

    #[test]
    fn an_encoded_staging_vector_returns_to_the_pool() {
        let stats = Arc::new(NetStats::new());
        let mut eps = build_tcp_mesh::<u32>(2, &stats, &TcpOptions::default()).unwrap();
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let mut staged = Vec::with_capacity(64);
        staged.extend([5, 6]);
        ep0.send(1, staged, 0.0, Phase::Async, 4, &stats).unwrap();
        // The frame reached machine 1, so machine 0 has encoded it — which
        // is where the emptied vector goes back to the pool.
        let mut got = ep1.recv().unwrap();
        got.make_items().unwrap();
        assert_eq!(got.items, vec![5, 6]);
        let reused = ep0.take_buffer(&stats);
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 64, "the travelled capacity must come home");
        let snap = stats.snapshot();
        assert_eq!((snap.pool_hits, snap.pool_misses), (1, 0));
    }

    #[test]
    fn single_machine_tcp_mesh_degenerates_to_channels() {
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
            if ep1.send(0, burst, 0.0, Phase::Async, 4, &stats).is_err() {
                writer_retired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(writer_retired, "writer never observed the torn socket");
        // The 1 <-> 2 half of the mesh must still work: no poison.
        ep1.send(2, vec![11], 0.0, Phase::Async, 4, &stats).unwrap();
        ep2.send(1, vec![22], 0.0, Phase::Async, 4, &stats).unwrap();
        let mut b1 = ep1.recv().unwrap();
        b1.make_items().unwrap();
        assert_eq!(b1.items, vec![22]);
        let mut b2 = ep2.recv().unwrap();
        b2.make_items().unwrap();
        assert_eq!(b2.items, vec![11]);
        assert_eq!(stats.snapshot().reconnects, 0);
    }

    /// Reserves `n` distinct loopback addresses (bind, record, release) —
    /// the same trick the multiprocess launcher uses.
    fn alloc_addrs(n: usize) -> Vec<SocketAddr> {
        let listeners: Vec<_> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        listeners.iter().map(|l| l.local_addr().unwrap()).collect()
    }

    #[test]
    fn crashed_machine_rejoins_with_exact_replay() {
        // End-to-end rejoin over a live 2-machine recovery-mode mesh:
        // machine 0 completes rounds 0..3, dies without Shutdown frames,
        // and a fresh endpoint rejoins with resume_round = 2 (as if its
        // last checkpoint was taken there). The survivor must see every
        // round's payload exactly once (replay duplicates deduped), and
        // the rejoiner must receive the survivor's rounds 2..6 — round 2
        // from the replay log, the rest live.
        let n = 2;
        let stats = Arc::new(NetStats::new());
        let opts = TcpOptions {
            rejoin_window: Some(Duration::from_secs(30)),
            ..TcpOptions::default()
        };
        let addrs = alloc_addrs(n);
        let payload = |me: usize, round: u64| (me as u32 + 1) * 100 + round as u32;
        let rounds_total = 6u64;
        let crash_after = 3u64; // machine 0 dies with next_round == 3
        let resume_round = 2u64; // pretend checkpoint watermark

        let run_rounds = move |ep: &mut Endpoint<u32>,
                          rounds: std::ops::Range<u64>,
                          stats: &Arc<NetStats>|
         -> Vec<u32> {
            let me = ep.me();
            let mut got = Vec::new();
            for round in rounds {
                let mut ob = OutboxSet::new(n);
                ob.push(1 - me, payload(me, round));
                let batches = ep.exchange(&mut ob, 0.0, Phase::Coherency, 4, stats).unwrap();
                for mut b in batches {
                    b.make_items().unwrap();
                    got.extend_from_slice(&b.items);
                    ep.recycle(b);
                }
            }
            got
        };

        let (m0_done_tx, m0_done_rx) = unbounded::<()>();
        let (m1_done_tx, m1_done_rx) = unbounded::<()>();
        let (crash_tx, crash_rx) = unbounded::<()>();

        let (got0, got1) = std::thread::scope(|s| {
            let survivor = s.spawn(|| {
                let mut ep = connect_tcp_endpoint::<u32>(1, &addrs, &stats, &opts).unwrap();
                // Rounds 0..3 against the doomed first incarnation...
                let mut got = run_rounds(&mut ep, 0..crash_after, &stats);
                m1_done_tx.send(()).unwrap();
                // ...then block mid-exchange until the rejoin completes.
                got.extend(run_rounds(&mut ep, crash_after..rounds_total, &stats));
                got
            });
            let doomed = s.spawn(|| {
                let mut ep = connect_tcp_endpoint::<u32>(0, &addrs, &stats, &opts).unwrap();
                run_rounds(&mut ep, 0..crash_after, &stats);
                m0_done_tx.send(()).unwrap();
                crash_rx.recv().unwrap();
                // Bare EOF everywhere — no Shutdown frames, like a kill.
                ep.crash_for_test();
            });
            // Only crash once both sides have fully delivered rounds < 3 —
            // exactly the guarantee a checkpoint barrier provides for rounds
            // below the snapshot watermark.
            m0_done_rx.recv().unwrap();
            m1_done_rx.recv().unwrap();
            crash_tx.send(()).unwrap();
            doomed.join().unwrap();

            let mut ep =
                reconnect_tcp_endpoint::<u32>(0, &addrs, resume_round, &stats, &opts).unwrap();
            // Regenerate rounds 2..6 bit-identically; the survivor's dedupe
            // drops the repeated round 2, and its replay log covers the
            // rounds 2..4 the dead instance took with it.
            let got0 = run_rounds(&mut ep, resume_round..rounds_total, &stats);
            drop(ep);
            (got0, survivor.join().unwrap())
        });
        let want1: Vec<u32> = (0..rounds_total).map(|r| payload(0, r)).collect();
        let want0: Vec<u32> = (resume_round..rounds_total).map(|r| payload(1, r)).collect();
        assert_eq!(got1, want1, "survivor saw every round exactly once");
        assert_eq!(got0, want0, "rejoiner saw replayed + live rounds");
        let snap = stats.snapshot();
        assert_eq!(snap.reconnects, 1);
        assert!(snap.replay_rounds >= 1, "round 2 must come from the log");
    }

    /// Machines 0 and 1 of a 3-machine mesh whose machine 2 has died: bare
    /// EOF on both of its links, as from a killed process.
    fn mesh_without_machine_2(opts: &TcpOptions) -> (Endpoint<u32>, Endpoint<u32>, Arc<NetStats>) {
        let stats = Arc::new(NetStats::new());
        let mut eps = build_tcp_mesh::<u32>(3, &stats, opts).unwrap();
        eps.pop().unwrap().crash_for_test();
        let ep1 = eps.pop().unwrap();
        (eps.pop().unwrap(), ep1, stats)
    }

    /// The failure a torn link leaves on machine `me`, naming the peer.
    fn torn_by_machine_2(err: &CommError, me: usize) -> bool {
        matches!(err, CommError::Transport { me: m, detail } if *m == me && detail.contains("machine 2"))
    }

    #[test]
    fn exchange_over_a_torn_link_is_a_transport_error() {
        let (mut ep0, _ep1, stats) = mesh_without_machine_2(&TcpOptions::default());
        let err = ep0
            .exchange(&mut OutboxSet::new(3), 0.0, Phase::Coherency, 4, &stats)
            .unwrap_err();
        assert!(torn_by_machine_2(&err, 0), "{err:?}");
    }

    #[test]
    fn recv_over_a_torn_link_is_a_transport_error() {
        let (mut ep0, _ep1, _) = mesh_without_machine_2(&TcpOptions::default());
        let err = ep0.recv().unwrap_err();
        assert!(torn_by_machine_2(&err, 0), "{err:?}");
    }

    #[test]
    fn try_recv_over_a_torn_link_is_a_transport_error() {
        let (mut ep0, ep1, stats) = mesh_without_machine_2(&TcpOptions::default());
        // A batch that arrived before the failure is still delivered...
        ep1.send(0, vec![7], 0.0, Phase::Async, 4, &stats).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match ep0.try_recv() {
                Ok(Some(mut b)) => {
                    b.make_items().unwrap();
                    assert_eq!((b.from, b.items), (1, vec![7]));
                }
                Ok(None) => assert!(Instant::now() < deadline, "the torn link was never noticed"),
                Err(err) => break err,
            }
        };
        // ...and then the failure, on this call and every later one.
        assert!(torn_by_machine_2(&err, 0), "{err:?}");
        assert_eq!(ep0.try_recv().unwrap_err(), err);
        assert_eq!(ep0.send(1, vec![8], 0.0, Phase::Async, 4, &stats).unwrap_err(), err);
    }

    #[test]
    fn a_rejoin_window_that_runs_out_fails_the_mesh() {
        let window = Duration::from_millis(300);
        let opts = TcpOptions { rejoin_window: Some(window), ..TcpOptions::default() };
        let (mut ep0, _ep1, _) = mesh_without_machine_2(&opts);
        let torn = Instant::now();
        // In recovery mode the torn link waits for machine 2 to come back;
        // nobody does, so the wait ends with the window.
        let err = ep0.recv().unwrap_err();
        assert!(torn.elapsed() >= window, "failed before the window ran out");
        assert!(torn_by_machine_2(&err, 0), "{err:?}");
        assert!(err.to_string().contains("did not rejoin"), "{err}");
    }
}
