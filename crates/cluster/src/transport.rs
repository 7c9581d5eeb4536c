//! Transport selection: the same `Endpoint<T>` API over channels or TCP.
//!
//! Engines are written against [`Endpoint`] and never learn which backend
//! carries their batches:
//!
//! * **InProc** (default) — the original channel mesh from
//!   [`build_mesh`]: zero-copy `Vec<T>` moves, buffer-pool recycling,
//!   no serialization. NetStats byte counters stay `size_of` estimates.
//! * **Tcp** — every batch is `Wire`-encoded into a length-prefixed Data
//!   frame and crosses a real socket. Behind the endpoint sit two proxy
//!   threads per peer connection: a *writer* draining an outbound channel
//!   onto the socket, and a *reader* reassembling frames into inbound
//!   batches. NetStats additionally gets **measured** frame bytes.
//!
//! ## Failure semantics
//!
//! A machine that finishes drops its endpoint; the writers drain what is
//! queued, send a `Shutdown` frame, and exit — peers treat that as a
//! clean close. A machine that *dies* (process kill, panic) never sends
//! `Shutdown`: its peers' readers see EOF, flip the machine-local poison
//! flag, and exit. Because mesh sockets run with a short read timeout,
//! every other reader notices the poison on its next tick and exits too,
//! which disconnects the endpoint's inbound channel — so a blocked
//! `recv`/`exchange` surfaces [`CommError::MeshClosed`] instead of
//! hanging forever.
//!
//! ## Wire format of a Data frame payload
//!
//! ```text
//! [from: u32] [round: u64] [sent_at: f64 bits as u64] [last: u8] [items: Vec<T>]
//! ```
//!
//! all little-endian via [`Wire`]; see DESIGN.md §10.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use lazygraph_net::tcp::configure;
use lazygraph_net::{
    connect_mesh, control_payload, decode_rejoin_payload, dial_rejoin, read_frame_deadline,
    write_frame, FrameKind, FrameReader, NetError, PeerLink, TcpOptions, Wire, WireReader,
};

use crate::comm::{build_mesh, Batch, Endpoint, RawBatch, ASYNC_ROUND};
use crate::error::CommError;
use crate::recovery::{LinkShared, LinkStatus, RecoveryShared};
use crate::stats::NetStats;

/// How often a writer wakes from its outbound-channel wait to check
/// whether a rejoin swap has superseded it.
const WRITER_TICK: Duration = Duration::from_millis(50);

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
    (b.from as u32).encode(&mut out);
    b.round.encode(&mut out);
    b.sent_at.encode(&mut out);
    b.last.encode(&mut out);
    b.items.encode(&mut out);
    out
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
/// cannot race; each machine thread then runs the standard dial/accept
/// split from `lazygraph_net::connect_mesh`.
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
                // In recovery mode the listener stays alive inside the
                // acceptor thread so a restarted peer can dial back in.
                let keep = opts.rejoin_window.map(|_| listener);
                Ok(tcp_endpoint(me, n, links, &stats, &opts, keep, 0))
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
    Ok(tcp_endpoint(me, n, links, stats, opts, keep, 0))
}

/// Rejoins established meshes after a worker restart: dials *every* peer
/// (no rank split — every rejoin leg is dialed by the restarted side, so
/// there is no glare) with a `Rejoin` frame carrying `resume_round`, the
/// first round this worker will regenerate. Each peer's acceptor swaps
/// the torn link for the new socket and replays its logged outbound
/// frames for rounds `>= resume_round`; this endpoint's round counter and
/// per-link dedupe baselines start at `resume_round` likewise.
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
    let mut ep = tcp_endpoint(me, n, links, stats, &opts, listener, resume_round);
    ep.set_next_round(resume_round);
    Ok(ep)
}

/// Wraps established peer connections into an [`Endpoint`] backed by
/// writer/reader proxy threads.
///
/// With `opts.rejoin_window` unset this behaves exactly like the PR 4
/// transport: torn connections poison the mesh fail-fast. With a window
/// set the mesh runs in *recovery mode*: outbound Data rounds are logged
/// for replay, a torn link degrades to `Down` (awaiting rejoin) instead
/// of poisoning, and an acceptor thread holds `listener` to admit a
/// restarted peer dialing back in with a [`FrameKind::Rejoin`] handshake.
fn tcp_endpoint<T: Wire + Send + 'static>(
    me: usize,
    n: usize,
    links: Vec<PeerLink>,
    stats: &Arc<NetStats>,
    opts: &TcpOptions,
    listener: Option<TcpListener>,
    start_round: u64,
) -> Endpoint<T> {
    let (in_tx, in_rx) = unbounded::<Batch<T>>();
    let (ret_tx, ret_rx) = unbounded::<Vec<T>>();
    // Remote peers cannot take a vector's capacity back over a socket, so
    // every "return to owner" lands in our own pool instead.
    // The writer proxies hold the remaining clones: an outbound staging
    // vector comes home the moment it has been encoded onto the socket.
    let ret_txs: Vec<Sender<Vec<T>>> = (0..n).map(|_| ret_tx.clone()).collect();
    // Zero-copy buffer loop: recycled raw-frame payloads flow from the
    // endpoint back to the reader proxies, which park them in their
    // FrameReader pools. One shared MPMC queue serves every reader — a
    // buffer need not return to the link it arrived on, capacity just has
    // to keep circulating.
    let (raw_ret_tx, raw_ret_rx) = unbounded::<Vec<u8>>();

    // Self-sends are routed locally by the engines; the slot still needs a
    // sender, so give it one whose receiver is already gone.
    let (dead_tx, _) = unbounded::<Batch<T>>();
    let mut txs: Vec<Option<Sender<Batch<T>>>> = (0..n).map(|_| None).collect();
    txs[me] = Some(dead_tx);

    // One poison flag per machine: any proxy thread that sees an unclean,
    // unrecoverable failure sets it, and every reader exits on its next
    // timeout tick, disconnecting `in_rx` so the engine observes
    // `MeshClosed`.
    let poison = Arc::new(AtomicBool::new(false));
    let recovery_mode = opts.rejoin_window.is_some();
    let shared = RecoveryShared::new(me, n, recovery_mode, start_round);

    let mut flush_on_drop = Vec::with_capacity(links.len());
    // In recovery mode the acceptor keeps a clone of each peer's outbound
    // receiver so a replacement writer can take over the queue mid-run.
    let mut out_rxs: Vec<Option<Receiver<Batch<T>>>> = (0..n).map(|_| None).collect();
    for link in links {
        let peer = link.peer;
        let stream = link.stream;
        let (out_tx, out_rx) = unbounded::<Batch<T>>();
        txs[peer] = Some(out_tx);
        let lshared = Arc::clone(&shared.links[peer]);

        // Writer half works on a clone; reader keeps the original.
        match stream.try_clone() {
            Ok(wstream) => {
                *lshared.stream.lock() = stream.try_clone().ok();
                let handle = spawn_writer(WriterCtx {
                    me,
                    stream: wstream,
                    out_rx: out_rx.clone(),
                    ret_tx: ret_tx.clone(),
                    stats: Arc::clone(stats),
                    poison: Arc::clone(&poison),
                    link: Arc::clone(&lshared),
                    opts: opts.clone(),
                    logging: shared.logging,
                    gen: 0,
                    replay: Vec::new(),
                });
                if recovery_mode {
                    out_rxs[peer] = Some(out_rx);
                    *lshared.writer.lock() = Some(handle);
                } else {
                    flush_on_drop.push(handle);
                }
            }
            Err(_) => {
                // No writer: sends to this peer fail as PeerDisconnected
                // (the out_rx end just dropped), and the mesh is poisoned
                // so peers don't hang waiting for our batches.
                poison.store(true, Ordering::Release);
            }
        }
        let handle = spawn_reader(ReaderCtx {
            me,
            stream,
            in_tx: in_tx.clone(),
            raw_rx: raw_ret_rx.clone(),
            stats: Arc::clone(stats),
            poison: Arc::clone(&poison),
            link: lshared.clone(),
            shared: Arc::clone(&shared),
            recovery_mode,
            gen: 0,
        });
        if recovery_mode {
            *lshared.reader.lock() = handle;
        }
    }
    if recovery_mode {
        // The acceptor owns the listener and an inbound sender; it is the
        // thread that notices expired rejoin windows. Its handle rides in
        // `flush_on_drop` so teardown joins it first, before the per-link
        // threads stored in `LinkShared`.
        flush_on_drop.push(spawn_acceptor(AcceptorCtx {
            me,
            n,
            listener,
            shared: Arc::clone(&shared),
            in_tx: in_tx.clone(),
            raw_rx: raw_ret_rx.clone(),
            out_rxs,
            ret_tx,
            stats: Arc::clone(stats),
            poison: Arc::clone(&poison),
            opts: opts.clone(),
        }));
    }
    // Readers (and in recovery mode the acceptor) hold the only inbound
    // senders from here on.
    drop(in_tx);

    let txs: Vec<Sender<Batch<T>>> = txs
        .into_iter()
        .map(|t| match t {
            Some(t) => t,
            // Unreachable in practice (every slot is filled above); a
            // disconnected sender keeps the failure typed if it ever isn't.
            None => {
                let (tx, _) = unbounded();
                tx
            }
        })
        .collect();
    // The flush handles ride in the endpoint: dropping it joins them, so
    // "endpoint dropped" implies "all frames (incl. Shutdown) flushed" —
    // the guarantee a worker process needs before it may exit. In recovery
    // mode the per-link threads are joined afterwards via `LinkShared`.
    let mut ep = Endpoint::from_parts(me, n, txs, in_rx, ret_txs, ret_rx, flush_on_drop);
    ep.set_recovery(shared);
    ep.set_raw_return(raw_ret_tx);
    ep
}

/// Everything one writer proxy thread needs.
struct WriterCtx<T> {
    me: usize,
    stream: TcpStream,
    out_rx: Receiver<Batch<T>>,
    /// The endpoint's buffer-pool return path: encoded staging vectors go
    /// home through it, so `Endpoint::take_buffer` hits on TCP as it does
    /// in-proc.
    ret_tx: Sender<Vec<T>>,
    stats: Arc<NetStats>,
    poison: Arc<AtomicBool>,
    link: Arc<LinkShared>,
    opts: TcpOptions,
    /// Whether outbound Data rounds are logged for replay.
    logging: bool,
    /// The link generation this writer belongs to; it retires silently
    /// when the acceptor moves the link to a newer socket.
    gen: u64,
    /// Logged payloads to retransmit before draining the live queue
    /// (non-empty only for the replacement writer after a rejoin).
    replay: Vec<Vec<u8>>,
}

/// Writer proxy: drains the outbound channel onto the socket. Exits when
/// the endpoint drops (sending the clean Shutdown frame), when a rejoin
/// swap supersedes it, or on an unrecoverable socket failure. A write
/// error is *not* immediately a failure: the peer may have closed cleanly
/// (see [`writer_write_failure`]).
fn spawn_writer<T: Wire + Send + 'static>(ctx: WriterCtx<T>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let WriterCtx {
            me,
            mut stream,
            out_rx,
            ret_tx,
            stats,
            poison,
            link,
            opts,
            logging,
            gen,
            replay,
        } = ctx;
        // Replay first: logged frames for the rounds the rejoined peer
        // lost. They are already encoded; order is original send order.
        for payload in &replay {
            match write_frame(&mut stream, FrameKind::Data, payload) {
                Ok(total) => {
                    stats.record_wire_sent(1, total as u64);
                    stats.record_replay_round();
                }
                Err(_) => {
                    writer_write_failure(&link, &poison, &opts, gen);
                    return;
                }
            }
        }
        drop(replay);
        let mut payload = Vec::new();
        loop {
            match out_rx.recv_timeout(WRITER_TICK) {
                Ok(mut batch) => {
                    payload.clear();
                    (batch.from as u32).encode(&mut payload);
                    batch.round.encode(&mut payload);
                    batch.sent_at.encode(&mut payload);
                    batch.last.encode(&mut payload);
                    batch.items.encode(&mut payload);
                    // The items are on the payload now: send the emptied
                    // staging vector home (the endpoint may already be
                    // gone at teardown, which just drops the capacity).
                    batch.items.clear();
                    if batch.items.capacity() != 0 {
                        let _ = ret_tx.send(std::mem::take(&mut batch.items));
                    }
                    // Log before the socket write: a frame lost to a torn
                    // write must still be replayable.
                    if logging && batch.round != ASYNC_ROUND {
                        link.log_frame(batch.round, &payload, &stats);
                    }
                    match write_frame(&mut stream, batch.kind, &payload) {
                        Ok(total) => {
                            stats.record_wire_sent(1, total as u64);
                        }
                        Err(_) => {
                            writer_write_failure(&link, &poison, &opts, gen);
                            return;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Superseded by a rejoin swap: the replacement writer
                    // owns both queue and socket now. Retire without a
                    // Shutdown frame — the link itself is still live.
                    if link.gen.load(Ordering::Acquire) != gen {
                        return;
                    }
                }
                // Endpoint dropped: everything queued has been drained
                // (the channel yields buffered batches before reporting
                // disconnect), so close cleanly.
                Err(RecvTimeoutError::Disconnected) => {
                    if let Ok(total) =
                        write_frame(&mut stream, FrameKind::Shutdown, &control_payload(me))
                    {
                        stats.record_wire_sent(1, total as u64);
                    }
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    link.set_status(LinkStatus::Finished);
                    return;
                }
            }
        }
    })
}

/// Decides what a writer's socket error means. A peer that closed its
/// socket after sending Shutdown can RST bytes still in flight, so the
/// write error races the reader observing the Shutdown frame: give the
/// reader a bounded window (a few read-timeout ticks) to deliver its
/// verdict before concluding the peer died. Only a link still `Up` at the
/// deadline is a real failure — `Down` (awaiting rejoin) in recovery
/// mode, mesh poison otherwise.
fn writer_write_failure(link: &LinkShared, poison: &AtomicBool, opts: &TcpOptions, gen: u64) {
    let deadline = Instant::now() + opts.read_timeout * 4 + Duration::from_millis(100);
    loop {
        if link.gen.load(Ordering::Acquire) != gen {
            return; // superseded mid-poll: the failure was the swap sever
        }
        match link.status() {
            // The peer left on purpose, or our own teardown already
            // flushed Shutdown: not a failure.
            LinkStatus::CleanClosed | LinkStatus::Finished => return,
            // The reader already classified the tear.
            LinkStatus::Down(_) => return,
            LinkStatus::Up => {
                if Instant::now() >= deadline {
                    if opts.rejoin_window.is_some() {
                        link.set_status(LinkStatus::Down(Instant::now()));
                    } else {
                        poison.store(true, Ordering::Release);
                    }
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Everything one reader proxy thread needs.
struct ReaderCtx<T> {
    me: usize,
    stream: TcpStream,
    in_tx: Sender<Batch<T>>,
    /// Recycled raw-frame buffers coming home from the endpoint; drained
    /// into the `FrameReader` pool before each poll so steady-state
    /// frames reuse travelled capacity instead of allocating.
    raw_rx: Receiver<Vec<u8>>,
    stats: Arc<NetStats>,
    poison: Arc<AtomicBool>,
    link: Arc<LinkShared>,
    shared: Arc<RecoveryShared>,
    recovery_mode: bool,
    /// The link generation this reader belongs to (recovery mode).
    gen: u64,
}

/// Reader proxy: reassembles frames into inbound batches. Exits on the
/// peer's clean Shutdown, on endpoint drop, on supersession by a rejoin
/// swap, or on any unclean failure (mesh poison outside recovery mode; a
/// `Down` rejoin window inside it). In recovery mode it also runs the
/// count-based dedupe that makes replayed/regenerated rounds exact.
///
/// Returns `Some(handle)` in recovery mode (the acceptor/teardown joins
/// it); detached otherwise.
fn spawn_reader<T: Wire + Send + 'static>(
    ctx: ReaderCtx<T>,
) -> Option<std::thread::JoinHandle<()>> {
    let recovery_mode = ctx.recovery_mode;
    let body = move || {
        let ReaderCtx {
            me,
            mut stream,
            in_tx,
            raw_rx,
            stats,
            poison,
            link,
            shared,
            recovery_mode,
            gen,
        } = ctx;
        let peer = link.peer;
        let mut reader = FrameReader::new();
        loop {
            // Pull home any raw buffers the engine recycled since the
            // last poll; the next frame then assembles into one of them.
            while let Ok(buf) = raw_rx.try_recv() {
                reader.supply_buffer(buf);
            }
            match reader.poll(&mut stream) {
                Ok(Some(frame)) => match frame.kind {
                    FrameKind::Data => {
                        stats.record_wire_recv(1, frame.wire_len() as u64);
                        if reader.last_frame_pooled() {
                            // Handed off zero-copy AND assembled in a
                            // recycled buffer: the steady state where an
                            // inbound batch allocates nothing.
                            stats.record_zero_copy_frames(1);
                        }
                        let batch = match decode_batch_raw::<T>(frame.payload) {
                            Ok(batch) => batch,
                            Err(_) => {
                                poison.store(true, Ordering::Release);
                                return;
                            }
                        };
                        debug_assert_eq!(batch.from, peer, "machine {me}: spoofed sender");
                        if recovery_mode {
                            debug_assert_ne!(
                                batch.round, ASYNC_ROUND,
                                "recovery mode requires dense BSP rounds"
                            );
                            // Count-based dedupe: rounds are dense per
                            // link, one batch each, so anything below the
                            // forwarded watermark is a replayed or
                            // regenerated duplicate.
                            let fwd = link.fwd_rounds.load(Ordering::Acquire);
                            if batch.round < fwd {
                                continue;
                            }
                            debug_assert_eq!(batch.round, fwd, "rounds are dense per link");
                            if in_tx.send(batch).is_err() {
                                return;
                            }
                            link.fwd_rounds.store(fwd + 1, Ordering::Release);
                        } else if in_tx.send(batch).is_err() {
                            // Our endpoint is gone; nothing left to
                            // deliver to.
                            return;
                        }
                    }
                    FrameKind::Shutdown => {
                        stats.record_wire_recv(1, frame.wire_len() as u64);
                        // Clean close: sticky, so a raced socket error on
                        // the writer side is never reported as a failure.
                        link.set_status(LinkStatus::CleanClosed);
                        return;
                    }
                    FrameKind::Hello | FrameKind::Rejoin => {
                        // Handshake frames never appear on an established
                        // link (rejoins arrive on the *listener*).
                        poison.store(true, Ordering::Release);
                        return;
                    }
                },
                // Timeout tick: the moment to notice poison, teardown, or
                // a rejoin swap that superseded this reader.
                Ok(None) => {
                    if poison.load(Ordering::Acquire) {
                        return;
                    }
                    if recovery_mode
                        && (shared.is_closed() || link.gen.load(Ordering::Acquire) != gen)
                    {
                        return;
                    }
                }
                // EOF without Shutdown, or a hard socket/protocol error.
                Err(_) => {
                    if recovery_mode {
                        if shared.is_closed() || link.gen.load(Ordering::Acquire) != gen {
                            return; // teardown/swap severed the socket
                        }
                        // Torn connection: open the rejoin window instead
                        // of failing the mesh. The acceptor enforces its
                        // expiry.
                        link.set_status(LinkStatus::Down(Instant::now()));
                    } else {
                        poison.store(true, Ordering::Release);
                    }
                    return;
                }
            }
        }
    };
    if recovery_mode {
        Some(std::thread::spawn(body))
    } else {
        // lazylint: allow(detached-spawn) -- readers exit on the peer's Shutdown
        // frame, which may arrive arbitrarily after this endpoint is done;
        // joining here would deadlock a clean shutdown (see Endpoint's Drop)
        std::thread::spawn(body);
        None
    }
}

/// Everything the rejoin acceptor thread needs.
struct AcceptorCtx<T> {
    me: usize,
    n: usize,
    /// The mesh listener, kept alive for rejoin dials. `None` when the
    /// original address could not be rebound after our own restart — the
    /// mesh still works, it just cannot admit a *second* failure.
    listener: Option<TcpListener>,
    shared: Arc<RecoveryShared>,
    in_tx: Sender<Batch<T>>,
    /// The shared raw-buffer return queue, cloned into replacement
    /// readers on rejoin swaps.
    raw_rx: Receiver<Vec<u8>>,
    /// Clones of each peer's outbound queue receiver, handed to
    /// replacement writers on swap.
    out_rxs: Vec<Option<Receiver<Batch<T>>>>,
    /// The buffer-pool return path, cloned into replacement writers.
    ret_tx: Sender<Vec<T>>,
    stats: Arc<NetStats>,
    poison: Arc<AtomicBool>,
    opts: TcpOptions,
}

/// Rejoin acceptor (recovery mode only): polls the mesh listener for
/// `Rejoin` dials from restarted peers and swaps the torn link onto the
/// new socket, and poisons the mesh when a `Down` link's rejoin window
/// expires with nobody coming back.
fn spawn_acceptor<T: Wire + Send + 'static>(ctx: AcceptorCtx<T>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let window = ctx.opts.rejoin_window.unwrap_or_default();
        if let Some(l) = &ctx.listener {
            let _ = l.set_nonblocking(true);
        }
        loop {
            if ctx.shared.is_closed() || ctx.poison.load(Ordering::Acquire) {
                // Exit WITHOUT joining per-link threads: writers must stay
                // alive to drain their queues until the endpoint's drop
                // disconnects them; the drop joins everything afterwards.
                return;
            }
            for link in &ctx.shared.links {
                if link.peer == ctx.me {
                    continue;
                }
                if let LinkStatus::Down(since) = link.status() {
                    if since.elapsed() > window {
                        // Nobody rejoined in time: degrade to fail-fast.
                        ctx.poison.store(true, Ordering::Release);
                        return;
                    }
                }
            }
            let Some(listener) = &ctx.listener else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    // A malformed dial never takes the mesh down; the
                    // window clock keeps running for the real rejoin.
                    let _ = admit_rejoin(&ctx, stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    })
}

/// Handles one accepted rejoin connection: validates the handshake, then
/// swaps the peer's link onto the new socket — retire the old proxy pair,
/// compute the replay set, spawn replacements.
fn admit_rejoin<T: Wire + Send + 'static>(
    ctx: &AcceptorCtx<T>,
    mut stream: TcpStream,
) -> Result<(), NetError> {
    stream
        .set_nonblocking(false)
        .map_err(|e| NetError::from_io(&e, "rejoin unblock"))?;
    configure(&stream, &ctx.opts)?;
    let deadline = Instant::now() + Duration::from_secs(2);
    let frame = read_frame_deadline(&mut stream, deadline)?;
    if frame.kind != FrameKind::Rejoin {
        return Err(NetError::Handshake {
            detail: format!("expected Rejoin, got {:?}", frame.kind),
        });
    }
    let (peer, resume_round) = decode_rejoin_payload(&frame.payload)?;
    if peer >= ctx.n || peer == ctx.me || ctx.out_rxs[peer].is_none() {
        return Err(NetError::Handshake {
            detail: format!("rejoin from invalid peer {peer}"),
        });
    }
    let link = &ctx.shared.links[peer];
    // Retire the old proxy pair. Ordering matters: bump the generation
    // first (so a blocked writer retires instead of poisoning), sever the
    // old socket, and join both threads BEFORE computing the replay set —
    // the old writer may still pop-log-and-fail a batch, and that batch
    // must make the replay.
    let new_gen = link.gen.fetch_add(1, Ordering::AcqRel) + 1;
    if let Some(old) = link.stream.lock().take() {
        let _ = old.shutdown(std::net::Shutdown::Both);
    }
    if let Some(h) = link.writer.lock().take() {
        let _ = h.join();
    }
    if let Some(h) = link.reader.lock().take() {
        let _ = h.join();
    }
    let replay = link.replay_from(resume_round);
    let wstream = stream
        .try_clone()
        .map_err(|e| NetError::from_io(&e, "rejoin stream clone"))?;
    *link.stream.lock() = stream.try_clone().ok();
    link.set_status(LinkStatus::Up);
    *link.writer.lock() = Some(spawn_writer(WriterCtx {
        me: ctx.me,
        stream: wstream,
        out_rx: ctx.out_rxs[peer].clone().expect("checked above"), // lazylint: allow(no-panic) -- mesh construction fills every peer != me slot, and the acceptor only serves peers
        ret_tx: ctx.ret_tx.clone(),
        stats: Arc::clone(&ctx.stats),
        poison: Arc::clone(&ctx.poison),
        link: Arc::clone(link),
        opts: ctx.opts.clone(),
        logging: ctx.shared.logging,
        gen: new_gen,
        replay,
    }));
    *link.reader.lock() = spawn_reader(ReaderCtx {
        me: ctx.me,
        stream,
        in_tx: ctx.in_tx.clone(),
        raw_rx: ctx.raw_rx.clone(),
        stats: Arc::clone(&ctx.stats),
        poison: Arc::clone(&ctx.poison),
        link: Arc::clone(link),
        shared: Arc::clone(&ctx.shared),
        recovery_mode: true,
        gen: new_gen,
    });
    ctx.stats.record_reconnect();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::OutboxSet;
    use crate::stats::Phase;

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
        // the size_of estimates. (No sent == recv assertion here: the
        // proxy threads' Shutdown frames are still in flight when the
        // machine threads join, so the two counters race by a few frames.)
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
        // Machine 0 finishes and drops its endpoint → writers send
        // Shutdown → machine 1's reader exits cleanly → inbound channel
        // disconnects → recv reports MeshClosed rather than hanging.
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
    fn writer_proxy_returns_the_staging_vector_to_the_pool() {
        let stats = Arc::new(NetStats::new());
        let mut eps = build_tcp_mesh::<u32>(2, &stats, &TcpOptions::default()).unwrap();
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        let mut staged = Vec::with_capacity(64);
        staged.extend([5, 6]);
        ep0.send(1, staged, 0.0, Phase::Async, 4, &stats).unwrap();
        // The frame reached machine 1, so machine 0's writer is past its
        // encode — which is where it sends the emptied vector home.
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
        // Regression (PR 6 satellite): a peer that closed its socket
        // right after sending Shutdown — before our writer noticed — used
        // to poison the whole mesh when a later write to it failed. The
        // write error must be classified against the link status instead:
        // CleanClosed retires the one writer, the rest of the mesh lives.
        let n = 3;
        let stats = Arc::new(NetStats::new());
        // A short write timeout so a write blocked on the dead peer's full
        // buffers surfaces its error quickly (the classification under
        // test is the same for EPIPE, RST, and timeout).
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
        // Wait (bounded) until machine 1's reader has classified it.
        let shared = Arc::clone(ep1.recovery_shared().unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.links[0].status() != LinkStatus::CleanClosed {
            assert!(Instant::now() < deadline, "Shutdown frame never classified");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Hammer the closed link until the writer hits the socket error
        // and retires; its retirement surfaces as a *per-peer* disconnect
        // on send, never as a mesh-wide failure.
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

        let survivor = {
            let addrs = addrs.clone();
            let stats = Arc::clone(&stats);
            let opts = opts.clone();
            std::thread::spawn(move || {
                let mut ep = connect_tcp_endpoint::<u32>(1, &addrs, &stats, &opts).unwrap();
                // Rounds 0..3 against the doomed first incarnation...
                let mut got = run_rounds(&mut ep, 0..crash_after, &stats);
                m1_done_tx.send(()).unwrap();
                // ...then block mid-exchange until the rejoin completes.
                got.extend(run_rounds(&mut ep, crash_after..rounds_total, &stats));
                got
            })
        };
        let doomed = {
            let addrs = addrs.clone();
            let stats = Arc::clone(&stats);
            let opts = opts.clone();
            std::thread::spawn(move || {
                let mut ep = connect_tcp_endpoint::<u32>(0, &addrs, &stats, &opts).unwrap();
                run_rounds(&mut ep, 0..crash_after, &stats);
                m0_done_tx.send(()).unwrap();
                crash_rx.recv().unwrap();
                // Bare EOF everywhere — no Shutdown frames, like a kill.
                ep.crash_for_test();
            })
        };
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

        let got1 = survivor.join().unwrap();
        let want1: Vec<u32> = (0..rounds_total).map(|r| payload(0, r)).collect();
        let want0: Vec<u32> = (resume_round..rounds_total).map(|r| payload(1, r)).collect();
        assert_eq!(got1, want1, "survivor saw every round exactly once");
        assert_eq!(got0, want0, "rejoiner saw replayed + live rounds");
        let snap = stats.snapshot();
        assert_eq!(snap.reconnects, 1);
        assert!(snap.replay_rounds >= 1, "round 2 must come from the log");
    }
}
