//! One I/O loop per machine: a TCP endpoint's sockets, driven by the
//! machine thread itself through `poll(2)`.
//!
//! A TCP [`Endpoint`](crate::Endpoint) owns its links. Per peer that is a
//! non-blocking socket, a [`FrameReader`] assembling inbound frames and a
//! queue of whole outbound frames. Every endpoint call moves every socket
//! forward — it writes what the kernel will take and reads whole frames —
//! and a call that has to wait blocks in one `poll(2)`.
//!
//! That poll covers the sockets of *every* endpoint the calling thread
//! has used, not just the caller's: a thread is a machine, and a worker
//! process's machine has two meshes, control and data. Waiting on one
//! must keep serving the other — the tail of a data round still queued
//! when this machine enters a control barrier is what a peer needs to
//! finish that round and reach the barrier at all (DESIGN.md §10). No
//! thread carries a byte: a mesh costs its sockets and its buffers,
//! nothing else.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError, Weak};
use std::time::{Duration, Instant};

use lazygraph_net::frame::FRAME_POOL_CAP;
use lazygraph_net::{
    control_payload, encode_frame_into, FrameKind, FrameReader, NetError, PeerLink, RawFrame,
    TcpOptions, Wire,
};

use crate::comm::{Batch, SocketMesh};
use crate::error::CommError;
use crate::recovery::LinkStatus;
use crate::stats::NetStats;
use crate::transport::{decode_batch_raw, encode_data_frame};

/// The `poll(2)` seam: the one system call the loop makes that `std`
/// does not wrap.
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor in `fds` is ready or `timeout` passes
    /// (`None`: no limit); returns how many are ready, 0 when the time ran
    /// out or a signal ended the wait.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
        });
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // pollfd records and its length goes with it; poll(2) writes only
        // their `revents` fields and keeps no pointer past the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if rc < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(rc.max(0) as usize)
    }
}

use sys::{PollFd, POLLIN, POLLOUT};

// ---------------------------------------------------------------------------
// The machine loop
// ---------------------------------------------------------------------------

/// What the loop needs from each endpoint it serves. Every method passes
/// over an endpoint whose lock another call holds — that call is moving
/// its sockets itself.
trait Member: Send + Sync {
    /// The loop this endpoint last joined.
    fn home(&self) -> u64;
    /// Appends the endpoint's descriptors to `fds`; returns the next
    /// instant it has to act on without any socket becoming ready.
    fn interest(&self, fds: &mut Vec<PollFd>) -> Option<Instant>;
    /// One non-blocking pass over the endpoint's sockets.
    fn advance(&self);
}

/// One thread's loop: the endpoints it has used and the descriptor array
/// its polls reuse.
struct MachineLoop {
    id: u64,
    members: Vec<Weak<dyn Member>>,
    fds: Vec<PollFd>,
}

static NEXT_LOOP: AtomicU64 = AtomicU64::new(1);

impl MachineLoop {
    fn new() -> Self {
        MachineLoop {
            id: NEXT_LOOP.fetch_add(1, Ordering::Relaxed),
            members: Vec::new(),
            fds: Vec::new(),
        }
    }
}

thread_local! {
    static MACHINE: RefCell<MachineLoop> = RefCell::new(MachineLoop::new());
}

fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

// ---------------------------------------------------------------------------
// One endpoint's links
// ---------------------------------------------------------------------------

/// One peer connection.
struct Link {
    peer: usize,
    stream: TcpStream,
    reader: FrameReader,
    status: LinkStatus,
    /// Whole frames, header included, not yet fully written, oldest
    /// first. A written frame's buffer goes back to `spare`.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` the socket has already taken.
    written: usize,
    /// Since when the socket has refused bytes that are waiting — a peer
    /// busy in local work, or one that stopped reading for good.
    stalled: Option<Instant>,
    /// Emptied frame buffers to encode the next frames into.
    spare: Vec<Vec<u8>>,
}

impl Link {
    fn new(peer: usize, stream: TcpStream) -> Self {
        Link {
            peer,
            stream,
            reader: FrameReader::new(),
            status: LinkStatus::Up,
            out: VecDeque::new(),
            written: 0,
            stalled: None,
            spare: Vec::new(),
        }
    }

    fn is_up(&self) -> bool {
        self.status == LinkStatus::Up
    }

    /// Whether the far end is gone for good: it left, or this end closed.
    fn is_closed(&self) -> bool {
        matches!(self.status, LinkStatus::CleanClosed | LinkStatus::Finished)
    }

    /// Keeps an emptied frame buffer for the next encode, up to the cap.
    fn spare(&mut self, mut bytes: Vec<u8>) {
        if self.spare.len() < FRAME_POOL_CAP {
            bytes.clear();
            self.spare.push(bytes);
        }
    }

    /// Drops every frame still waiting: the peer will never read them.
    fn discard_out(&mut self) {
        while let Some(bytes) = self.out.pop_front() {
            self.spare(bytes);
        }
        self.written = 0;
        self.stalled = None;
    }

    /// Writes what the socket will take. `Err` is a socket failure.
    fn write_out(&mut self, stats: &NetStats) -> std::io::Result<()> {
        while let Some(front) = self.out.front() {
            match self.stream.write(&front[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(k) => {
                    self.stalled = None;
                    self.written += k;
                    if self.written == front.len() {
                        self.written = 0;
                        if let Some(done) = self.out.pop_front() {
                            stats.record_wire_sent(1, done.len() as u64);
                            self.spare(done);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stalled.get_or_insert_with(Instant::now);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Everything one TCP endpoint keeps between calls.
struct Io<T> {
    me: usize,
    /// Indexed by peer; `None` at `me`.
    links: Vec<Option<Link>>,
    /// How long a closing endpoint waits on a peer that stopped draining.
    write_timeout: Duration,
    /// Batches read off the sockets, not yet taken by the endpoint.
    inbound: VecDeque<Batch<T>>,
    /// The first unrecoverable failure: every later call reports it.
    failure: Option<CommError>,
    /// The endpoint is being dropped: a peer that has not drained its
    /// socket within the write timeout is given up on. Until then a
    /// stalled write only means the peer is busy.
    closing: bool,
    stats: Arc<NetStats>,
}

impl<T: Wire> Io<T> {
    fn link(&mut self, peer: usize) -> Option<&mut Link> {
        self.links.get_mut(peer).and_then(Option::as_mut)
    }

    fn fail(&mut self, e: CommError) {
        self.failure.get_or_insert(e);
    }

    fn check(&self) -> Result<(), CommError> {
        self.failure.clone().map_or(Ok(()), Err)
    }

    /// One non-blocking pass: read and write every link and, closing,
    /// give up on stalled writes.
    fn pass(&mut self) {
        for peer in 0..self.links.len() {
            self.read_link(peer);
            self.write_link(peer);
        }
        self.expire();
    }

    /// Reads every whole frame the link's socket holds.
    fn read_link(&mut self, peer: usize) {
        loop {
            let Some(link) = self.link(peer) else { return };
            if !link.is_up() {
                return;
            }
            let frame = match link.reader.poll(&mut link.stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => return self.tear(peer, &e),
            };
            let pooled = link.reader.last_frame_pooled();
            self.on_frame(peer, frame, pooled);
        }
    }

    fn on_frame(&mut self, peer: usize, frame: RawFrame, pooled: bool) {
        let me = self.me;
        match frame.kind {
            FrameKind::Data => {
                self.stats.record_wire_recv(1, frame.wire_len() as u64);
                if pooled {
                    // Assembled in a recycled buffer and handed off as is:
                    // the steady state where an inbound batch allocates
                    // nothing.
                    self.stats.record_zero_copy_frames(1);
                }
                let batch = match decode_batch_raw::<T>(frame.payload) {
                    Ok(batch) if batch.from == peer => batch,
                    Ok(batch) => {
                        return self.fail(CommError::Transport {
                            me,
                            detail: format!(
                                "the link to machine {peer} carried a batch from {}",
                                batch.from
                            ),
                        })
                    }
                    Err(e) => return self.fail(CommError::transport(me, &e)),
                };
                self.inbound.push_back(batch);
            }
            FrameKind::Shutdown => {
                self.stats.record_wire_recv(1, frame.wire_len() as u64);
                if let Some(link) = self.link(peer) {
                    // The peer left on purpose: what is still queued for it
                    // will never be read, and no socket error after this
                    // is a failure.
                    link.status = LinkStatus::CleanClosed;
                    link.discard_out();
                }
            }
            // The handshake frame never appears on an established link.
            FrameKind::Hello => self.fail(CommError::Transport {
                me,
                detail: format!(
                    "machine {peer} sent a {:?} frame on an established link",
                    frame.kind
                ),
            }),
        }
    }

    /// Writes what the link's socket will take. A write error is judged
    /// only after reading what already arrived: a peer that closed after
    /// its Shutdown frame can reset the bytes still in flight, and that
    /// is a departure, not a failure.
    fn write_link(&mut self, peer: usize) {
        let Some(Some(link)) = self.links.get_mut(peer) else {
            return;
        };
        if !link.is_up() || link.out.is_empty() {
            return;
        }
        if let Err(e) = link.write_out(&self.stats) {
            self.read_link(peer);
            self.tear(peer, &NetError::from_io(&e, "frame write"));
        }
    }

    /// A connection that ended without a Shutdown frame: the mesh fails.
    fn tear(&mut self, peer: usize, why: &NetError) {
        let me = self.me;
        let Some(link) = self.link(peer) else { return };
        if !link.is_up() {
            // Left cleanly, closed here, or already torn: nothing new.
            return;
        }
        link.status = LinkStatus::Down;
        self.fail(CommError::Transport {
            me,
            detail: format!("link to machine {peer}: {why}"),
        });
    }

    /// While closing, tears a link whose peer has not drained its socket
    /// within the write timeout.
    fn expire(&mut self) {
        if !self.closing {
            return;
        }
        for peer in 0..self.links.len() {
            let Some(link) = self.link(peer) else {
                continue;
            };
            if link.stalled.is_some_and(|since| since.elapsed() > self.write_timeout) {
                let why = NetError::Timeout {
                    what: "the peer to drain its socket",
                };
                self.tear(peer, &why);
            }
        }
    }

    /// The descriptors this endpoint waits on, and the next instant it
    /// must act on regardless: closing, a write timeout ending.
    fn interest(&self, fds: &mut Vec<PollFd>) -> Option<Instant> {
        let mut deadline = None;
        for link in self.links.iter().flatten().filter(|l| l.is_up()) {
            let events = if link.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            fds.push(PollFd {
                fd: link.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            let stall = link.stalled.filter(|_| self.closing);
            deadline = earliest(deadline, stall.map(|s| s + self.write_timeout));
        }
        deadline
    }

    /// Blocks until one of this machine's sockets can move (or a deadline
    /// passes), then moves the *other* endpoints of the machine when one
    /// of theirs can (or a deadline passed); the caller's next pass moves
    /// its own. `own` is the caller's loop membership, which its held lock
    /// makes unusable here anyway.
    fn block(&mut self, own: *const ()) -> Result<(), CommError> {
        let served = MACHINE.try_with(|m| {
            m.try_borrow_mut()
                .ok()
                .map(|mut m| self.block_in(&mut m, own))
        });
        match served {
            Ok(Some(r)) => r,
            // The thread is tearing down its loop: wait on this endpoint
            // alone.
            _ => self.block_in(&mut MachineLoop::new(), own),
        }
    }

    fn block_in(&mut self, l: &mut MachineLoop, own: *const ()) -> Result<(), CommError> {
        let MachineLoop { id, members, fds } = l;
        fds.clear();
        let mut deadline = self.interest(fds);
        let mine = fds.len();
        members.retain(|m| m.upgrade().is_some_and(|m| m.home() == *id));
        let others = || {
            members
                .iter()
                .filter(|m| m.as_ptr().cast::<()>() != own)
                .filter_map(Weak::upgrade)
        };
        for m in others() {
            deadline = earliest(deadline, m.interest(fds));
        }
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let ready = sys::wait(fds, timeout)
            .map_err(|e| CommError::transport(self.me, &NetError::from_io(&e, "poll")))?;
        if ready == 0 || fds[mine..].iter().any(|f| f.revents != 0) {
            for m in others() {
                m.advance();
            }
        }
        Ok(())
    }

    /// Encodes one batch into the link's outbound queue and writes what
    /// the socket takes; the encoded vector goes back to the endpoint.
    fn send(
        &mut self,
        dst: usize,
        items: Vec<T>,
        sim_now: f64,
        round: u64,
        last: bool,
    ) -> Result<Vec<T>, CommError> {
        self.check()?;
        let me = self.me;
        let disconnected = CommError::PeerDisconnected { from: me, to: dst };
        let link = self.link(dst).ok_or_else(|| disconnected.clone())?;
        if link.is_closed() {
            return Err(disconnected);
        }
        let mut bytes = link.spare.pop().unwrap_or_default();
        encode_data_frame(&mut bytes, me, round, sim_now, last, &items)
            .map_err(|e| CommError::transport(me, &e))?;
        link.out.push_back(bytes);
        self.write_link(dst);
        Ok(items)
    }

    /// The next inbound batch, waiting for one; fails with
    /// [`CommError::MeshClosed`] once every peer `needed` accepts has left.
    /// A failed mesh reports its failure once the batches that arrived
    /// before it are taken.
    fn next(
        &mut self,
        needed: &dyn Fn(usize) -> bool,
        own: *const (),
    ) -> Result<Batch<T>, CommError> {
        loop {
            self.pass();
            if let Some(batch) = self.inbound.pop_front() {
                return Ok(batch);
            }
            self.check()?;
            if self
                .links
                .iter()
                .flatten()
                .filter(|l| needed(l.peer))
                .all(Link::is_closed)
            {
                return Err(CommError::MeshClosed { me: self.me });
            }
            self.block(own)?;
        }
    }

    /// Waits until every live link has written all it holds.
    fn flush(&mut self, own: *const ()) -> Result<(), CommError> {
        loop {
            self.pass();
            self.check()?;
            if self
                .links
                .iter()
                .flatten()
                .all(|l| !l.is_up() || l.out.is_empty())
            {
                return Ok(());
            }
            self.block(own)?;
        }
    }

    /// Closes every link without a Shutdown frame: what peers see of a
    /// machine that died.
    fn sever(&mut self) {
        for link in self.links.iter_mut().flatten() {
            let _ = link.stream.shutdown(Shutdown::Both);
            link.status = LinkStatus::Finished;
        }
    }

    /// The clean close: everything queued, then a Shutdown frame, reaches
    /// every live peer before the write halves close. A machine that is
    /// unwinding from a panic, or whose mesh already failed, severs
    /// instead — its peers must not take it for finished.
    fn close(&mut self, own: *const ()) {
        if std::thread::panicking() || self.failure.is_some() {
            return self.sever();
        }
        self.closing = true;
        if self.flush(own).is_ok() {
            let shutdown = control_payload(self.me);
            let live = |l: &&mut Link| l.is_up() || l.status == LinkStatus::CleanClosed;
            for link in self.links.iter_mut().flatten().filter(live) {
                let mut bytes = link.spare.pop().unwrap_or_default();
                if encode_frame_into(FrameKind::Shutdown, &shutdown, &mut bytes).is_ok() {
                    link.out.push_back(bytes);
                }
                // Written at once, before a pass can read the peer's own
                // Shutdown and drop what is queued for it: every peer is
                // sent this frame, also one that has left already (its
                // socket still takes the bytes), so the frame count a run
                // reports does not depend on who closed first.
                let _ = link.write_out(&self.stats);
                if link.status == LinkStatus::CleanClosed {
                    link.discard_out();
                }
            }
            let _ = self.flush(own);
        }
        for link in self.links.iter_mut().flatten() {
            let _ = link.stream.shutdown(Shutdown::Write);
            if link.is_up() {
                link.status = LinkStatus::Finished;
            }
        }
    }
}

/// The shared half of a TCP endpoint: what its machine loop reaches.
struct Shared<T> {
    /// The [`MachineLoop`] this endpoint last joined (0: none).
    home: AtomicU64,
    io: Mutex<Io<T>>,
}

impl<T> Shared<T> {
    /// The endpoint's links. Only the thread that owns the endpoint takes
    /// this lock, so a holder that panicked is that thread unwinding, and
    /// the one left to take it is the endpoint's own `Drop`, which must
    /// not panic: it gets the links as the panic left them.
    fn lock(&self) -> MutexGuard<'_, Io<T>> {
        self.io.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Self::lock`] without waiting: `None` while another call holds it.
    fn try_lock(&self) -> Option<MutexGuard<'_, Io<T>>> {
        match self.io.try_lock() {
            Ok(io) => Some(io),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Wire + Send + 'static> Member for Shared<T> {
    fn home(&self) -> u64 {
        self.home.load(Ordering::Relaxed)
    }

    fn interest(&self, fds: &mut Vec<PollFd>) -> Option<Instant> {
        self.try_lock().and_then(|io| io.interest(fds))
    }

    fn advance(&self) {
        if let Some(mut io) = self.try_lock() {
            io.pass();
        }
    }
}

/// A TCP endpoint's links, driven by the machine loop of the thread that
/// calls it.
pub(crate) struct TcpLinks<T: Wire + Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Wire + Send + 'static> TcpLinks<T> {
    /// Takes over established connections; a torn one fails the mesh.
    pub(crate) fn new(
        me: usize,
        n: usize,
        peers: Vec<PeerLink>,
        stats: &Arc<NetStats>,
        opts: &TcpOptions,
    ) -> Result<Self, CommError> {
        let mut links: Vec<Option<Link>> = (0..n).map(|_| None).collect();
        for PeerLink { peer, stream } in peers {
            stream.set_nonblocking(true).map_err(|e| {
                CommError::transport(me, &NetError::from_io(&e, "mesh set_nonblocking"))
            })?;
            let slot = links.get_mut(peer).ok_or_else(|| CommError::Transport {
                me,
                detail: format!("peer {peer} is outside a mesh of {n} machines"),
            })?;
            *slot = Some(Link::new(peer, stream));
        }
        let io = Io {
            me,
            links,
            write_timeout: opts.write_timeout,
            inbound: VecDeque::new(),
            failure: None,
            closing: false,
            stats: Arc::clone(stats),
        };
        Ok(TcpLinks {
            shared: Arc::new(Shared {
                home: AtomicU64::new(0),
                io: Mutex::new(io),
            }),
        })
    }

    /// This endpoint's identity in a machine loop.
    fn own(&self) -> *const () {
        Arc::as_ptr(&self.shared).cast()
    }

    /// Joins the calling thread's loop, unless this endpoint already
    /// belongs to it. A loop drops the endpoints that have moved on to
    /// another thread's.
    fn enlist(&self) {
        let _ = MACHINE.try_with(|m| {
            let Ok(mut m) = m.try_borrow_mut() else {
                return;
            };
            if self.shared.home.swap(m.id, Ordering::Relaxed) != m.id {
                let member: Weak<dyn Member> = Arc::downgrade(&self.shared) as Weak<Shared<T>>;
                m.members.push(member);
            }
        });
    }

    fn io(&self) -> MutexGuard<'_, Io<T>> {
        self.enlist();
        self.shared.lock()
    }
}

impl<T: Wire + Send + 'static> SocketMesh<T> for TcpLinks<T> {
    fn send(&self, dst: usize, items: Vec<T>, sim_now: f64, round: u64, last: bool)
        -> Result<Vec<T>, CommError> {
        self.io().send(dst, items, sim_now, round, last)
    }

    fn next(&self, needed: &dyn Fn(usize) -> bool) -> Result<Batch<T>, CommError> {
        self.io().next(needed, self.own())
    }

    fn flush(&self) -> Result<(), CommError> {
        self.io().flush(self.own())
    }

    fn recycle_raw(&self, from: usize, bytes: Vec<u8>) {
        if let Some(link) = self.io().link(from) {
            link.reader.supply_buffer(bytes);
        }
    }

    #[cfg(test)]
    fn crash(&self) {
        self.io().sever();
    }

    #[cfg(test)]
    fn status(&self, peer: usize) -> Option<LinkStatus> {
        let mut io = self.io();
        io.pass();
        io.link(peer).map(|l| l.status)
    }
}

/// Dropping the endpoint is the clean-shutdown handshake: the frames it
/// queued and a Shutdown frame reach every live peer before the sockets
/// close, so a worker process may exit as soon as its endpoints are gone.
impl<T: Wire + Send + 'static> Drop for TcpLinks<T> {
    fn drop(&mut self) {
        let own = self.own();
        self.shared.lock().close(own);
    }
}
