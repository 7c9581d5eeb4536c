//! TCP mesh establishment: retrying connect, Hello handshake, and the
//! deterministic dial/accept split.
//!
//! A mesh of `n` machines needs one socket per unordered peer pair. To
//! avoid the classic simultaneous-connect glare, the split is fixed by
//! rank: machine `i` **dials** every peer `j < i` and **accepts** from
//! every peer `j > i`. Each dialed connection opens with a `Hello` frame
//! carrying the dialer's machine id, so the acceptor learns who is on
//! the other end without trusting ephemeral source ports.
//!
//! Workers start in arbitrary order (they are separate OS processes), so
//! dialing retries with exponential backoff until the peer's listener is
//! up or the attempt budget runs out. Accepting polls a non-blocking
//! listener under a deadline so a worker that never comes up surfaces as
//! a typed [`NetError::Timeout`] instead of a hang.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::frame::{control_payload, decode_control_payload, write_frame, FrameKind, FrameReader, RawFrame};

/// Tunables for mesh sockets. The defaults suit loopback workers that
/// start within a few seconds of each other.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// Max dial attempts before giving up on a peer.
    pub connect_attempts: u32,
    /// First retry delay; doubles each attempt.
    pub backoff_base: Duration,
    /// Ceiling on the per-attempt delay.
    pub backoff_max: Duration,
    /// Read timeout of the blocking Hello reads: the tick at which a handshake deadline is checked; partial frames
    /// survive ticks. Established mesh sockets are non-blocking.
    pub read_timeout: Duration,
    /// Write timeout of the blocking handshake writes, and how long a
    /// closing endpoint waits for a peer that has stopped draining its
    /// socket before it gives the peer up.
    pub write_timeout: Duration,
    /// Overall deadline for mesh establishment (accepting + Hello).
    pub handshake_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_attempts: 60,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(250),
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(20),
        }
    }
}

/// Dials `addr`, retrying with exponential backoff.
pub fn connect_with_backoff(addr: &SocketAddr, opts: &TcpOptions) -> Result<TcpStream, NetError> {
    let mut delay = opts.backoff_base;
    let mut last = String::new();
    let attempts = opts.connect_attempts.max(1);
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(delay);
            delay = (delay * 2).min(opts.backoff_max);
        }
    }
    Err(NetError::ConnectFailed { addr: addr.to_string(), attempts, last })
}

/// Applies the per-socket options every mesh stream runs with.
fn configure(stream: &TcpStream, opts: &TcpOptions) -> Result<(), NetError> {
    stream.set_nodelay(true).map_err(|e| NetError::from_io(&e, "set_nodelay"))?;
    stream
        .set_read_timeout(Some(opts.read_timeout))
        .map_err(|e| NetError::from_io(&e, "set_read_timeout"))?;
    stream
        .set_write_timeout(Some(opts.write_timeout))
        .map_err(|e| NetError::from_io(&e, "set_write_timeout"))?;
    Ok(())
}

/// Reads one complete frame from `stream`, tolerating timeout ticks,
/// until `deadline` passes.
pub fn read_frame_deadline(stream: &mut TcpStream, deadline: Instant) -> Result<RawFrame, NetError> {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(stream) {
            Ok(Some(frame)) => return Ok(frame),
            Ok(None) => {
                if Instant::now() >= deadline {
                    return Err(NetError::Timeout { what: "handshake frame" });
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One established mesh connection.
#[derive(Debug)]
pub struct PeerLink {
    /// The machine id on the far end.
    pub peer: usize,
    /// The connected, configured stream.
    pub stream: TcpStream,
}

/// Establishes the full mesh for machine `me` of `addrs.len()` machines.
///
/// `listener` must already be bound to `addrs[me]` (binding early — before
/// any dialing — is what makes the retry loop converge). Returns one
/// [`PeerLink`] per peer, sorted by peer id.
pub fn connect_mesh(
    me: usize,
    addrs: &[SocketAddr],
    listener: &TcpListener,
    opts: &TcpOptions,
) -> Result<Vec<PeerLink>, NetError> {
    let n = addrs.len();
    let deadline = Instant::now() + opts.handshake_timeout;
    let mut links: Vec<PeerLink> = Vec::with_capacity(n.saturating_sub(1));

    // Dial every lower-ranked peer, identifying ourselves with Hello.
    for (j, addr) in addrs.iter().enumerate().take(me) {
        let mut stream = connect_with_backoff(addr, opts)?;
        configure(&stream, opts)?;
        write_frame(&mut stream, FrameKind::Hello, &control_payload(me))?;
        links.push(PeerLink { peer: j, stream });
    }

    // Accept every higher-ranked peer; they tell us who they are.
    let expected_accepts = n.saturating_sub(me + 1);
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::from_io(&e, "listener set_nonblocking"))?;
    let mut seen = vec![false; n];
    while links.len() < n.saturating_sub(1) {
        if Instant::now() >= deadline {
            return Err(NetError::Timeout { what: "mesh accept" });
        }
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io(&e, "mesh accept")),
        };
        stream
            .set_nonblocking(false)
            .map_err(|e| NetError::from_io(&e, "stream set_blocking"))?;
        configure(&stream, opts)?;
        let mut stream = stream;
        let hello = read_frame_deadline(&mut stream, deadline)?;
        if hello.kind != FrameKind::Hello {
            return Err(NetError::Handshake {
                detail: format!("expected Hello, got {:?}", hello.kind),
            });
        }
        let peer = decode_control_payload(&hello.payload)?;
        if peer <= me || peer >= n {
            return Err(NetError::Handshake {
                detail: format!("machine {me} accepted Hello from out-of-range peer {peer} (n={n})"),
            });
        }
        if seen[peer] {
            return Err(NetError::Handshake {
                detail: format!("machine {me} accepted a duplicate Hello from peer {peer}"),
            });
        }
        seen[peer] = true;
        links.push(PeerLink { peer, stream });
    }
    debug_assert_eq!(
        links.iter().filter(|l| l.peer > me).count(),
        expected_accepts,
    );

    links.sort_by_key(|l| l.peer);
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_listener() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        (l, addr)
    }

    #[test]
    fn connect_refused_reports_attempts() {
        // Bind-then-drop: the port is (very likely) closed afterward.
        let (l, addr) = loopback_listener();
        drop(l);
        let opts = TcpOptions {
            connect_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            ..TcpOptions::default()
        };
        match connect_with_backoff(&addr, &opts) {
            Err(NetError::ConnectFailed { attempts: 3, .. }) => {}
            other => panic!("expected ConnectFailed after 3 attempts, got {other:?}"),
        }
    }

    #[test]
    fn connect_succeeds_after_listener_appears() {
        let (l, addr) = loopback_listener();
        let opts = TcpOptions::default();
        let dialer = std::thread::spawn(move || connect_with_backoff(&addr, &opts));
        let (_accepted, _) = l.accept().unwrap();
        assert!(dialer.join().unwrap().is_ok());
    }

    #[test]
    fn three_machine_mesh_establishes() {
        let n = 3;
        let mut listeners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let (l, a) = loopback_listener();
            listeners.push(l);
            addrs.push(a);
        }
        let addrs2 = addrs.clone();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let addrs = addrs2.clone();
                std::thread::spawn(move || {
                    connect_mesh(me, &addrs, &listener, &TcpOptions::default())
                })
            })
            .collect();
        for (me, h) in handles.into_iter().enumerate() {
            let links = h.join().unwrap().unwrap();
            let peers: Vec<usize> = links.iter().map(|l| l.peer).collect();
            let expected: Vec<usize> = (0..n).filter(|&j| j != me).collect();
            assert_eq!(peers, expected, "machine {me} peer set");
        }
    }
}
