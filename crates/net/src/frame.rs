//! Length-prefixed framing over a byte stream.
//!
//! Every frame on a mesh socket is
//!
//! ```text
//! [payload_len: u32 LE] [kind: u8] [payload: payload_len bytes]
//! ```
//!
//! `payload_len` counts only the payload (not the 5-byte header), and is
//! capped at [`MAX_FRAME`] so a corrupt or adversarial prefix cannot
//! drive a giant allocation. Three frame kinds exist:
//!
//! * **Data** — one `Batch` worth of encoded items plus its routing
//!   header; the payload layout is owned by the cluster layer (it is
//!   `Wire`-encoded there, this layer just moves bytes).
//! * **Hello** — the first frame on every connection; payload is the
//!   sender's machine id as `u32`. Lets the acceptor learn who dialed.
//! * **Shutdown** — clean-close handshake; payload is the sender's
//!   machine id. A peer that disappears *without* sending this surfaces
//!   as [`NetError::PeerClosed`] instead of a silent hang.
//!
//! [`FrameReader`] is deliberately *incremental*: mesh sockets are
//! non-blocking (handshake sockets run with a read timeout), so a read
//! can stop mid-frame whenever the socket has nothing more. The reader
//! keeps partial header/payload bytes across `poll` calls, so torn reads
//! (even 1 byte at a time) and would-block returns never lose data.

use std::io::{Read, Write};

use crate::error::NetError;
use crate::wire::{Wire, WireReader};

/// Sanity cap on a single frame's payload (64 MiB). Real batches are
/// orders of magnitude smaller; anything larger is a corrupt length
/// prefix or a protocol bug.
pub const MAX_FRAME: usize = 64 << 20;

/// Fixed header size: 4-byte length + 1-byte kind.
pub const HEADER_LEN: usize = 5;

/// Cap on a [`FrameReader`]'s recycled-payload free list. One reader
/// serves one peer link, and the consumer recycles a frame's payload as
/// soon as it has been routed, so a couple of buffers in flight per link
/// is the steady state; anything beyond the cap is burst capacity not
/// worth pinning.
pub const FRAME_POOL_CAP: usize = 8;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// An encoded batch of mesh items.
    Data,
    /// Connection-opening identification.
    Hello,
    /// Clean-close handshake.
    Shutdown,
}

impl FrameKind {
    /// The on-wire tag byte.
    #[inline]
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Hello => 1,
            FrameKind::Shutdown => 2,
        }
    }

    /// Parses a tag byte.
    #[inline]
    pub fn from_u8(tag: u8) -> Result<Self, NetError> {
        match tag {
            0 => Ok(FrameKind::Data),
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::Shutdown),
            tag => Err(NetError::BadTag { tag, ty: "FrameKind" }),
        }
    }
}

/// Appends one framed message (header + payload) to `out`.
///
/// Returns the total number of bytes appended — this is the *measured*
/// wire size the TCP backend reports into NetStats, as opposed to the
/// `size_of` estimates the in-proc backend records.
pub fn encode_frame_into(kind: FrameKind, payload: &[u8], out: &mut Vec<u8>) -> Result<usize, NetError> {
    if payload.len() > MAX_FRAME {
        return Err(NetError::FrameTooLarge { len: payload.len(), max: MAX_FRAME });
    }
    (payload.len() as u32).encode(out);
    out.push(kind.as_u8());
    out.extend_from_slice(payload);
    Ok(HEADER_LEN + payload.len())
}

/// Writes one framed message to `w` and flushes it.
///
/// Returns the total bytes written (header + payload).
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> Result<usize, NetError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    let total = encode_frame_into(kind, payload, &mut buf)?;
    w.write_all(&buf).map_err(|e| NetError::from_io(&e, "frame write"))?;
    w.flush().map_err(|e| NetError::from_io(&e, "frame flush"))?;
    Ok(total)
}

/// Encodes a Hello/Shutdown control payload: just the sender's id.
pub fn control_payload(from: usize) -> Vec<u8> {
    (from as u32).to_wire()
}

/// Decodes a Hello/Shutdown control payload back to the sender's id.
pub fn decode_control_payload(payload: &[u8]) -> Result<usize, NetError> {
    let id = u32::from_wire(payload)?;
    Ok(id as usize)
}

/// One fully received frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFrame {
    /// The frame's kind tag.
    pub kind: FrameKind,
    /// The payload bytes (everything after the 5-byte header).
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// Total bytes this frame occupied on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// Incremental frame parser over a (possibly timeout-ticking) reader.
///
/// Call [`FrameReader::poll`] in a loop:
///
/// * `Ok(Some(frame))` — a complete frame arrived;
/// * `Ok(None)` — the socket has nothing more for now (would block, or a
///   read timeout's tick): poll again later; any partial bytes are
///   retained;
/// * `Err(PeerClosed)` — EOF, whether mid-frame or between frames;
/// * `Err(_)` — a hard socket or protocol error.
#[derive(Debug)]
pub struct FrameReader {
    /// Header accumulation buffer.
    header: [u8; HEADER_LEN],
    /// Bytes of the header received so far.
    header_have: usize,
    /// Payload accumulation buffer (sized once the header is complete).
    payload: Vec<u8>,
    /// Bytes of the payload received so far.
    payload_have: usize,
    /// True once the header has been parsed and `payload` sized.
    in_payload: bool,
    /// Parsed kind tag (valid once `in_payload`).
    kind: FrameKind,
    /// Recycled payload buffers returned by the consumer once a frame
    /// has been routed (see [`FrameReader::supply_buffer`]). Capped at
    /// [`FRAME_POOL_CAP`].
    free: Vec<Vec<u8>>,
    /// Whether the payload of the frame currently being (or last)
    /// assembled was drawn from the `free` list rather than freshly
    /// allocated — the zero-copy steady-state signal.
    cur_pooled: bool,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// A reader with no partial state.
    pub fn new() -> Self {
        FrameReader {
            header: [0u8; HEADER_LEN],
            header_have: 0,
            payload: Vec::new(),
            payload_have: 0,
            in_payload: false,
            kind: FrameKind::Data,
            free: Vec::new(),
            cur_pooled: false,
        }
    }

    /// Returns a spent payload buffer to the reader's free list so the
    /// next frame can be assembled without a fresh heap allocation.
    ///
    /// The buffer is cleared but keeps its capacity; zero-capacity
    /// buffers and anything past [`FRAME_POOL_CAP`] are dropped rather
    /// than pooled.
    pub fn supply_buffer(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || self.free.len() >= FRAME_POOL_CAP {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Whether the most recently completed (or in-flight) frame's
    /// payload buffer came from the free list. After warmup, a healthy
    /// zero-copy consumer sees this `true` for every data frame —
    /// steady-state inbound decode then performs zero per-frame heap
    /// allocations.
    pub fn last_frame_pooled(&self) -> bool {
        self.cur_pooled
    }

    /// Buffers currently parked on the free list (diagnostics/tests).
    pub fn pooled_buffers(&self) -> usize {
        self.free.len()
    }

    /// Whether a frame is partially received (useful for diagnostics: an
    /// EOF with `mid_frame()` true is a torn connection, not a close).
    pub fn mid_frame(&self) -> bool {
        self.header_have > 0 || self.in_payload
    }

    /// Advances the parser with whatever bytes `r` can produce.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Option<RawFrame>, NetError> {
        loop {
            if !self.in_payload {
                // Accumulate the 5-byte header.
                match r.read(&mut self.header[self.header_have..]) {
                    Ok(0) => return Err(NetError::PeerClosed),
                    Ok(n) => self.header_have += n,
                    Err(e) => match classify(&e) {
                        IoClass::Tick => return Ok(None),
                        IoClass::Retry => continue,
                        IoClass::Fail => return Err(NetError::from_io(&e, "frame header")),
                    },
                }
                if self.header_have < HEADER_LEN {
                    continue;
                }
                // Header complete: parse length + kind, size the payload.
                let mut hr = WireReader::new(&self.header);
                let len = u32::decode(&mut hr)? as usize;
                let kind = FrameKind::from_u8(hr.take_u8()?)?;
                if len > MAX_FRAME {
                    return Err(NetError::FrameTooLarge { len, max: MAX_FRAME });
                }
                self.kind = kind;
                // `poll` hands completed payloads off by `mem::take`, so
                // at this point `payload` is always the empty post-take
                // husk; draw a recycled buffer if the consumer returned
                // one, otherwise allocate fresh (and record which).
                if self.payload.capacity() == 0 {
                    if let Some(buf) = self.free.pop() {
                        self.payload = buf;
                        self.cur_pooled = true;
                    } else {
                        self.cur_pooled = false;
                    }
                }
                self.payload.clear();
                self.payload.resize(len, 0);
                self.payload_have = 0;
                self.in_payload = true;
            }
            if self.payload_have < self.payload.len() {
                match r.read(&mut self.payload[self.payload_have..]) {
                    Ok(0) => return Err(NetError::PeerClosed),
                    Ok(n) => self.payload_have += n,
                    Err(e) => match classify(&e) {
                        IoClass::Tick => return Ok(None),
                        IoClass::Retry => continue,
                        IoClass::Fail => return Err(NetError::from_io(&e, "frame payload")),
                    },
                }
                if self.payload_have < self.payload.len() {
                    continue;
                }
            }
            // Frame complete: hand it off and reset for the next one.
            let payload = std::mem::take(&mut self.payload);
            self.header_have = 0;
            self.payload_have = 0;
            self.in_payload = false;
            return Ok(Some(RawFrame { kind: self.kind, payload }));
        }
    }
}

/// How to react to an `io::Error` from a mesh socket read.
enum IoClass {
    /// Read timeout expired — poll again later (partial state kept).
    Tick,
    /// Interrupted syscall — retry immediately.
    Retry,
    /// Hard failure.
    Fail,
}

fn classify(e: &std::io::Error) -> IoClass {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => IoClass::Tick,
        ErrorKind::Interrupted => IoClass::Retry,
        _ => IoClass::Fail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(kind, payload, &mut out).unwrap();
        out
    }

    #[test]
    fn header_layout() {
        let bytes = framed(FrameKind::Hello, &[0xAA, 0xBB]);
        assert_eq!(bytes, vec![2, 0, 0, 0, 1, 0xAA, 0xBB]);
    }

    #[test]
    fn single_frame_round_trip() {
        let bytes = framed(FrameKind::Data, b"hello mesh");
        let mut rd = FrameReader::new();
        let f = rd.poll(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.payload, b"hello mesh");
        assert_eq!(f.wire_len(), bytes.len());
        assert!(!rd.mid_frame());
    }

    #[test]
    fn back_to_back_frames() {
        let mut bytes = framed(FrameKind::Data, b"one");
        bytes.extend_from_slice(&framed(FrameKind::Shutdown, &control_payload(3)));
        let mut cur = Cursor::new(&bytes);
        let mut rd = FrameReader::new();
        let a = rd.poll(&mut cur).unwrap().unwrap();
        assert_eq!(a.payload, b"one");
        let b = rd.poll(&mut cur).unwrap().unwrap();
        assert_eq!(b.kind, FrameKind::Shutdown);
        assert_eq!(decode_control_payload(&b.payload).unwrap(), 3);
    }

    #[test]
    fn empty_payload_frame() {
        let bytes = framed(FrameKind::Data, &[]);
        let mut rd = FrameReader::new();
        let f = rd.poll(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert!(f.payload.is_empty());
    }

    /// A reader that delivers at most `chunk` bytes per read and injects a
    /// timeout tick between every chunk — the worst torn-read schedule.
    struct TornReader<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        tick_next: bool,
    }

    impl<'a> Read for TornReader<'a> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.tick_next {
                self.tick_next = false;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
            }
            self.tick_next = true;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            if n == 0 {
                return Ok(0); // EOF
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn torn_reads_reassemble() {
        let mut bytes = framed(FrameKind::Data, b"payload one");
        bytes.extend_from_slice(&framed(FrameKind::Data, b"payload two, longer"));
        for chunk in 1..=3 {
            let mut tr = TornReader { data: &bytes, pos: 0, chunk, tick_next: false };
            let mut rd = FrameReader::new();
            let mut got = Vec::new();
            while got.len() < 2 {
                match rd.poll(&mut tr) {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => continue, // timeout tick mid-frame
                    Err(e) => panic!("chunk={chunk}: {e}"),
                }
            }
            assert_eq!(got[0].payload, b"payload one");
            assert_eq!(got[1].payload, b"payload two, longer");
        }
    }

    #[test]
    fn eof_mid_frame_is_peer_closed() {
        let bytes = framed(FrameKind::Data, b"truncated!");
        let cut = &bytes[..bytes.len() - 3];
        let mut rd = FrameReader::new();
        let mut cur = Cursor::new(cut);
        loop {
            match rd.poll(&mut cur) {
                Ok(Some(_)) => panic!("frame should not complete"),
                Ok(None) => continue,
                Err(e) => {
                    assert_eq!(e, NetError::PeerClosed);
                    assert!(rd.mid_frame());
                    break;
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = Vec::new();
        ((MAX_FRAME as u32) + 1).encode(&mut bytes);
        bytes.push(FrameKind::Data.as_u8());
        let err = FrameReader::new().poll(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }));
    }

    /// Tag 3 was the rejoin handshake and tag 4 a fifth kind once; a peer
    /// that still sends either is speaking another protocol, like one that
    /// sends a byte never assigned.
    #[test]
    fn unknown_kind_rejected() {
        for tag in [3u8, 4, 9] {
            let bad = NetError::BadTag { tag, ty: "FrameKind" };
            assert_eq!(FrameKind::from_u8(tag), Err(bad.clone()));
            let header = vec![0, 0, 0, 0, tag];
            assert_eq!(FrameReader::new().poll(&mut Cursor::new(&header)), Err(bad));
        }
    }

    #[test]
    fn write_frame_reports_wire_len() {
        let mut sink = Vec::new();
        let n = write_frame(&mut sink, FrameKind::Data, b"abcd").unwrap();
        assert_eq!(n, HEADER_LEN + 4);
        assert_eq!(sink.len(), n);
    }

    #[test]
    fn recycled_buffers_are_reused_without_allocation() {
        let mut bytes = Vec::new();
        for i in 0..4u8 {
            bytes.extend_from_slice(&framed(FrameKind::Data, &[i; 16]));
        }
        let mut cur = Cursor::new(&bytes);
        let mut rd = FrameReader::new();

        // First frame: cold, allocates.
        let f0 = rd.poll(&mut cur).unwrap().unwrap();
        assert!(!rd.last_frame_pooled());
        rd.supply_buffer(f0.payload);
        assert_eq!(rd.pooled_buffers(), 1);

        // Steady state: every subsequent frame draws from the pool.
        for i in 1..4u8 {
            let f = rd.poll(&mut cur).unwrap().unwrap();
            assert_eq!(f.payload, vec![i; 16]);
            assert!(rd.last_frame_pooled(), "frame {i} should reuse the recycled buffer");
            rd.supply_buffer(f.payload);
        }
    }

    #[test]
    fn pool_drops_empty_buffers_and_caps_depth() {
        let mut rd = FrameReader::new();
        rd.supply_buffer(Vec::new()); // zero capacity: not pooled
        assert_eq!(rd.pooled_buffers(), 0);
        for _ in 0..(FRAME_POOL_CAP + 3) {
            rd.supply_buffer(Vec::with_capacity(8));
        }
        assert_eq!(rd.pooled_buffers(), FRAME_POOL_CAP);
    }

    #[test]
    fn pooled_buffer_contents_do_not_leak_into_next_frame() {
        let mut rd = FrameReader::new();
        // A dirty recycled buffer larger than the next frame's payload.
        rd.supply_buffer(vec![0xFF; 64]);
        let bytes = framed(FrameKind::Data, b"clean");
        let f = rd.poll(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert!(rd.last_frame_pooled());
        assert_eq!(f.payload, b"clean");
    }
}
