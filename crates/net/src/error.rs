//! Typed errors for the wire codec and the TCP transport.
//!
//! Everything here is either a *codec* failure (truncated or corrupt
//! bytes — a protocol bug or a torn connection) or a *transport* failure
//! (socket-level). The cluster layer maps both onto
//! `lazygraph_cluster::CommError` so engines keep a single error surface.

use std::fmt;

/// A wire/transport-layer failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The decoder ran off the end of the buffer.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// A tag byte held a value the decoder does not know.
    BadTag {
        /// The offending byte.
        tag: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// A decoded length prefix exceeds the sanity cap.
    FrameTooLarge {
        /// Declared length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// A frame decoded cleanly but left trailing bytes behind.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// Every field decoded, but together they break a condition the type
    /// keeps among them (an offset past its array, an id out of range).
    Malformed {
        /// The type being decoded.
        ty: &'static str,
        /// The violated condition.
        detail: String,
    },
    /// The peer closed the connection (EOF) outside a clean shutdown.
    PeerClosed,
    /// A socket read/write timed out past the configured deadline.
    Timeout {
        /// What was being waited for.
        what: &'static str,
    },
    /// Connecting to a peer failed even after every retry.
    ConnectFailed {
        /// Peer address that refused us.
        addr: String,
        /// Attempts made.
        attempts: u32,
        /// Last OS error text.
        last: String,
    },
    /// Any other socket-level failure.
    Io {
        /// `std::io::ErrorKind` as text.
        kind: &'static str,
        /// OS error detail.
        detail: String,
    },
    /// A handshake frame was not what the mesh protocol expects.
    Handshake {
        /// What went wrong.
        detail: String,
    },
}

impl NetError {
    /// Wraps an `std::io::Error`, classifying timeouts and EOFs.
    pub fn from_io(e: &std::io::Error, what: &'static str) -> NetError {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout { what },
            ErrorKind::UnexpectedEof => NetError::PeerClosed,
            kind => NetError::Io {
                kind: io_kind_name(kind),
                detail: e.to_string(),
            },
        }
    }
}

/// Stable text for an `io::ErrorKind` (the kind enum is `non_exhaustive`).
fn io_kind_name(kind: std::io::ErrorKind) -> &'static str {
    use std::io::ErrorKind::*;
    match kind {
        NotFound => "not-found",
        PermissionDenied => "permission-denied",
        ConnectionRefused => "connection-refused",
        ConnectionReset => "connection-reset",
        ConnectionAborted => "connection-aborted",
        NotConnected => "not-connected",
        AddrInUse => "addr-in-use",
        AddrNotAvailable => "addr-not-available",
        BrokenPipe => "broken-pipe",
        AlreadyExists => "already-exists",
        InvalidInput => "invalid-input",
        InvalidData => "invalid-data",
        WriteZero => "write-zero",
        Interrupted => "interrupted",
        UnexpectedEof => "unexpected-eof",
        _ => "other",
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated { needed, have } => {
                write!(f, "wire decode truncated: needed {needed} bytes, have {have}")
            }
            NetError::BadTag { tag, ty } => {
                write!(f, "wire decode: tag byte {tag:#04x} is not a valid {ty}")
            }
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            NetError::TrailingBytes { extra } => {
                write!(f, "frame decoded with {extra} trailing bytes")
            }
            NetError::Malformed { ty, detail } => write!(f, "wire decode: malformed {ty}: {detail}"),
            NetError::PeerClosed => write!(f, "peer closed the connection without a shutdown frame"),
            NetError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            NetError::ConnectFailed { addr, attempts, last } => {
                write!(f, "connect to {addr} failed after {attempts} attempts: {last}")
            }
            NetError::Io { kind, detail } => write!(f, "socket error ({kind}): {detail}"),
            NetError::Handshake { detail } => write!(f, "mesh handshake failed: {detail}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_detail() {
        let e = NetError::Truncated { needed: 8, have: 3 };
        assert!(e.to_string().contains("needed 8"));
        let e = NetError::ConnectFailed {
            addr: "127.0.0.1:9".into(),
            attempts: 5,
            last: "refused".into(),
        };
        assert!(e.to_string().contains("5 attempts"));
    }

    #[test]
    fn io_classification() {
        let to = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert!(matches!(NetError::from_io(&to, "frame"), NetError::Timeout { what: "frame" }));
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "e");
        assert_eq!(NetError::from_io(&eof, "frame"), NetError::PeerClosed);
        let other = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "b");
        assert!(matches!(NetError::from_io(&other, "frame"), NetError::Io { kind: "broken-pipe", .. }));
    }
}
