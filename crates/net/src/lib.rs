//! `lazygraph-net`: the wire layer under the mesh.
//!
//! Everything a value needs to leave its process: a deterministic
//! little-endian codec ([`Wire`]), length-prefixed framing robust to
//! torn reads ([`FrameReader`]), and TCP mesh establishment with retry,
//! backoff, and a clean shutdown handshake ([`connect_mesh`]).
//!
//! This crate is a leaf — no dependencies, `std::net` only — so the
//! cluster layer can build its transport on top without cycles. It knows
//! nothing about engines, batches, or graph types; the cluster layer
//! owns the mapping between `Batch<T>` and Data-frame payloads, and maps
//! [`NetError`] onto `CommError` at its boundary.
//!
//! See DESIGN.md §10 for the frame format and the transport-selection
//! matrix.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![forbid(unsafe_code)]

pub mod error;
pub mod frame;
pub mod tcp;
pub mod wire;

pub use error::NetError;
pub use frame::{
    control_payload, decode_control_payload, encode_frame_into, write_frame, FrameKind,
    FrameReader, RawFrame, HEADER_LEN, MAX_FRAME,
};
pub use tcp::{
    connect_mesh, connect_with_backoff, PeerLink, TcpOptions,
};
pub use wire::{Wire, WireReader};
