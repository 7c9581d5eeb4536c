//! Typed errors for the communication fabric.
//!
//! The mesh and the collectives are infallible in a healthy run: every
//! endpoint lives for the whole scope of `run_machines`, and every
//! allreduce slot is filled before the barrier releases. The failure
//! modes below can therefore only be reached when a peer machine thread
//! has died (panic or early error return). Engines propagate them to the
//! driver instead of panicking, so one failing machine tears the run
//! down with a diagnosable error rather than a poisoned process.
//! [`CommError::NeedsSharedMemory`], [`CommError::MachineCount`] and
//! [`CommError::PoolSpawn`] are the exceptions: a run that cannot start
//! as configured, refused before anything is sent.

use std::fmt;

/// A communication-layer failure: a dead peer, or a run configured onto
/// a mesh that cannot carry it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A send found the destination's mesh receiver already dropped.
    PeerDisconnected {
        /// Sending machine.
        from: usize,
        /// Destination whose endpoint is gone.
        to: usize,
    },
    /// A blocking receive found every sender to this machine dropped.
    MeshClosed {
        /// The machine whose receive failed.
        me: usize,
    },
    /// An allreduce fold found a peer's contribution slot empty.
    CollectiveSlotEmpty {
        /// Machine whose slot was empty.
        machine: usize,
    },
    /// An allreduce contribution downcast to an unexpected concrete type
    /// (two collectives of different element types interleaved).
    CollectiveTypeMismatch {
        /// Machine whose slot held the wrong type.
        machine: usize,
    },
    /// The wire transport failed: a socket error, a codec failure, or a
    /// peer that died without the shutdown handshake. Carries the
    /// `lazygraph_net::NetError` rendering.
    Transport {
        /// The machine observing the failure.
        me: usize,
        /// The underlying transport error, rendered.
        detail: String,
    },
    /// A barrier-free engine was started on a mesh whose machines do not
    /// share memory: its quiescence detector (`Termination`) is an
    /// in-process object, so the run could never agree that it is over.
    NeedsSharedMemory {
        /// Report name of the engine.
        engine: &'static str,
    },
    /// The run was asked for a machine count no placement can hold.
    MachineCount {
        /// The count asked for.
        got: usize,
        /// The largest count a replica mask covers.
        max: usize,
    },
    /// The host refused a thread of a machine's worker pool
    /// (`threads_per_machine` past what the process may start).
    PoolSpawn {
        /// Which worker of how many, and the OS error.
        detail: String,
    },
}

impl CommError {
    /// Wraps a net-layer error as seen by machine `me`.
    pub fn transport(me: usize, err: &lazygraph_net::NetError) -> CommError {
        CommError::Transport { me, detail: err.to_string() }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerDisconnected { from, to } => {
                write!(f, "machine {from}: send failed, peer {to} disconnected")
            }
            CommError::MeshClosed { me } => {
                write!(f, "machine {me}: receive failed, all mesh senders dropped")
            }
            CommError::CollectiveSlotEmpty { machine } => {
                write!(f, "allreduce slot for machine {machine} empty at fold time")
            }
            CommError::CollectiveTypeMismatch { machine } => {
                write!(
                    f,
                    "allreduce contribution from machine {machine} has mismatched type"
                )
            }
            CommError::Transport { me, detail } => {
                write!(f, "machine {me}: transport failure: {detail}")
            }
            CommError::NeedsSharedMemory { engine } => {
                write!(
                    f,
                    "engine {engine} terminates through shared memory and cannot run across processes"
                )
            }
            CommError::MachineCount { got, max } => {
                write!(f, "machine count {got} is outside 1..={max}")
            }
            CommError::PoolSpawn { detail } => {
                write!(f, "cannot start a machine's worker pool: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_machines() {
        let e = CommError::PeerDisconnected { from: 2, to: 5 };
        assert!(e.to_string().contains("machine 2"));
        assert!(e.to_string().contains("peer 5"));
        let e = CommError::MeshClosed { me: 1 };
        assert!(e.to_string().contains("machine 1"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(CommError::CollectiveSlotEmpty { machine: 0 });
        assert!(e.to_string().contains("machine 0"));
    }
}
