//! Typed errors for the communication fabric.
//!
//! The mesh is infallible in a healthy run: every machine holds its
//! endpoint, which carries its data rounds and its collective rounds
//! alike, for its whole run, and every round hears from every peer. The
//! failure modes below can therefore only be reached when a peer machine
//! has died (panic, early error return, process exit): it drops its
//! endpoint, and a peer's next round fails instead of waiting, in process
//! as over TCP.
//! Engines propagate them to the driver instead of panicking, so one
//! failing machine tears the run down with a diagnosable error rather
//! than a poisoned process. [`CommError::MachineCount`],
//! [`CommError::PoolSpawn`], [`CommError::ThreadsEnv`] and
//! [`CommError::CollectiveLeg`] are the exceptions: a run that cannot
//! start as configured, or a call on a machine the collective does not
//! host, refused before anything is sent.

use std::fmt;

/// A communication-layer failure: a dead peer, or a run that cannot start
/// as configured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A send found no live link to its destination (it left, or is the sender).
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
    /// An allreduce round came back without a peer's contribution.
    CollectiveSlotEmpty {
        /// Machine whose contribution was missing.
        machine: usize,
    },
    /// A [`crate::Collective`] call named a machine whose endpoint the
    /// collective does not host.
    CollectiveLeg {
        /// The machine the call was made as.
        me: usize,
        /// The collective's machine count.
        machines: usize,
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
    /// `LAZYGRAPH_THREADS` is set to something that is not a thread count.
    ThreadsEnv {
        /// The variable's value as set.
        value: String,
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
            CommError::CollectiveLeg { me, machines } => {
                write!(
                    f,
                    "machine {me}: this collective over {machines} machines hosts no leg of it"
                )
            }
            CommError::Transport { me, detail } => {
                write!(f, "machine {me}: transport failure: {detail}")
            }
            CommError::MachineCount { got, max } => {
                write!(f, "machine count {got} is outside 1..={max}")
            }
            CommError::PoolSpawn { detail } => {
                write!(f, "cannot start a machine's worker pool: {detail}")
            }
            CommError::ThreadsEnv { value } => {
                write!(f, "LAZYGRAPH_THREADS: cannot parse '{value}' (threads per machine, 0 = auto)")
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
