//! The in-process carrier: machines of one process hand each other encoded
//! Data-frame payloads through in-memory inboxes (DESIGN.md §10).
//!
//! A send has the endpoint encode its batch into a spare buffer of the
//! sender's and pushes the payload onto the peer's inbox, which hands it
//! to the peer's endpoint as it is; the consumed buffer stays with the
//! receiver. No thread, no descriptor: an inbox is a `Mutex` and a
//! `Condvar`. A dropped endpoint tells every peer it left, cleanly or torn,
//! so a waiting peer ends in `MeshClosed` or `Transport`, as over sockets.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use lazygraph_net::frame::FRAME_POOL_CAP;
use lazygraph_net::NetError;

use crate::comm::SocketMesh;
use crate::error::CommError;
use crate::recovery::LinkStatus;

/// One machine's inbox: `(sender, payload)` oldest first, how each peer
/// stands, and the first failure, which every later call reports.
struct Mail {
    frames: VecDeque<(usize, Vec<u8>)>,
    links: Vec<LinkStatus>,
    failure: Option<CommError>,
}

type Inbox = (Mutex<Mail>, Condvar);

/// An inbox's lock; a holder only pushes or pops, so a panicking one left
/// the mail whole.
fn lock(inbox: &Inbox) -> MutexGuard<'_, Mail> {
    inbox.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Machine `me`'s side of an in-process mesh.
pub(crate) struct MemLinks {
    me: usize,
    inboxes: Arc<[Inbox]>,
    /// Emptied payload buffers to encode the next batches into.
    spare: RefCell<Vec<Vec<u8>>>,
}

/// One carrier per machine of an `n`-machine mesh, in machine order.
pub(crate) fn mem_mesh(n: usize) -> Vec<MemLinks> {
    let links = vec![LinkStatus::Up; n];
    let mail = || Mail { frames: VecDeque::new(), links: links.clone(), failure: None };
    let inboxes: Arc<[Inbox]> = (0..n).map(|_| (Mutex::new(mail()), Condvar::new())).collect();
    let side = |me| MemLinks { me, inboxes: Arc::clone(&inboxes), spare: RefCell::default() };
    (0..n).map(side).collect()
}

impl MemLinks {
    fn check(&self) -> Result<(), CommError> {
        lock(&self.inboxes[self.me]).failure.clone().map_or(Ok(()), Err)
    }

    /// Tells every peer this machine has left, torn or not; only the first
    /// call counts.
    fn leave(&self, torn: bool) {
        let me = self.me;
        for (peer, inbox) in self.inboxes.iter().enumerate().filter(|&(p, _)| p != me) {
            let mut mail = lock(inbox);
            if mail.links[me] == LinkStatus::Up {
                mail.links[me] = if torn { LinkStatus::Down } else { LinkStatus::CleanClosed };
                if torn {
                    let detail = format!("link to machine {me}: it failed without leaving");
                    mail.failure.get_or_insert(CommError::Transport { me: peer, detail });
                }
                inbox.1.notify_all();
            }
        }
    }
}

impl SocketMesh for MemLinks {
    fn send(&self, dst: usize, encode: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), NetError>)
        -> Result<(), CommError> {
        self.check()?;
        let me = self.me;
        // No link to itself, nor to a peer that has left: as over sockets.
        if dst == me || lock(&self.inboxes[me]).links.get(dst) != Some(&LinkStatus::Up) {
            return Err(CommError::PeerDisconnected { from: me, to: dst });
        }
        let inbox = &self.inboxes[dst];
        let mut bytes = self.spare.borrow_mut().pop().unwrap_or_default();
        encode(&mut bytes).map_err(|e| CommError::transport(me, &e))?;
        lock(inbox).frames.push_back((me, bytes));
        inbox.1.notify_one();
        Ok(())
    }

    fn next(&self, needed: &dyn Fn(usize) -> bool) -> Result<(usize, Vec<u8>), CommError> {
        let me = self.me;
        let mut mail = lock(&self.inboxes[me]);
        loop {
            if let Some(frame) = mail.frames.pop_front() {
                return Ok(frame);
            }
            if let Some(e) = &mail.failure {
                return Err(e.clone());
            }
            let links = &mail.links;
            let left = |p: usize| links[p] == LinkStatus::CleanClosed;
            if (0..links.len()).filter(|&p| p != me && needed(p)).all(left) {
                return Err(CommError::MeshClosed { me });
            }
            mail = self.inboxes[me].1.wait(mail).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A send is whole at once: only a failure can be pending.
    fn flush(&self) -> Result<(), CommError> {
        self.check()
    }

    fn recycle(&self, _from: usize, mut bytes: Vec<u8>) {
        let mut spare = self.spare.borrow_mut();
        if bytes.capacity() != 0 && spare.len() < FRAME_POOL_CAP {
            bytes.clear();
            spare.push(bytes);
        }
    }

    fn fail(&self, err: CommError) -> CommError {
        lock(&self.inboxes[self.me]).failure.get_or_insert(err).clone()
    }

    #[cfg(test)]
    fn crash(&self) {
        self.leave(true);
    }

    #[cfg(test)]
    fn status(&self, peer: usize) -> Option<LinkStatus> {
        lock(&self.inboxes[self.me]).links.get(peer).copied().filter(|_| peer != self.me)
    }
}

/// Leaving is the clean handshake, unless the thread is unwinding or the
/// mesh has failed: then peers must not take this machine for finished.
impl Drop for MemLinks {
    fn drop(&mut self) {
        self.leave(std::thread::panicking() || self.check().is_err());
    }
}
