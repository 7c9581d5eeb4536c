//! Distributed termination detection for the asynchronous engines.
//!
//! An async engine has no barriers, so "no machine has work and no message
//! is in flight" must be detected. We use a counting detector: every send
//! increments `sent` *before* the channel push; every processed delivery
//! increments `delivered` after processing. A machine parks itself as idle
//! only when its local queue and channel are drained. When all machines are
//! idle and `sent == delivered`, no message can be in flight (a sender
//! would not be idle between its increment and its push), so the state is
//! quiescent and the `done` flag latches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared termination state for one async run.
#[derive(Debug)]
pub struct Termination {
    n: usize,
    sent: AtomicU64,
    delivered: AtomicU64,
    idle: AtomicU64,
    done: AtomicBool,
}

impl Termination {
    /// Detector for `n` machines.
    pub fn new(n: usize) -> Self {
        Termination {
            n,
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// Call *before* pushing `k` batches into channels.
    #[inline]
    pub fn note_sent(&self, k: u64) {
        self.sent.fetch_add(k, Ordering::SeqCst);
    }

    /// Call after fully processing `k` received batches.
    #[inline]
    pub fn note_delivered(&self, k: u64) {
        self.delivered.fetch_add(k, Ordering::SeqCst);
    }

    /// Marks this machine idle (local queue and channel drained).
    #[inline]
    pub fn enter_idle(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks this machine busy again (work arrived).
    #[inline]
    pub fn leave_idle(&self) {
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }

    /// Checks quiescence and latches `done` if reached. Any machine may
    /// call this while idle. Returns the done flag.
    pub fn check(&self) -> bool {
        if self.done.load(Ordering::SeqCst) {
            return true;
        }
        // Order matters: read idle first; if all idle, nobody is between a
        // note_sent and the channel push with work pending, so a stable
        // sent == delivered implies quiescence.
        if self.idle.load(Ordering::SeqCst) as usize == self.n {
            let s = self.sent.load(Ordering::SeqCst);
            let d = self.delivered.load(Ordering::SeqCst);
            if s == d
                && self.idle.load(Ordering::SeqCst) as usize == self.n
                && self.sent.load(Ordering::SeqCst) == s
            {
                self.done.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Whether termination has latched.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Total batches sent (for diagnostics).
    pub fn total_sent(&self) -> u64 {
        self.sent.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_quiescence() {
        let t = Termination::new(2);
        t.enter_idle();
        assert!(!t.check(), "one idle machine is not quiescence");
        t.enter_idle();
        assert!(t.check());
        assert!(t.is_done());
    }

    #[test]
    fn in_flight_message_blocks_termination() {
        let t = Termination::new(1);
        t.note_sent(1);
        t.enter_idle();
        assert!(!t.check(), "in-flight message must block termination");
        t.leave_idle();
        t.note_delivered(1);
        t.enter_idle();
        assert!(t.check());
    }
}
