//! Fault-tolerance plumbing under the TCP mesh: seeded fail points, the
//! per-link state that survives a peer's death, and the outbound frame
//! log that makes a restarted worker's rejoin exact.
//!
//! The design rides the determinism contract from PR 1: a restarted
//! worker re-executes from its last snapshot and regenerates *bitwise
//! identical* outbound rounds, while each surviving peer replays its
//! logged outbound frames for the rounds the dead worker lost. Rounds
//! are dense per link (every exchange sends to every peer, empty batches
//! included), so receive-side deduplication is pure counting: a reader
//! tracks how many rounds it has already forwarded, and drops exactly
//! that prefix of the replayed or regenerated stream. DESIGN.md §12 walks
//! through the full protocol.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::stats::NetStats;

/// A seeded fault-injection point, parsed once from the
/// `LAZYGRAPH_FAILPOINT` environment variable:
///
/// * `superstep:<N>` — abort when superstep `N` (1-based) begins;
/// * `send:<round>:<n>` — abort inside data round `<round>`, just before
///   its `<n>`-th (1-based) per-peer send: peers `< n` got the round,
///   the rest did not;
/// * `ckpt:<iteration>:<chunk>` — abort inside the save of the snapshot
///   taken after superstep `<iteration>`, once its `<chunk>`-th (1-based)
///   chunk has reached the temp file and before the rename: the torn file
///   never becomes a generation.
///
/// Firing is `std::process::abort()` — no unwinding, no Shutdown frame —
/// so the harness exercises the genuinely torn-connection path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailPoint {
    /// Abort at the start of the given 1-based superstep.
    Superstep(u64),
    /// Abort before the given 1-based per-peer send of a data round.
    Send {
        /// The data-mesh round being exchanged.
        round: u64,
        /// Which send of that round's `Endpoint::exchange` loop (1-based).
        n: u64,
    },
    /// Abort after the given 1-based chunk of a snapshot reached its file.
    Ckpt {
        /// The superstep the snapshot is taken after (its generation).
        iteration: u64,
        /// Which chunk of that snapshot's container (1-based).
        chunk: u64,
    },
}

impl FailPoint {
    /// Parses the `LAZYGRAPH_FAILPOINT` syntax; `None` on any malformed
    /// input. Callers reject that: a chaos run that injects nothing must
    /// not pass ([`armed_failpoint`], `lazygraph-cli --failpoint`).
    pub fn parse(s: &str) -> Option<FailPoint> {
        let mut parts = s.split(':');
        match parts.next()? {
            "superstep" => {
                let n = parts.next()?.parse().ok()?;
                parts.next().is_none().then_some(FailPoint::Superstep(n))
            }
            "send" => {
                let round = parts.next()?.parse().ok()?;
                let n = parts.next()?.parse().ok()?;
                parts.next().is_none().then_some(FailPoint::Send { round, n })
            }
            "ckpt" => {
                let iteration = parts.next()?.parse().ok()?;
                let chunk = parts.next()?.parse().ok()?;
                parts.next().is_none().then_some(FailPoint::Ckpt { iteration, chunk })
            }
            _ => None,
        }
    }
}

/// The inverse of [`FailPoint::parse`]: what the launcher puts in a
/// victim's `LAZYGRAPH_FAILPOINT`.
impl std::fmt::Display for FailPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailPoint::Superstep(n) => write!(f, "superstep:{n}"),
            FailPoint::Send { round, n } => write!(f, "send:{round}:{n}"),
            FailPoint::Ckpt { iteration, chunk } => write!(f, "ckpt:{iteration}:{chunk}"),
        }
    }
}

/// The fail point `LAZYGRAPH_FAILPOINT` arms in this process, read once.
/// `Err` when the variable is set to something [`FailPoint::parse`]
/// rejects: a worker checks this at start-up, so a chaos run cannot pass
/// by silently injecting nothing.
pub fn armed_failpoint() -> &'static Result<Option<FailPoint>, String> {
    static FP: OnceLock<Result<Option<FailPoint>, String>> = OnceLock::new();
    FP.get_or_init(|| match std::env::var("LAZYGRAPH_FAILPOINT") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) => FailPoint::parse(&v).map(Some).ok_or_else(|| {
            format!(
                "LAZYGRAPH_FAILPOINT: cannot parse '{v}' \
                 (superstep:<N> | send:<round>:<n> | ckpt:<iteration>:<chunk>)"
            )
        }),
        Err(e) => Err(format!("LAZYGRAPH_FAILPOINT: {e}")),
    })
}

/// Engine hook: called at the top of every superstep body with the
/// 1-based superstep number. Aborts the process if the seeded fail point
/// names this superstep.
pub fn failpoint_superstep(superstep: u64) {
    if let Ok(Some(FailPoint::Superstep(n))) = armed_failpoint() {
        if *n == superstep {
            eprintln!("lazygraph: failpoint superstep:{superstep} firing");
            std::process::abort();
        }
    }
}

/// Transport hook: called before each per-peer send of a data round's
/// `Endpoint::exchange` with the round and the 1-based index of the send.
/// A send only queues its batch for the peer's writer thread, so the hook
/// first gives the sends already issued time to reach the wire: the kill
/// then lands *between* two peers' frames, leaving the survivors at
/// different watermarks for the victim, rather than before all of them.
pub fn failpoint_send(round: u64, n: u64) {
    if let Ok(Some(FailPoint::Send { round: r, n: k })) = armed_failpoint() {
        if *r == round && *k == n {
            std::thread::sleep(Duration::from_millis(100));
            eprintln!("lazygraph: failpoint send:{round}:{n} firing");
            std::process::abort();
        }
    }
}

/// Checkpoint hook: called after each chunk of the snapshot taken after
/// superstep `iteration` has been written to its temp file, with the
/// 1-based index of that chunk. The file is still unrenamed, so the kill
/// leaves a torn temp file and the previous generation as the newest.
pub fn failpoint_ckpt(iteration: u64, chunk: u64) {
    if let Ok(Some(FailPoint::Ckpt { iteration: i, chunk: c })) = armed_failpoint() {
        if *i == iteration && *c == chunk {
            eprintln!("lazygraph: failpoint ckpt:{iteration}:{chunk} firing");
            std::process::abort();
        }
    }
}

/// What a mesh link's far end is doing, as far as this machine knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkStatus {
    /// Connected and flowing.
    Up,
    /// The peer sent its Shutdown frame: it left *cleanly*. Socket
    /// errors observed afterwards (a close can RST buffered bytes) must
    /// never be reported as a failure.
    CleanClosed,
    /// The connection tore without a Shutdown — the peer likely died.
    /// In recovery mode the link waits in this state for a rejoin until
    /// the configured window expires; the instant records when the tear
    /// was noticed.
    Down(Instant),
    /// Our own writer flushed its Shutdown: local teardown.
    Finished,
}

/// Per-peer-link state shared between the writer thread, the reader
/// thread, the rejoin acceptor, and the endpoint. Created for every TCP
/// mesh link; the outbound log is populated only when the mesh runs in
/// recovery mode (`TcpOptions::rejoin_window` set).
pub struct LinkShared {
    /// The peer machine id on the far end.
    pub peer: usize,
    /// Link liveness as observed by reader/writer.
    status: Mutex<LinkStatus>,
    /// Bumped by the acceptor each time the link's socket is replaced;
    /// writer/reader threads capture the value at spawn and retire when
    /// it moves on.
    pub gen: AtomicU64,
    /// Outbound Data-frame payloads by round, kept since the last
    /// checkpoint prune — the replay source for a rejoining peer.
    log: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Rounds forwarded to the endpoint by this link's reader.
    pub fwd_rounds: AtomicU64,
    /// A clone of the link's current stream, so the acceptor can sever
    /// it when swapping in a rejoined connection.
    pub stream: Mutex<Option<TcpStream>>,
    /// The current writer thread (recovery mode only; joined on swap).
    pub writer: Mutex<Option<JoinHandle<()>>>,
    /// The current reader thread (recovery mode only; joined on swap).
    pub reader: Mutex<Option<JoinHandle<()>>>,
}

impl LinkShared {
    /// Fresh link state for `peer`, starting `Up` with the round
    /// counters at `start_round` (non-zero when this machine is itself
    /// rejoining and resumes mid-run).
    pub fn new(peer: usize, start_round: u64) -> Self {
        LinkShared {
            peer,
            status: Mutex::new(LinkStatus::Up),
            gen: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            fwd_rounds: AtomicU64::new(start_round),
            stream: Mutex::new(None),
            writer: Mutex::new(None),
            reader: Mutex::new(None),
        }
    }

    /// Current link status.
    pub fn status(&self) -> LinkStatus {
        *self.status.lock()
    }

    /// Records a status transition. `CleanClosed` and `Finished` are
    /// terminal: a later socket error must not overwrite the evidence
    /// that the peer left on purpose.
    pub fn set_status(&self, s: LinkStatus) {
        let mut cur = self.status.lock();
        match *cur {
            LinkStatus::CleanClosed | LinkStatus::Finished => {}
            _ => *cur = s,
        }
    }

    /// Appends one outbound Data-frame payload to the replay log.
    /// Called by the writer *before* the socket write, so a frame lost
    /// to a torn write is still replayable. `stats` keeps the size of
    /// every link's log together and its high-water mark.
    pub fn log_frame(&self, round: u64, payload: &[u8], stats: &NetStats) {
        self.log.lock().push((round, payload.to_vec()));
        stats.record_frame_logged(payload.len() as u64);
    }

    /// Clones the logged payloads for rounds `>= from`, in log (= send)
    /// order, for replay to a rejoined peer.
    pub fn replay_from(&self, from: u64) -> Vec<Vec<u8>> {
        self.log
            .lock()
            .iter()
            .filter(|(r, _)| *r >= from)
            .map(|(_, p)| p.clone())
            .collect()
    }

    /// Drops log entries below `watermark` — called after a checkpoint
    /// barrier proves every peer has durably passed those rounds.
    pub fn prune_log(&self, watermark: u64, stats: &NetStats) {
        let mut pruned = 0u64;
        self.log.lock().retain(|(r, p)| {
            let keep = *r >= watermark;
            if !keep {
                pruned += p.len() as u64;
            }
            keep
        });
        stats.record_frame_log_pruned(pruned);
    }

    /// Number of logged frames (for tests and diagnostics).
    pub fn log_len(&self) -> usize {
        self.log.lock().len()
    }
}

/// Recovery state for one endpoint's whole mesh: the per-link shares
/// plus the teardown latch the acceptor thread watches.
pub struct RecoveryShared {
    /// One entry per machine; the self slot is present but unused.
    pub links: Vec<Arc<LinkShared>>,
    /// Set by `Endpoint::drop` before joining its threads, so the
    /// acceptor (which holds the mesh listener) knows to exit.
    pub closed: AtomicBool,
    /// Whether outbound frames are logged for replay (recovery mode).
    pub logging: bool,
}

impl RecoveryShared {
    /// Fresh recovery state for an `n`-machine mesh.
    pub fn new(me: usize, n: usize, logging: bool, start_round: u64) -> Arc<Self> {
        let _ = me;
        Arc::new(RecoveryShared {
            links: (0..n)
                .map(|p| Arc::new(LinkShared::new(p, start_round)))
                .collect(),
            closed: AtomicBool::new(false),
            logging,
        })
    }

    /// Marks the endpoint as shutting down.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether the endpoint is shutting down.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Prunes every link's replay log below `watermark`.
    pub fn prune_logs(&self, watermark: u64, stats: &NetStats) {
        for l in &self.links {
            l.prune_log(watermark, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failpoint_syntax_parses() {
        assert_eq!(FailPoint::parse("superstep:4"), Some(FailPoint::Superstep(4)));
        assert_eq!(FailPoint::parse("send:7:2"), Some(FailPoint::Send { round: 7, n: 2 }));
        let ckpt = FailPoint::Ckpt { iteration: 4, chunk: 1 };
        assert_eq!(FailPoint::parse("ckpt:4:1"), Some(ckpt));
        // `stream:<round>:<part>` is retired: the path it fired in is gone.
        for bad in [
            "", "superstep", "superstep:x", "superstep:1:2", "send:1", "stream:1:1", "boom:1",
            "ckpt", "ckpt:4", "ckpt:4:x", "ckpt:4:1:1",
        ] {
            assert_eq!(FailPoint::parse(bad), None, "{bad:?} must not parse");
        }
        for fp in [FailPoint::Superstep(4), FailPoint::Send { round: 7, n: 2 }, ckpt] {
            assert_eq!(FailPoint::parse(&fp.to_string()), Some(fp));
        }
    }

    #[test]
    fn clean_close_is_sticky() {
        let l = LinkShared::new(1, 0);
        l.set_status(LinkStatus::CleanClosed);
        l.set_status(LinkStatus::Down(Instant::now()));
        assert_eq!(l.status(), LinkStatus::CleanClosed);
    }

    #[test]
    fn log_replay_and_prune() {
        let (l, stats) = (LinkShared::new(2, 0), NetStats::new());
        for r in 0..5u64 {
            l.log_frame(r, &[r as u8], &stats);
        }
        assert_eq!(l.replay_from(3), vec![vec![3u8], vec![4u8]]);
        l.prune_log(4, &stats);
        assert_eq!(l.log_len(), 1);
        assert_eq!(l.replay_from(0), vec![vec![4u8]]);
        // The mark is the most the log ever held, not what it holds now:
        // one more frame after the prune makes two bytes live, five at peak.
        l.log_frame(5, &[5], &stats);
        assert_eq!(stats.snapshot().frame_log_high_water, 5);
    }
}
