//! Fault-tolerance plumbing under the TCP mesh: seeded fail points, what
//! a link knows about its far end, and the outbound frame log that makes
//! a restarted worker's rejoin exact.
//!
//! The design rides the determinism contract from PR 1: a restarted
//! worker re-executes from its last snapshot and regenerates *bitwise
//! identical* outbound rounds, while each surviving peer replays its
//! logged outbound frames for the rounds the dead worker lost. Rounds
//! are dense per link (every exchange sends to every peer, empty batches
//! included), so receive-side deduplication is pure counting: a link
//! tracks how many rounds it has already delivered, and drops exactly
//! that prefix of the replayed or regenerated stream. DESIGN.md §12 walks
//! through the full protocol.

use std::sync::OnceLock;
use std::time::Instant;

use lazygraph_net::HEADER_LEN;

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
/// When it fires, `flush` first writes the frames already encoded for the
/// earlier peers to their sockets: the kill then lands *between* two
/// peers' frames, leaving the survivors at different watermarks for the
/// victim, rather than before all of them.
pub fn failpoint_send(round: u64, n: u64, flush: impl FnOnce()) {
    if let Ok(Some(FailPoint::Send { round: r, n: k })) = armed_failpoint() {
        if *r == round && *k == n {
            flush();
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
    /// This endpoint closed the link: local teardown.
    Finished,
}

/// One link's outbound Data frames since the last checkpoint prune, by
/// round — what a rejoining peer is replayed. A frame's buffer moves in
/// once the socket has taken all of it (it is never copied) and moves out
/// again, to the link's pool, when a checkpoint prunes it. Populated only
/// in recovery mode (`TcpOptions::rejoin_window` set).
#[derive(Debug, Default)]
pub struct FrameLog {
    /// Whole frames, header included, in send order — which is round
    /// order, since a link carries one batch per round.
    frames: Vec<(u64, Vec<u8>)>,
}

impl FrameLog {
    /// Logs the written frame of `round`. `stats` keeps the payload bytes
    /// of every link's log together, and their high-water mark.
    pub fn push(&mut self, round: u64, frame: Vec<u8>, stats: &NetStats) {
        stats.record_frame_logged(payload_len(&frame));
        self.frames.push((round, frame));
    }

    /// Copies of the logged frames for rounds `>= from`, in send order,
    /// for replay to a rejoined peer.
    pub fn replay_from(&self, from: u64) -> Vec<Vec<u8>> {
        self.frames
            .iter()
            .filter(|(r, _)| *r >= from)
            .map(|(_, f)| f.clone())
            .collect()
    }

    /// Drops the frames below `watermark` — called after a checkpoint
    /// barrier proves every peer has durably passed those rounds — and
    /// hands each pruned buffer to `spare`.
    pub fn prune(&mut self, watermark: u64, stats: &NetStats, mut spare: impl FnMut(Vec<u8>)) {
        let cut = self.frames.partition_point(|(r, _)| *r < watermark);
        let mut pruned = 0u64;
        for (_, frame) in self.frames.drain(..cut) {
            pruned += payload_len(&frame);
            spare(frame);
        }
        stats.record_frame_log_pruned(pruned);
    }
}

/// What the log counts of a frame: its payload, as the bytes a batch
/// costs on the wire beyond the fixed header.
fn payload_len(frame: &[u8]) -> u64 {
    frame.len().saturating_sub(HEADER_LEN) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_net::{encode_frame_into, FrameKind};

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

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(FrameKind::Data, payload, &mut out).unwrap();
        out
    }

    #[test]
    fn log_replay_and_prune() {
        let (mut l, stats) = (FrameLog::default(), NetStats::new());
        for r in 0..5u64 {
            l.push(r, frame(&[r as u8]), &stats);
        }
        assert_eq!(l.replay_from(3), vec![frame(&[3]), frame(&[4])]);
        let mut spared = Vec::new();
        l.prune(4, &stats, |f| spared.push(f));
        assert_eq!(l.replay_from(0), vec![frame(&[4])]);
        // Pruned buffers go back whole, in round order, for the next encode.
        assert_eq!(spared, (0..4u8).map(|r| frame(&[r])).collect::<Vec<_>>());
        // The mark is the most the log ever held, not what it holds now:
        // one more frame after the prune makes two bytes live, five at peak.
        l.push(5, frame(&[5]), &stats);
        assert_eq!(stats.snapshot().frame_log_high_water, 5);
    }
}
