//! Fault-injection plumbing under the TCP mesh: seeded fail points, and
//! what a link knows about its far end.
//!
//! Recovery itself is not here: a worker that dies fails its peers' links,
//! the whole gang exits, and the launcher restarts every worker from the
//! newest checkpoint generation all of them hold (DESIGN.md §12). The
//! fail points below are how the test harness kills one deterministically.

use std::sync::OnceLock;

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
/// peers' frames — some survivors hold the victim's round, the rest do
/// not — rather than before all of them.
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
    /// The peer left *cleanly* (over TCP: it sent its Shutdown frame).
    /// Socket errors observed afterwards (a close can RST buffered bytes)
    /// must never be reported as a failure.
    CleanClosed,
    /// The link tore without a clean leave — the peer likely died, and
    /// the mesh has failed.
    Down,
    /// This endpoint closed the link: local teardown.
    Finished,
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
}
