//! Run metrics: everything the paper's figures plot.

use std::time::Duration;

use lazygraph_cluster::StatsSnapshot;
use lazygraph_net::wire_record;

/// Simulated-time breakdown, accumulated at each collective by every
/// machine from the allreduced values alone (`BspSync::sync`), so every
/// machine of a run holds the same bits.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimBreakdown {
    /// Bottleneck compute time (max across machines per stage, summed).
    pub compute: f64,
    /// All-to-all or mirrors-to-master communication time (the cost
    /// model's `t_a2a` / `t_m2m`).
    pub comm: f64,
    /// Barrier latency.
    pub barrier: f64,
    /// Always 0: wall-clock telemetry of the retired pipelined exchange,
    /// which nothing writes any more. Kept, like [`Self::send_wait_ms`],
    /// only because the frozen benchmark harness reads the field (ROADMAP
    /// item 2); excluded from [`Self::total`].
    pub overlap_ms: f64,
    /// Always 0; see [`Self::overlap_ms`].
    pub send_wait_ms: f64,
}

impl SimBreakdown {
    /// Total of the simulated components.
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.barrier
    }
}

// Rides in every `MachineOut` and in every snapshot header; f64
// components as IEEE-754 bit patterns.
wire_record!(SimBreakdown { compute, comm, barrier, overlap_ms, send_wait_ms });

/// One machine's record of one step, booked by the superstep skeleton
/// after every step when `EngineConfig::record_history` is on
/// ([`Frame::book_step`](crate::machine::Frame::book_step)). Every field
/// is what a snapshot taken at that boundary holds, so the record is as
/// deterministic as the run: bitwise across threads, transports, worker
/// processes and kill / resume, for every engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepRecord {
    /// The step just run: a superstep, or a barrier-free engine's round.
    pub superstep: u64,
    /// This machine's simulated clock after it.
    pub sim_time: f64,
    /// The cumulative simulated-time breakdown after it (the same bits on
    /// every machine).
    pub breakdown: SimBreakdown,
    /// The `Wire` bytes of the engine's carried record as the step left
    /// it ([`Superstep::Carry`](crate::machine::Superstep::Carry)): a
    /// [`LazyCarry`](crate::lazy_block::LazyCarry) for lazy-block,
    /// [`LazyCounters`](crate::lazy_block::LazyCounters) for delta and
    /// lazy-vertex, the hybrid's switched flag, empty for an engine that
    /// carries nothing.
    pub carry: Vec<u8>,
}

// Rides in every `MachineOut` and in every snapshot's trace section.
wire_record!(StepRecord { superstep, sim_time, breakdown, carry });

/// The outcome of one engine run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Engine name.
    pub engine: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Steps run: supersteps (Sync), coherency iterations (Lazy), epochs
    /// (delta), rounds (Async, LazyVertex: the last is the empty round
    /// that ends the run); the hybrid counts its Sync supersteps and its
    /// Async rounds.
    pub iterations: u64,
    /// Data coherency points reached (lazy engines only).
    pub coherency_points: u64,
    /// Local computation sub-rounds executed (lazy engines only).
    pub local_subrounds: u64,
    /// Coherency exchanges performed in all-to-all mode.
    pub a2a_exchanges: u64,
    /// Coherency exchanges performed in mirrors-to-master mode.
    pub m2m_exchanges: u64,
    /// Final simulated time: the maximum machine clock, seconds. The
    /// headline "runtime" of every figure.
    pub sim_time: f64,
    /// Simulated-time breakdown (machine 0's; every machine's is the same
    /// bits).
    pub breakdown: SimBreakdown,
    /// Wall-clock duration of the run on the build host (informational —
    /// machine threads timeshare host cores).
    pub wall_time: Duration,
    /// Exact communication / synchronisation counters (Figs. 10, 11).
    /// A snapshot carries none of them, so after a gang restart they are
    /// what the last incarnation counted from its resume point on; only
    /// the engine's carried counters above (`coherency_points` …
    /// `m2m_exchanges`) span the whole run (DESIGN.md §12).
    pub stats: StatsSnapshot,
    /// Whether the run reached a fixpoint (vs the iteration cap).
    pub converged: bool,
    /// Replication factor of the placement used.
    pub lambda: f64,
    /// Machine 0's trace, one record a step (empty unless
    /// `EngineConfig::record_history`).
    pub history: Vec<StepRecord>,
}

/// What "the same run" means, defined once: every figure a run owes
/// bitwise across threads, block sizes, transports, worker processes and
/// placements that store the same edges, as integers, so `assert_eq!` on
/// two records names the field that moved. A run recovered from a
/// snapshot owes all of it but `counters` (DESIGN.md §12). Built by
/// [`RunResult::record`](crate::RunResult::record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// FNV-1a of the final values' `Wire` bytes.
    pub values: u64,
    /// Bits of [`RunMetrics::sim_time`].
    pub sim_time: u64,
    /// Bits of the breakdown's `compute`, `comm` and `barrier`.
    pub compute: u64,
    pub comm: u64,
    pub barrier: u64,
    pub iterations: u64,
    pub converged: bool,
    pub coherency_points: u64,
    pub local_subrounds: u64,
    pub a2a_exchanges: u64,
    pub m2m_exchanges: u64,
    /// [`StatsSnapshot::deterministic`]: every counter but the telemetry
    /// rows.
    pub counters: StatsSnapshot,
    /// FNV-1a of the trace's `Wire` bytes (that of an empty trace unless
    /// `EngineConfig::record_history`).
    pub history: u64,
}

impl RunMetrics {
    /// Total communication traffic in *estimated* bytes (Fig. 11's
    /// quantity; the transport-independent cost-model scale — see
    /// `lazygraph_cluster::stats` for the estimate/measured split).
    pub fn traffic_bytes(&self) -> u64 {
        self.stats.total_est_bytes()
    }

    /// Number of global synchronisations (Fig. 10's quantity).
    pub fn global_syncs(&self) -> u64 {
        self.stats.global_syncs
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<18} {:<9} sim={:>9.3}s syncs={:>8} traffic={:>12}B iters={:>6} λ={:.2}{}",
            self.engine,
            self.algorithm,
            self.sim_time,
            self.global_syncs(),
            self.traffic_bytes(),
            self.iterations,
            self.lambda,
            if self.converged { "" } else { "  [NOT CONVERGED]" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunMetrics {
        RunMetrics {
            engine: "test",
            algorithm: "alg",
            iterations: 3,
            coherency_points: 2,
            local_subrounds: 5,
            a2a_exchanges: 2,
            m2m_exchanges: 0,
            sim_time: 1.5,
            breakdown: SimBreakdown {
                compute: 1.0,
                comm: 0.4,
                barrier: 0.1,
                // Must not leak into total(): not simulated seconds.
                overlap_ms: 250.0,
                send_wait_ms: 30.0,
            },
            wall_time: Duration::from_millis(10),
            stats: StatsSnapshot::default(),
            converged: true,
            lambda: 2.5,
            history: Vec::new(),
        }
    }

    #[test]
    fn breakdown_total() {
        let m = dummy();
        assert!((m.breakdown.total() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_engine_and_convergence() {
        let mut m = dummy();
        assert!(m.summary().contains("test"));
        assert!(!m.summary().contains("NOT CONVERGED"));
        m.converged = false;
        assert!(m.summary().contains("NOT CONVERGED"));
    }
}
