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
    /// Collective communication time (cost-model equations).
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

/// One BSP round's trace entry (superstep for Sync, coherency iteration
/// for LazyBlockAsync), recorded by every machine when
/// `EngineConfig::record_history` is on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationRecord {
    /// 1-based round number.
    pub iteration: u64,
    /// Global pending messages after the round's last exchange (the
    /// active-vertex count the interval model's trend tracks).
    pub pending: u64,
    /// Bytes exchanged during the round.
    pub bytes: u64,
    /// Whether the lazy engine's local computation stage was enabled.
    pub lazy_on: bool,
    /// Local sub-rounds executed on this machine this round (lazy only).
    pub local_subrounds: u64,
    /// Whether the round's coherency exchange used mirrors-to-master.
    pub used_m2m: bool,
    /// Simulated clock at the end of the round.
    pub sim_time: f64,
    /// Simulated seconds this machine spent in this round's local
    /// computation stage (lazy only; 0 for a stage that admitted no
    /// sub-round).
    pub local_stage_s: f64,
    /// What the interval model allowed that stage, simulated seconds: half
    /// the previous coherency point's cost where stages are budgeted,
    /// `local_bound_factor · T` (infinite while `T` is being measured)
    /// where they are not, 0 while lazy mode is off.
    pub stage_budget_s: f64,
}

// Rides in every `MachineOut`; f64 fields as IEEE-754 bit patterns.
wire_record!(IterationRecord {
    iteration,
    pending,
    bytes,
    lazy_on,
    local_subrounds,
    used_m2m,
    sim_time,
    local_stage_s,
    stage_budget_s,
});

/// The outcome of one engine run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Engine name.
    pub engine: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Supersteps (Sync) or coherency iterations (Lazy); async engines
    /// report 0.
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
    pub stats: StatsSnapshot,
    /// Whether the run reached a fixpoint (vs the iteration cap).
    pub converged: bool,
    /// Replication factor of the placement used.
    pub lambda: f64,
    /// Machine 0's per-round trace (empty unless
    /// `EngineConfig::record_history`).
    pub history: Vec<IterationRecord>,
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
