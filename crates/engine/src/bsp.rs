//! Shared BSP plumbing: the bundled allreduce every barrier performs.
//!
//! One global synchronisation moves four things at once — the simulated
//! clocks (max), the bytes just exchanged (sum, converted to collective
//! communication time), pending-work counts (sum, for termination), and the
//! comm-mode volume estimates (sum, for §4.2.2 switching). Bundling keeps
//! the sync count faithful: one barrier = one global synchronisation.

use std::sync::Arc;

use lazygraph_cluster::{Collective, CommError, CostModel, NetStats, SimClock};
use lazygraph_net::wire_record;
use parking_lot::Mutex;

use crate::comm_mode::VolumeEstimate;
use crate::metrics::SimBreakdown;

/// What a barrier charges for the bytes it just moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommCharge {
    /// All-to-all collective (paper `t_a2a`).
    A2A,
    /// Mirrors-to-master collective (paper `t_m2m`).
    M2M,
    /// No communication happened in this step (pure barrier).
    None,
}

/// The value reduced at each BSP synchronisation point.
#[derive(Clone, Copy, Debug, Default)]
pub struct BspReduction {
    /// Max simulated clock across machines.
    pub clock: f64,
    /// Sum of bytes sent since the previous sync.
    pub bytes: u64,
    /// Sum of pending messages (termination).
    pub pending: u64,
    /// Sum of vertices applied this step (active count, interval model).
    pub applied: u64,
    /// Comm-mode volume estimates for the *next* coherency exchange.
    pub est: VolumeEstimate,
}

// The reduction crosses the mesh-backed `Collective` in multiprocess
// runs; `clock` rides as its IEEE-754 bit pattern so the folded max is
// bitwise-identical to the shared-memory path.
wire_record!(BspReduction { clock, bytes, pending, applied, est });

fn combine(a: BspReduction, b: BspReduction) -> BspReduction {
    BspReduction {
        clock: a.clock.max(b.clock),
        bytes: a.bytes + b.bytes,
        pending: a.pending + b.pending,
        applied: a.applied + b.applied,
        est: a.est.merge(b.est),
    }
}

/// Per-machine handle performing bundled syncs and (on machine 0)
/// accumulating the global simulated-time breakdown.
pub struct BspSync {
    pub me: usize,
    pub coll: Arc<Collective>,
    pub stats: Arc<NetStats>,
    pub cost: CostModel,
    breakdown: Arc<Mutex<SimBreakdown>>,
    last_global: f64,
}

impl BspSync {
    /// A new handle; every machine of a run shares `coll`, `stats`, and
    /// `breakdown`.
    pub fn new(
        me: usize,
        coll: Arc<Collective>,
        stats: Arc<NetStats>,
        cost: CostModel,
        breakdown: Arc<Mutex<SimBreakdown>>,
    ) -> Self {
        BspSync {
            me,
            coll,
            stats,
            cost,
            breakdown,
            last_global: 0.0,
        }
    }

    /// One global synchronisation: reduces `local`, advances every clock to
    /// the global max plus barrier latency plus the collective
    /// communication charge, and returns the reduction.
    pub fn sync(
        &mut self,
        clock: &mut SimClock,
        local: BspReduction,
        charge: CommCharge,
    ) -> Result<BspReduction, CommError> {
        let mut local = local;
        local.clock = clock.now();
        let red = self.coll.allreduce(self.me, local, &self.stats, combine)?;
        let comm_time = match charge {
            CommCharge::A2A if red.bytes > 0 => self.cost.t_a2a(red.bytes),
            CommCharge::M2M if red.bytes > 0 => self.cost.t_m2m(red.bytes),
            _ => 0.0,
        };
        let new_global = red.clock + self.cost.barrier_latency + comm_time;
        if self.me == 0 {
            let mut b = self.breakdown.lock();
            b.compute += (red.clock - self.last_global).max(0.0); // lazylint: allow(float-commit) -- machine-0-only accounting of an allreduced clock; order is fixed by the superstep sequence
            b.barrier += self.cost.barrier_latency;
            b.comm += comm_time;
        }
        self.last_global = new_global;
        clock.set(new_global);
        Ok(red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_advances_all_clocks_to_max_plus_costs() {
        let n = 3;
        let coll = Arc::new(Collective::new(n));
        let stats = Arc::new(NetStats::new());
        let breakdown = Arc::new(Mutex::new(SimBreakdown::default()));
        let cost = CostModel::paper_cluster();
        let clocks: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let coll = coll.clone();
                    let stats = stats.clone();
                    let breakdown = breakdown.clone();
                    s.spawn(move || {
                        let mut bsp = BspSync::new(me, coll, stats, cost, breakdown);
                        let mut clock = SimClock::new();
                        clock.advance(me as f64); // machine 2 is slowest
                        let red = bsp.sync(
                            &mut clock,
                            BspReduction {
                                bytes: 1_000_000,
                                pending: me as u64,
                                ..Default::default()
                            },
                            CommCharge::A2A,
                        );
                        let red = red.unwrap();
                        assert_eq!(red.pending, 3);
                        assert_eq!(red.bytes, 3_000_000);
                        clock.now()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All clocks equal: max(2.0) + barrier + t_a2a(3 MB).
        let expected = 2.0 + cost.barrier_latency + cost.t_a2a(3_000_000);
        for c in clocks {
            assert!((c - expected).abs() < 1e-9, "clock {c} vs {expected}");
        }
        let b = breakdown.lock();
        assert!((b.compute - 2.0).abs() < 1e-9);
        assert!((b.comm - cost.t_a2a(3_000_000)).abs() < 1e-12);
        assert!((b.barrier - cost.barrier_latency).abs() < 1e-12);
    }

    #[test]
    fn pure_barrier_charges_no_comm() {
        let coll = Arc::new(Collective::new(1));
        let stats = Arc::new(NetStats::new());
        let breakdown = Arc::new(Mutex::new(SimBreakdown::default()));
        let cost = CostModel::paper_cluster();
        let mut bsp = BspSync::new(0, coll, stats, cost, breakdown.clone());
        let mut clock = SimClock::new();
        bsp.sync(&mut clock, BspReduction::default(), CommCharge::None).unwrap();
        assert!((clock.now() - cost.barrier_latency).abs() < 1e-12);
        assert_eq!(breakdown.lock().comm, 0.0);
    }
}
