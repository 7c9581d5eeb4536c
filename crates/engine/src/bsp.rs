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
    /// Comm-mode volume estimates for the *next* coherency exchange.
    pub est: VolumeEstimate,
}

// The reduction crosses the machine's control-mesh leg on every route;
// `clock` rides as its IEEE-754 bit pattern, so the folded max is the
// same bits whether the leg is in process or a socket.
wire_record!(BspReduction { clock, bytes, pending, est });

fn combine(a: BspReduction, b: BspReduction) -> BspReduction {
    BspReduction {
        clock: a.clock.max(b.clock),
        bytes: a.bytes + b.bytes,
        pending: a.pending + b.pending,
        est: a.est.merge(b.est),
    }
}

/// Per-machine handle performing bundled syncs and accumulating the
/// simulated-time breakdown. Every term the breakdown adds comes out of
/// the allreduce, so every machine of a run holds the same bits.
pub struct BspSync {
    pub me: usize,
    /// This machine's leg of the control mesh.
    pub coll: Collective,
    pub stats: Arc<NetStats>,
    pub cost: CostModel,
    /// The breakdown of the simulated time up to the last sync.
    pub breakdown: SimBreakdown,
    /// The global clock the last sync set (0 before the first). A
    /// snapshot carries it with the breakdown: the next sync books the
    /// clock's advance past it as compute.
    pub last_global: f64,
}

impl BspSync {
    /// A new handle over machine `me`'s collective leg; every machine of a
    /// run shares `stats`.
    pub fn new(me: usize, coll: Collective, stats: Arc<NetStats>, cost: CostModel) -> Self {
        BspSync {
            me,
            coll,
            stats,
            cost,
            breakdown: SimBreakdown::default(),
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
        // Allreduced terms only, added in superstep order: the same bits
        // on every machine.
        let b = &mut self.breakdown;
        b.compute += (red.clock - self.last_global).max(0.0);
        b.barrier += self.cost.barrier_latency;
        b.comm += comm_time;
        self.last_global = new_global;
        clock.set(new_global);
        Ok(red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazygraph_net::Wire;

    #[test]
    fn sync_advances_all_clocks_to_max_plus_costs() {
        let stats = Arc::new(NetStats::new());
        let cost = CostModel::paper_cluster();
        let outs: Vec<(f64, SimBreakdown)> = std::thread::scope(|s| {
            let handles: Vec<_> = lazygraph_cluster::build_mesh::<u8>(3)
                .into_iter()
                .map(|leg| {
                    let me = leg.me();
                    let coll = Collective::mesh(leg);
                    let stats = stats.clone();
                    s.spawn(move || {
                        let mut bsp = BspSync::new(me, coll, stats, cost);
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
                        (clock.now(), bsp.breakdown)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All clocks equal: max(2.0) + barrier + t_a2a(3 MB).
        let expected = 2.0 + cost.barrier_latency + cost.t_a2a(3_000_000);
        for (c, _) in &outs {
            assert!((c - expected).abs() < 1e-9, "clock {c} vs {expected}");
        }
        // Every machine books the same breakdown, bit for bit.
        let b = outs[0].1;
        for (_, other) in &outs {
            assert_eq!(other.to_wire(), b.to_wire());
        }
        assert!((b.compute - 2.0).abs() < 1e-9);
        assert!((b.comm - cost.t_a2a(3_000_000)).abs() < 1e-12);
        assert!((b.barrier - cost.barrier_latency).abs() < 1e-12);
    }

    #[test]
    fn pure_barrier_charges_no_comm() {
        let coll = Collective::new(1);
        let stats = Arc::new(NetStats::new());
        let cost = CostModel::paper_cluster();
        let mut bsp = BspSync::new(0, coll, stats, cost);
        let mut clock = SimClock::new();
        bsp.sync(&mut clock, BspReduction::default(), CommCharge::None).unwrap();
        assert!((clock.now() - cost.barrier_latency).abs() < 1e-12);
        assert_eq!(bsp.breakdown.comm, 0.0);
    }
}
