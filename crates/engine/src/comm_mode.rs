//! Dynamic switching between the two coherency communication modes
//! (§4.2.2, Fig. 5 / Fig. 8(b)).
//!
//! At a data coherency point the cluster estimates the volume each mode
//! would move, converts both to time with the fitted equations, and picks
//! the faster mode. The volume estimates are the paper's:
//!
//! ```text
//! comm_a2a = Σ_v N_v^hasDeltaMsg · (RNum_v − 1) · sizeof(DeltaMsg)
//! comm_m2m = Σ_v (N_v^hasDeltaMsg + RNum_v − 2) · sizeof(DeltaMsg)
//! ```

use lazygraph_cluster::CostModel;
use lazygraph_net::wire_record;

/// Which mode a coherency exchange used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommMode {
    AllToAll,
    MirrorsToMaster,
}

/// Per-machine partial contributions to the two volume estimates. Summed
/// across machines by the pre-exchange allreduce vote.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VolumeEstimate {
    /// Bytes the all-to-all mode would move.
    pub a2a_bytes: u64,
    /// Bytes the mirrors-to-master mode would move.
    pub m2m_bytes: u64,
}

impl VolumeEstimate {
    /// Element-wise sum (allreduce combiner).
    pub fn merge(self, other: VolumeEstimate) -> VolumeEstimate {
        VolumeEstimate {
            a2a_bytes: self.a2a_bytes + other.a2a_bytes,
            m2m_bytes: self.m2m_bytes + other.m2m_bytes,
        }
    }

    /// Adds one delta-holding replica's contribution. `mirrors` is the
    /// number of other machines holding replicas, `is_master` whether this
    /// replica is the master, `delta_size` the wire size of one delta.
    ///
    /// a2a: every holder sends to every sibling → `mirrors · size`.
    /// m2m: every non-master holder sends one message up; the master
    /// broadcasts one combined message down each mirror link. The down
    /// fan-out is attributed to the master's machine; when the master holds
    /// no delta its fan-out is still counted by the sibling holders'
    /// up-messages triggering it — we attribute it at master holders only,
    /// a documented approximation that matches the paper's closed form when
    /// masters hold deltas (the common case once lazy mode is on).
    pub fn add_holder(&mut self, mirrors: usize, is_master: bool, delta_size: usize) {
        self.a2a_bytes += (mirrors * delta_size) as u64;
        if is_master {
            // The master's machine accounts the whole down fan-out.
            self.m2m_bytes += (mirrors * delta_size) as u64;
        } else {
            // A mirror holder accounts its one up-message.
            self.m2m_bytes += delta_size as u64;
        }
    }
}

wire_record!(VolumeEstimate { a2a_bytes, m2m_bytes });

/// Chooses the faster mode from the global volume estimates using the
/// fitted time equations.
pub fn choose_mode(cost: &CostModel, est: VolumeEstimate) -> CommMode {
    let t_a2a = cost.t_a2a(est.a2a_bytes);
    let t_m2m = cost.t_m2m(est.m2m_bytes);
    if t_a2a <= t_m2m {
        CommMode::AllToAll
    } else {
        CommMode::MirrorsToMaster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_traffic_prefers_a2a() {
        let cost = CostModel::paper_cluster();
        let est = VolumeEstimate {
            a2a_bytes: 1_000_000,
            m2m_bytes: 500_000,
        };
        assert_eq!(choose_mode(&cost, est), CommMode::AllToAll);
    }

    #[test]
    fn huge_fanout_prefers_m2m() {
        // When a2a volume dwarfs m2m volume (high replication), m2m wins
        // despite its larger constant.
        let cost = CostModel::paper_cluster();
        let est = VolumeEstimate {
            a2a_bytes: 400_000_000, // 400 MB: t_a2a ≈ 1.2 s
            m2m_bytes: 40_000_000,  // 40 MB:  t_m2m ≈ 0.48 s
        };
        assert_eq!(choose_mode(&cost, est), CommMode::MirrorsToMaster);
    }

    #[test]
    fn estimates_match_paper_formulas() {
        // One vertex, 4 replicas (3 mirrors), all holding deltas, 8-byte
        // deltas. Paper: a2a = N·(R−1)·s = 4·3·8 = 96;
        // m2m = (N + R − 2)·s = 6·8 = 48.
        let mut est = VolumeEstimate::default();
        est.add_holder(3, true, 8); // the master holder
        est.add_holder(3, false, 8);
        est.add_holder(3, false, 8);
        est.add_holder(3, false, 8);
        assert_eq!(est.a2a_bytes, 96);
        // master down fan-out 3·8 = 24, three mirror ups 3·8 = 24.
        assert_eq!(est.m2m_bytes, 48);
    }

    #[test]
    fn merge_is_sum() {
        let a = VolumeEstimate {
            a2a_bytes: 10,
            m2m_bytes: 3,
        };
        let b = VolumeEstimate {
            a2a_bytes: 5,
            m2m_bytes: 4,
        };
        let c = a.merge(b);
        assert_eq!(c.a2a_bytes, 15);
        assert_eq!(c.m2m_bytes, 7);
    }
}
