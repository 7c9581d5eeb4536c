//! Global barriers and allreduce over the machine threads.
//!
//! A [`Collective`] gives every BSP synchronisation point one structure:
//! `allreduce` collects each machine's contribution, folds them **in
//! machine order 0..n**, and returns the reduction to everyone. Each
//! allreduce/barrier is counted as exactly one *global synchronisation* —
//! the quantity Fig. 10 plots.
//!
//! Two implementations share the API:
//!
//! * **Shared** — threads in one process: slot-write, barrier, fold,
//!   barrier. Zero communication; contributions are cloned in memory.
//! * **Mesh** — worker processes: each contribution is `Wire`-encoded and
//!   exchanged over a dedicated `Endpoint<u8>` control mesh, then folded
//!   from the decoded values. Because both paths fold in machine order
//!   with the same combine function, and the codec is bit-exact for
//!   floats, a mesh allreduce returns *bitwise* the same value as a
//!   shared one — the property the multiprocess equivalence tests pin.

use std::any::Any;
use std::sync::Barrier;

use lazygraph_net::Wire;
use parking_lot::Mutex;

use crate::comm::{Endpoint, OutboxSet};
use crate::error::CommError;
use crate::stats::{NetStats, Phase};

/// One collective synchronisation domain over `n` machines.
pub struct Collective {
    inner: Inner,
}

enum Inner {
    /// All participants are threads of this process.
    Shared {
        n: usize,
        barrier: Barrier,
        slots: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
    },
    /// This process hosts exactly one participant; the rest are reached
    /// over a control mesh. The mutex only threads `&mut` through `&self`
    /// — a worker's collective is used by its one machine thread.
    Mesh { n: usize, ep: Mutex<Endpoint<u8>> },
}

impl Collective {
    /// A shared-memory collective over `n` machine threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Collective {
            inner: Inner::Shared {
                n,
                barrier: Barrier::new(n),
                slots: (0..n).map(|_| Mutex::new(None)).collect(),
            },
        }
    }

    /// A mesh-backed collective for a worker process hosting machine
    /// `ep.me()` of `ep.num_machines()`.
    pub fn mesh(ep: Endpoint<u8>) -> Self {
        Collective {
            inner: Inner::Mesh {
                n: ep.num_machines(),
                ep: Mutex::new(ep),
            },
        }
    }

    /// Number of participating machines.
    pub fn num_machines(&self) -> usize {
        match &self.inner {
            Inner::Shared { n, .. } | Inner::Mesh { n, .. } => *n,
        }
    }

    /// Plain barrier; records one global sync (from machine 0 only so the
    /// count is per-collective, not per-participant). On the mesh path
    /// this is a real message exchange and can fail like any send.
    pub fn barrier(&self, me: usize, stats: &NetStats) -> Result<(), CommError> {
        match &self.inner {
            Inner::Shared { barrier, .. } => {
                if me == 0 {
                    stats.record_sync();
                }
                barrier.wait();
                Ok(())
            }
            Inner::Mesh { .. } => {
                // An empty-payload allreduce: synchronises and counts
                // exactly once, same as the shared barrier.
                self.allreduce(me, (), stats, |_, _| ())?;
                Ok(())
            }
        }
    }

    /// All-reduce: every machine contributes `val`; everyone receives the
    /// fold of all contributions under `combine` (which must be commutative
    /// and associative). Counts as one global synchronisation.
    ///
    /// Contributions are always folded in machine order `0..n`, so float
    /// reductions are run-to-run *and* transport-to-transport
    /// deterministic.
    ///
    /// On the shared path this fails only if a slot is empty or
    /// type-mismatched at fold time (two collectives of different element
    /// types interleaved — a protocol violation by the calling engine).
    /// On the mesh path it additionally fails if the transport does.
    pub fn allreduce<T, F>(
        &self,
        me: usize,
        val: T,
        stats: &NetStats,
        combine: F,
    ) -> Result<T, CommError>
    where
        T: Clone + Send + Wire + 'static,
        F: Fn(T, T) -> T,
    {
        if me == 0 {
            stats.record_sync();
        }
        match &self.inner {
            Inner::Shared { barrier, slots, .. } => {
                *slots[me].lock() = Some(Box::new(val));
                barrier.wait();
                let mut acc: Option<T> = None;
                for (machine, slot) in slots.iter().enumerate() {
                    let guard = slot.lock();
                    let v = guard
                        .as_ref()
                        .ok_or(CommError::CollectiveSlotEmpty { machine })?
                        .downcast_ref::<T>()
                        .ok_or(CommError::CollectiveTypeMismatch { machine })?
                        .clone();
                    acc = Some(match acc {
                        None => v,
                        Some(a) => combine(a, v),
                    });
                }
                // Second barrier: nobody may overwrite a slot before all
                // have read.
                barrier.wait();
                // `slots` is non-empty (`new` asserts n > 0), so the fold
                // ran.
                acc.ok_or(CommError::CollectiveSlotEmpty { machine: me })
            }
            Inner::Mesh { n, ep } => {
                let n = *n;
                let mut ep = ep.lock();
                debug_assert_eq!(me, ep.me(), "mesh collective is bound to one machine");
                let encoded = val.to_wire();
                let mut ob = OutboxSet::new(n);
                for dst in 0..n {
                    if dst != me {
                        ob.slot(dst).extend_from_slice(&encoded);
                    }
                }
                let received = ep.exchange(&mut ob, 0.0, Phase::Control, 1, stats)?;
                // `exchange` returns batches sorted by sender; fold in
                // machine order with our own value at position `me`.
                let mut acc: Option<T> = None;
                let mut batches = received.into_iter().peekable();
                for machine in 0..n {
                    let v = if machine == me {
                        val.clone()
                    } else {
                        let mut b = batches
                            .next()
                            .ok_or(CommError::CollectiveSlotEmpty { machine })?;
                        if b.from != machine {
                            return Err(CommError::CollectiveSlotEmpty { machine });
                        }
                        // Zero-copy TCP batches arrive still-encoded; the
                        // collective is cold-path, so materializing here
                        // (a byte copy) is the right trade.
                        b.make_items().map_err(|e| CommError::transport(me, &e))?;
                        let v = T::from_wire(&b.items)
                            .map_err(|e| CommError::transport(me, &e))?;
                        ep.recycle(b);
                        v
                    };
                    acc = Some(match acc {
                        None => v,
                        Some(a) => combine(a, v),
                    });
                }
                acc.ok_or(CommError::CollectiveSlotEmpty { machine: me })
            }
        }
    }

    /// The control-mesh round the next collective will consume — the
    /// ctrl-side replay watermark a checkpoint records. Always 0 on the
    /// shared-memory path (nothing to replay).
    pub fn next_round(&self) -> u64 {
        match &self.inner {
            Inner::Shared { .. } => 0,
            Inner::Mesh { ep, .. } => ep.lock().next_round(),
        }
    }

    /// Prunes the control mesh's replay logs below `watermark`; no-op on
    /// the shared-memory path.
    pub fn prune_log(&self, watermark: u64, stats: &NetStats) {
        if let Inner::Mesh { ep, .. } = &self.inner {
            ep.lock().prune_log(watermark, stats);
        }
    }

    /// Allreduce-sum over u64.
    pub fn sum_u64(&self, me: usize, val: u64, stats: &NetStats) -> Result<u64, CommError> {
        self.allreduce(me, val, stats, |a, b| a + b)
    }

    /// Allreduce-max over f64 (simulated-clock synchronisation).
    pub fn max_f64(&self, me: usize, val: f64, stats: &NetStats) -> Result<f64, CommError> {
        self.allreduce(me, val, stats, f64::max)
    }

    /// Allreduce-or over bool.
    pub fn any(&self, me: usize, val: bool, stats: &NetStats) -> Result<bool, CommError> {
        self.allreduce(me, val, stats, |a, b| a || b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::build_mesh;
    use std::sync::Arc;

    #[test]
    fn sum_across_threads() {
        let n = 4;
        let coll = Arc::new(Collective::new(n));
        let stats = Arc::new(NetStats::new());
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let coll = coll.clone();
                    let stats = stats.clone();
                    s.spawn(move || coll.sum_u64(me, (me + 1) as u64, &stats).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&r| r == 10));
        assert_eq!(stats.snapshot().global_syncs, 1);
    }

    #[test]
    fn repeated_allreduce_rounds() {
        let n = 3;
        let coll = Arc::new(Collective::new(n));
        let stats = Arc::new(NetStats::new());
        let results: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let coll = coll.clone();
                    let stats = stats.clone();
                    s.spawn(move || {
                        let mut acc = 0.0;
                        for round in 0..50 {
                            acc = coll.max_f64(me, (me * round) as f64, &stats).unwrap();
                        }
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Final round: max(0, 49, 98) = 98.
        assert!(results.iter().all(|&r| r == 98.0));
        assert_eq!(stats.snapshot().global_syncs, 50);
    }

    #[test]
    fn any_detects_single_true() {
        let n = 5;
        let coll = Arc::new(Collective::new(n));
        let stats = Arc::new(NetStats::new());
        let results: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let coll = coll.clone();
                    let stats = stats.clone();
                    s.spawn(move || coll.any(me, me == 3, &stats).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&r| r));
    }

    #[test]
    fn single_machine_collective() {
        let coll = Collective::new(1);
        let stats = NetStats::new();
        assert_eq!(coll.sum_u64(0, 42, &stats).unwrap(), 42);
        coll.barrier(0, &stats).unwrap();
        assert_eq!(stats.snapshot().global_syncs, 2);
    }

    /// A mesh collective per machine (over an in-proc u8 mesh) must fold
    /// to *bitwise* the same result as the shared collective.
    #[test]
    fn mesh_allreduce_matches_shared_bitwise() {
        let n = 4;
        // Contributions chosen so that fold order matters for floats:
        // only the machine-order fold gives one specific bit pattern.
        let contribs: Vec<f64> = vec![0.1, 1e16, -1e16, 0.2];
        let shared = Arc::new(Collective::new(n));
        let stats = Arc::new(NetStats::new());
        let shared_results: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let coll = shared.clone();
                    let stats = stats.clone();
                    let v = contribs[me];
                    s.spawn(move || coll.allreduce(me, v, &stats, |a, b| a + b).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let eps = build_mesh::<u8>(n);
        let mesh_results: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(me, ep)| {
                    let stats = stats.clone();
                    let v = contribs[me];
                    s.spawn(move || {
                        let coll = Collective::mesh(ep);
                        coll.allreduce(me, v, &stats, |a, b| a + b).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for me in 0..n {
            assert_eq!(
                shared_results[me].to_bits(),
                mesh_results[me].to_bits(),
                "machine {me}: mesh fold must be bitwise identical"
            );
        }
    }

    #[test]
    fn mesh_collective_repeated_rounds_and_barrier() {
        let n = 3;
        let eps = build_mesh::<u8>(n);
        let stats = Arc::new(NetStats::new());
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(me, ep)| {
                    let stats = stats.clone();
                    s.spawn(move || {
                        let coll = Collective::mesh(ep);
                        let mut acc = 0;
                        for round in 0..20u64 {
                            acc = coll.sum_u64(me, round + me as u64, &stats).unwrap();
                            coll.barrier(me, &stats).unwrap();
                        }
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Final round: (19+0) + (19+1) + (19+2).
        assert!(results.iter().all(|&r| r == 60));
        // 20 allreduces + 20 barriers, each counted once.
        assert_eq!(stats.snapshot().global_syncs, 40);
    }
}
