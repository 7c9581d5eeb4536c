//! Global barriers and allreduce, as rounds of a machine's one endpoint.
//!
//! Every BSP synchronisation point has one structure: an allreduce
//! ([`Endpoint::allreduce`]) collects each machine's contribution, folds
//! them **in machine order 0..n**, and returns the reduction to everyone.
//! Each allreduce/barrier is counted as exactly one *global
//! synchronisation* — the quantity Fig. 10 plots — but for a checkpoint's
//! barrier ([`Endpoint::uncounted_barrier`]), which is no step of the
//! computation.
//!
//! There is one implementation, a message round on the endpoint that
//! carries the machine's data: it `Wire`-encodes its contribution, sends
//! it to every peer as a batch of bytes in one round of the endpoint's
//! numbering, and folds the decoded values, its own at position `me`, in
//! machine order. The codec is bit-exact for floats, so a reduction
//! returns the same bits on every route — in process, threaded TCP,
//! worker processes. A collective round is counted under
//! [`Phase::Control`] and charges no `est_bytes`: what the cost model
//! sees is the engines' payload on every route. And because the endpoint
//! belongs to its machine, a machine that fails drops it: its peers' round
//! fails typed instead of waiting for a contribution that never comes.
//!
//! [`Collective`] runs the same reduce over an `Endpoint<u8>` of its own,
//! for callers that synchronise without an engine's data mesh. It hosts
//! either one machine's endpoint ([`Collective::mesh`]) or all `n` of an
//! in-process mesh ([`Collective::new`], one object that `n` threads
//! share); `me` names the machine a call runs as.

use std::sync::{Mutex, MutexGuard, PoisonError};

use lazygraph_net::Wire;

use crate::comm::{build_mesh, Endpoint, OutboxSet};
use crate::error::CommError;
use crate::stats::{NetStats, Phase};

impl<T: Wire + Send> Endpoint<T> {
    /// All-reduce: every machine contributes `val`; everyone receives the
    /// fold of all contributions under `combine` (which must be commutative
    /// and associative). One round of this endpoint, staged in `outboxes`
    /// (emptied again when it returns, so the caller reuses it). Counts
    /// as one global synchronisation, recorded by machine 0 only so the
    /// count is per collective, not per participant.
    ///
    /// Contributions are always folded in machine order `0..n`, so float
    /// reductions are run-to-run *and* transport-to-transport
    /// deterministic.
    pub fn allreduce<V, F>(
        &mut self,
        outboxes: &mut OutboxSet<u8>,
        val: V,
        stats: &NetStats,
        combine: F,
    ) -> Result<V, CommError>
    where
        V: Wire,
        F: Fn(V, V) -> V,
    {
        let red = self.reduce(outboxes, val, stats, combine)?;
        if self.me() == 0 {
            stats.record_sync();
        }
        Ok(red)
    }

    /// A barrier that is no synchronisation of the computation: the same
    /// round as an empty [`Endpoint::allreduce`], not counted as a global
    /// sync (a checkpoint's, which the cost model charges nothing either).
    pub fn uncounted_barrier(
        &mut self,
        outboxes: &mut OutboxSet<u8>,
        stats: &NetStats,
    ) -> Result<(), CommError> {
        self.reduce(outboxes, (), stats, |_, _| ())
    }

    /// The round of both: contribute, collect, fold in machine order.
    fn reduce<V, F>(
        &mut self,
        outboxes: &mut OutboxSet<u8>,
        val: V,
        stats: &NetStats,
        combine: F,
    ) -> Result<V, CommError>
    where
        V: Wire,
        F: Fn(V, V) -> V,
    {
        let (me, n) = (self.me(), self.num_machines());
        let encoded = val.to_wire();
        for dst in (0..n).filter(|&dst| dst != me) {
            outboxes.slot(dst).extend_from_slice(&encoded);
        }
        let received = self.round(outboxes, 0.0, true, Phase::Control, 0, stats)?;
        // A round returns one batch per peer, sorted by sender.
        let mut batches = received.into_iter();
        let mut values = Vec::with_capacity(n);
        for machine in (0..n).filter(|&m| m != me) {
            let mut b = batches
                .next()
                .filter(|b| b.from == machine)
                .ok_or(CommError::CollectiveSlotEmpty { machine })?;
            // Batches arrive still encoded; a collective round is
            // cold-path, so materializing here (a byte copy) is the right
            // trade.
            b.make_items().map_err(|e| CommError::transport(me, &e))?;
            values.push(V::from_wire(&b.items).map_err(|e| CommError::transport(me, &e))?);
            self.recycle(b);
        }
        values.insert(me, val);
        values
            .into_iter()
            .reduce(combine)
            .ok_or(CommError::CollectiveSlotEmpty { machine: me })
    }
}

/// One collective synchronisation domain over `n` machines, on endpoints
/// of its own.
pub struct Collective {
    /// `legs[m]` is machine `m`'s endpoint, `None` where this collective
    /// does not host it. A leg's lock is only ever taken by its own
    /// machine's thread; it threads `&mut` through `&self`.
    legs: Vec<Option<Mutex<Leg>>>,
}

/// One machine's endpoint and its reused staging.
struct Leg {
    ep: Endpoint<u8>,
    outboxes: OutboxSet<u8>,
}

impl Leg {
    fn new(ep: Endpoint<u8>) -> Mutex<Leg> {
        let outboxes = OutboxSet::new(ep.num_machines());
        Mutex::new(Leg { ep, outboxes })
    }
}

impl Collective {
    /// All `n` endpoints of a fresh in-process mesh, for `n` threads that
    /// share this one object, each calling as its own `me`.
    pub fn new(n: usize) -> Self {
        Collective {
            legs: build_mesh(n).into_iter().map(|ep| Some(Leg::new(ep))).collect(),
        }
    }

    /// Machine `ep.me()`'s endpoint of a mesh of `ep.num_machines()`.
    pub fn mesh(ep: Endpoint<u8>) -> Self {
        let me = ep.me();
        let mut legs: Vec<Option<Mutex<Leg>>> = (0..ep.num_machines()).map(|_| None).collect();
        legs[me] = Some(Leg::new(ep));
        Collective { legs }
    }

    /// Machine `me`'s leg, or a typed error if this collective does not
    /// host it. Only machine `me`'s thread takes this lock; a leg whose
    /// holder panicked is handed back as the panic left it, not refused.
    fn leg(&self, me: usize) -> Result<MutexGuard<'_, Leg>, CommError> {
        let leg = self.legs.get(me).and_then(Option::as_ref).ok_or(CommError::CollectiveLeg {
            me,
            machines: self.legs.len(),
        })?;
        Ok(leg.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Plain barrier as machine `me`: an empty-payload allreduce, counted
    /// as one global sync. A message round, so it fails like any exchange.
    pub fn barrier(&self, me: usize, stats: &NetStats) -> Result<(), CommError> {
        self.allreduce(me, (), stats, |_, _| ())
    }

    /// [`Endpoint::allreduce`] as machine `me`.
    pub fn allreduce<T, F>(
        &self,
        me: usize,
        val: T,
        stats: &NetStats,
        combine: F,
    ) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let mut leg = self.leg(me)?;
        let Leg { ep, outboxes } = &mut *leg;
        ep.allreduce(outboxes, val, stats, combine)
    }

    /// Allreduce-sum over u64.
    pub fn sum_u64(&self, me: usize, val: u64, stats: &NetStats) -> Result<u64, CommError> {
        self.allreduce(me, val, stats, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{build_endpoints, TransportKind};
    use std::sync::Arc;

    /// Runs `f(me)` on one thread per machine and returns the results in
    /// machine order.
    fn on_threads<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        crate::runtime::run_machines((0..n).collect(), f)
    }

    #[test]
    fn sum_across_threads() {
        let coll = Collective::new(4);
        let stats = NetStats::new();
        let results = on_threads(4, |me| coll.sum_u64(me, (me + 1) as u64, &stats).unwrap());
        assert!(results.iter().all(|&r| r == 10));
        assert_eq!(stats.snapshot().global_syncs, 1);
    }

    #[test]
    fn repeated_allreduce_rounds() {
        let coll = Collective::new(3);
        let stats = NetStats::new();
        let results = on_threads(3, |me| {
            let mut acc = 0.0;
            for round in 0..50 {
                acc = coll.allreduce(me, (me * round) as f64, &stats, f64::max).unwrap();
            }
            acc
        });
        // Final round: max(0, 49, 98) = 98.
        assert!(results.iter().all(|&r| r == 98.0));
        assert_eq!(stats.snapshot().global_syncs, 50);
    }

    #[test]
    fn single_machine_collective() {
        let coll = Collective::new(1);
        let stats = NetStats::new();
        assert_eq!(coll.sum_u64(0, 42, &stats).unwrap(), 42);
        coll.barrier(0, &stats).unwrap();
        assert_eq!(stats.snapshot().global_syncs, 2);
    }

    /// The one fold, over in-proc legs shared by the threads and over one
    /// TCP leg per machine: contributions chosen so that fold order
    /// matters for floats give the same bits on both, and those of the
    /// machine-order sequential sum. Neither round charges `est_bytes`.
    #[test]
    fn allreduce_folds_in_machine_order_on_every_transport() {
        let contribs = [0.1, 1e16, -1e16, 0.2];
        let n = contribs.len();
        let expected = ((0.1f64 + 1e16) + -1e16) + 0.2;
        assert_ne!(expected.to_bits(), contribs.iter().rev().sum::<f64>().to_bits());
        let stats = Arc::new(NetStats::new());
        let shared = Collective::new(n);
        let inproc = on_threads(n, |me| {
            shared.allreduce(me, contribs[me], &stats, |a, b| a + b).unwrap()
        });
        let legs = build_endpoints::<u8>(TransportKind::Tcp, n, &stats).unwrap();
        let tcp = crate::runtime::run_machines(legs, |ep| {
            let me = ep.me();
            Collective::mesh(ep).allreduce(me, contribs[me], &stats, |a, b| a + b).unwrap()
        });
        for (me, (a, b)) in inproc.iter().zip(&tcp).enumerate() {
            assert_eq!(a.to_bits(), expected.to_bits(), "machine {me}, in-proc");
            assert_eq!(b.to_bits(), expected.to_bits(), "machine {me}, tcp");
        }
        let snap = stats.snapshot();
        assert_eq!(snap.global_syncs, 2);
        assert_eq!(snap.total_est_bytes(), 0, "a control round is not payload");
        assert!(snap.wire_frames_sent > 0, "the TCP legs crossed sockets");
    }

    #[test]
    fn mesh_collective_repeated_rounds_and_barrier() {
        let stats = NetStats::new();
        let results = crate::runtime::run_machines(build_mesh::<u8>(3), |ep| {
            let me = ep.me();
            let coll = Collective::mesh(ep);
            let mut acc = 0;
            for round in 0..20u64 {
                acc = coll.sum_u64(me, round + me as u64, &stats).unwrap();
                coll.barrier(me, &stats).unwrap();
            }
            let rounds = coll.leg(me).unwrap().ep.next_round();
            (acc, rounds)
        });
        // Final round: (19+0) + (19+1) + (19+2), after 40 control rounds.
        assert!(results.iter().all(|&r| r == (60, 40)), "{results:?}");
        // 20 allreduces + 20 barriers, each counted once.
        assert_eq!(stats.snapshot().global_syncs, 40);
    }

    /// Data rounds and collective rounds are one sequence on one endpoint:
    /// interleaved, each collects its own round's batches, on every
    /// transport.
    #[test]
    fn data_and_collective_rounds_share_one_numbering() {
        let n = 3;
        for kind in [TransportKind::InProc, TransportKind::Tcp] {
            let stats = Arc::new(NetStats::new());
            let eps = build_endpoints::<u32>(kind, n, &stats).unwrap();
            let rounds = crate::runtime::run_machines(eps, |mut ep| {
                let me = ep.me();
                let (mut data, mut control) = (OutboxSet::new(n), OutboxSet::new(n));
                for i in 0..20u32 {
                    for dst in (0..n).filter(|&dst| dst != me) {
                        data.push(dst, 10 * i + me as u32);
                    }
                    for mut b in ep.exchange(&mut data, 0.0, Phase::Coherency, 4, &stats).unwrap() {
                        b.make_items().unwrap();
                        assert_eq!(b.items, vec![10 * i + b.from as u32], "{kind:?}");
                        ep.recycle(b);
                    }
                    let mine = u64::from(i) + me as u64;
                    let sum = ep.allreduce(&mut control, mine, &stats, |a, b| a + b).unwrap();
                    assert_eq!(sum, 3 * u64::from(i) + 3, "{kind:?}");
                    ep.allreduce(&mut control, (), &stats, |_, _| ()).unwrap();
                }
                ep.next_round()
            });
            assert!(rounds.iter().all(|&r| r == 60), "{kind:?}: {rounds:?}");
            let snap = stats.snapshot();
            assert_eq!(snap.global_syncs, 40, "{kind:?}");
            assert_eq!(snap.phase(Phase::Control).est_bytes, 0, "{kind:?}");
        }
    }

    /// A `me` whose leg the collective does not host is a typed error on
    /// every call, before anything is sent.
    #[test]
    fn a_leg_the_collective_does_not_host_is_a_typed_error() {
        let stats = NetStats::new();
        let own = Collective::mesh(build_mesh::<u8>(3).remove(1));
        let shared = Collective::new(2);
        for (coll, me) in [(&own, 0), (&own, 2), (&own, 7), (&shared, 2)] {
            let machines = coll.legs.len();
            let want = CommError::CollectiveLeg { me, machines };
            assert_eq!(coll.sum_u64(me, 1, &stats), Err(want.clone()));
            assert_eq!(coll.barrier(me, &stats), Err(want));
        }
        let snap = stats.snapshot();
        assert_eq!((snap.global_syncs, snap.total_batches()), (0, 0));
    }

    /// A thread that panicked holding a leg released it: the leg's next
    /// round runs instead of failing on a poisoned lock.
    #[test]
    fn a_leg_a_panicking_holder_left_still_runs_rounds() {
        let coll = Collective::new(1);
        let stats = NetStats::new();
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _leg = coll.leg(0);
                panic!("holder dies");
            });
            assert!(held.join().is_err());
        });
        assert!(coll.legs[0].as_ref().is_some_and(Mutex::is_poisoned));
        assert_eq!(coll.sum_u64(0, 42, &stats), Ok(42));
    }
}
