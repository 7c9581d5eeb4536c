//! Engine configuration: which engine, which partitioning, which
//! graph-aware optimisations (§4.2).

use lazygraph_cluster::{CommError, CostModel, TransportKind};
use lazygraph_net::{wire_enum, wire_record, NetError, Wire, WireReader};
use lazygraph_partition::{HubFanoutConfig, PartitionStrategy, SplitterConfig};

use crate::parallel::ParallelConfig;

/// The execution engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// PowerGraph's synchronous BSP engine with eager replica coherency
    /// (baseline; 2 communications + 3 global syncs per superstep, §2.2).
    PowerGraphSync,
    /// PowerGraph's asynchronous engine with eager replica coherency
    /// (baseline; fine-grained messages, no barriers).
    PowerGraphAsync,
    /// LazyGraph's LazyBlockAsync engine (paper Algorithm 1).
    LazyBlockAsync,
    /// LazyGraph's LazyVertexAsync engine (paper Algorithm 2 — the paper
    /// left its implementation to future work; ours is the extension
    /// deliverable).
    LazyVertexAsync,
    /// PowerSwitch-style hybrid (extension, §6 related work): eager BSP
    /// while the frontier is dense, eager async once it goes sparse.
    PowerSwitchHybrid,
    /// Maiter-style delta-accumulative engine with epoch-bucketed
    /// deterministic priority scheduling (extension, DESIGN.md §15):
    /// vertices hold `(value, delta)`, only deltas flow, and each epoch
    /// processes the highest non-empty |delta| bucket.
    DeltaAccum,
}

impl EngineKind {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::PowerGraphSync => "powergraph-sync",
            EngineKind::PowerGraphAsync => "powergraph-async",
            EngineKind::LazyBlockAsync => "lazy-block-async",
            EngineKind::LazyVertexAsync => "lazy-vertex-async",
            EngineKind::PowerSwitchHybrid => "powerswitch-hybrid",
            EngineKind::DeltaAccum => "delta-accum",
        }
    }
}

/// Communication mode at data coherency points (§3.2, Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommModePolicy {
    /// Dynamically switch between all-to-all and mirrors-to-master using
    /// the fitted time equations (§4.2.2). Costs one extra mode-vote
    /// allreduce per coherency point.
    Auto,
    /// Always all-to-all (Fig. 5(a)).
    AllToAll,
    /// Always mirrors-to-master (Fig. 5(b)).
    MirrorsToMaster,
}

/// Interval strategy between adjacent data coherency points (§4.2.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IntervalPolicy {
    /// The paper's input-behaviour-interval model: lazy mode turns on when
    /// `E/V ≤ ev_threshold || trend ≥ trend_threshold`. How long a local
    /// stage then runs depends on which side of `ev_threshold` the graph
    /// sits ([`crate::interval`]). At or below it, the run's first local
    /// *stage* runs to local quiescence, its duration is `T`, and every
    /// later stage is bounded by `local_bound_factor · T` — the only branch
    /// that reads `local_bound_factor`. Above it, every stage, the first
    /// included, admits a sub-round only while it stays within half the
    /// simulated cost of the previous coherency point; there is no `T`.
    /// `ev_threshold = ∞` therefore selects the paper's bound on any graph.
    Adaptive {
        ev_threshold: f64,
        trend_threshold: f64,
        local_bound_factor: f64,
    },
    /// The "simple strategy" of Fig. 8(a): lazy always on, every local
    /// stage runs to local convergence.
    AlwaysLazy,
    /// Never enter the local computation stage (pure coherency-per-
    /// iteration; ablation).
    NeverLazy,
}

impl IntervalPolicy {
    /// The trained thresholds from §4.2.1: `E/V ≤ 10 || trend ≥ 0.07`,
    /// stage bound `3T`.
    pub fn paper_adaptive() -> Self {
        IntervalPolicy::Adaptive {
            ev_threshold: 10.0,
            trend_threshold: 0.07,
            local_bound_factor: 3.0,
        }
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub engine: EngineKind,
    pub partition: PartitionStrategy,
    pub splitter: SplitterConfig,
    /// Bidirectional dispatch rule for parallel-edges (CC, k-core).
    pub bidirectional: bool,
    pub comm_mode: CommModePolicy,
    pub interval: IntervalPolicy,
    pub cost: CostModel,
    /// Safety cap on supersteps / coherency iterations.
    pub max_iterations: u64,
    /// Book a [`crate::metrics::StepRecord`] after every step on every
    /// machine, returned in its outcome on both routes; the run reports
    /// machine 0's trace (convergence analysis; one small record a step).
    pub record_history: bool,
    /// Active-vertex fraction below which the PowerSwitch hybrid engine
    /// flips from BSP to asynchronous execution.
    pub hybrid_switch_threshold: f64,
    /// Worker threads per simulated machine for local computation stages.
    /// `0` = auto: `LAZYGRAPH_THREADS`, then `available_parallelism /
    /// num_machines` (min 1; [`Self::resolve_threads`]). Results are
    /// bitwise-identical at every setting (block-ordered merges).
    pub threads_per_machine: usize,
    /// Vertices per work block handed to the machine-local pool. Also
    /// never changes results; tune for load balance vs dispatch overhead.
    pub block_size: usize,
    /// Number of power-of-two priority buckets the DeltaAccum scheduler
    /// bins pending vertices into (DESIGN.md §15). More buckets = finer
    /// magnitude classes = stricter largest-first ordering; ignored by
    /// every other engine.
    pub delta_buckets: usize,
    /// DeltaAccum scheduling/termination tolerance: pending deltas whose
    /// priority falls below it are parked, and the run converges when no
    /// machine holds a schedulable vertex. Ignored by other engines.
    pub delta_tolerance: f64,
    /// Mesh transport (DESIGN.md §10): both carriers encode every batch
    /// once; `InProc` (the default) hands the payload to the peer in
    /// memory, `Tcp` puts it behind a frame header on a loopback socket.
    /// Results are bitwise-identical; `NetStats` additionally reports
    /// measured frame bytes on `Tcp`.
    pub transport: TransportKind,
    /// Degree-aware hub fan-out at partition time (DESIGN.md §16): edges
    /// of vertices above the degree threshold are split round-robin across
    /// machines before replica derivation, so a hub behaves like an
    /// ordinary multi-mirror vertex downstream. Disabled by default —
    /// the paper's static placements stay the reference.
    pub hub_fanout: HubFanoutConfig,
}

impl EngineConfig {
    /// The paper's LazyGraph configuration: LazyBlockAsync + coordinated
    /// cut + edge splitter + adaptive interval + dynamic comm modes.
    pub fn lazygraph() -> Self {
        EngineConfig {
            engine: EngineKind::LazyBlockAsync,
            partition: PartitionStrategy::Coordinated,
            splitter: SplitterConfig::default(),
            bidirectional: false,
            comm_mode: CommModePolicy::Auto,
            interval: IntervalPolicy::paper_adaptive(),
            cost: CostModel::paper_cluster(),
            max_iterations: 1_000_000,
            record_history: false,
            hybrid_switch_threshold: 0.05,
            threads_per_machine: 0,
            block_size: DEFAULT_BLOCK_SIZE,
            delta_buckets: DEFAULT_DELTA_BUCKETS,
            delta_tolerance: DEFAULT_DELTA_TOLERANCE,
            transport: TransportKind::InProc,
            hub_fanout: HubFanoutConfig::default(),
        }
    }

    /// PowerGraph Sync baseline: coordinated cut, no splitter, eager.
    pub fn powergraph_sync() -> Self {
        EngineConfig {
            engine: EngineKind::PowerGraphSync,
            splitter: SplitterConfig::disabled(),
            ..EngineConfig::lazygraph()
        }
    }

    /// PowerGraph Async baseline.
    pub fn powergraph_async() -> Self {
        EngineConfig {
            engine: EngineKind::PowerGraphAsync,
            splitter: SplitterConfig::disabled(),
            ..EngineConfig::lazygraph()
        }
    }

    /// LazyVertexAsync (extension engine).
    pub fn lazy_vertex_async() -> Self {
        EngineConfig {
            engine: EngineKind::LazyVertexAsync,
            ..EngineConfig::lazygraph()
        }
    }

    /// PowerSwitch-style hybrid (extension engine; eager coherency).
    pub fn powerswitch_hybrid() -> Self {
        EngineConfig {
            engine: EngineKind::PowerSwitchHybrid,
            splitter: SplitterConfig::disabled(),
            ..EngineConfig::lazygraph()
        }
    }

    /// DeltaAccum (extension engine): delta-accumulative iteration with
    /// epoch-bucketed priority scheduling. Keeps the splitter (it shares
    /// the lazy engines' replica algebra).
    pub fn delta_accum() -> Self {
        EngineConfig {
            engine: EngineKind::DeltaAccum,
            ..EngineConfig::lazygraph()
        }
    }

    /// Builder-style override of the engine kind.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        if matches!(
            engine,
            EngineKind::PowerGraphSync
                | EngineKind::PowerGraphAsync
                | EngineKind::PowerSwitchHybrid
        ) {
            self.splitter = SplitterConfig::disabled();
        }
        self
    }

    /// Builder-style override of the interval policy.
    pub fn with_interval(mut self, interval: IntervalPolicy) -> Self {
        self.interval = interval;
        self
    }

    /// Builder-style override of the coherency communication policy.
    pub fn with_comm_mode(mut self, comm_mode: CommModePolicy) -> Self {
        self.comm_mode = comm_mode;
        self
    }

    /// Builder-style override of the partition strategy.
    pub fn with_partition(mut self, partition: PartitionStrategy) -> Self {
        self.partition = partition;
        self
    }

    /// Builder-style override of bidirectional dispatch.
    pub fn with_bidirectional(mut self, b: bool) -> Self {
        self.bidirectional = b;
        self
    }

    /// Builder-style override of intra-machine threads (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads_per_machine = threads;
        self
    }

    /// Builder-style override of the local-work block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size.max(1);
        self
    }

    /// Builder-style override of the DeltaAccum bucket count (floor 1).
    pub fn with_delta_buckets(mut self, buckets: usize) -> Self {
        self.delta_buckets = buckets.max(1);
        self
    }

    /// Builder-style override of the DeltaAccum scheduling tolerance.
    pub fn with_delta_tolerance(mut self, tolerance: f64) -> Self {
        self.delta_tolerance = tolerance;
        self
    }

    /// Builder-style override of the mesh transport backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style override of the partition-time edge splitter (see
    /// [`Self::splitter`]).
    pub fn with_splitter(mut self, splitter: SplitterConfig) -> Self {
        self.splitter = splitter;
        self
    }

    /// Builder-style override of partition-time hub fan-out (see
    /// [`Self::hub_fanout`]).
    pub fn with_hub_fanout(mut self, hub_fanout: HubFanoutConfig) -> Self {
        self.hub_fanout = hub_fanout;
        self
    }

    /// Resolves `threads_per_machine` for a run on `num_machines` simulated
    /// machines: an explicit setting wins, then `LAZYGRAPH_THREADS` (`0`
    /// or unset = auto), then [`Self::parallel`]'s even split of the
    /// host's parallelism. A `LAZYGRAPH_THREADS` that is not a count is a
    /// typed error. Both routes resolve once, before any machine starts,
    /// and run the machines on a config holding the count.
    pub fn resolve_threads(&self, num_machines: usize) -> Result<usize, CommError> {
        if self.threads_per_machine == 0 {
            if let Some(value) = std::env::var_os("LAZYGRAPH_THREADS") {
                let value = value.to_string_lossy();
                match value.parse::<usize>() {
                    Ok(0) => {}
                    Ok(t) => return Ok(t),
                    Err(_) => return Err(CommError::ThreadsEnv { value: value.into_owned() }),
                }
            }
        }
        Ok(self.parallel(num_machines).threads)
    }

    /// The machine-local parallelism of a run on `num_machines` machines,
    /// the environment aside: `threads_per_machine`, or for `0` an even
    /// split of the host's parallelism across machines (min 1).
    pub fn parallel(&self, num_machines: usize) -> ParallelConfig {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match self.threads_per_machine {
            0 => (host / num_machines.max(1)).max(1),
            t => t,
        };
        ParallelConfig {
            threads,
            block_size: self.block_size.max(1),
        }
    }
}

wire_enum!(EngineKind {
    PowerGraphSync = 0, PowerGraphAsync = 1, LazyBlockAsync = 2, LazyVertexAsync = 3,
    PowerSwitchHybrid = 4, DeltaAccum = 5,
});

wire_enum!(CommModePolicy { Auto = 0, AllToAll = 1, MirrorsToMaster = 2 });

// By hand: what follows the tag depends on it.
impl Wire for IntervalPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            IntervalPolicy::Adaptive {
                ev_threshold,
                trend_threshold,
                local_bound_factor,
            } => {
                out.push(0);
                ev_threshold.encode(out);
                trend_threshold.encode(out);
                local_bound_factor.encode(out);
            }
            IntervalPolicy::AlwaysLazy => out.push(1),
            IntervalPolicy::NeverLazy => out.push(2),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(match r.take_u8()? {
            0 => IntervalPolicy::Adaptive {
                ev_threshold: f64::decode(r)?,
                trend_threshold: f64::decode(r)?,
                local_bound_factor: f64::decode(r)?,
            },
            1 => IntervalPolicy::AlwaysLazy,
            2 => IntervalPolicy::NeverLazy,
            tag => return Err(NetError::BadTag { tag, ty: "IntervalPolicy" }),
        })
    }
}

// The whole configuration crosses the wire (a multiprocess launcher ships
// it to its workers), every float as its exact bit pattern.
// `config_wire.rs` pins the bytes and the round trip.
wire_record!(EngineConfig {
    engine, partition, splitter, bidirectional, comm_mode, interval, cost, max_iterations,
    record_history, hybrid_switch_threshold, threads_per_machine, block_size, delta_buckets,
    delta_tolerance, transport, hub_fanout,
});

/// Default vertices-per-block for the machine-local pools.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Default DeltaAccum priority-bucket count: 16 doublings above the
/// tolerance span every magnitude PageRank-style residuals traverse.
pub const DEFAULT_DELTA_BUCKETS: usize = 16;

/// Default DeltaAccum scheduling tolerance (matches the PageRank
/// adapter's default flush tolerance).
pub const DEFAULT_DELTA_TOLERANCE: f64 = 1e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let lazy = EngineConfig::lazygraph();
        assert_eq!(lazy.engine, EngineKind::LazyBlockAsync);
        assert!(lazy.splitter.t_extra > 0.0);
        let sync = EngineConfig::powergraph_sync();
        assert_eq!(sync.engine, EngineKind::PowerGraphSync);
        assert_eq!(sync.splitter.t_extra, 0.0, "baselines must not split edges");
    }

    #[test]
    fn with_engine_disables_splitter_for_baselines() {
        let cfg = EngineConfig::lazygraph().with_engine(EngineKind::PowerGraphSync);
        assert_eq!(cfg.splitter.t_extra, 0.0);
        let cfg2 = EngineConfig::lazygraph().with_engine(EngineKind::LazyVertexAsync);
        assert!(cfg2.splitter.t_extra > 0.0);
        let cfg3 = EngineConfig::lazygraph().with_engine(EngineKind::DeltaAccum);
        assert!(cfg3.splitter.t_extra > 0.0, "delta engine keeps the splitter");
    }

    #[test]
    fn delta_knobs_have_sane_defaults_and_builders() {
        let cfg = EngineConfig::delta_accum();
        assert_eq!(cfg.engine, EngineKind::DeltaAccum);
        assert_eq!(cfg.delta_buckets, DEFAULT_DELTA_BUCKETS);
        assert_eq!(cfg.delta_tolerance, DEFAULT_DELTA_TOLERANCE);
        let tuned = cfg.with_delta_buckets(0).with_delta_tolerance(1e-6);
        assert_eq!(tuned.delta_buckets, 1, "bucket floor is one");
        assert_eq!(tuned.delta_tolerance, 1e-6);
    }

    #[test]
    fn paper_thresholds() {
        if let IntervalPolicy::Adaptive {
            ev_threshold,
            trend_threshold,
            local_bound_factor,
        } = IntervalPolicy::paper_adaptive()
        {
            assert_eq!(ev_threshold, 10.0);
            assert_eq!(trend_threshold, 0.07);
            assert_eq!(local_bound_factor, 3.0);
        } else {
            panic!("expected adaptive");
        }
    }

    #[test]
    fn explicit_threads_beat_auto_resolution() {
        let cfg = EngineConfig::lazygraph().with_threads(3);
        assert_eq!(cfg.resolve_threads(16), Ok(3));
        let auto = EngineConfig::lazygraph();
        assert_eq!(auto.threads_per_machine, 0);
        let resolve = |machines| auto.resolve_threads(machines).expect("resolve threads");
        assert!(resolve(1) >= 1);
        // More machines never resolve to more threads each.
        assert!(resolve(1024) >= 1);
        assert!(resolve(1) >= resolve(1024));
    }

    #[test]
    fn block_size_floor_is_one() {
        assert_eq!(EngineConfig::lazygraph().block_size, DEFAULT_BLOCK_SIZE);
        assert_eq!(EngineConfig::lazygraph().with_block_size(0).block_size, 1);
    }

    #[test]
    fn transport_defaults_to_inproc() {
        assert_eq!(EngineConfig::lazygraph().transport, TransportKind::InProc);
        let tcp = EngineConfig::lazygraph().with_transport(TransportKind::Tcp);
        assert_eq!(tcp.transport, TransportKind::Tcp);
    }

    #[test]
    fn hub_fanout_defaults_off_and_builds() {
        assert!(EngineConfig::lazygraph().hub_fanout.is_disabled());
        let tuned = EngineConfig::lazygraph().with_hub_fanout(HubFanoutConfig::all_machines());
        assert!(!tuned.hub_fanout.is_disabled());
    }

    #[test]
    fn engine_names_unique() {
        let names = [
            EngineKind::PowerGraphSync,
            EngineKind::PowerGraphAsync,
            EngineKind::LazyBlockAsync,
            EngineKind::LazyVertexAsync,
            EngineKind::PowerSwitchHybrid,
            EngineKind::DeltaAccum,
        ]
        .map(EngineKind::name);
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
