//! The `EngineConfig` wire law a multiprocess launch rests on: the
//! launcher ships the whole configuration to its workers, so decode ∘
//! encode must be the identity on every field.

use proptest::prelude::*;

use lazygraph_cluster::{CostModel, TransportKind};
use lazygraph_engine::{CommModePolicy, EngineConfig, EngineKind, IntervalPolicy};
use lazygraph_net::{NetError, Wire};
use lazygraph_partition::{HubFanoutConfig, PartitionStrategy, SplitterConfig};

/// Every field of a configuration as text, floats as bit patterns.
/// The destructuring is exhaustive on purpose: a field added to
/// `EngineConfig` (or to a sub-config another crate owns) without
/// joining this fingerprint — and so the round-trip law — fails to
/// compile.
fn fingerprint(cfg: &EngineConfig) -> String {
    let EngineConfig {
        engine,
        partition,
        splitter:
            SplitterConfig {
                teps,
                t_extra,
                high_degree_threshold,
                low_degree_threshold,
                max_fraction,
            },
        bidirectional,
        comm_mode,
        interval,
        cost:
            CostModel {
                teps: cost_teps,
                apply_cost,
                barrier_latency,
                async_msg_overhead,
                async_send_cpu,
                latency,
                async_apply_cost,
                async_lock_rtt,
                bandwidth,
            },
        max_iterations,
        delta_suppression,
        record_history,
        hybrid_switch_threshold,
        threads_per_machine,
        block_size,
        delta_buckets,
        delta_tolerance,
        transport,
        hub_fanout: HubFanoutConfig {
            degree_threshold,
            fanout,
        },
    } = cfg;
    let interval_bits = match *interval {
        IntervalPolicy::Adaptive {
            ev_threshold,
            trend_threshold,
            local_bound_factor,
        } => vec![
            ev_threshold.to_bits(),
            trend_threshold.to_bits(),
            local_bound_factor.to_bits(),
        ],
        IntervalPolicy::AlwaysLazy => vec![1],
        IntervalPolicy::NeverLazy => vec![2],
    };
    let float_bits = [
        teps, t_extra, max_fraction, cost_teps, apply_cost, barrier_latency,
        async_msg_overhead, async_send_cpu, latency, async_apply_cost, async_lock_rtt,
        bandwidth, hybrid_switch_threshold, delta_tolerance,
    ]
    .map(|x| x.to_bits());
    format!(
        "{engine:?} {partition:?} {high_degree_threshold:?} {low_degree_threshold:?} \
         {bidirectional} {comm_mode:?} {interval_bits:?} {max_iterations} {delta_suppression} \
         {record_history} {threads_per_machine} {block_size} \
         {delta_buckets} {transport:?} {degree_threshold:?} {fanout} \
         {float_bits:?}"
    )
}

proptest! {
    /// The Wire law a multiprocess launch rests on: decode ∘ encode is
    /// the identity on every field (floats by bit pattern, NaNs
    /// included), and the encoding is a pure function of the value.
    #[test]
    fn engine_config_wire_round_trips(
        tags in (0u8..6, 0u8..5, 0u8..3, 0u8..3, 0u8..2),
        f in proptest::collection::vec(any::<u64>(), 17),
        n in proptest::collection::vec(any::<u32>(), 7),
        b in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let float = |i: usize| f64::from_bits(f[i]);
        let cfg = EngineConfig {
            engine: EngineKind::from_wire(&[tags.0]).expect("tag in range"),
            partition: [
                PartitionStrategy::Random,
                PartitionStrategy::Grid,
                PartitionStrategy::Coordinated,
                PartitionStrategy::Hybrid,
                PartitionStrategy::AdversarialHubs,
            ][tags.1 as usize],
            splitter: SplitterConfig {
                teps: float(0),
                t_extra: float(1),
                high_degree_threshold: b[0].then_some(n[0] as usize),
                low_degree_threshold: b[1].then_some(n[1] as usize),
                max_fraction: float(2),
            },
            bidirectional: b[2],
            comm_mode: CommModePolicy::from_wire(&[tags.2]).expect("tag in range"),
            interval: match tags.3 {
                0 => IntervalPolicy::Adaptive {
                    ev_threshold: float(3),
                    trend_threshold: float(4),
                    local_bound_factor: float(5),
                },
                1 => IntervalPolicy::AlwaysLazy,
                _ => IntervalPolicy::NeverLazy,
            },
            cost: CostModel {
                teps: float(6),
                apply_cost: float(7),
                barrier_latency: float(8),
                async_msg_overhead: float(9),
                async_send_cpu: float(10),
                latency: float(11),
                async_apply_cost: float(12),
                async_lock_rtt: float(13),
                bandwidth: float(14),
            },
            max_iterations: f[15],
            delta_suppression: b[3],
            record_history: b[4],
            hybrid_switch_threshold: float(15),
            threads_per_machine: n[2] as usize,
            block_size: n[3] as usize,
            delta_buckets: n[4] as usize,
            delta_tolerance: float(16),
            transport: if tags.4 == 0 { TransportKind::InProc } else { TransportKind::Tcp },
            hub_fanout: HubFanoutConfig {
                degree_threshold: b[5].then_some(n[5] as usize),
                fanout: n[6] as usize,
            },
        };
        let bytes = cfg.to_wire();
        let back = EngineConfig::from_wire(&bytes).expect("decode");
        prop_assert_eq!(fingerprint(&back), fingerprint(&cfg));
        prop_assert_eq!(back.to_wire(), bytes);
    }
}

/// The bytes of the paper's configuration as the hand-written codec wrote
/// them (recorded at `145e8f4`, before the codec became a field list): 187
/// bytes, and a launcher and a worker built either side of that change
/// read each other's job files. Never re-record to make this pass.
#[test]
fn engine_config_wire_bytes_are_the_hand_written_codecs() {
    let golden = "\
         020200000000d0127341fca9f1d24d62403f00009a9999999999a93f0000000000000000002440ec51b81e85\
         ebb13f000000000000084000000000d012734148afbc9af2d77a3efca9f1d24d62503f691d554d10750f3ff1\
         68e388b5f8d43e2d431cebe2361a3f54e41071732ac93efa7e6abc7493583f0000000065cd9d4140420f0000\
         00000001009a9999999999a93f000000000000000000040000000000001000000000000000fca9f1d24d6250\
         3f00000000000000000000";
    let bytes = EngineConfig::lazygraph().to_wire();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden);
    assert_eq!(bytes.len(), 187);
}

#[test]
fn engine_config_wire_rejects_bad_tags_and_truncation() {
    let bytes = EngineConfig::lazygraph().to_wire();
    for cut in 0..bytes.len() {
        assert!(EngineConfig::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    let mut bad = bytes;
    bad[0] = 6; // no such engine
    assert!(EngineConfig::from_wire(&bad).is_err());
}


/// The 17-field configuration is the whole encoding. What a 20-field
/// launcher would append (three retired `u64` words, 24 bytes) is trailing
/// bytes, not silently dropped; and the two retired `bool` bytes a
/// 19-field launcher writes between `block_size` and `delta_buckets`
/// shift every later field, which no setting of them survives — an error,
/// never a different configuration.
#[test]
fn engine_config_wire_rejects_the_retired_longer_encoding() {
    let cfg = EngineConfig::lazygraph();
    let mut old = cfg.to_wire();
    for word in [0u64, 1500, 16] {
        word.encode(&mut old);
    }
    assert_eq!(
        EngineConfig::from_wire(&old).err(),
        Some(NetError::TrailingBytes { extra: 24 })
    );

    // delta_buckets, delta_tolerance, transport tag, hub threshold, fanout.
    assert!(cfg.hub_fanout.degree_threshold.is_none(), "a `None` is one byte");
    let tail = 8 + 8 + 1 + 1 + 8;
    for (pipeline, adaptive_parts) in [(0, 1), (1, 1), (1, 0), (0, 0)] {
        let mut old = cfg.to_wire();
        let at = old.len() - tail;
        old.splice(at..at, [pipeline, adaptive_parts]);
        let back = EngineConfig::from_wire(&old);
        assert!(back.is_err(), "a 19-field encoding decoded as {back:?}");
    }
}
