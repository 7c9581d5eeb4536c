//! Fixed-size probes of the layers under the engines: the batch codec
//! (`net.*`) and one exchange / collective round (`cluster.*`). They time
//! the same public calls the engines make, at the sizes the workloads hit
//! (PageRank coherency batches are tens of thousands of `(local id,
//! f64 delta)` items), so a codec or mesh change shows here before it
//! shows in `*_wall_s` on `pr-social-tcp`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lazygraph_cluster::{
    build_endpoints, decode_batch_raw, encode_batch, run_machines, Batch, Collective, Endpoint,
    NetStats, OutboxSet, Phase, TransportKind,
};
use lazygraph_net::FrameKind;

use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use crate::MACHINES;

/// What the lazy engine ships per vertex: local id + `f64` delta.
type Item = (u32, f64);
const ITEM_EST_BYTES: usize = 12;
const CODEC_ITEMS: usize = 64 * 1024;
const CODEC_REPS: usize = 40;
const EXCHANGE_ITEMS_PER_PEER: usize = 16 * 1024;
const EXCHANGE_ROUNDS: usize = 60;
const COLLECTIVE_ROUNDS: usize = 2000;

pub fn probe(tr: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
    let (mb_s, _) = tr.span("net.encode_batch+decode_batch_raw", codec);
    out.put("net.encode_mb_s", mb_s.0, "MB/s");
    out.put("net.decode_mb_s", mb_s.1, "MB/s");

    for (name, kind) in [
        ("cluster.exchange_inproc_us", TransportKind::InProc),
        ("cluster.exchange_tcp_us", TransportKind::Tcp),
    ] {
        let (us, _) = tr.span(name, || exchange_round_us(kind));
        out.put(name, us?, "us");
    }

    let shared = Arc::new(Collective::new(MACHINES));
    let (us, _) = tr.span("cluster.allreduce_shared_us", || {
        collective_round_us(
            (0..MACHINES).map(|_| shared.clone()).collect(),
            |c, me, stats| c.sum_u64(me, me as u64, stats).map(|_| ()),
        )
    });
    out.put("cluster.allreduce_shared_us", us?, "us");
    let (us, _) = tr.span("cluster.barrier_us", || {
        collective_round_us(
            (0..MACHINES).map(|_| shared.clone()).collect(),
            |c, me, stats| c.barrier(me, stats),
        )
    });
    out.put("cluster.barrier_us", us?, "us");

    // The control mesh of a multiprocess run: one collective per worker
    // over framed loopback TCP.
    let stats = Arc::new(NetStats::new());
    let control = build_endpoints::<u8>(TransportKind::Tcp, MACHINES, &stats)
        .map_err(|e| format!("control mesh: {e}"))?;
    let (us, _) = tr.span("cluster.allreduce_mesh_us", || {
        let colls = control
            .into_iter()
            .map(|ep| Arc::new(Collective::mesh(ep)))
            .collect();
        collective_round_us(colls, |c, me, stats| {
            c.sum_u64(me, me as u64, stats).map(|_| ())
        })
    });
    out.put("cluster.allreduce_mesh_us", us?, "us");
    Ok(())
}

/// `(encode, decode)` throughput in MB/s of frame payload.
fn codec() -> (f64, f64) {
    let batch = Batch {
        from: 0,
        sent_at: 0.0,
        round: 0,
        last: true,
        kind: FrameKind::Data,
        items: (0..CODEC_ITEMS)
            .map(|i| (i as u32, i as f64 * 0.5))
            .collect::<Vec<Item>>(),
        raw: None,
    };
    let mut payloads = Vec::with_capacity(CODEC_REPS);
    let started = Instant::now();
    for _ in 0..CODEC_REPS {
        payloads.push(encode_batch(black_box(&batch)));
    }
    let encode_s = started.elapsed().as_secs_f64();
    let bytes: usize = payloads.iter().map(Vec::len).sum();

    let started = Instant::now();
    for payload in payloads {
        let mut decoded: Batch<Item> = decode_batch_raw(payload).expect("own encoding decodes");
        decoded.make_items().expect("own encoding decodes");
        assert_eq!(black_box(&decoded).items.len(), CODEC_ITEMS);
    }
    let decode_s = started.elapsed().as_secs_f64();
    (bytes as f64 / 1e6 / encode_s, bytes as f64 / 1e6 / decode_s)
}

/// Median wall time of one `Endpoint::exchange` round on machine 0,
/// after the first rounds have filled the buffer pools.
fn exchange_round_us(kind: TransportKind) -> Result<f64, String> {
    let stats = Arc::new(NetStats::new());
    let eps: Vec<Endpoint<Item>> = build_endpoints(kind, MACHINES, &stats)
        .map_err(|e| format!("{} mesh: {e}", kind.name()))?;
    let per_machine = run_machines(eps, |mut ep| {
        let mut outboxes: OutboxSet<Item> = OutboxSet::new(MACHINES);
        let mut rounds = Vec::with_capacity(EXCHANGE_ROUNDS);
        for round in 0..EXCHANGE_ROUNDS {
            for dst in (0..MACHINES).filter(|&d| d != ep.me()) {
                for i in 0..EXCHANGE_ITEMS_PER_PEER {
                    outboxes.push(dst, (i as u32, round as f64));
                }
            }
            let started = Instant::now();
            let got = ep
                .exchange(&mut outboxes, 0.0, Phase::Coherency, ITEM_EST_BYTES, &stats)
                .map_err(|e| e.to_string())?;
            rounds.push(started.elapsed().as_secs_f64() * 1e6);
            for batch in got {
                if batch.item_count() != EXCHANGE_ITEMS_PER_PEER {
                    return Err(format!("exchange delivered {} items", batch.item_count()));
                }
                ep.recycle(batch);
            }
        }
        Ok(rounds)
    });
    let rounds: Result<Vec<Vec<f64>>, String> = per_machine.into_iter().collect();
    Ok(median(&rounds?[0][EXCHANGE_ROUNDS / 4..]))
}

/// Mean wall time per collective round, all machines in lockstep.
fn collective_round_us(
    colls: Vec<Arc<Collective>>,
    round: impl Fn(&Collective, usize, &NetStats) -> Result<(), lazygraph_cluster::CommError> + Sync,
) -> Result<f64, String> {
    let stats = NetStats::new();
    let workers: Vec<(usize, Arc<Collective>)> = colls.into_iter().enumerate().collect();
    let per_machine = run_machines(workers, |(me, coll)| {
        let started = Instant::now();
        for _ in 0..COLLECTIVE_ROUNDS {
            round(&coll, me, &stats).map_err(|e| e.to_string())?;
        }
        Ok(started.elapsed().as_secs_f64() * 1e6 / COLLECTIVE_ROUNDS as f64)
    });
    let per_machine: Result<Vec<f64>, String> = per_machine.into_iter().collect();
    Ok(per_machine?[0])
}
