//! What the one-loop TCP transport promises by construction (DESIGN.md
//! §10): a machine's own thread moves its sockets, so a mesh starts no
//! thread, and a round larger than every socket buffer still completes,
//! because a machine waiting to write keeps reading.
//!
//! `tests/wire_transport.rs` at the workspace root runs this file too.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lazygraph_cluster::transport::build_tcp_mesh;
use lazygraph_cluster::{Batch, Endpoint, NetStats, OutboxSet, Phase};
use lazygraph_net::{TcpOptions, Wire, WireReader};

const MACHINES: usize = 4;

/// Payload bytes of one batch: far above what loopback socket buffers
/// hold, so no machine can finish writing a round before its peers read.
const HUGE: usize = 32 << 20;

/// The `i`-th item `from` sends `to`, distinct across every pair.
fn item(from: usize, to: usize, i: usize) -> u64 {
    ((from * MACHINES + to) as u64) << 40 | i as u64
}

/// Checks, without materialising it, that `b` carries exactly the items
/// `b.from` sends `to`.
fn assert_items(b: &Batch<u64>, to: usize, count: usize) {
    let raw = b.raw.as_ref().expect("a TCP batch arrives still encoded");
    assert_eq!(raw.count as usize, count, "batch from {} to {to}", b.from);
    let mut r = WireReader::new(&raw.bytes[raw.offset..]);
    for i in 0..count {
        assert_eq!(
            u64::decode(&mut r).unwrap(),
            item(b.from, to, i),
            "item {i} from {} to {to}",
            b.from
        );
    }
    assert!(
        r.finish().is_ok(),
        "batch from {} to {to} has trailing bytes",
        b.from
    );
}

/// Every machine sends every peer a 32 MiB batch in the same round; then,
/// in the next round, machine 0 bursts 32 MiB at machine 1 while machine 1
/// is busy in local work and only later joins the round. Both complete,
/// with every item where it belongs.
#[test]
fn huge_rounds_and_bursts_at_a_busy_peer_complete() {
    let items = HUGE / 8;
    let stats = Arc::new(NetStats::new());
    let eps = build_tcp_mesh::<u64>(MACHINES, &stats, &TcpOptions::default()).unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    for mut ep in eps {
        let (stats, done_tx) = (Arc::clone(&stats), done_tx.clone());
        #[allow(
            clippy::disallowed_methods,
            reason = "detached on purpose: a deadlocked machine must fail the test at the \
                      timeout below, not hang it in a join (an allow, not an expect: the root \
                      package compiles this file too, without this crate's clippy.toml)"
        )]
        std::thread::spawn(move || {
            let me = ep.me();
            let mut ob = OutboxSet::new(MACHINES);
            for dst in (0..MACHINES).filter(|&d| d != me) {
                ob.slot(dst).extend((0..items).map(|i| item(me, dst, i)));
            }
            let got = ep
                .exchange(&mut ob, 0.0, Phase::Coherency, 8, &stats)
                .unwrap();
            assert_eq!(got.len(), MACHINES - 1);
            for b in got {
                assert_items(&b, me, items);
                ep.recycle(b);
            }
            // The burst: machine 0's part of the next round is the whole
            // 32 MiB again, for machine 1 alone; every other batch is empty.
            if me == 0 {
                ob.slot(1).extend((0..items).map(|i| item(0, 1, i)));
            }
            if me == 1 {
                // Local work: nothing reads this machine's sockets.
                std::thread::sleep(Duration::from_millis(300));
            }
            let got = ep
                .exchange(&mut ob, 0.0, Phase::Async, 8, &stats)
                .unwrap();
            for b in got {
                let count = if (b.from, me) == (0, 1) { items } else { 0 };
                assert_items(&b, me, count);
                ep.recycle(b);
            }
            done_tx.send(me).unwrap();
        });
    }
    drop(done_tx);
    let deadline = Instant::now() + Duration::from_secs(120);
    for _ in 0..MACHINES {
        let left = deadline.saturating_duration_since(Instant::now());
        done_rx
            .recv_timeout(left)
            .expect("a machine deadlocked or failed");
    }
}

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it has settled at `want`, or where it stood
/// when two seconds ran out: a joined thread leaves `/proc` a moment
/// after its `join` returns.
fn settled(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = threads();
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs `body` in a process of its own — this test binary again, on just
/// the test `name` — so that no other test's threads are counted.
fn alone(name: &str, body: impl FnOnce()) {
    // The harness prints a test's path without the crate it is in.
    let path = match module_path!().split_once("::") {
        Some((_, module)) => format!("{module}::{name}"),
        None => name.to_string(),
    };
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--exact") && args.contains(&path) {
        return body();
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([path.as_str(), "--exact", "--test-threads=1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{path} alone: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Counts threads before `build_tcp_mesh(4, …)`, after it returns, and
/// during exchanges: the mesh adds none. The machine threads exist before
/// the mesh does, so the only threads that could appear are the
/// transport's.
fn no_transport_threads() {
    let stats = Arc::new(NetStats::new());
    let (seat_txs, seat_rxs): (Vec<_>, Vec<_>) = (0..MACHINES)
        .map(|_| mpsc::channel::<Endpoint<u64>>())
        .unzip();
    let (count_tx, count_rx) = mpsc::channel();
    let machines: Vec<_> = seat_rxs
        .into_iter()
        .map(|seat| {
            let (stats, count_tx) = (Arc::clone(&stats), count_tx.clone());
            #[allow(
                clippy::disallowed_methods,
                reason = "joined below; in a scope, a failed assertion would wait forever on \
                          machines still blocked for their seat"
            )]
            std::thread::spawn(move || {
                let mut ep = seat.recv().unwrap();
                for round in 0..4u64 {
                    let mut ob = OutboxSet::new(MACHINES);
                    for dst in (0..MACHINES).filter(|&d| d != ep.me()) {
                        ob.push(dst, round);
                    }
                    for b in ep
                        .exchange(&mut ob, 0.0, Phase::Coherency, 8, &stats)
                        .unwrap()
                    {
                        ep.recycle(b);
                    }
                    // Counted between rounds, while every peer still needs
                    // this machine's next batch and so is still running.
                    if ep.me() == 0 && round < 3 {
                        count_tx.send(threads()).unwrap();
                    }
                }
            })
        })
        .collect();
    drop(count_tx);
    let before = threads();
    let eps = build_tcp_mesh::<u64>(MACHINES, &stats, &TcpOptions::default()).unwrap();
    assert_eq!(
        settled(before),
        before,
        "build_tcp_mesh left a thread running"
    );
    for (seat, ep) in seat_txs.iter().zip(eps) {
        seat.send(ep).unwrap();
    }
    let during: Vec<usize> = count_rx.iter().collect();
    assert_eq!(
        during,
        vec![before; 3],
        "an exchange ran on threads of its own"
    );
    for m in machines {
        m.join().unwrap();
    }
}

#[test]
fn a_fail_fast_mesh_runs_no_thread() {
    alone("a_fail_fast_mesh_runs_no_thread", || {
        no_transport_threads()
    });
}
