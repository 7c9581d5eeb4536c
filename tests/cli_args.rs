//! `lazygraph-cli` argument validation: nothing on the command line is
//! silently ignored. A value-taking option without its value, an unknown
//! option, the fault-tolerance family without `--multiprocess`, a
//! `--failpoint` that could not fire and recovery no run could honour
//! (no `--checkpoint-every`, an engine with no snapshot) each exit 2 with
//! a one-line message —
//! before any graph is loaded or run — and so do a machine count no
//! placement holds and a program parameter the table refuses. What *is*
//! read off the input is its format: a binary graph is recognised by its
//! magic. Every program of the table runs on both routes to the same file.

use std::ffi::OsStr;
use std::process::{Command, Output, Stdio};

fn cli<S: AsRef<OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lazygraph-cli"))
        .args(args)
        .output()
        .expect("spawn lazygraph-cli")
}

/// Asserts a usage error: status 2, nothing run, one line naming `needle`.
fn assert_usage_error<S: AsRef<OsStr> + std::fmt::Debug>(args: &[S], needle: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must fail before running anything");
}

/// An otherwise valid `run` command line plus `extra`.
fn run_with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["run", "--input", "dataset:web-google", "--algorithm", "pagerank"];
    args.extend_from_slice(extra);
    args
}

#[test]
fn value_option_without_a_value_is_rejected() {
    // `--threads --history` used to run with auto threads.
    assert_usage_error(&run_with(&["--threads", "--history"]), "--threads: missing value");
    assert_usage_error(&run_with(&["--machines"]), "--machines: missing value");
}

#[test]
fn unknown_option_is_rejected() {
    assert_usage_error(&run_with(&["--thraeds", "4"]), "unknown option --thraeds");
    assert_usage_error(&run_with(&["--kind", "rmat"]), "unknown option --kind");
    assert_usage_error(&["generate", "--engine", "sync"], "unknown option --engine");
    // The run-time rebalancing options went with the feature: a script that
    // still passes one is told so instead of running unbalanced.
    for (opt, value) in [
        ("--rebalance-every", "2"),
        ("--rebalance-ratio", "1200"),
        ("--rebalance-max-moves", "16"),
    ] {
        let unknown = format!("unknown option {opt}");
        assert_usage_error(&run_with(&[opt, value]), &unknown);
        assert_usage_error(&["info", "--input", "dataset:web-google", opt, value], &unknown);
    }
    // So did the pipelined exchange's two flags — and `--history`, which
    // recorded a trace that nothing printed.
    for flag in ["--pipeline", "--no-adaptive-parts", "--history"] {
        let unknown = format!("unknown option {flag}");
        assert_usage_error(&run_with(&[flag]), &unknown);
        assert_usage_error(&["info", "--input", "dataset:web-google", flag], &unknown);
    }
}

/// A machine count outside `1..=MAX_MACHINES` used to reach the
/// partitioner's assertions in-process (exit 101) and, with
/// `--multiprocess`, run one worker and report "0 workers".
#[test]
fn a_machine_count_no_placement_holds_is_rejected() {
    for count in ["0", "129"] {
        let refused = format!("--machines: {count} is outside 1..=128");
        assert_usage_error(&run_with(&["--machines", count]), &refused);
        assert_usage_error(&run_with(&["--machines", count, "--multiprocess"]), &refused);
        assert_usage_error(&["info", "--input", "dataset:web-google", "--machines", count], &refused);
    }
}

/// The table validates a program's parameter where it enters: `--k 0`
/// used to panic the CLI (multiprocess: every worker), `--tolerance 0`
/// ran towards the iteration cap, and a source past the last vertex
/// "converged" in one iteration having reached nothing.
#[test]
fn a_program_parameter_the_table_refuses_is_rejected() {
    let run = |algorithm: &'static str, extra: &[&'static str]| {
        let mut args = vec!["run", "--input", "dataset:web-google", "--algorithm", algorithm];
        args.extend_from_slice(extra);
        args
    };
    assert_usage_error(&run("kcore", &["--k", "0"]), "--k: 0 is not a core");
    assert_usage_error(&run("kcore", &["--k", "0", "--multiprocess"]), "--k: 0 is not a core");
    for tolerance in ["0", "-1", "nan", "inf"] {
        assert_usage_error(&run("pagerank", &["--tolerance", tolerance]), "--tolerance: ");
    }
    for algorithm in ["sssp", "bfs", "widest"] {
        assert_usage_error(&run(algorithm, &["--source", "99999999"]), "is not in a graph of |V| = ");
    }
    assert_usage_error(&run("louvain", &[]), "unknown algorithm louvain (expected pagerank|");
}

/// A pool thread the host refuses used to panic inside a machine thread
/// and abort the process (exit 134). The address-space limit makes the
/// host refuse after a few hundred stacks instead of after tens of
/// thousands of threads.
#[cfg(unix)]
#[test]
fn a_thread_count_the_host_refuses_fails_the_run_with_one_line() {
    let (dir, graph) = generated_rmat("threads", "64");
    for route in ["", "--multiprocess"] {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v 3000000; exec {} run --input {graph} --algorithm pagerank \
                 --machines 2 --threads 100000 {route}",
                env!("CARGO_BIN_EXE_lazygraph-cli")
            ))
            .output()
            .expect("spawn sh");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{route}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{route}: {stderr}");
        assert!(stderr.contains("cannot start a machine's worker pool"), "{route}: {stderr}");
        assert!(!stderr.contains("panicked"), "{route}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--weights` used to `expect` its two numbers and then trip the
/// builder's `lo < hi` assertion.
#[test]
fn a_weight_range_that_is_not_one_is_rejected() {
    for spec in ["abc:1", "5:1", "1:1", "1:", "7", "1:NaN"] {
        assert_usage_error(
            &run_with(&["--weights", spec]),
            &format!("--weights: {spec} is not LO:HI"),
        );
    }
}

#[test]
fn fault_tolerance_options_need_multiprocess() {
    for (opt, value) in [
        ("--checkpoint-every", "2"),
        ("--failpoint", "1:superstep:3"),
        ("--respawn-budget", "1"),
        ("--rejoin-window-ms", "500"),
    ] {
        assert_usage_error(&run_with(&[opt, value]), &format!("{opt} requires --multiprocess"));
    }
    // With `--multiprocess`, a fail point that could not fire is refused:
    // each of these used to run to completion with nothing injected.
    let chaos = |spec, extra: &[&'static str]| {
        let mut args = run_with(&["--multiprocess", "--machines", "2", "--failpoint", spec]);
        args.extend_from_slice(extra);
        args
    };
    let checkpointed = ["--checkpoint-every", "2"];
    for spec in [
        "1:bogus:3", "1:superstep:x", "1:stream:1", "1:stream:1:1", "x:superstep:3", "superstep:3",
        "1:ckpt:2", "1:ckpt:x:1", "1:ckpt:2:1:1", "ckpt:2:1",
    ] {
        assert_usage_error(&chaos(spec, &checkpointed), &format!("--failpoint: cannot parse {spec}"));
    }
    assert_usage_error(&chaos("9:superstep:3", &checkpointed), "rank 9 out of range for 2 machines");
    assert_usage_error(&chaos("1:send:3:1", &[]), "--failpoint requires --checkpoint-every");
    assert_usage_error(&chaos("1:ckpt:2:1", &[]), "--failpoint requires --checkpoint-every");
    // So is recovery with nothing to recover from: without checkpoints no
    // worker is respawned and no link is held for a rejoin. Both used to
    // run to completion and print no `recovery:` line.
    for (opt, value) in [("--rejoin-window-ms", "500"), ("--respawn-budget", "5")] {
        let args = run_with(&["--multiprocess", "--machines", "2", opt, value]);
        assert_usage_error(&args, &format!("{opt} requires --checkpoint-every"));
    }
    // An engine that pumps runs multiprocess but has no snapshot to take:
    // refused by name, before a worker spawns.
    for (engine, name) in [
        ("async", "powergraph-async"),
        ("lazy-vertex", "lazy-vertex-async"),
        ("hybrid", "powerswitch-hybrid"),
    ] {
        let args = run_with(&["--multiprocess", "--engine", engine, "--checkpoint-every", "2"]);
        assert_usage_error(&args, &format!("engine {name} cannot checkpoint"));
    }
    // The same rule at the worker's own entry, for a gang started by hand:
    // it stops before it reads its job.
    let out = Command::new(env!("CARGO_BIN_EXE_lazygraph-worker"))
        .env("LAZYGRAPH_FAILPOINT", "stream:1:1")
        .args(["--job", "no-such-job.bin", "--me", "0", "--out", "no-such-result.bin"])
        .output()
        .expect("spawn lazygraph-worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("LAZYGRAPH_FAILPOINT: cannot parse 'stream:1:1'"), "{stderr}");
}

/// `generate`s a `vertices`-vertex R-MAT into a scratch directory of its
/// own (the caller removes it) and returns the directory and the file.
fn generated_rmat(tag: &str, vertices: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("lazygraph-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("g.el").to_str().expect("utf-8 temp path").to_string();
    let out = cli(&["generate", "--kind", "rmat", "--vertices", vertices, "--seed", "7", "--out", &graph]);
    assert!(out.status.success(), "generate: {}", String::from_utf8_lossy(&out.stderr));
    (dir, graph)
}

#[test]
fn valid_invocations_still_run() {
    let (dir, graph) = generated_rmat("args", "64");
    let graph = graph.as_str();
    let out = cli(&[
        "run", "--input", graph, "--algorithm", "sssp", "--machines", "2", "--threads", "1",
        "--transport", "tcp",
    ]);
    assert!(out.status.success(), "run: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("lazy-block-async"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report nobody reads does not cost the run its output. With stdout's
/// read end closed before the first line (`| head -1` closes it after
/// one), `run` panicked on the broken pipe (status 101) before it wrote
/// `--output`; now it writes the file a read run writes, on both routes.
#[test]
fn a_closed_stdout_neither_panics_nor_loses_the_output() {
    let (dir, graph) = generated_rmat("pipe", "256");
    for route in [&[][..], &["--multiprocess"]] {
        let args = |values: &str| {
            let mut args = vec![
                "run", "--input", &graph, "--algorithm", "pagerank", "--machines", "2", "--threads", "1",
                "--output",
            ];
            args.push(values);
            args.extend_from_slice(route);
            args.into_iter().map(str::to_string).collect::<Vec<_>>()
        };
        let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
        let (read, unread) = (path("read.values"), path("unread.values"));
        let out = cli(&args(&read));
        assert!(out.status.success(), "{route:?}: {}", String::from_utf8_lossy(&out.stderr));

        let mut child = Command::new(env!("CARGO_BIN_EXE_lazygraph-cli"))
            .args(args(&unread))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lazygraph-cli");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for lazygraph-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{route:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{route:?}: {stderr}");
        let written = std::fs::read(&unread).unwrap_or_else(|e| panic!("{route:?}: no --output: {e}"));
        assert_eq!(written, std::fs::read(&read).expect("values"), "{route:?}: --output differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every program of the table through `lazygraph-cli` on both routes: two
/// worker processes must write the file the in-process run writes, and
/// print the same headline.
#[test]
fn every_shipped_program_writes_the_same_file_on_both_routes() {
    let (dir, graph) = generated_rmat("table", "256");
    for algorithm in lazygraph::algorithms::AlgoSpec::CLI_NAMES {
        let run = |route: &[&str]| {
            let values = dir.join(format!("{algorithm}{}.values", route.len()));
            let values = values.to_str().expect("utf-8 temp path");
            let mut args = vec![
                "run", "--input", &graph, "--algorithm", algorithm, "--machines", "2", "--threads", "1",
                "--symmetrize", "--weights", "1:9", "--output", values,
            ];
            args.extend_from_slice(route);
            let out = cli(&args);
            assert!(out.status.success(), "{algorithm} {route:?}: {}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            // Between the route's own report and `wrote …`: the headline.
            let headline: Vec<String> = stdout
                .lines()
                .filter(|l| l.contains(" connected components") || l.contains("-core"))
                .map(str::to_string)
                .collect();
            (std::fs::read(values).expect("values"), headline)
        };
        let inproc = run(&[]);
        // (A text edge list names no vertex count: trailing isolated ones drop.)
        assert!(inproc.0.iter().filter(|&&b| b == b'\n').count() > 200, "{algorithm}: a line per vertex");
        assert_eq!(inproc.1.len(), usize::from(matches!(algorithm, "cc" | "kcore")), "{algorithm}");
        assert_eq!(run(&["--multiprocess"]), inproc, "{algorithm}: --multiprocess differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--input` recognises the binary format by its magic, not its name:
/// one generated graph, saved as text and as `.lzg` (and the binary again
/// under a name that says nothing), loads to the same edges — `info`
/// counts the same and a run writes the same bytes. (`info`'s `symmetric:`
/// line may differ: the binary format carries the flag, text cannot.)
#[test]
fn text_and_binary_inputs_of_one_graph_give_the_same_output() {
    let dir = std::env::temp_dir().join(format!("lazygraph-cli-lzg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    // A road lattice: every vertex has an edge, so the text file (which
    // has no vertex count of its own) names the same vertex set.
    for out in ["g.el", "g.lzg"] {
        let out = cli(&["generate", "--kind", "road", "--vertices", "400", "--seed", "7", "--out", &path(out)]);
        assert!(out.status.success(), "generate: {}", String::from_utf8_lossy(&out.stderr));
    }
    let binary = std::fs::read(path("g.lzg")).expect("read");
    assert!(binary.starts_with(b"LZGRAPH1"), "`.lzg` must select the binary format");
    std::fs::write(path("renamed.graph"), &binary).expect("write");

    let mut outputs = Vec::new();
    for input in ["g.el", "g.lzg", "renamed.graph"] {
        let info = cli(&["info", "--input", &path(input), "--machines", "2"]);
        assert!(info.status.success(), "info {input}: {}", String::from_utf8_lossy(&info.stderr));
        let values = path(&format!("{input}.values"));
        let run = cli(&[
            "run", "--input", &path(input), "--algorithm", "sssp", "--machines", "2", "--threads", "1",
            "--output", &values,
        ]);
        assert!(run.status.success(), "run {input}: {}", String::from_utf8_lossy(&run.stderr));
        let info = String::from_utf8_lossy(&info.stdout).into_owned();
        let counts = (info_figure(&info, "vertices:"), info_figure(&info, "edges:"));
        outputs.push((counts, std::fs::read(&values).expect("values")));
    }
    assert_eq!(outputs[0].0 .0, 400.0);
    assert!(outputs[0].1.len() > 400, "SSSP wrote a line per vertex");
    for (input, got) in ["g.lzg", "renamed.graph"].iter().zip(&outputs[1..]) {
        assert_eq!(got.0, outputs[0].0, "info of {input} differs from the text input's");
        assert_eq!(got.1, outputs[0].1, "--output of {input} differs from the text input's");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The figure after `label` on the `info` line that starts with it.
fn info_figure(stdout: &str, label: &str) -> f64 {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{stdout}"));
    let figure = line.split_whitespace().next().expect("a figure after the label");
    figure.parse().unwrap_or_else(|_| panic!("`{label}` figure {figure}"))
}

/// `info` places the graph the way `run` would, hub fan-out included: on
/// a skewed R-MAT with every hub piled on machine 0, fanning the hubs out
/// buys a flatter edge load with more replicas — and both show.
#[test]
fn info_honours_hub_fanout() {
    let (dir, graph) = generated_rmat("info", "4096");
    let graph = graph.as_str();
    let info = |extra: &[&str]| {
        let mut args =
            vec!["info", "--input", graph, "--machines", "4", "--partition", "adversarial-hubs"];
        args.extend_from_slice(extra);
        let out = cli(&args);
        assert!(out.status.success(), "info: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (info_figure(&stdout, "lambda:"), info_figure(&stdout, "edge load (max/mean):"))
    };
    let (plain_lambda, plain_load) = info(&[]);
    let (fanned_lambda, fanned_load) = info(&["--hub-fanout", "4"]);
    assert!(fanned_lambda > plain_lambda, "lambda {plain_lambda} -> {fanned_lambda}");
    assert!(fanned_load < plain_load, "edge load {plain_load} -> {fanned_load}");
    let _ = std::fs::remove_dir_all(&dir);
}
