//! `lazygraph-cli` argument validation: nothing on the command line is
//! silently ignored. A value-taking option without its value, an unknown
//! option, and the fault-tolerance family without `--multiprocess` each
//! exit 2 with a one-line message — before any graph is loaded or run.

use std::ffi::OsStr;
use std::process::{Command, Output};

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
    // `--threads --pipeline` used to run with auto threads.
    assert_usage_error(&run_with(&["--threads", "--pipeline"]), "--threads: missing value");
    assert_usage_error(&run_with(&["--machines"]), "--machines: missing value");
}

#[test]
fn unknown_option_is_rejected() {
    assert_usage_error(&run_with(&["--thraeds", "4"]), "unknown option --thraeds");
    assert_usage_error(&run_with(&["--kind", "rmat"]), "unknown option --kind");
    assert_usage_error(&["generate", "--engine", "sync"], "unknown option --engine");
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
}

#[test]
fn valid_invocations_still_run() {
    let dir = std::env::temp_dir().join(format!("lazygraph-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let graph = dir.join("g.el");
    let graph = graph.to_str().expect("utf-8 temp path");
    let out = cli(&["generate", "--kind", "rmat", "--vertices", "64", "--out", graph]);
    assert!(out.status.success(), "generate: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli(&[
        "run", "--input", graph, "--algorithm", "sssp", "--machines", "2", "--threads", "1",
        "--pipeline", "--no-adaptive-parts", "--transport", "tcp",
    ]);
    assert!(out.status.success(), "run: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("lazy-block-async"));
    let _ = std::fs::remove_dir_all(&dir);
}
