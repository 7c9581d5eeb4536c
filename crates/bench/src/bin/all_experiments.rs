//! Runs the whole experiment suite (Table 1 + Figs. 8–12) in sequence —
//! the one-command regeneration of the paper's evaluation section.
//!
//! `cargo run -p lazygraph-bench --release --bin all_experiments [--quick]`

use std::process::Command;

fn main() {
    // Answer `--help`, or refuse a bad argument, once, before any figure runs.
    lazygraph_bench::Args::parse();
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    for bin in ["table1", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "ablations"] {
        println!("\n================ {bin} ================\n");
        let status = Command::new(exe_dir.join(bin))
            .args(&forwarded)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    println!("\nAll experiments completed.");
}
