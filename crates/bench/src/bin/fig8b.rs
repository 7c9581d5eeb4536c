//! **Figure 8(b)**: coherency exchange time vs communication volume for the
//! two modes. The paper fits `t_a2a = 0.0029·comm + 0.04` (linear) and
//! `t_m2m = −6e−7·comm² + 0.0045·comm + 0.3` (polynomial) and switches
//! dynamically. This binary (1) prints the fitted curves over the paper's
//! measured range, (2) locates the crossover, and (3) sweeps synthetic
//! exchange profiles through the mode chooser to show the decision
//! boundary, including the paper-scale volumes where mirrors-to-master
//! wins.
//!
//! Regenerate: `cargo run -p lazygraph-bench --release --bin fig8b`

use lazygraph_bench::{Args, Table};
use lazygraph_cluster::CostModel;
use lazygraph_engine::{choose_mode, CommMode, VolumeEstimate};

fn main() {
    // The fitted curves need no dataset: the shared options are accepted
    // (`all_experiments` forwards them) and unused.
    Args::parse();
    let cost = CostModel::paper_cluster();
    println!("Figure 8(b): fitted coherency-exchange time vs volume (paper §4.2.2)");
    let mut table = Table::new(&["comm (MB)", "t_a2a (s)", "t_m2m (s)", "faster"]);
    for mb in [0u64, 10, 50, 100, 250, 500, 1000, 2000, 2820, 3000, 3500] {
        let bytes = mb * 1_000_000;
        let (a, m) = (cost.t_a2a(bytes), cost.t_m2m(bytes));
        table.row(vec![
            mb.to_string(),
            format!("{:.4}", a),
            format!("{:.4}", m),
            if a <= m { "a2a" } else { "m2m" }.to_string(),
        ]);
    }
    table.print();

    // Crossover at equal volume (linear scan; the m2m window is bounded:
    // the fitted parabola undercuts the a2a line near 2.8 GB and the
    // bandwidth-limited continuation re-crosses it a little later).
    let mut first_cross = None;
    for mb in 0..6000u64 {
        let bytes = mb * 1_000_000;
        if cost.t_m2m(bytes) < cost.t_a2a(bytes) {
            first_cross = Some(mb);
            break;
        }
    }
    println!(
        "\nEqual-volume crossover: ~{} MB (paper's constants put m2m ahead only\n\
         at multi-GB exchanges; with high replication the a2a volume exceeds\n\
         the m2m volume by ~lambda, moving the crossover much lower):",
        first_cross.map_or("none".to_string(), |m| m.to_string())
    );

    // Decision boundary for realistic volume ratios (a2a/m2m ≈ λ):
    let mut table = Table::new(&["lambda", "m2m vol (MB)", "a2a vol (MB)", "chosen"]);
    for lambda in [2.0f64, 4.0, 6.0, 8.0] {
        for m2m_mb in [1u64, 10, 50, 100, 200, 400, 800] {
            let est = VolumeEstimate {
                a2a_bytes: (m2m_mb as f64 * lambda) as u64 * 1_000_000,
                m2m_bytes: m2m_mb * 1_000_000,
            };
            let chosen = match choose_mode(&cost, est) {
                CommMode::AllToAll => "a2a",
                CommMode::MirrorsToMaster => "m2m",
            };
            table.row(vec![
                format!("{lambda:.0}"),
                m2m_mb.to_string(),
                format!("{:.0}", m2m_mb as f64 * lambda),
                chosen.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "\nShape check: a2a wins at small volumes, m2m wins at large volumes,\n\
         and the switch point drops as the replication factor grows —\n\
         the paper's qualitative claim."
    );
}
