//! Shared experiment-harness plumbing: dataset suite construction, workload
//! dispatch, argument parsing, and table printing. Each `src/bin/*`
//! executable regenerates one table or figure of the paper (see DESIGN.md's
//! experiment index).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use lazygraph_algorithms::{AlgoSpec, Shipped, Visitor};
use lazygraph_engine::{place, run_on, EngineConfig, RunMetrics};
use lazygraph_graph::{Dataset, Graph, GraphClass};
use lazygraph_partition::{DistributedGraph, MAX_MACHINES};

/// Command-line arguments shared by the harness binaries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// Dataset scale multiplier (1.0 = default harness sizes; the README
    /// documents the ~100–1000× scale-down vs the paper's graphs).
    pub scale: f64,
    /// Simulated machine count (the paper's headline experiments use 48).
    pub machines: usize,
    /// Quick mode: smaller graphs, fewer configurations.
    pub quick: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 0.12,
            machines: 48,
            quick: false,
        }
    }
}

/// What a harness binary's command line asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Command {
    /// Run the figure with these arguments.
    Run(Args),
    /// Print the usage and exit.
    Help,
}

/// The options every harness binary takes, after its name.
const USAGE: &str = "[--scale X] [--machines N] [--quick] [--help]\n  \
    --scale X     dataset scale multiplier, a positive number (default 0.12)\n  \
    --machines N  simulated machine count (default 48)\n  \
    --quick       smaller graphs and fewer configurations (scale at most 0.05)";

impl Args {
    /// Parses `--scale X`, `--machines N`, `--quick` and `--help` from
    /// `args`, the arguments after the program name. Pure: an unknown
    /// argument, a missing value or one out of range is an `Err` naming it.
    fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
        let mut parsed = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    parsed.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--scale needs a positive number")?;
                }
                "--machines" => {
                    parsed.machines = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|m| (1..=MAX_MACHINES).contains(m))
                        .ok_or_else(|| format!("--machines needs an integer in 1..={MAX_MACHINES}"))?;
                }
                "--quick" => {
                    parsed.quick = true;
                    parsed.scale = parsed.scale.min(0.05);
                }
                "--help" => return Ok(Command::Help),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Command::Run(parsed))
    }

    /// [`Self::parse_from`] over the process's arguments. `--help` prints
    /// the usage and exits 0; a bad argument prints what is wrong and the
    /// usage, and exits 2.
    pub fn parse() -> Args {
        let mut argv = std::env::args();
        let path = argv.next().unwrap_or_default();
        let program = path.rsplit('/').next().unwrap_or_default();
        match Args::parse_from(argv) {
            Ok(Command::Run(args)) => args,
            Ok(Command::Help) => {
                println!("usage: {program} {USAGE}");
                std::process::exit(0)
            }
            Err(e) => {
                eprintln!("{program}: {e}\nusage: {program} {USAGE}");
                std::process::exit(2)
            }
        }
    }
}

/// The paper's four evaluation workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KCore,
    PageRank,
    Sssp,
    Cc,
}

impl Workload {
    /// All four, in the paper's figure order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::KCore,
            Workload::PageRank,
            Workload::Sssp,
            Workload::Cc,
        ]
    }

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KCore => "k-core",
            Workload::PageRank => "pagerank",
            Workload::Sssp => "sssp",
            Workload::Cc => "cc",
        }
    }

    /// The k used for k-core per dataset class (road lattices have degree
    /// ~4, so the paper-style k=10 would delete everything).
    pub fn kcore_k(dataset: Dataset) -> u32 {
        match dataset.class() {
            GraphClass::Road => 3,
            _ => 10,
        }
    }

    /// The workload's row of the shipped-program table as the paper runs
    /// it on `dataset`: default tolerance, source 0, [`Self::kcore_k`].
    pub fn spec(self, dataset: Dataset) -> AlgoSpec {
        match self {
            Workload::KCore => AlgoSpec::KCore {
                k: Workload::kcore_k(dataset),
            },
            Workload::PageRank => AlgoSpec::PageRank { tolerance: 1e-3 },
            Workload::Sssp => AlgoSpec::Sssp { source: 0 },
            Workload::Cc => AlgoSpec::Cc,
        }
    }
}

/// Builds the evaluation form of a dataset: symmetrised with deterministic
/// weights (all four workloads run on the same placement-ready graph).
pub fn suite_graph(dataset: Dataset, scale: f64) -> Graph {
    dataset.build_symmetric(scale)
}

/// Partitions once with `cfg`'s strategy/splitter (the paper reuses one
/// coordinated cut across engine comparisons).
#[expect(
    clippy::expect_used,
    reason = "measurement harness: a figure's machine count is a constant of its binary"
)]
pub fn partition_for(graph: &Graph, machines: usize, cfg: &EngineConfig) -> DistributedGraph {
    place(graph, machines, cfg).expect("a machine count the placement holds")
}

/// Runs one workload on a pre-partitioned graph.
pub fn run_workload(
    dg: &DistributedGraph,
    workload: Workload,
    dataset: Dataset,
    cfg: &EngineConfig,
) -> RunMetrics {
    struct Measure<'a>(&'a DistributedGraph, &'a EngineConfig);
    impl Visitor for Measure<'_> {
        type Out = RunMetrics;
        #[expect(
            clippy::expect_used,
            reason = "measurement harness: a dead machine thread invalidates the whole figure, \
                      so abort rather than plot it"
        )]
        fn visit<P: Shipped>(self, program: P) -> RunMetrics {
            run_on(self.0, self.1, &program).expect("cluster run").metrics
        }
    }
    workload.spec(dataset).dispatch(Measure(dg, cfg))
}

/// Convenience: partition + run in one call (used where each engine needs
/// its own splitter configuration). The table's placement rule — CC and
/// k-core dispatch parallel edges both ways — is applied here, for every
/// caller.
pub fn run_full(
    graph: &Graph,
    machines: usize,
    workload: Workload,
    dataset: Dataset,
    cfg: &EngineConfig,
) -> RunMetrics {
    let bidirectional = cfg.bidirectional || workload.spec(dataset).bidirectional();
    let cfg = cfg.clone().with_bidirectional(bidirectional);
    let dg = partition_for(graph, machines, &cfg);
    run_workload(&dg, workload, dataset, &cfg)
}

/// One cell of the Fig. 9/10/11 run matrix: a dataset × workload pair
/// measured under PowerGraph Sync and LazyGraph.
pub struct HeadlineRow {
    pub dataset: Dataset,
    pub workload: Workload,
    pub sync: RunMetrics,
    pub lazy: RunMetrics,
}

/// Runs the paper's headline comparison (all datasets × all four
/// workloads, PowerGraph Sync vs LazyGraph, identical coordinated cut per
/// engine configuration). Figs. 9, 10, and 11 are three views of this one
/// matrix.
pub fn headline_matrix(args: &Args) -> Vec<HeadlineRow> {
    let mut rows = Vec::new();
    let datasets = if args.quick {
        vec![Dataset::RoadNetCaLike, Dataset::ComYoutubeLike]
    } else {
        Dataset::all().to_vec()
    };
    for ds in datasets {
        let g = suite_graph(ds, args.scale);
        for w in Workload::all() {
            let sync = run_full(&g, args.machines, w, ds, &EngineConfig::powergraph_sync());
            let lazy = run_full(&g, args.machines, w, ds, &EngineConfig::lazygraph());
            eprintln!(
                "  ran {} / {}: sync {:.3}s vs lazy {:.3}s",
                ds.name(),
                w.name(),
                sync.sim_time,
                lazy.sim_time
            );
            rows.push(HeadlineRow {
                dataset: ds,
                workload: w,
                sync,
                lazy,
            });
        }
    }
    rows
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                s.push_str(&format!("{cell:>w$}  "));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a ratio as `x.xx×`.
pub fn speedup(baseline: f64, ours: f64) -> String {
    if ours <= 0.0 {
        return "-".into();
    }
    format!("{:.2}x", baseline / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        Args::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn arguments_parse_in_order() {
        assert_eq!(parse(&[]), Ok(Command::Run(Args::default())));
        let Ok(Command::Run(args)) = parse(&["--scale", "1.0", "--machines", "8"]) else {
            panic!("a valid command line was refused");
        };
        assert_eq!((args.scale, args.machines, args.quick), (1.0, 8, false));
        // `--quick` caps the scale given before it, not one given after.
        let Ok(Command::Run(capped)) = parse(&["--scale", "1.0", "--quick"]) else {
            panic!("a valid command line was refused");
        };
        assert_eq!((capped.scale, capped.quick), (0.05, true));
        let Ok(Command::Run(after)) = parse(&["--quick", "--scale", "1.0"]) else {
            panic!("a valid command line was refused");
        };
        assert_eq!((after.scale, after.quick), (1.0, true));
    }

    #[test]
    fn help_asks_for_the_usage() {
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
        assert_eq!(parse(&["--machines", "8", "--help"]), Ok(Command::Help));
    }

    #[test]
    fn bad_arguments_are_errors_naming_them() {
        assert_eq!(parse(&["--bogus"]), Err("unknown argument --bogus".into()));
        for bad in [
            &["--scale"][..],
            &["--scale", "big"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "NaN"],
            &["--scale", "inf"],
        ] {
            assert_eq!(parse(bad), Err("--scale needs a positive number".into()), "{bad:?}");
        }
        let too_many = (MAX_MACHINES + 1).to_string();
        for bad in [
            &["--machines"][..],
            &["--machines", "0"],
            &["--machines", "-2"],
            &["--machines", "4.5"],
            &["--machines", &too_many],
        ] {
            let want = format!("--machines needs an integer in 1..={MAX_MACHINES}");
            assert_eq!(parse(bad), Err(want), "{bad:?}");
        }
    }

    #[test]
    fn workload_names_and_k() {
        assert_eq!(Workload::all().len(), 4);
        assert_eq!(Workload::kcore_k(Dataset::RoadUsaLike), 3);
        assert_eq!(Workload::kcore_k(Dataset::TwitterLike), 10);
    }

    #[test]
    fn quick_run_all_workloads() {
        let ds = Dataset::ComYoutubeLike;
        let g = suite_graph(ds, 0.02);
        let cfg = EngineConfig::lazygraph().with_bidirectional(true);
        let dg = partition_for(&g, 4, &cfg);
        for w in Workload::all() {
            let m = run_workload(&dg, w, ds, &cfg);
            assert!(m.converged, "{} did not converge", w.name());
            assert!(m.sim_time > 0.0);
        }
    }

    #[test]
    fn table_prints() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(4.0, 2.0), "2.00x");
        assert_eq!(speedup(1.0, 0.0), "-");
    }
}
