//! `lazybench` — the repository's benchmark: four workloads, lazy engine
//! against the PowerGraph Sync baseline, end-to-end and per-layer, over the
//! in-process, threaded-TCP and multiprocess paths. See `README.md` beside
//! the manifest for what is measured and why.
//!
//! ```text
//! lazybench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! lazybench --all [--runs N] [--seed N] [--seconds S] [--trace 0|1] --out DIR
//! lazybench compare <A.json> <B.json> [--bench BENCHMARK.json]
//! ```

mod compare;
mod json;
mod layers;
mod mp;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use stats::Metrics;
use trace::Tracer;
use workloads::{Verdict, Workload, WORKLOADS};

/// Machines in every run; each runs one thread.
pub const MACHINES: usize = 4;
/// Measuring time of an untraced pass when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 13.0;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

/// A directory for the files a run writes (edge list, CLI output, the
/// launcher's job file and checkpoints), inside the checkout, removed when
/// the run ends.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let dir = std::path::absolute(format!(".bench_tmp/lazybench-{}", std::process::id()))
            .map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too, once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lazybench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n  \
         lazybench --all [--runs N] [--seed N] [--seconds S] [--trace 0|1] --out DIR\n  \
         lazybench compare <A.json> <B.json> [--bench BENCHMARK.json]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs; `--all` and a bare `--trace` are flags.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String]) -> Option<Args> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg.strip_prefix("--")?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            pairs.push((key.to_string(), value));
        }
        Some(Args { pairs })
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key)?.1.as_deref()
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

fn opts_from(args: &Args) -> Result<Opts, String> {
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        seed: args.number("seed", 7)?,
        seconds,
        trace: args.has("trace") && args.number("trace", 1u8)? != 0,
        out: args.value("out").map(PathBuf::from),
    })
}

/// The commit measured, when the checkout is a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.to_string(),
    }
}

/// Fails when the metrics a pass printed are not exactly the ones
/// `BENCHMARK.json` declares for it, so the two cannot drift apart.
fn check_against_contract(out: &Metrics, trace: bool) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let contract = Json::parse(&text)?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut declared: Vec<(&str, &str)> = contract
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let mut printed: Vec<(&str, &str)> = out
        .values
        .iter()
        .map(|(name, _, unit)| (name.as_str(), *unit))
        .collect();
    declared.sort_unstable();
    printed.sort_unstable();
    if declared != printed {
        let only = |a: &[(&str, &str)], b: &[(&str, &str)]| {
            a.iter()
                .filter(|m| !b.contains(m))
                .map(|m| format!("{} [{}]", m.0, m.1))
                .collect::<Vec<_>>()
        };
        return Err(format!(
            "metrics differ from BENCHMARK.json {section}: only printed {:?}, only declared {:?}",
            only(&printed, &declared),
            only(&declared, &printed)
        ));
    }
    Ok(())
}

fn run_one(w: &Workload, opts: &Opts) -> ExitCode {
    let mut tracer = Tracer::new(opts.trace);
    let mut out = Metrics::default();
    let mut verdict = Verdict::default();
    let root = tracer.begin(w.name);
    let outcome = workloads::run_workload(w, opts, &mut tracer, &mut out, &mut verdict);
    tracer.end(root);
    if let Err(e) = outcome.and_then(|()| check_against_contract(&out, opts.trace)) {
        eprintln!("lazybench: {}: {e}", w.name);
        return ExitCode::FAILURE;
    }

    for (name, value, unit) in out.values.iter().chain(&out.extras) {
        println!("{} {name} {value} {unit}", w.name);
    }
    println!(
        "{} fail_frac {} ratio",
        w.name,
        verdict.failed as f64 / verdict.attempted.max(1) as f64
    );
    let result = [
        ("correct", Json::Bool(verdict.failed == 0)),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("metrics", out.to_json()),
    ];

    if let Some(dir) = &opts.out {
        let host = Json::obj([
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("git_rev", Json::Str(git_rev())),
        ]);
        let mut doc = vec![
            ("workload", Json::str(w.name)),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("trace", Json::Bool(opts.trace)),
            ("host", host),
            ("samples", out.samples_json()),
            ("extras", out.extras_json()),
        ];
        doc.extend(result.clone());
        let doc = Json::Obj(doc.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        let run = format!("{}-{}", w.name, opts.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(result_file(w.name, opts)), doc.render() + "\n"))
            .and_then(|()| match opts.trace {
                true => tracer.write_chrome(&dir.join(format!("{run}.trace.json")), &run),
                false => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("lazybench: writing results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // Last line of stdout: the result the driver reads.
    println!("{}", Json::obj(result).render());
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_file(workload: &str, opts: &Opts) -> String {
    let pass = if opts.trace { "layers" } else { "e2e" };
    format!("{workload}-{}.{pass}.json", opts.seed)
}

/// Every workload, each pass in a process of its own (so peak memory is
/// per workload and runs never overlap), then all results in one file.
fn run_all(args: &Args, opts: &Opts) -> Result<ExitCode, String> {
    let dir = opts.out.as_ref().ok_or("--all needs --out DIR")?;
    let runs: u64 = args.number("runs", 1)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    let mut all_ok = true;
    for seed in opts.seed..opts.seed + runs {
        for w in &WORKLOADS {
            // `--trace 1` adds the traced pass; end-to-end numbers always
            // come from an untraced one.
            for trace in [false, true]
                .into_iter()
                .take(if opts.trace { 2 } else { 1 })
            {
                let pass = Opts {
                    seed,
                    seconds: opts.seconds,
                    trace,
                    out: Some(dir.clone()),
                };
                let status = Command::new(&exe)
                    .args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }, "--out"])
                    .arg(dir)
                    .status()
                    .map_err(|e| format!("starting {}: {e}", exe.display()))?;
                all_ok &= status.success();
                if let Ok(doc) = std::fs::read_to_string(dir.join(result_file(w.name, &pass))) {
                    docs.push(doc.trim_end().to_string());
                }
            }
        }
    }
    let all = dir.join("all.json");
    std::fs::write(&all, format!("[\n{}\n]\n", docs.join(",\n")))
        .map_err(|e| format!("writing {}: {e}", all.display()))?;
    println!("lazybench: wrote {}", all.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let Some(args) = Args::parse(&argv) else {
        return usage();
    };
    let opts = match opts_from(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("lazybench: {e}");
            return usage();
        }
    };
    if args.has("all") {
        return run_all(&args, &opts).unwrap_or_else(|e| {
            eprintln!("lazybench: {e}");
            ExitCode::FAILURE
        });
    }
    match args
        .value("workload")
        .and_then(|name| WORKLOADS.iter().find(|w| w.name == name))
    {
        Some(w) => run_one(w, &opts),
        None => usage(),
    }
}
