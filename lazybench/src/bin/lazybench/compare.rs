//! `lazybench compare A.json B.json`: B against its base A, per workload
//! and end-to-end metric, judged by the bounds in `BENCHMARK.json`; the
//! extras (wall times, traffic) are judged by [`EXTRAS`].
//!
//! A and B are what `--all --out` writes as `all.json` (or one result
//! file): any number of runs per workload. A metric's value is the median
//! over a side's runs and its spread the interquartile distance over that
//! median — the driver's own rule — falling back to the repetitions inside
//! the run when a side has a single run.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{median, spread};

/// Counted or simulated, not timed: the same seed must give the same
/// number, whatever `bound` allows across seeds.
const EXACT: [&str; 5] = [
    "lazy_sim_s",
    "sync_sim_s",
    "sim_speedup",
    "lazy_traffic_bytes",
    "sync_traffic_bytes",
];

/// The extras of a result file, with the bound `compare` holds each to.
/// Wall times get the 0.10 the benchmark's issue asked for; on a host whose
/// spread is wider they come out `unresolved`, which is why the contract
/// does not carry them. Traffic only has to repeat per seed.
const EXTRAS: [(&str, &str, Option<f64>); 4] = [
    ("lazy_wall_s", "s", Some(0.10)),
    ("sync_wall_s", "s", Some(0.10)),
    ("lazy_traffic_bytes", "bytes", None),
    ("sync_traffic_bytes", "bytes", None),
];

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// `None`: only has to repeat per seed.
    bound: Option<f64>,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(contract: &Json) -> Result<Vec<Bound>, String> {
    let metrics = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end in the contract")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: Some(
                    m.get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("metric without bound")?,
                ),
            })
        })
        .collect()
}

/// The untraced runs of one side, by workload.
fn runs_by_workload(side: &Json) -> BTreeMap<&str, Vec<&Json>> {
    let docs = match side {
        Json::Arr(docs) => docs.iter().collect(),
        doc => vec![doc],
    };
    let mut by_workload: BTreeMap<&str, Vec<&Json>> = BTreeMap::new();
    for doc in docs {
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        if let Some(name) = doc.get("workload").and_then(Json::as_str) {
            by_workload.entry(name).or_default().push(doc);
        }
    }
    by_workload
}

fn value_of(doc: &Json, metric: &str) -> Option<f64> {
    let from = |section: &str| doc.get(section)?.get(metric)?.get("value")?.as_f64();
    from("metrics").or_else(|| from("extras"))
}

/// `(median, spread)` of `metric` over one side's runs of a workload.
fn summarise(runs: &[&Json], metric: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|doc| value_of(doc, metric))
        .collect();
    if values.is_empty() {
        return None;
    }
    let within_run = || {
        let reps: Vec<f64> = runs[0]
            .get("samples")
            .and_then(|s| s.get(metric))
            .and_then(Json::as_arr)
            .map(|reps| reps.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        spread(&reps)
    };
    let spread = if values.len() > 1 {
        spread(&values)
    } else {
        within_run()
    };
    Some((median(&values), spread))
}

/// Whether every seed both sides ran gave both the same `metric`.
fn same_per_seed(a: &[&Json], b: &[&Json], metric: &str) -> bool {
    let by_seed = |runs: &[&Json]| -> BTreeMap<u64, u64> {
        runs.iter()
            .filter_map(|doc| {
                let seed = doc.get("seed")?.as_f64()? as u64;
                Some((seed, value_of(doc, metric)?.to_bits()))
            })
            .collect()
    };
    let (a, b) = (by_seed(a), by_seed(b));
    a.iter()
        .all(|(seed, bits)| b.get(seed).is_none_or(|other| other == bits))
}

pub fn main(argv: &[String]) -> ExitCode {
    let (mut files, mut contract_path) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.len()) {
            ("--bench", 1..) => contract_path = it.next().cloned().unwrap_or_default(),
            _ => files.push(arg.as_str()),
        }
    }
    let [a_path, b_path] = files[..] else {
        eprintln!("usage: lazybench compare <A.json> <B.json> [--bench BENCHMARK.json]");
        return ExitCode::from(2);
    };
    match run(a_path, b_path, &contract_path) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lazybench compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the table; `Ok(false)` when any row is `worse` or any run failed.
fn run(a_path: &str, b_path: &str, contract_path: &str) -> Result<bool, String> {
    let mut bounds = bounds(&load(contract_path)?)?;
    for (name, unit, bound) in EXTRAS {
        bounds.push(Bound {
            name: name.into(),
            unit: unit.into(),
            lower_is_better: true,
            bound,
        });
    }
    let (a_side, b_side) = (load(a_path)?, load(b_path)?);
    let (a_runs, b_runs) = (runs_by_workload(&a_side), runs_by_workload(&b_side));
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9}  {:>7} {:>6}  verdict  (base: A = {a_path})",
        "workload", "metric", "A", "B", "B/A", "spread", "bound"
    );
    for (workload, a) in &a_runs {
        let Some(b) = b_runs.get(workload) else {
            println!("{workload:<14} only in A");
            continue;
        };
        for side in [a, b] {
            let failed: f64 = side.iter().filter_map(|d| d.get("failed")?.as_f64()).sum();
            if failed > 0.0 {
                println!("{workload:<14} {failed} failed operations: worse");
                clean = false;
            }
        }
        for m in &bounds {
            let (Some((a_mid, a_spread)), Some((b_mid, b_spread))) =
                (summarise(a, &m.name), summarise(b, &m.name))
            else {
                println!(
                    "{workload:<14} {:<20} missing on one side: unresolved",
                    m.name
                );
                continue;
            };
            let worsening = if m.lower_is_better {
                b_mid - a_mid
            } else {
                a_mid - b_mid
            } / a_mid;
            let noise = a_spread.max(b_spread);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let verdict = if EXACT.contains(&m.name.as_str()) && !same_per_seed(a, b, &m.name) {
                "worse (differs for the same seed)"
            } else if worsening > bound {
                "worse"
            } else if noise > bound {
                "unresolved"
            } else {
                "ok"
            };
            clean &= !verdict.starts_with("worse");
            println!(
                "{workload:<14} {:<20} {a_mid:>14.6} {b_mid:>14.6} {:>9.4}  {noise:>7.4} {:>6}  {verdict}  [{}]",
                m.name,
                b_mid / a_mid,
                m.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
                m.unit
            );
        }
    }
    Ok(clean)
}
