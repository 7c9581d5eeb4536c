//! Order statistics, the metric list a run prints, and `/proc` memory reads.

use crate::json::Json;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// gives them (the driver's spread rule), or `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values))
}

/// The metrics of one run, in print order, plus the raw samples behind the
/// medians (kept in the result file so `compare` can show a spread).
#[derive(Default)]
pub struct Metrics {
    pub values: Vec<(String, f64, &'static str)>,
    pub samples: Vec<(String, Vec<f64>)>,
    /// Numbers printed and stored beside the contract's metrics but not
    /// bounded by it: the traffic estimates, which repeat exactly for one
    /// seed (so `compare` checks them) but swing too far from graph to
    /// graph for a bound across seeds to mean anything.
    pub extras: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    /// Records the median of `samples` under `name` and keeps the samples.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.put(name, median(samples), unit);
        self.samples.push((name.to_string(), samples.to_vec()));
    }

    pub fn to_json(&self) -> Json {
        Self::entries_json(&self.values)
    }

    pub fn extras_json(&self) -> Json {
        Self::entries_json(&self.extras)
    }

    fn entries_json(entries: &[(String, f64, &'static str)]) -> Json {
        Json::Obj(
            entries
                .iter()
                .map(|(name, value, unit)| {
                    let entry =
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }

    pub fn samples_json(&self) -> Json {
        Json::Obj(
            self.samples
                .iter()
                .map(|(name, s)| (name.clone(), Json::nums(s)))
                .collect(),
        )
    }
}

/// FNV-1a: the identity of a run's results, so that two runs can be held
/// bitwise equal without keeping both.
pub fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A process's peak resident set (`VmHWM`) in MiB, if it is still alive.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
