//! The best-of-K estimator, percentiles, and the result line.
//!
//! Host speed on small shared machines drifts by tens of percent in phases
//! lasting seconds, with no runqueue wait or steal to show for it, so raw
//! wall time and CPU time both carry that noise. Each item (a sweep point
//! or a session request by index) is therefore run once per pass over K
//! interleaved passes and keeps its fastest time; metrics are built from
//! those minima.

use hira_engine::json;
use std::collections::BTreeMap;

/// Per-item timings across passes.
#[derive(Debug, Default, Clone)]
pub struct Best {
    samples: Vec<Vec<f64>>,
}

impl Best {
    /// Adds one pass: one timing per item, in item order.
    pub fn add(&mut self, pass: &[f64]) {
        if self.samples.is_empty() {
            self.samples = vec![Vec::new(); pass.len()];
        }
        assert_eq!(
            self.samples.len(),
            pass.len(),
            "every pass times every item"
        );
        for (s, &v) in self.samples.iter_mut().zip(pass) {
            s.push(v);
        }
    }

    /// Each item's fastest time.
    pub fn minima(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    pub fn sum(&self) -> f64 {
        self.minima().iter().sum()
    }

    /// Index of the pass that gave each item its fastest time.
    pub fn argmin(&self) -> Vec<usize> {
        self.samples
            .iter()
            .map(|s| {
                (0..s.len())
                    .min_by(|&a, &b| s[a].total_cmp(&s[b]))
                    .unwrap_or(0)
            })
            .collect()
    }

    /// `(timings above factor × their item's best, all timings)`.
    pub fn slow(&self, factor: f64) -> (usize, usize) {
        let mut slow = 0;
        let mut all = 0;
        for (s, best) in self.samples.iter().zip(self.minima()) {
            all += s.len();
            slow += s.iter().filter(|&&v| v > factor * best).count();
        }
        (slow, all)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (NaN when unreadable).
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no attempts).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metric values by name, as one run measured them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The metric names and units `BENCHMARK.json` lists under `section`.
pub fn declared(benchmark_json: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let v = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get(section)
        .and_then(json::Value::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{section}` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(json::Value::as_str);
            let unit = m.get("unit").and_then(json::Value::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_owned(), u.to_owned())),
                _ => Err(format!("BENCHMARK.json: malformed `{section}` entry")),
            }
        })
        .collect()
}

/// The result line: every declared metric, in declared order. A metric the
/// run did not produce, or a non-finite value, is an error.
pub fn result_line(
    declared: &[(String, String)],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut entries = Vec::new();
    for (name, unit) in declared {
        let v = *metrics
            .get(name.as_str())
            .ok_or(format!("metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        let mut value = String::new();
        json::write_f64(&mut value, v);
        let mut u = String::new();
        json::write_str(&mut u, unit);
        let mut m = String::new();
        json::write_object(&mut m, [("value", value), ("unit", u)]);
        entries.push((name.as_str(), m));
    }
    if let Some(extra) = metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "metric `{extra}` is not declared in BENCHMARK.json"
        ));
    }
    let mut ms = String::new();
    json::write_object(&mut ms, entries);
    let mut out = String::new();
    json::write_object(
        &mut out,
        [
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", ms),
        ],
    );
    Ok(out)
}
