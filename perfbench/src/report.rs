//! Run bookkeeping and the result line: operation tally, per-pass
//! records, order statistics and the metric set.

use std::fmt::Write as _;

/// Operations attempted and failed over a whole run. A failure is a
/// returned error, a digest mismatch, a serve error line or a cached body
/// that differs from the live one.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` counts it failed and keeps the message.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Compare a produced digest with the expected one.
pub fn check_digest(what: &str, got: u64, want: Option<u64>) -> Result<(), String> {
    match want {
        Some(w) if w == got => Ok(()),
        Some(w) => Err(format!("{what}: digest {got:#018x}, expected {w:#018x}")),
        None => Err(format!(
            "{what}: no expected digest recorded (got {got:#018x})"
        )),
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// `num / den`, or 0 when nothing was observed.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One timed pass over a workload.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Every set-up operation in order (constructors, builds, daemon
    /// bind, cache root creation): its host time in seconds.
    pub setups: Vec<f64>,
    /// Simulated instructions retired inside the simulation calls.
    pub instructions: u64,
    /// Simulated cycles of every result of the pass.
    pub sim_cycles: u64,
    /// Every operation in order: its round trip in milliseconds, and
    /// whether it was a simulation call (rather than a cache hit).
    pub ops: Vec<(f64, bool)>,
}

impl Pass {
    pub fn op(&mut self, seconds: f64, simulation: bool) {
        self.ops.push((seconds * 1e3, simulation));
    }

    pub fn setup(&mut self, seconds: f64) {
        self.setups.push(seconds);
    }
}

/// Each position of `series(pass)` at its minimum across the passes,
/// over the positions every pass reached.
fn fastest(passes: &[Pass], series: impl Fn(&Pass) -> Vec<f64>) -> Vec<f64> {
    let all: Vec<Vec<f64>> = passes.iter().map(series).collect();
    let len = all.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| all.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The end-to-end metrics of a set of passes, which all performed the
/// same operations in the same order. Timings, set-up included, take each
/// operation at its fastest across the passes: other tenants of a shared
/// host only ever add time, in bursts that hit different operations in
/// different passes, so the per-operation minimum is the steadiest
/// estimate of the program's own cost.
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Metrics {
    let latencies = fastest(passes, |p| p.ops.iter().map(|o| o.0).collect());
    let setups = fastest(passes, |p| p.setups.clone());
    let first = passes.first().cloned().unwrap_or_default();
    let sim_ms: f64 = latencies
        .iter()
        .zip(&first.ops)
        .filter(|(_, o)| o.1)
        .map(|(ms, _)| ms)
        .sum();
    let mut m = Metrics::default();
    m.push("wall_s", latencies.iter().sum::<f64>() * 1e-3, "s");
    m.push(
        "minstr_per_s",
        ratio(first.instructions as f64 * 1e-3, sim_ms),
        "Minstr/s",
    );
    m.push("setup_s", setups.iter().sum(), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m.push("req_p50_ms", median(&latencies), "ms");
    m.push("req_p99_ms", percentile(&latencies, 99.0), "ms");
    m.push("sim_cycles", first.sim_cycles as f64, "cycles");
    m
}

/// Named metric values with units, in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Process high-water resident memory (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn timings_take_each_operation_at_its_fastest() {
        let pass = |ops: [f64; 2], setups: [f64; 2]| {
            let mut p = Pass::default();
            for ms in ops {
                p.op(ms * 1e-3, true);
            }
            for s in setups {
                p.setup(s);
            }
            p
        };
        let m = end_to_end(
            &[
                pass([1.0, 4.0], [0.5, 0.25]),
                pass([2.0, 3.0], [0.125, 1.0]),
            ],
            1.0,
        );
        assert_eq!(m.get("wall_s"), Some(4.0e-3));
        assert_eq!(m.get("setup_s"), Some(0.375));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.op(Ok(()));
        t.op(Err("boom".into()));
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        let line = result_line(&t, &m);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
