//! Metric collection, order statistics, and the one-line JSON result.

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Failure accounting: `failed` out of `attempted` operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Operations attempted (measurement attempts, or jobs submitted).
    pub attempted: u64,
    /// Operations that failed, by the workload's definition.
    pub failed: u64,
}

impl Accounting {
    /// Adds another tally.
    pub fn add(&mut self, other: Accounting) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one benchmark run produces.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Failure accounting over the run.
    pub accounting: Accounting,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Failed output checks, for the human-readable report.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The result line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.accounting.attempted,
            self.accounting.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            ..Default::default()
        };
        o.accounting = Accounting {
            attempted: 10,
            failed: 1,
        };
        o.push("wall_s", "s", 1.25);
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
