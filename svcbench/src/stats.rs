//! Percentiles, metric records and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile `q` (in `0..1`) of `samples`, or `None` when
/// fewer than ten samples lie beyond it: a reported percentile must have
/// at least ten samples above its rank, so p50 needs 20 samples and p90
/// needs 100.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "percentile rank must be in [0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median without the ten-beyond rule, for small internal repeat sets
/// (set-up launches, codec repetitions).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// True for a valid metric or workload name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// A metric; panics on a malformed name or a non-finite value,
    /// both of which are bugs in the benchmark.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Self { name, value, unit }
    }
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 0.5), Some(50.0));
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "latency_p50_ms",
            "svc.overhead_p50_ms",
            "core.bb.gen_us",
            "a-1",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/x",
            "quote\"",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metric_rejects_bad_names() {
        Metric::new("bad name", 1.0, "ms");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("latency_p50_ms", 1.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
