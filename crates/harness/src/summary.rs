//! Aggregation of raw records into per-algorithm summaries.

use std::collections::BTreeMap;

use crate::runner::Record;
use crate::table::{ms, Table};

/// Per-algorithm aggregate over a set of records.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of records aggregated.
    pub n: usize,
    /// Mean execution time (s).
    pub mean_execution: f64,
    /// Standard deviation of execution time (s).
    pub std_execution: f64,
    /// Mean time penalty (s).
    pub mean_penalty: f64,
    /// Standard deviation of time penalty (s).
    pub std_penalty: f64,
    /// Mean combined cost (s).
    pub mean_combined: f64,
    /// Mean inter-server traffic (Mbit).
    pub mean_traffic: f64,
    /// Mean algorithm runtime (µs).
    pub mean_runtime_micros: f64,
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// Group records by algorithm (preserving first-seen order) and compute
/// aggregates.
pub fn aggregate(records: &[Record]) -> Vec<Aggregate> {
    let mut order: Vec<String> = Vec::new();
    let mut grouped: BTreeMap<String, Vec<&Record>> = BTreeMap::new();
    for r in records {
        if !grouped.contains_key(&r.algorithm) {
            order.push(r.algorithm.clone());
        }
        grouped.entry(r.algorithm.clone()).or_default().push(r);
    }
    order
        .into_iter()
        .map(|name| {
            let rs = &grouped[&name];
            let execs: Vec<f64> = rs.iter().map(|r| r.execution).collect();
            let pens: Vec<f64> = rs.iter().map(|r| r.penalty).collect();
            let combined: Vec<f64> = rs.iter().map(|r| r.combined).collect();
            let traffic: Vec<f64> = rs.iter().map(|r| r.traffic_mbits).collect();
            let runtime: Vec<f64> = rs.iter().map(|r| r.runtime_micros as f64).collect();
            let (me, se) = mean_std(&execs);
            let (mp, sp) = mean_std(&pens);
            let (mc, _) = mean_std(&combined);
            let (mt, _) = mean_std(&traffic);
            let (mr, _) = mean_std(&runtime);
            Aggregate {
                algorithm: name,
                n: rs.len(),
                mean_execution: me,
                std_execution: se,
                mean_penalty: mp,
                std_penalty: sp,
                mean_combined: mc,
                mean_traffic: mt,
                mean_runtime_micros: mr,
            }
        })
        .collect()
}

/// Render aggregates as the standard experiment table: one row per
/// algorithm, the paper's two axes (execution time, time penalty) first.
pub fn aggregates_table(title: impl Into<String>, aggregates: &[Aggregate]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "algorithm",
            "runs",
            "exec_ms",
            "exec_std",
            "penalty_ms",
            "penalty_std",
            "combined_ms",
            "traffic_Mbit",
            "runtime_us",
        ],
    );
    for a in aggregates {
        t.push_row(vec![
            a.algorithm.clone(),
            a.n.to_string(),
            ms(a.mean_execution),
            ms(a.std_execution),
            ms(a.mean_penalty),
            ms(a.std_penalty),
            ms(a.mean_combined),
            format!("{:.4}", a.mean_traffic),
            format!("{:.1}", a.mean_runtime_micros),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(algo: &str, exec: f64, pen: f64) -> Record {
        Record {
            algorithm: algo.into(),
            scenario: "s".into(),
            seed: 0,
            execution: exec,
            penalty: pen,
            combined: exec + pen,
            traffic_mbits: 1.0,
            runtime_micros: 100,
        }
    }

    #[test]
    fn aggregates_group_and_average() {
        let records = vec![rec("A", 1.0, 0.5), rec("B", 2.0, 0.2), rec("A", 3.0, 1.5)];
        let aggs = aggregate(&records);
        assert_eq!(aggs.len(), 2);
        let a = aggs.iter().find(|a| a.algorithm == "A").unwrap();
        assert_eq!(a.n, 2);
        assert!((a.mean_execution - 2.0).abs() < 1e-12);
        assert!((a.mean_penalty - 1.0).abs() < 1e-12);
        assert!((a.std_execution - std::f64::consts::SQRT_2).abs() < 1e-9);
        let b = aggs.iter().find(|a| a.algorithm == "B").unwrap();
        assert_eq!(b.n, 1);
        assert_eq!(b.std_execution, 0.0);
    }

    #[test]
    fn preserves_first_seen_order() {
        let records = vec![rec("Z", 1.0, 0.0), rec("A", 1.0, 0.0), rec("Z", 2.0, 0.0)];
        let aggs = aggregate(&records);
        assert_eq!(aggs[0].algorithm, "Z");
        assert_eq!(aggs[1].algorithm, "A");
    }

    #[test]
    fn table_rendering() {
        let aggs = aggregate(&[rec("A", 0.010, 0.002)]);
        let t = aggregates_table("title", &aggs);
        let s = t.render();
        assert!(s.contains("A"));
        assert!(s.contains("10.000")); // 10 ms
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(aggregate(&[]).is_empty());
    }
}
