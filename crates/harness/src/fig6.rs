//! Figure 6: Line–Bus algorithms with 19 operations.
//!
//! The paper plots, per bus capacity, every experiment's
//! (execution time, time penalty) point for each algorithm; closer to
//! the origin is better. This runner sweeps bus speed × server count
//! over class-C linear workflows, emits one summary table per
//! (bus speed, N) cell, and keeps every raw point in
//! [`ExperimentOutput::records`] so the scatter can be re-plotted.

use wsflow_core::registry::paper_bus_algorithms;
use wsflow_workload::{generate_batch, Configuration, ExperimentClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::runner::run_batch;
use crate::summary::{aggregate, aggregates_table};

/// Run the Figure-6 experiment.
pub fn run(params: &Params) -> ExperimentOutput {
    let class = ExperimentClass::class_c();
    let mut out = ExperimentOutput::new("fig6");
    for &bus in &params.bus_speeds {
        for &n in &params.server_counts {
            let scenarios = generate_batch(
                Configuration::LineBus(bus),
                params.ops,
                n,
                &class,
                params.base_seed,
                params.seeds,
            );
            let records = run_batch(&scenarios, || paper_bus_algorithms(params.base_seed));
            let aggs = aggregate(&records);
            out.tables.push(aggregates_table(
                format!(
                    "Fig 6 — Line–Bus, M={}, N={n} (K={:.1}), bus {} Mbps, {} runs",
                    params.ops,
                    params.ops as f64 / n as f64,
                    bus.value(),
                    params.seeds
                ),
                &aggs,
            ));
            out.records.extend(records);
        }
    }
    let pareto = crate::pareto_report::analyze(&out.records);
    out.tables.push(crate::pareto_report::table(
        "Fig 6 — Pareto analysis over all Line–Bus runs",
        &pareto,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_cells() {
        let params = Params::quick();
        let out = run(&params);
        // One table per (bus speed × server count), plus the Pareto
        // summary.
        assert_eq!(
            out.tables.len(),
            params.bus_speeds.len() * params.server_counts.len() + 1
        );
        // Five algorithms × seeds × cells raw records.
        assert_eq!(
            out.records.len(),
            5 * params.seeds * params.bus_speeds.len() * params.server_counts.len()
        );
        for t in &out.tables {
            assert_eq!(t.num_rows(), 5, "five algorithms per table");
        }
    }

    #[test]
    fn holm_wins_execution_time_on_slow_bus() {
        // §4.2's qualitative claim: HeavyOps-LargeMsgs produces the best
        // (or tied-best) execution times for small bus capacities.
        let mut params = Params::quick();
        params.bus_speeds = vec![wsflow_model::MbitsPerSec(1.0)];
        params.server_counts = vec![3];
        params.seeds = 8;
        let out = run(&params);
        let aggs = aggregate(&out.records);
        let holm = aggs
            .iter()
            .find(|a| a.algorithm == "HeavyOps-LargeMsgs")
            .unwrap();
        let fair = aggs.iter().find(|a| a.algorithm == "FairLoad").unwrap();
        assert!(
            holm.mean_execution <= fair.mean_execution,
            "HOLM {} vs FairLoad {}",
            holm.mean_execution,
            fair.mean_execution
        );
    }
}
