//! Figure 7: Random Graph – Bus algorithms, overall performance.
//!
//! Same sweep as Figure 6 but over random-graph workflows; the three
//! §4.2 structures (bushy/lengthy/hybrid) are pooled — Figure 8 splits
//! them back out.

use wsflow_core::registry::paper_bus_algorithms;
use wsflow_model::MbitsPerSec;
use wsflow_workload::{generate_batch, Configuration, ExperimentClass, GraphClass, Scenario};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::runner::run_batch;
use crate::summary::{aggregate, aggregates_table};

/// Generate the graph–bus scenario pool for one bus speed: the seed
/// budget split evenly over the three graph classes.
pub fn graph_scenarios(params: &Params, n: usize, bus: MbitsPerSec) -> Vec<Scenario> {
    let class = ExperimentClass::class_c();
    let per_class = (params.seeds / GraphClass::ALL.len()).max(1);
    let mut scenarios = Vec::new();
    for (i, gc) in GraphClass::ALL.into_iter().enumerate() {
        scenarios.extend(generate_batch(
            Configuration::GraphBus(gc, bus),
            params.ops,
            n,
            &class,
            params.base_seed + (i as u64) * 10_000,
            per_class,
        ));
    }
    scenarios
}

/// Run the Figure-7 experiment.
pub fn run(params: &Params) -> ExperimentOutput {
    let n = *params.server_counts.last().expect("at least one N");
    let mut out = ExperimentOutput::new("fig7");
    for &bus in &params.bus_speeds {
        let scenarios = graph_scenarios(params, n, bus);
        let records = run_batch(&scenarios, || paper_bus_algorithms(params.base_seed));
        let aggs = aggregate(&records);
        out.tables.push(aggregates_table(
            format!(
                "Fig 7 — Graph–Bus (all structures), M={}, N={n}, bus {} Mbps, {} runs",
                params.ops,
                bus.value(),
                scenarios.len()
            ),
            &aggs,
        ));
        out.records.extend(records);
    }
    let pareto = crate::pareto_report::analyze(&out.records);
    out.tables.push(crate::pareto_report::table(
        "Fig 7 — Pareto analysis over all Graph–Bus runs",
        &pareto,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_graph_classes() {
        let params = Params::quick();
        let out = run(&params);
        assert_eq!(out.tables.len(), params.bus_speeds.len() + 1);
        for gc in GraphClass::ALL {
            assert!(
                out.records.iter().any(|r| r.scenario.contains(gc.name())),
                "missing {gc} scenarios"
            );
        }
    }

    #[test]
    fn holm_competitive_on_graphs() {
        // "For almost all configurations, the HeavyOps-LargeMsgs
        // algorithm appears to be a clear winner" in execution time.
        let mut params = Params::quick();
        params.bus_speeds = vec![MbitsPerSec(1.0)];
        params.seeds = 9;
        let out = run(&params);
        let aggs = aggregate(&out.records);
        let holm = aggs
            .iter()
            .find(|a| a.algorithm == "HeavyOps-LargeMsgs")
            .unwrap();
        let fair = aggs.iter().find(|a| a.algorithm == "FairLoad").unwrap();
        assert!(holm.mean_execution <= fair.mean_execution * 1.05);
    }
}
