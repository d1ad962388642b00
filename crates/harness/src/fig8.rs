//! Figure 8: Graph–Bus algorithms organised per graph structure.
//!
//! The same measurements as Figure 7, split out per §4.2 workflow shape
//! (bushy 50/50, lengthy 16/84, hybrid 35/65 decision/operational).

use wsflow_core::registry::paper_bus_algorithms;
use wsflow_workload::{ExperimentClass, GraphClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::runner::run_batch;
use crate::summary::{aggregate, aggregates_table};

/// Run the Figure-8 experiment: one summary per (structure, bus speed).
pub fn run(params: &Params) -> ExperimentOutput {
    let _class = ExperimentClass::class_c();
    let n = *params.server_counts.last().expect("at least one N");
    let mut out = ExperimentOutput::new("fig8");
    for gc in GraphClass::ALL {
        for &bus in &params.bus_speeds {
            let scenarios = wsflow_workload::generate_batch(
                wsflow_workload::Configuration::GraphBus(gc, bus),
                params.ops,
                n,
                &ExperimentClass::class_c(),
                params.base_seed,
                params.seeds,
            );
            let records = run_batch(&scenarios, || paper_bus_algorithms(params.base_seed));
            let aggs = aggregate(&records);
            out.tables.push(aggregates_table(
                format!(
                    "Fig 8 — {gc} graphs ({}% decision nodes), M={}, N={n}, bus {} Mbps, {} runs",
                    (gc.decision_ratio() * 100.0).round(),
                    params.ops,
                    bus.value(),
                    params.seeds
                ),
                &aggs,
            ));
            out.records.extend(records);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_table_per_structure_and_speed() {
        let params = Params::quick();
        let out = run(&params);
        assert_eq!(out.tables.len(), 3 * params.bus_speeds.len());
        assert!(out.tables[0].title().contains("bushy"));
        assert!(out.tables.iter().any(|t| t.title().contains("lengthy")));
        assert!(out.tables.iter().any(|t| t.title().contains("hybrid")));
    }
}
