//! The Line–Line experiment (§3.2 / Fig. 2's first configuration).
//!
//! Runs the four Line–Line variants (and, for context, the bus-family
//! algorithms, which also accept line networks through the mean-pair
//! communication view) over class-C linear workflows on line networks
//! with per-link speeds drawn from Table 6.

use wsflow_core::registry::{line_line_variants, paper_bus_algorithms};
use wsflow_core::DeploymentAlgorithm;
use wsflow_workload::{generate_batch, Configuration, ExperimentClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::runner::run_batch;
use crate::summary::{aggregate, aggregates_table};

fn suite(seed: u64) -> Vec<Box<dyn DeploymentAlgorithm>> {
    let mut algos = line_line_variants();
    algos.extend(paper_bus_algorithms(seed));
    algos
}

/// Run the Line–Line experiment.
pub fn run(params: &Params) -> ExperimentOutput {
    let class = ExperimentClass::class_c();
    let mut out = ExperimentOutput::new("line_line");
    for &n in &params.server_counts {
        let scenarios = generate_batch(
            Configuration::LineLine,
            params.ops,
            n,
            &class,
            params.base_seed,
            params.seeds,
        );
        let records = run_batch(&scenarios, || suite(params.base_seed));
        let aggs = aggregate(&records);
        out.tables.push(aggregates_table(
            format!(
                "Line–Line, M={}, N={n}, class-C links, {} runs",
                params.ops, params.seeds
            ),
            &aggs,
        ));
        out.records.extend(records);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_nine_algorithms() {
        let params = Params::quick();
        let out = run(&params);
        assert_eq!(out.tables.len(), params.server_counts.len());
        // 4 Line–Line variants + 5 bus-family algorithms.
        assert_eq!(out.tables[0].num_rows(), 9);
    }

    #[test]
    fn line_line_variants_present_in_records() {
        let params = Params::quick();
        let out = run(&params);
        for name in [
            "LineLine",
            "LineLine+Bridges",
            "LineLine-2Way",
            "LineLine-2Way+Bridges",
        ] {
            assert!(
                out.records.iter().any(|r| r.algorithm == name),
                "missing {name}"
            );
        }
    }
}
