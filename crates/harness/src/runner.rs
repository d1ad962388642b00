//! Running algorithm suites over scenario batches and collecting
//! measurements.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use wsflow_core::DeploymentAlgorithm;
use wsflow_cost::{network_traffic, Evaluator, Problem};
use wsflow_workload::Scenario;

/// One (algorithm, scenario) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Algorithm name.
    pub algorithm: String,
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// `Texecute` in seconds.
    pub execution: f64,
    /// Time penalty in seconds.
    pub penalty: f64,
    /// Combined cost in seconds.
    pub combined: f64,
    /// Expected inter-server traffic in Mbit.
    pub traffic_mbits: f64,
    /// Algorithm wall-clock runtime in microseconds.
    pub runtime_micros: u128,
}

/// Run every algorithm on one prepared problem.
///
/// Algorithms that reject the instance (e.g. Line–Line on a bus) are
/// skipped silently — the experiment definitions pair algorithms with
/// compatible configurations, so a rejection is a deliberate filter,
/// not an error.
pub fn run_on_problem(
    problem: &Problem,
    algorithms: &[Box<dyn DeploymentAlgorithm>],
    scenario_name: &str,
    seed: u64,
) -> Vec<Record> {
    let mut ev = Evaluator::new(problem);
    let mut records = Vec::with_capacity(algorithms.len());
    for algo in algorithms {
        let start = Instant::now();
        let mapping = match algo.deploy(problem) {
            Ok(m) => m,
            Err(_) => continue,
        };
        let runtime_micros = start.elapsed().as_micros();
        let cost = ev.evaluate(&mapping);
        records.push(Record {
            algorithm: algo.name().to_string(),
            scenario: scenario_name.to_string(),
            seed,
            execution: cost.execution.value(),
            penalty: cost.penalty.value(),
            combined: cost.combined.value(),
            traffic_mbits: network_traffic(problem, &mapping).value(),
            runtime_micros,
        });
    }
    records
}

/// Run the algorithm suite over a batch of scenarios, one
/// [`wsflow_par::parallel_map`] task per scenario, and return the
/// records grouped by scenario, in scenario order, for any
/// `WSFLOW_THREADS`.
///
/// Boxed algorithms are not `Sync`, so each task builds its own suite
/// with `suite` (cheap: the suites are stateless apart from seeds).
pub fn run_batch(
    scenarios: &[Scenario],
    suite: impl Fn() -> Vec<Box<dyn DeploymentAlgorithm>> + Sync,
) -> Vec<Record> {
    wsflow_par::parallel_map(scenarios.len(), |i| {
        let s = &scenarios[i];
        let problem = Problem::new(s.workflow.clone(), s.network.clone())
            .expect("generated scenarios are valid problems");
        run_on_problem(&problem, &suite(), &s.name, s.seed)
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_core::registry::paper_bus_algorithms;
    use wsflow_model::MbitsPerSec;
    use wsflow_workload::{generate_batch, Configuration, ExperimentClass};

    #[test]
    fn records_all_algorithms_on_compatible_config() {
        let class = ExperimentClass::class_c();
        let scenarios = generate_batch(
            Configuration::LineBus(MbitsPerSec(100.0)),
            8,
            3,
            &class,
            1,
            2,
        );
        let records = run_batch(&scenarios, || paper_bus_algorithms(0));
        assert_eq!(records.len(), 2 * paper_bus_algorithms(0).len());
        for r in &records {
            assert!(r.execution > 0.0);
            assert!(r.penalty >= 0.0);
            assert!((r.combined - (r.execution + r.penalty)).abs() < 1e-9);
            assert!(r.traffic_mbits >= 0.0);
        }
    }

    #[test]
    fn incompatible_algorithms_are_skipped() {
        let class = ExperimentClass::class_c();
        let scenarios = generate_batch(
            Configuration::LineBus(MbitsPerSec(100.0)),
            8,
            3,
            &class,
            1,
            1,
        );
        // Line–Line requires a line network; on a bus it produces nothing.
        let records = run_batch(&scenarios, wsflow_core::registry::line_line_variants);
        assert!(records.is_empty());
    }

    #[test]
    fn records_are_identical_for_any_thread_count() {
        let class = ExperimentClass::class_c();
        let scenarios = generate_batch(
            Configuration::LineBus(MbitsPerSec(100.0)),
            10,
            3,
            &class,
            5,
            6,
        );
        let run = |threads| {
            let records = wsflow_par::with_threads(threads, || {
                run_batch(&scenarios, || paper_bus_algorithms(0))
            });
            // Everything but the wall-clock runtime.
            records
                .into_iter()
                .map(|r| Record {
                    runtime_micros: 0,
                    ..r
                })
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 6 * paper_bus_algorithms(0).len());
        assert_eq!(run(3), sequential);
    }

    #[test]
    fn empty_scenario_list_yields_no_records() {
        assert!(run_batch(&[], || paper_bus_algorithms(0)).is_empty());
    }
}
