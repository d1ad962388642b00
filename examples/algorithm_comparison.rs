//! Compare every deployment strategy — the paper's five bus algorithms,
//! the naive baselines, and the local-search extensions — on one
//! class-C instance, including how far each lands from the global
//! optimum when the instance is small enough to enumerate.
//!
//! Run with: `cargo run --example algorithm_comparison`

use wsflow::core::registry;
use wsflow::core::{
    optimum, AllOnFastest, BestOfRandom, DeploymentAlgorithm, FairLoad, HillClimb, Portfolio,
    RandomMapping, RoundRobin, SimulatedAnnealing,
};
use wsflow::prelude::*;
use wsflow::workload::{generate, Configuration, ExperimentClass};

fn main() {
    let class = ExperimentClass::class_c();
    // Small enough for exhaustive search: 3^10 = 59 049 mappings.
    let scenario = generate(Configuration::LineBus(MbitsPerSec(10.0)), 10, 3, &class, 42);
    println!("scenario: {}", scenario.name);
    let problem = Problem::new(scenario.workflow, scenario.network).expect("valid");
    let (_, opt) = optimum(&problem, 100_000).expect("enumerable");
    println!("global optimum combined cost: {:.3} ms\n", opt * 1e3);

    let mut suite: Vec<Box<dyn DeploymentAlgorithm>> = registry::paper_bus_algorithms(1);
    suite.push(Box::new(RandomMapping::new(1)));
    suite.push(Box::new(BestOfRandom::new(1000, 1)));
    suite.push(Box::new(RoundRobin));
    suite.push(Box::new(AllOnFastest));
    suite.push(Box::new(Portfolio::new(1)));
    suite.push(Box::new(HillClimb::new(FairLoad)));
    suite.push(Box::new(SimulatedAnnealing::new(1)));

    let mut ev = Evaluator::new(&problem);
    println!(
        "{:<20} {:>10} {:>12} {:>12} {:>12}",
        "algorithm", "exec (ms)", "penalty (ms)", "combined", "vs optimum"
    );
    let mut rows: Vec<(String, CostBreakdown)> = Vec::new();
    for algo in &suite {
        let mapping = algo.deploy(&problem).expect("all accept bus instances");
        rows.push((algo.name().to_string(), ev.evaluate(&mapping)));
    }
    rows.sort_by(|a, b| {
        a.1.combined
            .partial_cmp(&b.1.combined)
            .expect("finite costs")
    });
    for (name, cost) in rows {
        println!(
            "{:<20} {:>10.3} {:>12.3} {:>12.3} {:>11.1}%",
            name,
            cost.execution.value() * 1e3,
            cost.penalty.value() * 1e3,
            cost.combined.value() * 1e3,
            (cost.combined.value() / opt - 1.0) * 100.0
        );
    }
}
