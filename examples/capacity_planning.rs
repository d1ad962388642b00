//! Capacity planning with the extensions: co-deploy several workflows
//! on one pool (the paper's future work), bound the acceptable
//! unfairness with user constraints, and stress-test the result with
//! the open-loop simulator.
//!
//! Run with: `cargo run --example capacity_planning`

use wsflow::core::{
    deploy_joint_fair, deploy_sequential, ConstrainedDeploy, FairLoad, HeavyOpsLargeMsgs,
    MultiProblem,
};
use wsflow::prelude::*;
use wsflow::sim::{open_loop, OpenLoopConfig};
use wsflow::workload::{bus_network, linear_workflow, ExperimentClass};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let class = ExperimentClass::class_c();

    // The ministry now runs three workflows — appointments, billing,
    // reporting — on four shared servers.
    let sizes = [9usize, 13, 17];
    let workflows: Vec<Workflow> = ["appointments", "billing", "reporting"]
        .iter()
        .zip(sizes)
        .enumerate()
        .map(|(i, (name, m))| linear_workflow(*name, m, &class, 100 + i as u64))
        .collect();
    let network = bus_network(4, MbitsPerSec(100.0), &class, 42);
    let multi = MultiProblem::new(workflows.clone(), network.clone()).expect("valid");

    println!("== multi-workflow deployment ==");
    let sequential = deploy_sequential(&multi, &FairLoad).expect("ok");
    let joint = deploy_joint_fair(&multi);
    let seq_cost = multi.evaluate(&sequential);
    let joint_cost = multi.evaluate(&joint);
    println!(
        "sequential FairLoad: joint penalty {:.3} ms  (per-server loads {:?})",
        seq_cost.joint_penalty.value() * 1e3,
        seq_cost
            .joint_loads
            .iter()
            .map(|l| format!("{:.1}", l.value() * 1e3))
            .collect::<Vec<_>>()
    );
    println!(
        "joint budgeting:     joint penalty {:.3} ms  (per-server loads {:?})",
        joint_cost.joint_penalty.value() * 1e3,
        joint_cost
            .joint_loads
            .iter()
            .map(|l| format!("{:.1}", l.value() * 1e3))
            .collect::<Vec<_>>()
    );

    // A single workflow under a fairness SLO: no server may carry more
    // than 10% over what a perfectly fair deployment would give it.
    println!("\n== constrained deployment ==");
    let unconstrained = Problem::new(workflows[0].clone(), network.clone()).expect("valid");
    let fair_max = max_load(
        &unconstrained,
        &FairLoad.deploy(&unconstrained).expect("ok"),
    );
    let bound = Seconds(fair_max.value() * 1.1);
    let problem =
        unconstrained.with_constraints(UserConstraints::none().with_max_server_load(bound));
    match ConstrainedDeploy::new(HeavyOpsLargeMsgs).deploy_constrained(&problem) {
        Ok(mapping) => {
            let max_load = max_load(&problem, &mapping);
            println!(
                "feasible: max server load {:.3} ms (bound {:.3} ms), exec {:.3} ms",
                max_load.value() * 1e3,
                bound.value() * 1e3,
                Evaluator::new(&problem).execution_time(&mapping).value() * 1e3
            );
        }
        Err(e) => println!("constraint repair failed: {e}"),
    }
    // An impossible SLO is detected, not silently violated.
    let impossible = Problem::new(workflows[0].clone(), network.clone())
        .expect("valid")
        .with_constraints(UserConstraints::none().with_max_server_load(Seconds(1e-6)));
    match ConstrainedDeploy::new(HeavyOpsLargeMsgs).deploy_constrained(&impossible) {
        Ok(_) => println!("unexpectedly feasible"),
        Err(e) => println!("1 µs SLO correctly rejected: {e}"),
    }

    // Stress test: how many appointment requests per second can the
    // joint deployment absorb?
    println!("\n== load scale-up (open loop, 300 instances) ==");
    let problem = Problem::new(workflows[0].clone(), network).expect("valid");
    let mapping = FairLoad.deploy(&problem).expect("ok");
    for rate in [5.0, 25.0, 100.0] {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let r = open_loop(&problem, &mapping, OpenLoopConfig::new(300, rate), &mut rng);
        println!(
            "offered {rate:>5.0} req/s: mean sojourn {:>9.3} ms, served {:>6.1} req/s, peak util {:.0}%",
            r.sojourn.mean.value() * 1e3,
            r.throughput_hz,
            r.utilization.iter().copied().fold(0.0, f64::max) * 100.0
        );
    }
}

/// The largest per-server load of `mapping` (what the
/// `max_server_load` constraint bounds).
fn max_load(problem: &Problem, mapping: &Mapping) -> Seconds {
    Evaluator::new(problem)
        .compute_loads(mapping)
        .iter()
        .copied()
        .fold(Seconds::ZERO, Seconds::max)
}
