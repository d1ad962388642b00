//! The paper's motivating example (Fig. 1): a ministry-of-health system
//! that books doctor appointments, registers prescriptions, and
//! notifies social-security agencies — 15 web-service operations over 5
//! servers, i.e. 5¹⁵ ≈ 3·10¹⁰ possible deployments.
//!
//! Run with: `cargo run --example healthcare_rendezvous`

use wsflow::model::BlockSpec;
use wsflow::prelude::*;

/// The rendezvous workflow: request intake, an XOR on doctor
/// availability (book now vs waitlist), the consultation, then an AND
/// block registering prescriptions with two social-security agencies in
/// parallel, and final case closing. 15 operations in total, matching
/// the paper's scale.
fn rendezvous_workflow() -> Workflow {
    let msg = |class: usize| -> Mbits { Mbits([0.00666, 0.057838, 0.163208][class]) };
    let spec = BlockSpec::seq(vec![
        BlockSpec::op("receive_request", MCycles(5.0)),
        BlockSpec::op("validate_patient", MCycles(50.0)),
        BlockSpec::op("query_availability", MCycles(50.0)),
        BlockSpec::Decision {
            kind: DecisionKind::Xor,
            name: "doctor_available".into(),
            branches: vec![
                (
                    Probability::new(0.7),
                    BlockSpec::op("book_slot", MCycles(50.0)),
                ),
                (
                    Probability::new(0.3),
                    BlockSpec::seq(vec![
                        BlockSpec::op("enqueue_waitlist", MCycles(5.0)),
                        BlockSpec::op("suggest_alternative", MCycles(50.0)),
                    ]),
                ),
            ],
        },
        BlockSpec::op("conduct_meeting", MCycles(500.0)),
        BlockSpec::op("record_prescription", MCycles(50.0)),
        BlockSpec::and(
            "register_agencies",
            vec![
                BlockSpec::op("register_ika", MCycles(50.0)),
                BlockSpec::op("register_oga", MCycles(50.0)),
            ],
        ),
        BlockSpec::op("close_case", MCycles(5.0)),
    ]);
    let mut class_cycle = [1usize, 1, 2, 0, 1].iter().cycle().copied();
    spec.lower("rendezvous", &mut move || {
        msg(class_cycle.next().expect("cycle is infinite"))
    })
    .expect("well-formed by construction")
}

fn main() {
    let workflow = rendezvous_workflow();
    println!(
        "rendezvous workflow: {}",
        wsflow::model::WorkflowStats::of(&workflow)
    );
    assert_eq!(workflow.num_ops(), 15, "the paper's 15 operations");

    // The ministry's 5 servers on a 100 Mbps backbone bus.
    let network = wsflow::net::topology::bus(
        "ministry",
        vec![
            Server::with_ghz("athens-1", 3.0),
            Server::with_ghz("athens-2", 2.0),
            Server::with_ghz("thessaloniki", 2.0),
            Server::with_ghz("patras", 1.0),
            Server::with_ghz("ioannina", 1.0),
        ],
        MbitsPerSec(100.0),
    )
    .expect("valid network");

    let problem = Problem::new(workflow, network).expect("valid problem");
    println!(
        "deployment search space: {:.2e} configurations\n",
        problem.search_space()
    );

    let mut ev = Evaluator::new(&problem);
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "algorithm", "exec (ms)", "penalty (ms)", "combined (ms)"
    );
    let algorithms = wsflow::core::registry::paper_bus_algorithms(7);
    for algo in &algorithms {
        let mapping = algo.deploy(&problem).expect("bus algorithms accept this");
        let cost = ev.evaluate(&mapping);
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>12.3}",
            algo.name(),
            cost.execution.value() * 1e3,
            cost.penalty.value() * 1e3,
            cost.combined.value() * 1e3
        );
    }

    // Where did HeavyOps-LargeMsgs put everything?
    let mapping = HeavyOpsLargeMsgs.deploy(&problem).expect("valid");
    println!("\nHeavyOps-LargeMsgs placement:");
    for server in problem.network().server_ids() {
        let ops = mapping.ops_on(server);
        let names: Vec<&str> = ops
            .iter()
            .map(|&o| problem.workflow().op(o).name.as_str())
            .collect();
        println!(
            "  {:<14} {} ops: {}",
            problem.network().server(server).name,
            ops.len(),
            names.join(", ")
        );
    }

    // Check the analytic expectation against 2 000 simulated patients.
    let mc = monte_carlo(&problem, &mapping, SimConfig::ideal(), 2000, 99);
    println!(
        "\nsimulated mean case time: {:.3} ms (±{:.3} CI95), analytic {:.3} ms",
        mc.completion.mean.value() * 1e3,
        mc.completion.ci95_half_width.value() * 1e3,
        ev.execution_time(&mapping).value() * 1e3
    );
}
