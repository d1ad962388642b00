//! Failure injection and degenerate-input behaviour: server loss and
//! redeployment, minimal instances, and rejected invalid inputs.

use wsflow::core::registry::paper_bus_algorithms;
use wsflow::model::ModelError;
use wsflow::net::{Link, NetError, Network};
use wsflow::prelude::*;
use wsflow::workload::{generate, Configuration, ExperimentClass};

/// The paper's motivation for fairness: "whenever additional workflows
/// are deployed, or a server fails, a reasonable load scale-up is still
/// possible." Simulate a server failure by rebuilding the network
/// without it and redeploying.
#[test]
fn server_failure_redeployment() {
    let class = ExperimentClass::class_c();
    let s = generate(Configuration::LineBus(MbitsPerSec(100.0)), 12, 4, &class, 8);
    let problem = Problem::new(s.workflow.clone(), s.network.clone()).expect("valid");
    let before = FairLoad.deploy(&problem).expect("ok");
    assert!(before.is_valid_for(4));

    // Kill the last server: rebuild a 3-server bus with the survivors.
    let survivors: Vec<Server> = s.network.servers()[..3].to_vec();
    let degraded_net =
        wsflow::net::topology::bus("degraded", survivors, MbitsPerSec(100.0)).expect("valid");
    let degraded = Problem::new(s.workflow, degraded_net).expect("valid");
    let after = FairLoad.deploy(&degraded).expect("redeployable");
    assert!(after.is_valid_for(3));
    assert_eq!(after.len(), 12);
    // The surviving servers absorb all the work and stay fair.
    let loads = wsflow::cost::reference::loads(&degraded, &after);
    assert!(loads.iter().all(|l| l.value() > 0.0));
}

#[test]
fn one_operation_workflows_deploy_everywhere() {
    let mut b = WorkflowBuilder::new("tiny");
    b.op("only", MCycles(10.0));
    let net = wsflow::net::topology::bus(
        "n",
        wsflow::net::topology::homogeneous_servers(3, 1.0),
        MbitsPerSec(10.0),
    )
    .expect("valid");
    let problem = Problem::new(b.build().expect("valid"), net).expect("valid");
    for algo in paper_bus_algorithms(0) {
        let m = algo.deploy(&problem).expect("single op deploys");
        assert_eq!(m.len(), 1);
    }
    // The simulator handles it too.
    let m = FairLoad.deploy(&problem).expect("ok");
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let out = simulate(&problem, &m, SimConfig::contended(), &mut rng);
    assert!((out.completion.value() - 0.010).abs() < 1e-12);
}

#[test]
fn equal_ops_and_servers() {
    let class = ExperimentClass::class_c();
    let s = generate(Configuration::LineBus(MbitsPerSec(100.0)), 4, 4, &class, 2);
    let problem = Problem::new(s.workflow, s.network).expect("valid");
    for algo in paper_bus_algorithms(2) {
        let m = algo.deploy(&problem).expect("M == N deploys");
        assert_eq!(m.len(), 4);
    }
}

#[test]
fn invalid_networks_rejected_at_construction() {
    let servers = wsflow::net::topology::homogeneous_servers(2, 1.0);
    // Zero-speed link.
    let err = Network::new(
        "bad",
        servers.clone(),
        vec![Link::new(
            ServerId::new(0),
            ServerId::new(1),
            MbitsPerSec(0.0),
        )],
        TopologyKind::Custom,
    )
    .unwrap_err();
    assert!(matches!(err, NetError::BadSpeed { .. }));
    // Zero-power server.
    let err = Network::new(
        "bad",
        vec![Server::new("dead", wsflow::model::MegaHertz(0.0))],
        vec![],
        TopologyKind::Custom,
    )
    .unwrap_err();
    assert!(matches!(err, NetError::BadPower { .. }));
}

#[test]
fn invalid_workflows_rejected_at_construction() {
    // Self-loop.
    let err = Workflow::new(
        "bad",
        vec![Operation::operational("a", MCycles(1.0))],
        vec![Message::new(OpId::new(0), OpId::new(0), Mbits(0.1))],
    )
    .unwrap_err();
    assert_eq!(err, ModelError::SelfLoop(OpId::new(0)));
}

#[test]
fn disconnected_network_rejected_at_problem_assembly() {
    let mut b = WorkflowBuilder::new("w");
    b.line("o", &[MCycles(1.0), MCycles(2.0)], Mbits(0.1));
    let servers = wsflow::net::topology::homogeneous_servers(3, 1.0);
    let net = Network::new(
        "split",
        servers,
        vec![Link::new(
            ServerId::new(0),
            ServerId::new(1),
            MbitsPerSec(10.0),
        )],
        TopologyKind::Custom,
    )
    .expect("structurally fine");
    assert!(Problem::new(b.build().expect("valid"), net).is_err());
}

#[test]
fn exhaustive_refuses_oversized_spaces() {
    let class = ExperimentClass::class_c();
    let s = generate(Configuration::LineBus(MbitsPerSec(100.0)), 19, 5, &class, 1);
    let problem = Problem::new(s.workflow, s.network).expect("valid");
    // 5^19 ≈ 1.9e13 — far beyond the default limit.
    assert!(Exhaustive::new().deploy(&problem).is_err());
}

#[test]
fn contended_simulation_is_bounded_by_serial_execution() {
    // Sanity bound: with FIFO servers and a serialised bus, completion
    // can never exceed total processing plus total transfer time.
    let class = ExperimentClass::class_c();
    let s = generate(Configuration::LineBus(MbitsPerSec(1.0)), 10, 3, &class, 13);
    let problem = Problem::new(s.workflow, s.network).expect("valid");
    let mapping = HeavyOpsLargeMsgs.deploy(&problem).expect("ok");
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let out = simulate(&problem, &mapping, SimConfig::contended(), &mut rng);
    let slowest = problem
        .network()
        .servers()
        .iter()
        .map(|sv| sv.power.value())
        .fold(f64::INFINITY, f64::min);
    let total_proc = problem.workflow().total_cycles().value() / slowest;
    let total_comm = problem.workflow().total_message_size().value() / 1.0;
    assert!(out.completion.value() <= total_proc + total_comm + 1e-9);
}
