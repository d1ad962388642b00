//! End-to-end pipelines across every crate: generate → validate →
//! deploy → evaluate analytically → cross-check with the simulator →
//! summarise with the harness.

use wsflow::core::registry::paper_bus_algorithms;
use wsflow::cost::reference::{texecute, time_penalty};
use wsflow::harness::{aggregate, run_on_problem};
use wsflow::model::dsl;
use wsflow::prelude::*;
use wsflow::workload::{generate_batch, Configuration, ExperimentClass, GraphClass};

#[test]
fn generate_deploy_evaluate_simulate() {
    let class = ExperimentClass::class_c();
    let scenarios = generate_batch(
        Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(100.0)),
        14,
        4,
        &class,
        11,
        3,
    );
    for s in scenarios {
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let mapping = HeavyOpsLargeMsgs.deploy(&problem).expect("deployable");
        let analytic = texecute(&problem, &mapping);
        let mc = monte_carlo(&problem, &mapping, SimConfig::ideal(), 800, s.seed);
        // Analytic expectation within CI + nesting-approximation margin.
        let margin = mc.completion.ci95_half_width.value() + 0.2 * mc.completion.mean.value();
        assert!(
            (analytic.value() - mc.completion.mean.value()).abs() <= margin,
            "{}: analytic {analytic} vs simulated {} ± {margin}",
            s.name,
            mc.completion.mean
        );
    }
}

#[test]
fn harness_records_match_direct_evaluation() {
    let class = ExperimentClass::class_c();
    let s = &generate_batch(
        Configuration::LineBus(MbitsPerSec(10.0)),
        10,
        3,
        &class,
        21,
        1,
    )[0];
    let problem = Problem::new(s.workflow.clone(), s.network.clone()).expect("valid");
    let algos = paper_bus_algorithms(21);
    let records = run_on_problem(&problem, &algos, &s.name, s.seed);
    assert_eq!(records.len(), algos.len());
    let mut ev = Evaluator::new(&problem);
    for (record, algo) in records.iter().zip(&algos) {
        let mapping = algo.deploy(&problem).expect("deployable");
        let cost = ev.evaluate(&mapping);
        assert!((record.execution - cost.execution.value()).abs() < 1e-12);
        assert!((record.penalty - cost.penalty.value()).abs() < 1e-12);
    }
    let aggs = aggregate(&records);
    assert_eq!(aggs.len(), algos.len());
}

#[test]
fn dsl_round_trip_preserves_deployment_behaviour() {
    // Serialise a generated workflow through the text format; the
    // re-parsed workflow must produce the identical deployment.
    let class = ExperimentClass::class_c();
    let s = &generate_batch(
        Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0)),
        13,
        3,
        &class,
        33,
        1,
    )[0];
    let text = dsl::serialize(&s.workflow);
    let reparsed = dsl::parse(&text).expect("serializer output parses");
    assert_eq!(reparsed, s.workflow);
    let p1 = Problem::new(s.workflow.clone(), s.network.clone()).expect("valid");
    let p2 = Problem::new(reparsed, s.network.clone()).expect("valid");
    let m1 = FairLoadTieResolver2::new(9).deploy(&p1).expect("ok");
    let m2 = FairLoadTieResolver2::new(9).deploy(&p2).expect("ok");
    assert_eq!(m1, m2);
}

#[test]
fn weights_steer_the_optimum() {
    // With execution-only weights the optimum tends toward co-location;
    // with penalty-only weights it must spread load. Verify on a small
    // exhaustive instance with a slow bus.
    let class = ExperimentClass::class_c();
    let s = &generate_batch(
        Configuration::LineBus(MbitsPerSec(1.0)),
        6,
        2,
        &class,
        55,
        1,
    )[0];
    let exec_only = Problem::with_weights(
        s.workflow.clone(),
        s.network.clone(),
        CostWeights::EXECUTION_ONLY,
    )
    .expect("valid");
    let pen_only = Problem::with_weights(
        s.workflow.clone(),
        s.network.clone(),
        CostWeights::PENALTY_ONLY,
    )
    .expect("valid");
    let (m_exec, _) = wsflow::core::optimum(&exec_only, 1_000_000).expect("small");
    let (m_pen, _) = wsflow::core::optimum(&pen_only, 1_000_000).expect("small");
    assert!(
        texecute(&exec_only, &m_exec) <= texecute(&exec_only, &m_pen),
        "execution-weighted optimum must have lower Texecute"
    );
    assert!(
        time_penalty(&pen_only, &m_pen) <= time_penalty(&pen_only, &m_exec),
        "penalty-weighted optimum must be fairer"
    );
}

#[test]
fn constraints_reject_and_accept() {
    let class = ExperimentClass::class_c();
    let s = &generate_batch(
        Configuration::LineBus(MbitsPerSec(100.0)),
        8,
        3,
        &class,
        77,
        1,
    )[0];
    let problem = Problem::new(s.workflow.clone(), s.network.clone()).expect("valid");
    let mapping = FairLoad.deploy(&problem).expect("ok");
    let mut ev = Evaluator::new(&problem);
    let cost = ev.evaluate(&mapping);
    let max_load = wsflow::cost::reference::max_load(&problem, &mapping);

    let loose = UserConstraints::none()
        .with_max_execution_time(cost.execution * 2.0)
        .with_max_time_penalty(Seconds(cost.penalty.value() + 1.0))
        .with_max_server_load(max_load * 2.0);
    assert!(loose.check(&cost, max_load).is_ok());

    let tight = UserConstraints::none().with_max_execution_time(cost.execution * 0.5);
    assert!(tight.check(&cost, max_load).is_err());
}
