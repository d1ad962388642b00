//! Integration tests for the extensions beyond the paper: branch &
//! bound, constrained deployment, multi-workflow deployment, open-loop
//! simulation, Pareto analysis, and the probability-monitoring loop.

use wsflow::core::{
    deploy_joint_fair, deploy_sequential, BranchAndBound, ConstrainedDeploy, ConstrainedError,
    MultiProblem,
};
use wsflow::cost::reference::{texecute, time_penalty};
use wsflow::cost::{pareto_front, ParetoPoint};
use wsflow::prelude::*;
use wsflow::sim::{open_loop, BranchEstimates, OpenLoopConfig};
use wsflow::workload::{generate, linear_workflow, Configuration, ExperimentClass};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn class_c_problem(m: usize, n: usize, bus: f64, seed: u64) -> Problem {
    let class = ExperimentClass::class_c();
    let s = generate(Configuration::LineBus(MbitsPerSec(bus)), m, n, &class, seed);
    Problem::new(s.workflow, s.network).expect("valid")
}

#[test]
fn branch_and_bound_matches_exhaustive_on_generated_instances() {
    for seed in 0..4 {
        let p = class_c_problem(7, 3, 10.0, seed); // 3^7 = 2187
        let (_, opt) = wsflow::core::optimum(&p, 100_000).expect("enumerable");
        let out = BranchAndBound::new().deploy_with_proof(&p);
        assert!(out.proven_optimal, "seed {seed} did not finish");
        assert!(
            (out.cost - opt).abs() < 1e-9,
            "seed {seed}: bnb {} vs exhaustive {opt}",
            out.cost
        );
    }
}

#[test]
fn branch_and_bound_prunes_on_larger_instances() {
    let p = class_c_problem(10, 3, 10.0, 1); // 3^10 = 59 049 leaves
    let out = BranchAndBound::new().deploy_with_proof(&p);
    assert!(out.proven_optimal);
    let full_tree_nodes = (3u64.pow(11) - 1) / 2; // ~88 573
    assert!(
        out.nodes_expanded < full_tree_nodes / 2,
        "expected substantial pruning, got {} nodes",
        out.nodes_expanded
    );
}

#[test]
fn constrained_deployment_respects_bounds_end_to_end() {
    let p = class_c_problem(12, 4, 1.0, 3);
    // HOLM on a 1 Mbps bus trades fairness away; bound the penalty at
    // a level FairLoad can reach.
    let fair_penalty = time_penalty(&p, &FairLoad.deploy(&p).expect("ok"));
    let bound = Seconds(fair_penalty.value() * 2.0 + 1e-6);
    let p = p.with_constraints(UserConstraints::none().with_max_time_penalty(bound));
    let mapping = ConstrainedDeploy::new(HeavyOpsLargeMsgs)
        .deploy_constrained(&p)
        .expect("feasible by construction");
    assert!(time_penalty(&p, &mapping) <= bound);
}

#[test]
fn infeasible_constraints_are_detected_not_silently_violated() {
    let p = class_c_problem(12, 4, 1.0, 3)
        .with_constraints(UserConstraints::none().with_max_execution_time(Seconds(1e-6)));
    match ConstrainedDeploy::new(HeavyOpsLargeMsgs).deploy_constrained(&p) {
        Err(ConstrainedError::Infeasible { violation, .. }) => {
            assert!(violation.value() > 0.0);
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn multi_workflow_joint_budgeting_beats_sequential_at_scale() {
    let class = ExperimentClass::class_c();
    let workflows: Vec<Workflow> = (0..4)
        .map(|i| linear_workflow(format!("w{i}"), 13, &class, 40 + i))
        .collect();
    let network = wsflow::workload::bus_network(4, MbitsPerSec(1000.0), &class, 9);
    let multi = MultiProblem::new(workflows, network).expect("valid");
    let sequential = deploy_sequential(&multi, &FairLoad).expect("ok");
    let joint = deploy_joint_fair(&multi);
    let seq = multi.evaluate(&sequential);
    let jnt = multi.evaluate(&joint);
    assert!(jnt.joint_penalty <= seq.joint_penalty + Seconds(1e-12));
    assert_eq!(jnt.executions.len(), 4);
}

#[test]
fn open_loop_saturation_behaviour() {
    let p = class_c_problem(10, 3, 1000.0, 5);
    let fair = FairLoad.deploy(&p).expect("ok");
    let stacked = Mapping::all_on(p.num_ops(), ServerId::new(0));
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let heavy = OpenLoopConfig::new(120, 200.0);
    let fair_r = open_loop(&p, &fair, heavy, &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let stacked_r = open_loop(&p, &stacked, heavy, &mut rng);
    assert!(
        fair_r.throughput_hz >= stacked_r.throughput_hz * 0.95,
        "fair {} Hz vs stacked {} Hz",
        fair_r.throughput_hz,
        stacked_r.throughput_hz
    );
    assert!(fair_r.sojourn.mean <= stacked_r.sojourn.mean * 1.05);
}

#[test]
fn pareto_front_of_algorithm_suite_is_consistent() {
    let p = class_c_problem(14, 4, 1.0, 11);
    let mut ev = Evaluator::new(&p);
    let points: Vec<ParetoPoint<String>> = wsflow::core::registry::paper_bus_algorithms(11)
        .iter()
        .map(|algo| {
            let m = algo.deploy(&p).expect("ok");
            ParetoPoint::from_cost(&ev.evaluate(&m), algo.name().to_string())
        })
        .collect();
    let total = points.len();
    let front = pareto_front(points.clone());
    assert!(!front.is_empty());
    assert!(front.len() <= total);
    // Nothing on the front is dominated by anything in the full set.
    for f in &front {
        assert!(!points.iter().any(|p| p.dominates(f)));
    }
}

#[test]
fn monitoring_loop_improves_probability_estimates() {
    use wsflow::model::BlockSpec;
    // True split 0.2 / 0.8, assumed uniform.
    let build = |p_left: f64| -> Workflow {
        BlockSpec::Decision {
            kind: DecisionKind::Xor,
            name: "x".into(),
            branches: vec![
                (
                    Probability::new(p_left),
                    BlockSpec::op("cheap", MCycles(10.0)),
                ),
                (
                    Probability::new(1.0 - p_left),
                    BlockSpec::op("dear", MCycles(200.0)),
                ),
            ],
        }
        .lower("w", &mut || Mbits(0.05))
        .expect("well-formed")
    };
    let net = wsflow::net::topology::bus(
        "n",
        wsflow::net::topology::homogeneous_servers(2, 1.0),
        MbitsPerSec(100.0),
    )
    .expect("valid");
    let truth = Problem::new(build(0.2), net.clone()).expect("valid");
    let assumed = Problem::new(build(0.5), net.clone()).expect("valid");
    let mapping = FairLoad.deploy(&assumed).expect("ok");
    let est = BranchEstimates::from_simulation(&truth, &mapping, 2000, 3);
    let estimated = est.apply(truth.workflow());
    let informed = Problem::new(estimated, net).expect("valid");
    let err_assumed =
        (texecute(&assumed, &mapping).value() - texecute(&truth, &mapping).value()).abs();
    let err_informed =
        (texecute(&informed, &mapping).value() - texecute(&truth, &mapping).value()).abs();
    assert!(
        err_informed < err_assumed / 5.0,
        "monitoring should shrink the prediction error: {err_assumed} -> {err_informed}"
    );
}

/// One seeded open-loop run per case, flattened to the bit patterns of
/// `sojourn.mean`, `sojourn.std_dev`, `throughput_hz`, `makespan` and
/// every `utilization` entry.
fn open_loop_golden_cases() -> Vec<(&'static str, Vec<u64>)> {
    fn bits(r: &wsflow::sim::OpenLoopResult) -> Vec<u64> {
        let mut v = vec![
            r.sojourn.mean.value().to_bits(),
            r.sojourn.std_dev.value().to_bits(),
            r.throughput_hz.to_bits(),
            r.makespan.value().to_bits(),
        ];
        v.extend(r.utilization.iter().map(|u| u.to_bits()));
        v
    }
    fn run(p: &Problem, m: &Mapping, cfg: OpenLoopConfig, seed: u64) -> Vec<u64> {
        bits(&open_loop(p, m, cfg, &mut ChaCha8Rng::seed_from_u64(seed)))
    }
    let mut b = WorkflowBuilder::new("w");
    b.line(
        "o",
        &[MCycles(10.0), MCycles(20.0), MCycles(10.0)],
        Mbits(0.1),
    );
    let net = wsflow::net::topology::bus(
        "n",
        wsflow::net::topology::homogeneous_servers(2, 1.0),
        MbitsPerSec(100.0),
    )
    .unwrap();
    let line = Problem::new(b.build().unwrap(), net).unwrap();
    let alternate = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));

    let class_c = class_c_problem(10, 3, 1000.0, 5);
    let fastest = AllOnFastest.deploy(&class_c).expect("ok");
    let slow_bus = class_c_problem(10, 3, 10.0, 5);
    let fair = FairLoad.deploy(&slow_bus).expect("ok");

    let spec = BlockSpec::xor_uniform(
        "x",
        vec![
            BlockSpec::op("l", MCycles(10.0)),
            BlockSpec::op("r", MCycles(30.0)),
        ],
    );
    let net = wsflow::net::topology::bus(
        "n",
        wsflow::net::topology::homogeneous_servers(3, 1.0),
        MbitsPerSec(10.0),
    )
    .unwrap();
    let xor = Problem::new(spec.lower("g", &mut || Mbits(0.5)).unwrap(), net).unwrap();
    let xor_map = Mapping::from_fn(xor.num_ops(), |o| ServerId::new(o.0 % 3));

    let s = generate(
        Configuration::LineLine,
        8,
        4,
        &ExperimentClass::class_c(),
        3,
    );
    let routed = Problem::new(s.workflow, s.network).expect("valid");
    let spread = Mapping::from_fn(routed.num_ops(), |o| ServerId::new(o.0 % 4));

    vec![
        (
            "line_light",
            run(&line, &alternate, OpenLoopConfig::new(20, 0.01), 0),
        ),
        (
            "line_heavy",
            run(&line, &alternate, OpenLoopConfig::new(50, 1000.0), 1),
        ),
        (
            "all_on_fastest",
            run(&class_c, &fastest, OpenLoopConfig::new(120, 200.0), 0),
        ),
        (
            "xor_bus_serial",
            run(
                &xor,
                &xor_map,
                OpenLoopConfig::new(40, 20.0).with_bus_serial(),
                5,
            ),
        ),
        (
            "fair_load_bus_serial",
            run(
                &slow_bus,
                &fair,
                OpenLoopConfig::new(60, 50.0).with_bus_serial(),
                9,
            ),
        ),
        (
            "line_line_routed",
            run(
                &routed,
                &spread,
                OpenLoopConfig::new(40, 20.0).with_bus_serial(),
                11,
            ),
        ),
    ]
}

/// Recorded from the open-loop engine before it was folded into
/// `engine.rs`; the merged engine must reproduce them bit for bit.
const OPEN_LOOP_GOLDEN: &[(&str, &[u64])] = &[
    (
        "line_light",
        &[
            0x3fa5810624dd09c2,
            0x3d241ec4b528e9a9,
            0x3f8f2653531c55ad,
            0x40948bc29df6a472,
            0x3f33ef917cdeef2a,
            0x3f33ef917cdeef28,
        ],
    ),
    (
        "line_heavy",
        &[
            0x3fe72c2c01b71cd1,
            0x3fc2220c5a14ab07,
            0x4048763b1d8ec761,
            0x3ff05a1cac083129,
            0x3fef4fa7d3e9f4fc,
            0x3fef4fa7d3e9f4fa,
        ],
    ),
    (
        "all_on_fastest",
        &[
            0x40289d81cd2dea43,
            0x3ff03d887614a5e2,
            0x4021642c8590b221,
            0x402b999999999988,
            0x3ff0000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "xor_bus_serial",
        &[
            0x3fee711921c85ae3,
            0x3fde291db3eb6296,
            0x402b068b3dbdc53d,
            0x4007ae689904cf5f,
            0x3fcb3de46b4a8d7d,
            0x0000000000000000,
            0x3fb06e7985cb71c7,
        ],
    ),
    (
        "fair_load_bus_serial",
        &[
            0x4005e8b1b60c20a9,
            0x3fe76a5cf634dcf9,
            0x4029ce94db4d9a80,
            0x40129981a3d98e6f,
            0x3fe8c651765efa96,
            0x3fe8c651765efaaf,
            0x3fe4a543e2a47b94,
        ],
    ),
    (
        "line_line_routed",
        &[
            0x3fb4d393cdb0a116,
            0x3f747533d5f21b81,
            0x402f71b51843e331,
            0x40045a814245faec,
            0x3fd41fd00f879ba8,
            0x3fcad5156a0a24e3,
            0x3fc41fd00f879ba3,
            0x3fc41fd00f879ba8,
        ],
    ),
];

#[test]
fn open_loop_reproduces_recorded_bits() {
    let cases = open_loop_golden_cases();
    assert_eq!(cases.len(), OPEN_LOOP_GOLDEN.len());
    for ((name, got), (want_name, want)) in cases.iter().zip(OPEN_LOOP_GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(got.as_slice(), *want, "{name}");
    }
}

fn geo_problem_round_robin() -> (Problem, Mapping) {
    let s = wsflow::workload::geo::geo_instance(12, 6, 3, 7);
    let p = Problem::new(s.workflow, s.network).expect("valid");
    let m = Mapping::from_fn(p.num_ops(), |o| ServerId::new(o.0 % 6));
    (p, m)
}

/// On a geo network the simulator charges the inter-region surcharge
/// the analytic model charges, so the ideal Monte-Carlo mean brackets
/// `Texecute`.
#[test]
fn geo_monte_carlo_matches_analytic_execution_time() {
    let (p, m) = geo_problem_round_robin();
    let analytic = Evaluator::new(&p).execution_time(&m);
    let mc = wsflow::sim::monte_carlo(&p, &m, wsflow::sim::SimConfig::ideal(), 4000, 1);
    assert!(
        mc.completion.ci_contains(analytic),
        "simulated {} ± {} vs analytic {analytic}",
        mc.completion.mean,
        mc.completion.ci95_half_width
    );
}

/// One open-loop instance is one FIFO simulation, bit for bit, on a
/// geo network too.
#[test]
fn geo_single_open_loop_instance_equals_fifo_simulate() {
    let (p, m) = geo_problem_round_robin();
    let fifo = wsflow::sim::SimConfig {
        server_fifo: true,
        bus_serial: false,
    };
    for seed in 0..8 {
        let single = wsflow::sim::simulate(&p, &m, fifo, &mut ChaCha8Rng::seed_from_u64(seed));
        let r = open_loop(
            &p,
            &m,
            OpenLoopConfig::new(1, 1.0),
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        assert_eq!(
            r.sojourn.mean.value().to_bits(),
            single.completion.value().to_bits(),
            "seed {seed}"
        );
        assert_eq!(r.makespan, single.completion);
    }
}
