//! Property-style tests over randomly composed workflows, networks,
//! and mappings.
//!
//! Each property is exercised over a fixed number of seeded random
//! cases (ChaCha8 streams), so failures are perfectly reproducible:
//! the panic message carries the case seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow::core::registry::paper_bus_algorithms;
use wsflow::cost::reference::texecute;
use wsflow::model::{dsl, recover_structure, BlockSpec, ExecutionProbabilities};
use wsflow::prelude::*;
use wsflow::workload::{generate, Configuration, ExperimentClass, GraphClass};
use wsflow_par::with_threads;

/// Run `f` over `cases` independent seeded RNG streams.
fn for_cases(test_tag: u64, cases: u64, mut f: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..cases {
        let seed = test_tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        f(&mut rng);
    }
}

/// Random nested block spec (depth ≤ 3, a handful of nodes per level).
fn gen_spec(rng: &mut ChaCha8Rng, depth: u32) -> BlockSpec {
    let make_leaf = depth == 0 || rng.gen_range(0u32..3) == 0;
    if make_leaf {
        return BlockSpec::Op {
            name: String::new(), // filled in by `number_names`
            cost: MCycles(rng.gen_range(1u32..=40) as f64 * 2.5),
        };
    }
    if rng.gen_range(0u32..2) == 0 {
        let len = rng.gen_range(1usize..4);
        BlockSpec::Seq((0..len).map(|_| gen_spec(rng, depth - 1)).collect())
    } else {
        let kind = match rng.gen_range(0u32..3) {
            0 => DecisionKind::And,
            1 => DecisionKind::Or,
            _ => DecisionKind::Xor,
        };
        let n = rng.gen_range(2usize..4);
        let p = Probability::new(1.0 / n as f64);
        let branches = (0..n)
            .map(|i| {
                let prob = if i == n - 1 {
                    // Give the last branch the residual so XOR sums to 1.
                    Probability::clamped(1.0 - p.value() * (n - 1) as f64)
                } else {
                    p
                };
                (prob, gen_spec(rng, depth - 1))
            })
            .collect();
        BlockSpec::Decision {
            kind,
            name: String::new(),
            branches,
        }
    }
}

/// Assign unique names throughout a spec.
fn number_names(spec: &mut BlockSpec, next_op: &mut usize, next_block: &mut usize) {
    match spec {
        BlockSpec::Op { name, .. } => {
            *name = format!("o{next_op}");
            *next_op += 1;
        }
        BlockSpec::Seq(items) => {
            for item in items {
                number_names(item, next_op, next_block);
            }
        }
        BlockSpec::Decision { name, branches, .. } => {
            *name = format!("d{next_block}");
            *next_block += 1;
            for (_, b) in branches {
                number_names(b, next_op, next_block);
            }
        }
    }
}

fn lower(mut spec: BlockSpec, msg_seed: u64) -> Workflow {
    let (mut a, mut b) = (0, 0);
    number_names(&mut spec, &mut a, &mut b);
    let mut counter = msg_seed;
    spec.lower("prop", &mut || {
        counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mbits(0.001 + (counter % 1000) as f64 / 5000.0)
    })
    .expect("generated specs lower cleanly")
}

fn random_workflow(rng: &mut ChaCha8Rng) -> Workflow {
    let spec = gen_spec(rng, 3);
    let msg_seed: u64 = rng.gen();
    lower(spec, msg_seed)
}

#[test]
fn lowered_specs_are_always_well_formed() {
    for_cases(0x01, 64, |rng| {
        let w = random_workflow(rng);
        assert!(wsflow::model::is_well_formed(&w));
    });
}

#[test]
fn structure_recovery_is_total_and_exact() {
    for_cases(0x02, 64, |rng| {
        let w = random_workflow(rng);
        let tree = recover_structure(&w).expect("well-formed by construction");
        assert_eq!(tree.node_count(), w.num_ops());
    });
}

#[test]
fn execution_probabilities_in_unit_interval() {
    for_cases(0x03, 64, |rng| {
        let w = random_workflow(rng);
        let probs = ExecutionProbabilities::derive(&w).expect("well-formed");
        for p in &probs.op_prob {
            assert!((0.0..=1.0 + 1e-9).contains(&p.value()));
        }
        // The source and sink always execute.
        let source = w.sources()[0];
        let sink = w.sinks()[0];
        assert!((probs.of_op(source).value() - 1.0).abs() < 1e-9);
        assert!((probs.of_op(sink).value() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn dag_and_block_evaluators_agree() {
    for_cases(0x04, 64, |rng| {
        let w = random_workflow(rng);
        let k = rng.gen_range(1u32..4);
        let tree = recover_structure(&w).expect("well-formed");
        let net = wsflow::net::topology::bus(
            "b",
            wsflow::net::topology::homogeneous_servers(3, 1.0),
            MbitsPerSec(50.0),
        )
        .expect("valid");
        let problem = Problem::new(w, net).expect("valid");
        let mapping = Mapping::from_fn(problem.num_ops(), |o| ServerId::new(o.0 % k.min(3)));
        let dag = texecute(&problem, &mapping);
        let block = wsflow::cost::reference::texecute_block(&problem, &mapping, &tree);
        assert!(
            (dag.value() - block.value()).abs() < 1e-9,
            "dag {dag} vs block {block}"
        );
    });
}

#[test]
fn critical_path_total_equals_texecute() {
    for_cases(0x05, 64, |rng| {
        let w = random_workflow(rng);
        let k = rng.gen_range(1u32..4);
        let net = wsflow::net::topology::bus(
            "b",
            wsflow::net::topology::homogeneous_servers(3, 1.0),
            MbitsPerSec(20.0),
        )
        .expect("valid");
        let problem = Problem::new(w, net).expect("valid");
        let mapping = Mapping::from_fn(problem.num_ops(), |o| ServerId::new(o.0 % k.min(3)));
        let cp = wsflow::cost::critical_path(&problem, &mapping);
        let t = texecute(&problem, &mapping);
        assert!(
            (cp.total.value() - t.value()).abs() < 1e-9,
            "critical path total {} vs texecute {}",
            cp.total,
            t
        );
        // The path starts at the source and ends at the sink.
        assert_eq!(
            cp.steps.first().map(|s| s.op),
            Some(problem.workflow().sources()[0])
        );
        assert_eq!(
            cp.steps.last().map(|s| s.op),
            Some(problem.workflow().sinks()[0])
        );
    });
}

#[test]
fn dsl_round_trips() {
    for_cases(0x06, 64, |rng| {
        let w = random_workflow(rng);
        let text = dsl::serialize(&w);
        let back = dsl::parse(&text).expect("serialised output parses");
        assert_eq!(back, w);
    });
}

#[test]
fn every_algorithm_outputs_total_valid_mappings() {
    for_cases(0x07, 48, |rng| {
        let class = ExperimentClass::class_c();
        let config = [
            Configuration::LineBus(MbitsPerSec(10.0)),
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0)),
            Configuration::GraphBus(GraphClass::Lengthy, MbitsPerSec(1.0)),
        ][rng.gen_range(0usize..3)];
        let m = rng.gen_range(5usize..14);
        let n = rng.gen_range(2usize..5);
        let seed = rng.gen_range(0u64..1000);
        let s = generate(config, m, n, &class, seed);
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let mut ev = Evaluator::new(&problem);
        for algo in paper_bus_algorithms(seed) {
            let mapping = algo.deploy(&problem).expect("bus family is total");
            assert_eq!(mapping.len(), m);
            assert!(mapping.is_valid_for(n));
            let cost = ev.evaluate(&mapping);
            assert!(cost.execution.value() >= 0.0);
            assert!(cost.penalty.value() >= -1e-12);
            assert!(cost.combined.is_finite());
        }
    });
}

#[test]
fn penalty_zero_iff_proportional() {
    for_cases(0x08, 64, |rng| {
        let len = rng.gen_range(1usize..6);
        let loads: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0f64..10.0)).collect();
        let secs: Vec<Seconds> = loads.iter().map(|&l| Seconds(l)).collect();
        let penalty = wsflow::cost::load::time_penalty_of_loads(&secs);
        let avg = loads.iter().sum::<f64>() / loads.len() as f64;
        let all_equal = loads.iter().all(|&l| (l - avg).abs() < 1e-12);
        if all_equal {
            assert!(penalty.value() < 1e-9);
        } else {
            assert!(penalty.value() > 0.0);
        }
    });
}

#[test]
fn simulator_matches_analytic_on_deterministic_workflows() {
    for_cases(0x09, 48, |rng| {
        // Linear workflows have no XOR/OR, so one ideal simulation run
        // must equal the analytic Texecute exactly.
        let class = ExperimentClass::class_c();
        let m = rng.gen_range(2usize..10);
        let n = rng.gen_range(2usize..4);
        let seed = rng.gen_range(0u64..500);
        let s = generate(
            Configuration::LineBus(MbitsPerSec(100.0)),
            m,
            n,
            &class,
            seed,
        );
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let mapping = FairLoad.deploy(&problem).expect("ok");
        let mut sim_rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = simulate(&problem, &mapping, SimConfig::ideal(), &mut sim_rng);
        let analytic = texecute(&problem, &mapping);
        assert!((out.completion.value() - analytic.value()).abs() < 1e-9);
    });
}

#[test]
fn branch_and_bound_matches_exhaustive() {
    for_cases(0x0A, 48, |rng| {
        let class = ExperimentClass::class_c();
        let m = rng.gen_range(4usize..7);
        let seed = rng.gen_range(0u64..300);
        let s = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            m,
            2,
            &class,
            seed,
        );
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let (_, opt) = wsflow::core::optimum(&problem, 100_000).expect("2^m enumerable");
        let out = wsflow::core::BranchAndBound::new().deploy_with_proof(&problem);
        assert!(out.proven_optimal);
        assert!(
            (out.cost - opt).abs() < 1e-9,
            "bnb {} vs exhaustive {}",
            out.cost,
            opt
        );
    });
}

#[test]
fn open_loop_light_load_equals_single_run() {
    for_cases(0x0B, 48, |rng| {
        use wsflow::sim::{open_loop, OpenLoopConfig};
        let class = ExperimentClass::class_c();
        let m = rng.gen_range(3usize..8);
        let seed = rng.gen_range(0u64..200);
        // Extra inputs: an XOR-bearing random graph instead of a line,
        // and a serialised bus.
        let config = if rng.gen_bool(0.5) {
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0))
        } else {
            Configuration::LineBus(MbitsPerSec(100.0))
        };
        let bus_serial = rng.gen_bool(0.5);
        let s = generate(config, m, 2, &class, seed);
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let mapping = FairLoad.deploy(&problem).expect("ok");
        let fifo = SimConfig {
            server_fifo: true,
            bus_serial,
        };
        let open = |k: usize| {
            let cfg = OpenLoopConfig::new(k, 0.001);
            if bus_serial {
                cfg.with_bus_serial()
            } else {
                cfg
            }
        };

        // One instance is one FIFO run on the same engine: bit for bit,
        // XOR draws included.
        let single = simulate(
            &problem,
            &mapping,
            fifo,
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        let r = open_loop(
            &problem,
            &mapping,
            open(1),
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        let bits = single.completion.value().to_bits();
        assert_eq!(r.sojourn.mean.value().to_bits(), bits, "{config}");
        assert_eq!(r.makespan.value().to_bits(), bits, "{config}");

        // Arrivals 1000 s apart: no interference, so every instance's
        // sojourn is the single run's. Later instances run at absolute
        // times near their arrival, so `completion - arrival` carries
        // rounding of that magnitude (a few ulps per event on the
        // critical path) and cannot be bit-exact. The step RNG draws
        // 0.0, so every XOR opener takes its first branch in both runs.
        let mut sim_rng = rand::rngs::mock::StepRng::new(0, 1);
        let single = simulate(&problem, &mapping, fifo, &mut sim_rng);
        let mut sim_rng = rand::rngs::mock::StepRng::new(0, 1);
        let r = open_loop(&problem, &mapping, open(5), &mut sim_rng);
        let ulps = 4.0 * problem.num_ops() as f64 * f64::EPSILON * r.makespan.value();
        for got in [r.sojourn.min, r.sojourn.max] {
            assert!(
                (got.value() - single.completion.value()).abs() <= ulps,
                "{config}: {got} vs {}",
                single.completion
            );
        }
    });
}

#[test]
fn holm_traffic_rarely_exceeds_fair_load_on_slow_bus() {
    // On a 1 Mbps bus every class-C message is "large" relative to
    // 10–30 Mcycle groups, so HOLM merges aggressively; its expected
    // traffic should beat traffic-blind FairLoad's. HOLM is a greedy
    // heuristic, not a dominance theorem: an exhaustive sweep of
    // m ∈ 5..12 × seed ∈ 0..300 shows it loses on 2 of 2100 instances,
    // so we assert aggregate dominance and a rare-violation bound
    // instead of per-instance dominance.
    let mut sum_holm = 0.0;
    let mut sum_fair = 0.0;
    let mut violations = 0u32;
    const CASES: u64 = 48;
    for_cases(0x0C, CASES, |rng| {
        let class = ExperimentClass::class_c();
        let m = rng.gen_range(5usize..12);
        let seed = rng.gen_range(0u64..300);
        let s = generate(Configuration::LineBus(MbitsPerSec(1.0)), m, 3, &class, seed);
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let holm = HeavyOpsLargeMsgs.deploy(&problem).expect("ok");
        let fair = FairLoad.deploy(&problem).expect("ok");
        let t_holm = wsflow::cost::network_traffic(&problem, &holm).value();
        let t_fair = wsflow::cost::network_traffic(&problem, &fair).value();
        sum_holm += t_holm;
        sum_fair += t_fair;
        if t_holm > t_fair + 1e-12 {
            violations += 1;
        }
    });
    assert!(
        sum_holm <= sum_fair + 1e-9,
        "HOLM mean traffic {} > FairLoad {}",
        sum_holm / CASES as f64,
        sum_fair / CASES as f64
    );
    assert!(
        violations <= CASES as u32 / 10,
        "HOLM lost to FairLoad on {violations}/{CASES} instances"
    );
}

#[test]
fn mapping_hamming_distance_is_a_metric() {
    for_cases(0x0D, 64, |rng| {
        let len = rng.gen_range(1usize..10);
        let a: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..4)).collect();
        let m1 = Mapping::new(a.iter().map(|&s| ServerId::new(s)).collect());
        assert_eq!(m1.hamming_distance(&m1), 0);
        let mut b = a.clone();
        let i = rng.gen_range(0usize..b.len());
        b[i] = (b[i] + 1) % 4;
        let m2 = Mapping::new(b.iter().map(|&s| ServerId::new(s)).collect());
        assert_eq!(m1.hamming_distance(&m2), 1);
        assert_eq!(m2.hamming_distance(&m1), 1);
    });
}

/// The delta-incremental evaluator must agree with the full evaluator
/// **bit for bit** — and with the one-shot `texecute`/`loads` functions
/// to tolerance — on random workflows × topologies × move sequences.
#[test]
fn delta_evaluator_equals_full_evaluator_and_texecute() {
    use wsflow::cost::DeltaEvaluator;
    for_cases(0x0E, 48, |rng| {
        let class = ExperimentClass::class_c();
        let config = [
            Configuration::LineBus(MbitsPerSec(10.0)),
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0)),
            Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(1.0)),
        ][rng.gen_range(0usize..3)];
        let m = rng.gen_range(5usize..14);
        let n = rng.gen_range(2usize..5);
        let seed = rng.gen_range(0u64..1000);
        let s = generate(config, m, n, &class, seed);
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let mut ev = Evaluator::new(&problem);
        let start = Mapping::from_fn(m, |o| ServerId::new(o.0 % n as u32));
        let mut delta = DeltaEvaluator::new(&problem, start).with_staleness_threshold(7);
        for _ in 0..25 {
            let op = OpId::from(rng.gen_range(0..m));
            let server = ServerId::new(rng.gen_range(0..n as u32));
            let got = delta.apply(op, server);
            let want = ev.evaluate(delta.mapping());
            assert_eq!(
                got.execution.value().to_bits(),
                want.execution.value().to_bits(),
                "delta execution diverged from Evaluator"
            );
            assert_eq!(
                got.penalty.value().to_bits(),
                want.penalty.value().to_bits(),
                "delta penalty diverged from Evaluator"
            );
            assert_eq!(
                got.combined.value().to_bits(),
                want.combined.value().to_bits(),
                "delta combined diverged from Evaluator"
            );
            // One-shot reference functions use mathematically equal but
            // differently associated expressions; agreement to 1e-9.
            let direct_exec = texecute(&problem, delta.mapping());
            assert!((got.execution.value() - direct_exec.value()).abs() < 1e-9);
            let direct_loads = wsflow::cost::reference::loads(&problem, delta.mapping());
            for (a, b) in direct_loads.iter().zip(delta.loads()) {
                assert!((a.value() - b.value()).abs() < 1e-12);
            }
        }
    });
}

/// Parallel exhaustive enumeration must return the same mapping as the
/// sequential scan — including tie-breaks — for every worker count.
#[test]
fn parallel_exhaustive_bit_identical_to_sequential() {
    use wsflow::core::Exhaustive;
    for_cases(0x0F, 24, |rng| {
        let class = ExperimentClass::class_c();
        let m = rng.gen_range(4usize..7);
        let n = rng.gen_range(2usize..4);
        let seed = rng.gen_range(0u64..300);
        let s = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            m,
            n,
            &class,
            seed,
        );
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let exhaustive = Exhaustive::with_limit(100_000);
        let reference = with_threads(1, || exhaustive.deploy(&problem)).expect("enumerable");
        let mut ev = Evaluator::new(&problem);
        let ref_cost = ev.combined(&reference).value();
        for workers in [2usize, 3, 5, 8] {
            let got = with_threads(workers, || exhaustive.deploy(&problem)).expect("enumerable");
            assert_eq!(
                got, reference,
                "{workers}-worker exhaustive returned a different mapping"
            );
            assert_eq!(ev.combined(&got).value().to_bits(), ref_cost.to_bits());
        }
    });
}

/// Unlimited `solve` (root branches over `parallel_map`, each pruning
/// against its own incumbent) must agree with the sequential
/// `deploy_with_proof` recursion at any thread count: same mapping, same
/// cost bits, same optimality proof.
#[test]
fn parallel_branch_bound_matches_sequential() {
    use wsflow::core::{BranchAndBound, SolveCtx, Termination};
    for_cases(0x10, 24, |rng| {
        let class = ExperimentClass::class_c();
        let m = rng.gen_range(4usize..7);
        let n = rng.gen_range(2usize..4);
        let seed = rng.gen_range(0u64..300);
        let s = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            m,
            n,
            &class,
            seed,
        );
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let sequential = BranchAndBound::new().deploy_with_proof(&problem);
        assert!(sequential.proven_optimal);
        for workers in [1usize, 4] {
            let parallel = with_threads(workers, || {
                BranchAndBound::new().solve(&problem, &mut SolveCtx::unlimited())
            })
            .expect("solvable");
            assert_eq!(parallel.termination, Termination::Converged);
            assert_eq!(
                parallel.mapping, sequential.mapping,
                "{workers}-thread bnb solve returned a different mapping"
            );
            assert_eq!(parallel.cost.to_bits(), sequential.cost.to_bits());
        }
    });
}
