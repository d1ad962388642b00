//! Optimality and dominance invariants on exhaustively enumerable
//! instances: no heuristic may beat the exhaustive optimum, and the
//! heuristics must respect their design goals relative to the naive
//! baselines.

use wsflow::core::registry::paper_bus_algorithms;
use wsflow::core::{optimum, AllOnFastest, RandomMapping};
use wsflow::cost::reference::time_penalty;
use wsflow::prelude::*;
use wsflow::workload::{generate, Configuration, ExperimentClass, GraphClass};

fn small_problem(config: Configuration, m: usize, n: usize, seed: u64) -> Problem {
    let class = ExperimentClass::class_c();
    let s = generate(config, m, n, &class, seed);
    Problem::new(s.workflow, s.network).expect("valid")
}

#[test]
fn no_heuristic_beats_the_exhaustive_optimum() {
    for seed in 0..5 {
        let problem = small_problem(Configuration::LineBus(MbitsPerSec(10.0)), 8, 3, seed);
        let (_, opt) = optimum(&problem, 100_000).expect("3^8 = 6561");
        let mut ev = Evaluator::new(&problem);
        for algo in paper_bus_algorithms(seed) {
            let mapping = algo.deploy(&problem).expect("ok");
            let cost = ev.combined(&mapping).value();
            assert!(
                cost >= opt - 1e-9,
                "seed {seed}: {} produced {cost} below optimum {opt}",
                algo.name()
            );
        }
    }
}

#[test]
fn optimum_holds_on_graph_instances_too() {
    let problem = small_problem(
        Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(10.0)),
        8,
        3,
        9,
    );
    let (_, opt) = optimum(&problem, 100_000).expect("enumerable");
    let mut ev = Evaluator::new(&problem);
    for seed in 0..10 {
        let m = RandomMapping::new(seed).deploy(&problem).expect("ok");
        assert!(ev.combined(&m).value() >= opt - 1e-9);
    }
}

#[test]
fn all_on_fastest_minimises_traffic_but_not_fairness() {
    let problem = small_problem(Configuration::LineBus(MbitsPerSec(1.0)), 9, 3, 3);
    let single = AllOnFastest.deploy(&problem).expect("ok");
    assert_eq!(
        wsflow::cost::network_traffic(&problem, &single),
        Mbits::ZERO,
        "single-server deployment sends nothing over the bus"
    );
    // And its fairness penalty exceeds FairLoad's.
    let fair = FairLoad.deploy(&problem).expect("ok");
    assert!(
        time_penalty(&problem, &single) > time_penalty(&problem, &fair),
        "the paper's antagonism: all-on-one is fast to communicate but unfair"
    );
}

#[test]
fn fair_load_penalty_beats_round_robin_on_heterogeneous_servers() {
    // Round-robin ignores server power; Fair Load budgets by it. On
    // heterogeneous servers Fair Load must be at least as fair, averaged
    // over seeds.
    let class = ExperimentClass::class_c();
    let mut fair_total = 0.0;
    let mut rr_total = 0.0;
    let mut count = 0;
    for seed in 0..10 {
        let s = generate(
            Configuration::LineBus(MbitsPerSec(100.0)),
            12,
            3,
            &class,
            seed,
        );
        // Skip homogeneous draws — round-robin is already fair there.
        let powers: Vec<f64> = s
            .network
            .servers()
            .iter()
            .map(|x| x.power.value())
            .collect();
        if powers.windows(2).all(|w| w[0] == w[1]) {
            continue;
        }
        let problem = Problem::new(s.workflow, s.network).expect("valid");
        let fair = FairLoad.deploy(&problem).expect("ok");
        let rr = wsflow::core::RoundRobin.deploy(&problem).expect("ok");
        fair_total += time_penalty(&problem, &fair).value();
        rr_total += time_penalty(&problem, &rr).value();
        count += 1;
    }
    assert!(count > 0, "expected at least one heterogeneous draw");
    assert!(
        fair_total <= rr_total,
        "FairLoad total penalty {fair_total} vs round-robin {rr_total} over {count} instances"
    );
}

#[test]
fn hill_climb_dominates_its_seed_mapping() {
    let problem = small_problem(Configuration::LineBus(MbitsPerSec(10.0)), 10, 3, 4);
    let mut ev = Evaluator::new(&problem);
    for seed in 0..5 {
        let start = RandomMapping::new(seed).deploy(&problem).expect("ok");
        let start_cost = ev.combined(&start).value();
        let (refined, refined_cost) = wsflow::core::hill_climb_from(&problem, start, 50);
        assert!(refined_cost <= start_cost + 1e-12);
        assert!((ev.combined(&refined).value() - refined_cost).abs() < 1e-12);
    }
}
