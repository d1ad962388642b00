//! Cross-solver guarantees of the anytime solver core:
//!
//! * **Golden equivalence** — under an unlimited budget, `solve` returns
//!   a mapping bit-identical to the legacy `deploy` path for every
//!   algorithm (including BranchAndBound, whose legacy path is one
//!   recursion over the whole tree rather than the budget-split root
//!   branches).
//! * **Budget monotonicity** — more budget never yields a worse
//!   incumbent for the same (algorithm, instance).
//! * **Worker invariance** — for any worker count, a *finite* budget
//!   still produces bit-identical outcomes (the budget is split over
//!   structural units, never over threads).
//! * **Never no-mapping** — even a zero budget or a pre-cancelled token
//!   yields a complete mapping.

use wsflow_core::{
    BestOfRandom, Blackboard, BranchAndBound, CancelToken, DeploymentAlgorithm, Exhaustive,
    FairLoad, HillClimb, Portfolio, SimulatedAnnealing, SolveCtx, Termination,
};
use wsflow_cost::Problem;
use wsflow_model::MbitsPerSec;
use wsflow_par::with_threads;
use wsflow_workload::{generate, Configuration, ExperimentClass};

fn problem(ops: usize, servers: usize, seed: u64) -> Problem {
    let class = ExperimentClass::class_c();
    let s = generate(
        Configuration::LineBus(MbitsPerSec(10.0)),
        ops,
        servers,
        &class,
        seed,
    );
    Problem::new(s.workflow, s.network).expect("generated scenarios are valid")
}

/// Every solver the refactor converted, exercised as a trait object.
fn suite(seed: u64) -> Vec<Box<dyn DeploymentAlgorithm>> {
    let mut algos = wsflow_core::registry::paper_bus_algorithms(seed);
    algos.push(Box::new(Portfolio::new(seed)));
    algos.push(Box::new(Blackboard::new(seed)));
    algos.push(Box::new(BestOfRandom::new(64, seed)));
    algos.push(Box::new(HillClimb::new(FairLoad)));
    algos.push(Box::new(SimulatedAnnealing::new(seed)));
    algos.push(Box::new(Exhaustive::new()));
    algos.push(Box::new(BranchAndBound::new()));
    algos
}

#[test]
fn unlimited_solve_matches_deploy_for_every_algorithm() {
    for seed in 0..3 {
        let p = problem(7, 3, seed);
        for algo in suite(seed) {
            let deployed = algo.deploy(&p).expect("deployable");
            let out = algo
                .solve(&p, &mut SolveCtx::unlimited())
                .expect("solvable");
            assert_eq!(
                out.mapping,
                deployed,
                "{}: solve(unlimited) diverged from deploy (seed {seed})",
                algo.name()
            );
            assert_eq!(
                out.termination,
                Termination::Converged,
                "{}: unlimited budget must converge",
                algo.name()
            );
            assert!(out.steps > 0, "{}: steps must be counted", algo.name());
        }
    }
}

#[test]
fn bnb_solve_matches_legacy_shared_bound_search() {
    // The legacy proof path keeps its shared-bound pruning; the anytime
    // path prunes per branch only. Both complete on small instances and
    // must agree on the optimum they certify.
    for seed in 0..4 {
        let p = problem(8, 3, seed);
        let bnb = BranchAndBound::new();
        let proof = bnb.deploy_with_proof(&p);
        let out = bnb.solve(&p, &mut SolveCtx::unlimited()).expect("solvable");
        assert_eq!(out.mapping, proof.mapping, "seed {seed}");
        assert!((out.cost - proof.cost).abs() < 1e-12, "seed {seed}");
        assert_eq!(out.termination, Termination::Converged);
    }
}

#[test]
fn more_budget_never_worsens_the_incumbent() {
    let budgets = [0u64, 10, 50, 200, 1_000, 10_000];
    for seed in 0..3 {
        let p = problem(7, 3, seed);
        for algo in suite(seed) {
            let mut prev = f64::INFINITY;
            for &b in &budgets {
                let out = algo
                    .solve(&p, &mut SolveCtx::with_budget(b))
                    .expect("budgeted solves still produce mappings");
                assert_eq!(
                    out.mapping.len(),
                    p.num_ops(),
                    "{}: budget {b} returned a partial mapping",
                    algo.name()
                );
                assert!(
                    out.cost <= prev + 1e-12,
                    "{}: budget {b} worsened the incumbent ({} -> {})",
                    algo.name(),
                    prev,
                    out.cost
                );
                prev = out.cost;
            }
            // Unlimited is at least as good as the largest finite budget.
            let unlimited = algo
                .solve(&p, &mut SolveCtx::unlimited())
                .expect("solvable");
            assert!(unlimited.cost <= prev + 1e-12, "{}", algo.name());
        }
    }
}

#[test]
fn finite_budgets_are_bit_identical_across_worker_counts() {
    // Budgets split over structural units (index prefixes, root
    // branches), so worker count must not change any outcome field.
    for seed in 0..3 {
        let p = problem(7, 3, seed);
        for budget in [25u64, 400, 5_000] {
            let exh_1 = with_threads(1, || {
                Exhaustive::new().solve(&p, &mut SolveCtx::with_budget(budget))
            })
            .expect("solvable");
            let exh_3 = with_threads(3, || {
                Exhaustive::new().solve(&p, &mut SolveCtx::with_budget(budget))
            })
            .expect("solvable");
            assert_eq!(exh_1.mapping, exh_3.mapping, "seed {seed} budget {budget}");
            assert_eq!(exh_1.steps, exh_3.steps);
            assert_eq!(exh_1.termination, exh_3.termination);
            assert!((exh_1.cost - exh_3.cost).abs() < 1e-15);

            let bnb_1 = with_threads(1, || {
                BranchAndBound::new().solve(&p, &mut SolveCtx::with_budget(budget))
            })
            .expect("solvable");
            let bnb_3 = with_threads(3, || {
                BranchAndBound::new().solve(&p, &mut SolveCtx::with_budget(budget))
            })
            .expect("solvable");
            assert_eq!(bnb_1.mapping, bnb_3.mapping, "seed {seed} budget {budget}");
            assert_eq!(bnb_1.steps, bnb_3.steps);
            assert_eq!(bnb_1.termination, bnb_3.termination);
            assert!((bnb_1.cost - bnb_3.cost).abs() < 1e-15);

            let bb_1 = with_threads(1, || {
                Blackboard::new(seed).solve(&p, &mut SolveCtx::with_budget(budget))
            })
            .expect("solvable");
            let bb_3 = with_threads(3, || {
                Blackboard::new(seed).solve(&p, &mut SolveCtx::with_budget(budget))
            })
            .expect("solvable");
            assert_eq!(bb_1.mapping, bb_3.mapping, "seed {seed} budget {budget}");
            assert_eq!(bb_1.steps, bb_3.steps);
            assert_eq!(bb_1.termination, bb_3.termination);
            assert!((bb_1.cost - bb_3.cost).abs() < 1e-15);
        }
    }
}

#[test]
fn unlimited_blackboard_never_loses_to_its_best_member() {
    // The blackboard's seeding race sees every portfolio member's
    // proposal, and improvers only ever tighten the board — so at an
    // unlimited budget the result is never worse than the best
    // constructive (and hence never worse than the sequential
    // portfolio).
    for seed in 0..4 {
        let p = problem(9, 3, seed);
        let bb = Blackboard::new(seed)
            .solve(&p, &mut SolveCtx::unlimited())
            .expect("solvable");
        for member in wsflow_core::registry::paper_bus_algorithms(seed) {
            let out = member
                .solve(&p, &mut SolveCtx::unlimited())
                .expect("solvable");
            assert!(
                bb.cost <= out.cost + 1e-12,
                "seed {seed}: blackboard {} lost to {} at {}",
                bb.cost,
                member.name(),
                out.cost
            );
        }
        let portfolio = Portfolio::new(seed)
            .solve(&p, &mut SolveCtx::unlimited())
            .expect("solvable");
        assert!(bb.cost <= portfolio.cost + 1e-12, "seed {seed}");
    }
}

#[test]
fn pre_cancelled_token_still_yields_a_mapping() {
    let p = problem(7, 3, 1);
    let token = CancelToken::new();
    token.cancel();
    for algo in suite(1) {
        let mut ctx = SolveCtx::unlimited().cancel_token(token.clone());
        let out = algo
            .solve(&p, &mut ctx)
            .expect("cancellation must not lose the incumbent");
        assert_eq!(
            out.mapping.len(),
            p.num_ops(),
            "{}: cancelled solve returned a partial mapping",
            algo.name()
        );
        assert_eq!(
            out.termination,
            Termination::Cancelled,
            "{}: a pre-cancelled token must report Cancelled",
            algo.name()
        );
    }
}

#[test]
fn incumbent_stream_is_monotone_and_ends_at_the_result() {
    let p = problem(8, 3, 5);
    let mut seen: Vec<f64> = Vec::new();
    let out = {
        let mut ctx = SolveCtx::unlimited().on_incumbent(|_, cost| seen.push(cost));
        SimulatedAnnealing::new(5)
            .solve(&p, &mut ctx)
            .expect("solvable")
    };
    assert!(!seen.is_empty(), "at least the final incumbent is offered");
    for pair in seen.windows(2) {
        assert!(pair[1] < pair[0], "incumbent stream must strictly improve");
    }
    let last = *seen.last().unwrap();
    assert!(
        (last - out.cost).abs() < 1e-12,
        "the last streamed incumbent ({last}) is the returned cost ({})",
        out.cost
    );
}

#[test]
fn zero_budget_exhaustive_returns_the_seed_with_zero_steps() {
    // Regression: a zero-remaining budget used to round up to "one
    // index allowed", scanning (and charging for) an assignment the
    // budget never granted. The contract is: no budget, no scan — the
    // greedy seed comes back untouched, BudgetExhausted, zero steps.
    let p = problem(7, 3, 2);
    let mut ctx = SolveCtx::with_budget(0);
    let out = Exhaustive::new()
        .solve(&p, &mut ctx)
        .expect("zero budget still yields a mapping");
    assert_eq!(out.steps, 0, "a zero budget must not consume steps");
    assert_eq!(ctx.consumed(), 0, "nothing may be charged to the context");
    assert_eq!(out.termination, Termination::BudgetExhausted);
    assert_eq!(out.mapping.len(), p.num_ops());
    let seed_server = out.mapping.server_of(wsflow_model::OpId(0));
    assert!(
        (0..p.num_ops() as u32)
            .all(|i| out.mapping.server_of(wsflow_model::OpId(i)) == seed_server),
        "the untouched seed maps every operation to one server"
    );
    assert!(out.cost.is_finite(), "the seed is still evaluated");
}

#[test]
fn exhausted_shared_ctx_charges_exhaustive_nothing_more() {
    // A context already drained by a previous solve grants Exhaustive
    // zero remaining budget: the second solve must charge nothing.
    let p = problem(6, 3, 3);
    let mut ctx = SolveCtx::with_budget(1);
    FairLoad
        .solve(&p, &mut ctx)
        .expect("constructive solves always complete");
    let drained = ctx.consumed();
    assert!(
        ctx.exhausted(),
        "the atomic constructive charge must exceed a 1-step budget"
    );
    let out = Exhaustive::new()
        .solve(&p, &mut ctx)
        .expect("an exhausted context still yields a mapping");
    assert_eq!(out.steps, 0);
    assert_eq!(
        ctx.consumed(),
        drained,
        "Exhaustive must not charge an exhausted context"
    );
    assert_eq!(out.termination, Termination::BudgetExhausted);
}
