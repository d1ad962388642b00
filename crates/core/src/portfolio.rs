//! The portfolio strategy: run every paper algorithm, keep the best.
//!
//! §4.2's verdict is nuanced — HeavyOps-LargeMsgs wins on slow buses,
//! the Tie-Resolvers on fast ones — and all five algorithms cost
//! microseconds. A practitioner would simply run them all and take the
//! winner under their weighting; this wrapper is that practice, and the
//! harness's Pareto tables quantify how much it buys.

use wsflow_cost::Problem;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::blackboard::race_sequential;
use crate::registry::paper_bus_algorithms;
use crate::solve::{SolveCtx, SolveOutcome};

/// Best-of-the-paper's-five deployment: the five race in order through
/// [`race_sequential`] on the shared context.
///
/// A member that errors (e.g. a topology-specific algorithm on the
/// wrong topology) is skipped, not fatal; the solve errors only when
/// *every* member fails. Once the budget is exhausted (or the token
/// fires) the remaining members are skipped, but the first runnable
/// member always runs — even at budget 0 — so an incumbent exists.
#[derive(Debug, Clone)]
pub struct Portfolio {
    /// Seed forwarded to the randomised members.
    pub seed: u64,
}

impl Portfolio {
    /// Portfolio with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for Portfolio {
    fn default() -> Self {
        Self::new(0)
    }
}

impl DeploymentAlgorithm for Portfolio {
    fn name(&self) -> &str {
        "Portfolio"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        race_sequential(problem, ctx, &paper_bus_algorithms(self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Termination;
    use wsflow_cost::Evaluator;
    use wsflow_model::MbitsPerSec;
    use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass};

    fn problem(bus: f64, seed: u64) -> Problem {
        let class = ExperimentClass::class_c();
        let s = generate(
            Configuration::LineBus(MbitsPerSec(bus)),
            12,
            3,
            &class,
            seed,
        );
        Problem::new(s.workflow, s.network).expect("valid")
    }

    #[test]
    fn never_worse_than_any_member() {
        for seed in 0..5 {
            let p = problem(10.0, seed);
            let mut ev = Evaluator::new(&p);
            let portfolio_cost = ev
                .combined(&Portfolio::new(seed).deploy(&p).expect("ok"))
                .value();
            for algo in paper_bus_algorithms(seed) {
                let member = ev.combined(&algo.deploy(&p).expect("ok")).value();
                assert!(
                    portfolio_cost <= member + 1e-12,
                    "seed {seed}: portfolio {portfolio_cost} worse than {} at {member}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn works_on_graphs() {
        let class = ExperimentClass::class_c();
        let s = generate(
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(10.0)),
            14,
            4,
            &class,
            9,
        );
        let p = Problem::new(s.workflow, s.network).expect("valid");
        let m = Portfolio::default().deploy(&p).expect("ok");
        assert_eq!(m.len(), 14);
    }

    #[test]
    fn budget_skips_later_members_but_always_returns_a_mapping() {
        let p = problem(10.0, 4);
        // Budget 0: only the first member runs (atomically); the result
        // is still a full, valid mapping.
        let mut ctx = SolveCtx::with_budget(0);
        let out = Portfolio::new(4)
            .solve(&p, &mut ctx)
            .expect("never no-mapping");
        assert_eq!(out.mapping.len(), p.num_ops());
        assert_eq!(out.termination, Termination::BudgetExhausted);

        // Unlimited: converged, and at least as good as the budgeted run.
        let unlimited = Portfolio::new(4)
            .solve(&p, &mut SolveCtx::unlimited())
            .expect("ok");
        assert_eq!(unlimited.termination, Termination::Converged);
        assert!(unlimited.cost <= out.cost + 1e-12);
    }
}
