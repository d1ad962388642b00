//! Constraint-aware deployment (the paper's second future-work item:
//! "Other extensions involve a detailed study of the proposed
//! algorithms whenever user-defined constraints are given").
//!
//! Strategy: start from a greedy mapping and, if it violates the
//! problem's [`UserConstraints`], repair it by local search over
//! single-operation moves, minimising first the total violation and
//! then the combined cost among feasible mappings.

use wsflow_cost::{CostBreakdown, Evaluator, Mapping, Problem, UserConstraints};
use wsflow_model::{OpId, Seconds};
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{construction_steps, constructive_outcome, SolveCtx, SolveOutcome};

/// Why constrained deployment failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstrainedError {
    /// The inner algorithm could not deploy at all.
    Deploy(DeployError),
    /// No feasible mapping was found; the least-violating mapping missed
    /// the bounds by this many seconds in total.
    Infeasible {
        /// Total constraint violation of the best mapping found.
        violation: Seconds,
        /// That best (still infeasible) mapping, for diagnostics.
        best_effort: Mapping,
    },
}

impl std::fmt::Display for ConstrainedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstrainedError::Deploy(e) => write!(f, "inner algorithm failed: {e}"),
            ConstrainedError::Infeasible { violation, .. } => {
                write!(
                    f,
                    "no feasible mapping found; best misses bounds by {violation}"
                )
            }
        }
    }
}

impl std::error::Error for ConstrainedError {}

/// Total violation of the constraints in seconds (0 = feasible).
pub fn violation(constraints: &UserConstraints, cost: &CostBreakdown, load: Seconds) -> Seconds {
    let mut v = Seconds::ZERO;
    if let Some(bound) = constraints.max_execution_time {
        v += (cost.execution - bound).max(Seconds::ZERO);
    }
    if let Some(bound) = constraints.max_time_penalty {
        v += (cost.penalty - bound).max(Seconds::ZERO);
    }
    if let Some(bound) = constraints.max_server_load {
        v += (load - bound).max(Seconds::ZERO);
    }
    v
}

/// Upper bound on [`ConstrainedDeploy`]'s repair sweeps, and on its
/// polish sweeps (each tries every single-op move).
const REPAIR_SWEEPS: usize = 50;

/// Deploy under the problem's constraints: greedy start + repair search.
#[derive(Debug, Clone)]
pub struct ConstrainedDeploy<A> {
    /// The algorithm producing the starting mapping.
    pub inner: A,
}

impl<A> ConstrainedDeploy<A> {
    /// Repair with up to 50 sweeps.
    pub fn new(inner: A) -> Self {
        Self { inner }
    }
}

impl<A: DeploymentAlgorithm> ConstrainedDeploy<A> {
    /// Deploy, guaranteeing the result satisfies the constraints (or
    /// returning the least-violating mapping inside the error).
    pub fn deploy_constrained(&self, problem: &Problem) -> Result<Mapping, ConstrainedError> {
        let start = self
            .inner
            .deploy(problem)
            .map_err(ConstrainedError::Deploy)?;
        let constraints = *problem.constraints();
        if constraints.is_none() {
            return Ok(start);
        }
        let mut ev = Evaluator::new(problem);
        let score = |ev: &mut Evaluator<'_>, m: &Mapping| -> (Seconds, Seconds) {
            let cost = ev.evaluate(m);
            let load = ev.loads().iter().copied().fold(Seconds::ZERO, Seconds::max);
            (violation(&constraints, &cost, load), cost.combined)
        };
        let mut current = start;
        let (mut cur_viol, mut cur_cost) = score(&mut ev, &current);
        let n = problem.num_servers() as u32;
        for _ in 0..REPAIR_SWEEPS {
            if cur_viol.is_zero() {
                break;
            }
            let mut improved = false;
            'sweep: for op_idx in 0..problem.num_ops() {
                let op = OpId::from(op_idx);
                let original = current.server_of(op);
                for s in 0..n {
                    let server = ServerId::new(s);
                    if server == original {
                        continue;
                    }
                    current.assign(op, server);
                    let (v, c) = score(&mut ev, &current);
                    // Lexicographic: violation first, then cost.
                    if v < cur_viol || (v == cur_viol && c < cur_cost) {
                        cur_viol = v;
                        cur_cost = c;
                        improved = true;
                        continue 'sweep;
                    }
                    current.assign(op, original);
                }
            }
            if !improved {
                break;
            }
        }
        // Feasible: polish cost without breaking feasibility.
        if cur_viol.is_zero() {
            for _ in 0..REPAIR_SWEEPS {
                let mut improved = false;
                'polish: for op_idx in 0..problem.num_ops() {
                    let op = OpId::from(op_idx);
                    let original = current.server_of(op);
                    for s in 0..n {
                        let server = ServerId::new(s);
                        if server == original {
                            continue;
                        }
                        current.assign(op, server);
                        let (v, c) = score(&mut ev, &current);
                        if v.is_zero() && c < cur_cost {
                            cur_cost = c;
                            improved = true;
                            continue 'polish;
                        }
                        current.assign(op, original);
                    }
                }
                if !improved {
                    break;
                }
            }
            Ok(current)
        } else {
            Err(ConstrainedError::Infeasible {
                violation: cur_viol,
                best_effort: current,
            })
        }
    }
}

impl<A: DeploymentAlgorithm> DeploymentAlgorithm for ConstrainedDeploy<A> {
    fn name(&self) -> &str {
        "Constrained"
    }

    /// Trait-compatible entry point: feasible mappings are returned;
    /// infeasibility degrades to the least-violating best effort (use
    /// [`ConstrainedDeploy::deploy_constrained`] to distinguish).
    ///
    /// The repair search is atomic — a mapping that merely respects the
    /// budget but violates user constraints would be worse than useless,
    /// so the sweeps always run to completion and the whole repair is
    /// charged as one constructive step block.
    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mapping = match self.deploy_constrained(problem) {
            Ok(m) => m,
            Err(ConstrainedError::Infeasible { best_effort, .. }) => best_effort,
            Err(ConstrainedError::Deploy(e)) => return Err(e),
        };
        let steps = construction_steps(problem).saturating_mul(REPAIR_SWEEPS as u64);
        Ok(constructive_outcome(problem, ctx, mapping, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holm::HeavyOpsLargeMsgs;
    use wsflow_cost::reference::{texecute, time_penalty};
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};

    fn problem(constraints: UserConstraints) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[
                MCycles(10.0),
                MCycles(30.0),
                MCycles(20.0),
                MCycles(40.0),
                MCycles(15.0),
                MCycles(25.0),
            ],
            Mbits(2.0),
        );
        let net = bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        Problem::new(b.build().unwrap(), net)
            .unwrap()
            .with_constraints(constraints)
    }

    #[test]
    fn no_constraints_passes_through() {
        let p = problem(UserConstraints::none());
        let direct = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        let constrained = ConstrainedDeploy::new(HeavyOpsLargeMsgs)
            .deploy_constrained(&p)
            .unwrap();
        assert_eq!(direct, constrained);
    }

    #[test]
    fn repairs_penalty_violation() {
        // HOLM on a slow bus piles work up; cap the penalty and demand a
        // repair.
        let p = problem(UserConstraints::none().with_max_time_penalty(Seconds(0.010)));
        let unrepaired = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        let unrepaired_penalty = time_penalty(&p, &unrepaired);
        let repaired = ConstrainedDeploy::new(HeavyOpsLargeMsgs)
            .deploy_constrained(&p)
            .unwrap();
        let repaired_penalty = time_penalty(&p, &repaired);
        assert!(
            repaired_penalty.value() <= 0.010 + 1e-12,
            "repaired penalty {repaired_penalty} exceeds bound (unrepaired was {unrepaired_penalty})"
        );
    }

    #[test]
    fn repairs_execution_violation() {
        // FairLoad spreads everything and pays 2 Mbit crossings on a
        // slow bus; cap Texecute below that.
        let p = problem(UserConstraints::none().with_max_execution_time(Seconds(0.5)));
        let repaired = ConstrainedDeploy::new(crate::fair_load::FairLoad)
            .deploy_constrained(&p)
            .unwrap();
        assert!(texecute(&p, &repaired).value() <= 0.5 + 1e-12);
    }

    #[test]
    fn impossible_bounds_report_infeasible() {
        // Total work is 140 Mcycles on 1 GHz servers: Texecute can never
        // go below the heaviest op's 40 ms... demand 1 ms.
        let p = problem(UserConstraints::none().with_max_execution_time(Seconds(0.001)));
        let err = ConstrainedDeploy::new(HeavyOpsLargeMsgs)
            .deploy_constrained(&p)
            .unwrap_err();
        match err {
            ConstrainedError::Infeasible { violation, .. } => {
                assert!(violation.value() > 0.0);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn trait_entry_point_degrades_gracefully() {
        let p = problem(UserConstraints::none().with_max_execution_time(Seconds(0.001)));
        // Via the trait, the best effort is returned instead of an error.
        let m = ConstrainedDeploy::new(HeavyOpsLargeMsgs)
            .deploy(&p)
            .unwrap();
        assert_eq!(m.len(), p.num_ops());
    }

    #[test]
    fn violation_arithmetic() {
        use wsflow_cost::CostWeights;
        let c = UserConstraints::none()
            .with_max_execution_time(Seconds(1.0))
            .with_max_time_penalty(Seconds(0.5));
        let cost = CostBreakdown::new(Seconds(1.5), Seconds(0.7), &CostWeights::EQUAL);
        let v = violation(&c, &cost, Seconds(0.0));
        assert!((v.value() - 0.7).abs() < 1e-12); // 0.5 over + 0.2 over
        let feasible = CostBreakdown::new(Seconds(0.5), Seconds(0.1), &CostWeights::EQUAL);
        assert!(violation(&c, &feasible, Seconds(0.0)).is_zero());
    }
}
