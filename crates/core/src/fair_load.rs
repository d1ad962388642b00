//! Algorithm *Fair Load* (§3.3 and appendix).
//!
//! "The simplest of all the involved variants is tuned to obtain the
//! best possible load distribution. Fair Load starts by computing the
//! ideal number of cycles that should be assigned to a server based on
//! its capacity. Then, it sorts servers by their capacity and operations
//! by their execution cost. The algorithm processes the sorted list of
//! operations, each time assigning the next heaviest operation to the
//! most appropriate server — the server that needs the most cycles to
//! complete its ideal number of cycles at the time of the assignment.
//! Fair Load is a variant of the worst-fit algorithm for the bin packing
//! problem."

use wsflow_cost::{Mapping, Problem};
use wsflow_model::{MCycles, OpId};
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{construction_steps, constructive_outcome, SolveCtx, SolveOutcome};
use crate::view::InstanceView;

/// Operations sorted by descending (weighted) cycles, ties by id — the
/// shared "Operations_List" of the whole Fair-Load family.
pub(crate) fn ops_by_cycles_desc(view: &InstanceView) -> Vec<OpId> {
    let mut ops: Vec<OpId> = (0..view.num_ops()).map(OpId::from).collect();
    ops.sort_by(|&a, &b| {
        view.cycles[b.index()]
            .partial_cmp(&view.cycles[a.index()])
            .expect("cycles are finite")
            .then_with(|| a.cmp(&b))
    });
    ops
}

/// The server with the most remaining ideal cycles (ties: lowest id) —
/// the head of the re-sorted "Servers_List".
pub(crate) fn neediest_server(remaining: &[MCycles]) -> ServerId {
    let mut best = 0usize;
    for (i, &r) in remaining.iter().enumerate().skip(1) {
        if r > remaining[best] {
            best = i;
        }
    }
    ServerId::from(best)
}

/// Worst-fit assignment by remaining ideal cycles.
///
/// # Examples
///
/// ```
/// use wsflow_core::{DeploymentAlgorithm, FairLoad};
/// use wsflow_cost::{Evaluator, Problem};
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.line("op", &[MCycles(10.0); 6], Mbits(0.05));
/// let net = bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(100.0)).unwrap();
/// let problem = Problem::new(b.build().unwrap(), net).unwrap();
///
/// let mapping = FairLoad.deploy(&problem).unwrap();
/// // Six equal operations over three equal servers: perfectly fair.
/// assert!(Evaluator::new(&problem).penalty(&mapping).value() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FairLoad;

impl FairLoad {
    fn construct(problem: &Problem) -> Mapping {
        let view = InstanceView::new(problem);
        let mut remaining = view.ideal_cycles.clone();
        let mut mapping = Mapping::all_on(view.num_ops(), ServerId::new(0));
        for op in ops_by_cycles_desc(&view) {
            let s = neediest_server(&remaining);
            mapping.assign(op, s);
            remaining[s.index()] -= view.cycles[op.index()];
        }
        mapping
    }
}

impl DeploymentAlgorithm for FairLoad {
    fn name(&self) -> &str {
        "FairLoad"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mapping = Self::construct(problem);
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            construction_steps(problem),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::reference::{loads, time_penalty};
    use wsflow_cost::Evaluator;
    use wsflow_model::{Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::Server;

    fn line_problem(costs: &[f64], servers: Vec<Server>) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let costs: Vec<MCycles> = costs.iter().map(|&c| MCycles(c)).collect();
        b.line("o", &costs, Mbits(0.05));
        let net = bus("n", servers, MbitsPerSec(100.0)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn balances_identical_ops_on_identical_servers() {
        let p = line_problem(&[10.0; 6], homogeneous_servers(3, 1.0));
        let m = FairLoad.deploy(&p).unwrap();
        let l = loads(&p, &m);
        // 6 ops × 10 Mcycles over 3 × 1 GHz: 20 ms each.
        for load in l {
            assert!((load.value() - 0.020).abs() < 1e-12);
        }
        assert!(time_penalty(&p, &m).value() < 1e-15);
    }

    #[test]
    fn respects_server_capacity() {
        // Powers 1 and 3 GHz: the 3 GHz server should get ~3/4 of the
        // cycles.
        let p = line_problem(
            &[10.0, 10.0, 10.0, 10.0],
            vec![Server::with_ghz("a", 1.0), Server::with_ghz("b", 3.0)],
        );
        let m = FairLoad.deploy(&p).unwrap();
        let fast = m.ops_on(ServerId::new(1)).len();
        let slow = m.ops_on(ServerId::new(0)).len();
        assert_eq!(fast, 3);
        assert_eq!(slow, 1);
    }

    #[test]
    fn heaviest_ops_placed_first_worst_fit() {
        // Ops 50, 30, 20, 10 on two equal servers: worst-fit by remaining
        // ideal (55 each) gives 50→s0, 30→s1, 20→s1 (25 left vs 5), 10→s0.
        let p = line_problem(&[50.0, 30.0, 20.0, 10.0], homogeneous_servers(2, 1.0));
        let m = FairLoad.deploy(&p).unwrap();
        let s0_cycles: f64 = m
            .ops_on(ServerId::new(0))
            .iter()
            .map(|&o| p.workflow().op(o).cost.value())
            .sum();
        let s1_cycles: f64 = m
            .ops_on(ServerId::new(1))
            .iter()
            .map(|&o| p.workflow().op(o).cost.value())
            .sum();
        assert_eq!(s0_cycles, 60.0);
        assert_eq!(s1_cycles, 50.0);
    }

    #[test]
    fn penalty_at_most_random_baseline() {
        let p = line_problem(
            &[50.0, 10.0, 40.0, 25.0, 15.0, 35.0, 20.0],
            homogeneous_servers(3, 1.0),
        );
        let mut ev = Evaluator::new(&p);
        let fair = FairLoad.deploy(&p).unwrap();
        let fair_pen = ev.evaluate(&fair).penalty.value();
        let mean_random_pen = (0..20)
            .map(|seed| {
                let rnd = crate::baselines::RandomMapping::new(seed)
                    .deploy(&p)
                    .unwrap();
                ev.evaluate(&rnd).penalty.value()
            })
            .sum::<f64>()
            / 20.0;
        assert!(
            fair_pen <= mean_random_pen + 1e-12,
            "fair {fair_pen} > mean random {mean_random_pen}"
        );
    }

    #[test]
    fn deterministic() {
        let p = line_problem(&[10.0, 20.0, 30.0], homogeneous_servers(2, 1.0));
        assert_eq!(FairLoad.deploy(&p).unwrap(), FairLoad.deploy(&p).unwrap());
    }
}
