//! Multi-workflow deployment (the paper's first future-work item:
//! "Future extensions of this work involve the case of multiple
//! workflows (instead of just a single one)").
//!
//! Several workflows share one server pool. Each keeps its own
//! execution time, but fairness is now a *joint* property: the time
//! penalty is computed over the servers' combined loads. Deploying each
//! workflow in isolation ("sequential") balances every workflow
//! individually yet can stack all of them onto the same favourite
//! servers; the joint strategy budgets the pool once, across all
//! workflows.

use wsflow_cost::load::time_penalty_of_loads;
use wsflow_cost::{CostWeights, Evaluator, Mapping, Problem, ProblemError};
use wsflow_model::{Seconds, Workflow};
use wsflow_net::{Network, ServerId};

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::view::InstanceView;

/// Several workflows deployed over one shared network.
///
/// # Examples
///
/// ```
/// use wsflow_core::{deploy_joint_fair, MultiProblem};
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
///
/// let workflows = (0..2)
///     .map(|i| {
///         let mut b = WorkflowBuilder::new(format!("w{i}"));
///         b.line("op", &[MCycles(10.0); 3], Mbits(0.05));
///         b.build().unwrap()
///     })
///     .collect();
/// let net = bus("pool", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
/// let multi = MultiProblem::new(workflows, net).unwrap();
///
/// let mappings = deploy_joint_fair(&multi);
/// let cost = multi.evaluate(&mappings);
/// // 6 equal operations over 2 equal servers: perfectly fair jointly.
/// assert!(cost.joint_penalty.value() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct MultiProblem {
    problems: Vec<Problem>,
    weights: CostWeights,
}

impl MultiProblem {
    /// Validate every workflow against the shared network.
    pub fn new(workflows: Vec<Workflow>, network: Network) -> Result<Self, ProblemError> {
        assert!(!workflows.is_empty(), "at least one workflow required");
        let problems = workflows
            .into_iter()
            .map(|w| Problem::new(w, network.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            problems,
            weights: CostWeights::default(),
        })
    }

    /// Builder-style: custom cost weights for the joint objective.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// The per-workflow problems (all sharing the same network shape).
    pub fn problems(&self) -> &[Problem] {
        &self.problems
    }

    /// Number of shared servers.
    pub fn num_servers(&self) -> usize {
        self.problems[0].num_servers()
    }

    /// Evaluate a joint deployment: one mapping per workflow.
    pub fn evaluate(&self, mappings: &[Mapping]) -> MultiCost {
        assert_eq!(
            mappings.len(),
            self.problems.len(),
            "one mapping per workflow required"
        );
        let mut joint_loads = vec![Seconds::ZERO; self.num_servers()];
        let mut executions = Vec::with_capacity(self.problems.len());
        for (problem, mapping) in self.problems.iter().zip(mappings) {
            let mut ev = Evaluator::new(problem);
            executions.push(ev.execution_time(mapping));
            for (i, l) in ev.compute_loads(mapping).iter().enumerate() {
                joint_loads[i] += *l;
            }
        }
        let total_execution: Seconds = executions.iter().copied().sum();
        let penalty = time_penalty_of_loads(&joint_loads);
        MultiCost {
            combined: self.weights.combine(total_execution, penalty),
            executions,
            total_execution,
            joint_penalty: penalty,
            joint_loads,
        }
    }
}

/// The joint cost of a multi-workflow deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCost {
    /// Per-workflow expected execution times.
    pub executions: Vec<Seconds>,
    /// Sum of the execution times.
    pub total_execution: Seconds,
    /// Fairness penalty over the combined per-server loads.
    pub joint_penalty: Seconds,
    /// The combined per-server loads.
    pub joint_loads: Vec<Seconds>,
    /// Weighted combination of total execution and joint penalty.
    pub combined: Seconds,
}

/// Deploy every workflow independently with `algo`, ignoring the other
/// workflows — the naive baseline.
pub fn deploy_sequential(
    multi: &MultiProblem,
    algo: &dyn DeploymentAlgorithm,
) -> Result<Vec<Mapping>, DeployError> {
    multi.problems().iter().map(|p| algo.deploy(p)).collect()
}

/// Jointly fair deployment: worst-fit over the union of all workflows'
/// operations against a single shared ideal-cycles budget (Fair Load
/// lifted to the multi-workflow case). Within equal-cost ties, the gain
/// function is applied per workflow exactly as in FLTR.
pub fn deploy_joint_fair(multi: &MultiProblem) -> Vec<Mapping> {
    let views: Vec<InstanceView> = multi.problems().iter().map(InstanceView::new).collect();
    // Shared budget: Σ over all workflows of expected cycles, split by
    // server power.
    let n = multi.num_servers();
    let mut remaining = vec![wsflow_model::MCycles::ZERO; n];
    for view in &views {
        for (i, &c) in view.ideal_cycles.iter().enumerate() {
            remaining[i] += c;
        }
    }
    // All operations across workflows, heaviest first.
    let mut all_ops: Vec<(usize, wsflow_model::OpId)> = views
        .iter()
        .enumerate()
        .flat_map(|(wi, v)| (0..v.num_ops()).map(move |o| (wi, wsflow_model::OpId::from(o))))
        .collect();
    all_ops.sort_by(|&(wa, oa), &(wb, ob)| {
        let ca = views[wa].cycles[oa.index()];
        let cb = views[wb].cycles[ob.index()];
        cb.partial_cmp(&ca)
            .expect("finite cycles")
            .then(wa.cmp(&wb))
            .then(oa.cmp(&ob))
    });
    let mut mappings: Vec<Mapping> = views
        .iter()
        .map(|v| Mapping::all_on(v.num_ops(), ServerId::new(0)))
        .collect();
    for (wi, op) in all_ops {
        // Worst fit against the shared budget.
        let mut best = 0usize;
        for (i, &r) in remaining.iter().enumerate().skip(1) {
            if r > remaining[best] {
                best = i;
            }
        }
        let server = ServerId::from(best);
        mappings[wi].assign(op, server);
        remaining[best] -= views[wi].cycles[op.index()];
    }
    mappings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair_load::FairLoad;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::Server;

    fn line_workflow(name: &str, costs: &[f64]) -> Workflow {
        let mut b = WorkflowBuilder::new(name);
        let costs: Vec<MCycles> = costs.iter().map(|&c| MCycles(c)).collect();
        b.line("o", &costs, Mbits(0.05));
        b.build().unwrap()
    }

    fn multi(costs: &[&[f64]], servers: Vec<Server>) -> MultiProblem {
        let workflows = costs
            .iter()
            .enumerate()
            .map(|(i, c)| line_workflow(&format!("w{i}"), c))
            .collect();
        let net = bus("shared", servers, MbitsPerSec(100.0)).unwrap();
        MultiProblem::new(workflows, net).unwrap()
    }

    #[test]
    fn evaluation_sums_loads_across_workflows() {
        let m = multi(&[&[10.0, 10.0], &[20.0, 20.0]], homogeneous_servers(2, 1.0));
        // Both workflows entirely on server 0.
        let mappings = vec![
            Mapping::all_on(2, ServerId::new(0)),
            Mapping::all_on(2, ServerId::new(0)),
        ];
        let cost = m.evaluate(&mappings);
        assert_eq!(cost.executions.len(), 2);
        // Joint load: 60 Mcycles on s0 = 60 ms, 0 on s1.
        assert!((cost.joint_loads[0].value() - 0.060).abs() < 1e-12);
        assert_eq!(cost.joint_loads[1], Seconds::ZERO);
        assert!((cost.joint_penalty.value() - 0.030).abs() < 1e-12);
    }

    #[test]
    fn joint_fair_balances_the_union() {
        let m = multi(
            &[&[10.0, 10.0, 10.0], &[10.0, 10.0, 10.0]],
            homogeneous_servers(2, 1.0),
        );
        let mappings = deploy_joint_fair(&m);
        let cost = m.evaluate(&mappings);
        assert!(
            cost.joint_penalty.value() < 1e-12,
            "6 equal ops over 2 servers must balance exactly: {:?}",
            cost.joint_loads
        );
    }

    #[test]
    fn joint_fair_no_less_fair_than_sequential() {
        // Two odd-sized workflows: deployed independently, each leaves
        // the same imbalance and they stack; the joint deployment can
        // interleave them.
        let m = multi(
            &[&[30.0, 10.0, 10.0], &[30.0, 10.0, 10.0]],
            homogeneous_servers(2, 1.0),
        );
        let sequential = deploy_sequential(&m, &FairLoad).unwrap();
        let joint = deploy_joint_fair(&m);
        let seq_cost = m.evaluate(&sequential);
        let joint_cost = m.evaluate(&joint);
        assert!(
            joint_cost.joint_penalty <= seq_cost.joint_penalty + Seconds(1e-12),
            "joint {} vs sequential {}",
            joint_cost.joint_penalty,
            seq_cost.joint_penalty
        );
    }

    #[test]
    fn heterogeneous_pool_respects_power() {
        let m = multi(
            &[&[10.0, 10.0, 10.0], &[10.0, 10.0, 10.0]],
            vec![Server::with_ghz("slow", 1.0), Server::with_ghz("fast", 2.0)],
        );
        let mappings = deploy_joint_fair(&m);
        let cost = m.evaluate(&mappings);
        // 60 Mcycles total; fair split is 20 on slow, 40 on fast
        // (20 ms each). Ops are indivisible 10s, so exact fairness is
        // achievable here.
        assert!(
            cost.joint_penalty.value() < 1e-12,
            "loads {:?}",
            cost.joint_loads
        );
    }

    #[test]
    fn custom_weights_change_the_combined_cost() {
        let m = multi(&[&[10.0, 10.0]], homogeneous_servers(2, 1.0))
            .with_weights(CostWeights::PENALTY_ONLY);
        let mappings = vec![Mapping::all_on(2, ServerId::new(0))];
        let cost = m.evaluate(&mappings);
        // Penalty-only: combined equals the joint penalty, not exec.
        assert!((cost.combined.value() - cost.joint_penalty.value()).abs() < 1e-12);
    }

    #[test]
    fn mismatched_mapping_count_panics() {
        let m = multi(&[&[10.0], &[10.0]], homogeneous_servers(2, 1.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.evaluate(&[Mapping::all_on(1, ServerId::new(0))])
        }));
        assert!(result.is_err());
    }
}
