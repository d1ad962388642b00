//! The fairness time penalty and the Fair-Load cycle budgets (Table 1).
//!
//! * `Load(s)  = Σ_{op → s} prob(op) · Tproc(op)` — probability-weighted
//!   for random-graph workflows (§3.4); probabilities are all 1 for
//!   linear workflows. [`Evaluator::compute_loads`](crate::Evaluator::compute_loads)
//!   computes it.
//! * `Time Penalty = Σ_s |Load(s) − avg Load| / 2` — the time servers
//!   collectively deviate from the mean load. Zero iff every server
//!   spends exactly the average time, i.e. the load is distributed in
//!   proportion to (equal) completion times.

use wsflow_model::{MCycles, OpId, Seconds};

use crate::problem::Problem;

/// Expected (probability-weighted) cycles of `op` — the effective
/// `C(op)` the §3.4 graph algorithms budget with.
#[inline]
pub fn effective_cycles(problem: &Problem, op: OpId) -> MCycles {
    problem.probabilities().of_op(op) * problem.workflow().op(op).cost
}

/// The fairness time penalty over a load vector.
pub fn time_penalty_of_loads(loads: &[Seconds]) -> Seconds {
    if loads.is_empty() {
        return Seconds::ZERO;
    }
    let avg = loads.iter().copied().sum::<Seconds>() / loads.len() as f64;
    loads.iter().map(|&l| (l - avg).abs()).sum::<Seconds>() / 2.0
}

/// The ideal cycle budget per server:
/// `Ideal_Cycles(Sᵢ) = Sum_Cycles · P(Sᵢ) / Sum_Capacity`
/// (step 1–3 of every Fair-Load-family algorithm in the appendix).
///
/// `Sum_Cycles` uses expected cycles, so XOR-heavy graphs budget for the
/// work that actually executes on average.
pub fn ideal_cycles(problem: &Problem) -> Vec<MCycles> {
    let sum_cycles: MCycles = problem
        .workflow()
        .op_ids()
        .map(|o| effective_cycles(problem, o))
        .sum();
    let sum_capacity = problem.network().total_capacity();
    problem
        .network()
        .servers()
        .iter()
        .map(|s| sum_cycles * (s.power / sum_capacity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, ghz_bus, homogeneous_servers};

    fn problem(costs: &[f64], powers_ghz: &[f64]) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let costs: Vec<MCycles> = costs.iter().map(|&c| MCycles(c)).collect();
        b.line("o", &costs, Mbits(0.05));
        let w = b.build().unwrap();
        let net = ghz_bus("b", powers_ghz, MbitsPerSec(100.0)).unwrap();
        Problem::new(w, net).unwrap()
    }

    #[test]
    fn penalty_counts_misplaced_work_once() {
        // Loads 1s and 3s: avg 2, deviations 1+1, halved = 1s of work in
        // the wrong place.
        let l = vec![Seconds(1.0), Seconds(3.0)];
        assert_eq!(time_penalty_of_loads(&l), Seconds(1.0));
        // Perfectly balanced: zero.
        assert_eq!(
            time_penalty_of_loads(&[Seconds(2.0), Seconds(2.0)]),
            Seconds::ZERO
        );
        // Empty edge case.
        assert_eq!(time_penalty_of_loads(&[]), Seconds::ZERO);
    }

    #[test]
    fn ideal_cycles_proportional_to_power() {
        let p = problem(&[30.0, 30.0], &[1.0, 2.0]);
        let ideal = ideal_cycles(&p);
        assert!((ideal[0].value() - 20.0).abs() < 1e-9);
        assert!((ideal[1].value() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn effective_cycles_weighted_by_probability() {
        use wsflow_model::BlockSpec;
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(100.0)),
                BlockSpec::op("r", MCycles(100.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.01)).unwrap();
        let net = bus("b", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let l = p.workflow().op_by_name("l").unwrap();
        assert!((effective_cycles(&p, l).value() - 50.0).abs() < 1e-9);
    }
}
