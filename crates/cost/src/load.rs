//! The fairness time penalty (Table 1).
//!
//! * `Load(s)  = Σ_{op → s} prob(op) · Tproc(op)` — probability-weighted
//!   for random-graph workflows (§3.4); probabilities are all 1 for
//!   linear workflows. [`Evaluator::compute_loads`](crate::Evaluator::compute_loads)
//!   computes it.
//! * `Time Penalty = Σ_s |Load(s) − avg Load| / 2` — the time servers
//!   collectively deviate from the mean load. Zero iff every server
//!   spends exactly the average time, i.e. the load is distributed in
//!   proportion to (equal) completion times.

use wsflow_model::Seconds;

/// The fairness time penalty over a load vector.
pub fn time_penalty_of_loads(loads: &[Seconds]) -> Seconds {
    if loads.is_empty() {
        return Seconds::ZERO;
    }
    let avg = loads.iter().copied().sum::<Seconds>() / loads.len() as f64;
    loads.iter().map(|&l| (l - avg).abs()).sum::<Seconds>() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
