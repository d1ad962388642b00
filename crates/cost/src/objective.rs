//! The scalarised objective: execution time + fairness + dollar cost.
//!
//! §3.1 of the paper: "Unless otherwise stated … we will assume an
//! equally weighted sum of the execution time and load distribution as
//! our cost model. To use the same units, we assess fairness in the form
//! of a time penalty."
//!
//! The geo-distributed scenario pack generalises the bi-objective sum
//! to a tri-criteria one by adding a **money** axis (dollars billed for
//! occupied server-hours; see [`crate::money`]). The legacy path is
//! preserved bit-identically: a `money` weight of exactly `0.0` (the
//! default of every pre-existing constructor and constant) skips the
//! money term entirely, so no floating-point operation is even
//! executed — classic breakdowns combine through the exact same
//! two-term arithmetic as before the refactor.

use std::fmt;

use wsflow_model::{Dollars, Seconds};

/// Weights for combining the antagonistic measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the workflow execution time `Texecute`.
    pub execution: f64,
    /// Weight of the fairness time penalty.
    pub penalty: f64,
    /// Weight of the dollar cost, in combined-score units per dollar.
    /// Zero (the default) reproduces the paper's bi-objective model
    /// bit-for-bit.
    pub money: f64,
}

impl CostWeights {
    /// The paper's default: equally weighted execution + fairness, no
    /// billing.
    pub const EQUAL: Self = Self {
        execution: 1.0,
        penalty: 1.0,
        money: 0.0,
    };

    /// Only execution time matters.
    pub const EXECUTION_ONLY: Self = Self {
        execution: 1.0,
        penalty: 0.0,
        money: 0.0,
    };

    /// Only fairness matters.
    pub const PENALTY_ONLY: Self = Self {
        execution: 0.0,
        penalty: 1.0,
        money: 0.0,
    };

    /// Arbitrary bi-objective weights (must be finite and non-negative);
    /// the money axis stays off. This is the legacy constructor — every
    /// pre-geo call site keeps its exact behaviour.
    pub fn new(execution: f64, penalty: f64) -> Self {
        Self::tri(execution, penalty, 0.0)
    }

    /// Arbitrary tri-criteria weights (must be finite and non-negative).
    pub fn tri(execution: f64, penalty: f64, money: f64) -> Self {
        assert!(
            execution >= 0.0
                && penalty >= 0.0
                && money >= 0.0
                && execution.is_finite()
                && penalty.is_finite()
                && money.is_finite(),
            "weights must be finite and non-negative"
        );
        Self {
            execution,
            penalty,
            money,
        }
    }

    /// `true` when the money axis participates in the scalarisation.
    #[inline]
    pub fn uses_money(&self) -> bool {
        self.money != 0.0
    }

    /// Combine the time measures into a scalar (legacy two-term path).
    #[inline]
    pub fn combine(&self, execution: Seconds, penalty: Seconds) -> Seconds {
        Seconds(self.execution * execution.value() + self.penalty * penalty.value())
    }

    /// Combine all three measures. The two-term sum is computed first
    /// with the exact legacy arithmetic; the money term is added only
    /// when its weight is non-zero, so `money == 0.0` is bit-identical
    /// to [`CostWeights::combine`] even for infinite/NaN dollar values.
    #[inline]
    pub fn combine3(&self, execution: Seconds, penalty: Seconds, money: Dollars) -> Seconds {
        let base = self.combine(execution, penalty);
        if self.money != 0.0 {
            Seconds(base.value() + self.money * money.value())
        } else {
            base
        }
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        Self::EQUAL
    }
}

/// The evaluated cost of a mapping, in all its components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// `Texecute`: expected time from workflow start to completion.
    pub execution: Seconds,
    /// The fairness time penalty (0 = perfectly proportional loads).
    pub penalty: Seconds,
    /// Dollars billed for the servers the mapping occupies ($0 outside
    /// geo scenarios).
    pub money: Dollars,
    /// `weights.combine3(execution, penalty, money)`.
    pub combined: Seconds,
}

impl CostBreakdown {
    /// Assemble a bi-objective breakdown given the weights ($0 money).
    pub fn new(execution: Seconds, penalty: Seconds, weights: &CostWeights) -> Self {
        Self {
            execution,
            penalty,
            money: Dollars::ZERO,
            combined: weights.combine(execution, penalty),
        }
    }

    /// Assemble a tri-criteria breakdown given the weights.
    pub fn with_money(
        execution: Seconds,
        penalty: Seconds,
        money: Dollars,
        weights: &CostWeights,
    ) -> Self {
        Self {
            execution,
            penalty,
            money,
            combined: weights.combine3(execution, penalty, money),
        }
    }

    /// Dominance in the Pareto sense: better-or-equal in every dimension
    /// and strictly better in at least one.
    pub fn dominates(&self, other: &CostBreakdown) -> bool {
        (self.execution <= other.execution
            && self.penalty <= other.penalty
            && self.money <= other.money)
            && (self.execution < other.execution
                || self.penalty < other.penalty
                || self.money < other.money)
    }

    /// Euclidean distance from the ideal point (0, 0) — the paper plots
    /// solutions on (execution, penalty) axes and calls solutions closer
    /// to the origin better. The money axis is deliberately excluded:
    /// dollars and seconds do not share a scale.
    pub fn distance_to_origin(&self) -> f64 {
        self.execution.value().hypot(self.penalty.value())
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exec {:.4}, penalty {:.4}, combined {:.4}",
            self.execution, self.penalty, self.combined
        )?;
        if !self.money.is_zero() {
            write!(f, ", money {:.4}", self.money)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_sum() {
        let w = CostWeights::default();
        assert_eq!(w, CostWeights::EQUAL);
        assert_eq!(w.combine(Seconds(2.0), Seconds(3.0)), Seconds(5.0));
        assert!(!w.uses_money());
    }

    #[test]
    fn single_objective_weights() {
        assert_eq!(
            CostWeights::EXECUTION_ONLY.combine(Seconds(2.0), Seconds(3.0)),
            Seconds(2.0)
        );
        assert_eq!(
            CostWeights::PENALTY_ONLY.combine(Seconds(2.0), Seconds(3.0)),
            Seconds(3.0)
        );
    }

    #[test]
    fn custom_weights() {
        let w = CostWeights::new(0.25, 0.75);
        assert_eq!(w.combine(Seconds(4.0), Seconds(4.0)), Seconds(4.0));
        assert_eq!(w.money, 0.0);
    }

    #[test]
    fn tri_weights_fold_money() {
        let w = CostWeights::tri(1.0, 1.0, 2.0);
        assert!(w.uses_money());
        assert_eq!(
            w.combine3(Seconds(2.0), Seconds(3.0), Dollars(0.5)),
            Seconds(6.0)
        );
    }

    #[test]
    fn zero_money_weight_is_bit_identical_to_legacy_combine() {
        let w = CostWeights::new(0.3, 0.7);
        for (e, p) in [(1.25, 3.5), (0.1, 0.0), (7.77, 1e-9)] {
            let legacy = w.combine(Seconds(e), Seconds(p));
            // Even a pathological money value must not perturb the scalar
            // when the weight is zero (the term is skipped, not added).
            let tri = w.combine3(Seconds(e), Seconds(p), Dollars(f64::INFINITY));
            assert_eq!(legacy.value().to_bits(), tri.value().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_weights() {
        let _ = CostWeights::new(-1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_money_weight() {
        let _ = CostWeights::tri(1.0, 1.0, -0.1);
    }

    #[test]
    fn breakdown() {
        let b = CostBreakdown::new(Seconds(3.0), Seconds(4.0), &CostWeights::EQUAL);
        assert_eq!(b.combined, Seconds(7.0));
        assert_eq!(b.money, Dollars::ZERO);
        assert!((b.distance_to_origin() - 5.0).abs() < 1e-12);
        assert!(b.to_string().contains("combined"));
        assert!(!b.to_string().contains("money"));

        let w = CostWeights::tri(1.0, 1.0, 1.0);
        let b = CostBreakdown::with_money(Seconds(3.0), Seconds(4.0), Dollars(2.0), &w);
        assert_eq!(b.combined, Seconds(9.0));
        assert!(b.to_string().contains("money"));
    }

    #[test]
    fn dominance() {
        let w = CostWeights::EQUAL;
        let a = CostBreakdown::new(Seconds(1.0), Seconds(1.0), &w);
        let b = CostBreakdown::new(Seconds(2.0), Seconds(1.0), &w);
        let c = CostBreakdown::new(Seconds(0.5), Seconds(2.0), &w);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c) && !c.dominates(&a)); // incomparable
        assert!(!a.dominates(&a)); // not strict

        // The money axis participates: same times, cheaper dollars wins.
        let tw = CostWeights::tri(1.0, 1.0, 1.0);
        let cheap = CostBreakdown::with_money(Seconds(1.0), Seconds(1.0), Dollars(1.0), &tw);
        let dear = CostBreakdown::with_money(Seconds(1.0), Seconds(1.0), Dollars(2.0), &tw);
        assert!(cheap.dominates(&dear));
        assert!(!dear.dominates(&cheap));
    }
}
