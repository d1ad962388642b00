//! User constraints `C` (§2.2 of the paper).
//!
//! "In the broadest possible variant of the problem, we can also assume a
//! set of user constraints C, concerning for example an upper bound on
//! the completion time of a workflow or on the distribution of load among
//! the servers."

use std::fmt;

use wsflow_model::Seconds;

use crate::objective::CostBreakdown;

/// Optional upper bounds a mapping must respect.
///
/// # Examples
///
/// ```
/// use wsflow_cost::{CostBreakdown, CostWeights, UserConstraints};
/// use wsflow_model::Seconds;
///
/// let slo = UserConstraints::none()
///     .with_max_execution_time(Seconds(0.250))
///     .with_max_time_penalty(Seconds(0.020));
/// let cost = CostBreakdown::new(Seconds(0.2), Seconds(0.01), &CostWeights::EQUAL);
/// assert!(slo.check(&cost, Seconds(0.1)).is_ok());
/// let slow = CostBreakdown::new(Seconds(0.3), Seconds(0.01), &CostWeights::EQUAL);
/// assert!(slo.check(&slow, Seconds(0.1)).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserConstraints {
    /// Upper bound on `Texecute`.
    pub max_execution_time: Option<Seconds>,
    /// Upper bound on the fairness time penalty.
    pub max_time_penalty: Option<Seconds>,
    /// Upper bound on any single server's load.
    pub max_server_load: Option<Seconds>,
}

/// Which constraint a mapping violated, and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintViolation {
    /// `Texecute` exceeded the bound.
    ExecutionTime {
        /// The configured bound.
        bound: Seconds,
        /// The observed value.
        actual: Seconds,
    },
    /// The time penalty exceeded the bound.
    TimePenalty {
        /// The configured bound.
        bound: Seconds,
        /// The observed value.
        actual: Seconds,
    },
    /// Some server's load exceeded the bound.
    ServerLoad {
        /// The configured bound.
        bound: Seconds,
        /// The largest observed per-server load.
        actual: Seconds,
    },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::ExecutionTime { bound, actual } => {
                write!(f, "execution time {actual:.4} exceeds bound {bound:.4}")
            }
            ConstraintViolation::TimePenalty { bound, actual } => {
                write!(f, "time penalty {actual:.4} exceeds bound {bound:.4}")
            }
            ConstraintViolation::ServerLoad { bound, actual } => {
                write!(f, "server load {actual:.4} exceeds bound {bound:.4}")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

impl UserConstraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` if no bound is configured.
    pub fn is_none(&self) -> bool {
        self.max_execution_time.is_none()
            && self.max_time_penalty.is_none()
            && self.max_server_load.is_none()
    }

    /// Builder-style: bound `Texecute`.
    pub fn with_max_execution_time(mut self, t: Seconds) -> Self {
        self.max_execution_time = Some(t);
        self
    }

    /// Builder-style: bound the time penalty.
    pub fn with_max_time_penalty(mut self, t: Seconds) -> Self {
        self.max_time_penalty = Some(t);
        self
    }

    /// Builder-style: bound any single server's load.
    pub fn with_max_server_load(mut self, t: Seconds) -> Self {
        self.max_server_load = Some(t);
        self
    }

    /// Check an evaluated mapping against the bounds. `max_load` is the
    /// largest per-server load of the mapping.
    pub fn check(
        &self,
        cost: &CostBreakdown,
        max_load: Seconds,
    ) -> Result<(), ConstraintViolation> {
        if let Some(bound) = self.max_execution_time {
            if cost.execution > bound {
                return Err(ConstraintViolation::ExecutionTime {
                    bound,
                    actual: cost.execution,
                });
            }
        }
        if let Some(bound) = self.max_time_penalty {
            if cost.penalty > bound {
                return Err(ConstraintViolation::TimePenalty {
                    bound,
                    actual: cost.penalty,
                });
            }
        }
        if let Some(bound) = self.max_server_load {
            if max_load > bound {
                return Err(ConstraintViolation::ServerLoad {
                    bound,
                    actual: max_load,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::CostWeights;

    fn cost(exec: f64, pen: f64) -> CostBreakdown {
        CostBreakdown::new(Seconds(exec), Seconds(pen), &CostWeights::EQUAL)
    }

    #[test]
    fn none_passes_everything() {
        let c = UserConstraints::none();
        assert!(c.is_none());
        assert!(c.check(&cost(1e9, 1e9), Seconds(1e9)).is_ok());
    }

    #[test]
    fn execution_bound() {
        let c = UserConstraints::none().with_max_execution_time(Seconds(1.0));
        assert!(!c.is_none());
        assert!(c.check(&cost(0.5, 100.0), Seconds(0.0)).is_ok());
        let err = c.check(&cost(2.0, 0.0), Seconds(0.0)).unwrap_err();
        assert!(matches!(err, ConstraintViolation::ExecutionTime { .. }));
        assert!(err.to_string().contains("execution time"));
    }

    #[test]
    fn penalty_bound() {
        let c = UserConstraints::none().with_max_time_penalty(Seconds(1.0));
        assert!(c.check(&cost(10.0, 0.5), Seconds(0.0)).is_ok());
        assert!(matches!(
            c.check(&cost(0.0, 2.0), Seconds(0.0)).unwrap_err(),
            ConstraintViolation::TimePenalty { .. }
        ));
    }

    #[test]
    fn load_bound() {
        let c = UserConstraints::none().with_max_server_load(Seconds(1.0));
        assert!(c.check(&cost(0.0, 0.0), Seconds(0.9)).is_ok());
        assert!(matches!(
            c.check(&cost(0.0, 0.0), Seconds(1.1)).unwrap_err(),
            ConstraintViolation::ServerLoad { .. }
        ));
    }

    #[test]
    fn all_bounds_combined() {
        let c = UserConstraints::none()
            .with_max_execution_time(Seconds(1.0))
            .with_max_time_penalty(Seconds(1.0))
            .with_max_server_load(Seconds(1.0));
        assert!(c.check(&cost(0.5, 0.5), Seconds(0.5)).is_ok());
    }
}
