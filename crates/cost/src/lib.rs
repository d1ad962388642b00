//! # wsflow-cost — the analytic cost model
//!
//! Implements Table 1 of *"Efficient Deployment of Web Service
//! Workflows"*: processing time, communication time, per-server load,
//! the fairness *time penalty*, the workflow execution time `Texecute`,
//! and the combined bi-objective cost.
//!
//! Main entry points:
//!
//! * [`Problem`] — a validated (workflow, network, objective) instance.
//! * [`Mapping`] / [`PartialMapping`] — deployments `O → S`.
//! * [`Evaluator`] — the one production kernel of Table 1: prepared,
//!   allocation-free evaluation of execution time, loads, penalty and
//!   the combined cost.
//! * [`DeltaEvaluator`] — the same kernel kept incrementally for
//!   single-move local search.
//! * [`critical_path()`] — the chain of operations and messages behind
//!   one deployment's execution time.
//!
//! The [`reference`](mod@reference) module holds an independent
//! implementation of the model that tests check the kernel against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comm;
pub mod constraints;
pub mod critical_path;
pub mod delta;
pub mod dot;
pub mod evaluator;
pub mod load;
pub mod mapping;
pub mod migration;
pub mod money;
pub mod objective;
pub mod pareto;
pub mod problem;
pub mod reference;

pub use comm::{network_traffic, CommMatrix, PairCoeff};
pub use constraints::{ConstraintViolation, UserConstraints};
pub use critical_path::{critical_path, CriticalPath, CriticalStep};
pub use delta::{DeltaEvaluator, MoveProposal};
pub use dot::deployment_dot;
pub use evaluator::Evaluator;
pub use load::{effective_cycles, ideal_cycles};
pub use mapping::{Mapping, PartialMapping};
pub use migration::{plan_migration, MigrationModel, MigrationMove, MigrationPlan};
pub use money::{billed, deployment_cost, PriceTable};
pub use objective::{CostBreakdown, CostWeights};
pub use pareto::{dominated_fraction, hypervolume, pareto_front, ParetoPoint};
pub use problem::{Problem, ProblemError};
