//! # wsflow-core — the deployment algorithms
//!
//! The primary contribution of *"Efficient Deployment of Web Service
//! Workflows"*: a suite of greedy algorithms mapping workflow operations
//! onto servers, one family per (workflow × network) topology
//! combination (Fig. 2 of the paper):
//!
//! | Configuration | Algorithms |
//! |---|---|
//! | any × any (small) | [`Exhaustive`] |
//! | Line × Line | [`LineLine`] and its four variants |
//! | Line × Bus, Graph × Bus | [`FairLoad`], [`FairLoadTieResolver`], [`FairLoadTieResolver2`], [`FairLoadMergeMessages`], [`HeavyOpsLargeMsgs`] |
//!
//! The bus-family algorithms accept arbitrary well-formed workflows: the
//! §3.4 probability weighting is applied uniformly through
//! [`InstanceView`], so linear workflows are simply the special case
//! where every probability is 1.
//!
//! Extensions beyond the paper: local-search refiners ([`HillClimb`],
//! [`SimulatedAnnealing`]) and sampling baselines used by the §4.1
//! quality study.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod baselines;
pub mod blackboard;
pub mod branch_bound;
pub mod constrained;
pub mod elastic;
pub mod exhaustive;
pub mod fair_load;
pub mod flmme;
pub mod fltr;
pub mod fltr2;
pub mod gain;
pub mod hierarchical;
pub mod holm;
pub mod line_line;
pub mod multi;
pub mod partition;
pub mod portfolio;
pub mod refine;
pub mod registry;
pub mod solve;
pub mod view;

pub use algorithm::{DeployError, DeploymentAlgorithm};
pub use baselines::{AllOnFastest, BestOfRandom, RandomMapping, RoundRobin};
pub use blackboard::{Blackboard, BlackboardStats, SourceStats};
pub use branch_bound::{BnbOutcome, BranchAndBound};
pub use constrained::{violation, ConstrainedDeploy, ConstrainedError};
pub use elastic::ElasticProvision;
pub use exhaustive::{optimum, pareto_front_exhaustive, Exhaustive};
pub use fair_load::FairLoad;
pub use flmme::FairLoadMergeMessages;
pub use fltr::FairLoadTieResolver;
pub use fltr2::FairLoadTieResolver2;
pub use gain::gain_of_op_at_server;
pub use hierarchical::Hierarchical;
pub use holm::HeavyOpsLargeMsgs;
pub use line_line::{Direction, LineLine};
pub use multi::{deploy_joint_fair, deploy_sequential, MultiCost, MultiProblem};
pub use partition::{partition_ops, Partition};
pub use portfolio::Portfolio;
pub use refine::{
    hill_climb_ctx, moves_and_swaps_ctx, swap_refine_ctx, HillClimb, SimulatedAnnealing,
};
pub use solve::{CancelToken, SolveCtx, SolveOutcome, Termination, TrajectoryPoint};
pub use view::{InstanceView, MsgView};
