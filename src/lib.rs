//! # wsflow — efficient deployment of web service workflows
//!
//! A faithful, production-grade reproduction of *"Efficient Deployment
//! of Web Service Workflows"* (K. Stamkopoulos, E. Pitoura,
//! P. Vassiliadis; ICDE 2007 workshops): given a workflow of
//! web-service operations `W(O, E)` and a network of servers `N(S, L)`,
//! find a deployment `O → S` that minimises workflow execution time
//! while keeping the servers' loads fair.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — workflows: operations, decision nodes (AND/OR/XOR),
//!   messages, well-formedness, execution probabilities.
//! * [`net`] — server networks: line/bus/star/ring/mesh topologies and
//!   routing.
//! * [`cost`] — the paper's Table-1 cost model: `Texecute`, per-server
//!   load, the fairness time penalty, and the combined objective.
//! * [`core`] — the deployment algorithms: Exhaustive, Line–Line (four
//!   variants), Fair Load, the Tie-Resolvers, Merge-Messages'-Ends, and
//!   HeavyOps-LargeMsgs, plus local-search refiners.
//! * [`sim`] — a discrete-event simulator for cross-validation and
//!   contention studies.
//! * [`workload`] — the §4.1 experiment classes and random workflow
//!   generators (bushy/lengthy/hybrid).
//! * [`dynamic`] — dynamic environments: seeded fault injection and the
//!   online re-deployment controller (Static / FullResolve /
//!   IncrementalRepair / ThresholdTriggered policies).
//! * [`harness`] — runners that regenerate every table and figure in
//!   the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use wsflow::prelude::*;
//!
//! // A 6-operation pipeline with class-C costs.
//! let mut b = WorkflowBuilder::new("pipeline");
//! b.line("stage", &[MCycles(20.0); 6], Mbits(0.057838));
//! let workflow = b.build().unwrap();
//!
//! // Three servers on a 100 Mbps bus.
//! let network = wsflow::net::topology::bus(
//!     "cluster",
//!     wsflow::net::topology::homogeneous_servers(3, 2.0),
//!     MbitsPerSec(100.0),
//! ).unwrap();
//!
//! let problem = Problem::new(workflow, network).unwrap();
//! let mapping = HeavyOpsLargeMsgs.deploy(&problem).unwrap();
//! let cost = Evaluator::new(&problem).evaluate(&mapping);
//! assert!(cost.execution.value() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;

pub use wsflow_core as core;
pub use wsflow_cost as cost;
pub use wsflow_dyn as dynamic;
pub use wsflow_harness as harness;
pub use wsflow_model as model;
pub use wsflow_net as net;
pub use wsflow_sim as sim;
pub use wsflow_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use wsflow_core::{
        AllOnFastest, BestOfRandom, DeployError, DeploymentAlgorithm, ElasticProvision, Exhaustive,
        FairLoad, FairLoadMergeMessages, FairLoadTieResolver, FairLoadTieResolver2,
        HeavyOpsLargeMsgs, HillClimb, LineLine, Portfolio, RandomMapping, RoundRobin,
        SimulatedAnnealing,
    };
    pub use wsflow_cost::{
        CostBreakdown, CostWeights, Evaluator, Mapping, Problem, UserConstraints,
    };
    pub use wsflow_model::{
        BlockSpec, DecisionKind, Dollars, DollarsPerHour, MCycles, Mbits, MbitsPerSec, MegaHertz,
        Message, OpId, Operation, Probability, Seconds, Workflow, WorkflowBuilder,
    };
    pub use wsflow_net::{Network, RegionId, Server, ServerId, TopologyKind, ZoneId};
    pub use wsflow_sim::{monte_carlo, simulate, SimConfig};
    pub use wsflow_workload::{ExperimentClass, GraphClass};
}
