//! # wsflow-model — workflow model
//!
//! The workflow side of the deployment problem from *"Efficient
//! Deployment of Web Service Workflows"* (Stamkopoulos, Pitoura,
//! Vassiliadis; ICDE 2007): a directed graph `W(O, E)` whose nodes are
//! web-service operations and whose edges are the XML messages exchanged
//! between them (§2.2 of the paper).
//!
//! Main entry points:
//!
//! * [`Workflow`] — the graph itself; construct with [`Workflow::new`],
//!   [`WorkflowBuilder`], [`BlockSpec::lower`], or [`dsl::parse`].
//! * [`validate()`] / [`recover_structure`] — the paper's well-formedness
//!   check ("decision nodes and their complements act as parentheses").
//! * [`ExecutionProbabilities`] — probability-weighted execution derived
//!   from XOR branch annotations (§3.4).
//! * [`units`] — strongly-typed quantities (`MCycles`, `MegaHertz`,
//!   `Mbits`, `MbitsPerSec`, `Seconds`, `Probability`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod dot;
pub mod dsl;
pub mod error;
pub mod ids;
pub mod message;
pub mod op;
pub mod probability;
pub mod stats;
pub mod structure;
pub mod traversal;
pub mod units;
pub mod workflow;

pub use builder::{BlockSpec, WorkflowBuilder};
pub use dot::workflow_dot;
pub use error::{ModelError, ValidationError};
pub use ids::{MsgId, OpId};
pub use message::Message;
pub use op::{DecisionKind, OpKind, Operation};
pub use probability::ExecutionProbabilities;
pub use stats::WorkflowStats;
pub use structure::{recover_structure, BlockTree};
pub use units::{
    Dollars, DollarsPerHour, MCycles, Mbits, MbitsPerSec, MegaHertz, Probability, Seconds,
};
pub use validate::{is_well_formed, validate, validate_structure};
pub use workflow::Workflow;

pub mod validate;
