//! # wsflow-sim — discrete-event simulator
//!
//! An independent execution model for deployed workflows. Where
//! `wsflow-cost` computes the paper's *analytic expected* metrics, this
//! crate plays executions out event by event: XOR branches are sampled,
//! OR branches race, and — beyond the paper's assumptions — servers can
//! queue operations FIFO and the shared bus can serialise messages.
//!
//! Uses:
//!
//! * cross-validate the analytic model ([`simulate`] with
//!   [`SimConfig::ideal`] matches `texecute` exactly on deterministic
//!   workflows, and in expectation on XOR workflows),
//! * quantify what the analytic model misses under contention
//!   ([`SimConfig::contended`]),
//! * estimate XOR probabilities from "monitored" executions
//!   ([`BranchEstimates`]), the paper's §3.4 deployment input,
//! * replay environment fault timelines mid-run ([`simulate_dynamic`]):
//!   crashed servers stall their operations, degraded links stretch
//!   transfers — the substrate of the `wsflow-dyn` control loop,
//! * measure load scale-up under a Poisson stream of workflow instances
//!   sharing the servers ([`open_loop()`]).
//!
//! There is one discrete-event engine ([`engine`]). A single execution
//! is a stream of one instance arriving at `t = 0`; an open-loop run is
//! the same engine fed one arrival per instance, with FIFO servers.
//! Message transfers charge the geo extension's inter-region surcharge
//! exactly as the analytic model does.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod estimate;
pub mod monte_carlo;
pub mod open_loop;
pub mod trace;

pub use engine::{
    simulate, simulate_dynamic, simulate_dynamic_traced, simulate_traced, SimConfig, SimOutcome,
};
pub use estimate::BranchEstimates;
pub use monte_carlo::{run as monte_carlo, MonteCarloResult, SampleStats};
pub use open_loop::{open_loop, OpenLoopConfig, OpenLoopResult};
pub use trace::{ExecutionTrace, TraceEvent, TraceKind};
