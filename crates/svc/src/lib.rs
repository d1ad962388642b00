//! # wsflow-svc — the multi-tenant deployment service
//!
//! Turns the anytime solver core ([`wsflow_core::SolveCtx`]) into a
//! long-running service: clients submit deployment requests over a
//! versioned length-prefixed TCP protocol ([`proto`]), a weighted-fair
//! scheduler ([`queue`], [`sched`]) dispatches them onto a bounded
//! worker pool, and incumbent improvements stream back to the client as
//! they are found, followed by the final [`wsflow_core::SolveOutcome`].
//!
//! Two execution modes share the same queueing structure:
//!
//! * **threaded** ([`sched::Scheduler`] behind [`daemon`]) — real OS
//!   worker threads behind a TCP listener; client disconnect cancels
//!   the solve via [`wsflow_core::CancelToken`];
//! * **virtual time** ([`virt`]) — a deterministic discrete-event
//!   simulation of the same scheduler (1 logical solver step = 1
//!   virtual microsecond of service), used by the `loadgen` experiment
//!   so latency distributions are byte-identical across machines,
//!   `WSFLOW_THREADS` settings, and obs on/off.
//!
//! Admission control (per-tenant and service-wide queue bounds) rejects
//! excess load with a typed backpressure error instead of queueing
//! without bound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod config;
pub mod daemon;
pub mod proto;
pub mod queue;
pub mod sched;
pub mod virt;

pub use client::{submit, ClientError};
pub use config::{port_from_env, SvcConfig};
pub use daemon::{DaemonConfig, DaemonHandle};
pub use proto::{ProblemSpec, RejectReason, Reply, Request};
pub use queue::FairQueue;
pub use sched::{JobEvent, JobReport, SchedStats, Scheduler};
pub use virt::{Arrival, RequestReport, VirtualService};

use wsflow_core::{
    DeploymentAlgorithm, FairLoad, FairLoadMergeMessages, FairLoadTieResolver,
    FairLoadTieResolver2, HeavyOpsLargeMsgs, HillClimb, Portfolio, SimulatedAnnealing,
};
use wsflow_cost::Problem;
use wsflow_model::MbitsPerSec;
use wsflow_workload::{Configuration, ExperimentClass, GraphClass};

/// A solver that can cross a thread boundary into the worker pool.
pub type BoxedAlgorithm = Box<dyn DeploymentAlgorithm + Send + Sync>;

/// Resolve an algorithm by its wire name; `seed` feeds the randomised
/// members. `None` for unknown names (the caller turns that into a
/// [`Reply::Invalid`]).
///
/// Accepted names: `fairload`, `fltr`, `fltr2`, `flmme`, `holm`,
/// `portfolio`, `blackboard`, `hillclimb`, `sa`, `exhaustive`.
pub fn resolve_algorithm(name: &str, seed: u64) -> Option<BoxedAlgorithm> {
    Some(match name {
        "fairload" => Box::new(FairLoad),
        "fltr" => Box::new(FairLoadTieResolver::new(seed)),
        "fltr2" => Box::new(FairLoadTieResolver2::new(seed)),
        "flmme" => Box::new(FairLoadMergeMessages::new(seed)),
        "holm" => Box::new(HeavyOpsLargeMsgs),
        "portfolio" => Box::new(Portfolio::new(seed)),
        "blackboard" => Box::new(wsflow_core::Blackboard::new(seed)),
        "hillclimb" => Box::new(HillClimb::new(Portfolio::new(seed))),
        "sa" => Box::new(SimulatedAnnealing::new(seed)),
        "exhaustive" => Box::new(wsflow_core::Exhaustive::new()),
        _ => return None,
    })
}

/// The algorithm names [`resolve_algorithm`] accepts, for error
/// messages and CLI help.
pub const ALGORITHM_NAMES: &[&str] = &[
    "fairload",
    "fltr",
    "fltr2",
    "flmme",
    "holm",
    "portfolio",
    "blackboard",
    "hillclimb",
    "sa",
    "exhaustive",
];

/// Materialise a wire [`ProblemSpec`] into a solvable [`Problem`].
///
/// Errors are human-readable one-liners destined for
/// [`Reply::Invalid`]; nothing here panics on hostile input.
pub fn build_problem(spec: &ProblemSpec) -> Result<Problem, String> {
    match spec {
        ProblemSpec::Generated {
            shape,
            ops,
            servers,
            bus_mbps,
            seed,
        } => {
            let ops = *ops as usize;
            let servers = *servers as usize;
            if ops == 0 || ops > 10_000 {
                return Err(format!("ops must be in 1..=10000, got {ops}"));
            }
            if servers == 0 || servers > 1_000 {
                return Err(format!("servers must be in 1..=1000, got {servers}"));
            }
            if !bus_mbps.is_finite() || *bus_mbps <= 0.0 {
                return Err(format!("bus_mbps must be positive, got {bus_mbps}"));
            }
            let speed = MbitsPerSec(*bus_mbps);
            let config = match shape.as_str() {
                "line" => Configuration::LineBus(speed),
                "bushy" => Configuration::GraphBus(GraphClass::Bushy, speed),
                "lengthy" => Configuration::GraphBus(GraphClass::Lengthy, speed),
                "hybrid" => Configuration::GraphBus(GraphClass::Hybrid, speed),
                other => {
                    return Err(format!(
                        "unknown shape {other:?} (expected line, bushy, lengthy, or hybrid)"
                    ))
                }
            };
            let class = ExperimentClass::class_c();
            let scenario = wsflow_workload::generate(config, ops, servers, &class, *seed);
            Problem::new(scenario.workflow, scenario.network).map_err(|e| e.to_string())
        }
        ProblemSpec::Inline {
            workflow,
            server_ghz,
            bus_mbps,
        } => {
            if server_ghz.is_empty() || server_ghz.len() > 1_000 {
                return Err(format!(
                    "server_ghz must name 1..=1000 servers, got {}",
                    server_ghz.len()
                ));
            }
            let wf = wsflow_model::dsl::parse(workflow).map_err(|e| e.to_string())?;
            let servers = server_ghz
                .iter()
                .enumerate()
                .map(|(i, g)| wsflow_net::Server::with_ghz(format!("s{i}"), *g))
                .collect();
            let net = wsflow_net::topology::bus("svc", servers, MbitsPerSec(*bus_mbps))
                .map_err(|e| e.to_string())?;
            Problem::new(wf, net).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_algorithm_resolves() {
        for name in ALGORITHM_NAMES {
            let algo = resolve_algorithm(name, 7).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!algo.name().is_empty());
        }
        assert!(resolve_algorithm("magic", 7).is_none());
    }

    #[test]
    fn generated_spec_builds_a_problem() {
        let spec = ProblemSpec::Generated {
            shape: "hybrid".into(),
            ops: 12,
            servers: 4,
            bus_mbps: 100.0,
            seed: 7,
        };
        let p = build_problem(&spec).unwrap();
        assert_eq!(p.num_ops(), 12);
        assert_eq!(p.num_servers(), 4);
        // Same spec, same problem: the wire format carries seeds, not
        // graphs, so both ends must regenerate identically.
        let q = build_problem(&spec).unwrap();
        assert_eq!(p.workflow(), q.workflow());
    }

    #[test]
    fn inline_spec_builds_a_problem() {
        let spec = ProblemSpec::Inline {
            workflow: "workflow demo\nnode A op 50\nnode B op 10\nmsg A B 0.05\n".into(),
            server_ghz: vec![1.0, 2.5],
            bus_mbps: 10.0,
        };
        let p = build_problem(&spec).unwrap();
        assert_eq!(p.num_ops(), 2);
        assert_eq!(p.num_servers(), 2);
    }

    #[test]
    fn invalid_specs_are_one_line_errors() {
        let bad = [
            ProblemSpec::Generated {
                shape: "spiral".into(),
                ops: 12,
                servers: 4,
                bus_mbps: 100.0,
                seed: 7,
            },
            ProblemSpec::Generated {
                shape: "line".into(),
                ops: 0,
                servers: 4,
                bus_mbps: 100.0,
                seed: 7,
            },
            ProblemSpec::Generated {
                shape: "line".into(),
                ops: 5,
                servers: 2,
                bus_mbps: -1.0,
                seed: 7,
            },
            ProblemSpec::Inline {
                workflow: "not a workflow".into(),
                server_ghz: vec![1.0],
                bus_mbps: 10.0,
            },
            ProblemSpec::Inline {
                workflow: "workflow w\nnode A op 1\n".into(),
                server_ghz: vec![],
                bus_mbps: 10.0,
            },
            // Ratings and bus speeds are checked by the network
            // constructor: finite and positive.
            ProblemSpec::Inline {
                workflow: "workflow w\nnode A op 1\n".into(),
                server_ghz: vec![f64::INFINITY, 1.0],
                bus_mbps: 10.0,
            },
            ProblemSpec::Inline {
                workflow: "workflow w\nnode A op 1\n".into(),
                server_ghz: vec![1.0, -2.0],
                bus_mbps: 10.0,
            },
            ProblemSpec::Inline {
                workflow: "workflow w\nnode A op 1\n".into(),
                server_ghz: vec![1.0, 1.0],
                bus_mbps: f64::NAN,
            },
            // The bus build grows as N², so inline pools are capped like
            // generated ones.
            ProblemSpec::Inline {
                workflow: "workflow w\nnode A op 1\n".into(),
                server_ghz: vec![1.0; 1_001],
                bus_mbps: 10.0,
            },
        ];
        for spec in bad {
            let err = build_problem(&spec).unwrap_err();
            assert!(!err.is_empty());
            assert!(!err.contains('\n'), "one-line error, got {err:?}");
        }
    }
}
