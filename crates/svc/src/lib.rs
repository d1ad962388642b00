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
//! without bound. The daemon builds a repeated inline server pool once
//! ([`PoolMemo`]).

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
pub use sched::{JobEvent, JobReport, Scheduler};
pub use virt::{Arrival, RequestReport, VirtualService};
pub use wsflow_core::registry::BoxedAlgorithm;

use std::sync::{Arc, Mutex};

use wsflow_cost::{CommMatrix, CostWeights, Problem};
use wsflow_model::{MbitsPerSec, Workflow};
use wsflow_net::{topology, Network, RoutingTable};
use wsflow_workload::{Configuration, ExperimentClass, GraphClass};

/// Resolve an algorithm by its wire name ([`wsflow_core::registry::by_name`]);
/// `None` for unknown names (the caller turns that into a
/// [`Reply::Invalid`]).
pub fn resolve_algorithm(name: &str, seed: u64) -> Option<BoxedAlgorithm> {
    wsflow_core::registry::by_name(name, seed)
}

/// The algorithm names [`resolve_algorithm`] accepts
/// ([`wsflow_core::registry::NAMES`]).
pub const ALGORITHM_NAMES: &[&str] = wsflow_core::registry::NAMES;

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
            check_pool_size(server_ghz)?;
            let wf = parse_workflow(workflow)?;
            let net = topology::ghz_bus("svc", server_ghz, MbitsPerSec(*bus_mbps))
                .map_err(|e| e.to_string())?;
            Problem::new(wf, net).map_err(|e| e.to_string())
        }
    }
}

/// Inline pools are capped like generated ones: the bus build grows as
/// N².
fn check_pool_size(server_ghz: &[f64]) -> Result<(), String> {
    if server_ghz.is_empty() || server_ghz.len() > 1_000 {
        return Err(format!(
            "server_ghz must name 1..=1000 servers, got {}",
            server_ghz.len()
        ));
    }
    Ok(())
}

fn parse_workflow(text: &str) -> Result<Workflow, String> {
    wsflow_model::dsl::parse(text).map_err(|e| e.to_string())
}

/// The parts of a [`Problem`] that depend only on its server pool; see
/// [`Problem::shared_network`].
type SharedNetwork = (Arc<Network>, Arc<RoutingTable>, Arc<CommMatrix>);

/// A one-slot memo of the last inline server pool a daemon built.
///
/// The key is the exact bits of an inline spec's `server_ghz` and
/// `bus_mbps`: the whole input of [`topology::ghz_bus`]. The same bits
/// always build the same network, routes and communication coefficients,
/// so an entry never goes stale and nothing invalidates it. A request
/// whose pool matches gets its problem from
/// [`Problem::with_shared_network`] and skips the bus build, the
/// all-pairs routing and the coefficient matrix; any other request runs
/// [`build_problem`], and a successful inline build replaces the slot.
/// Sharing routes is a semantic no-op, so a reply never depends on
/// whether the memo hit.
///
/// The memo holds at most one pool's parts, plus whatever in-flight
/// problems still share an evicted one. Its lock is held only to compare
/// keys and clone three `Arc`s, never while building; a poisoned lock
/// counts as a miss.
#[derive(Debug, Default)]
pub struct PoolMemo {
    slot: Mutex<Option<(PoolKey, SharedNetwork)>>,
}

/// An inline pool's ratings and bus speed, compared bit for bit.
#[derive(Debug)]
struct PoolKey {
    ghz: Vec<f64>,
    bus_mbps: f64,
}

impl PoolKey {
    fn matches(&self, ghz: &[f64], bus_mbps: f64) -> bool {
        self.bus_mbps.to_bits() == bus_mbps.to_bits()
            && self.ghz.len() == ghz.len()
            && self
                .ghz
                .iter()
                .zip(ghz)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl PoolMemo {
    /// [`build_problem`], reusing the network of the last inline pool
    /// built if `spec` names the same one. Results and errors are
    /// exactly [`build_problem`]'s.
    pub fn problem(&self, spec: &ProblemSpec) -> Result<Problem, String> {
        let ProblemSpec::Inline {
            workflow,
            server_ghz,
            bus_mbps,
        } = spec
        else {
            return build_problem(spec);
        };
        check_pool_size(server_ghz)?;
        if let Some(parts) = self.lookup(server_ghz, *bus_mbps) {
            let wf = parse_workflow(workflow)?;
            return Problem::with_shared_network(wf, parts, CostWeights::default())
                .map_err(|e| e.to_string());
        }
        let problem = build_problem(spec)?;
        let key = PoolKey {
            ghz: server_ghz.clone(),
            bus_mbps: *bus_mbps,
        };
        let evicted = self
            .slot
            .lock()
            .ok()
            .and_then(|mut slot| slot.replace((key, problem.shared_network())));
        // The old pool's parts are freed here, outside the lock.
        drop(evicted);
        Ok(problem)
    }

    fn lookup(&self, ghz: &[f64], bus_mbps: f64) -> Option<SharedNetwork> {
        let slot = self.slot.lock().ok()?;
        let (key, parts) = slot.as_ref()?;
        key.matches(ghz, bus_mbps).then(|| parts.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_net::ServerId;

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

    /// Every spec [`build_problem`] must refuse.
    fn bad_specs() -> Vec<ProblemSpec> {
        vec![
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
            // Bad workflows on a valid pool: one fails to parse, one
            // parses but opens an AND block it never closes.
            ProblemSpec::Inline {
                workflow: "not a workflow".into(),
                server_ghz: vec![1.0, 1.0],
                bus_mbps: 10.0,
            },
            ProblemSpec::Inline {
                workflow: "workflow w\nnode A and\nnode B op 1\nnode C op 1\n\
                           msg A B 1\nmsg A C 1\n"
                    .into(),
                server_ghz: vec![1.0, 1.0],
                bus_mbps: 10.0,
            },
        ]
    }

    #[test]
    fn invalid_specs_are_one_line_errors() {
        for spec in bad_specs() {
            let err = build_problem(&spec).unwrap_err();
            assert!(!err.is_empty());
            assert!(!err.contains('\n'), "one-line error, got {err:?}");
        }
    }

    /// A 40-op hybrid workflow on `pool`, in the text form clients send.
    fn inline(pool: &[f64], bus_mbps: f64, seed: u64) -> ProblemSpec {
        let class = ExperimentClass::class_c();
        let wf = wsflow_workload::random_graph_workflow("w", 40, GraphClass::Hybrid, &class, seed);
        ProblemSpec::Inline {
            workflow: wsflow_model::dsl::serialize(&wf),
            server_ghz: pool.to_vec(),
            bus_mbps,
        }
    }

    fn pool(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + 0.25 * (i % 7) as f64).collect()
    }

    fn shares_network(a: &Problem, b: &Problem) -> bool {
        let ((na, ra, ca), (nb, rb, cb)) = (a.shared_network(), b.shared_network());
        let shared = [
            Arc::ptr_eq(&na, &nb),
            Arc::ptr_eq(&ra, &rb),
            Arc::ptr_eq(&ca, &cb),
        ];
        assert!(
            shared.iter().all(|&s| s == shared[0]),
            "the three parts travel together: {shared:?}"
        );
        shared[0]
    }

    /// Solve with the daemon's algorithm and seed for inline specs, and
    /// return what its `Done` reply carries: cost bits, steps, mapping.
    fn solve(problem: &Problem) -> (u64, u64, Vec<ServerId>) {
        let algo = resolve_algorithm("fairload", 0).unwrap();
        let out = algo
            .solve(problem, &mut wsflow_core::SolveCtx::with_budget_opt(None))
            .unwrap();
        (
            out.cost.to_bits(),
            out.steps,
            out.mapping.as_slice().to_vec(),
        )
    }

    #[test]
    fn consecutive_problems_for_one_pool_share_its_network() {
        let memo = PoolMemo::default();
        let first = memo.problem(&inline(&pool(30), 100.0, 1)).unwrap();
        for seed in 2..5 {
            let spec = inline(&pool(30), 100.0, seed);
            let next = memo.problem(&spec).unwrap();
            assert!(
                shares_network(&first, &next),
                "seed {seed} rebuilt the pool"
            );
            // Reuse is invisible: the same problem, and the same solve,
            // as a fresh build.
            let fresh = build_problem(&spec).unwrap();
            assert!(!shares_network(&next, &fresh));
            assert_eq!(next.workflow(), fresh.workflow());
            assert_eq!(next.network(), fresh.network());
            assert_eq!(solve(&next), solve(&fresh));
        }
    }

    #[test]
    fn any_other_pool_builds_anew() {
        let base = pool(30);
        let mut ulp = base.clone();
        ulp[17] = f64::from_bits(ulp[17].to_bits() + 1);
        let mut reordered = base.clone();
        reordered.swap(0, 1);
        assert_ne!(reordered, base);
        let mut longer = base.clone();
        longer.push(1.0);
        let others = [
            (ulp, 100.0),
            (reordered, 100.0),
            (base.clone(), 100.5),
            (longer, 100.0),
        ];
        for (other, bus) in others {
            let memo = PoolMemo::default();
            let held = memo.problem(&inline(&base, 100.0, 1)).unwrap();
            let built = memo.problem(&inline(&other, bus, 2)).unwrap();
            assert!(!shares_network(&held, &built), "{other:?} @ {bus} reused");
            // The new pool took the slot.
            let again = memo.problem(&inline(&other, bus, 3)).unwrap();
            assert!(shares_network(&built, &again));
        }
    }

    #[test]
    fn bad_specs_fail_through_the_memo_as_they_do_without_it() {
        let memo = PoolMemo::default();
        for spec in bad_specs() {
            assert_eq!(
                memo.problem(&spec).unwrap_err(),
                build_problem(&spec).unwrap_err()
            );
        }
        // Hold the valid pool two of the bad specs name, so their
        // workflows fail on the reuse path.
        let held = memo.problem(&inline(&[1.0, 1.0], 10.0, 1)).unwrap();
        for spec in bad_specs() {
            assert_eq!(
                memo.problem(&spec).unwrap_err(),
                build_problem(&spec).unwrap_err()
            );
        }
        let after = memo.problem(&inline(&[1.0, 1.0], 10.0, 2)).unwrap();
        assert!(shares_network(&held, &after), "a bad spec evicted the pool");
    }

    #[test]
    fn a_poisoned_memo_builds_every_pool_anew() {
        let memo = PoolMemo::default();
        let held = memo.problem(&inline(&pool(30), 100.0, 1)).unwrap();
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _slot = memo.slot.lock();
                    panic!("poison the memo's lock");
                })
                .join()
        });
        assert!(poisoner.is_err() && memo.slot.is_poisoned());
        let spec = inline(&pool(30), 100.0, 2);
        let built = memo.problem(&spec).unwrap();
        assert!(!shares_network(&held, &built));
        assert_eq!(solve(&built), solve(&build_problem(&spec).unwrap()));
    }

    #[test]
    fn threads_alternating_two_pools_get_bitwise_equal_solves() {
        let pools = [pool(30), pool(31)];
        let specs: Vec<ProblemSpec> = (0..8)
            .map(|i| inline(&pools[(i / 2) % 2], 100.0, i as u64))
            .collect();
        let expected: Vec<_> = specs
            .iter()
            .map(|s| solve(&build_problem(s).unwrap()))
            .collect();
        let memo = PoolMemo::default();
        std::thread::scope(|scope| {
            for offset in 0..2 {
                let (memo, specs, expected) = (&memo, &specs, &expected);
                scope.spawn(move || {
                    for round in 0..3 {
                        for k in 0..specs.len() {
                            let i = (k + offset + round) % specs.len();
                            let problem = memo.problem(&specs[i]).unwrap();
                            assert_eq!(solve(&problem), expected[i], "spec {i}");
                        }
                    }
                });
            }
        });
    }
}
