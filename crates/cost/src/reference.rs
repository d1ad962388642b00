//! The independent reference implementation of Table 1 — a test
//! oracle, not a production path.
//!
//! Production code evaluates the cost model through exactly one kernel,
//! the flat [`Evaluator`](crate::evaluator::Evaluator) (and the
//! [`DeltaEvaluator`](crate::delta::DeltaEvaluator) built on it). This
//! module keeps a second, deliberately naive implementation that shares
//! none of the evaluator's prepared tables: every transfer is routed
//! through [`RoutingTable::transfer_time`](wsflow_net::RoutingTable::transfer_time)
//! and every processing time is divided out of the model structs, so a
//! slip in the kernel shows up as a disagreement with this module.
//! Tests, property tests and the `scale_sweep` throughput bench use it;
//! nothing re-exports it at the crate top level.
//!
//! Two evaluators of `Texecute` with identical semantics:
//!
//! * [`texecute`] — forward propagation of finish times over the DAG in
//!   topological order;
//! * [`texecute_block`] — recursive evaluation over the recovered block
//!   structure (property tests assert the two agree on arbitrary
//!   well-formed workflows).
//!
//! Semantics per decision kind (§2.2):
//!
//! * sequence — times add up: processing plus communication;
//! * `AND` — branches run in parallel, `/AND` waits for the slowest;
//! * `OR` — branches race, `/OR` continues with the fastest;
//! * `XOR` — exactly one branch runs; the *expected* time is the
//!   probability-weighted mean over branches ("amortized for a large
//!   number of workflow executions", §3.4).
//!
//! Note on `XOR` under nesting: weighting at the join computes the exact
//! expectation for deterministic branch times. When an XOR block nests
//! inside an `AND` branch the expectation of a maximum is not the maximum
//! of expectations, so this analytic value is an approximation of the
//! true mean; the discrete-event simulator in `wsflow-sim` measures the
//! unbiased mean and the experiments in EXPERIMENTS.md quantify the gap.
//!
//! Load and penalty follow Table 1 directly:
//!
//! * `Tproc(op) = C(op) / P(Server(op))`
//! * `Load(s)  = Σ_{op → s} prob(op) · Tproc(op)`
//! * `Time Penalty = Σ_s |Load(s) − avg Load| / 2`

use wsflow_model::structure::BlockTree;
use wsflow_model::traversal::topo_sort;
use wsflow_model::{DecisionKind, MsgId, OpId, OpKind, Seconds};
use wsflow_net::ServerId;

use crate::load::time_penalty_of_loads;
use crate::mapping::Mapping;
use crate::problem::Problem;

/// Processing time of `op` if deployed on `server`.
#[inline]
pub fn tproc(problem: &Problem, op: OpId, server: ServerId) -> Seconds {
    problem.workflow().op(op).cost / problem.network().server(server).power
}

/// Per-server loads under a mapping, indexed by server id.
pub fn loads(problem: &Problem, mapping: &Mapping) -> Vec<Seconds> {
    let mut result = vec![Seconds::ZERO; problem.num_servers()];
    for (op, server) in mapping.iter() {
        let t = tproc(problem, op, server);
        result[server.index()] += problem.probabilities().of_op(op) * t;
    }
    result
}

/// The fairness time penalty of a mapping.
pub fn time_penalty(problem: &Problem, mapping: &Mapping) -> Seconds {
    time_penalty_of_loads(&loads(problem, mapping))
}

/// The largest per-server load of a mapping.
pub fn max_load(problem: &Problem, mapping: &Mapping) -> Seconds {
    loads(problem, mapping)
        .into_iter()
        .fold(Seconds::ZERO, Seconds::max)
}

/// Communication time of message `m` under `mapping`:
/// zero if co-located, otherwise the routed transfer time.
#[inline]
pub fn tcomm(problem: &Problem, m: MsgId, mapping: &Mapping) -> Seconds {
    let msg = problem.workflow().message(m);
    let from = mapping.server_of(msg.from);
    let to = mapping.server_of(msg.to);
    problem
        .routing()
        .transfer_time(problem.network(), from, to, msg.size)
        .expect("problem networks are fully routable")
}

/// Expected execution time of the workflow under `mapping`, by forward
/// propagation of finish times.
pub fn texecute(problem: &Problem, mapping: &Mapping) -> Seconds {
    let w = problem.workflow();
    let order = topo_sort(w).expect("problem workflows are acyclic");
    let mut finish = vec![Seconds::ZERO; w.num_ops()];
    for u in order {
        let ready = ready_time(problem, mapping, u, &finish);
        finish[u.index()] = ready + tproc(problem, u, mapping.server_of(u));
    }
    // The workflow completes when its sink finishes. (Not the max over
    // all nodes: an abandoned slow OR branch may finish after the sink.)
    w.sinks()
        .into_iter()
        .map(|s| finish[s.index()])
        .fold(Seconds::ZERO, Seconds::max)
}

fn ready_time(problem: &Problem, mapping: &Mapping, u: OpId, finish: &[Seconds]) -> Seconds {
    let w = problem.workflow();
    let in_msgs = w.in_msgs(u);
    if in_msgs.is_empty() {
        return Seconds::ZERO;
    }
    let arrival = |m: MsgId| -> Seconds {
        let msg = w.message(m);
        finish[msg.from.index()] + tcomm(problem, m, mapping)
    };
    match w.op(u).kind {
        OpKind::Close(DecisionKind::And) => in_msgs
            .iter()
            .map(|&m| arrival(m))
            .fold(Seconds::ZERO, Seconds::max),
        OpKind::Close(DecisionKind::Or) => in_msgs
            .iter()
            .map(|&m| arrival(m))
            .fold(Seconds(f64::INFINITY), Seconds::min),
        OpKind::Close(DecisionKind::Xor) => {
            // Weight each incoming branch by its execution probability,
            // normalised over the arrivals (the weights sum to the
            // block's own execution probability).
            let total: f64 = in_msgs
                .iter()
                .map(|&m| problem.probabilities().of_msg(m).value())
                .sum();
            if total <= 0.0 {
                // Degenerate: all branches impossible; fall back to max.
                return in_msgs
                    .iter()
                    .map(|&m| arrival(m))
                    .fold(Seconds::ZERO, Seconds::max);
            }
            in_msgs
                .iter()
                .map(|&m| {
                    let wgt = problem.probabilities().of_msg(m).value() / total;
                    arrival(m) * wgt
                })
                .sum()
        }
        // Operational nodes and openers have a single predecessor in a
        // well-formed workflow.
        _ => in_msgs
            .iter()
            .map(|&m| arrival(m))
            .fold(Seconds::ZERO, Seconds::max),
    }
}

/// Expected execution time by recursive evaluation over the block
/// structure. Agrees with [`texecute`] on every well-formed workflow.
pub fn texecute_block(problem: &Problem, mapping: &Mapping, tree: &BlockTree) -> Seconds {
    eval(problem, mapping, tree)
}

/// Duration of a block from the moment its entry node may start to the
/// moment its exit node finishes (communication into the block is charged
/// by the parent).
fn eval(problem: &Problem, mapping: &Mapping, tree: &BlockTree) -> Seconds {
    let w = problem.workflow();
    match tree {
        BlockTree::Op(id) => tproc(problem, *id, mapping.server_of(*id)),
        BlockTree::Seq(items) => {
            let mut total = Seconds::ZERO;
            let mut prev_exit: Option<OpId> = None;
            for item in items {
                if let (Some(prev), Some(entry)) = (prev_exit, entry_op(item)) {
                    let m = w
                        .find_message(prev, entry)
                        .expect("consecutive seq items are connected");
                    total += tcomm(problem, m, mapping);
                }
                total += eval(problem, mapping, item);
                if let Some(exit) = exit_op(item) {
                    prev_exit = Some(exit);
                }
            }
            total
        }
        BlockTree::Decision {
            kind,
            open,
            close,
            branches,
        } => {
            let t_open = tproc(problem, *open, mapping.server_of(*open));
            let t_close = tproc(problem, *close, mapping.server_of(*close));
            // Duration of each branch including the messages out of the
            // opener and into the closer.
            let branch_time = |branch: &BlockTree| -> Seconds {
                match (entry_op(branch), exit_op(branch)) {
                    (Some(entry), Some(exit)) => {
                        let m_in = w
                            .find_message(*open, entry)
                            .expect("opener connects to branch entry");
                        let m_out = w
                            .find_message(exit, *close)
                            .expect("branch exit connects to closer");
                        tcomm(problem, m_in, mapping)
                            + eval(problem, mapping, branch)
                            + tcomm(problem, m_out, mapping)
                    }
                    // Empty branch: direct opener→closer skip edge.
                    _ => {
                        let m = w
                            .find_message(*open, *close)
                            .expect("empty branch has a skip edge");
                        tcomm(problem, m, mapping)
                    }
                }
            };
            let combined = match kind {
                DecisionKind::And => branches
                    .iter()
                    .map(branch_time)
                    .fold(Seconds::ZERO, Seconds::max),
                DecisionKind::Or => branches
                    .iter()
                    .map(branch_time)
                    .fold(Seconds(f64::INFINITY), Seconds::min),
                DecisionKind::Xor => {
                    // Branch order mirrors the opener's outgoing edges.
                    let probs: Vec<f64> = w
                        .out_msgs(*open)
                        .iter()
                        .map(|&m| w.message(m).branch_probability.value())
                        .collect();
                    branches
                        .iter()
                        .zip(&probs)
                        .map(|(b, &p)| branch_time(b) * p)
                        .sum()
                }
            };
            t_open + combined + t_close
        }
    }
}

fn entry_op(tree: &BlockTree) -> Option<OpId> {
    match tree {
        BlockTree::Op(id) => Some(*id),
        BlockTree::Seq(items) => items.iter().find_map(entry_op),
        BlockTree::Decision { open, .. } => Some(*open),
    }
}

fn exit_op(tree: &BlockTree) -> Option<OpId> {
    match tree {
        BlockTree::Op(id) => Some(*id),
        BlockTree::Seq(items) => items.iter().rev().find_map(exit_op),
        BlockTree::Decision { close, .. } => Some(*close),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::network_traffic;
    use crate::evaluator::Evaluator;
    use wsflow_model::{
        recover_structure, BlockSpec, MCycles, Mbits, MbitsPerSec, Probability, WorkflowBuilder,
    };
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::Server;

    fn bus_problem(w: wsflow_model::Workflow, n_servers: usize, ghz: f64, mbps: f64) -> Problem {
        let net = bus("b", homogeneous_servers(n_servers, ghz), MbitsPerSec(mbps)).unwrap();
        Problem::new(w, net).unwrap()
    }

    fn line_problem(costs: &[f64], powers_ghz: &[f64]) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let costs: Vec<MCycles> = costs.iter().map(|&c| MCycles(c)).collect();
        b.line("o", &costs, Mbits(0.05));
        let servers = powers_ghz
            .iter()
            .enumerate()
            .map(|(i, &g)| Server::with_ghz(format!("s{i}"), g))
            .collect();
        let net = bus("b", servers, MbitsPerSec(100.0)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn tproc_formula() {
        let p = line_problem(&[10.0, 20.0], &[1.0, 2.0]);
        // 10 Mcycles / 1 GHz = 10 ms.
        let t = tproc(&p, OpId::new(0), ServerId::new(0));
        assert!((t.value() - 0.010).abs() < 1e-12);
        // 10 Mcycles / 2 GHz = 5 ms.
        let t = tproc(&p, OpId::new(0), ServerId::new(1));
        assert!((t.value() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn loads_accumulate_per_server() {
        let p = line_problem(&[10.0, 20.0, 30.0], &[1.0, 1.0]);
        let m = Mapping::new(vec![ServerId::new(0), ServerId::new(0), ServerId::new(1)]);
        let l = loads(&p, &m);
        assert!((l[0].value() - 0.030).abs() < 1e-12);
        assert!((l[1].value() - 0.030).abs() < 1e-12);
        assert_eq!(time_penalty(&p, &m), Seconds::ZERO);
        assert!((max_load(&p, &m).value() - 0.030).abs() < 1e-12);
    }

    #[test]
    fn penalty_is_zero_for_proportional_loads_on_heterogeneous_servers() {
        // Server powers 1 and 2 GHz; assigning cycles 10 and 20 gives
        // both servers 10 ms of work — fair in the paper's sense.
        let p = line_problem(&[10.0, 20.0], &[1.0, 2.0]);
        let m = Mapping::new(vec![ServerId::new(0), ServerId::new(1)]);
        assert!(time_penalty(&p, &m).value() < 1e-12);
    }

    #[test]
    fn single_server_deployment_is_maximally_unfair() {
        let p = line_problem(&[10.0, 10.0], &[1.0, 1.0]);
        let all_on_one = Mapping::all_on(2, ServerId::new(0));
        let spread = Mapping::new(vec![ServerId::new(0), ServerId::new(1)]);
        assert!(time_penalty(&p, &all_on_one) > time_penalty(&p, &spread));
    }

    #[test]
    fn line_on_one_server_is_pure_processing() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(1.0));
        let p = bus_problem(b.build().unwrap(), 2, 1.0, 100.0);
        let m = Mapping::all_on(2, ServerId::new(0));
        // 10 + 20 Mcycles on 1 GHz = 30 ms; message is intra-server.
        let t = texecute(&p, &m);
        assert!((t.value() - 0.030).abs() < 1e-12);
        assert_eq!(network_traffic(&p, &m), Mbits::ZERO);
    }

    #[test]
    fn line_across_servers_adds_communication() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(1.0));
        let p = bus_problem(b.build().unwrap(), 2, 1.0, 100.0);
        let m = Mapping::new(vec![ServerId::new(0), ServerId::new(1)]);
        // 10 ms + 1 Mbit / 100 Mbps (= 10 ms) + 20 ms.
        let t = texecute(&p, &m);
        assert!((t.value() - 0.040).abs() < 1e-12);
        assert!((network_traffic(&p, &m).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn and_block_waits_for_slowest_branch() {
        let spec = BlockSpec::and(
            "a",
            vec![
                BlockSpec::op("fast", MCycles(10.0)),
                BlockSpec::op("slow", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 1.0, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        // Open and close are zero-cost; slow branch dominates: 50 ms.
        let t = texecute(&p, &m);
        assert!((t.value() - 0.050).abs() < 1e-12);
    }

    #[test]
    fn or_block_takes_fastest_branch() {
        let spec = BlockSpec::or(
            "o",
            vec![
                BlockSpec::op("fast", MCycles(10.0)),
                BlockSpec::op("slow", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 1.0, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let t = texecute(&p, &m);
        assert!((t.value() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn xor_block_is_probability_weighted() {
        let mut spec_branches = vec![
            (Probability::new(0.25), BlockSpec::op("a", MCycles(10.0))),
            (Probability::new(0.75), BlockSpec::op("b", MCycles(50.0))),
        ];
        let spec = BlockSpec::Decision {
            kind: wsflow_model::DecisionKind::Xor,
            name: "x".into(),
            branches: std::mem::take(&mut spec_branches),
        };
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 1.0, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        // 0.25·10ms + 0.75·50ms = 40 ms.
        let t = texecute(&p, &m);
        assert!((t.value() - 0.040).abs() < 1e-12);
    }

    #[test]
    fn block_evaluator_agrees_with_dag_evaluator() {
        let spec = BlockSpec::seq(vec![
            BlockSpec::op("s", MCycles(15.0)),
            BlockSpec::and(
                "a",
                vec![
                    BlockSpec::seq(vec![
                        BlockSpec::op("p", MCycles(30.0)),
                        BlockSpec::xor_uniform(
                            "x",
                            vec![
                                BlockSpec::op("q", MCycles(10.0)),
                                BlockSpec::op("r", MCycles(90.0)),
                            ],
                        ),
                    ]),
                    BlockSpec::op("t", MCycles(70.0)),
                ],
            ),
            BlockSpec::op("e", MCycles(5.0)),
        ]);
        let mut i = 0usize;
        let w = spec
            .lower("w", &mut || {
                i += 1;
                Mbits(0.01 * i as f64)
            })
            .unwrap();
        let tree = recover_structure(&w).unwrap();
        let p = bus_problem(w, 3, 1.0, 10.0);
        // Spread ops round-robin to force communication.
        let m = Mapping::from_fn(p.num_ops(), |o| ServerId::new(o.0 % 3));
        let t_dag = texecute(&p, &m);
        let t_block = texecute_block(&p, &m, &tree);
        assert!(
            (t_dag.value() - t_block.value()).abs() < 1e-12,
            "dag {t_dag} vs block {t_block}"
        );
    }

    #[test]
    fn degenerate_xor_with_impossible_branch() {
        use wsflow_model::BlockSpec;
        // The outer XOR sends probability 0 down the branch holding the
        // inner XOR: every in-edge of the inner closer has probability
        // 0, exercising the total<=0 fallback.
        let spec = BlockSpec::Decision {
            kind: wsflow_model::DecisionKind::Xor,
            name: "outer".into(),
            branches: vec![
                (
                    Probability::new(0.0),
                    BlockSpec::xor_uniform(
                        "inner",
                        vec![
                            BlockSpec::op("a", MCycles(10.0)),
                            BlockSpec::op("b", MCycles(20.0)),
                        ],
                    ),
                ),
                (Probability::new(1.0), BlockSpec::op("c", MCycles(30.0))),
            ],
        };
        let w = spec.lower("w", &mut || Mbits(0.1)).unwrap();
        let p = bus_problem(w, 2, 1.0, 100.0);
        let m = Mapping::all_on(p.num_ops(), ServerId::new(0));
        let t = texecute(&p, &m);
        // Expected time is driven entirely by the p=1 branch: 30 ms.
        assert!((t.value() - 0.030).abs() < 1e-12, "got {t}");
        // And the evaluator agrees.
        let mut ev = Evaluator::new(&p);
        assert!((ev.execution_time(&m).value() - t.value()).abs() < 1e-12);
    }

    #[test]
    fn colocating_communicating_ops_reduces_execution_time() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(10.0)], Mbits(10.0));
        let p = bus_problem(b.build().unwrap(), 2, 1.0, 1.0); // slow bus
        let colocated = Mapping::all_on(2, ServerId::new(0));
        let split = Mapping::new(vec![ServerId::new(0), ServerId::new(1)]);
        assert!(texecute(&p, &colocated) < texecute(&p, &split));
    }
}
