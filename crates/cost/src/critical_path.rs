//! Critical-path analysis of a deployed workflow.
//!
//! `Texecute` is determined by one dominating chain of operations and
//! messages; everything else has slack. Knowing *which* chain that is
//! tells an operator what to optimise: move an operation, upgrade a
//! link, or accept the processing floor. (The paper optimises the
//! aggregate; this analysis explains individual deployments and powers
//! the CLI's `explain` output.)
//!
//! Semantics follow the expected-time [`Evaluator`]: the finish times
//! come from its forward pass, and each step's `ready` is its AND/OR/XOR
//! combination. Walking back from the sink, the critical inflow at an
//! `/AND` join is the slowest arrival; at `/OR` the fastest; at `/XOR`
//! the branch with the largest probability-weighted arrival (the one
//! whose improvement moves the expectation most).

use wsflow_model::{DecisionKind, MsgId, OpId, OpKind, Seconds};

use crate::evaluator::Evaluator;
use crate::mapping::Mapping;
use crate::problem::Problem;

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// The operation executed at this step.
    pub op: OpId,
    /// When it could start (expected time).
    pub ready: Seconds,
    /// When it finishes (expected time).
    pub finish: Seconds,
    /// The incoming message that made it wait (None for the source or
    /// when the critical predecessor is co-located with zero transfer).
    pub via: Option<MsgId>,
    /// Communication time contributed by `via`.
    pub comm: Seconds,
}

/// The result of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Steps from source to sink, in execution order.
    pub steps: Vec<CriticalStep>,
    /// The workflow's expected execution time (the sink's finish time
    /// under [`Evaluator::execution_time`]).
    pub total: Seconds,
    /// Total processing time along the path.
    pub processing: Seconds,
    /// Total communication time along the path.
    pub communication: Seconds,
}

impl CriticalPath {
    /// Fraction of the total spent communicating along the path.
    pub fn communication_fraction(&self) -> f64 {
        if self.total.value() <= 0.0 {
            0.0
        } else {
            self.communication.value() / self.total.value()
        }
    }
}

/// Compute the critical path of `mapping` on `problem`.
pub fn critical_path(problem: &Problem, mapping: &Mapping) -> CriticalPath {
    let w = problem.workflow();
    let ev = Evaluator::new(problem);
    let mut finish = vec![0.0; w.num_ops()];
    ev.forward(mapping, &mut finish);

    // Walk back from the sink, picking each op's critical inflow. Ties
    // keep `min_by`'s first and `max_by`'s last candidate.
    let sink = w.sinks()[0];
    let mut steps = Vec::new();
    let mut cur = Some(sink);
    while let Some(u) = cur {
        let to = mapping.server_of(u);
        let arrivals = w
            .in_msgs(u)
            .iter()
            .map(|&m| (ev.arrival(m, to, mapping, &finish), m));
        let by_time = |a: &(f64, MsgId), b: &(f64, MsgId)| a.0.partial_cmp(&b.0).expect("finite");
        let via = match w.op(u).kind {
            OpKind::Close(DecisionKind::Or) => arrivals.min_by(by_time),
            OpKind::Close(DecisionKind::Xor) => arrivals
                .map(|(t, m)| (ev.prob_msg[m.index()] * t, m))
                .max_by(by_time),
            // AND joins and single-predecessor nodes: slowest arrival.
            _ => arrivals.max_by(by_time),
        }
        .map(|(_, m)| m);
        steps.push(CriticalStep {
            op: u,
            ready: Seconds(ev.ready_of(u, mapping, &finish)),
            finish: Seconds(finish[u.index()]),
            via,
            comm: Seconds(via.map_or(0.0, |m| ev.comm_of(m, to, mapping))),
        });
        cur = via.map(|m| w.message(m).from);
    }
    steps.reverse();

    let mut processing = Seconds::ZERO;
    let mut communication = Seconds::ZERO;
    for step in &steps {
        processing += step.finish - step.ready;
        communication += step.comm;
    }
    CriticalPath {
        steps,
        total: Seconds(finish[sink.index()]),
        processing,
        communication,
    }
}

/// Render the path as a human-readable report.
pub fn render(problem: &Problem, mapping: &Mapping, path: &CriticalPath) -> String {
    use std::fmt::Write as _;
    let w = problem.workflow();
    let net = problem.network();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path: {:.3} ms total ({:.3} processing + {:.3} communication, {:.0}% comm)",
        path.total.value() * 1e3,
        path.processing.value() * 1e3,
        path.communication.value() * 1e3,
        path.communication_fraction() * 100.0
    );
    for step in &path.steps {
        if let Some(m) = step.via {
            let msg = w.message(m);
            if step.comm.value() > 0.0 {
                let _ = writeln!(
                    out,
                    "    | {} -> {} ({:.3} ms on the wire)",
                    w.op(msg.from).name,
                    w.op(msg.to).name,
                    step.comm.value() * 1e3
                );
            }
        }
        let _ = writeln!(
            out,
            "  {:>9.3} ms  {} on {} (runs {:.3} ms)",
            step.ready.value() * 1e3,
            w.op(step.op).name,
            net.server(mapping.server_of(step.op)).name,
            (step.finish - step.ready).value() * 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::texecute;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use wsflow_model::{BlockSpec, MCycles, Mbits, MbitsPerSec, Probability, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::{Server, ServerId};

    /// The forward-pass implementation `critical_path` had before it
    /// ran on the [`Evaluator`]: its own AND/OR/XOR recurrence over the
    /// reference `tcomm`/`tproc`. Kept as the differential oracle.
    mod oracle {
        use wsflow_model::traversal::topo_sort;
        use wsflow_model::{DecisionKind, MsgId, OpKind, Seconds};

        use super::super::{CriticalPath, CriticalStep};
        use crate::mapping::Mapping;
        use crate::problem::Problem;
        use crate::reference::{tcomm, tproc};

        pub(super) fn critical_path(problem: &Problem, mapping: &Mapping) -> CriticalPath {
            let w = problem.workflow();
            let order = topo_sort(w).expect("problem workflows are acyclic");
            let n = w.num_ops();
            let mut finish = vec![Seconds::ZERO; n];
            let mut ready = vec![Seconds::ZERO; n];
            // The incoming message responsible for each node's ready time.
            let mut critical_in: Vec<Option<MsgId>> = vec![None; n];

            for &u in &order {
                let in_msgs = w.in_msgs(u);
                if !in_msgs.is_empty() {
                    let arrival = |m: MsgId| -> Seconds {
                        let msg = w.message(m);
                        finish[msg.from.index()] + tcomm(problem, m, mapping)
                    };
                    let (r, via) = match w.op(u).kind {
                        OpKind::Close(DecisionKind::Or) => in_msgs
                            .iter()
                            .map(|&m| (arrival(m), Some(m)))
                            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                            .expect("non-empty"),
                        OpKind::Close(DecisionKind::Xor) => {
                            // The expectation is the probability-weighted mean;
                            // the *critical* branch is the one contributing the
                            // most to it.
                            let total: f64 = in_msgs
                                .iter()
                                .map(|&m| problem.probabilities().of_msg(m).value())
                                .sum();
                            let expected: Seconds = if total <= 0.0 {
                                in_msgs
                                    .iter()
                                    .map(|&m| arrival(m))
                                    .fold(Seconds::ZERO, Seconds::max)
                            } else {
                                in_msgs
                                    .iter()
                                    .map(|&m| {
                                        arrival(m)
                                            * (problem.probabilities().of_msg(m).value() / total)
                                    })
                                    .sum()
                            };
                            let dominant = in_msgs
                                .iter()
                                .copied()
                                .max_by(|&a, &b| {
                                    let wa = problem.probabilities().of_msg(a).value()
                                        * arrival(a).value();
                                    let wb = problem.probabilities().of_msg(b).value()
                                        * arrival(b).value();
                                    wa.partial_cmp(&wb).expect("finite")
                                })
                                .expect("non-empty");
                            (expected, Some(dominant))
                        }
                        // AND joins and single-predecessor nodes: slowest arrival.
                        _ => in_msgs
                            .iter()
                            .map(|&m| (arrival(m), Some(m)))
                            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                            .expect("non-empty"),
                    };
                    ready[u.index()] = r;
                    critical_in[u.index()] = via;
                }
                finish[u.index()] = ready[u.index()] + tproc(problem, u, mapping.server_of(u));
            }

            // Walk back from the sink along critical predecessors.
            let sink = w.sinks()[0];
            let mut chain = Vec::new();
            let mut cur = Some(sink);
            while let Some(u) = cur {
                chain.push(u);
                cur = critical_in[u.index()].map(|m| w.message(m).from);
            }
            chain.reverse();

            let mut steps = Vec::with_capacity(chain.len());
            let mut processing = Seconds::ZERO;
            let mut communication = Seconds::ZERO;
            for &u in &chain {
                let via = critical_in[u.index()];
                let comm = via
                    .map(|m| tcomm(problem, m, mapping))
                    .unwrap_or(Seconds::ZERO);
                processing += finish[u.index()] - ready[u.index()];
                communication += comm;
                steps.push(CriticalStep {
                    op: u,
                    ready: ready[u.index()],
                    finish: finish[u.index()],
                    via,
                    comm,
                });
            }
            CriticalPath {
                steps,
                total: finish[sink.index()],
                processing,
                communication,
            }
        }
    }

    fn bus_problem(w: wsflow_model::Workflow, n: usize, mbps: f64) -> Problem {
        let net = bus("n", homogeneous_servers(n, 1.0), MbitsPerSec(mbps)).unwrap();
        Problem::new(w, net).unwrap()
    }

    #[test]
    fn line_path_is_the_whole_line() {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[MCycles(10.0), MCycles(20.0), MCycles(30.0)],
            Mbits(1.0),
        );
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let cp = critical_path(&p, &m);
        assert_eq!(cp.steps.len(), 3);
        assert!((cp.total.value() - texecute(&p, &m).value()).abs() < 1e-12);
        // 60 Mcycles of processing at 1 GHz.
        assert!((cp.processing.value() - 0.060).abs() < 1e-12);
        // Two crossings of 1 Mbit at 10 Mbps.
        assert!((cp.communication.value() - 0.200).abs() < 1e-12);
        assert!((cp.communication_fraction() - 0.2 / 0.26).abs() < 1e-9);
    }

    #[test]
    fn and_join_follows_slow_branch() {
        let spec = BlockSpec::and(
            "a",
            vec![
                BlockSpec::op("fast", MCycles(10.0)),
                BlockSpec::op("slow", MCycles(90.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let cp = critical_path(&p, &m);
        let names: Vec<&str> = cp
            .steps
            .iter()
            .map(|s| p.workflow().op(s.op).name.as_str())
            .collect();
        assert!(names.contains(&"slow"), "critical path {names:?}");
        assert!(!names.contains(&"fast"));
    }

    #[test]
    fn or_join_follows_fast_branch() {
        let spec = BlockSpec::or(
            "o",
            vec![
                BlockSpec::op("fast", MCycles(10.0)),
                BlockSpec::op("slow", MCycles(90.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let cp = critical_path(&p, &m);
        let names: Vec<&str> = cp
            .steps
            .iter()
            .map(|s| p.workflow().op(s.op).name.as_str())
            .collect();
        assert!(names.contains(&"fast"));
        assert!(!names.contains(&"slow"));
    }

    #[test]
    fn xor_join_follows_dominant_contribution() {
        use wsflow_model::Probability;
        let spec = BlockSpec::Decision {
            kind: DecisionKind::Xor,
            name: "x".into(),
            branches: vec![
                (
                    Probability::new(0.9),
                    BlockSpec::op("likely", MCycles(10.0)),
                ),
                (
                    Probability::new(0.1),
                    BlockSpec::op("unlikely", MCycles(30.0)),
                ),
            ],
        };
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let cp = critical_path(&p, &m);
        // 0.9·10 = 9 dominates 0.1·30 = 3.
        let names: Vec<&str> = cp
            .steps
            .iter()
            .map(|s| p.workflow().op(s.op).name.as_str())
            .collect();
        assert!(names.contains(&"likely"));
        // Expected total matches the evaluator.
        assert!((cp.total.value() - texecute(&p, &m).value()).abs() < 1e-12);
    }

    #[test]
    fn render_names_servers_and_wires() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(1.0));
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::new(vec![ServerId::new(0), ServerId::new(1)]);
        let cp = critical_path(&p, &m);
        let text = render(&p, &m, &cp);
        assert!(text.contains("critical path"));
        assert!(text.contains("o0 on s0"));
        assert!(text.contains("on the wire"));
    }

    /// A seeded class-C workflow of `m` ops. `shape` is `None` for a
    /// line, else the `(decision ratio, spine bias)` pair of the
    /// workload crate's bushy/lengthy/hybrid generators, which this
    /// mirrors: decision blocks nest into random slots, ops land on the
    /// spine with the bias. One XOR block in three gives its first
    /// branch probability 0.
    fn generated(shape: Option<(f64, f64)>, m: usize, seed: u64) -> wsflow_model::Workflow {
        enum Item {
            Op(MCycles),
            Block(DecisionKind, Vec<usize>),
        }
        fn build(
            slot: usize,
            slots: &[Vec<Item>],
            rng: &mut ChaCha8Rng,
            n: &mut usize,
        ) -> BlockSpec {
            let items = slots[slot]
                .iter()
                .map(|item| {
                    *n += 1;
                    match item {
                        Item::Op(c) => BlockSpec::op(format!("o{n}"), *c),
                        Item::Block(kind, children) => {
                            let name = format!("d{n}");
                            let mut weights: Vec<f64> =
                                children.iter().map(|_| rng.gen_range(0.1..1.0)).collect();
                            if *kind == DecisionKind::Xor && rng.gen_range(0..3) == 0 {
                                weights[0] = 0.0;
                            }
                            let total: f64 = weights.iter().sum();
                            let branches = children
                                .iter()
                                .zip(&weights)
                                .map(|(&c, &wt)| {
                                    let p = if *kind == DecisionKind::Xor {
                                        Probability::new(wt / total)
                                    } else {
                                        Probability::ONE
                                    };
                                    (p, build(c, slots, rng, n))
                                })
                                .collect();
                            BlockSpec::Decision {
                                kind: *kind,
                                name,
                                branches,
                            }
                        }
                    }
                })
                .collect();
            BlockSpec::Seq(items)
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (ratio, spine) = shape.unwrap_or((0.0, 1.0));
        let blocks = (((ratio * m as f64) / 2.0).round() as usize).min((m - 1) / 2);
        let mut slots: Vec<Vec<Item>> = vec![Vec::new()];
        for _ in 0..blocks {
            let parent = rng.gen_range(0..slots.len());
            let fanout = rng.gen_range(2..=3usize);
            let kind = *[DecisionKind::And, DecisionKind::Or, DecisionKind::Xor]
                .choose(&mut rng)
                .unwrap();
            let children = (slots.len()..slots.len() + fanout).collect();
            slots.extend((0..fanout).map(|_| Vec::new()));
            slots[parent].push(Item::Block(kind, children));
        }
        for _ in 0..m - 2 * blocks {
            let slot = if rng.gen::<f64>() < spine {
                0
            } else {
                rng.gen_range(0..slots.len())
            };
            let c = *[10.0, 20.0, 20.0, 30.0].choose(&mut rng).unwrap();
            slots[slot].push(Item::Op(MCycles(c)));
        }
        let spec = build(0, &slots, &mut rng, &mut 0);
        let sizes = [0.00666, 0.057838, 0.057838, 0.163208];
        spec.lower("w", &mut || Mbits(*sizes.choose(&mut rng).unwrap()))
            .unwrap()
    }

    /// The Evaluator-based path reproduces the oracle exactly on seeded
    /// line/bushy/lengthy/hybrid workflows over 10 and 100 Mbps buses
    /// (where `CommMatrix` and the routed transfer time agree bitwise on
    /// class-C sizes): same op chain, same `via` at every step, and the
    /// same bits in every time.
    #[test]
    fn matches_the_forward_pass_oracle_bitwise() {
        let shapes = [
            None,
            Some((0.50, 0.0)),
            Some((0.16, 0.7)),
            Some((0.35, 0.35)),
        ];
        let mut zero_xor_branches = 0;
        for (k, &shape) in shapes.iter().enumerate() {
            for mbps in [10.0, 100.0] {
                for seed in 0..12u64 {
                    let w = generated(shape, 9 + (seed as usize % 7), seed * 31 + k as u64);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let servers = (0..4)
                        .map(|i| {
                            Server::with_ghz(
                                format!("s{i}"),
                                *[1.0, 2.0, 3.0].choose(&mut rng).unwrap(),
                            )
                        })
                        .collect();
                    let net = bus("b", servers, MbitsPerSec(mbps)).unwrap();
                    let p = Problem::new(w, net).unwrap();
                    zero_xor_branches += p
                        .workflow()
                        .messages()
                        .iter()
                        .filter(|m| m.branch_probability.value() == 0.0)
                        .count();
                    for _ in 0..4 {
                        let m =
                            Mapping::from_fn(p.num_ops(), |_| ServerId::new(rng.gen_range(0..4)));
                        let got = critical_path(&p, &m);
                        let want = oracle::critical_path(&p, &m);
                        let ctx = format!("shape {k}, {mbps} Mbps, seed {seed}");
                        let chain = |c: &CriticalPath| -> Vec<_> {
                            c.steps.iter().map(|s| (s.op, s.via)).collect()
                        };
                        assert_eq!(chain(&got), chain(&want), "{ctx}: chain or via");
                        // A co-located message's routed path has no links,
                        // and the oracle's empty f64 sum gives it -0.0
                        // seconds where the kernel's coefficients give
                        // +0.0. Adding +0.0 to `comm` maps -0.0 to +0.0 and
                        // leaves every other value's bits alone.
                        let bits = |c: &CriticalPath| -> Vec<u64> {
                            let mut b = vec![
                                c.total.value().to_bits(),
                                c.processing.value().to_bits(),
                                c.communication.value().to_bits(),
                            ];
                            for s in &c.steps {
                                b.extend([
                                    s.ready.value().to_bits(),
                                    s.finish.value().to_bits(),
                                    (s.comm.value() + 0.0).to_bits(),
                                ]);
                            }
                            b
                        };
                        assert_eq!(bits(&got), bits(&want), "{ctx}: times");
                    }
                }
            }
        }
        assert!(
            zero_xor_branches > 0,
            "no XOR branch of probability 0 was exercised"
        );
    }
}
