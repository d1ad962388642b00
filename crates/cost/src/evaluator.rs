//! A prepared, allocation-free evaluator for repeated cost queries.
//!
//! The exhaustive algorithm and the quality-sampling study evaluate up to
//! tens of thousands of mappings per instance (`N^M` is ~10¹⁹ for the
//! paper's largest configuration; samples of 32 000 are drawn). This
//! evaluator precomputes everything that does not depend on the mapping —
//! topological order, per-op expected processing seconds per server,
//! per-server-pair communication coefficients — and reuses scratch
//! buffers across calls.

use wsflow_model::traversal::topo_sort;
use wsflow_model::{DecisionKind, MsgId, OpId, OpKind, Seconds};
use wsflow_net::ServerId;

use crate::load::time_penalty_of_loads;
use crate::mapping::Mapping;
use crate::money::{billed, PriceTable};
use crate::objective::CostBreakdown;
use crate::problem::Problem;

/// Prepared evaluator; create once per [`Problem`], call
/// [`Evaluator::evaluate`] per mapping.
///
/// This is the one production kernel of Table 1: every cost the
/// solvers, the harness and the CLI report comes from it (or from the
/// [`DeltaEvaluator`](crate::delta::DeltaEvaluator) built on it). The
/// [`reference`](crate::reference) module keeps an independent
/// implementation for tests to check it against.
///
/// Everything mapping-independent lives in flat arenas indexed by dense
/// ids: per-op processing seconds are one row-major `M × N` array, the
/// per-message sender/size/probability columns are three parallel
/// arrays, and the per-pair communication coefficients come from the
/// problem's shared [`CommMatrix`](crate::comm::CommMatrix). The inner
/// evaluation loop therefore only touches contiguous memory — no
/// pointer chasing through `Operation`/`Message` structs.
///
/// Fields are `pub(crate)` so [`DeltaEvaluator`](crate::delta::DeltaEvaluator)
/// can share the prepared tables and reuse the exact same floating-point
/// expressions.
#[derive(Debug, Clone)]
pub struct Evaluator<'p> {
    pub(crate) problem: &'p Problem,
    pub(crate) order: Vec<OpId>,
    /// Row-major `proc_secs[op * N + server]` = `Tproc(op)` there.
    pub(crate) proc_secs: Vec<f64>,
    /// `prob_op[op]` = execution probability.
    pub(crate) prob_op: Vec<f64>,
    /// `prob_msg[msg]` = send probability.
    pub(crate) prob_msg: Vec<f64>,
    /// `msg_from[msg]` = sender op index (flat copy of the arena).
    msg_from: Vec<u32>,
    /// `msg_size[msg]` = raw size in Mbits.
    msg_size: Vec<f64>,
    /// `kind[op]` = node kind tag (copied out of the `Operation`
    /// structs so the recurrence never touches their `String` names).
    kind: Vec<OpKind>,
    /// Sink ops, cached (completion folds over them every evaluation).
    sinks: Vec<OpId>,
    pub(crate) n_servers: usize,
    /// Per-server hourly prices (geo scenarios; `has_prices()` is false
    /// on every legacy network, and then no billing code runs at all).
    pub(crate) prices: PriceTable,
    /// Scratch: finish time per op.
    finish: Vec<f64>,
    /// Scratch: load per server.
    loads: Vec<Seconds>,
    /// Scratch: resident-op counts per server for the billing fold.
    occupancy: Vec<u32>,
}

impl<'p> Evaluator<'p> {
    /// Prepare an evaluator for a problem.
    pub fn new(problem: &'p Problem) -> Self {
        let w = problem.workflow();
        let net = problem.network();
        let order = topo_sort(w).expect("problem workflows are acyclic");
        let n = net.num_servers();
        let mut proc_secs = Vec::with_capacity(w.num_ops() * n);
        for op in w.ops() {
            for s in net.servers() {
                proc_secs.push((op.cost / s.power).value());
            }
        }
        let prob_op = problem
            .probabilities()
            .op_prob
            .iter()
            .map(|p| p.value())
            .collect();
        let prob_msg = problem
            .probabilities()
            .msg_prob
            .iter()
            .map(|p| p.value())
            .collect();
        let msg_from = w.messages().iter().map(|m| m.from.0).collect();
        let msg_size = w.messages().iter().map(|m| m.size.value()).collect();
        let kind = w.ops().iter().map(|op| op.kind).collect();
        let sinks = w.sinks();
        Self {
            problem,
            order,
            proc_secs,
            prob_op,
            prob_msg,
            msg_from,
            msg_size,
            kind,
            sinks,
            n_servers: n,
            prices: PriceTable::new(net),
            finish: vec![0.0; w.num_ops()],
            loads: vec![Seconds::ZERO; n],
            occupancy: Vec::new(),
        }
    }

    /// The problem this evaluator was prepared for.
    #[inline]
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// `Tproc` of op index `op` on server index `server` (flat lookup).
    #[inline]
    pub(crate) fn proc_sec(&self, op: usize, server: usize) -> f64 {
        self.proc_secs[op * self.n_servers + server]
    }

    #[inline]
    fn comm_secs(&self, from: ServerId, to: ServerId, size_mbits: f64) -> f64 {
        self.problem.comm().comm_secs(from, to, size_mbits)
    }

    /// Transfer seconds of inbound message `m` to an op placed on `to`.
    #[inline]
    pub(crate) fn comm_of(&self, m: MsgId, to: ServerId, mapping: &Mapping) -> f64 {
        // Every inbound message targets the op on `to`, so only the
        // sender side varies: read the flat sender/size columns, never
        // the `Message` structs.
        let i = m.index();
        let from = OpId(self.msg_from[i]);
        self.comm_secs(mapping.server_of(from), to, self.msg_size[i])
    }

    /// When inbound message `m` reaches an op placed on `to`: its
    /// sender's finish time plus the transfer.
    #[inline]
    pub(crate) fn arrival(&self, m: MsgId, to: ServerId, mapping: &Mapping, finish: &[f64]) -> f64 {
        let t = self.comm_of(m, to, mapping);
        finish[self.msg_from[m.index()] as usize] + t
    }

    /// When `u` may start, given the finish times of its predecessors:
    /// the AND/OR/XOR combination of its arrivals (Table 1's
    /// `Texecute` recurrence).
    #[inline]
    pub(crate) fn ready_of(&self, u: OpId, mapping: &Mapping, finish: &[f64]) -> f64 {
        let in_msgs = self.problem.workflow().in_msgs(u);
        if in_msgs.is_empty() {
            return 0.0;
        }
        let to = mapping.server_of(u);
        let arrival = |m: MsgId| self.arrival(m, to, mapping, finish);
        match self.kind[u.index()] {
            OpKind::Close(DecisionKind::And) => {
                in_msgs.iter().map(|&m| arrival(m)).fold(0.0f64, f64::max)
            }
            OpKind::Close(DecisionKind::Or) => in_msgs
                .iter()
                .map(|&m| arrival(m))
                .fold(f64::INFINITY, f64::min),
            OpKind::Close(DecisionKind::Xor) => {
                let total: f64 = in_msgs.iter().map(|&m| self.prob_msg[m.index()]).sum();
                if total <= 0.0 {
                    // Degenerate: every inflow has probability 0 (e.g.
                    // the enclosing branch is impossible); fall back to
                    // the max arrival.
                    in_msgs.iter().map(|&m| arrival(m)).fold(0.0f64, f64::max)
                } else {
                    // Weight each inflow as `arrival · (p / total)`: the
                    // weights sum to the block's own execution
                    // probability.
                    in_msgs
                        .iter()
                        .map(|&m| arrival(m) * (self.prob_msg[m.index()] / total))
                        .sum()
                }
            }
            // Operational nodes and openers have a single predecessor in
            // a well-formed workflow.
            _ => in_msgs.iter().map(|&m| arrival(m)).fold(0.0f64, f64::max),
        }
    }

    /// Finish time of `u` given the finish times of its predecessors.
    ///
    /// This is the single source of truth for the per-op recurrence: the
    /// full forward pass, the incremental re-relaxation in
    /// [`DeltaEvaluator`](crate::delta::DeltaEvaluator) and the critical
    /// path all go through it, so their results are bit-for-bit
    /// identical by construction.
    #[inline]
    pub(crate) fn finish_of(&self, u: OpId, mapping: &Mapping, finish: &[f64]) -> f64 {
        self.ready_of(u, mapping, finish) + self.proc_sec(u.index(), mapping.server_of(u).index())
    }

    /// One forward pass over the topological order: fills `finish[u]`
    /// for every op of `mapping`.
    #[inline]
    pub(crate) fn forward(&self, mapping: &Mapping, finish: &mut [f64]) {
        for &u in &self.order {
            let f = self.finish_of(u, mapping, finish);
            finish[u.index()] = f;
        }
    }

    /// Workflow completion time given a fully relaxed `finish` array.
    #[inline]
    pub(crate) fn completion_of(&self, finish: &[f64]) -> Seconds {
        Seconds(
            self.sinks
                .iter()
                .map(|s| finish[s.index()])
                .fold(0.0f64, f64::max),
        )
    }

    /// Expected execution time of `mapping` (Table 1's `Texecute`).
    pub fn execution_time(&mut self, mapping: &Mapping) -> Seconds {
        // Split borrows: read-only tables vs the finish scratch buffer.
        let mut finish = std::mem::take(&mut self.finish);
        self.forward(mapping, &mut finish);
        let result = self.completion_of(&finish);
        self.finish = finish;
        result
    }

    /// Per-server loads (probability-weighted processing seconds).
    pub fn compute_loads(&mut self, mapping: &Mapping) -> &[Seconds] {
        for l in self.loads.iter_mut() {
            *l = Seconds::ZERO;
        }
        for (op, server) in mapping.iter() {
            let secs = self.proc_secs[op.index() * self.n_servers + server.index()];
            self.loads[server.index()] += Seconds(secs * self.prob_op[op.index()]);
        }
        &self.loads
    }

    /// Fairness time penalty of `mapping`.
    pub fn penalty(&mut self, mapping: &Mapping) -> Seconds {
        self.compute_loads(mapping);
        time_penalty_of_loads(&self.loads)
    }

    /// Full cost breakdown of `mapping`.
    ///
    /// On priced (geo) networks the breakdown carries the dollar bill
    /// for the servers the mapping occupies; on legacy networks the
    /// money machinery is skipped entirely and the breakdown is
    /// constructed through the exact pre-geo code path.
    pub fn evaluate(&mut self, mapping: &Mapping) -> CostBreakdown {
        let execution = self.execution_time(mapping);
        let penalty = self.penalty(mapping);
        if self.prices.has_prices() {
            let rate = self.prices.rate_of_mapping(mapping, &mut self.occupancy);
            let money = billed(rate, execution);
            CostBreakdown::with_money(execution, penalty, money, self.problem.weights())
        } else {
            CostBreakdown::new(execution, penalty, self.problem.weights())
        }
    }

    /// The scalar combined cost of `mapping` (shorthand for
    /// `evaluate(..).combined`).
    pub fn combined(&mut self, mapping: &Mapping) -> Seconds {
        self.evaluate(mapping).combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{loads, texecute, time_penalty};
    use wsflow_model::{BlockSpec, MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers, line_uniform};

    fn spread(p: &Problem, k: u32) -> Mapping {
        Mapping::from_fn(p.num_ops(), |o| ServerId::new(o.0 % k))
    }

    #[test]
    fn matches_direct_texecute_and_penalty_on_line_bus() {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[MCycles(10.0), MCycles(20.0), MCycles(30.0), MCycles(5.0)],
            Mbits(0.5),
        );
        let net = bus("b", homogeneous_servers(3, 2.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let mut ev = Evaluator::new(&p);
        for k in 1..=3u32 {
            let m = spread(&p, k);
            let direct_exec = texecute(&p, &m);
            let direct_pen = time_penalty(&p, &m);
            let cb = ev.evaluate(&m);
            assert!((cb.execution.value() - direct_exec.value()).abs() < 1e-12);
            assert!((cb.penalty.value() - direct_pen.value()).abs() < 1e-12);
            assert!((cb.combined.value() - (direct_exec + direct_pen).value()).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_direct_on_random_graph() {
        let spec = BlockSpec::seq(vec![
            BlockSpec::op("s", MCycles(15.0)),
            BlockSpec::and(
                "a",
                vec![
                    BlockSpec::xor_uniform(
                        "x",
                        vec![
                            BlockSpec::op("q", MCycles(10.0)),
                            BlockSpec::op("r", MCycles(90.0)),
                        ],
                    ),
                    BlockSpec::op("t", MCycles(70.0)),
                ],
            ),
        ]);
        let mut i = 0usize;
        let w = spec
            .lower("w", &mut || {
                i += 1;
                Mbits(0.02 * i as f64)
            })
            .unwrap();
        let net = line_uniform("l", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let mut ev = Evaluator::new(&p);
        let m = spread(&p, 3);
        assert!((ev.execution_time(&m).value() - texecute(&p, &m).value()).abs() < 1e-12);
        let direct = loads(&p, &m);
        let fast = ev.compute_loads(&m).to_vec();
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a.value() - b.value()).abs() < 1e-12);
        }
    }

    /// Pinning test for the XOR-close rule: with every op co-located the
    /// communication terms vanish, so the evaluator's `arrival · (p /
    /// total)` weighting and the `total ≤ 0` max-arrival fallback must
    /// reproduce `texecute` *bit for bit*, including when an enclosing
    /// branch makes every inflow of an inner XOR-close impossible.
    #[test]
    fn xor_close_pins_texecute_on_zero_probability_inflows() {
        use wsflow_model::Probability;
        let spec = BlockSpec::Decision {
            kind: wsflow_model::DecisionKind::Xor,
            name: "outer".into(),
            branches: vec![
                (
                    // Impossible branch: the inner closer sees only
                    // zero-probability inflows (total ≤ 0 fallback).
                    Probability::new(0.0),
                    BlockSpec::xor_uniform(
                        "inner",
                        vec![
                            BlockSpec::op("a", MCycles(10.0)),
                            BlockSpec::op("b", MCycles(20.0)),
                        ],
                    ),
                ),
                (
                    // Uneven inner split exercises the p/total weighting
                    // (total = 1 · 0.7 after scaling by the outer branch).
                    Probability::new(0.7),
                    BlockSpec::xor_uniform(
                        "taken",
                        vec![
                            BlockSpec::op("c", MCycles(30.0)),
                            BlockSpec::op("d", MCycles(7.0)),
                            BlockSpec::op("e", MCycles(11.0)),
                        ],
                    ),
                ),
                (Probability::new(0.3), BlockSpec::op("f", MCycles(13.0))),
            ],
        };
        let w = spec.lower("w", &mut || Mbits(0.25)).unwrap();
        let net = bus("b", homogeneous_servers(3, 2.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let mut ev = Evaluator::new(&p);

        // Co-located: agreement must be exact to the last bit.
        let colocated = Mapping::all_on(p.num_ops(), ServerId::new(1));
        assert_eq!(
            ev.execution_time(&colocated).value().to_bits(),
            texecute(&p, &colocated).value().to_bits(),
            "co-located XOR workflow must pin texecute bitwise"
        );

        // Spread out: communication times are computed through different
        // (mathematically equal) expressions, so allow the usual 1e-12.
        for k in 2..=3u32 {
            let m = spread(&p, k);
            let fast = ev.execution_time(&m).value();
            let direct = texecute(&p, &m).value();
            assert!(
                (fast - direct).abs() < 1e-12,
                "k={k}: evaluator {fast} vs texecute {direct}"
            );
            assert!(
                fast.is_finite(),
                "zero-probability inflows must not yield NaN"
            );
        }
    }

    #[test]
    fn propagation_delays_enter_communication_cost() {
        use wsflow_net::topology::full_mesh;
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(10.0)], Mbits(1.0));
        let net = full_mesh(
            "m",
            homogeneous_servers(2, 1.0),
            MbitsPerSec(100.0),
            wsflow_model::Seconds(0.5), // huge propagation delay
        )
        .unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let mut ev = Evaluator::new(&p);
        let split = Mapping::from_fn(2, |o| ServerId::new(o.0 % 2));
        // 10 ms + (1 Mbit / 100 Mbps = 10 ms) + 500 ms prop + 10 ms.
        let t = ev.execution_time(&split);
        assert!((t.value() - 0.530).abs() < 1e-12, "got {t}");
        // Direct function agrees.
        assert!((texecute(&p, &split).value() - t.value()).abs() < 1e-12);
    }

    #[test]
    fn repeated_evaluation_is_consistent() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0); 6], Mbits(0.1));
        let net = bus("b", homogeneous_servers(3, 1.0), MbitsPerSec(100.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let mut ev = Evaluator::new(&p);
        let m1 = spread(&p, 2);
        let m2 = spread(&p, 3);
        let a1 = ev.evaluate(&m1);
        let _ = ev.evaluate(&m2);
        let a1_again = ev.evaluate(&m1);
        assert_eq!(a1, a1_again);
    }
}
