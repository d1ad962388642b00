//! Branch-and-bound exact search (extension).
//!
//! The paper's exhaustive algorithm enumerates all `N^M` mappings, which
//! caps it at toy instances. This solver explores the same space as a
//! tree — operations assigned one at a time, heaviest first — and prunes
//! every subtree whose *admissible lower bound* already exceeds the best
//! complete mapping found so far:
//!
//! * **Execution bound**: finish-time propagation where every unassigned
//!   operation optimistically runs on the fastest server and every
//!   message with an unassigned endpoint is free.
//! * **Penalty bound**: the water-filling minimum — remaining work is
//!   split fractionally over the least-loaded servers, the provably
//!   fairest completion.
//!
//! The search is *anytime*: it seeds the incumbent with the greedy
//! algorithms' best mapping and returns the incumbent when the node
//! budget runs out, so it degrades gracefully into "greedy + partial
//! proof of optimality" on big instances.

use wsflow_cost::{Evaluator, Mapping, Problem};
use wsflow_model::traversal::topo_sort;
use wsflow_model::{DecisionKind, OpId, OpKind};
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::fair_load::FairLoad;
use crate::fltr2::FairLoadTieResolver2;
use crate::holm::HeavyOpsLargeMsgs;
use crate::solve::{CancelToken, SolveCtx, SolveOutcome};

/// Branch-and-bound deployment search.
///
/// # Examples
///
/// ```
/// use wsflow_core::BranchAndBound;
/// use wsflow_cost::Problem;
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.line("op", &[MCycles(10.0), MCycles(30.0), MCycles(20.0), MCycles(40.0)], Mbits(0.5));
/// let net = bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
/// let problem = Problem::new(b.build().unwrap(), net).unwrap();
///
/// let outcome = BranchAndBound::new().deploy_with_proof(&problem);
/// assert!(outcome.proven_optimal); // 3^4 = 81 mappings, trivially provable
/// assert!(outcome.cost > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Maximum number of search-tree nodes
    /// [`deploy_with_proof`](Self::deploy_with_proof) expands before
    /// returning the incumbent.
    pub node_budget: u64,
}

impl BranchAndBound {
    /// Search with a default budget of one million nodes.
    pub fn new() -> Self {
        Self::with_budget(1_000_000)
    }

    /// Search with a custom node budget.
    pub fn with_budget(node_budget: u64) -> Self {
        Self { node_budget }
    }

    /// Deploy and also report whether optimality was proven (the search
    /// finished within budget) and how many nodes were expanded.
    ///
    /// This is one depth-first search from the root on the calling
    /// thread, so every field of the outcome is a pure function of the
    /// instance and [`node_budget`](Self::node_budget).
    pub fn deploy_with_proof(&self, problem: &Problem) -> BnbOutcome {
        wsflow_obs::span_scope!("bnb.search");
        let mut search = Search::new(problem);
        // Incumbent: best greedy mapping.
        let (mut mapping, mut cost) = Self::greedy_seed(problem, &mut search.ev);
        let mut partial = vec![ServerId::new(0); problem.num_ops()];
        let mut assigned = vec![false; problem.num_ops()];
        let mut stats = BnbStats::default();
        let complete = search.recurse_local(
            0,
            &mut partial,
            &mut assigned,
            &mut mapping,
            &mut cost,
            &mut stats,
            Some(self.node_budget),
            &CancelToken::new(),
        );
        stats.flush();
        BnbOutcome {
            mapping,
            cost,
            proven_optimal: complete,
            nodes_expanded: stats.nodes,
            prunes: stats.prunes,
            incumbent_updates: stats.incumbent_updates,
        }
    }
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self::new()
    }
}

/// Search-tree counters for one (sub)search: plain integer adds on the
/// hot path, merged per branch and flushed to `wsflow-obs` once per
/// deploy (when enabled).
#[derive(Debug, Clone, Copy, Default)]
struct BnbStats {
    /// Tree nodes expanded.
    nodes: u64,
    /// Subtrees cut by the admissible bound.
    prunes: u64,
    /// Times a leaf improved the (local) incumbent.
    incumbent_updates: u64,
}

impl BnbStats {
    fn absorb(&mut self, other: BnbStats) {
        self.nodes += other.nodes;
        self.prunes += other.prunes;
        self.incumbent_updates += other.incumbent_updates;
    }

    /// Publish one run's counters to `wsflow-obs` (when enabled).
    fn flush(&self) {
        if wsflow_obs::enabled() {
            wsflow_obs::counter_add("bnb.runs", 1);
            wsflow_obs::counter_add("bnb.nodes_expanded", self.nodes);
            wsflow_obs::counter_add("bnb.prunes", self.prunes);
            wsflow_obs::counter_add("bnb.incumbent_updates", self.incumbent_updates);
        }
    }
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct BnbOutcome {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its combined cost.
    pub cost: f64,
    /// `true` if the search completed (the mapping is globally optimal).
    pub proven_optimal: bool,
    /// Number of tree nodes expanded.
    pub nodes_expanded: u64,
    /// Number of subtrees cut by the admissible lower bound.
    pub prunes: u64,
    /// Number of incumbent improvements accepted.
    pub incumbent_updates: u64,
}

impl BranchAndBound {
    /// The greedy-seeded incumbent shared by both search entry points:
    /// best of the three construction heuristics.
    fn greedy_seed(problem: &Problem, ev: &mut Evaluator<'_>) -> (Mapping, f64) {
        let seeds: [&dyn DeploymentAlgorithm; 3] = [
            &FairLoad,
            &FairLoadTieResolver2 { seed: 0 },
            &HeavyOpsLargeMsgs,
        ];
        let mut best: Option<(Mapping, f64)> = None;
        for algo in seeds {
            if let Ok(m) = algo.deploy(problem) {
                let c = ev.combined(&m).value();
                if best.as_ref().map(|(_, bc)| c < *bc).unwrap_or(true) {
                    best = Some((m, c));
                }
            }
        }
        best.expect("greedy seeds always produce mappings")
    }
}

impl DeploymentAlgorithm for BranchAndBound {
    fn name(&self) -> &str {
        "BranchAndBound"
    }

    /// Anytime search under `ctx`'s step budget (one step per expanded
    /// tree node).
    ///
    /// The remaining budget is split across the `N` *root branches* — a
    /// structural count, independent of the worker layout — which run
    /// over [`wsflow_par::parallel_map`], each pruning only against its
    /// branch-local incumbent. Results are thus bit-identical for any
    /// `WSFLOW_THREADS` setting; the price is weaker pruning than the
    /// single recursion of [`deploy_with_proof`](Self::deploy_with_proof),
    /// whose incumbent carries over from one root branch to the next.
    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        wsflow_obs::span_scope!("bnb.search");
        let mark = ctx.mark();
        let mut ev = Evaluator::new(problem);
        let (seed_mapping, seed_cost) = Self::greedy_seed(problem, &mut ev);
        ctx.offer(&seed_mapping, seed_cost);

        let n = problem.num_servers();
        let shares = wsflow_par::split_budget(ctx.remaining(), n);
        let token = ctx.token();
        let seed_ref = &seed_mapping;
        let shares_ref = &shares;
        let token_ref = &token;
        let branches = wsflow_par::parallel_map(n, |s| {
            let mut search = Search::new(problem);
            let op = search.order[0];
            let mut partial = vec![ServerId::new(0); problem.num_ops()];
            let mut assigned = vec![false; problem.num_ops()];
            partial[op.index()] = ServerId::new(s as u32);
            assigned[op.index()] = true;
            let mut local_mapping = seed_ref.clone();
            let mut local_cost = seed_cost;
            let mut stats = BnbStats::default();
            let lb = search.lower_bound(&partial, &assigned);
            let complete = if lb < local_cost {
                search.recurse_local(
                    1,
                    &mut partial,
                    &mut assigned,
                    &mut local_mapping,
                    &mut local_cost,
                    &mut stats,
                    shares_ref[s],
                    token_ref,
                )
            } else {
                stats.prunes += 1;
                true
            };
            (local_mapping, local_cost, complete, stats)
        });

        // Merge branch winners in branch order with a strict `<`: the
        // earliest branch holding the optimum wins, exactly like a
        // sequential depth-first scan over the whole tree.
        let mut best_mapping = seed_mapping;
        let mut best_cost = seed_cost;
        let mut complete = true;
        let mut stats = BnbStats::default();
        for (mapping, cost, branch_complete, branch_stats) in branches {
            if cost < best_cost {
                best_cost = cost;
                best_mapping = mapping;
            }
            complete &= branch_complete;
            stats.absorb(branch_stats);
        }
        ctx.charge(stats.nodes);
        stats.flush();
        Ok(ctx.finish(mark, best_mapping, best_cost, complete))
    }

    /// Preserves the classic semantics: the configured
    /// [`node_budget`](Self::node_budget) cap, via
    /// [`deploy_with_proof`](Self::deploy_with_proof).
    fn deploy(&self, problem: &Problem) -> Result<Mapping, DeployError> {
        Ok(self.deploy_with_proof(problem).mapping)
    }
}

struct Search<'p> {
    problem: &'p Problem,
    ev: Evaluator<'p>,
    /// Operations in assignment order (heaviest expected work first).
    order: Vec<OpId>,
    /// Topological order for the execution bound.
    topo: Vec<OpId>,
    /// Expected processing seconds per (op, server).
    proc: Vec<Vec<f64>>,
    /// Fastest processing seconds per op (over all servers).
    proc_min: Vec<f64>,
    /// Expected per-op execution probability.
    prob_op: Vec<f64>,
    /// One-Mbit transfer seconds per server pair (row-major).
    pair_secs: Vec<f64>,
    n: usize,
    weights: (f64, f64),
}

impl<'p> Search<'p> {
    fn new(problem: &'p Problem) -> Self {
        let w = problem.workflow();
        let net = problem.network();
        let n = net.num_servers();
        let mut order: Vec<OpId> = w.op_ids().collect();
        let probs = problem.probabilities();
        order.sort_by(|&a, &b| {
            let ka = probs.of_op(a).value() * w.op(a).cost.value();
            let kb = probs.of_op(b).value() * w.op(b).cost.value();
            kb.partial_cmp(&ka).expect("finite").then(a.cmp(&b))
        });
        let proc: Vec<Vec<f64>> = w
            .ops()
            .iter()
            .map(|op| {
                net.servers()
                    .iter()
                    .map(|s| (op.cost / s.power).value())
                    .collect()
            })
            .collect();
        let proc_min = proc
            .iter()
            .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let mut pair_secs = vec![0.0; n * n];
        for a in net.server_ids() {
            for b in net.server_ids() {
                pair_secs[a.index() * n + b.index()] = problem
                    .routing()
                    .transfer_time(net, a, b, wsflow_model::Mbits(1.0))
                    .expect("fully routable")
                    .value();
            }
        }
        Self {
            problem,
            ev: Evaluator::new(problem),
            order,
            topo: topo_sort(w).expect("acyclic"),
            proc,
            proc_min,
            prob_op: probs.op_prob.iter().map(|p| p.value()).collect(),
            pair_secs,
            n,
            weights: (problem.weights().execution, problem.weights().penalty),
        }
    }

    /// Depth-first search below `depth`, pruning every subtree whose
    /// admissible lower bound is not strictly below the incumbent
    /// `best_cost`; leaves that strictly improve it replace it. Stops
    /// after `budget` expanded nodes (`None` = unlimited). Returns
    /// `true` if the subtree was fully explored.
    ///
    /// The cancel token is polled every [`CANCEL_POLL_PERIOD`] nodes;
    /// an early exit reports the subtree as incomplete.
    #[allow(clippy::too_many_arguments)]
    fn recurse_local(
        &mut self,
        depth: usize,
        partial: &mut Vec<ServerId>,
        assigned: &mut Vec<bool>,
        best_mapping: &mut Mapping,
        best_cost: &mut f64,
        stats: &mut BnbStats,
        budget: Option<u64>,
        token: &CancelToken,
    ) -> bool {
        if let Some(b) = budget {
            if stats.nodes >= b {
                return false;
            }
        }
        if stats.nodes.is_multiple_of(CANCEL_POLL_PERIOD) && token.is_cancelled() {
            return false;
        }
        stats.nodes += 1;
        if depth == self.order.len() {
            let candidate = Mapping::new(partial.clone());
            let cost = self.ev.combined(&candidate).value();
            if cost < *best_cost {
                *best_cost = cost;
                *best_mapping = candidate;
                stats.incumbent_updates += 1;
            }
            return true;
        }
        let op = self.order[depth];
        let mut complete = true;
        for s in 0..self.n as u32 {
            let server = ServerId::new(s);
            partial[op.index()] = server;
            assigned[op.index()] = true;
            let lb = self.lower_bound(partial, assigned);
            if lb < *best_cost {
                complete &= self.recurse_local(
                    depth + 1,
                    partial,
                    assigned,
                    best_mapping,
                    best_cost,
                    stats,
                    budget,
                    token,
                );
            } else {
                stats.prunes += 1;
            }
            assigned[op.index()] = false;
        }
        complete
    }

    fn lower_bound(&self, partial: &[ServerId], assigned: &[bool]) -> f64 {
        let exec = self.execution_bound(partial, assigned);
        let pen = self.penalty_bound(partial, assigned);
        self.weights.0 * exec + self.weights.1 * pen
    }

    /// Optimistic Texecute: unassigned ops run at their fastest possible
    /// speed; messages touching an unassigned op are free.
    fn execution_bound(&self, partial: &[ServerId], assigned: &[bool]) -> f64 {
        let w = self.problem.workflow();
        let mut finish = vec![0.0f64; w.num_ops()];
        for &u in &self.topo {
            let in_msgs = w.in_msgs(u);
            let ready = if in_msgs.is_empty() {
                0.0
            } else {
                let arrival = |mid: wsflow_model::MsgId| -> f64 {
                    let msg = w.message(mid);
                    let comm = if assigned[msg.from.index()] && assigned[msg.to.index()] {
                        let a = partial[msg.from.index()];
                        let b = partial[msg.to.index()];
                        msg.size.value() * self.pair_secs[a.index() * self.n + b.index()]
                    } else {
                        0.0
                    };
                    finish[msg.from.index()] + comm
                };
                match w.op(u).kind {
                    OpKind::Close(DecisionKind::Or) => in_msgs
                        .iter()
                        .map(|&m| arrival(m))
                        .fold(f64::INFINITY, f64::min),
                    OpKind::Close(DecisionKind::Xor) => {
                        // Weighted mean is bounded below by the minimum
                        // arrival; use the admissible minimum.
                        in_msgs
                            .iter()
                            .map(|&m| arrival(m))
                            .fold(f64::INFINITY, f64::min)
                    }
                    _ => in_msgs.iter().map(|&m| arrival(m)).fold(0.0f64, f64::max),
                }
            };
            let proc = if assigned[u.index()] {
                self.proc[u.index()][partial[u.index()].index()]
            } else {
                self.proc_min[u.index()]
            };
            finish[u.index()] = ready + proc;
        }
        w.sinks()
            .into_iter()
            .map(|s| finish[s.index()])
            .fold(0.0f64, f64::max)
    }

    /// Water-filling penalty bound: current per-server loads from the
    /// assigned ops; the remaining expected work may be split
    /// fractionally over servers, which is fairest when it levels the
    /// least-loaded servers first.
    fn penalty_bound(&self, partial: &[ServerId], assigned: &[bool]) -> f64 {
        let w = self.problem.workflow();
        let net = self.problem.network();
        let mut loads = vec![0.0f64; self.n];
        let mut remaining_cycles = 0.0f64;
        for op in w.op_ids() {
            let i = op.index();
            if assigned[i] {
                loads[partial[i].index()] += self.prob_op[i] * self.proc[i][partial[i].index()];
            } else {
                remaining_cycles += self.prob_op[i] * w.op(op).cost.value();
            }
        }
        if remaining_cycles <= 0.0 {
            return penalty_of(&loads);
        }
        // Water-fill: find level t so that raising every below-t server
        // to t consumes exactly the remaining cycles (cycles consumed on
        // server i per second of added load = P_i).
        let powers: Vec<f64> = net.servers().iter().map(|s| s.power.value()).collect();
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.sort_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite"));
        let mut cycles_left = remaining_cycles;
        let mut level = loads[idx[0]];
        let mut active_power = 0.0;
        let mut k = 0;
        while k < self.n {
            // Activate every server at the current level.
            while k < self.n && loads[idx[k]] <= level + 1e-15 {
                active_power += powers[idx[k]];
                k += 1;
            }
            let next_level = if k < self.n {
                loads[idx[k]]
            } else {
                f64::INFINITY
            };
            let capacity = (next_level - level) * active_power;
            if capacity >= cycles_left || next_level.is_infinite() {
                level += cycles_left / active_power;
                cycles_left = 0.0;
                break;
            }
            cycles_left -= capacity;
            level = next_level;
        }
        debug_assert!(cycles_left.abs() < 1e-9 || cycles_left == 0.0);
        let final_loads: Vec<f64> = loads
            .iter()
            .map(|&l| if l < level { level } else { l })
            .collect();
        penalty_of(&final_loads)
    }
}

/// How many tree nodes a branch expands between cancel polls.
const CANCEL_POLL_PERIOD: u64 = 1024;

fn penalty_of(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let avg = loads.iter().sum::<f64>() / loads.len() as f64;
    loads.iter().map(|l| (l - avg).abs()).sum::<f64>() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::optimum;

    /// Admissibility: for random partial assignments, the lower bound
    /// never exceeds the cost of the best completion (checked against
    /// brute force on tiny instances).
    #[test]
    fn lower_bound_is_admissible() {
        use rand::{Rng, SeedableRng};
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0],
            &[0.5, 0.1, 0.9],
            homogeneous_servers(2, 1.0),
            5.0,
        );
        let mut search = Search::new(&p);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let m = p.num_ops();
        for _ in 0..50 {
            // Random partial assignment.
            let mut partial = vec![ServerId::new(0); m];
            let mut assigned = vec![false; m];
            for i in 0..m {
                if rng.gen::<bool>() {
                    assigned[i] = true;
                    partial[i] = ServerId::new(rng.gen_range(0..2));
                }
            }
            let lb = search.lower_bound(&partial, &assigned);
            // Brute-force the best completion of the free slots.
            let free: Vec<usize> = (0..m).filter(|&i| !assigned[i]).collect();
            let mut best = f64::INFINITY;
            for bits in 0u32..(1 << free.len()) {
                let mut full = partial.clone();
                for (j, &i) in free.iter().enumerate() {
                    full[i] = ServerId::new((bits >> j) & 1);
                }
                let mapping = Mapping::new(full);
                best = best.min(search.ev.combined(&mapping).value());
            }
            assert!(
                lb <= best + 1e-9,
                "inadmissible bound: lb {lb} > best completion {best}                  (assigned {assigned:?})"
            );
        }
    }
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::Server;

    fn line_problem(costs: &[f64], sizes: &[f64], servers: Vec<Server>, mbps: f64) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let ids: Vec<OpId> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| b.op(format!("o{i}"), MCycles(c)))
            .collect();
        for (i, &s) in sizes.iter().enumerate() {
            b.msg(ids[i], ids[i + 1], Mbits(s));
        }
        let net = bus("n", servers, MbitsPerSec(mbps)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn matches_exhaustive_optimum() {
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0, 15.0, 25.0],
            &[0.5, 0.1, 0.9, 0.3, 0.2],
            homogeneous_servers(3, 1.0),
            5.0,
        );
        let (_, opt) = optimum(&p, 1_000_000).unwrap(); // 3^6 = 729
        let out = BranchAndBound::new().deploy_with_proof(&p);
        assert!(out.proven_optimal);
        assert!(
            (out.cost - opt).abs() < 1e-9,
            "bnb {} vs exhaustive {opt}",
            out.cost
        );
    }

    #[test]
    fn matches_optimum_on_heterogeneous_servers() {
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0, 15.0],
            &[0.5, 0.1, 0.9, 0.3],
            vec![
                Server::with_ghz("a", 1.0),
                Server::with_ghz("b", 2.0),
                Server::with_ghz("c", 3.0),
            ],
            10.0,
        );
        let (_, opt) = optimum(&p, 1_000_000).unwrap();
        let out = BranchAndBound::new().deploy_with_proof(&p);
        assert!(out.proven_optimal);
        assert!((out.cost - opt).abs() < 1e-9);
    }

    #[test]
    fn prunes_compared_to_exhaustive() {
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0, 15.0, 25.0, 35.0, 12.0],
            &[0.5, 0.1, 0.9, 0.3, 0.2, 0.6, 0.4],
            homogeneous_servers(3, 1.0),
            5.0,
        );
        let out = BranchAndBound::new().deploy_with_proof(&p);
        assert!(out.proven_optimal);
        // The full tree has 3^8 = 6561 leaves and ~9841 internal nodes;
        // the bound must prune a substantial portion.
        assert!(
            out.nodes_expanded < 9_841,
            "no pruning happened: {} nodes",
            out.nodes_expanded
        );
        assert!(out.prunes > 0, "pruned subtrees must be counted");
        let (_, opt) = optimum(&p, 1_000_000).unwrap();
        assert!((out.cost - opt).abs() < 1e-9);
    }

    #[test]
    fn anytime_behaviour_under_tiny_budget() {
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0, 15.0, 25.0, 35.0, 12.0, 22.0, 18.0],
            &[0.5, 0.1, 0.9, 0.3, 0.2, 0.6, 0.4, 0.7, 0.15],
            homogeneous_servers(3, 1.0),
            5.0,
        );
        let out = BranchAndBound::with_budget(50).deploy_with_proof(&p);
        assert!(!out.proven_optimal);
        // Incumbent is never worse than the best greedy seed.
        let mut ev = Evaluator::new(&p);
        let greedy = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        assert!(out.cost <= ev.combined(&greedy).value() + 1e-12);
    }

    #[test]
    fn works_on_graph_workflows() {
        use wsflow_model::BlockSpec;
        let spec = BlockSpec::seq(vec![
            BlockSpec::op("a", MCycles(20.0)),
            BlockSpec::xor_uniform(
                "x",
                vec![
                    BlockSpec::op("l", MCycles(40.0)),
                    BlockSpec::op("r", MCycles(10.0)),
                ],
            ),
        ]);
        let mut i = 0;
        let w = spec
            .lower("g", &mut || {
                i += 1;
                Mbits(0.1 * i as f64)
            })
            .unwrap();
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let (_, opt) = optimum(&p, 1_000_000).unwrap(); // 2^6 = 64
        let out = BranchAndBound::new().deploy_with_proof(&p);
        assert!(out.proven_optimal);
        assert!((out.cost - opt).abs() < 1e-9);
    }
}
