//! Branch-and-bound exact search (extension).
//!
//! The paper's exhaustive algorithm enumerates all `N^M` mappings, which
//! caps it at toy instances. This solver explores the same space as a
//! tree — operations assigned one at a time, heaviest first — and prunes
//! every subtree whose *admissible lower bound* already exceeds the best
//! complete mapping found so far:
//!
//! * **Execution bound**: [`Evaluator::relaxed_execution_time`], Table
//!   1's own recurrence with every unassigned operation on its fastest
//!   server and every message with an unassigned endpoint free. A
//!   message between two assigned operations costs its transfer, so
//!   link propagation and region surcharges are charged once per
//!   transfer, as in the cost being bounded. An XOR join takes the
//!   probability-weighted mean of its lower-bounded arrivals, which is
//!   admissible because the weights do not depend on the mapping and
//!   the recurrence is monotone in its arrivals.
//! * **Penalty bound**: the time penalty is the load above the mean.
//!   No completion takes load off a server, and the mean is largest
//!   when all remaining work runs on the slowest server, so the current
//!   loads' excess over that largest mean bounds it. (Filling the
//!   least-loaded servers first, "water-filling", gives the minimum only
//!   on identical servers: on mixed powers, work on a slow server
//!   raises the mean more, and a completion can beat it.)
//!
//! The search is *anytime*: it seeds the incumbent with the greedy
//! algorithms' best mapping and returns the incumbent when the node
//! budget runs out, so it degrades gracefully into "greedy + partial
//! proof of optimality" on big instances.

use wsflow_cost::{Evaluator, Mapping, PartialMapping, Problem};
use wsflow_model::OpId;
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
        let mut stats = BnbStats::default();
        let complete = search.recurse_local(
            0,
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
        wsflow_obs::counter_add("bnb.runs", 1);
        wsflow_obs::counter_add("bnb.nodes_expanded", self.nodes);
        wsflow_obs::counter_add("bnb.prunes", self.prunes);
        wsflow_obs::counter_add("bnb.incumbent_updates", self.incumbent_updates);
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
            search.partial.assign(op, ServerId::new(s as u32));
            let mut local_mapping = seed_ref.clone();
            let mut local_cost = seed_cost;
            let mut stats = BnbStats::default();
            let lb = search.lower_bound();
            let complete = if lb < local_cost {
                search.recurse_local(
                    1,
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
    /// The servers of the operations assigned so far.
    partial: PartialMapping,
    /// Expected processing seconds per (op, server).
    proc: Vec<Vec<f64>>,
    /// Expected per-op execution probability.
    prob_op: Vec<f64>,
    /// The least server power (MCycles per second).
    slowest_power: f64,
    n: usize,
    weights: (f64, f64),
}

impl<'p> Search<'p> {
    fn new(problem: &'p Problem) -> Self {
        let w = problem.workflow();
        let net = problem.network();
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
        Self {
            problem,
            ev: Evaluator::new(problem),
            order,
            partial: PartialMapping::unassigned(w.num_ops()),
            proc,
            prob_op: probs.op_prob.iter().map(|p| p.value()).collect(),
            slowest_power: net
                .servers()
                .iter()
                .map(|s| s.power.value())
                .fold(f64::INFINITY, f64::min),
            n: net.num_servers(),
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
    fn recurse_local(
        &mut self,
        depth: usize,
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
            let candidate = self.partial.complete().expect("a leaf assigns every op");
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
            self.partial.assign(op, ServerId::new(s));
            let lb = self.lower_bound();
            if lb < *best_cost {
                complete &=
                    self.recurse_local(depth + 1, best_mapping, best_cost, stats, budget, token);
            } else {
                stats.prunes += 1;
            }
        }
        self.partial.unassign(op);
        complete
    }

    /// Admissible lower bound on the combined cost of every completion
    /// of [`partial`](Self::partial).
    fn lower_bound(&mut self) -> f64 {
        let exec = self.ev.relaxed_execution_time(&self.partial).value();
        let pen = self.penalty_bound();
        self.weights.0 * exec + self.weights.1 * pen
    }

    /// Penalty bound. The time penalty is the total load above the
    /// mean, `Σ max(0, load − mean)`, and no completion lowers a server's
    /// load below what its assigned ops already put there. The mean is
    /// largest when all remaining expected work runs on the slowest
    /// server, so every completion's penalty is at least
    /// `Σ max(0, load − that largest mean)` over the current loads.
    fn penalty_bound(&self) -> f64 {
        let w = self.problem.workflow();
        let mut loads = vec![0.0f64; self.n];
        let mut remaining_cycles = 0.0f64;
        for op in w.op_ids() {
            let i = op.index();
            match self.partial.server_of(op) {
                Some(s) => loads[s.index()] += self.prob_op[i] * self.proc[i][s.index()],
                None => remaining_cycles += self.prob_op[i] * w.op(op).cost.value(),
            }
        }
        let mean =
            (loads.iter().sum::<f64>() + remaining_cycles / self.slowest_power) / self.n as f64;
        loads.iter().map(|&l| (l - mean).max(0.0)).sum()
    }
}

/// How many tree nodes a branch expands between cancel polls.
const CANCEL_POLL_PERIOD: u64 = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::optimum;

    /// Instances for the bound checks: a line on a propagation-free bus;
    /// lines on full meshes with long propagation and messages over
    /// 1 Mbit; an XOR graph on such a mesh; and small geo instances,
    /// whose region surcharges are per-transfer latencies.
    fn bound_instances() -> Vec<Problem> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut problems = vec![line_problem(
            &[10.0, 30.0, 20.0, 40.0],
            &[0.5, 0.1, 0.9],
            homogeneous_servers(2, 1.0),
            5.0,
        )];
        for _ in 0..6 {
            let ops = rng.gen_range(3..=5usize);
            let costs: Vec<f64> = (0..ops).map(|_| rng.gen_range(10.0..100.0)).collect();
            let sizes: Vec<f64> = (1..ops).map(|_| rng.gen_range(1.0..21.0)).collect();
            let servers = homogeneous_servers(rng.gen_range(2..=3usize), 1.0);
            let propagation = Seconds(rng.gen_range(0.05..0.55));
            problems.push(line_problem_on(
                &costs,
                &sizes,
                full_mesh("m", servers, MbitsPerSec(1000.0), propagation).unwrap(),
            ));
        }
        let mesh = full_mesh(
            "m",
            homogeneous_servers(3, 1.0),
            MbitsPerSec(100.0),
            Seconds(0.02),
        )
        .unwrap();
        problems.push(Problem::new(xor_graph(2.0), mesh).unwrap());
        for seed in 0..3 {
            let s = wsflow_workload::geo_instance(5, 3, 2, seed);
            problems.push(Problem::new(s.workflow, s.network).unwrap());
        }
        problems
    }

    /// The least combined cost over every completion of `search`'s
    /// partial mapping, by brute force.
    fn best_completion(search: &mut Search<'_>) -> f64 {
        let n = search.n;
        let free: Vec<OpId> = search
            .problem
            .workflow()
            .op_ids()
            .filter(|&o| !search.partial.is_assigned(o))
            .collect();
        let mut full = search.partial.clone();
        let mut best = f64::INFINITY;
        for code in 0..n.pow(free.len() as u32) {
            let mut rest = code;
            for &o in &free {
                full.assign(o, ServerId::new((rest % n) as u32));
                rest /= n;
            }
            let mapping = full.complete().unwrap();
            best = best.min(search.ev.combined(&mapping).value());
        }
        best
    }

    /// Admissibility: for random partial assignments, the lower bound
    /// never exceeds the cost of the best completion (checked against
    /// brute force on tiny instances).
    #[test]
    fn lower_bound_is_admissible() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for p in &bound_instances() {
            let mut search = Search::new(p);
            let n = p.num_servers() as u32;
            for _ in 0..30 {
                search.partial = PartialMapping::unassigned(p.num_ops());
                for op in p.workflow().op_ids() {
                    if rng.gen::<bool>() {
                        search
                            .partial
                            .assign(op, ServerId::new(rng.gen_range(0..n)));
                    }
                }
                let lb = search.lower_bound();
                let best = best_completion(&mut search);
                assert!(
                    lb <= best + 1e-9,
                    "{}: inadmissible bound: lb {lb} > best completion {best} \
                     (partial {:?})",
                    p.workflow().name(),
                    search.partial
                );
            }
        }
    }

    /// The root bound, with nothing assigned, is a floor under every
    /// mapping: no solver may report a cheaper one.
    #[test]
    fn no_solver_reports_a_cost_below_the_root_bound() {
        use crate::registry;
        use crate::solve::SolveCtx;
        use crate::{
            AllOnFastest, BestOfRandom, Blackboard, Exhaustive, Portfolio, RandomMapping,
            RoundRobin,
        };
        let mut problems = bound_instances();
        let class = wsflow_workload::ExperimentClass::class_c();
        for seed in 0..4u64 {
            let config = if seed % 2 == 0 {
                wsflow_workload::Configuration::LineBus(MbitsPerSec(10.0))
            } else {
                wsflow_workload::Configuration::GraphBus(
                    wsflow_workload::GraphClass::Hybrid,
                    MbitsPerSec(1.0),
                )
            };
            let s = wsflow_workload::generate(config, 6, 3, &class, 40 + seed);
            problems.push(Problem::new(s.workflow, s.network).unwrap());
        }
        for p in &problems {
            let floor = Search::new(p).lower_bound();
            let mut solvers = registry::paper_bus_algorithms(5);
            solvers.extend(registry::line_line_variants());
            solvers.push(Box::new(RandomMapping::new(5)));
            solvers.push(Box::new(BestOfRandom::new(16, 5)));
            solvers.push(Box::new(RoundRobin));
            solvers.push(Box::new(AllOnFastest));
            solvers.push(Box::new(Blackboard::new(5)));
            solvers.push(Box::new(Blackboard::new(9)));
            solvers.push(Box::new(Portfolio::new(5)));
            solvers.push(Box::new(Exhaustive::new()));
            solvers.push(Box::new(BranchAndBound::new()));
            for algo in &solvers {
                // Line–Line variants reject non-line networks.
                let Ok(out) = algo.solve(p, &mut SolveCtx::unlimited()) else {
                    continue;
                };
                assert!(
                    out.cost >= floor,
                    "{} on {}: cost {} below the root bound {floor}",
                    algo.name(),
                    p.workflow().name(),
                    out.cost
                );
            }
        }
    }

    use wsflow_model::{
        BlockSpec, MCycles, Mbits, MbitsPerSec, Seconds, Workflow, WorkflowBuilder,
    };
    use wsflow_net::topology::{bus, full_mesh, homogeneous_servers};
    use wsflow_net::{Network, Server};

    fn line_problem(costs: &[f64], sizes: &[f64], servers: Vec<Server>, mbps: f64) -> Problem {
        line_problem_on(costs, sizes, bus("n", servers, MbitsPerSec(mbps)).unwrap())
    }

    fn line_problem_on(costs: &[f64], sizes: &[f64], net: Network) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let ids: Vec<OpId> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| b.op(format!("o{i}"), MCycles(c)))
            .collect();
        for (i, &s) in sizes.iter().enumerate() {
            b.msg(ids[i], ids[i + 1], Mbits(s));
        }
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    /// `a` then an XOR split into `l` (40 MCycles) or `r` (10), with
    /// message `i` of size `step · i` Mbit.
    fn xor_graph(step: f64) -> Workflow {
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
        spec.lower("g", &mut || {
            i += 1;
            Mbits(step * i as f64)
        })
        .unwrap()
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
        let w = xor_graph(0.1);
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let (_, opt) = optimum(&p, 1_000_000).unwrap(); // 2^6 = 64
        let out = BranchAndBound::new().deploy_with_proof(&p);
        assert!(out.proven_optimal);
        assert!((out.cost - opt).abs() < 1e-9);
    }
}
