//! Local-search refinement (extension / ablation, not in the paper).
//!
//! The paper's future work calls for "a detailed study of the proposed
//! algorithms whenever user-defined constraints are given" and stops at
//! pure greedy construction. These refiners answer the natural follow-up
//! question — how far from locally optimal are the greedy mappings? —
//! and the harness uses them as an upper-bound reference in the quality
//! study.
//!
//! Every first-improvement refinement in the workspace runs on one of
//! three budgeted kernels over a [`DeltaEvaluator`]:
//!
//! * [`hill_climb_ctx`] — single-operation move sweeps over an op list.
//!   [`HillClimb`] and the blackboard's Mover pass every op; the
//!   blackboard's Repairer and `wsflow-dyn`'s localized repair pass the
//!   ops around a fault.
//! * [`swap_refine_ctx`] — pair-swap sweeps (the blackboard's Swapper).
//! * [`moves_and_swaps_ctx`] — the two alternated to a combined local
//!   optimum (`wsflow-dyn`'s whole-placement repair).
//!
//! Each charges one logical step per evaluator probe against a
//! [`SolveCtx`], offers every improvement to it, and returns the final
//! mapping, its combined cost, and whether it ran to convergence.
//! Unbudgeted callers pass `&mut SolveCtx::unlimited()`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_cost::{DeltaEvaluator, Mapping, Problem};
use wsflow_model::OpId;
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{SolveCtx, SolveOutcome};

/// Upper bound on [`HillClimb`]'s full improvement sweeps (each sweep
/// tries every (operation, server) move once).
const HILL_CLIMB_SWEEPS: usize = 50;

/// First-improvement hill climbing over single-operation moves, started
/// from an inner algorithm's mapping.
pub struct HillClimb<A> {
    /// The algorithm producing the starting mapping.
    pub inner: A,
}

impl<A> HillClimb<A> {
    /// Refine `inner`'s result with up to 50 sweeps.
    pub fn new(inner: A) -> Self {
        Self { inner }
    }
}

/// Budgeted first-improvement move sweeps: each sweep tries, for every
/// op of `ops` in order, every other server in id order, and keeps the
/// first move that lowers the combined cost. Sweeps repeat until one
/// finds nothing or `max_sweeps` have run.
///
/// Each evaluator probe charges one logical step against `ctx`; the
/// climb stops mid-sweep the moment the budget runs out (or the token
/// fires) and returns the refined-so-far state with the third value
/// `false`. The start and every improvement are offered to `ctx`.
pub fn hill_climb_ctx(
    problem: &Problem,
    start: Mapping,
    ops: &[OpId],
    max_sweeps: usize,
    ctx: &mut SolveCtx<'_>,
) -> (Mapping, f64, bool) {
    // The delta evaluator re-relaxes only the ops a move can affect and
    // re-folds only the two touched servers; its costs are bit-identical
    // to a full `Evaluator` pass, so the refinement trajectory (and the
    // local optimum reached) is unchanged — just cheaper per probe.
    let mut delta = DeltaEvaluator::new(problem, start);
    let mut cost = delta.cost().combined.value();
    ctx.offer(delta.mapping(), cost);
    let n = problem.num_servers() as u32;
    for _ in 0..max_sweeps {
        let mut improved = false;
        for &op in ops {
            let original = delta.mapping().server_of(op);
            for s in 0..n {
                let server = ServerId::new(s);
                if server == original {
                    continue;
                }
                if !ctx.try_charge(1) {
                    return (delta.mapping().clone(), cost, false);
                }
                let c = delta.probe(op, server).combined.value();
                if c < cost {
                    delta.apply(op, server);
                    cost = c;
                    improved = true;
                    ctx.offer(delta.mapping(), cost);
                    break; // first improvement: keep the move
                }
            }
        }
        if !improved {
            break;
        }
    }
    (delta.mapping().clone(), cost, true)
}

impl<A: DeploymentAlgorithm> DeploymentAlgorithm for HillClimb<A> {
    fn name(&self) -> &str {
        "HillClimb"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mark = ctx.mark();
        // The inner construction charges its own steps against the same
        // context; the climb then spends whatever budget remains.
        let start = self.inner.solve(problem, ctx)?.mapping;
        let ops: Vec<OpId> = problem.workflow().op_ids().collect();
        let (mapping, cost, finished) =
            hill_climb_ctx(problem, start, &ops, HILL_CLIMB_SWEEPS, ctx);
        Ok(ctx.finish(mark, mapping, cost, finished))
    }
}

/// Budgeted first-improvement hill climbing over the *swap*
/// neighbourhood: exchange the servers of two operations. Swaps preserve
/// each server's operation count, so they explore fairness-preserving
/// rearrangements that single moves cannot reach without passing through
/// imbalanced states. One logical step per candidate pair evaluated;
/// stops mid-sweep on exhaustion (third return value `false`).
pub fn swap_refine_ctx(
    problem: &Problem,
    start: Mapping,
    max_sweeps: usize,
    ctx: &mut SolveCtx<'_>,
) -> (Mapping, f64, bool) {
    let mut delta = DeltaEvaluator::new(problem, start);
    let mut cost = delta.cost().combined.value();
    ctx.offer(delta.mapping(), cost);
    let m = problem.num_ops();
    for _ in 0..max_sweeps {
        let mut improved = false;
        for a in 0..m {
            for b in (a + 1)..m {
                let (oa, ob) = (OpId::from(a), OpId::from(b));
                let (sa, sb) = (delta.mapping().server_of(oa), delta.mapping().server_of(ob));
                if sa == sb {
                    continue;
                }
                if !ctx.try_charge(1) {
                    return (delta.mapping().clone(), cost, false);
                }
                // A swap is two delta moves; both are exact, so probing
                // and reverting leaves the state bit-identical.
                delta.apply(oa, sb);
                let c = delta.apply(ob, sa).combined.value();
                if c < cost {
                    cost = c;
                    improved = true;
                    ctx.offer(delta.mapping(), cost);
                } else {
                    delta.apply(oa, sa);
                    delta.apply(ob, sb);
                }
            }
        }
        if !improved {
            break;
        }
    }
    (delta.mapping().clone(), cost, true)
}

/// Budgeted move/swap alternation: a full [`hill_climb_ctx`] then a
/// [`swap_refine_ctx`], `max_sweeps` sweeps each, repeated until a round
/// no longer lowers the cost or `max_sweeps` rounds have run (always at
/// least one). Swaps escape the move-only local optima that drifted
/// placements tend to sit in. Stops at the first kernel the budget cuts
/// short (third return value `false`).
pub fn moves_and_swaps_ctx(
    problem: &Problem,
    start: Mapping,
    max_sweeps: usize,
    ctx: &mut SolveCtx<'_>,
) -> (Mapping, f64, bool) {
    let ops: Vec<OpId> = problem.workflow().op_ids().collect();
    let mut mapping = start;
    let mut cost = f64::INFINITY;
    let mut rounds = 0;
    loop {
        let (m1, _, f1) = hill_climb_ctx(problem, mapping, &ops, max_sweeps, ctx);
        // Swaps start from the moves' cost and only accept
        // improvements, so `c2` never exceeds it.
        let (m2, c2, f2) = swap_refine_ctx(problem, m1, max_sweeps, ctx);
        mapping = m2;
        if !(f1 && f2) {
            return (mapping, c2, false);
        }
        rounds += 1;
        if c2 >= cost || rounds >= max_sweeps {
            return (mapping, c2, true);
        }
        cost = c2;
    }
}

/// Number of [`SimulatedAnnealing`] proposal steps.
const SA_STEPS: usize = 20_000;
/// Initial annealing temperature as a fraction of the starting cost.
const SA_INITIAL_TEMPERATURE: f64 = 0.2;
/// Per-step geometric cooling factor.
const SA_COOLING: f64 = 0.9995;

/// Simulated annealing over single-operation moves: 20 000 steps,
/// T₀ = 20 % of the starting cost, cooling 0.9995.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// RNG seed.
    pub seed: u64,
}

impl SimulatedAnnealing {
    /// Annealing with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl DeploymentAlgorithm for SimulatedAnnealing {
    fn name(&self) -> &str {
        "SimAnneal"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mark = ctx.mark();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let n = problem.num_servers() as u32;
        let m = problem.num_ops();
        let start = crate::baselines::RandomMapping::draw(problem, &mut rng);
        // Delta costs are bit-identical to full evaluation, so the
        // accept/reject trajectory (and the RNG stream) is exactly the
        // one the full-evaluation implementation produced.
        let mut delta = DeltaEvaluator::new(problem, start);
        let mut cost = delta.cost().combined.value();
        let mut best = delta.mapping().clone();
        let mut best_cost = cost;
        ctx.offer(&best, best_cost);
        let mut temperature = (cost * SA_INITIAL_TEMPERATURE).max(1e-12);
        let mut finished = true;
        // One logical step per proposal: a budget of B cuts the schedule
        // after exactly min(B, steps) proposals, the same prefix of the
        // seeded RNG stream on every run.
        for _ in 0..SA_STEPS {
            if !ctx.try_charge(1) {
                finished = false;
                break;
            }
            let op = OpId::from(rng.gen_range(0..m));
            let old = delta.mapping().server_of(op);
            let new = ServerId::new(rng.gen_range(0..n));
            if new == old {
                temperature *= SA_COOLING;
                continue;
            }
            let c = delta.probe(op, new).combined.value();
            let accept = c <= cost || {
                let p = ((cost - c) / temperature).exp();
                rng.gen::<f64>() < p
            };
            if accept {
                delta.apply(op, new);
                cost = c;
                if c < best_cost {
                    best_cost = c;
                    best = delta.mapping().clone();
                    ctx.offer(&best, best_cost);
                }
            }
            temperature *= SA_COOLING;
        }
        Ok(ctx.finish(mark, best, best_cost, finished))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomMapping;
    use crate::exhaustive::optimum;
    use crate::fair_load::FairLoad;
    use wsflow_cost::Evaluator;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};

    fn all_ops(p: &Problem) -> Vec<OpId> {
        p.workflow().op_ids().collect()
    }

    fn problem() -> Problem {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[
                MCycles(10.0),
                MCycles(30.0),
                MCycles(20.0),
                MCycles(40.0),
                MCycles(15.0),
            ],
            Mbits(0.5),
        );
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(5.0)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn hill_climb_never_worse_than_start() {
        let p = problem();
        let mut ev = Evaluator::new(&p);
        let start = RandomMapping::new(11).deploy(&p).unwrap();
        let start_cost = ev.combined(&start).value();
        let (refined, cost, done) =
            hill_climb_ctx(&p, start, &all_ops(&p), 50, &mut SolveCtx::unlimited());
        assert!(done);
        assert!(cost <= start_cost + 1e-12);
        assert!((ev.combined(&refined).value() - cost).abs() < 1e-12);
    }

    #[test]
    fn hill_climb_of_fair_load_reaches_local_optimum() {
        let p = problem();
        let refined = HillClimb::new(FairLoad).deploy(&p).unwrap();
        // Verify no single move improves.
        let mut ev = Evaluator::new(&p);
        let base = ev.combined(&refined).value();
        for op in 0..p.num_ops() {
            for s in 0..p.num_servers() {
                let mut m = refined.clone();
                m.assign(OpId::from(op), ServerId::from(s));
                assert!(ev.combined(&m).value() >= base - 1e-12);
            }
        }
    }

    #[test]
    fn multistart_hill_climb_finds_small_instance_optimum() {
        // 2^5 = 32 configurations: hill climbing from a handful of random
        // starts must reach the global optimum (single-start can stall in
        // a local optimum — that is expected and tested above).
        let p = problem();
        let (_, opt_cost) = optimum(&p, 1_000).unwrap();
        let best = (0..10)
            .map(|seed| {
                let start = RandomMapping::new(seed).deploy(&p).unwrap();
                hill_climb_ctx(&p, start, &all_ops(&p), 50, &mut SolveCtx::unlimited()).1
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            (best - opt_cost).abs() < 1e-9,
            "multi-start hill climb {best} missed optimum {opt_cost}"
        );
    }

    /// The pre-delta hill climber: the same first-improvement trajectory
    /// as [`hill_climb_ctx`] over the same op list, but every probe pays
    /// a full-mapping `Evaluator` pass.
    fn hill_climb_full_eval(
        problem: &Problem,
        start: Mapping,
        ops: &[OpId],
        max_sweeps: usize,
    ) -> (Mapping, f64) {
        let mut ev = Evaluator::new(problem);
        let mut mapping = start;
        let mut cost = ev.combined(&mapping).value();
        let n = problem.num_servers() as u32;
        for _ in 0..max_sweeps {
            let mut improved = false;
            for &op in ops {
                let original = mapping.server_of(op);
                for s in 0..n {
                    let server = ServerId::new(s);
                    if server == original {
                        continue;
                    }
                    mapping.assign(op, server);
                    let c = ev.combined(&mapping).value();
                    if c < cost {
                        cost = c;
                        improved = true;
                        break;
                    }
                    mapping.assign(op, original);
                }
            }
            if !improved {
                break;
            }
        }
        (mapping, cost)
    }

    /// Delta-evaluated probes are bit-identical to full evaluation, so
    /// the delta climber follows the full-evaluation trajectory to the
    /// same local optimum and the same cost bits — over every op, and
    /// over the Repairer's hotspot ops in either order, so a kernel that
    /// ignores or reorders its op list diverges from the oracle.
    #[test]
    fn delta_hill_climb_matches_full_evaluation_trajectory() {
        use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass};
        let s = generate(
            Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(10.0)),
            60,
            4,
            &ExperimentClass::class_c(),
            7,
        );
        let p = Problem::new(s.workflow, s.network).unwrap();
        let start = crate::baselines::RoundRobin.deploy(&p).unwrap();
        let hot = crate::blackboard::improver::hot_ops(&p, &start);
        let reversed: Vec<OpId> = hot.iter().rev().copied().collect();
        let mut optima = Vec::new();
        for ops in [all_ops(&p), hot, reversed] {
            let (m_delta, c_delta, done) =
                hill_climb_ctx(&p, start.clone(), &ops, 50, &mut SolveCtx::unlimited());
            let (m_full, c_full) = hill_climb_full_eval(&p, start.clone(), &ops, 50);
            assert!(done);
            assert_eq!(m_delta, m_full, "{} ops", ops.len());
            assert_eq!(c_delta.to_bits(), c_full.to_bits(), "{} ops", ops.len());
            optima.push(m_delta);
        }
        // The three lists must lead to three different optima, or the
        // test could not tell them apart.
        assert_ne!(optima[0], optima[1]);
        assert_ne!(optima[1], optima[2]);
    }

    #[test]
    fn swap_refine_never_worse_and_preserves_counts() {
        let p = problem();
        let mut ev = Evaluator::new(&p);
        let start = RandomMapping::new(3).deploy(&p).unwrap();
        let start_cost = ev.combined(&start).value();
        let counts_of = |m: &Mapping| -> Vec<usize> {
            (0..p.num_servers())
                .map(|s| m.ops_on(ServerId::from(s)).len())
                .collect()
        };
        let start_counts = counts_of(&start);
        let (refined, cost, _) = swap_refine_ctx(&p, start, 50, &mut SolveCtx::unlimited());
        assert!(cost <= start_cost + 1e-12);
        assert_eq!(counts_of(&refined), start_counts, "swaps preserve counts");
    }

    #[test]
    fn combined_refinement_at_least_as_good_as_either() {
        let p = problem();
        let start = RandomMapping::new(5).deploy(&p).unwrap();
        let unlimited = &mut SolveCtx::unlimited();
        let (_, c_moves, _) = hill_climb_ctx(&p, start.clone(), &all_ops(&p), 50, unlimited);
        let (_, c_swaps, _) = swap_refine_ctx(&p, start.clone(), 50, unlimited);
        let (m_both, c_both, done) = moves_and_swaps_ctx(&p, start, 10, unlimited);
        assert!(done);
        assert_eq!(
            c_both.to_bits(),
            Evaluator::new(&p).combined(&m_both).value().to_bits()
        );
        assert!(c_both <= c_moves + 1e-12);
        assert!(c_both <= c_swaps + 1e-12);
    }

    #[test]
    fn annealing_is_deterministic_per_seed_and_valid() {
        let p = problem();
        let a = SimulatedAnnealing::new(5).deploy(&p).unwrap();
        let b = SimulatedAnnealing::new(5).deploy(&p).unwrap();
        assert_eq!(a, b);
        assert!(a.is_valid_for(p.num_servers()));
    }

    #[test]
    fn annealing_approaches_optimum() {
        let p = problem();
        let (_, opt_cost) = optimum(&p, 1_000).unwrap();
        let m = SimulatedAnnealing::new(1).deploy(&p).unwrap();
        let mut ev = Evaluator::new(&p);
        let cost = ev.combined(&m).value();
        assert!(
            cost <= opt_cost * 1.05 + 1e-9,
            "annealing {cost} vs optimum {opt_cost}"
        );
    }
}
