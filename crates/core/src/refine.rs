//! Local-search refinement (extension / ablation, not in the paper).
//!
//! The paper's future work calls for "a detailed study of the proposed
//! algorithms whenever user-defined constraints are given" and stops at
//! pure greedy construction. These refiners answer the natural follow-up
//! question — how far from locally optimal are the greedy mappings? —
//! and the harness uses them as an upper-bound reference in the quality
//! study.

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

/// Run hill climbing from an explicit starting mapping; returns the
/// refined mapping and its combined cost.
///
/// Unbudgeted convenience wrapper over [`hill_climb_ctx`].
pub fn hill_climb_from(problem: &Problem, start: Mapping, max_sweeps: usize) -> (Mapping, f64) {
    let (mapping, cost, _) = hill_climb_ctx(problem, start, max_sweeps, &mut SolveCtx::unlimited());
    (mapping, cost)
}

/// Budgeted hill climbing: charges one logical step per evaluator probe
/// against `ctx` and stops mid-sweep the moment the budget runs out (or
/// the token fires), returning the refined-so-far state. The third
/// return value is `false` iff the climb was cut short.
///
/// Under an unlimited context the trajectory is exactly the classic
/// [`hill_climb_from`] — the budget check never fires and charging does
/// not touch the search state.
pub fn hill_climb_ctx(
    problem: &Problem,
    start: Mapping,
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
        for op_idx in 0..problem.num_ops() {
            let op = OpId::from(op_idx);
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
        let (mapping, cost, finished) = hill_climb_ctx(problem, start, HILL_CLIMB_SWEEPS, ctx);
        Ok(ctx.finish(mark, mapping, cost, finished))
    }
}

/// First-improvement hill climbing over the *swap* neighbourhood:
/// exchange the servers of two operations. Swaps preserve each server's
/// operation count, so they explore fairness-preserving rearrangements
/// that single moves cannot reach without passing through imbalanced
/// states. Returns the refined mapping and its combined cost.
///
/// Unbudgeted convenience wrapper over [`swap_refine_ctx`].
pub fn swap_refine_from(problem: &Problem, start: Mapping, max_sweeps: usize) -> (Mapping, f64) {
    let (mapping, cost, _) =
        swap_refine_ctx(problem, start, max_sweeps, &mut SolveCtx::unlimited());
    (mapping, cost)
}

/// Budgeted swap refinement: one logical step per candidate pair
/// evaluated, stopping mid-sweep on exhaustion (third return value
/// `false`). Identical to [`swap_refine_from`] under an unlimited
/// context.
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

/// Budgeted first-improvement move sweeps restricted to `ops`.
///
/// This is the localized-fault repair kernel shared with `wsflow-dyn`:
/// only the listed operations are considered for relocation, each
/// evaluator probe charges one logical step against `ctx`, and the
/// sweep loop stops the moment a full pass finds nothing (or the budget
/// runs out — third return value `false`). Unlike the full refiners it
/// does *not* offer intermediate incumbents: callers decide whether the
/// repaired mapping is worth publishing.
pub fn repair_ops_ctx(
    problem: &Problem,
    start: Mapping,
    ops: &[OpId],
    max_sweeps: usize,
    ctx: &mut SolveCtx<'_>,
) -> (Mapping, wsflow_cost::CostBreakdown, bool) {
    let mut delta = DeltaEvaluator::new(problem, start);
    let mut cost = delta.cost().combined.value();
    let n = problem.num_servers() as u32;
    let mut completed = true;
    'sweeps: for _ in 0..max_sweeps {
        let mut improved = false;
        for &op in ops {
            let original = delta.mapping().server_of(op);
            for s in 0..n {
                let server = ServerId::new(s);
                if server == original {
                    continue;
                }
                if !ctx.try_charge(1) {
                    completed = false;
                    break 'sweeps;
                }
                let c = delta.probe(op, server).combined.value();
                if c < cost {
                    delta.apply(op, server);
                    cost = c;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (delta.mapping().clone(), delta.cost(), completed)
}

/// Moves + swaps: alternate the two neighbourhoods to a combined local
/// optimum.
pub fn refine_moves_and_swaps(
    problem: &Problem,
    start: Mapping,
    max_rounds: usize,
) -> (Mapping, f64) {
    let mut current = start;
    let mut cost = f64::INFINITY;
    for _ in 0..max_rounds {
        let (after_moves, c1) = hill_climb_from(problem, current, 50);
        let (after_swaps, c2) = swap_refine_from(problem, after_moves, 50);
        current = after_swaps;
        if c2 >= cost - 1e-15 {
            cost = c2.min(cost);
            break;
        }
        cost = c2;
        let _ = c1;
    }
    (current, cost)
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
        let (refined, cost) = hill_climb_from(&p, start, 50);
        assert!(cost <= start_cost + 1e-12);
        assert!((ev.combined(&refined).value() - cost).abs() < 1e-12);
    }

    #[test]
    fn hill_climb_from_fair_load_reaches_local_optimum() {
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
                hill_climb_from(&p, start, 50).1
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            (best - opt_cost).abs() < 1e-9,
            "multi-start hill climb {best} missed optimum {opt_cost}"
        );
    }

    /// The pre-delta hill climber: the same first-improvement trajectory
    /// as [`hill_climb_ctx`], but every probe pays a full-mapping
    /// `Evaluator` pass.
    fn hill_climb_full_eval(
        problem: &Problem,
        start: Mapping,
        max_sweeps: usize,
    ) -> (Mapping, f64) {
        let mut ev = Evaluator::new(problem);
        let mut mapping = start;
        let mut cost = ev.combined(&mapping).value();
        let n = problem.num_servers() as u32;
        for _ in 0..max_sweeps {
            let mut improved = false;
            for op_idx in 0..problem.num_ops() {
                let op = OpId::from(op_idx);
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
    /// same local optimum and the same cost bits.
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
        let (m_delta, c_delta) = hill_climb_from(&p, start.clone(), 50);
        let (m_full, c_full) = hill_climb_full_eval(&p, start, 50);
        assert_eq!(m_delta, m_full);
        assert_eq!(c_delta.to_bits(), c_full.to_bits());
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
        let (refined, cost) = swap_refine_from(&p, start, 50);
        assert!(cost <= start_cost + 1e-12);
        assert_eq!(counts_of(&refined), start_counts, "swaps preserve counts");
    }

    #[test]
    fn combined_refinement_at_least_as_good_as_either() {
        let p = problem();
        let start = RandomMapping::new(5).deploy(&p).unwrap();
        let (_, c_moves) = hill_climb_from(&p, start.clone(), 50);
        let (_, c_swaps) = swap_refine_from(&p, start.clone(), 50);
        let (_, c_both) = refine_moves_and_swaps(&p, start, 10);
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
