//! Blackboard solver core: cooperative knowledge sources racing on a
//! shared incumbent.
//!
//! The classic blackboard architecture (and its application to
//! web-service workflow optimisation by Vorhemus & Schikuta,
//! arXiv:1801.00322) runs independent *knowledge sources* against one
//! shared incumbent store. Any source may improve the board; none may
//! regress it. The set is closed, ten sources in canonical order:
//!
//! * six *constructives* — the paper's five bus greedies plus
//!   Line–Line, which fails (and is skipped) off a line network — each
//!   run once through [`DeploymentAlgorithm::solve`] to seed the board;
//! * four *improvers* — the delta-evaluator Mover and Swapper, the
//!   dynamic controller's hotspot Repairer, and a Dijkstra-guided
//!   Router — run every generation from the incumbent.
//!
//! A leave-one-out ablation (EXPERIMENTS.md) finds cells that get
//! worse without each of the ten.
//!
//! ## Execution model: deterministic synchronous generations
//!
//! A naive racing blackboard (sources freely writing whenever they
//! finish) is non-deterministic: the winner depends on thread timing.
//! This engine instead runs in *generations*:
//!
//! 1. **Seeding race** — the constructives run in canonical order,
//!    batched to fit the remaining budget (`wsflow-par` fans a batch out
//!    across workers, each on its own budget share from
//!    [`wsflow_par::split_budget`]). Results merge back in canonical
//!    order; the cheapest mapping seeds the board. The first
//!    constructive always runs — even at budget 0 or with a fired
//!    token — so an incumbent exists.
//! 2. **Improvement generations** — every live improver proposes from
//!    the *same* board snapshot, in parallel, each on its own budget
//!    share and its own child [`CancelToken`](crate::CancelToken). Proposals merge in
//!    canonical order; strictly better ones advance the board. An
//!    improver that completes a generation without beating the board
//!    earns a strike; at `DOMINATED_AFTER` (2) strikes it is
//!    *dominated* — its token is cancelled and it leaves the race. A
//!    generation in which every improver completed and none improved is
//!    quiescence: the solve has converged.
//!
//! Because sources only read the frozen snapshot and the merge order is
//! canonical, the outcome is a pure function of (problem, seed,
//! budget) — bit-identical for every `WSFLOW_THREADS`, like every other
//! solver in this repo.

pub(crate) mod improver;

use wsflow_cost::{Mapping, Problem};

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::fair_load::FairLoad;
use crate::flmme::FairLoadMergeMessages;
use crate::fltr::FairLoadTieResolver;
use crate::fltr2::FairLoadTieResolver2;
use crate::holm::HeavyOpsLargeMsgs;
use crate::line_line::LineLine;
use crate::registry::BoxedAlgorithm;
use crate::solve::{construction_steps, SolveCtx, SolveOutcome, Termination};
use improver::Improver;

/// Per-source tallies from one blackboard solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStats {
    /// The source's name (e.g. `"FairLoad"`, `"Router"`).
    pub name: String,
    /// Proposals the source wrote to the board.
    pub proposals: u64,
    /// Proposals that strictly improved the incumbent.
    pub accepts: u64,
    /// Whether the source was dominated and cancelled mid-solve.
    pub cancelled: bool,
}

/// What happened inside one blackboard solve, for win-share tables and
/// the `bb.*` metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackboardStats {
    /// Improvement generations run (the seeding race is generation 0).
    pub generations: u64,
    /// Per-source tallies, in canonical source order: the six
    /// constructives, then the four improvers.
    pub sources: Vec<SourceStats>,
}

/// Consecutive no-improvement generations before an improver is
/// dominated (token cancelled, removed from the race).
const DOMINATED_AFTER: u32 = 2;
/// Safety cap on improvement generations.
const MAX_GENERATIONS: usize = 64;

/// The cooperative blackboard solver.
#[derive(Debug, Clone)]
pub struct Blackboard {
    /// Seed forwarded to the randomised constructives.
    pub seed: u64,
}

impl Blackboard {
    /// Blackboard with the fixed source set and generation limits.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The constructives, in canonical order: the paper's bus greedies,
    /// then Line–Line (which fails off a line network).
    fn constructives(&self) -> [BoxedAlgorithm; 6] {
        [
            Box::new(FairLoad),
            Box::new(FairLoadTieResolver::new(self.seed)),
            Box::new(FairLoadTieResolver2::new(self.seed)),
            Box::new(FairLoadMergeMessages::new(self.seed)),
            Box::new(HeavyOpsLargeMsgs),
            Box::new(LineLine::new()),
        ]
    }

    /// Solve and report per-source statistics alongside the outcome.
    pub fn solve_stats(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<(SolveOutcome, BlackboardStats), DeployError> {
        let mark = ctx.mark();
        let constructives = self.constructives();
        let names = constructives
            .iter()
            .map(|a| a.name())
            .chain(Improver::ALL.iter().map(|i| i.name()));
        let mut stats: Vec<SourceStats> = names
            .map(|name| SourceStats {
                name: name.to_string(),
                proposals: 0,
                accepts: 0,
                cancelled: false,
            })
            .collect();

        // The board: best (mapping, cost) merged so far. Local state is
        // the source of truth; `ctx.offer` mirrors it so callbacks and
        // the trajectory fire, exactly like the portfolio's local
        // `best`.
        let mut board: Option<(Mapping, f64)> = None;
        let mut last_err: Option<DeployError> = None;
        let mut span_base: u64 = 0;

        // Phase 1: the seeding race over constructives, batched to the
        // budget. Every constructive charges exactly
        // `construction_steps` (atomic — they cannot stop midway), so
        // the batch size the budget affords is exact; the forced first
        // batch of one preserves the never-no-mapping guarantee.
        let charge = construction_steps(problem).max(1);
        let mut next = 0usize;
        let mut all_constructives_ran = true;
        while next < constructives.len() {
            if board.is_some() && ctx.should_stop() {
                all_constructives_ran = false;
                break;
            }
            let pending = constructives.len() - next;
            let k = match ctx.remaining() {
                None => pending,
                Some(rem) => {
                    let afford = (rem / charge) as usize;
                    let forced = usize::from(board.is_none());
                    pending.min(afford.max(forced))
                }
            };
            if k == 0 {
                all_constructives_ran = false;
                break;
            }
            let shares = wsflow_par::split_budget(ctx.remaining(), k);
            let token = ctx.token();
            let results = wsflow_par::parallel_map(k, |i| {
                let _span = wsflow_obs::span_with("bb.source", span_base + i as u64);
                let mut child = SolveCtx::with_budget_opt(shares[i]).cancel_token(token.clone());
                let r = constructives[next + i].solve(problem, &mut child);
                (r, child.consumed())
            });
            span_base += k as u64;
            for (i, (result, consumed)) in results.into_iter().enumerate() {
                ctx.charge(consumed);
                match result {
                    Ok(out) => {
                        let s = &mut stats[next + i];
                        s.proposals += 1;
                        if board.as_ref().map(|(_, c)| out.cost < *c).unwrap_or(true) {
                            ctx.offer(&out.mapping, out.cost);
                            board = Some((out.mapping, out.cost));
                            s.accepts += 1;
                        }
                    }
                    // Off-topology members (e.g. Line–Line on a bus)
                    // are skipped, surfaced only if nobody succeeds.
                    Err(e) => last_err = Some(e),
                }
            }
            next += k;
        }
        let Some((mut best_mapping, mut best_cost)) = board.take() else {
            return Err(last_err.expect("no incumbent implies every constructive failed"));
        };

        // Phase 2: improvement generations. Each live improver proposes
        // from the same frozen snapshot on its own budget share and
        // child token; merges are canonical-order, so domination and
        // acceptance decisions are thread-count independent.
        struct Live {
            idx: usize,
            improver: Improver,
            strikes: u32,
            token: crate::solve::CancelToken,
        }
        let mut live: Vec<Live> = Improver::ALL
            .iter()
            .enumerate()
            .map(|(i, &improver)| Live {
                idx: constructives.len() + i,
                improver,
                strikes: 0,
                token: ctx.token().child(),
            })
            .collect();
        let mut generations = 0u64;
        let mut quiescent = false;
        while !live.is_empty() && (generations as usize) < MAX_GENERATIONS {
            if ctx.should_stop() {
                break;
            }
            generations += 1;
            let shares = wsflow_par::split_budget(ctx.remaining(), live.len());
            let results = wsflow_par::parallel_map(live.len(), |i| {
                let _span = wsflow_obs::span_with("bb.source", span_base + i as u64);
                let mut child =
                    SolveCtx::with_budget_opt(shares[i]).cancel_token(live[i].token.clone());
                let r = live[i]
                    .improver
                    .improve(problem, &best_mapping, best_cost, &mut child);
                (r, child.consumed())
            });
            span_base += live.len() as u64;
            let mut any_accept = false;
            let mut all_completed = true;
            for (entry, ((mapping, cost, completed), consumed)) in live.iter_mut().zip(results) {
                ctx.charge(consumed);
                let s = &mut stats[entry.idx];
                s.proposals += 1;
                if cost < best_cost {
                    ctx.offer(&mapping, cost);
                    best_mapping = mapping;
                    best_cost = cost;
                    s.accepts += 1;
                    entry.strikes = 0;
                    any_accept = true;
                } else if completed {
                    entry.strikes += 1;
                } else {
                    // Budget-cut without improvement: no strike — the
                    // improver never got a full look.
                    all_completed = false;
                }
            }
            // Dominated improvers leave the race; their child tokens
            // fire so any (hypothetical) in-flight work stops
            // cooperatively.
            live.retain(|entry| {
                if entry.strikes >= DOMINATED_AFTER {
                    entry.token.cancel();
                    stats[entry.idx].cancelled = true;
                    false
                } else {
                    true
                }
            });
            if !any_accept && all_completed {
                quiescent = true;
                break;
            }
        }
        if live.is_empty() {
            // Every improver struck out: nothing left that could move
            // the board, which is convergence, not exhaustion.
            quiescent = true;
        }

        let converged = all_constructives_ran && quiescent;
        let bb_stats = BlackboardStats {
            generations,
            sources: stats,
        };
        if wsflow_obs::enabled() {
            wsflow_obs::counter_add("bb.generations", generations);
            for s in &bb_stats.sources {
                let slug = slug(&s.name);
                wsflow_obs::counter_add(&format!("bb.proposals.{slug}"), s.proposals);
                wsflow_obs::counter_add(&format!("bb.accepts.{slug}"), s.accepts);
                if s.cancelled {
                    wsflow_obs::counter_add(&format!("bb.cancellations.{slug}"), 1);
                }
            }
        }
        let outcome = ctx.finish(mark, best_mapping, best_cost, converged);
        Ok((outcome, bb_stats))
    }
}

/// Lowercase alphanumeric slug for metric names (`FairLoad` →
/// `fairload`, `FLTR²`-style names collapse to their letters/digits):
/// the suffix of the `bb.*` counters, and of the `win_share` rows that
/// `quality_vs_budget` writes from [`SourceStats::name`].
pub fn slug(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

impl Default for Blackboard {
    fn default() -> Self {
        Self::new(0)
    }
}

impl DeploymentAlgorithm for Blackboard {
    fn name(&self) -> &str {
        "Blackboard"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        self.solve_stats(problem, ctx).map(|(out, _)| out)
    }
}

/// Sequential constructive race: the blackboard's seeding semantics,
/// one member at a time on the *shared* parent context.
///
/// This is the [`Portfolio`](crate::Portfolio)'s engine. Members run in
/// order against the shared budget (each sees whatever the previous
/// members left), the race stops at a member boundary once an incumbent
/// exists and the budget is gone, failing members are skipped, and the
/// call errors only when every member fails. Because the parent context
/// is threaded straight through each member's `solve`, the trajectory —
/// charges, offers, trajectory points — is bit-identical to the classic
/// sequential portfolio loop.
pub fn race_sequential(
    problem: &Problem,
    ctx: &mut SolveCtx<'_>,
    members: &[Box<dyn DeploymentAlgorithm>],
) -> Result<SolveOutcome, DeployError> {
    assert!(!members.is_empty(), "the member suite must be non-empty");
    let mark = ctx.mark();
    let mut best: Option<(Mapping, f64)> = None;
    let mut last_err: Option<DeployError> = None;
    let mut all_ran = true;
    let mut all_converged = true;
    for algo in members {
        // Budget check at the member boundary: skip the rest once the
        // budget is gone, but never before an incumbent exists.
        if best.is_some() && ctx.should_stop() {
            all_ran = false;
            break;
        }
        match algo.solve(problem, ctx) {
            Ok(out) => {
                all_converged &= out.termination == Termination::Converged;
                if best.as_ref().map(|(_, c)| out.cost < *c).unwrap_or(true) {
                    best = Some((out.mapping, out.cost));
                }
            }
            // A failing member is skipped — its error is only surfaced
            // if no member succeeds at all.
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((mapping, cost)) => Ok(ctx.finish(mark, mapping, cost, all_ran && all_converged)),
        None => Err(last_err.expect("no winner implies at least one member error")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::Evaluator;
    use wsflow_model::MbitsPerSec;
    use wsflow_net::ServerId;
    use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass};

    fn problem(bus: f64, seed: u64) -> Problem {
        let class = ExperimentClass::class_c();
        let s = generate(
            Configuration::LineBus(MbitsPerSec(bus)),
            10,
            3,
            &class,
            seed,
        );
        Problem::new(s.workflow, s.network).expect("valid")
    }

    #[test]
    fn unlimited_blackboard_never_worse_than_any_constructive() {
        for seed in 0..4 {
            let p = problem(10.0, seed);
            let mut ev = Evaluator::new(&p);
            let bb = Blackboard::new(seed)
                .solve(&p, &mut SolveCtx::unlimited())
                .expect("ok");
            assert_eq!(bb.termination, Termination::Converged);
            for algo in crate::registry::paper_bus_algorithms(seed) {
                let member = ev.combined(&algo.deploy(&p).expect("ok")).value();
                assert!(
                    bb.cost <= member + 1e-12,
                    "seed {seed}: blackboard {} worse than {} at {member}",
                    bb.cost,
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn outcomes_are_bit_identical_across_worker_counts() {
        for &budget in &[0u64, 40, 200, 2_000, 50_000] {
            let p = problem(1.0, 7);
            let runs: Vec<(u64, f64, Vec<ServerId>)> = [1usize, 2, 4]
                .iter()
                .map(|&w| {
                    let mut ctx = SolveCtx::with_budget(budget);
                    let out =
                        wsflow_par::with_threads(w, || Blackboard::new(7).solve(&p, &mut ctx))
                            .expect("ok");
                    let servers = (0..p.num_ops())
                        .map(|o| out.mapping.server_of(wsflow_model::OpId::from(o)))
                        .collect();
                    (out.steps, out.cost, servers)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "budget {budget}: 1 vs 2 workers");
            assert_eq!(runs[0], runs[2], "budget {budget}: 1 vs 4 workers");
        }
    }

    #[test]
    fn zero_budget_still_returns_a_complete_mapping() {
        let p = problem(10.0, 3);
        let mut ctx = SolveCtx::with_budget(0);
        let out = Blackboard::new(3).solve(&p, &mut ctx).expect("ok");
        assert_eq!(out.mapping.len(), p.num_ops());
        assert_eq!(out.termination, Termination::BudgetExhausted);
    }

    #[test]
    fn stats_track_proposals_and_accepts() {
        let p = problem(1.0, 5);
        let (out, stats) = Blackboard::new(5)
            .solve_stats(&p, &mut SolveCtx::unlimited())
            .expect("ok");
        assert_eq!(out.termination, Termination::Converged);
        assert!(stats.generations >= 1, "improvers must get a generation");
        let names: Vec<&str> = stats.sources.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "FairLoad",
                "FL-TieResolver",
                "FL-TieResolver2",
                "FL-MergeMsgEnds",
                "HeavyOps-LargeMsgs",
                "LineLine+Bridges",
                "Mover",
                "Swapper",
                "Repairer",
                "Router"
            ]
        );
        // All five bus constructives propose once; LineLine fails on a
        // bus.
        let (constructives, improvers) = stats.sources.split_at(6);
        assert!(constructives[..5].iter().all(|s| s.proposals == 1));
        assert_eq!(constructives[5].proposals, 0);
        // Every improver proposes in the first generation.
        assert!(improvers.iter().all(|s| s.proposals >= 1));
        let accepts: u64 = stats.sources.iter().map(|s| s.accepts).sum();
        assert!(accepts >= 1, "someone must have seeded the board");
        // Totals are consistent: accepts never exceed proposals.
        for s in &stats.sources {
            assert!(s.accepts <= s.proposals, "{}: {s:?}", s.name);
        }
    }

    /// An improver is dominated (and its token cancelled) only after
    /// `DOMINATED_AFTER` consecutive completed generations without an
    /// accept. The 9-op, 3-server, 1 Mbps Line–Bus instances of the
    /// quick `quality_vs_budget` grid cancel real improvers mid-solve.
    #[test]
    fn non_improving_sources_are_dominated_and_cancelled() {
        let class = ExperimentClass::class_c();
        let mut cancelled = 0;
        for seed in 2007..2011 {
            let s = generate(Configuration::LineBus(MbitsPerSec(1.0)), 9, 3, &class, seed);
            let p = Problem::new(s.workflow, s.network).expect("valid");
            let (out, stats) = Blackboard::new(seed)
                .solve_stats(&p, &mut SolveCtx::unlimited())
                .expect("ok");
            assert_eq!(out.termination, Termination::Converged);
            for s in stats.sources.iter().filter(|s| s.cancelled) {
                cancelled += 1;
                // Unlimited, every generation completes: the source
                // struck out on its last `DOMINATED_AFTER` proposals.
                assert!(
                    s.proposals >= s.accepts + DOMINATED_AFTER as u64,
                    "seed {seed}: {s:?} was cancelled before its {DOMINATED_AFTER} chances"
                );
                assert!(s.proposals <= stats.generations, "seed {seed}: {s:?}");
            }
        }
        assert!(cancelled >= 1, "the grid must cancel an improver");
    }

    #[test]
    fn race_sequential_matches_the_classic_portfolio_loop() {
        // An inline reference implementation of the pre-blackboard
        // sequential loop; the race must be bit-identical to it at
        // every budget.
        fn reference(
            problem: &Problem,
            ctx: &mut SolveCtx<'_>,
            members: &[Box<dyn DeploymentAlgorithm>],
        ) -> Result<SolveOutcome, DeployError> {
            let mark = ctx.mark();
            let mut best: Option<(Mapping, f64)> = None;
            let mut last_err = None;
            let mut all_ran = true;
            let mut all_converged = true;
            for algo in members {
                if best.is_some() && ctx.should_stop() {
                    all_ran = false;
                    break;
                }
                match algo.solve(problem, ctx) {
                    Ok(out) => {
                        all_converged &= out.termination == Termination::Converged;
                        if best.as_ref().map(|(_, c)| out.cost < *c).unwrap_or(true) {
                            best = Some((out.mapping, out.cost));
                        }
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match best {
                Some((mapping, cost)) => {
                    Ok(ctx.finish(mark, mapping, cost, all_ran && all_converged))
                }
                None => Err(last_err.expect("non-empty")),
            }
        }

        for &budget in &[Some(0u64), Some(30), Some(100), Some(10_000), None] {
            let p = problem(1.0, 9);
            let mut race_ctx = SolveCtx::with_budget_opt(budget);
            let race_out =
                race_sequential(&p, &mut race_ctx, &crate::registry::paper_bus_algorithms(9))
                    .expect("ok");
            let mut ref_ctx = SolveCtx::with_budget_opt(budget);
            let ref_out =
                reference(&p, &mut ref_ctx, &crate::registry::paper_bus_algorithms(9)).expect("ok");
            assert_eq!(race_out.steps, ref_out.steps, "budget {budget:?}");
            assert_eq!(
                race_out.cost.to_bits(),
                ref_out.cost.to_bits(),
                "budget {budget:?}"
            );
            assert_eq!(
                race_out.termination, ref_out.termination,
                "budget {budget:?}"
            );
            assert_eq!(race_out.mapping, ref_out.mapping, "budget {budget:?}");
            assert_eq!(race_ctx.consumed(), ref_ctx.consumed(), "budget {budget:?}");
        }
    }

    #[test]
    fn works_on_graph_workflows() {
        let class = ExperimentClass::class_c();
        let s = generate(
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(10.0)),
            14,
            4,
            &class,
            11,
        );
        let p = Problem::new(s.workflow, s.network).expect("valid");
        let out = Blackboard::new(11)
            .solve(&p, &mut SolveCtx::unlimited())
            .expect("ok");
        assert_eq!(out.mapping.len(), 14);
        assert_eq!(out.termination, Termination::Converged);
    }

    #[test]
    fn skips_failing_members_instead_of_aborting() {
        // Regression: the portfolio used to `?` on each member, so one
        // topology-mismatched member sank the whole race even when
        // other members could deploy fine. LineLine fails on a bus
        // network with RequiresLineNetwork; FairLoad succeeds.
        let p = problem(10.0, 1);
        let members: Vec<Box<dyn DeploymentAlgorithm>> = vec![
            Box::new(crate::line_line::LineLine::new()),
            Box::new(FairLoad),
        ];
        let out = race_sequential(&p, &mut SolveCtx::unlimited(), &members)
            .expect("the failing member must be skipped");
        assert_eq!(out.mapping, FairLoad.deploy(&p).unwrap(), "FairLoad wins");
        assert_eq!(out.termination, Termination::Converged);
    }

    #[test]
    fn errors_only_when_every_member_fails() {
        let p = problem(10.0, 2);
        let members: Vec<Box<dyn DeploymentAlgorithm>> = vec![
            Box::new(crate::line_line::LineLine::new()),
            Box::new(crate::line_line::LineLine {
                direction: crate::line_line::Direction::BestOfBoth,
                fix_bridges: false,
            }),
        ];
        let err = race_sequential(&p, &mut SolveCtx::unlimited(), &members).unwrap_err();
        assert_eq!(err, DeployError::RequiresLineNetwork);
    }
}
