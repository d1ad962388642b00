//! Blackboard solver core: cooperative knowledge sources racing on a
//! shared incumbent.
//!
//! The classic blackboard architecture (and its application to
//! web-service workflow optimisation by Vorhemus & Schikuta,
//! arXiv:1801.00322) runs independent *knowledge sources* — here the
//! paper's constructive greedies, the delta-evaluator movers/swappers,
//! the dynamic controller's hotspot repairer, and a Dijkstra-guided
//! route improver — against one shared incumbent store. Any source may
//! improve the board; none may regress it.
//!
//! ## Execution model: deterministic synchronous generations
//!
//! A naive racing blackboard (sources freely writing whenever they
//! finish) is non-deterministic: the winner depends on thread timing.
//! This engine instead runs in *generations*:
//!
//! 1. **Seeding race** — the constructive sources run in canonical
//!    order, batched to fit the remaining budget (`wsflow-par` fans a
//!    batch out across workers, each on its own budget share from
//!    [`wsflow_par::split_budget`]). Results merge back in canonical
//!    source order; the cheapest mapping seeds the board. The first
//!    constructive always runs — even at budget 0 or with a fired
//!    token — so an incumbent exists (the PR 5 guarantee).
//! 2. **Improvement generations** — every live improver proposes from
//!    the *same* board snapshot, in parallel, each on its own budget
//!    share and its own child [`CancelToken`](crate::CancelToken). Proposals merge in
//!    canonical order; strictly better ones advance the board. An
//!    improver that completes a generation without beating the board
//!    earns a strike; at [`Blackboard::dominated_after`] strikes it is
//!    *dominated* — its token is cancelled and it leaves the race. A
//!    generation in which every improver completed and none improved is
//!    quiescence: the solve has converged.
//!
//! Because sources only read the frozen snapshot and the merge order is
//! canonical, the outcome is a pure function of (problem, seed,
//! budget) — bit-identical for every `WSFLOW_THREADS`, like every other
//! solver in this repo.

mod sources;

pub use sources::{
    Constructive, KnowledgeSource, Mover, Proposal, Repairer, Router, SourceKind, Swapper,
};

use wsflow_cost::{Mapping, Problem};

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::fair_load::FairLoad;
use crate::flmme::FairLoadMergeMessages;
use crate::fltr::FairLoadTieResolver;
use crate::fltr2::FairLoadTieResolver2;
use crate::holm::HeavyOpsLargeMsgs;
use crate::line_line::LineLine;
use crate::solve::{construction_steps, SolveCtx, SolveOutcome};

/// Per-source tallies from one blackboard solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStats {
    /// The source's name (e.g. `"FairLoad"`, `"Router"`).
    pub name: String,
    /// Constructive or improver.
    pub kind: SourceKind,
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
    /// Per-source tallies, in canonical source order.
    pub sources: Vec<SourceStats>,
}

/// The cooperative blackboard solver.
#[derive(Debug, Clone)]
pub struct Blackboard {
    /// Seed forwarded to the randomised constructive members.
    pub seed: u64,
    /// Per-generation sweep cap for the improver sources.
    pub max_sweeps: usize,
    /// Consecutive no-improvement generations before an improver is
    /// dominated (token cancelled, removed from the race).
    pub dominated_after: u32,
    /// Safety cap on improvement generations.
    pub max_generations: usize,
}

impl Blackboard {
    /// Blackboard with the default source roster and generation limits.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_sweeps: 50,
            dominated_after: 2,
            max_generations: 64,
        }
    }

    /// The default roster, in canonical order: the paper's bus greedies
    /// plus Line–Line (skipped off-topology), then the four improvers.
    pub fn default_sources(&self) -> Vec<Box<dyn KnowledgeSource>> {
        vec![
            Box::new(Constructive::new(FairLoad)),
            Box::new(Constructive::new(FairLoadTieResolver::new(self.seed))),
            Box::new(Constructive::new(FairLoadTieResolver2::new(self.seed))),
            Box::new(Constructive::new(FairLoadMergeMessages::new(self.seed))),
            Box::new(Constructive::new(HeavyOpsLargeMsgs)),
            Box::new(Constructive::new(LineLine::new())),
            Box::new(Mover {
                max_sweeps: self.max_sweeps,
            }),
            Box::new(Swapper {
                max_sweeps: self.max_sweeps,
            }),
            Box::new(Repairer {
                max_sweeps: self.max_sweeps,
            }),
            Box::new(Router {
                max_sweeps: self.max_sweeps,
            }),
        ]
    }

    /// Solve and report per-source statistics alongside the outcome.
    pub fn solve_stats(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<(SolveOutcome, BlackboardStats), DeployError> {
        self.solve_over(problem, ctx, self.default_sources())
    }

    /// [`solve_stats`](Self::solve_stats) over an explicit source
    /// roster (tests inject stub sources to exercise domination).
    /// Sources are partitioned by [`KnowledgeSource::kind`]; canonical
    /// order is roster order within each kind.
    pub fn solve_over(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
        roster: Vec<Box<dyn KnowledgeSource>>,
    ) -> Result<(SolveOutcome, BlackboardStats), DeployError> {
        assert!(!roster.is_empty(), "the source roster must be non-empty");
        let mark = ctx.mark();
        let mut stats: Vec<SourceStats> = roster
            .iter()
            .map(|s| SourceStats {
                name: s.name().to_string(),
                kind: s.kind(),
                proposals: 0,
                accepts: 0,
                cancelled: false,
            })
            .collect();
        let constructives: Vec<usize> = (0..roster.len())
            .filter(|&i| roster[i].kind() == SourceKind::Constructive)
            .collect();
        let improvers: Vec<usize> = (0..roster.len())
            .filter(|&i| roster[i].kind() == SourceKind::Improver)
            .collect();
        assert!(
            !constructives.is_empty(),
            "the roster needs at least one constructive source to seed the board"
        );

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
            let batch = &constructives[next..next + k];
            let shares = wsflow_par::split_budget(ctx.remaining(), k);
            let token = ctx.token();
            let results = wsflow_par::parallel_map(k, |i| {
                let _span = wsflow_obs::span_with("bb.source", span_base + i as u64);
                let mut child = SolveCtx::with_budget_opt(shares[i]).cancel_token(token.clone());
                let r = roster[batch[i]].propose(problem, None, &mut child);
                (r, child.consumed())
            });
            span_base += k as u64;
            for (i, (result, consumed)) in results.into_iter().enumerate() {
                ctx.charge(consumed);
                match result {
                    Ok(Some(p)) => {
                        let idx = batch[i];
                        stats[idx].proposals += 1;
                        if board.as_ref().map(|(_, c)| p.cost < *c).unwrap_or(true) {
                            ctx.offer(&p.mapping, p.cost);
                            board = Some((p.mapping, p.cost));
                            stats[idx].accepts += 1;
                        }
                    }
                    Ok(None) => {}
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
            strikes: u32,
            token: crate::solve::CancelToken,
        }
        let mut live: Vec<Live> = improvers
            .iter()
            .map(|&idx| Live {
                idx,
                strikes: 0,
                token: ctx.token().child(),
            })
            .collect();
        let mut generations = 0u64;
        let mut quiescent = false;
        while !live.is_empty() && (generations as usize) < self.max_generations {
            if ctx.should_stop() {
                break;
            }
            generations += 1;
            let shares = wsflow_par::split_budget(ctx.remaining(), live.len());
            let snapshot_mapping = best_mapping.clone();
            let snapshot_cost = best_cost;
            let results = wsflow_par::parallel_map(live.len(), |i| {
                let _span = wsflow_obs::span_with("bb.source", span_base + i as u64);
                let mut child =
                    SolveCtx::with_budget_opt(shares[i]).cancel_token(live[i].token.clone());
                let r = roster[live[i].idx].propose(
                    problem,
                    Some((&snapshot_mapping, snapshot_cost)),
                    &mut child,
                );
                (r, child.consumed())
            });
            span_base += live.len() as u64;
            let mut any_accept = false;
            let mut all_completed = true;
            for (i, (result, consumed)) in results.into_iter().enumerate() {
                ctx.charge(consumed);
                let entry = &mut live[i];
                match result {
                    Ok(Some(p)) => {
                        stats[entry.idx].proposals += 1;
                        if p.cost < best_cost {
                            ctx.offer(&p.mapping, p.cost);
                            best_mapping = p.mapping;
                            best_cost = p.cost;
                            stats[entry.idx].accepts += 1;
                            entry.strikes = 0;
                            any_accept = true;
                        } else if p.completed {
                            entry.strikes += 1;
                        } else {
                            // Budget-cut without improvement: no strike —
                            // the source never got a full look.
                            all_completed = false;
                        }
                    }
                    Ok(None) | Err(_) => {
                        // Nothing to propose (or an off-topology
                        // improver): strike it toward domination.
                        entry.strikes += 1;
                    }
                }
            }
            // Dominated sources leave the race; their child tokens fire
            // so any (hypothetical) in-flight work stops cooperatively.
            live.retain(|entry| {
                if entry.strikes >= self.dominated_after {
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
                let slug = sources::slug(&s.name);
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
///
/// Returns the outcome and the index of the winning member.
pub fn race_sequential(
    problem: &Problem,
    ctx: &mut SolveCtx<'_>,
    members: &[Box<dyn DeploymentAlgorithm>],
) -> Result<(SolveOutcome, usize), DeployError> {
    assert!(!members.is_empty(), "the member suite must be non-empty");
    let mark = ctx.mark();
    let mut best: Option<(Mapping, usize, f64)> = None;
    let mut last_err: Option<DeployError> = None;
    let mut all_ran = true;
    let mut all_converged = true;
    for (i, algo) in members.iter().enumerate() {
        // Budget check at the member boundary: skip the rest once the
        // budget is gone, but never before an incumbent exists.
        if best.is_some() && ctx.should_stop() {
            all_ran = false;
            break;
        }
        match Constructive::new(algo).propose_impl(problem, ctx) {
            Ok(Some(p)) => {
                all_converged &= p.completed;
                if best.as_ref().map(|(_, _, c)| p.cost < *c).unwrap_or(true) {
                    best = Some((p.mapping, i, p.cost));
                }
            }
            Ok(None) => {}
            // A failing member is skipped — its error is only surfaced
            // if no member succeeds at all.
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((mapping, winner, cost)) => {
            let converged = all_ran && all_converged;
            Ok((ctx.finish(mark, mapping, cost, converged), winner))
        }
        None => Err(last_err.expect("no winner implies at least one member error")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Termination;
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
        // All five bus constructives propose; LineLine fails on a bus.
        let constructive_proposals: u64 = stats
            .sources
            .iter()
            .filter(|s| s.kind == SourceKind::Constructive)
            .map(|s| s.proposals)
            .sum();
        assert_eq!(constructive_proposals, 5);
        let accepts: u64 = stats.sources.iter().map(|s| s.accepts).sum();
        assert!(accepts >= 1, "someone must have seeded the board");
        // Totals are consistent: accepts never exceed proposals.
        for s in &stats.sources {
            assert!(s.accepts <= s.proposals, "{}: {s:?}", s.name);
        }
    }

    /// A stub improver that never improves: it must be dominated (and
    /// its token cancelled) after `dominated_after` generations.
    struct Stubborn;
    impl KnowledgeSource for Stubborn {
        fn name(&self) -> &str {
            "Stubborn"
        }
        fn kind(&self) -> SourceKind {
            SourceKind::Improver
        }
        fn propose(
            &self,
            _problem: &Problem,
            incumbent: Option<(&Mapping, f64)>,
            _ctx: &mut SolveCtx<'_>,
        ) -> Result<Option<Proposal>, DeployError> {
            let (m, c) = incumbent.expect("improvers run with an incumbent");
            Ok(Some(Proposal {
                mapping: m.clone(),
                cost: c,
                completed: true,
            }))
        }
    }

    #[test]
    fn non_improving_sources_are_dominated_and_cancelled() {
        let p = problem(10.0, 1);
        let bb = Blackboard::new(1);
        let roster: Vec<Box<dyn KnowledgeSource>> = vec![
            Box::new(Constructive::new(FairLoad)),
            Box::new(Stubborn),
            Box::new(Mover { max_sweeps: 50 }),
        ];
        let (out, stats) = bb
            .solve_over(&p, &mut SolveCtx::unlimited(), roster)
            .expect("ok");
        assert_eq!(out.termination, Termination::Converged);
        let stubborn = stats
            .sources
            .iter()
            .find(|s| s.name == "Stubborn")
            .expect("present");
        assert!(
            stubborn.cancelled,
            "a never-improving source must be dominated"
        );
        assert_eq!(stubborn.accepts, 0);
        assert!(
            stubborn.proposals >= bb.dominated_after as u64,
            "it got its {} chances first",
            bb.dominated_after
        );
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
            let (race_out, _) =
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
}
