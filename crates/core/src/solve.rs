//! Anytime solver core: budgets, cancellation, and incumbents.
//!
//! Every deployment algorithm in the workspace is callable two ways:
//! the classic fire-and-forget [`deploy`](crate::DeploymentAlgorithm::deploy)
//! (run to convergence, return only the mapping) and the anytime
//! [`solve`](crate::DeploymentAlgorithm::solve), which threads a
//! [`SolveCtx`] through the search and returns a [`SolveOutcome`] — the
//! best incumbent found so far plus *why* the search stopped.
//!
//! # Budget semantics
//!
//! The primary budget currency is **logical steps**: evaluator probes
//! for local search, tree nodes for branch-and-bound, enumeration
//! indices for exhaustive scan, samples for randomised baselines.
//! Logical steps are deterministic — a budget of `B` steps stops the
//! search at exactly the same point on every run, for any
//! `WSFLOW_THREADS` setting, with observability on or off — so budgets
//! participate in the workspace-wide bit-identical-results promise.
//!
//! Wall-clock **deadlines** are advisory only: [`SolveCtx::deadline_exceeded`]
//! lets a caller observe that a deadline passed and the elapsed time is
//! reported in [`SolveOutcome::elapsed`] and the obs manifest, but no
//! solver changes its search trajectory based on wall time. (A
//! wall-clock cut-off would make the returned mapping depend on machine
//! speed — exactly the nondeterminism this layer is designed to avoid.)
//!
//! Cooperative **cancellation** via [`CancelToken`] is checked at batch
//! boundaries (between portfolio members, root branches, enumeration
//! blocks). Cancellation is inherently timing-dependent; a cancelled
//! outcome still carries the best incumbent found up to that point.
//!
//! # The incumbent guarantee
//!
//! A converted solver never returns "no mapping" because of an
//! exhausted budget: constructive greedies run atomically (they are the
//! floor other searches improve on), and every budgeted search seeds
//! its incumbent before spending steps. More budget never yields a
//! worse incumbent (monotonicity) because incumbents only ever improve.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsflow_cost::Mapping;

/// Shared cancellation flag for cooperative solver shutdown.
///
/// Clone the token, hand it to a [`SolveCtx`], and call
/// [`cancel`](CancelToken::cancel) from any thread; converted solvers
/// poll it at batch boundaries and return their best incumbent with
/// [`Termination::Cancelled`].
///
/// Tokens form a hierarchy: [`child`](CancelToken::child) derives a
/// token that observes its parent's cancellation but can also be
/// cancelled on its own without touching the parent. The blackboard
/// runtime hands one child per knowledge source so a dominated source
/// can be cancelled individually while a parent-level cancel still
/// stops every source at once.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, thread-safe). Cancelling a
    /// child never cancels its parent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested, here or on any ancestor?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// Derive a linked token: cancelled whenever `self` is, but
    /// individually cancellable without affecting `self` or siblings.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }
}

/// Why a [`solve`](crate::DeploymentAlgorithm::solve) call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The search ran to its natural end (for an exact method this
    /// means the result is optimal; for a heuristic, that it finished
    /// its configured schedule).
    Converged,
    /// The logical-step budget ran out; the outcome carries the best
    /// incumbent found within budget.
    BudgetExhausted,
    /// The [`CancelToken`] fired; the outcome carries the best
    /// incumbent found before the token was observed.
    Cancelled,
}

impl Termination {
    /// Stable lowercase name used in CSV columns and obs counter keys.
    pub fn name(&self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::BudgetExhausted => "budget_exhausted",
            Termination::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of an anytime solve: the best incumbent plus run accounting.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best mapping found (never absent — see the incumbent
    /// guarantee in the module docs).
    pub mapping: Mapping,
    /// Combined cost of `mapping`.
    pub cost: f64,
    /// Logical steps this solve charged against the budget.
    pub steps: u64,
    /// Wall-clock time spent inside the solve. **Advisory only**: never
    /// write this into experiment CSVs (it would break byte-identical
    /// reproduction); it exists for logs and obs manifests.
    pub elapsed: Duration,
    /// Why the search stopped.
    pub termination: Termination,
}

/// Callback fired on every strict incumbent improvement with the new
/// best mapping and its combined cost.
type IncumbentCallback<'cb> = Box<dyn FnMut(&Mapping, f64) + 'cb>;

/// One incumbent improvement, as recorded on the context's trajectory
/// while observability is enabled: the logical step at which the new
/// best was found, the wall-clock offset since the context was created
/// (advisory — never in deterministic CSVs), and its combined cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// `SolveCtx::consumed()` at the moment of the improvement.
    pub step: u64,
    /// Microseconds since the context was created. Wall clock, advisory.
    pub elapsed_us: u64,
    /// Combined cost of the new incumbent.
    pub cost: f64,
}

/// Execution context threaded through an anytime solve: the step
/// budget, the cancel token, the best incumbent seen so far, and an
/// optional callback fired on every incumbent improvement.
///
/// A single context can be threaded through several solver calls (the
/// portfolio does this): the budget and the incumbent are shared across
/// them, so the whole composite run is bounded and monotone.
pub struct SolveCtx<'cb> {
    /// Remaining-step accounting: `None` = unlimited.
    budget: Option<u64>,
    /// Steps consumed so far (across all solver calls sharing this ctx).
    consumed: u64,
    /// Advisory wall-clock deadline measured from `started`.
    deadline: Option<Duration>,
    /// When this context was created.
    started: Instant,
    cancel: CancelToken,
    /// Best (mapping, cost) seen by any solver sharing this context.
    incumbent: Option<(Mapping, f64)>,
    /// `consumed` at the moment the *first* incumbent was offered —
    /// the logical time-to-first-answer. Recorded unconditionally (one
    /// branch, no allocation), unlike the obs-gated trajectory, because
    /// the service layer reports it in deterministic CSVs.
    first_incumbent_at: Option<u64>,
    /// Count of strict incumbent improvements seen by this context.
    improvements: u64,
    /// Called on every strict incumbent improvement.
    on_incumbent: Option<IncumbentCallback<'cb>>,
    /// Steps-to-incumbent samples, merged into the obs registry when
    /// the context finishes a solve (only while obs is enabled).
    steps_to_incumbent: wsflow_obs::LocalHistogram,
    /// Incumbent-improvement trajectory, recorded only while obs is
    /// enabled (empty otherwise). Shared-context composites (the
    /// portfolio) accumulate one joint trajectory.
    trajectory: Vec<TrajectoryPoint>,
}

impl std::fmt::Debug for SolveCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCtx")
            .field("budget", &self.budget)
            .field("consumed", &self.consumed)
            .field("deadline", &self.deadline)
            .field("cancelled", &self.cancel.is_cancelled())
            .field("incumbent_cost", &self.incumbent.as_ref().map(|(_, c)| *c))
            .finish()
    }
}

impl Default for SolveCtx<'_> {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl<'cb> SolveCtx<'cb> {
    /// Unlimited context: `solve` behaves exactly like the classic
    /// blocking `deploy`.
    pub fn unlimited() -> Self {
        Self {
            budget: None,
            consumed: 0,
            deadline: None,
            started: Instant::now(),
            cancel: CancelToken::new(),
            incumbent: None,
            first_incumbent_at: None,
            improvements: 0,
            on_incumbent: None,
            steps_to_incumbent: wsflow_obs::LocalHistogram::new(),
            trajectory: Vec::new(),
        }
    }

    /// Context with a logical-step budget.
    pub fn with_budget(budget: u64) -> Self {
        let mut ctx = Self::unlimited();
        ctx.budget = Some(budget);
        ctx
    }

    /// Context with an optional budget (`None` = unlimited).
    pub fn with_budget_opt(budget: Option<u64>) -> Self {
        let mut ctx = Self::unlimited();
        ctx.budget = budget;
        ctx
    }

    /// Attach an advisory wall-clock deadline (builder style). Solvers
    /// never steer on it — see the module docs.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a shared cancellation token (builder style).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attach an incumbent callback fired on every strict improvement
    /// (builder style).
    pub fn on_incumbent(mut self, cb: impl FnMut(&Mapping, f64) + 'cb) -> Self {
        self.on_incumbent = Some(Box::new(cb));
        self
    }

    /// The configured budget (`None` = unlimited).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Steps consumed so far across all solves sharing this context.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Snapshot of `consumed` for per-solve step accounting: take a
    /// mark at solver entry, pass it to [`finish`](Self::finish), and
    /// the outcome reports only the steps that solve charged.
    pub fn mark(&self) -> u64 {
        self.consumed
    }

    /// Steps left (`None` = unlimited).
    pub fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.consumed))
    }

    /// Has the step budget run out?
    pub fn exhausted(&self) -> bool {
        matches!(self.budget, Some(b) if self.consumed >= b)
    }

    /// Has cancellation been requested?
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// A clone of the cancel token, for handing to worker threads that
    /// poll it at batch boundaries.
    pub fn token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Should the search stop charging steps? (Budget gone or token
    /// fired — deadlines deliberately excluded; see the module docs.)
    pub fn should_stop(&self) -> bool {
        self.exhausted() || self.cancelled()
    }

    /// Advisory: has the wall-clock deadline passed? Never consulted by
    /// solvers; exposed for callers that want to log or report it.
    pub fn deadline_exceeded(&self) -> bool {
        matches!(self.deadline, Some(d) if self.started.elapsed() >= d)
    }

    /// Unconditionally charge `n` logical steps (for atomic phases that
    /// cannot stop midway, e.g. a greedy construction).
    pub fn charge(&mut self, n: u64) {
        self.consumed = self.consumed.saturating_add(n);
    }

    /// Charge one logical step if the search may continue; returns
    /// `false` (charging nothing) once the budget is exhausted or the
    /// token has fired. A budget of `B` therefore admits exactly `B`
    /// successful unit charges — deterministic stop points.
    pub fn try_charge(&mut self, n: u64) -> bool {
        if self.should_stop() {
            return false;
        }
        self.consumed = self.consumed.saturating_add(n);
        true
    }

    /// Offer a candidate to the shared incumbent; keeps it iff strictly
    /// better, firing the callback and recording steps-to-incumbent.
    pub fn offer(&mut self, mapping: &Mapping, cost: f64) {
        let better = self
            .incumbent
            .as_ref()
            .map(|(_, c)| cost < *c)
            .unwrap_or(true);
        if !better {
            return;
        }
        self.incumbent = Some((mapping.clone(), cost));
        if self.first_incumbent_at.is_none() {
            self.first_incumbent_at = Some(self.consumed);
        }
        self.improvements += 1;
        if wsflow_obs::enabled() {
            self.steps_to_incumbent.record(self.consumed as f64);
            // Improvement ordinal = position on this context's
            // trajectory: a deterministic structural index for the
            // instant (offers always run on the ctx-owning thread).
            wsflow_obs::instant("solver.incumbent", self.trajectory.len() as u64);
            self.trajectory.push(TrajectoryPoint {
                step: self.consumed,
                elapsed_us: self.started.elapsed().as_micros() as u64,
                cost,
            });
        }
        if let Some(cb) = self.on_incumbent.as_mut() {
            cb(mapping, cost);
        }
    }

    /// The incumbent-improvement trajectory recorded so far (empty
    /// unless observability was enabled during the solve).
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// The best (mapping, cost) offered so far, if any.
    pub fn incumbent(&self) -> Option<(&Mapping, f64)> {
        self.incumbent.as_ref().map(|(m, c)| (m, *c))
    }

    /// The logical step at which the *first* incumbent was offered
    /// (`None` until one is). Deterministic — recorded with obs on or
    /// off — so services can report time-to-first-incumbent in
    /// byte-stable CSVs.
    pub fn first_incumbent_step(&self) -> Option<u64> {
        self.first_incumbent_at
    }

    /// How many strict incumbent improvements this context has seen.
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// Package a finished solve: offers `(mapping, cost)` as a final
    /// incumbent, resolves the termination reason (cancellation wins
    /// over budget exhaustion; `converged` must be asserted by the
    /// solver), and flushes per-solve obs metrics.
    ///
    /// `mark` is the [`Self::mark`] taken at solver entry, so the
    /// reported step count covers exactly this solve even when the
    /// context is shared across several.
    pub fn finish(
        &mut self,
        mark: u64,
        mapping: Mapping,
        cost: f64,
        converged: bool,
    ) -> SolveOutcome {
        self.offer(&mapping, cost);
        let termination = if self.cancelled() {
            Termination::Cancelled
        } else if !converged {
            Termination::BudgetExhausted
        } else {
            Termination::Converged
        };
        let steps = self.consumed - mark;
        let elapsed = self.started.elapsed();
        if wsflow_obs::enabled() {
            wsflow_obs::counter_add("solver.runs", 1);
            wsflow_obs::counter_add("solver.steps", steps);
            wsflow_obs::counter_add(
                match termination {
                    Termination::Converged => "solver.termination.converged",
                    Termination::BudgetExhausted => "solver.termination.budget_exhausted",
                    Termination::Cancelled => "solver.termination.cancelled",
                },
                1,
            );
            if self.deadline_exceeded() {
                wsflow_obs::counter_add("solver.deadline_exceeded", 1);
            }
            wsflow_obs::merge_histogram("solver.steps_to_incumbent", &self.steps_to_incumbent);
            self.steps_to_incumbent = wsflow_obs::LocalHistogram::new();
        }
        SolveOutcome {
            mapping,
            cost,
            steps,
            elapsed,
            termination,
        }
    }
}

/// Package an atomic (constructive) solve: charge `steps`, evaluate the
/// finished mapping once, and report convergence.
///
/// Constructive greedies cannot stop midway — their partial state is
/// not a valid mapping — so they run to completion even when the budget
/// is smaller than their charge. They are the floor the anytime
/// searches improve on, which is what makes the "never no-mapping"
/// guarantee hold at any budget, including zero.
pub(crate) fn constructive_outcome(
    problem: &wsflow_cost::Problem,
    ctx: &mut SolveCtx<'_>,
    mapping: Mapping,
    steps: u64,
) -> SolveOutcome {
    let mark = ctx.mark();
    ctx.charge(steps);
    let cost = wsflow_cost::Evaluator::new(problem)
        .combined(&mapping)
        .value();
    ctx.finish(mark, mapping, cost, true)
}

/// The flat construction charge for a greedy: the size of the
/// (operation × server) assignment matrix it scans.
pub(crate) fn construction_steps(problem: &wsflow_cost::Problem) -> u64 {
    (problem.num_ops() as u64) * (problem.num_servers() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_net::ServerId;

    fn dummy_mapping() -> Mapping {
        Mapping::all_on(3, ServerId::new(0))
    }

    #[test]
    fn unlimited_ctx_never_stops() {
        let mut ctx = SolveCtx::unlimited();
        for _ in 0..10_000 {
            assert!(ctx.try_charge(1));
        }
        assert!(!ctx.should_stop());
        assert_eq!(ctx.remaining(), None);
    }

    #[test]
    fn budget_admits_exactly_b_unit_charges() {
        let mut ctx = SolveCtx::with_budget(5);
        let mut granted = 0;
        for _ in 0..100 {
            if ctx.try_charge(1) {
                granted += 1;
            }
        }
        assert_eq!(granted, 5);
        assert!(ctx.exhausted());
        assert!(ctx.should_stop());
        assert_eq!(ctx.remaining(), Some(0));
    }

    #[test]
    fn cancel_token_stops_charging_and_wins_termination() {
        let token = CancelToken::new();
        let mut ctx = SolveCtx::with_budget(100).cancel_token(token.clone());
        assert!(ctx.try_charge(1));
        token.cancel();
        assert!(!ctx.try_charge(1));
        let out = ctx.finish(0, dummy_mapping(), 1.0, false);
        assert_eq!(out.termination, Termination::Cancelled);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn child_tokens_link_down_but_never_up() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        // Cancelling one child leaves the parent and siblings alone.
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
        // Cancelling the parent reaches every child, even clones made
        // before the cancel.
        let b2 = b.clone();
        parent.cancel();
        assert!(b.is_cancelled());
        assert!(b2.is_cancelled());
        // Grandchildren observe the whole chain.
        let c = b.child();
        assert!(c.is_cancelled());
    }

    #[test]
    fn incumbent_only_improves_and_fires_callback() {
        let mut improvements = Vec::new();
        {
            let mut ctx = SolveCtx::unlimited().on_incumbent(|_, c| improvements.push(c));
            let m = dummy_mapping();
            ctx.offer(&m, 5.0);
            ctx.offer(&m, 7.0); // worse: ignored
            ctx.offer(&m, 3.0);
            ctx.offer(&m, 3.0); // equal: ignored
            assert_eq!(ctx.incumbent().unwrap().1, 3.0);
            assert_eq!(ctx.improvements(), 2);
        }
        assert_eq!(improvements, vec![5.0, 3.0]);
    }

    #[test]
    fn first_incumbent_step_is_recorded_without_obs() {
        let mut ctx = SolveCtx::with_budget(10);
        assert_eq!(ctx.first_incumbent_step(), None);
        ctx.try_charge(3);
        ctx.offer(&dummy_mapping(), 9.0);
        ctx.try_charge(4);
        ctx.offer(&dummy_mapping(), 4.0);
        // Pinned to the *first* offer, not the best one.
        assert_eq!(ctx.first_incumbent_step(), Some(3));
        assert_eq!(ctx.improvements(), 2);
    }

    #[test]
    fn finish_resolves_termination_and_per_solve_steps() {
        let mut ctx = SolveCtx::with_budget(10);
        assert!(ctx.try_charge(4));
        let mark = ctx.mark();
        assert!(ctx.try_charge(3));
        let out = ctx.finish(mark, dummy_mapping(), 2.0, true);
        assert_eq!(out.termination, Termination::Converged);
        assert_eq!(out.steps, 3);
        assert_eq!(ctx.consumed(), 7);

        let mut ctx = SolveCtx::with_budget(2);
        while ctx.try_charge(1) {}
        let out = ctx.finish(0, dummy_mapping(), 2.0, false);
        assert_eq!(out.termination, Termination::BudgetExhausted);
    }

    #[test]
    fn termination_names_are_stable() {
        assert_eq!(Termination::Converged.name(), "converged");
        assert_eq!(Termination::BudgetExhausted.name(), "budget_exhausted");
        assert_eq!(Termination::Cancelled.name(), "cancelled");
        assert_eq!(Termination::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn deadline_is_advisory_only() {
        let mut ctx = SolveCtx::with_budget(10).deadline(Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(ctx.deadline_exceeded());
        // The search itself is not stopped by a deadline.
        assert!(!ctx.should_stop());
        assert!(ctx.try_charge(1));
    }

    #[test]
    fn trajectory_records_improvements_only_while_obs_is_on() {
        let mut ctx = SolveCtx::with_budget(10);
        ctx.offer(&dummy_mapping(), 9.0);
        assert!(ctx.trajectory().is_empty(), "obs off records nothing");

        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        let mut ctx = SolveCtx::with_budget(10);
        let m = dummy_mapping();
        ctx.try_charge(2);
        ctx.offer(&m, 9.0);
        ctx.try_charge(3);
        ctx.offer(&m, 12.0); // worse: not on the trajectory
        ctx.offer(&m, 4.0);
        let traj: Vec<TrajectoryPoint> = ctx.trajectory().to_vec();
        let spans = rec.spans();

        assert_eq!(traj.len(), 2);
        assert_eq!(traj[0].step, 2);
        assert_eq!(traj[0].cost, 9.0);
        assert_eq!(traj[1].step, 5);
        assert_eq!(traj[1].cost, 4.0);
        // Each improvement also leaves a causal instant with its ordinal.
        let instants: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "solver.incumbent")
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].idx, 0);
        assert_eq!(instants[1].idx, 1);
        assert!(instants.iter().all(|s| s.instant && s.dur_us == 0));
    }

    #[test]
    fn solver_metrics_flush_when_obs_enabled() {
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        let mut ctx = SolveCtx::with_budget(3);
        while ctx.try_charge(1) {}
        let out = ctx.finish(0, dummy_mapping(), 1.0, false);
        let snap = rec.snapshot();

        assert_eq!(out.steps, 3);
        assert_eq!(snap.counter("solver.runs"), Some(1));
        assert_eq!(snap.counter("solver.steps"), Some(3));
        assert_eq!(snap.counter("solver.termination.budget_exhausted"), Some(1));
        assert!(snap.histogram("solver.steps_to_incumbent").unwrap().count >= 1);
    }
}
