//! The online re-deployment controller: a closed loop over a drifting
//! environment.
//!
//! The controller advances through the timeline batch by batch (all
//! events sharing a timestamp form one batch). Between batches the
//! current deployment accrues its analytic combined cost against the
//! *effective* network — crashed servers at `CRASHED_POWER`, slowed
//! servers and degraded links at their stretched ratings — giving a
//! time-weighted cost integral. At each batch the active [`Policy`]
//! may propose a new mapping; adopting one pays the migration plan
//! (state transfer over current routes), and the controller tracks
//! migration volume, repair invocations, and time-to-recover: how long
//! the deployment spent outside a tolerance band around its nominal
//! cost.
//!
//! Everything is analytic and deterministic — no wall-clock values feed
//! any reported number (repair latency is observed only through
//! `wsflow-obs` histograms, which never enter CSVs).

use wsflow_core::{DeploymentAlgorithm, SolveCtx, Termination};
use wsflow_cost::{plan_migration, CostBreakdown, Evaluator, Mapping, MigrationModel, Problem};
use wsflow_model::units::{Mbits, Seconds};
use wsflow_model::{OpId, Workflow};
use wsflow_net::dynamics::{EnvEvent, EnvState, TimedEvent, Timeline};
use wsflow_net::Network;

use crate::policy::Policy;

/// Controller parameters. Repairs run at most `REPAIR_SWEEPS` (10)
/// sweeps per batch, within `resolve_budget`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynConfig {
    /// Seed forwarded to the portfolio's randomised members.
    pub seed: u64,
    /// Prices each operation's migratable state.
    pub migration: MigrationModel,
    /// [`Policy::ThresholdTriggered`] repairs once the observed combined
    /// cost exceeds `threshold ×` the nominal cost.
    pub threshold: f64,
    /// The deployment counts as recovered when its combined cost is
    /// within `recover_band ×` the nominal cost.
    pub recover_band: f64,
    /// Per-batch logical-step budget for each re-solve / repair search
    /// (`None` = unlimited). Bounds the re-deployment latency per fault
    /// deterministically; exhausted searches still return their best
    /// incumbent, so a mapping is always produced.
    pub resolve_budget: Option<u64>,
}

impl Default for DynConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            migration: MigrationModel::default(),
            threshold: 1.25,
            recover_band: 1.05,
            resolve_budget: None,
        }
    }
}

/// What one policy did over one timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DynReport {
    /// The policy that produced this report.
    pub policy: Policy,
    /// Environment events applied.
    pub events_applied: usize,
    /// Event batches (distinct timestamps) processed.
    pub steps: usize,
    /// Cost of the initial deployment on the nominal network.
    pub initial: CostBreakdown,
    /// Cost of the final deployment on the final effective network.
    pub final_cost: CostBreakdown,
    /// Time-weighted mean combined cost over the horizon.
    pub weighted: Seconds,
    /// `weighted / initial.combined` — 1.0 means no degradation.
    pub degradation: f64,
    /// Operations migrated (across all re-deployments).
    pub migrations: usize,
    /// Total migrated state.
    pub migrated_state: Mbits,
    /// Total state-transfer time, charging moves serially.
    pub migration_time: Seconds,
    /// Repair invocations that actually ran a search.
    pub repairs: usize,
    /// Searches cut short by [`DynConfig::resolve_budget`] — each still
    /// adopted its best incumbent (spillover), it just stopped refining.
    pub resolves_exhausted: usize,
    /// Time-to-recover samples: how long each degradation excursion
    /// lasted before cost re-entered the recovery band (migration
    /// transfer time included).
    pub recoveries: Vec<Seconds>,
    /// Time-weighted fraction of servers up over the horizon.
    pub availability: f64,
}

impl DynReport {
    /// Mean of the time-to-recover samples, if any excursion recovered.
    pub fn mean_time_to_recover(&self) -> Option<Seconds> {
        if self.recoveries.is_empty() {
            return None;
        }
        let sum: f64 = self.recoveries.iter().map(|s| s.value()).sum();
        Some(Seconds(sum / self.recoveries.len() as f64))
    }
}

/// The operations a batch of environment events actually touches, for
/// [`Policy::IncrementalRepair`]'s restricted neighbourhood. `None`
/// means "everything" (a restore re-opens the whole placement).
fn affected_ops(batch: &[TimedEvent], problem: &Problem, mapping: &Mapping) -> Option<Vec<OpId>> {
    let w = problem.workflow();
    let mut ops: Vec<OpId> = Vec::new();
    for te in batch {
        match te.event {
            EnvEvent::ServerCrash { server } => ops.extend(mapping.ops_on(server)),
            EnvEvent::ServerSlowdown { server, factor } if factor > 1.0 => {
                ops.extend(mapping.ops_on(server));
            }
            EnvEvent::LinkDegrade { link, .. } => {
                // Both endpoints of every message routed across the link.
                for mid in w.msg_ids() {
                    let m = w.message(mid);
                    let (from, to) = (mapping.server_of(m.from), mapping.server_of(m.to));
                    if from == to {
                        continue;
                    }
                    let crossed = problem
                        .routing()
                        .path(from, to)
                        .map(|p| p.links().contains(&link))
                        .unwrap_or(false);
                    if crossed {
                        ops.push(m.from);
                        ops.push(m.to);
                    }
                }
            }
            EnvEvent::LoadSurge { factor } if factor > 1.0 => {
                // A uniform slowdown changes no relative trade-off; no
                // single move helps.
            }
            // Restores (recover, link restore, factor-1.0 events) lift a
            // constraint: any operation may now profitably move back.
            _ => return None,
        }
    }
    ops.sort();
    ops.dedup();
    Some(ops)
}

/// Upper bound on repair sweeps (and on move/swap rounds) per batch.
const REPAIR_SWEEPS: usize = 10;

/// Repair the incumbent on `wsflow_core::refine`'s kernels. With
/// `Some(ops)` — a localized fault — run first-improvement move sweeps
/// restricted to those operations (`hill_climb_ctx`, the blackboard
/// Repairer's kernel) until a sweep finds nothing. With `None` — a
/// restore re-opened the whole placement — alternate full move and swap
/// sweeps (`moves_and_swaps_ctx`) until neither improves.
///
/// Every evaluator probe charges one logical step against `ctx`; when
/// the budget runs out the repaired-so-far mapping is returned with the
/// third element `false` (the repair did not run to convergence). The
/// second element is the returned mapping's combined cost.
fn repair(
    problem: &Problem,
    start: Mapping,
    ops: Option<&[OpId]>,
    ctx: &mut SolveCtx<'_>,
) -> (Mapping, f64, bool) {
    match ops {
        Some(ops) => wsflow_core::hill_climb_ctx(problem, start, ops, REPAIR_SWEEPS, ctx),
        None => wsflow_core::moves_and_swaps_ctx(problem, start, REPAIR_SWEEPS, ctx),
    }
}

/// Run one policy over one timeline and report what happened.
///
/// `horizon` is the evaluation window; it is extended to cover the
/// timeline's last event if shorter. The initial deployment is the
/// portfolio's answer on the nominal network, identical for every
/// policy, so reports are directly comparable.
pub fn run_policy(
    workflow: &Workflow,
    base: &Network,
    timeline: &Timeline,
    horizon: Seconds,
    policy: Policy,
    cfg: &DynConfig,
) -> DynReport {
    use wsflow_core::Portfolio;

    let nominal =
        Problem::new(workflow.clone(), base.clone()).expect("the nominal problem is valid");
    let start = Portfolio::new(cfg.seed)
        .deploy(&nominal)
        .expect("the portfolio always deploys");
    let initial = Evaluator::new(&nominal).evaluate(&start);
    let baseline = initial.combined.value();

    let horizon = Seconds(horizon.value().max(timeline.horizon().value()));
    let mut env = EnvState::new(base.clone());
    // Last-known-good placement for the *nominal* regime: repair
    // policies consider reverting to it when the environment heals,
    // instead of trusting whatever local optimum the drifted placement
    // repaired into.
    let nominal_best = start.clone();
    let mut current = start;
    let mut cur_cost = initial;

    let mut weighted_integral = 0.0f64;
    let mut avail_integral = 0.0f64;
    let mut prev_t = 0.0f64;
    let mut events_applied = 0usize;
    let mut steps = 0usize;
    let mut migrations = 0usize;
    let mut migrated_state = 0.0f64;
    let mut migration_time = 0.0f64;
    let mut repairs = 0usize;
    let mut resolves_exhausted = 0usize;
    let mut recoveries: Vec<Seconds> = Vec::new();
    let mut excursion_onset: Option<f64> = None;

    // Observability (never feeds the report's numbers).
    let obs = wsflow_obs::enabled();
    let mut latency_hist = wsflow_obs::LocalHistogram::new();
    let mut ttr_hist = wsflow_obs::LocalHistogram::new();

    let events = timeline.events();
    let mut i = 0;
    while i < events.len() {
        let t = events[i].at.value();
        let mut j = i;
        while j < events.len() && events[j].at.value() == t {
            j += 1;
        }
        let batch = &events[i..j];

        // The epoch span covers the whole batch: applying its events,
        // the policy's search, and any migration it adopts. Its idx is
        // the batch ordinal, so traces line up across policies.
        let _epoch = wsflow_obs::span_with("dyn.epoch", steps as u64);

        // Accrue the regime that just ended.
        weighted_integral += cur_cost.combined.value() * (t - prev_t);
        avail_integral += env.up_fraction() * (t - prev_t);
        prev_t = t;

        for (k, te) in batch.iter().enumerate() {
            wsflow_obs::instant("dyn.fault", (events_applied + k) as u64);
            env.apply(&te.event);
        }
        events_applied += batch.len();
        steps += 1;

        // Evaluate the incumbent against the world as it now is.
        let eff = Problem::new(workflow.clone(), env.effective_network())
            .expect("effective networks keep every link, so stay routable");
        let mut eval = Evaluator::new(&eff);
        let before = eval.evaluate(&current);

        let started = obs.then(std::time::Instant::now);
        // Each search gets a fresh per-batch budget, so one expensive
        // fault cannot starve later re-solves.
        let mut ctx = SolveCtx::with_budget_opt(cfg.resolve_budget);
        let (proposal, searched, exhausted) = match policy {
            Policy::Static => (None, false, false),
            Policy::FullResolve => {
                let out = Portfolio::new(cfg.seed)
                    .solve(&eff, &mut ctx)
                    .expect("the portfolio always deploys");
                let ex = out.termination != Termination::Converged;
                (Some(out.mapping), true, ex)
            }
            Policy::IncrementalRepair => {
                let ops = affected_ops(batch, &eff, &current);
                let reopened = ops.is_none();
                let (m, c, completed) = repair(&eff, current.clone(), ops.as_deref(), &mut ctx);
                let m = if reopened && eval.evaluate(&nominal_best).combined.value() < c {
                    nominal_best.clone()
                } else {
                    m
                };
                (Some(m), true, !completed)
            }
            Policy::ThresholdTriggered => {
                if before.combined.value() > cfg.threshold * baseline {
                    // Drift may have accumulated over several tolerated
                    // batches, so the triggered repair opens every op.
                    let (m, c, completed) = repair(&eff, current.clone(), None, &mut ctx);
                    let m = if eval.evaluate(&nominal_best).combined.value() < c {
                        nominal_best.clone()
                    } else {
                        m
                    };
                    (Some(m), true, !completed)
                } else {
                    (None, false, false)
                }
            }
        };
        if searched {
            repairs += 1;
            if exhausted {
                resolves_exhausted += 1;
            }
            if let Some(t0) = started {
                latency_hist.record(t0.elapsed().as_secs_f64());
            }
        }

        let mut batch_transfer = 0.0f64;
        if let Some(next) = proposal {
            if next != current {
                let plan = plan_migration(workflow, eff.comm(), &current, &next, &cfg.migration);
                migrations += plan.num_moves();
                migrated_state += plan.total_state.value();
                migration_time += plan.total_transfer.value();
                batch_transfer = plan.total_transfer.value();
                current = next;
            }
        }
        cur_cost = eval.evaluate(&current);

        // Excursion bookkeeping against the recovery band.
        let degraded = cur_cost.combined.value() > cfg.recover_band * baseline;
        match (excursion_onset, degraded) {
            (None, true) => excursion_onset = Some(t),
            (Some(onset), false) => {
                let ttr = (t - onset) + batch_transfer;
                recoveries.push(Seconds(ttr));
                if obs {
                    ttr_hist.record(ttr);
                }
                excursion_onset = None;
            }
            _ => {}
        }

        i = j;
    }

    // The tail regime out to the horizon.
    let tail = (horizon.value() - prev_t).max(0.0);
    weighted_integral += cur_cost.combined.value() * tail;
    avail_integral += env.up_fraction() * tail;

    let span = horizon.value().max(f64::MIN_POSITIVE);
    let weighted = Seconds(weighted_integral / span);
    let availability = avail_integral / span;
    let report = DynReport {
        policy,
        events_applied,
        steps,
        initial,
        final_cost: cur_cost,
        weighted,
        degradation: weighted.value() / baseline,
        migrations,
        migrated_state: Mbits(migrated_state),
        migration_time: Seconds(migration_time),
        repairs,
        resolves_exhausted,
        recoveries,
        availability,
    };

    if obs {
        wsflow_obs::counter_add("dyn.events_applied", report.events_applied as u64);
        wsflow_obs::counter_add("dyn.migrations", report.migrations as u64);
        wsflow_obs::counter_add("dyn.repairs", report.repairs as u64);
        wsflow_obs::counter_add("dyn.resolves_exhausted", report.resolves_exhausted as u64);
        wsflow_obs::merge_histogram("dyn.repair_latency_secs", &latency_hist);
        wsflow_obs::merge_histogram("dyn.time_to_recover_secs", &ttr_hist);
        wsflow_obs::gauge_set("dyn.availability", report.availability);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::FaultInjector;
    use wsflow_model::MbitsPerSec;
    use wsflow_workload::{generate, Configuration, ExperimentClass};

    fn scenario(seed: u64) -> (Workflow, Network) {
        let class = ExperimentClass::class_c();
        let s = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            9,
            3,
            &class,
            seed,
        );
        (s.workflow, s.network)
    }

    fn quick_run(policy: Policy, seed: u64) -> DynReport {
        let (w, net) = scenario(seed);
        let horizon = Seconds(10.0);
        let timeline = FaultInjector::new(seed, 6, Seconds(1.0)).timeline(&net, horizon);
        run_policy(&w, &net, &timeline, horizon, policy, &DynConfig::default())
    }

    #[test]
    fn reports_are_deterministic() {
        for policy in Policy::ALL {
            let a = quick_run(policy, 2007);
            let b = quick_run(policy, 2007);
            assert_eq!(a, b, "{policy} must be reproducible");
        }
    }

    #[test]
    fn static_policy_never_migrates() {
        let r = quick_run(Policy::Static, 2007);
        assert_eq!(r.migrations, 0);
        assert_eq!(r.repairs, 0);
        assert_eq!(r.migrated_state, Mbits::ZERO);
        assert!(r.degradation >= 1.0 - 1e-9, "faults cannot help Static");
    }

    #[test]
    fn empty_timeline_changes_nothing() {
        let (w, net) = scenario(2007);
        for policy in Policy::ALL {
            let r = run_policy(
                &w,
                &net,
                &Timeline::EMPTY,
                Seconds(10.0),
                policy,
                &DynConfig::default(),
            );
            assert_eq!(r.events_applied, 0);
            assert_eq!(r.migrations, 0);
            assert_eq!(r.final_cost, r.initial, "{policy}: no drift, no change");
            assert!(
                (r.weighted.value() - r.initial.combined.value()).abs()
                    < 1e-12 * r.initial.combined.value().max(1.0)
            );
            assert!((r.degradation - 1.0).abs() < 1e-12);
            assert!((r.availability - 1.0).abs() < 1e-12);
            assert!(r.recoveries.is_empty());
        }
    }

    /// The headline claim: on the quick scenario the
    /// incremental repairer moves strictly less state than the full
    /// re-solver while ending at an equal-or-better deployment.
    #[test]
    fn incremental_repair_beats_full_resolve_on_migration_volume() {
        let mut wins = 0;
        for seed in [2007u64, 2008, 2009, 2010] {
            let full = quick_run(Policy::FullResolve, seed);
            let inc = quick_run(Policy::IncrementalRepair, seed);
            assert!(
                inc.migrated_state.value() <= full.migrated_state.value(),
                "seed {seed}: incremental moved {} Mbit vs full {}",
                inc.migrated_state,
                full.migrated_state
            );
            assert!(
                inc.final_cost.combined.value() <= full.final_cost.combined.value() + 1e-9,
                "seed {seed}: incremental steady state {} worse than full {}",
                inc.final_cost.combined,
                full.final_cost.combined
            );
            if inc.migrated_state.value() < full.migrated_state.value() {
                wins += 1;
            }
        }
        assert!(wins >= 3, "incremental should usually move strictly less");
    }

    #[test]
    fn repair_policies_track_faults_better_than_static() {
        for seed in [2007u64, 2008, 2009] {
            let st = quick_run(Policy::Static, seed);
            let inc = quick_run(Policy::IncrementalRepair, seed);
            assert!(
                inc.weighted.value() <= st.weighted.value() + 1e-9,
                "seed {seed}: repair {} worse than static {}",
                inc.weighted,
                st.weighted
            );
        }
    }

    #[test]
    fn threshold_policy_repairs_at_most_as_often_as_incremental() {
        for seed in [2007u64, 2008, 2009] {
            let inc = quick_run(Policy::IncrementalRepair, seed);
            let thr = quick_run(Policy::ThresholdTriggered, seed);
            assert!(
                thr.repairs <= inc.repairs,
                "seed {seed}: threshold ran {} repairs vs incremental {}",
                thr.repairs,
                inc.repairs
            );
        }
    }

    #[test]
    fn budgeted_resolves_still_produce_mappings_and_stay_deterministic() {
        let (w, net) = scenario(2007);
        let horizon = Seconds(10.0);
        let timeline = FaultInjector::new(2007, 6, Seconds(1.0)).timeline(&net, horizon);
        let tight = DynConfig {
            resolve_budget: Some(40),
            ..DynConfig::default()
        };
        for policy in [Policy::FullResolve, Policy::IncrementalRepair] {
            let unlimited = run_policy(&w, &net, &timeline, horizon, policy, &DynConfig::default());
            assert_eq!(
                unlimited.resolves_exhausted, 0,
                "{policy}: unlimited budget cannot exhaust"
            );
            let a = run_policy(&w, &net, &timeline, horizon, policy, &tight);
            let b = run_policy(&w, &net, &timeline, horizon, policy, &tight);
            assert_eq!(a, b, "{policy} must stay reproducible under a budget");
            // The budget caps search effort, never availability of a
            // mapping: the controller processed every batch and ends on a
            // complete deployment.
            assert_eq!(a.steps, unlimited.steps);
            assert_eq!(a.events_applied, unlimited.events_applied);
            assert!(a.repairs > 0, "{policy} should have searched");
        }
        // The tight budget actually bites on at least one policy.
        let full = run_policy(&w, &net, &timeline, horizon, Policy::FullResolve, &tight);
        assert!(
            full.resolves_exhausted > 0,
            "a 40-step budget must cut the portfolio short"
        );
    }

    #[test]
    fn crash_excursions_recover_and_are_timed() {
        let (w, net) = scenario(2007);
        use wsflow_net::dynamics::TimedEvent;
        use wsflow_net::ServerId;
        let timeline = Timeline::new(vec![
            TimedEvent {
                at: Seconds(1.0),
                event: EnvEvent::ServerCrash {
                    server: ServerId::new(0),
                },
            },
            TimedEvent {
                at: Seconds(3.0),
                event: EnvEvent::ServerRecover {
                    server: ServerId::new(0),
                },
            },
        ])
        .unwrap();
        let st = run_policy(
            &w,
            &net,
            &timeline,
            Seconds(10.0),
            Policy::Static,
            &DynConfig::default(),
        );
        // Static only recovers when the environment does: one excursion
        // of exactly the outage length.
        assert_eq!(st.recoveries.len(), 1);
        assert!((st.recoveries[0].value() - 2.0).abs() < 1e-9);
        assert!(st.availability < 1.0);

        let inc = run_policy(
            &w,
            &net,
            &timeline,
            Seconds(10.0),
            Policy::IncrementalRepair,
            &DynConfig::default(),
        );
        if let (Some(a), Some(b)) = (inc.mean_time_to_recover(), st.mean_time_to_recover()) {
            assert!(
                a.value() <= b.value() + 1e-9,
                "repairing should not recover slower than waiting ({a} vs {b})"
            );
        }
    }

    #[test]
    fn controller_epochs_form_a_span_tree_with_fault_instants() {
        let rec = wsflow_obs::Recorder::new();
        let r = {
            let _obs = rec.install();
            quick_run(Policy::IncrementalRepair, 2007)
        };
        let spans = rec.spans();

        wsflow_obs::validate_spans(&spans).expect("controller spans must form a tree");
        let epochs: Vec<_> = spans.iter().filter(|s| s.name == "dyn.epoch").collect();
        assert_eq!(epochs.len(), r.steps, "one epoch span per event batch");
        let faults: Vec<_> = spans.iter().filter(|s| s.name == "dyn.fault").collect();
        assert_eq!(
            faults.len(),
            r.events_applied,
            "one instant per applied event"
        );
        let epoch_ids: std::collections::HashSet<u64> = epochs.iter().map(|s| s.span_id).collect();
        for f in &faults {
            assert!(f.instant);
            assert_eq!(f.dur_us, 0);
            assert!(
                epoch_ids.contains(&f.parent_id),
                "fault instants must hang off their epoch"
            );
        }
        // Epoch ordinals are dense from zero.
        let mut idxs: Vec<u64> = epochs.iter().map(|s| s.idx).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, (0..r.steps as u64).collect::<Vec<_>>());
    }
}
