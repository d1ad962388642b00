//! Deterministic virtual-time execution of the multi-tenant scheduler.
//!
//! A discrete-event simulation of exactly the structure
//! [`crate::sched`] runs on real threads: the same [`FairQueue`]
//! admission and weighted-fair dispatch, a fixed number of *virtual*
//! worker slots, and per-request cancellation — but time is logical.
//! One solver step costs one virtual microsecond of service, so every
//! latency in the output (queue wait, time-to-first-incumbent,
//! time-to-final) is a pure function of the arrival list and the
//! configuration: byte-identical across machines, `WSFLOW_THREADS`
//! settings, and obs on/off. This is what lets the `loadgen`
//! experiment publish latency distributions under the workspace
//! determinism contract.
//!
//! Client abandonment is modelled with *patience*: an arrival whose
//! service has not started within `patience_us` of arriving is
//! cancelled (its token is fired before dispatch), mirroring a TCP
//! client that disconnects while queued. Per the anytime-solver
//! guarantee the solve still returns a complete mapping, terminated
//! [`wsflow_core::Termination::Cancelled`].

use wsflow_core::{CancelToken, SolveCtx, Termination};

use crate::config::SvcConfig;
use crate::proto::ProblemSpec;
use crate::queue::FairQueue;
use crate::{build_problem, resolve_algorithm};

/// One request in a virtual-time run.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Virtual arrival time in microseconds.
    pub at_us: u64,
    /// Tenant the request bills to (fair-queueing key).
    pub tenant: String,
    /// Algorithm wire name (see [`crate::ALGORITHM_NAMES`]).
    pub algo: String,
    /// Seed for randomised algorithm members.
    pub seed: u64,
    /// The problem to solve.
    pub spec: ProblemSpec,
    /// Logical-step budget (`None` = run to convergence).
    pub budget: Option<u64>,
    /// Abandon (cancel) if service has not started within this many
    /// virtual microseconds of arrival. `None` = infinitely patient.
    pub patience_us: Option<u64>,
}

/// What happened to one arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestReport {
    /// Index of the arrival in the input list.
    pub id: u64,
    /// Tenant name.
    pub tenant: String,
    /// Algorithm wire name.
    pub algo: String,
    /// `done`, `tenant_queue_full`, `service_queue_full`, or `invalid`.
    pub outcome: String,
    /// Virtual arrival time (echoed from the input).
    pub arrival_us: u64,
    /// Virtual time service started (0 if never serviced).
    pub start_us: u64,
    /// `start_us - arrival_us` (0 if never serviced).
    pub queue_wait_us: u64,
    /// Virtual time from arrival to the first incumbent (0 if none).
    pub ttfi_us: u64,
    /// Virtual time from arrival to the final outcome (0 if never
    /// serviced).
    pub ttfinal_us: u64,
    /// Logical steps the solve consumed.
    pub steps: u64,
    /// Combined cost of the final mapping (0 if never serviced).
    pub cost: f64,
    /// Termination name (`converged` / `budget_exhausted` /
    /// `cancelled`), empty if never serviced.
    pub termination: String,
}

/// Aggregate counters of one virtual run (mirrors
/// [`crate::sched::SchedStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VirtualStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Serviced requests (any termination).
    pub completed: u64,
    /// Serviced requests that terminated `cancelled` (patience ran out
    /// while queued).
    pub cancelled: u64,
    /// Requests with an unusable spec or algorithm name.
    pub invalid: u64,
}

/// The virtual-time scheduler.
#[derive(Debug)]
pub struct VirtualService {
    cfg: SvcConfig,
}

struct VJob {
    id: usize,
}

impl VirtualService {
    /// A virtual service with `cfg.workers` service slots.
    ///
    /// The slot count comes only from `cfg` — never from the machine or
    /// `WSFLOW_THREADS` — so two runs with the same config and arrivals
    /// produce identical reports anywhere.
    pub fn new(cfg: SvcConfig) -> Self {
        Self { cfg }
    }

    /// Run every arrival to completion; reports come back ordered by
    /// arrival index.
    pub fn run(&self, arrivals: &[Arrival]) -> (Vec<RequestReport>, VirtualStats) {
        let obs = wsflow_obs::enabled();
        let mut stats = VirtualStats::default();
        let mut reports: Vec<RequestReport> = arrivals
            .iter()
            .enumerate()
            .map(|(id, a)| RequestReport {
                id: id as u64,
                tenant: a.tenant.clone(),
                algo: a.algo.clone(),
                outcome: String::new(),
                arrival_us: a.at_us,
                start_us: 0,
                queue_wait_us: 0,
                ttfi_us: 0,
                ttfinal_us: 0,
                steps: 0,
                cost: 0.0,
                termination: String::new(),
            })
            .collect();

        // Arrivals must be processed in time order; ties resolve by
        // input index (stable sort) so the order is fully specified.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| arrivals[i].at_us);

        let mut queue: FairQueue<VJob> = FairQueue::new(&self.cfg);
        let mut worker_free = vec![0u64; self.cfg.workers.max(1)];
        let mut next = 0; // index into `order`

        let admit = |queue: &mut FairQueue<VJob>,
                     stats: &mut VirtualStats,
                     reports: &mut Vec<RequestReport>,
                     id: usize| {
            match queue.push(&arrivals[id].tenant, VJob { id }) {
                Ok(()) => {
                    stats.admitted += 1;
                    if obs {
                        wsflow_obs::counter_add("svc.admitted", 1);
                    }
                }
                Err(reason) => {
                    stats.rejected += 1;
                    if obs {
                        wsflow_obs::counter_add("svc.rejected", 1);
                    }
                    reports[id].outcome = reason.name().to_string();
                }
            }
        };

        loop {
            // The earliest dispatch opportunity: the first worker slot
            // to free up (lowest index wins ties — deterministic).
            let (slot, t_free) = worker_free
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, t)| (t, i))
                .expect("at least one worker slot");

            // Everything that arrived by then is in the queue when the
            // dispatch decision is made, exactly as in the threaded
            // scheduler.
            while next < order.len() && arrivals[order[next]].at_us <= t_free {
                admit(&mut queue, &mut stats, &mut reports, order[next]);
                next += 1;
            }

            if let Some((_, vjob)) = queue.pop() {
                let arrival = &arrivals[vjob.id];
                let start = t_free.max(arrival.at_us);
                let queue_wait = start - arrival.at_us;
                let abandoned = arrival.patience_us.map(|p| queue_wait > p).unwrap_or(false);
                let report = &mut reports[vjob.id];
                report.start_us = start;
                report.queue_wait_us = queue_wait;

                let service_us = match service(arrival, abandoned, report) {
                    Ok(us) => us,
                    Err(message) => {
                        stats.invalid += 1;
                        report.outcome = "invalid".to_string();
                        report.termination = message;
                        worker_free[slot] = start; // no service time
                        continue;
                    }
                };
                stats.completed += 1;
                report.outcome = "done".to_string();
                report.ttfinal_us = queue_wait + service_us;
                if report.termination == Termination::Cancelled.name() {
                    stats.cancelled += 1;
                }
                if obs {
                    wsflow_obs::counter_add("svc.completed", 1);
                    if report.termination == Termination::Cancelled.name() {
                        wsflow_obs::counter_add("svc.cancelled", 1);
                    }
                    wsflow_obs::observe("svc.queue_wait_us", queue_wait as f64);
                    if report.ttfi_us > 0 {
                        wsflow_obs::observe("svc.ttfi_us", report.ttfi_us as f64);
                    }
                    wsflow_obs::observe("svc.ttfinal_us", report.ttfinal_us as f64);
                }
                worker_free[slot] = start + service_us;
            } else if next < order.len() {
                // Queue empty: idle this slot forward to the next
                // arrival instant (admitting every arrival at that
                // instant before the next dispatch decision).
                let t = arrivals[order[next]].at_us;
                while next < order.len() && arrivals[order[next]].at_us == t {
                    admit(&mut queue, &mut stats, &mut reports, order[next]);
                    next += 1;
                }
                worker_free[slot] = worker_free[slot].max(t);
            } else {
                break;
            }
        }

        (reports, stats)
    }
}

/// Solve one dispatched request synchronously; returns the virtual
/// service time in microseconds (= logical steps consumed) and fills
/// the solve fields of `report`.
fn service(arrival: &Arrival, abandoned: bool, report: &mut RequestReport) -> Result<u64, String> {
    let algo = resolve_algorithm(&arrival.algo, arrival.seed)
        .ok_or_else(|| format!("unknown algorithm {:?}", arrival.algo))?;
    let problem = build_problem(&arrival.spec)?;
    let token = CancelToken::new();
    if abandoned {
        // The client gave up while the request was queued; the solve
        // still runs (cheaply) and returns its constructive floor.
        token.cancel();
    }
    let mut ctx = SolveCtx::with_budget_opt(arrival.budget).cancel_token(token);
    let outcome = algo.solve(&problem, &mut ctx).map_err(|e| e.to_string())?;
    report.steps = outcome.steps;
    report.cost = outcome.cost;
    report.termination = outcome.termination.name().to_string();
    // 1 logical step = 1 virtual microsecond of service.
    report.ttfi_us = report.queue_wait_us + ctx.first_incumbent_step().unwrap_or(0);
    Ok(outcome.steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ops: u32, seed: u64) -> ProblemSpec {
        ProblemSpec::Generated {
            shape: "line".into(),
            ops,
            servers: 3,
            bus_mbps: 100.0,
            seed,
        }
    }

    fn arrival(at_us: u64, tenant: &str, seed: u64) -> Arrival {
        Arrival {
            at_us,
            tenant: tenant.into(),
            algo: "portfolio".into(),
            seed,
            spec: spec(8, seed),
            budget: Some(2_000),
            patience_us: None,
        }
    }

    #[test]
    fn identical_inputs_give_identical_reports() {
        let cfg = SvcConfig::default()
            .with_workers(2)
            .with_queue_caps(8, 32)
            .with_weight("gold", 4);
        let arrivals: Vec<Arrival> = (0..12)
            .map(|i| {
                arrival(
                    (i as u64) * 300,
                    if i % 3 == 0 { "gold" } else { "bronze" },
                    i as u64,
                )
            })
            .collect();
        let svc = VirtualService::new(cfg);
        let (a, sa) = svc.run(&arrivals);
        let (b, sb) = svc.run(&arrivals);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.completed, 12);
    }

    #[test]
    fn latencies_are_causal_and_queueing_shows_up() {
        // One slot, simultaneous arrivals: the second waits for the
        // first's full service time.
        let cfg = SvcConfig::default().with_workers(1).with_queue_caps(8, 8);
        let arrivals = vec![arrival(0, "a", 1), arrival(0, "b", 2)];
        let (reports, stats) = VirtualService::new(cfg).run(&arrivals);
        assert_eq!(stats.completed, 2);
        let first = &reports[0];
        let second = &reports[1];
        assert_eq!(first.queue_wait_us, 0);
        assert_eq!(second.queue_wait_us, first.steps);
        for r in &reports {
            assert!(r.steps > 0);
            assert!(r.ttfi_us >= r.queue_wait_us);
            assert!(r.ttfinal_us >= r.ttfi_us);
            assert_eq!(r.ttfinal_us, r.queue_wait_us + r.steps);
            assert_eq!(r.termination, "converged");
        }
    }

    #[test]
    fn impatient_clients_cancel_and_still_get_a_mapping() {
        let cfg = SvcConfig::default().with_workers(1).with_queue_caps(8, 8);
        let mut hurried = arrival(0, "b", 2);
        hurried.patience_us = Some(10); // far less than one solve
        let arrivals = vec![arrival(0, "a", 1), hurried];
        let (reports, stats) = VirtualService::new(cfg).run(&arrivals);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(reports[1].termination, "cancelled");
        assert_eq!(reports[1].outcome, "done");
        assert!(reports[1].cost > 0.0, "cancelled solve still has a mapping");
    }

    #[test]
    fn overload_rejects_with_typed_reasons() {
        let cfg = SvcConfig::default().with_workers(1).with_queue_caps(1, 2);
        // All at t=0: one dispatches... no — dispatch happens after
        // admission of everything at t=0, so caps bite on the burst.
        let arrivals = vec![
            arrival(0, "a", 1),
            arrival(0, "a", 2),
            arrival(0, "a", 3), // tenant cap (1) exceeded
            arrival(0, "b", 4),
            arrival(0, "c", 5), // total cap (2) exceeded
        ];
        let (reports, stats) = VirtualService::new(cfg).run(&arrivals);
        assert_eq!(stats.rejected, 3);
        let outcomes: Vec<&str> = reports.iter().map(|r| r.outcome.as_str()).collect();
        assert!(outcomes.contains(&"tenant_queue_full"));
        assert!(outcomes.contains(&"service_queue_full"));
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn unknown_algorithms_are_invalid_not_fatal() {
        let cfg = SvcConfig::default().with_workers(1).with_queue_caps(8, 8);
        let mut bad = arrival(0, "a", 1);
        bad.algo = "magic".into();
        let (reports, stats) = VirtualService::new(cfg).run(&[bad, arrival(5, "a", 2)]);
        assert_eq!(stats.invalid, 1);
        assert_eq!(reports[0].outcome, "invalid");
        assert_eq!(stats.completed, 1);
        assert_eq!(reports[1].outcome, "done");
    }

    #[test]
    fn weighted_tenants_wait_less_under_contention() {
        let cfg = SvcConfig::default()
            .with_workers(1)
            .with_queue_caps(32, 64)
            .with_weight("gold", 8);
        // A burst at t=0 from both tenants; gold (weight 8) should see
        // lower mean queue wait than bronze (weight 1).
        let mut arrivals = Vec::new();
        for i in 0..6 {
            arrivals.push(arrival(0, "gold", i));
            arrivals.push(arrival(0, "bronze", 100 + i));
        }
        let (reports, _) = VirtualService::new(cfg).run(&arrivals);
        let mean = |t: &str| {
            let waits: Vec<u64> = reports
                .iter()
                .filter(|r| r.tenant == t && r.outcome == "done")
                .map(|r| r.queue_wait_us)
                .collect();
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        };
        assert!(
            mean("gold") < mean("bronze"),
            "gold {} vs bronze {}",
            mean("gold"),
            mean("bronze")
        );
    }
}
