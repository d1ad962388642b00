//! The threaded multi-tenant scheduler: a fixed worker pool draining a
//! weighted-fair queue of solve jobs.
//!
//! Each job carries its own [`CancelToken`] (the daemon cancels it when
//! the client disconnects) and an event channel on which the worker
//! streams incumbent improvements and the final report. Admission
//! control happens in [`Scheduler::submit`]: a queue at either bound
//! returns the typed [`RejectReason`] instead of queueing — callers
//! turn that into a `Reply::Rejected` backpressure frame.
//!
//! Workers record into the recorder of the thread that started the
//! scheduler: the `svc.admitted`, `svc.rejected`, `svc.completed`,
//! `svc.cancelled` and `svc.failed` counters and the `svc.*` latency
//! histograms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsflow_core::{CancelToken, SolveCtx, Termination};
use wsflow_cost::Problem;

use crate::config::SvcConfig;
use crate::proto::RejectReason;
use crate::queue::FairQueue;
use crate::BoxedAlgorithm;

/// Final accounting for one serviced job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Combined cost of the final mapping.
    pub cost: f64,
    /// Logical steps the solve consumed.
    pub steps: u64,
    /// Why the solve stopped.
    pub termination: Termination,
    /// Server index per operation.
    pub mapping: Vec<u32>,
    /// Time the job waited in queue before a worker picked it up.
    pub queue_wait: Duration,
}

/// Events a worker streams to the job's submitter.
#[derive(Debug)]
pub enum JobEvent {
    /// A strict incumbent improvement: ordinal and new best cost.
    Incumbent {
        /// Improvement ordinal within this job (0, 1, …).
        seq: u64,
        /// Combined cost of the new incumbent.
        cost: f64,
    },
    /// The solve finished; this is the last event for the job.
    Done(JobReport),
    /// The solve failed (e.g. topology-specific algorithm on the wrong
    /// topology); this is the last event for the job.
    Failed(String),
}

/// One queued unit of work.
pub struct Job {
    /// Fair-queueing key.
    pub tenant: String,
    /// The solver to run.
    pub algo: BoxedAlgorithm,
    /// The prepared problem instance.
    pub problem: Problem,
    /// Logical-step budget (`None` = run to convergence).
    pub budget: Option<u64>,
    /// Advisory wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Cancelled by the daemon when the submitting client disconnects.
    pub cancel: CancelToken,
    /// Where incumbents and the final report go.
    pub events: mpsc::Sender<JobEvent>,
    enqueued_at: Instant,
}

impl Job {
    /// Package a job for [`Scheduler::submit`].
    pub fn new(
        tenant: impl Into<String>,
        algo: BoxedAlgorithm,
        problem: Problem,
        budget: Option<u64>,
        deadline: Option<Duration>,
        cancel: CancelToken,
        events: mpsc::Sender<JobEvent>,
    ) -> Self {
        Self {
            tenant: tenant.into(),
            algo,
            problem,
            budget,
            deadline,
            cancel,
            events,
            enqueued_at: Instant::now(),
        }
    }
}

struct Shared {
    queue: Mutex<FairQueue<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Fixed worker pool over a [`FairQueue`].
pub struct Scheduler {
    shared: Arc<Shared>,
    /// Behind a mutex so [`shutdown`](Self::shutdown) works through
    /// `&self` (the daemon shares the scheduler via `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Start `cfg.workers` worker threads, recording into the calling
    /// thread's recorder.
    pub fn start(cfg: &SvcConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(FairQueue::new(cfg)),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let obs = wsflow_obs::capture();
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("wsflow-svc-worker-{i}"))
                    .spawn(move || {
                        let _obs = obs.adopt();
                        worker_loop(&shared)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admit `job` or reject it with typed backpressure.
    pub fn submit(&self, job: Job) -> Result<(), RejectReason> {
        let tenant = job.tenant.clone();
        let mut queue = self.shared.queue.lock().unwrap();
        match queue.push(&tenant, job) {
            Ok(()) => {
                drop(queue);
                wsflow_obs::counter_add("svc.admitted", 1);
                self.shared.available.notify_one();
                Ok(())
            }
            Err(reason) => {
                drop(queue);
                wsflow_obs::counter_add("svc.rejected", 1);
                Err(reason)
            }
        }
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// Stop accepting work, wake the workers, and join them. Queued
    /// jobs that no worker picked up are dropped; their event channels
    /// close, which submitters observe as a disconnect.
    pub fn shutdown(&self) {
        // Set the flag under the queue lock: a worker checks it under
        // that lock before waiting, so it either sees the flag or is
        // already waiting when the notification comes. Set without the
        // lock, the flag can land between the check and the wait, and
        // the worker sleeps through the only wake-up.
        {
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut self.workers.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some((_, job)) = queue.pop() {
                    break job;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        service_one(job);
    }
}

/// Run one job to completion, streaming events. Send failures are
/// ignored: a vanished submitter must not kill the worker, and its
/// cancel token already stops the solve early.
fn service_one(job: Job) {
    let queue_wait = job.enqueued_at.elapsed();
    let service_start = Instant::now();
    wsflow_obs::observe("svc.queue_wait_us", queue_wait.as_micros() as f64);

    let events = job.events;
    let mut seq = 0u64;
    let mut ctx = SolveCtx::with_budget_opt(job.budget)
        .cancel_token(job.cancel)
        .on_incumbent(|_, cost| {
            if seq == 0 {
                // Wall-clock TTFI; the deterministic step-based TTFI is
                // the virtual-time engine's job.
                wsflow_obs::observe(
                    "svc.ttfi_us",
                    (queue_wait + service_start.elapsed()).as_micros() as f64,
                );
            }
            let _ = events.send(JobEvent::Incumbent { seq, cost });
            seq += 1;
        });
    if let Some(d) = job.deadline {
        ctx = ctx.deadline(d);
    }

    let outcome = job.algo.solve(&job.problem, &mut ctx);
    drop(ctx);

    match outcome {
        Ok(out) => {
            wsflow_obs::counter_add("svc.completed", 1);
            if out.termination == Termination::Cancelled {
                wsflow_obs::counter_add("svc.cancelled", 1);
            }
            wsflow_obs::observe(
                "svc.ttfinal_us",
                (queue_wait + service_start.elapsed()).as_micros() as f64,
            );
            let mapping = out
                .mapping
                .as_slice()
                .iter()
                .map(|s| s.index() as u32)
                .collect();
            let _ = events.send(JobEvent::Done(JobReport {
                cost: out.cost,
                steps: out.steps,
                termination: out.termination,
                mapping,
                queue_wait,
            }));
        }
        Err(e) => {
            wsflow_obs::counter_add("svc.failed", 1);
            let _ = events.send(JobEvent::Failed(e.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProblemSpec;
    use crate::{build_problem, resolve_algorithm};

    fn spec(ops: u32, seed: u64) -> ProblemSpec {
        ProblemSpec::Generated {
            shape: "line".into(),
            ops,
            servers: 3,
            bus_mbps: 100.0,
            seed,
        }
    }

    fn job_for(
        tenant: &str,
        algo: &str,
        budget: Option<u64>,
        seed: u64,
    ) -> (Job, mpsc::Receiver<JobEvent>) {
        let (tx, rx) = mpsc::channel();
        let job = Job::new(
            tenant,
            resolve_algorithm(algo, seed).unwrap(),
            build_problem(&spec(8, seed)).unwrap(),
            budget,
            None,
            CancelToken::new(),
            tx,
        );
        (job, rx)
    }

    /// Occupy the scheduler's only worker until the returned token is
    /// cancelled: tenant `blocker` submits an exhaustive scan of 10⁷
    /// mappings (7 ops × 10 servers, the enumeration limit), which takes
    /// hundreds of milliseconds even in release builds, and this returns
    /// once a worker has taken it off the queue.
    fn hold_worker(sched: &Scheduler) -> (CancelToken, mpsc::Receiver<JobEvent>) {
        let (tx, rx) = mpsc::channel();
        let token = CancelToken::new();
        let problem = build_problem(&ProblemSpec::Generated {
            shape: "line".into(),
            ops: 7,
            servers: 10,
            bus_mbps: 100.0,
            seed: 0,
        })
        .unwrap();
        let algo = resolve_algorithm("exhaustive", 0).unwrap();
        let job = Job::new("blocker", algo, problem, None, None, token.clone(), tx);
        sched.submit(job).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while sched.queue_depth() != 0 {
            assert!(Instant::now() < deadline, "no worker took the blocker");
            std::thread::sleep(Duration::from_millis(1));
        }
        (token, rx)
    }

    /// A `svc.*` counter of `rec`, zero when never bumped.
    fn counter(rec: &wsflow_obs::Recorder, name: &str) -> u64 {
        rec.snapshot().counter(name).unwrap_or(0)
    }

    /// The job's final report, skipping streamed incumbents.
    fn wait_done(rx: &mpsc::Receiver<JobEvent>) -> JobReport {
        loop {
            match rx.recv_timeout(Duration::from_secs(60)).unwrap() {
                JobEvent::Done(report) => return report,
                JobEvent::Incumbent { .. } => {}
                JobEvent::Failed(e) => panic!("unexpected failure: {e}"),
            }
        }
    }

    #[test]
    fn jobs_complete_and_stream_improving_incumbents() {
        let cfg = SvcConfig::default().with_workers(2);
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        let sched = Scheduler::start(&cfg);
        let (job, rx) = job_for("t", "portfolio", Some(50_000), 7);
        sched.submit(job).unwrap();

        let mut costs = Vec::new();
        let report = loop {
            match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                JobEvent::Incumbent { seq, cost } => {
                    assert_eq!(seq, costs.len() as u64);
                    costs.push(cost);
                }
                JobEvent::Done(r) => break r,
                JobEvent::Failed(e) => panic!("unexpected failure: {e}"),
            }
        };
        assert!(!costs.is_empty(), "portfolio must stream incumbents");
        assert!(costs.windows(2).all(|w| w[1] < w[0]), "strictly improving");
        assert_eq!(report.cost, *costs.last().unwrap());
        assert_eq!(report.mapping.len(), 8);
        assert_eq!(counter(&rec, "svc.completed"), 1);
        sched.shutdown();
    }

    #[test]
    fn cancelled_job_reports_cancelled_termination() {
        // One worker; the blocker occupies it while the victim queues.
        let cfg = SvcConfig::default().with_workers(1);
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        let sched = Scheduler::start(&cfg);
        let (blocker_token, blocker_rx) = hold_worker(&sched);
        let (victim, victim_rx) = job_for("b", "sa", Some(5_000_000), 2);
        let victim_token = victim.cancel.clone();
        sched.submit(victim).unwrap();
        // Cancel the victim while it is still queued: the worker must
        // still produce a complete mapping, terminated `cancelled`.
        victim_token.cancel();
        blocker_token.cancel();

        for rx in [&blocker_rx, &victim_rx] {
            let report = wait_done(rx);
            assert_eq!(report.termination, Termination::Cancelled);
            assert!(!report.mapping.is_empty());
        }
        assert_eq!(counter(&rec, "svc.completed"), 2);
        assert_eq!(counter(&rec, "svc.cancelled"), 2);
        sched.shutdown();
    }

    #[test]
    fn full_queues_reject_with_typed_backpressure() {
        let cfg = SvcConfig::default().with_workers(1).with_queue_caps(1, 2);
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        let sched = Scheduler::start(&cfg);
        // Occupy the worker so pushes stay queued.
        let (blocker_token, _blocker_rx) = hold_worker(&sched);
        let (j1, _r1) = job_for("a", "fairload", None, 2);
        sched.submit(j1).unwrap();
        let (j2, _r2) = job_for("a", "fairload", None, 3);
        let err = sched.submit(j2).unwrap_err();
        assert_eq!(err, RejectReason::TenantQueueFull { cap: 1 });
        let (j3, _r3) = job_for("b", "fairload", None, 4);
        sched.submit(j3).unwrap();
        let (j4, _r4) = job_for("c", "fairload", None, 5);
        let err = sched.submit(j4).unwrap_err();
        assert_eq!(err, RejectReason::ServiceQueueFull { cap: 2 });
        assert_eq!(counter(&rec, "svc.rejected"), 2);
        blocker_token.cancel();
        sched.shutdown();
    }
}
