//! The discrete-event engine: simulated executions of a deployed
//! workflow.
//!
//! Where the analytic model (`wsflow-cost`) computes *expected* values,
//! the engine plays out runs: XOR branches are sampled, OR branches
//! genuinely race, and (optionally) operations queue FIFO on their
//! server and inter-server messages serialise on the shared bus — two
//! contention effects the paper's cost model abstracts away. A message
//! crossing regions of a geo network also pays the inter-region
//! surcharge the analytic model charges; it delays the arrival but
//! never occupies the bus.
//!
//! The engine is driven by a stream of workflow-instance arrivals, all
//! sharing the servers and the bus. The `simulate*` entry points are a
//! stream of one instance at `t = 0`; [`crate::open_loop()`] feeds it a
//! Poisson stream. Per-instance state is flat, indexed
//! `instance · n_ops + op`, and events are ordered by time, then by
//! insertion: timeline events first, then one arrival per instance.
//!
//! # Dynamic runs
//!
//! [`simulate_dynamic`] replays an environment [`Timeline`] *during*
//! the run. Event semantics:
//!
//! * `ServerCrash` — in-service operations on the server are aborted
//!   (their partial work is lost) and stall, along with anything that
//!   becomes ready while the server is down.
//! * `ServerRecover` — stalled operations restart from scratch.
//! * `ServerSlowdown` / `LoadSurge` — stretch the processing time of
//!   operations that *start* after the event; in-service operations
//!   keep their committed service time (quasi-static rates).
//! * `LinkDegrade` / `LinkRestore` — stretch the transmission time of
//!   messages *sent* after the event; in-flight transfers are
//!   unaffected. Routes themselves stay fixed within a run.
//!
//! A run whose sink is stalled forever (a crash with no recovery)
//! reports an infinite completion time.
//!
//! The static entry points are the empty-timeline special case: every
//! environment factor is exactly `1.0` and every multiplication by it
//! is an IEEE-754 identity, so a dynamic run over [`Timeline::EMPTY`]
//! is bit-identical to [`simulate`] — same floats, same event order,
//! same trace.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use rand::Rng;
use wsflow_cost::{Mapping, Problem};
use wsflow_model::{DecisionKind, Mbits, MsgId, OpId, OpKind, Seconds};
use wsflow_net::dynamics::{EnvEvent, Timeline};
use wsflow_net::ServerId;

use crate::trace::{ExecutionTrace, TraceKind};

/// What the engine models beyond the analytic assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimConfig {
    /// Operations on the same server execute one at a time (FIFO).
    /// When `false` (default, matching the analytic model) a server
    /// processes any number of ready operations concurrently.
    pub server_fifo: bool,
    /// Inter-server messages serialise on the shared bus medium (only
    /// meaningful for bus networks; ignored otherwise). When `false`
    /// every message sees the full link bandwidth.
    pub bus_serial: bool,
}

impl SimConfig {
    /// The analytic model's assumptions: no contention anywhere.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Full contention: FIFO servers and a serialised bus.
    pub fn contended() -> Self {
        Self {
            server_fifo: true,
            bus_serial: true,
        }
    }
}

/// The outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Time from workflow start to the sink's completion.
    pub completion: Seconds,
    /// Per-server total processing time actually spent this run.
    pub server_busy: Vec<Seconds>,
    /// Number of inter-server messages sent.
    pub messages_sent: usize,
    /// Total inter-server traffic.
    pub bytes_sent: Mbits,
    /// For each XOR opener that executed: the chosen outgoing message.
    pub xor_choices: Vec<(OpId, MsgId)>,
    /// Number of operations that actually executed.
    pub ops_executed: usize,
}

/// One operation of one workflow instance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Job {
    inst: u32,
    op: OpId,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    /// The instance arrives: its source becomes ready.
    Inject(u32),
    /// The job's join condition is satisfied; it may enter service.
    Ready(Job),
    /// The job finishes processing. `epoch` pins the service attempt: a
    /// crash aborts the attempt by bumping the job's epoch, turning the
    /// in-flight finish into a stale no-op.
    Finish { job: Job, epoch: u32 },
    /// The instance's message reaches its destination server.
    Arrive(u32, MsgId),
    /// Environment event `timeline.events()[i]` fires.
    Env(u32),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest time first, then insertion order.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pending events, ordered by time and then insertion order.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl Events {
    fn push(&mut self, time: f64, action: Action) {
        self.heap.push(Event {
            time,
            seq: self.seq,
            action,
        });
        self.seq += 1;
    }
}

struct ServerState {
    queue: VecDeque<Job>,
    busy: bool,
}

/// Simulate one execution of `problem`'s workflow under `mapping`.
///
/// Panics if the workflow's sink never completes — impossible for the
/// well-formed workflows a [`Problem`] guarantees.
///
/// # Examples
///
/// A deterministic (XOR-free) workflow under the ideal configuration
/// reproduces the analytic `Texecute` exactly:
///
/// ```
/// use rand::SeedableRng;
/// use wsflow_cost::{Evaluator, Mapping, Problem};
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
/// use wsflow_net::ServerId;
/// use wsflow_sim::{simulate, SimConfig};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.line("op", &[MCycles(10.0), MCycles(20.0)], Mbits(0.5));
/// let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
/// let problem = Problem::new(b.build().unwrap(), net).unwrap();
/// let mapping = Mapping::from_fn(2, |o| ServerId::new(o.0 % 2));
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let outcome = simulate(&problem, &mapping, SimConfig::ideal(), &mut rng);
/// let analytic = Evaluator::new(&problem).execution_time(&mapping);
/// assert!((outcome.completion.value() - analytic.value()).abs() < 1e-12);
/// ```
pub fn simulate(
    problem: &Problem,
    mapping: &Mapping,
    config: SimConfig,
    rng: &mut impl Rng,
) -> SimOutcome {
    run(
        problem,
        mapping,
        config,
        &Timeline::EMPTY,
        &[0.0],
        rng,
        None,
    )
    .0
}

/// Like [`simulate`], additionally recording a full event trace.
pub fn simulate_traced(
    problem: &Problem,
    mapping: &Mapping,
    config: SimConfig,
    rng: &mut impl Rng,
) -> (SimOutcome, ExecutionTrace) {
    let mut trace = ExecutionTrace::new();
    let (outcome, _) = run(
        problem,
        mapping,
        config,
        &Timeline::EMPTY,
        &[0.0],
        rng,
        Some(&mut trace),
    );
    (outcome, trace)
}

/// Simulate one execution while replaying `timeline`'s environment
/// events mid-run (see the module docs for event semantics).
///
/// With an empty timeline this is bit-identical to [`simulate`]. A run
/// whose sink is stalled forever reports `completion = +∞`.
pub fn simulate_dynamic(
    problem: &Problem,
    mapping: &Mapping,
    config: SimConfig,
    timeline: &Timeline,
    rng: &mut impl Rng,
) -> SimOutcome {
    run(problem, mapping, config, timeline, &[0.0], rng, None).0
}

/// Like [`simulate_dynamic`], additionally recording a full event trace
/// (applied environment events appear as [`TraceKind::Fault`]).
pub fn simulate_dynamic_traced(
    problem: &Problem,
    mapping: &Mapping,
    config: SimConfig,
    timeline: &Timeline,
    rng: &mut impl Rng,
) -> (SimOutcome, ExecutionTrace) {
    let mut trace = ExecutionTrace::new();
    let (outcome, _) = run(
        problem,
        mapping,
        config,
        timeline,
        &[0.0],
        rng,
        Some(&mut trace),
    );
    (outcome, trace)
}

/// Enter `job` into service on `s`: commit its service duration, trace
/// the start, and schedule the finish under the job's current epoch.
#[allow(clippy::too_many_arguments)]
fn begin_service(
    events: &mut Events,
    trace: &mut Option<&mut ExecutionTrace>,
    service_dur: &mut [f64],
    finish_epoch: &[u32],
    job: Job,
    slot: usize,
    s: ServerId,
    time: f64,
    dur: f64,
) {
    service_dur[slot] = dur;
    if let Some(t) = trace.as_deref_mut() {
        t.record(
            time,
            TraceKind::OpStarted {
                op: job.op,
                server: s,
            },
        );
    }
    events.push(
        time + dur,
        Action::Finish {
            job,
            epoch: finish_epoch[slot],
        },
    );
}

/// Play out one instance of the workflow per entry of `arrivals` (its
/// arrival time), all sharing the servers and the bus, while replaying
/// `timeline`. Returns the outcome — whose `completion` is the last
/// instance's — and each instance's sink-completion time (`+∞` if it
/// stalled forever).
pub(crate) fn run(
    problem: &Problem,
    mapping: &Mapping,
    config: SimConfig,
    timeline: &Timeline,
    arrivals: &[f64],
    rng: &mut impl Rng,
    mut trace: Option<&mut ExecutionTrace>,
) -> (SimOutcome, Vec<f64>) {
    let w = problem.workflow();
    let net = problem.network();
    let n_ops = w.num_ops();
    let n_servers = net.num_servers();
    let mut events = Events::default();

    // Per-job state, flattened: slot = instance * n_ops + op.
    let n_jobs = arrivals.len() * n_ops;
    let slot = |job: Job| job.inst as usize * n_ops + job.op.index();
    let mut arrived = vec![0usize; n_jobs];
    let mut fired = vec![false; n_jobs];
    let mut finished = vec![false; n_jobs];
    let mut finish_time = vec![0.0f64; n_jobs];
    let mut servers: Vec<ServerState> = (0..n_servers)
        .map(|_| ServerState {
            queue: VecDeque::new(),
            busy: false,
        })
        .collect();
    let mut server_busy = vec![0.0f64; n_servers];
    let mut bus_free = 0.0f64;
    let mut messages_sent = 0usize;
    let mut bytes_sent = 0.0f64;
    let mut xor_choices = Vec::new();
    let mut ops_executed = 0usize;
    // When a job became ready, for FIFO queue-wait accounting.
    let mut ready_time = vec![0.0f64; n_jobs];

    // Dynamic-environment state. For a static run (empty timeline) every
    // factor stays exactly 1.0 and every server stays up, so each use
    // below is an IEEE identity and the run is bit-identical to the
    // pre-dynamic engine.
    let mut up = vec![true; n_servers];
    let mut slow = vec![1.0f64; n_servers];
    let mut link_f = vec![1.0f64; net.num_links()];
    let mut surge = 1.0f64;
    // The service attempt each scheduled finish belongs to; crashes bump
    // the epoch to cancel in-flight finishes.
    let mut finish_epoch = vec![0u32; n_jobs];
    // Committed service duration of the current attempt, charged to the
    // server when (and only when) the attempt completes.
    let mut service_dur = vec![0.0f64; n_jobs];
    // FIFO: the job in service per server. Non-FIFO: all in-service jobs
    // per server, in start order; plus jobs stalled on a downed server.
    let mut running_fifo: Vec<Option<Job>> = vec![None; n_servers];
    let mut running: Vec<Vec<Job>> = vec![Vec::new(); n_servers];
    let mut stalled: Vec<Vec<Job>> = vec![Vec::new(); n_servers];
    let mut faults_applied = 0u64;

    // Observability: batch into run-locals, flush once after the loop.
    let obs = wsflow_obs::enabled();
    let mut events_processed = 0u64;
    let mut queue_depth_hist = wsflow_obs::LocalHistogram::new();
    let mut queue_wait_hist = wsflow_obs::LocalHistogram::new();
    let mut link_busy_hist = wsflow_obs::LocalHistogram::new();

    let tproc =
        |op: OpId| -> f64 { (w.op(op).cost / net.server(mapping.server_of(op)).power).value() };

    let sources = w.sources();
    assert_eq!(sources.len(), 1, "problems guarantee a single source");
    let source = sources[0];
    let sinks = w.sinks();
    assert_eq!(sinks.len(), 1, "problems guarantee a single sink");
    let sink = sinks[0];

    // Schedule the whole timeline up front, then one arrival per
    // instance. At equal times environment events fire before workflow
    // events (lower seq); an empty timeline pushes nothing.
    for (i, te) in timeline.events().iter().enumerate() {
        events.push(te.at.value(), Action::Env(i as u32));
    }
    for (inst, &at) in arrivals.iter().enumerate() {
        events.push(at, Action::Inject(inst as u32));
    }

    while let Some(Event { time, action, .. }) = events.heap.pop() {
        events_processed += 1;
        match action {
            Action::Inject(inst) => {
                let job = Job { inst, op: source };
                fired[slot(job)] = true;
                events.push(time, Action::Ready(job));
            }
            Action::Ready(job) => {
                let s = mapping.server_of(job.op);
                if config.server_fifo {
                    let state = &mut servers[s.index()];
                    ready_time[slot(job)] = time;
                    state.queue.push_back(job);
                    if obs {
                        queue_depth_hist.record(state.queue.len() as f64);
                    }
                    if !state.busy && up[s.index()] {
                        let next = state.queue.pop_front().expect("just pushed");
                        state.busy = true;
                        running_fifo[s.index()] = Some(next);
                        let dur = tproc(next.op) * (slow[s.index()] * surge);
                        begin_service(
                            &mut events,
                            &mut trace,
                            &mut service_dur,
                            &finish_epoch,
                            next,
                            slot(next),
                            s,
                            time,
                            dur,
                        );
                    }
                } else if up[s.index()] {
                    running[s.index()].push(job);
                    let dur = tproc(job.op) * (slow[s.index()] * surge);
                    begin_service(
                        &mut events,
                        &mut trace,
                        &mut service_dur,
                        &finish_epoch,
                        job,
                        slot(job),
                        s,
                        time,
                        dur,
                    );
                } else {
                    stalled[s.index()].push(job);
                }
            }
            Action::Finish { job, epoch } => {
                let i = slot(job);
                if epoch != finish_epoch[i] {
                    continue; // attempt aborted by a crash
                }
                let op = job.op;
                let s = mapping.server_of(op);
                finished[i] = true;
                finish_time[i] = time;
                server_busy[s.index()] += service_dur[i];
                ops_executed += 1;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(time, TraceKind::OpFinished { op, server: s });
                }
                if config.server_fifo {
                    running_fifo[s.index()] = None;
                    let state = &mut servers[s.index()];
                    if let Some(next) = state.queue.pop_front() {
                        // Popped at a finish event, so `next` sat queued
                        // the whole time since it became ready.
                        let waited = time - ready_time[slot(next)];
                        if waited > 0.0 {
                            if obs {
                                queue_wait_hist.record(waited);
                            }
                            if let Some(t) = trace.as_deref_mut() {
                                t.record(
                                    time,
                                    TraceKind::QueueWait {
                                        op: next.op,
                                        server: s,
                                        waited: Seconds(waited),
                                    },
                                );
                            }
                        }
                        running_fifo[s.index()] = Some(next);
                        let dur = tproc(next.op) * (slow[s.index()] * surge);
                        begin_service(
                            &mut events,
                            &mut trace,
                            &mut service_dur,
                            &finish_epoch,
                            next,
                            slot(next),
                            s,
                            time,
                            dur,
                        );
                    } else {
                        state.busy = false;
                    }
                } else if let Some(pos) = running[s.index()].iter().position(|&r| r == job) {
                    running[s.index()].remove(pos);
                }
                // Dispatch outgoing messages.
                let out = w.out_msgs(op);
                if out.is_empty() {
                    continue;
                }
                let picked;
                let chosen: &[MsgId] = if w.op(op).kind == OpKind::Open(DecisionKind::Xor) {
                    let mid = sample_branch(w, op, rng);
                    xor_choices.push((op, mid));
                    picked = [mid];
                    &picked
                } else {
                    out
                };
                for &mid in chosen {
                    let msg = w.message(mid);
                    let from = mapping.server_of(msg.from);
                    let to = mapping.server_of(msg.to);
                    let arrival = if from == to {
                        time
                    } else {
                        messages_sent += 1;
                        bytes_sent += msg.size.value();
                        if let Some(t) = trace.as_deref_mut() {
                            t.record(time, TraceKind::MsgSent { msg: mid, from, to });
                        }
                        // The geo extension's inter-region surcharge
                        // (zero without a latency matrix, an exact
                        // identity) is pure delay: it never occupies
                        // the bus.
                        let region = net.server_region_latency(from, to);
                        match (config.bus_serial, net.bus_speed()) {
                            (true, Some(speed)) => {
                                let start = time.max(bus_free);
                                if start > time {
                                    let waited = start - time;
                                    if obs {
                                        link_busy_hist.record(waited);
                                    }
                                    if let Some(t) = trace.as_deref_mut() {
                                        if let Some(link) = net.find_link(from, to) {
                                            t.record(
                                                time,
                                                TraceKind::LinkBusy {
                                                    msg: mid,
                                                    link,
                                                    waited: Seconds(waited),
                                                },
                                            );
                                        }
                                    }
                                }
                                let degrade = net
                                    .find_link(from, to)
                                    .map(|l| link_f[l.index()])
                                    .unwrap_or(1.0);
                                bus_free = start + (msg.size / speed).value() * degrade;
                                bus_free + region.value()
                            }
                            _ => {
                                // `RoutingTable::transfer_time` with each
                                // link's transmission term stretched by
                                // its current degradation factor (×1.0
                                // when nominal — exact).
                                let path = problem
                                    .routing()
                                    .path(from, to)
                                    .expect("problem networks are fully routable");
                                let t: Seconds = path
                                    .links()
                                    .iter()
                                    .map(|&l| {
                                        let link = net.link(l);
                                        (msg.size / link.speed) * link_f[l.index()]
                                            + link.propagation
                                    })
                                    .sum();
                                time + (t + region).value()
                            }
                        }
                    };
                    events.push(arrival, Action::Arrive(job.inst, mid));
                }
            }
            Action::Arrive(inst, mid) => {
                if let Some(t) = trace.as_deref_mut() {
                    t.record(time, TraceKind::MsgArrived { msg: mid });
                }
                let target = Job {
                    inst,
                    op: w.message(mid).to,
                };
                let i = slot(target);
                if fired[i] {
                    continue; // late OR arrival
                }
                arrived[i] += 1;
                let fire = match w.op(target.op).kind {
                    OpKind::Close(DecisionKind::And) => arrived[i] == w.in_degree(target.op),
                    // /OR fires on the first arrival; /XOR receives
                    // exactly one; everything else has in-degree 1.
                    _ => true,
                };
                if fire {
                    fired[i] = true;
                    events.push(time, Action::Ready(target));
                }
            }
            Action::Env(idx) => {
                let event = timeline.events()[idx as usize].event;
                faults_applied += 1;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(time, TraceKind::Fault { event });
                }
                match event {
                    EnvEvent::ServerCrash { server } if server.index() < n_servers => {
                        up[server.index()] = false;
                        if config.server_fifo {
                            // The in-service job loses its partial work and
                            // goes back to the head of the queue.
                            if let Some(r) = running_fifo[server.index()].take() {
                                finish_epoch[slot(r)] += 1;
                                ready_time[slot(r)] = time;
                                let state = &mut servers[server.index()];
                                state.queue.push_front(r);
                                state.busy = false;
                            }
                        } else {
                            for r in std::mem::take(&mut running[server.index()]) {
                                finish_epoch[slot(r)] += 1;
                                stalled[server.index()].push(r);
                            }
                        }
                    }
                    EnvEvent::ServerRecover { server } if server.index() < n_servers => {
                        up[server.index()] = true;
                        if config.server_fifo {
                            let state = &mut servers[server.index()];
                            if !state.busy {
                                if let Some(next) = state.queue.pop_front() {
                                    let waited = time - ready_time[slot(next)];
                                    if waited > 0.0 {
                                        if obs {
                                            queue_wait_hist.record(waited);
                                        }
                                        if let Some(t) = trace.as_deref_mut() {
                                            t.record(
                                                time,
                                                TraceKind::QueueWait {
                                                    op: next.op,
                                                    server,
                                                    waited: Seconds(waited),
                                                },
                                            );
                                        }
                                    }
                                    state.busy = true;
                                    running_fifo[server.index()] = Some(next);
                                    let dur = tproc(next.op) * (slow[server.index()] * surge);
                                    begin_service(
                                        &mut events,
                                        &mut trace,
                                        &mut service_dur,
                                        &finish_epoch,
                                        next,
                                        slot(next),
                                        server,
                                        time,
                                        dur,
                                    );
                                }
                            }
                        } else {
                            for job in std::mem::take(&mut stalled[server.index()]) {
                                running[server.index()].push(job);
                                let dur = tproc(job.op) * (slow[server.index()] * surge);
                                begin_service(
                                    &mut events,
                                    &mut trace,
                                    &mut service_dur,
                                    &finish_epoch,
                                    job,
                                    slot(job),
                                    server,
                                    time,
                                    dur,
                                );
                            }
                        }
                    }
                    EnvEvent::ServerSlowdown { server, factor } if server.index() < n_servers => {
                        slow[server.index()] = factor;
                    }
                    EnvEvent::LinkDegrade { link, factor } if link.index() < link_f.len() => {
                        link_f[link.index()] = factor;
                    }
                    EnvEvent::LinkRestore { link } if link.index() < link_f.len() => {
                        link_f[link.index()] = 1.0;
                    }
                    EnvEvent::LoadSurge { factor } => surge = factor,
                    // Events addressing out-of-range servers/links are
                    // recorded but have no effect.
                    _ => {}
                }
            }
        }
    }

    // Statically every sink completes; dynamically a crash with no
    // recovery legitimately stalls it forever, reported as +∞.
    let completions: Vec<f64> = (0..arrivals.len() as u32)
        .map(|inst| {
            let i = slot(Job { inst, op: sink });
            if finished[i] {
                finish_time[i]
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let completion = completions.iter().copied().fold(0.0, f64::max);
    assert!(
        completion.is_finite() || !timeline.is_empty(),
        "sink never completed — ill-formed workflow slipped through validation"
    );
    if obs {
        wsflow_obs::counter_add("sim.runs", 1);
        wsflow_obs::counter_add("sim.events", events_processed);
        wsflow_obs::counter_add("sim.messages_sent", messages_sent as u64);
        if faults_applied > 0 {
            wsflow_obs::counter_add("sim.faults_applied", faults_applied);
        }
        wsflow_obs::merge_histogram("sim.queue_depth", &queue_depth_hist);
        wsflow_obs::merge_histogram("sim.queue_wait_secs", &queue_wait_hist);
        wsflow_obs::merge_histogram("sim.link_busy_secs", &link_busy_hist);
        if completion > 0.0 && completion.is_finite() {
            let mut util = wsflow_obs::LocalHistogram::new();
            for &busy in &server_busy {
                util.record(busy / completion);
            }
            wsflow_obs::merge_histogram("sim.server_utilization", &util);
        }
    }
    let outcome = SimOutcome {
        completion: Seconds(completion),
        server_busy: server_busy.into_iter().map(Seconds).collect(),
        messages_sent,
        bytes_sent: Mbits(bytes_sent),
        xor_choices,
        ops_executed,
    };
    (outcome, completions)
}

fn sample_branch(w: &wsflow_model::Workflow, op: OpId, rng: &mut impl Rng) -> MsgId {
    let out = w.out_msgs(op);
    let total: f64 = out
        .iter()
        .map(|&m| w.message(m).branch_probability.value())
        .sum();
    let mut x = rng.gen::<f64>() * total;
    for &m in out {
        x -= w.message(m).branch_probability.value();
        if x <= 0.0 {
            return m;
        }
    }
    *out.last().expect("XOR openers have outgoing edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wsflow_cost::reference::texecute;
    use wsflow_model::{BlockSpec, MCycles, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::ServerId;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn bus_problem(w: wsflow_model::Workflow, servers: usize, mbps: f64) -> Problem {
        let net = bus("n", homogeneous_servers(servers, 1.0), MbitsPerSec(mbps)).unwrap();
        Problem::new(w, net).unwrap()
    }

    #[test]
    fn deterministic_line_matches_analytic_exactly() {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[MCycles(10.0), MCycles(20.0), MCycles(30.0)],
            Mbits(0.5),
        );
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let out = simulate(&p, &m, SimConfig::ideal(), &mut rng(0));
        let analytic = texecute(&p, &m);
        assert!(
            (out.completion.value() - analytic.value()).abs() < 1e-12,
            "sim {} vs analytic {}",
            out.completion,
            analytic
        );
        assert_eq!(out.ops_executed, 3);
        assert_eq!(out.messages_sent, 2);
        assert!((out.bytes_sent.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn and_block_matches_analytic() {
        let spec = BlockSpec::and(
            "a",
            vec![
                BlockSpec::op("fast", MCycles(10.0)),
                BlockSpec::op("slow", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.1)).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let out = simulate(&p, &m, SimConfig::ideal(), &mut rng(0));
        assert!((out.completion.value() - texecute(&p, &m).value()).abs() < 1e-12);
        assert_eq!(out.ops_executed, 4);
    }

    #[test]
    fn or_block_races_to_fastest() {
        let spec = BlockSpec::or(
            "o",
            vec![
                BlockSpec::op("fast", MCycles(10.0)),
                BlockSpec::op("slow", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let out = simulate(&p, &m, SimConfig::ideal(), &mut rng(0));
        assert!((out.completion.value() - 0.010).abs() < 1e-12);
        // Both branches still executed (they were all started).
        assert_eq!(out.ops_executed, 4);
    }

    #[test]
    fn xor_executes_exactly_one_branch() {
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(10.0)),
                BlockSpec::op("r", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        for seed in 0..10 {
            let out = simulate(&p, &m, SimConfig::ideal(), &mut rng(seed));
            // open, close, and exactly one of {l, r}.
            assert_eq!(out.ops_executed, 3, "seed {seed}");
            assert_eq!(out.xor_choices.len(), 1);
            let t = out.completion.value();
            assert!(
                (t - 0.010).abs() < 1e-12 || (t - 0.050).abs() < 1e-12,
                "completion {t} is neither branch"
            );
        }
    }

    #[test]
    fn xor_branch_frequencies_respect_probabilities() {
        use wsflow_model::Probability;
        let spec = BlockSpec::Decision {
            kind: DecisionKind::Xor,
            name: "x".into(),
            branches: vec![
                (Probability::new(0.9), BlockSpec::op("l", MCycles(10.0))),
                (Probability::new(0.1), BlockSpec::op("r", MCycles(50.0))),
            ],
        };
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let mut r = rng(42);
        let mut left = 0;
        let trials = 2000;
        for _ in 0..trials {
            let out = simulate(&p, &m, SimConfig::ideal(), &mut r);
            let (_, chosen) = out.xor_choices[0];
            if p.workflow().message(chosen).to == p.workflow().op_by_name("l").unwrap() {
                left += 1;
            }
        }
        let freq = left as f64 / trials as f64;
        assert!((freq - 0.9).abs() < 0.03, "observed left frequency {freq}");
    }

    #[test]
    fn server_fifo_serialises_parallel_branches() {
        // Two parallel 10-Mcycle ops on the same 1 GHz server: ideal
        // model finishes at 10 ms (both run concurrently), FIFO at 20 ms.
        let spec = BlockSpec::and(
            "a",
            vec![
                BlockSpec::op("p", MCycles(10.0)),
                BlockSpec::op("q", MCycles(10.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits::ZERO).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let m = Mapping::all_on(4, ServerId::new(0));
        let ideal = simulate(&p, &m, SimConfig::ideal(), &mut rng(0));
        let fifo = simulate(
            &p,
            &m,
            SimConfig {
                server_fifo: true,
                bus_serial: false,
            },
            &mut rng(0),
        );
        assert!((ideal.completion.value() - 0.010).abs() < 1e-12);
        assert!((fifo.completion.value() - 0.020).abs() < 1e-12);
    }

    #[test]
    fn bus_serialisation_delays_concurrent_messages() {
        // AND fork on s0 whose two branches run on s1 and s2: the two
        // fork messages leave at the same instant; a serialised bus sends
        // them one after the other.
        let spec = BlockSpec::and(
            "a",
            vec![
                BlockSpec::op("p", MCycles(10.0)),
                BlockSpec::op("q", MCycles(10.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(1.0)).unwrap();
        let p = bus_problem(w, 3, 1.0); // 1 Mbps: 1 s per message
        let open = p.workflow().op_by_name("a").unwrap();
        let close = p.workflow().op_by_name("/a").unwrap();
        let op_p = p.workflow().op_by_name("p").unwrap();
        let op_q = p.workflow().op_by_name("q").unwrap();
        let mut m = Mapping::all_on(4, ServerId::new(0));
        let _ = (open, close);
        m.assign(op_p, ServerId::new(1));
        m.assign(op_q, ServerId::new(2));
        let ideal = simulate(&p, &m, SimConfig::ideal(), &mut rng(0));
        let serial = simulate(
            &p,
            &m,
            SimConfig {
                server_fifo: false,
                bus_serial: true,
            },
            &mut rng(0),
        );
        assert!(
            serial.completion > ideal.completion,
            "serial {} should exceed ideal {}",
            serial.completion,
            ideal.completion
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_orders_events() {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[MCycles(10.0), MCycles(20.0), MCycles(30.0)],
            Mbits(0.5),
        );
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let plain = simulate(&p, &m, SimConfig::ideal(), &mut rng(1));
        let (traced, trace) = simulate_traced(&p, &m, SimConfig::ideal(), &mut rng(1));
        assert_eq!(plain, traced);
        // 3 starts + 3 finishes + 2 sends + 2 arrivals.
        assert_eq!(trace.len(), 10);
        // Events are time-ordered.
        let times: Vec<f64> = trace.events().iter().map(|e| e.time.value()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Render resolves names.
        let rendered = trace.render(p.workflow(), p.network());
        assert!(rendered.contains("start  o0"));
        assert!(rendered.contains("finish o2"));
        assert!(rendered.contains("send"));
    }

    /// Both contention effects on one workload: an AND fork on s0 whose
    /// two heavy branches land on s1. The fork's two messages contend on
    /// the bus (LinkBusy) and the second branch op queues behind the
    /// first on s1 (QueueWait).
    fn contended_problem_and_mapping() -> (Problem, Mapping) {
        let spec = BlockSpec::and(
            "a",
            vec![
                BlockSpec::op("p", MCycles(10_000.0)),
                BlockSpec::op("q", MCycles(10_000.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(1.0)).unwrap();
        let p = bus_problem(w, 2, 100.0);
        let mut m = Mapping::all_on(4, ServerId::new(0));
        m.assign(p.workflow().op_by_name("p").unwrap(), ServerId::new(1));
        m.assign(p.workflow().op_by_name("q").unwrap(), ServerId::new(1));
        (p, m)
    }

    #[test]
    fn contended_trace_records_waits_and_is_seed_deterministic() {
        let (p, m) = contended_problem_and_mapping();
        let (out_a, tr_a) = simulate_traced(&p, &m, SimConfig::contended(), &mut rng(3));
        let (out_b, tr_b) = simulate_traced(&p, &m, SimConfig::contended(), &mut rng(3));
        // Same seed ⇒ identical outcome AND identical trace, wait events
        // included.
        assert_eq!(out_a, out_b);
        assert_eq!(tr_a, tr_b);

        let queue_waits = tr_a.filter(|k| matches!(k, TraceKind::QueueWait { .. }));
        assert_eq!(queue_waits.len(), 1, "q should queue behind p once");
        let link_busy = tr_a.filter(|k| matches!(k, TraceKind::LinkBusy { .. }));
        assert!(
            !link_busy.is_empty(),
            "the fork's second message should wait for the bus"
        );
        if let TraceKind::QueueWait { waited, .. } = queue_waits[0].kind {
            assert!(waited.value() > 0.0);
        }

        // The ideal configuration records neither wait kind.
        let (_, ideal) = simulate_traced(&p, &m, SimConfig::ideal(), &mut rng(3));
        assert!(ideal
            .filter(|k| matches!(k, TraceKind::QueueWait { .. } | TraceKind::LinkBusy { .. }))
            .is_empty());

        // Render resolves the new kinds.
        let rendered = tr_a.render(p.workflow(), p.network());
        assert!(rendered.contains("queued"), "{rendered}");
        assert!(rendered.contains("busy"), "{rendered}");
    }

    use wsflow_model::units::Seconds as Secs;
    use wsflow_net::dynamics::TimedEvent;

    fn single_op_problem() -> (Problem, Mapping) {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0)], Mbits::ZERO);
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::all_on(1, ServerId::new(0));
        (p, m)
    }

    /// Crash at 5 ms mid-service, recover at 20 ms: the 10 ms op loses
    /// its partial work and reruns from scratch, finishing at 30 ms.
    #[test]
    fn crash_stalls_and_recovery_restarts_from_scratch() {
        let (p, m) = single_op_problem();
        let timeline = Timeline::new(vec![
            TimedEvent {
                at: Secs(0.005),
                event: EnvEvent::ServerCrash {
                    server: ServerId::new(0),
                },
            },
            TimedEvent {
                at: Secs(0.020),
                event: EnvEvent::ServerRecover {
                    server: ServerId::new(0),
                },
            },
        ])
        .unwrap();
        for config in [SimConfig::ideal(), SimConfig::contended()] {
            let out = simulate_dynamic(&p, &m, config, &timeline, &mut rng(0));
            assert!(
                (out.completion.value() - 0.030).abs() < 1e-12,
                "{config:?}: completion {}",
                out.completion
            );
            assert_eq!(out.ops_executed, 1);
            // Only the completed attempt is charged to the server.
            assert!((out.server_busy[0].value() - 0.010).abs() < 1e-12);
        }
    }

    /// A crash that never recovers stalls the sink forever.
    #[test]
    fn unrecovered_crash_reports_infinite_completion() {
        let (p, m) = single_op_problem();
        let timeline = Timeline::new(vec![TimedEvent {
            at: Secs(0.005),
            event: EnvEvent::ServerCrash {
                server: ServerId::new(0),
            },
        }])
        .unwrap();
        let out = simulate_dynamic(&p, &m, SimConfig::contended(), &timeline, &mut rng(0));
        assert!(out.completion.value().is_infinite());
        assert_eq!(out.ops_executed, 0);
    }

    /// Slowdowns and surges stretch the processing of ops started after
    /// the event; restores (factor 1.0) return to nominal.
    #[test]
    fn slowdown_and_surge_stretch_processing() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(10.0)], Mbits::ZERO);
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::all_on(2, ServerId::new(0));
        // Slowdown x2 from the start, restored at 15 ms: first op takes
        // 20 ms, second (starting at 20 ms > 15 ms) runs nominal 10 ms.
        let timeline = Timeline::new(vec![
            TimedEvent {
                at: Secs(0.0),
                event: EnvEvent::ServerSlowdown {
                    server: ServerId::new(0),
                    factor: 2.0,
                },
            },
            TimedEvent {
                at: Secs(0.015),
                event: EnvEvent::ServerSlowdown {
                    server: ServerId::new(0),
                    factor: 1.0,
                },
            },
        ])
        .unwrap();
        let out = simulate_dynamic(&p, &m, SimConfig::ideal(), &timeline, &mut rng(0));
        assert!(
            (out.completion.value() - 0.030).abs() < 1e-12,
            "completion {}",
            out.completion
        );
        // A global surge behaves the same for a single-server mapping.
        let surge = Timeline::new(vec![TimedEvent {
            at: Secs(0.0),
            event: EnvEvent::LoadSurge { factor: 3.0 },
        }])
        .unwrap();
        let out = simulate_dynamic(&p, &m, SimConfig::ideal(), &surge, &mut rng(0));
        assert!((out.completion.value() - 0.060).abs() < 1e-12);
    }

    /// Degrading the link stretches messages sent after the event, in
    /// both the routed and the serialised-bus model.
    #[test]
    fn degraded_link_stretches_transfers() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(10.0)], Mbits(0.5));
        let p = bus_problem(b.build().unwrap(), 2, 10.0);
        let m = Mapping::from_fn(2, |o| ServerId::new(o.0 % 2));
        let link = p
            .network()
            .find_link(ServerId::new(0), ServerId::new(1))
            .unwrap();
        let nominal = simulate(&p, &m, SimConfig::ideal(), &mut rng(0));
        // 10 ms proc + 50 ms transfer + 10 ms proc.
        assert!((nominal.completion.value() - 0.070).abs() < 1e-12);
        let timeline = Timeline::new(vec![TimedEvent {
            at: Secs(0.0),
            event: EnvEvent::LinkDegrade { link, factor: 2.0 },
        }])
        .unwrap();
        for config in [SimConfig::ideal(), SimConfig::contended()] {
            let out = simulate_dynamic(&p, &m, config, &timeline, &mut rng(0));
            assert!(
                (out.completion.value() - 0.120).abs() < 1e-12,
                "{config:?}: completion {}",
                out.completion
            );
        }
        // Restoring before the send returns to the nominal transfer.
        let restored = Timeline::new(vec![
            TimedEvent {
                at: Secs(0.0),
                event: EnvEvent::LinkDegrade { link, factor: 2.0 },
            },
            TimedEvent {
                at: Secs(0.005),
                event: EnvEvent::LinkRestore { link },
            },
        ])
        .unwrap();
        let out = simulate_dynamic(&p, &m, SimConfig::ideal(), &restored, &mut rng(0));
        assert_eq!(out.completion, nominal.completion);
    }

    /// Satellite: same seed + same timeline ⇒ identical outcome and
    /// byte-identical trace, fault events included (the dynamic mirror
    /// of `contended_trace_records_waits_and_is_seed_deterministic`).
    #[test]
    fn fault_trace_is_seed_and_timeline_deterministic() {
        let (p, m) = contended_problem_and_mapping();
        let link = p
            .network()
            .find_link(ServerId::new(0), ServerId::new(1))
            .unwrap();
        let timeline = Timeline::new(vec![
            TimedEvent {
                at: Secs(0.001),
                event: EnvEvent::LinkDegrade { link, factor: 4.0 },
            },
            TimedEvent {
                at: Secs(0.010),
                event: EnvEvent::ServerCrash {
                    server: ServerId::new(1),
                },
            },
            TimedEvent {
                at: Secs(0.050),
                event: EnvEvent::ServerRecover {
                    server: ServerId::new(1),
                },
            },
            TimedEvent {
                at: Secs(0.060),
                event: EnvEvent::LinkRestore { link },
            },
        ])
        .unwrap();
        let (out_a, tr_a) =
            simulate_dynamic_traced(&p, &m, SimConfig::contended(), &timeline, &mut rng(3));
        let (out_b, tr_b) =
            simulate_dynamic_traced(&p, &m, SimConfig::contended(), &timeline, &mut rng(3));
        assert_eq!(out_a, out_b);
        assert_eq!(tr_a, tr_b);
        let faults = tr_a.filter(|k| matches!(k, TraceKind::Fault { .. }));
        assert_eq!(faults.len(), 4, "every timeline event is traced");
        assert!(
            out_a.completion > simulate(&p, &m, SimConfig::contended(), &mut rng(3)).completion
        );
        let rendered = tr_a.render(p.workflow(), p.network());
        assert!(rendered.contains("fault  degrade"), "{rendered}");
        assert!(rendered.contains("fault  crash"), "{rendered}");
    }

    /// The empty timeline is the static simulator, bit for bit: same
    /// outcome floats, same trace, across configs and stochastic
    /// workflows.
    #[test]
    fn empty_timeline_is_bit_identical_to_static() {
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(10.0)),
                BlockSpec::op("r", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.3)).unwrap();
        let p = bus_problem(w, 2, 10.0);
        let m = Mapping::from_fn(4, |o| ServerId::new(o.0 % 2));
        for seed in 0..5 {
            for config in [SimConfig::ideal(), SimConfig::contended()] {
                let (st, st_tr) = simulate_traced(&p, &m, config, &mut rng(seed));
                let (dy, dy_tr) =
                    simulate_dynamic_traced(&p, &m, config, &Timeline::EMPTY, &mut rng(seed));
                assert_eq!(st, dy, "seed {seed} {config:?}");
                assert_eq!(st_tr, dy_tr, "seed {seed} {config:?}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(10.0)),
                BlockSpec::op("r", MCycles(50.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.3)).unwrap();
        let p = bus_problem(w, 2, 10.0);
        let m = Mapping::from_fn(4, |o| ServerId::new(o.0 % 2));
        let a = simulate(&p, &m, SimConfig::contended(), &mut rng(9));
        let b = simulate(&p, &m, SimConfig::contended(), &mut rng(9));
        assert_eq!(a, b);
    }

    /// The inter-region surcharge delays a message's arrival but never
    /// holds the bus: two back-to-back sends across a 0.5 s region gap
    /// finish exactly 0.5 s per crossing later than without the gap.
    #[test]
    fn region_latency_delays_arrival_not_the_bus() {
        use wsflow_net::{RegionId, Server, ZoneId};
        let (plain, m) = contended_problem_and_mapping();
        let servers = vec![
            Server::with_ghz("s0", 1.0).in_region(RegionId::new(0), ZoneId::new(0)),
            Server::with_ghz("s1", 1.0).in_region(RegionId::new(1), ZoneId::new(0)),
        ];
        let net = bus("n", servers, MbitsPerSec(100.0))
            .unwrap()
            .with_region_latency(vec![
                vec![Seconds::ZERO, Seconds(0.5)],
                vec![Seconds(0.5), Seconds::ZERO],
            ])
            .unwrap();
        let geo = Problem::new(plain.workflow().clone(), net).unwrap();
        let config = SimConfig {
            server_fifo: false,
            bus_serial: true,
        };
        for config in [SimConfig::ideal(), config, SimConfig::contended()] {
            let base = simulate(&plain, &m, config, &mut rng(0)).completion;
            let far = simulate(&geo, &m, config, &mut rng(0)).completion;
            // Out to `p`/`q` and back to the closer: two crossings.
            assert!(
                (far.value() - base.value() - 1.0).abs() < 1e-9,
                "{config:?}: {far} vs {base}"
            );
        }
    }
}
