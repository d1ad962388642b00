//! In-process replay of the request stream: the output check, the
//! deterministic quality and count figures, and the traced per-layer
//! timings.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wsflow_core::{Blackboard, DeploymentAlgorithm, FairLoad, SolveCtx, SolveOutcome};
use wsflow_cost::{CommMatrix, DeltaEvaluator, Evaluator, Mapping, Problem};
use wsflow_model::MbitsPerSec;
use wsflow_net::{RoutingTable, ServerId};
use wsflow_obs::SpanEvent;
use wsflow_svc::proto::{self, ProblemSpec, Reply, Request, HEADER_LEN};
use wsflow_svc::{build_problem, resolve_algorithm, FairQueue, SvcConfig};
use wsflow_workload::{Configuration, ExperimentClass, GraphClass};

use crate::load::{Done, Sample};
use crate::stats::{median, percentile};
use crate::workload::{algo_seed, Stream, TENANTS};

/// What one in-process solve produced, with the counts the daemon does
/// not report.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Final combined cost.
    pub cost: f64,
    /// Logical steps charged.
    pub steps: u64,
    /// Server index per op.
    pub mapping: Vec<u32>,
    /// Strict incumbent improvements.
    pub incumbents: u64,
    /// The blackboard's tallies, when the request named it.
    pub bb: Option<BbStats>,
}

/// Tallies of one blackboard solve.
#[derive(Debug, Clone, Copy)]
pub struct BbStats {
    /// Improvement generations (the seeding race is generation 0).
    pub generations: u64,
    /// Candidate mappings the sources proposed.
    pub proposals: u64,
    /// Proposals that improved the incumbent.
    pub accepts: u64,
}

/// Step budget of the blackboard probe on mixes whose requests name
/// another solver (`anytime_mid`'s request budget).
const BB_PROBE_BUDGET: u64 = 20_000;

/// Decode a request frame exactly as the daemon does.
pub fn decode(frame: &[u8]) -> Result<Request, String> {
    proto::decode_payload(&frame[HEADER_LEN..]).map_err(|e| e.to_string())
}

/// `resolve_algorithm("blackboard", seed)` is this same solver; calling
/// it directly exposes its statistics.
fn blackboard(
    problem: &Problem,
    seed: u64,
    budget: Option<u64>,
) -> Result<(SolveOutcome, u64, BbStats), String> {
    let mut ctx = SolveCtx::with_budget_opt(budget);
    let (out, stats) = Blackboard::new(seed)
        .solve_stats(problem, &mut ctx)
        .map_err(|e| e.to_string())?;
    let bb = BbStats {
        generations: stats.generations,
        proposals: stats.sources.iter().map(|s| s.proposals).sum(),
        accepts: stats.sources.iter().map(|s| s.accepts).sum(),
    };
    Ok((out, ctx.improvements(), bb))
}

/// Run the daemon's solve for `req` on `problem` in-process.
pub fn solve(req: &Request, problem: &Problem) -> Result<Solved, String> {
    let seed = algo_seed(&req.spec);
    let (out, incumbents, bb) = if req.algo == "blackboard" {
        let (out, incumbents, bb) = blackboard(problem, seed, req.budget)?;
        (out, incumbents, Some(bb))
    } else {
        let algo = resolve_algorithm(&req.algo, seed)
            .ok_or_else(|| format!("unknown algorithm {:?}", req.algo))?;
        let mut ctx = SolveCtx::with_budget_opt(req.budget);
        let out = algo.solve(problem, &mut ctx).map_err(|e| e.to_string())?;
        (out, ctx.improvements(), None)
    };
    Ok(Solved {
        cost: out.cost,
        steps: out.steps,
        mapping: out
            .mapping
            .as_slice()
            .iter()
            .map(|s| s.index() as u32)
            .collect(),
        incumbents,
        bb,
    })
}

/// The blackboard's tallies on this request's instance: from the
/// request's own solve when it named the blackboard, otherwise from a
/// blackboard solve with the request's seed and [`BB_PROBE_BUDGET`],
/// off the request path.
fn blackboard_stats(req: &Request, problem: &Problem, solved: &Solved) -> Result<BbStats, String> {
    match solved.bb {
        Some(bb) => Ok(bb),
        None => blackboard(problem, algo_seed(&req.spec), Some(BB_PROBE_BUDGET)).map(|r| r.2),
    }
}

/// The reply frame the daemon would send for `solved`.
fn done_frame(solved: &Solved) -> Vec<u8> {
    proto::encode_frame(&Reply::Done {
        cost: solved.cost,
        steps: solved.steps,
        termination: String::new(),
        mapping: solved.mapping.clone(),
        queue_wait_us: 0,
    })
    .expect("replies encode")
}

/// Figures over the fixed prefix of the stream (the first
/// [`PREFIX_PER_TENANT`] requests of each tenant); they are the same on
/// every run with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixFigures {
    /// Geomean of daemon cost / FairLoad cost.
    pub cost_ratio_geomean: f64,
    /// Sum of solve steps.
    pub solve_steps: u64,
    /// Sum of incumbent improvements.
    pub incumbents: u64,
    /// Sum of blackboard improvement generations.
    pub generations: u64,
    /// Accepted / proposed candidate mappings.
    pub accept_share: f64,
}

impl PrefixFigures {
    /// One `name value` line per figure, floats as exact bit patterns.
    pub fn render(&self) -> String {
        format!(
            "cost_ratio_geomean {:016x}\ncore.solve_steps {}\ncore.incumbents {}\n\
             core.bb.generations {}\ncore.bb.accept_share {:016x}\n",
            self.cost_ratio_geomean.to_bits(),
            self.solve_steps,
            self.incumbents,
            self.generations,
            self.accept_share.to_bits()
        )
    }
}

/// Requests per tenant in the fixed prefix.
pub const PREFIX_PER_TENANT: u64 = 64;

/// True for a sample in the fixed prefix.
pub fn in_prefix(s: &Sample) -> bool {
    s.index < PREFIX_PER_TENANT
}

/// The output check: every `Done` must name one in-range server per op
/// and match, bit for bit, the in-process solve of the same request.
/// Runs on `threads` threads. Returns the prefix figures.
pub fn verify(
    stream: &Stream,
    samples: &[Sample],
    threads: usize,
) -> Result<PrefixFigures, String> {
    let done: Vec<(&Sample, &Done)> = samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok().map(|d| (s, d)))
        .collect();
    let results: Vec<Result<Option<PrefixEntry>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let done = &done;
                scope.spawn(move || {
                    done.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&(s, d)| check_one(stream, s, d))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    // Keyed by (tenant, index) so the float sums below run in one order
    // whatever the interleaving of this run's requests.
    let mut by_request = BTreeMap::new();
    for r in results {
        if let Some((key, ratio, solved, bb)) = r? {
            by_request.insert(key, (ratio, solved, bb));
        }
    }
    let expected = PREFIX_PER_TENANT as usize * TENANTS.len();
    if by_request.len() != expected {
        return Err(format!(
            "only {} of the {expected} prefix requests completed; the run is too short",
            by_request.len()
        ));
    }
    let prefix = || by_request.values();
    let ratios: Vec<f64> = prefix().map(|(r, _, _)| *r).collect();
    let proposals: u64 = prefix().map(|(_, _, bb)| bb.proposals).sum();
    let accepts: u64 = prefix().map(|(_, _, bb)| bb.accepts).sum();
    Ok(PrefixFigures {
        cost_ratio_geomean: crate::stats::geomean(&ratios),
        solve_steps: prefix().map(|(_, s, _)| s.steps).sum(),
        incumbents: prefix().map(|(_, s, _)| s.incumbents).sum(),
        generations: prefix().map(|(_, _, bb)| bb.generations).sum(),
        accept_share: accepts as f64 / proposals as f64,
    })
}

/// A prefix request's `(tenant, index)`, cost ratio to FairLoad, solve,
/// and blackboard tallies.
type PrefixEntry = ((usize, u64), f64, Solved, BbStats);

/// Check one `Done`; for a prefix request also return its cost ratio
/// to FairLoad and the solve's counts.
fn check_one(stream: &Stream, s: &Sample, d: &Done) -> Result<Option<PrefixEntry>, String> {
    let who = format!("request {}#{}", TENANTS[s.tenant], s.index);
    let req = decode(&stream.frame(s.tenant, s.index))?;
    let problem = build_problem(&req.spec).map_err(|e| format!("{who}: {e}"))?;
    if d.mapping.len() != problem.num_ops()
        || d.mapping
            .iter()
            .any(|&srv| srv as usize >= problem.num_servers())
    {
        return Err(format!(
            "{who}: mapping {:?} is not one server in 0..{} per op for {} ops",
            d.mapping,
            problem.num_servers(),
            problem.num_ops()
        ));
    }
    let solved = solve(&req, &problem).map_err(|e| format!("{who}: {e}"))?;
    if solved.cost.to_bits() != d.cost.to_bits()
        || solved.mapping != d.mapping
        || solved.steps != d.steps
    {
        return Err(format!(
            "{who}: daemon returned cost {} in {} steps, the in-process replay {} in {} steps",
            d.cost, d.steps, solved.cost, solved.steps
        ));
    }
    let mapping = to_mapping(&d.mapping);
    let evaluated = Evaluator::new(&problem).evaluate(&mapping).combined.value();
    if evaluated.to_bits() != d.cost.to_bits() {
        return Err(format!(
            "{who}: daemon cost {} but the mapping evaluates to {evaluated}",
            d.cost
        ));
    }
    if !in_prefix(s) {
        return Ok(None);
    }
    let fairload = FairLoad
        .solve(&problem, &mut SolveCtx::unlimited())
        .map_err(|e| format!("{who}: FairLoad: {e}"))?;
    let bb = blackboard_stats(&req, &problem, &solved).map_err(|e| format!("{who}: {e}"))?;
    Ok(Some((
        (s.tenant, s.index),
        d.cost / fairload.cost,
        solved,
        bb,
    )))
}

fn to_mapping(mapping: &[u32]) -> Mapping {
    Mapping::new(
        mapping
            .iter()
            .map(|&s| ServerId::from(s as usize))
            .collect(),
    )
}

/// Per-request timings of the traced replay, in nanoseconds.
#[derive(Debug, Default)]
pub struct Layers {
    /// decode + build + solve + encode with spans off.
    pub path_off: Vec<f64>,
    /// The same four layers with spans on.
    pub path_on: Vec<f64>,
    /// Per-layer samples keyed by span name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Every span recorded by the traced pass.
    pub spans: Vec<SpanEvent>,
    /// Push+pop pair cost of the fair queue over the run's tenant
    /// sequence.
    pub fair_queue_ns: f64,
}

impl Layers {
    fn push(&mut self, layer: &'static str, d: Duration) {
        self.samples
            .entry(layer)
            .or_default()
            .push(d.as_nanos() as f64);
    }

    fn scale_last(&mut self, layer: &str, by: f64) {
        if let Some(v) = self.samples.get_mut(layer).and_then(|v| v.last_mut()) {
            *v /= by;
        }
    }

    /// Median of one layer's samples, in nanoseconds.
    pub fn p50_ns(&self, layer: &str) -> f64 {
        percentile(&self.samples[layer], 0.5).expect("the prefix has enough requests")
    }
}

/// Time `f` inside a span named `name` tagged with request `idx`.
fn timed<R>(layers: &mut Layers, name: &'static str, idx: u64, f: impl FnOnce() -> R) -> R {
    let _span = wsflow_obs::span_with(name, idx);
    let start = Instant::now();
    let out = std::hint::black_box(f());
    layers.push(name, start.elapsed());
    out
}

/// The four layers every request crosses inside the daemon: decode,
/// build, solve, encode. Returns their summed time.
fn path(frame: &[u8], layers: &mut Layers, idx: u64) -> Result<Duration, String> {
    let start = Instant::now();
    let req = timed(layers, "svc.request_decode", idx, || decode(frame))?;
    let problem = timed(layers, "svc.build_problem", idx, || {
        build_problem(&req.spec)
    })?;
    let solved = timed(layers, "core.solve", idx, || solve(&req, &problem))?;
    timed(layers, "svc.reply_encode", idx, || done_frame(&solved));
    Ok(start.elapsed())
}

/// The traced replay over the prefix requests: each request runs once
/// with spans off and once with spans on (alternating which goes
/// first), then the build's parts and the cost kernels are timed by
/// calling their public functions on the same inputs.
pub fn trace(stream: &Stream, samples: &[Sample]) -> Result<Layers, String> {
    let mut layers = Layers::default();
    wsflow_obs::reset();
    let prefix: Vec<&Sample> = samples.iter().filter(|s| in_prefix(s)).collect();
    for (r, s) in prefix.iter().enumerate() {
        let idx = r as u64;
        let frame = stream.frame(s.tenant, s.index);
        let untraced = || path(&frame, &mut Layers::default(), idx);
        let off_first = r % 2 == 0;
        let off_time = if off_first { Some(untraced()?) } else { None };

        wsflow_obs::set_enabled(true);
        let traced = {
            let _root = wsflow_obs::span_with("request", idx);
            path(&frame, &mut layers, idx)
                .and_then(|t| layer_parts(&mut layers, stream, s, idx).map(|()| t))
        };
        wsflow_obs::set_enabled(false);
        let on_time = traced?;

        let off_time = match off_time {
            Some(t) => t,
            None => untraced()?,
        };
        layers.path_off.push(off_time.as_nanos() as f64);
        layers.path_on.push(on_time.as_nanos() as f64);
    }
    layers.spans = wsflow_obs::registry::spans();
    wsflow_obs::reset();
    let tenants: Vec<&str> = samples.iter().map(|s| TENANTS[s.tenant]).collect();
    layers.fair_queue_ns = fair_queue_pair_ns(&tenants);
    Ok(layers)
}

/// Time the pieces `build_problem` is made of, the codec halves the
/// daemon does not run, and the cost kernels, on this request's inputs.
fn layer_parts(layers: &mut Layers, stream: &Stream, s: &Sample, idx: u64) -> Result<(), String> {
    let req = stream.request(s.tenant, s.index);
    timed(layers, "svc.request_encode", idx, || {
        proto::encode_frame(&req)
    })
    .map_err(|e| e.to_string())?;
    let class = ExperimentClass::class_c();
    let network = match &req.spec {
        ProblemSpec::Generated {
            ops,
            servers,
            bus_mbps,
            seed,
            ..
        } => {
            let config = Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(*bus_mbps));
            let scenario = timed(layers, "workload.generate", idx, || {
                wsflow_workload::generate(config, *ops as usize, *servers as usize, &class, *seed)
            });
            // Off the request path here: the parser on this workflow.
            let text = wsflow_model::dsl::serialize(&scenario.workflow);
            timed(layers, "model.dsl_parse", idx, || {
                wsflow_model::dsl::parse(&text)
            })
            .map_err(|e| e.to_string())?;
            scenario.network
        }
        ProblemSpec::Inline {
            workflow,
            server_ghz,
            bus_mbps,
        } => {
            timed(layers, "model.dsl_parse", idx, || {
                wsflow_model::dsl::parse(workflow)
            })
            .map_err(|e| e.to_string())?;
            // Off the request path here: the client-side generation of
            // this workflow.
            timed(layers, "workload.generate", idx, || {
                stream.generate_workflow(s.tenant, s.index)
            });
            let servers = server_ghz
                .iter()
                .enumerate()
                .map(|(i, g)| wsflow_net::Server::with_ghz(format!("s{i}"), *g))
                .collect();
            wsflow_net::topology::bus("svc", servers, MbitsPerSec(*bus_mbps))
                .map_err(|e| e.to_string())?
        }
    };
    let routing = timed(layers, "net.routing", idx, || RoutingTable::new(&network));
    timed(layers, "cost.comm_matrix", idx, || {
        CommMatrix::new(&network, &routing)
    });

    let problem = build_problem(&req.spec)?;
    let solved = solve(&req, &problem)?;
    let frame = done_frame(&solved);
    timed(layers, "svc.reply_decode", idx, || {
        proto::decode_payload::<Reply>(&frame[HEADER_LEN..])
    })
    .map_err(|e| e.to_string())?;

    let mapping = to_mapping(&solved.mapping);
    let mut ev = Evaluator::new(&problem);
    const EVALS: u32 = 8;
    timed(layers, "cost.evaluate", idx, || {
        for _ in 0..EVALS {
            std::hint::black_box(ev.evaluate(std::hint::black_box(&mapping)));
        }
    });
    let mut delta = DeltaEvaluator::new(&problem, mapping.clone());
    let n = problem.num_servers();
    timed(layers, "cost.delta_probe", idx, || {
        for (op, srv) in mapping.iter() {
            std::hint::black_box(delta.probe(op, ServerId::from((srv.index() + 1) % n)));
        }
    });
    // Per-call figures for the repeated kernels.
    layers.scale_last("cost.evaluate", f64::from(EVALS));
    layers.scale_last("cost.delta_probe", problem.num_ops() as f64);
    // Time per blackboard generation, the seeding race included: the
    // request's own solve when it named the blackboard, else the probe.
    let (bb_ns, bb) = match solved.bb {
        Some(bb) => (
            *layers.samples["core.solve"]
                .last()
                .expect("solve was timed"),
            bb,
        ),
        None => {
            let seed = algo_seed(&req.spec);
            let start = Instant::now();
            let (_, _, bb) = {
                let _span = wsflow_obs::span_with("core.bb.probe", idx);
                blackboard(&problem, seed, Some(BB_PROBE_BUDGET))?
            };
            (start.elapsed().as_nanos() as f64, bb)
        }
    };
    layers
        .samples
        .entry("core.bb.gen")
        .or_default()
        .push(bb_ns / (bb.generations + 1) as f64);
    Ok(())
}

/// Nanoseconds per `FairQueue` push+pop pair over `tenants`, the run's
/// submission order (median of five timed passes).
fn fair_queue_pair_ns(tenants: &[&str]) -> f64 {
    let cfg = SvcConfig::default();
    let mut per_pass = Vec::new();
    for _ in 0..5 {
        let mut q = FairQueue::new(&cfg);
        let mut pairs = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(20) {
            for (i, t) in tenants.iter().enumerate() {
                q.push(t, i).expect("one queued job fits");
                std::hint::black_box(q.pop());
            }
            pairs += tenants.len() as u64;
        }
        per_pass.push(start.elapsed().as_nanos() as f64 / pairs as f64);
    }
    median(&per_pass)
}
