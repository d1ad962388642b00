//! Implementation of the `wsflow` command-line tool.
//!
//! Kept separate from the thin binary (`src/bin/wsflow.rs`) so every
//! command is directly unit-testable: each takes parsed options and
//! returns the output it would print.

use std::fmt;

use wsflow_core::registry::paper_bus_algorithms;
use wsflow_core::{
    Blackboard, DeploymentAlgorithm, Exhaustive, FairLoad, FairLoadMergeMessages,
    FairLoadTieResolver, FairLoadTieResolver2, HeavyOpsLargeMsgs, Portfolio,
};
use wsflow_cost::load::time_penalty_of_loads;
use wsflow_cost::{deployment_dot, network_traffic, Evaluator, Problem};
use wsflow_model::{dsl, workflow_dot, MbitsPerSec, Workflow, WorkflowStats};
use wsflow_net::topology;
use wsflow_net::Server;
use wsflow_sim::{monte_carlo, SimConfig};
use wsflow_workload::{random_graph_workflow, ExperimentClass, GraphClass};

/// CLI failures, each mapping to a non-zero exit.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// The workflow file could not be read.
    Io(std::io::Error),
    /// The workflow file did not parse.
    Parse(dsl::ParseError),
    /// The workflow parsed but is ill-formed / unusable.
    Invalid(String),
    /// An input artefact (manifest, span export, …) is missing or
    /// malformed. One line naming the offending path; exits 2 like a
    /// usage error, since the command itself was sound.
    Input(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "cannot read workflow file: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
            CliError::Input(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The tool's usage text.
pub const USAGE: &str = "\
wsflow — deploy web service workflows onto servers

USAGE:
  wsflow validate <workflow.wsf>
  wsflow stats    <workflow.wsf>
  wsflow dot      <workflow.wsf>
  wsflow generate --ops N [--shape line|bushy|lengthy|hybrid] [--seed S]
  wsflow deploy   <workflow.wsf> --servers GHZ[,GHZ…] [--bus MBPS] [--algo NAME]
                  [--dot]
  wsflow simulate <workflow.wsf> --servers GHZ[,GHZ…] [--bus MBPS] [--algo NAME]
                  [--trials K] [--contended]
  wsflow explain  <workflow.wsf> --servers GHZ[,GHZ…] [--bus MBPS] [--algo NAME]
  wsflow dynamic  [--quick] [--seeds N] [--ops M] [--out DIR]
  wsflow submit   <workflow.wsf> --servers GHZ[,GHZ…] [--bus MBPS] [--algo NAME]
                  [--budget N] [--deadline-ms N] [--tenant T] [--addr HOST:PORT]
  wsflow loadgen  [--quick] [--seeds N] [--ops M] [--out DIR]
  wsflow report   <manifest.json | results-dir>
  wsflow trace    <spans.ndjson | results-dir> [--wall] [--out FILE]
  wsflow bench    [--quick] [--out FILE] [--compare BASELINE] [--tolerance T]

Workflow files use the line-oriented text format (see `wsflow::model::dsl`).
Algorithms: fairload, fltr, fltr2, flmme, holm (default), portfolio,
blackboard, exhaustive, all. `submit` sends the request to a running `wsflowd`
(default 127.0.0.1:7407, or WSFLOW_SVC_PORT) and additionally accepts
hillclimb and sa.
--servers 1.0,2.0,3.0 declares three servers with those GHz ratings;
--bus sets the shared bus speed in Mbps (default 100).
--obs (global, or WSFLOW_OBS=1) collects metrics during the command and
appends them as NDJSON to the output.";

/// A parsed server pool + bus speed.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Server powers in GHz.
    pub ghz: Vec<f64>,
    /// Bus speed in Mbps.
    pub bus_mbps: f64,
}

/// The `--servers` / `--bus` flags every pool-taking command shares.
///
/// Values only have to parse as numbers here; [`PoolSpec::network`] —
/// that is, `Network::new` — is the one validator of the pool itself.
#[derive(Debug, Default)]
struct PoolFlags {
    ghz: Option<Vec<f64>>,
    bus_mbps: Option<f64>,
}

impl PoolFlags {
    /// If `flag` is a pool flag, parse its `value` and return `true`;
    /// any other flag is left to the caller (`false`).
    fn take(&mut self, flag: &str, value: Option<&String>) -> Result<bool, CliError> {
        let value = || value.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")));
        match flag {
            "--servers" => {
                let v = value()?;
                let parsed: Result<Vec<f64>, _> = v.split(',').map(str::parse).collect();
                self.ghz = Some(parsed.map_err(|_| {
                    CliError::Usage(format!("bad --servers value {v:?}; expected GHZ[,GHZ…]"))
                })?);
            }
            "--bus" => {
                let v = value()?;
                self.bus_mbps = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --bus value {v:?}")))?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The parsed pool: `--servers` is required, `--bus` defaults to
    /// 100 Mbps.
    fn finish(self) -> Result<PoolSpec, CliError> {
        Ok(PoolSpec {
            ghz: self
                .ghz
                .ok_or_else(|| CliError::Usage("--servers is required".into()))?,
            bus_mbps: self.bus_mbps.unwrap_or(100.0),
        })
    }
}

impl PoolSpec {
    fn network(&self) -> Result<wsflow_net::Network, CliError> {
        let servers: Vec<Server> = self
            .ghz
            .iter()
            .enumerate()
            .map(|(i, &g)| Server::with_ghz(format!("s{i}"), g))
            .collect();
        topology::bus("pool", servers, MbitsPerSec(self.bus_mbps))
            .map_err(|e| CliError::Invalid(format!("invalid server pool: {e}")))
    }
}

/// Parse `--servers 1.0,2.0 --bus 100 --algo holm --trials K --contended`
/// style flags from `args`; returns (pool, algo name, trials, contended).
fn parse_flags(args: &[String]) -> Result<(PoolSpec, String, usize, bool, bool), CliError> {
    let mut pool = PoolFlags::default();
    let mut algo = "holm".to_string();
    let mut trials = 1000usize;
    let mut contended = false;
    let mut dot = false;
    let mut i = 0;
    while i < args.len() {
        if pool.take(&args[i], args.get(i + 1))? {
            i += 2;
            continue;
        }
        match args[i].as_str() {
            "--algo" => {
                algo = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--algo needs a value".into()))?
                    .clone();
                i += 2;
            }
            "--trials" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--trials needs a value".into()))?;
                trials = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --trials value {v:?}")))?;
                i += 2;
            }
            "--contended" => {
                contended = true;
                i += 1;
            }
            "--dot" => {
                dot = true;
                i += 1;
            }
            other => {
                return Err(CliError::Usage(format!("unknown flag {other:?}")));
            }
        }
    }
    Ok((pool.finish()?, algo, trials, contended, dot))
}

fn load_workflow(path: &str) -> Result<Workflow, CliError> {
    let text = std::fs::read_to_string(path).map_err(CliError::Io)?;
    dsl::parse(&text).map_err(CliError::Parse)
}

fn algorithm_by_name(name: &str) -> Result<Box<dyn DeploymentAlgorithm>, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "fairload" => Box::new(FairLoad),
        "fltr" => Box::new(FairLoadTieResolver::new(0)),
        "fltr2" => Box::new(FairLoadTieResolver2::new(0)),
        "flmme" => Box::new(FairLoadMergeMessages::new(0)),
        "holm" => Box::new(HeavyOpsLargeMsgs),
        "portfolio" => Box::new(Portfolio::new(0)),
        "blackboard" => Box::new(Blackboard::new(0)),
        "exhaustive" => Box::new(Exhaustive::new()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm {other:?}; try fairload, fltr, fltr2, flmme, holm, portfolio, blackboard, exhaustive, all"
            )))
        }
    })
}

/// `wsflow validate <file>`: parse + well-formedness report.
pub fn cmd_validate(path: &str) -> Result<String, CliError> {
    let w = load_workflow(path)?;
    match wsflow_model::validate(&w) {
        Ok(()) => Ok(format!(
            "{}: OK — well-formed workflow, {}\n",
            path,
            WorkflowStats::of(&w)
        )),
        Err(e) => Err(CliError::Invalid(format!("{path}: ill-formed — {e}"))),
    }
}

/// `wsflow stats <file>`: shape statistics.
pub fn cmd_stats(path: &str) -> Result<String, CliError> {
    let w = load_workflow(path)?;
    let stats = WorkflowStats::of(&w);
    let mut out = format!("workflow {}\n", w.name());
    out.push_str(&format!("  operations      {}\n", stats.num_ops));
    out.push_str(&format!("  operational     {}\n", stats.num_operational));
    out.push_str(&format!("  decision nodes  {}\n", stats.num_decision));
    out.push_str(&format!("  decision ratio  {:.2}\n", stats.decision_ratio));
    out.push_str(&format!("  messages        {}\n", stats.num_messages));
    out.push_str(&format!("  depth           {}\n", stats.depth));
    out.push_str(&format!("  max fan-out     {}\n", stats.max_fan_out));
    out.push_str(&format!("  total work      {}\n", stats.total_cycles));
    out.push_str(&format!("  linear          {}\n", stats.is_line));
    Ok(out)
}

/// `wsflow dot <file>`: Graphviz export.
pub fn cmd_dot(path: &str) -> Result<String, CliError> {
    let w = load_workflow(path)?;
    Ok(workflow_dot(&w))
}

/// `wsflow generate --ops N [--shape …] [--seed S]`: emit a random
/// class-C workflow in the text format.
pub fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let mut ops = 19usize;
    let mut shape = "line".to_string();
    let mut seed = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--ops needs a value".into()))?;
                ops = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --ops value {v:?}")))?;
                i += 2;
            }
            "--shape" => {
                shape = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--shape needs a value".into()))?
                    .clone();
                i += 2;
            }
            "--seed" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--seed needs a value".into()))?;
                seed = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --seed value {v:?}")))?;
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let class = ExperimentClass::class_c();
    let w = match shape.as_str() {
        "line" => wsflow_workload::linear_workflow("generated", ops, &class, seed),
        "bushy" => random_graph_workflow("generated", ops, GraphClass::Bushy, &class, seed),
        "lengthy" => random_graph_workflow("generated", ops, GraphClass::Lengthy, &class, seed),
        "hybrid" => random_graph_workflow("generated", ops, GraphClass::Hybrid, &class, seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown shape {other:?}; try line, bushy, lengthy, hybrid"
            )))
        }
    };
    Ok(dsl::serialize(&w))
}

/// `wsflow deploy <file> --servers … [--bus …] [--algo …]`.
pub fn cmd_deploy(path: &str, flags: &[String]) -> Result<String, CliError> {
    let w = load_workflow(path)?;
    let (pool, algo_name, _, _, dot) = parse_flags(flags)?;
    let problem = Problem::new(w, pool.network()?)
        .map_err(|e| CliError::Invalid(format!("cannot assemble problem: {e}")))?;
    if dot {
        let algo = algorithm_by_name(if algo_name == "all" {
            "holm"
        } else {
            &algo_name
        })?;
        let mapping = algo
            .deploy(&problem)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", algo.name())))?;
        return Ok(deployment_dot(&problem, &mapping));
    }
    let algos: Vec<Box<dyn DeploymentAlgorithm>> = if algo_name == "all" {
        paper_bus_algorithms(0)
    } else {
        vec![algorithm_by_name(&algo_name)?]
    };
    let mut ev = Evaluator::new(&problem);
    let mut out = String::new();
    for algo in &algos {
        let mapping = algo
            .deploy(&problem)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", algo.name())))?;
        let cost = ev.evaluate(&mapping);
        out.push_str(&format!(
            "{:<20} exec {:>10.3} ms  penalty {:>10.3} ms  traffic {:>8.4} Mbit\n",
            algo.name(),
            cost.execution.value() * 1e3,
            cost.penalty.value() * 1e3,
            network_traffic(&problem, &mapping).value()
        ));
        for server in problem.network().server_ids() {
            let names: Vec<&str> = mapping
                .ops_on(server)
                .iter()
                .map(|&o| problem.workflow().op(o).name.as_str())
                .collect();
            out.push_str(&format!(
                "  {:<6} [{}]\n",
                problem.network().server(server).name,
                names.join(", ")
            ));
        }
    }
    Ok(out)
}

/// `wsflow simulate <file> --servers … [--trials K] [--contended]`.
pub fn cmd_simulate(path: &str, flags: &[String]) -> Result<String, CliError> {
    let w = load_workflow(path)?;
    let (pool, algo_name, trials, contended, _) = parse_flags(flags)?;
    let problem = Problem::new(w, pool.network()?)
        .map_err(|e| CliError::Invalid(format!("cannot assemble problem: {e}")))?;
    let algo = algorithm_by_name(if algo_name == "all" {
        "holm"
    } else {
        &algo_name
    })?;
    let mapping = algo
        .deploy(&problem)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", algo.name())))?;
    let config = if contended {
        SimConfig::contended()
    } else {
        SimConfig::ideal()
    };
    let analytic = Evaluator::new(&problem).execution_time(&mapping);
    let mc = monte_carlo(&problem, &mapping, config, trials, 0);
    Ok(format!(
        "{} under {} ({} trials{}):\n  analytic expected {:>10.3} ms\n  simulated mean    {:>10.3} ms ± {:.3} (95% CI)\n  min / max         {:>10.3} / {:.3} ms\n  mean bus messages {:>10.1}\n",
        problem.workflow().name(),
        algo.name(),
        trials,
        if contended { ", contended" } else { "" },
        analytic.value() * 1e3,
        mc.completion.mean.value() * 1e3,
        mc.completion.ci95_half_width.value() * 1e3,
        mc.completion.min.value() * 1e3,
        mc.completion.max.value() * 1e3,
        mc.mean_messages,
    ))
}

/// `wsflow explain <file> --servers …`: deploy and report the critical
/// path plus per-server loads — what to optimise and where the work
/// landed.
pub fn cmd_explain(path: &str, flags: &[String]) -> Result<String, CliError> {
    let w = load_workflow(path)?;
    let (pool, algo_name, _, _, _) = parse_flags(flags)?;
    let problem = Problem::new(w, pool.network()?)
        .map_err(|e| CliError::Invalid(format!("cannot assemble problem: {e}")))?;
    let algo = algorithm_by_name(if algo_name == "all" {
        "holm"
    } else {
        &algo_name
    })?;
    let mapping = algo
        .deploy(&problem)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", algo.name())))?;
    let cp = wsflow_cost::critical_path(&problem, &mapping);
    let mut out = format!("deployment by {}\n\n", algo.name());
    out.push_str(&wsflow_cost::critical_path::render(&problem, &mapping, &cp));
    out.push_str("\nper-server load:\n");
    let loads = Evaluator::new(&problem).compute_loads(&mapping).to_vec();
    let avg: f64 = loads.iter().map(|l| l.value()).sum::<f64>() / loads.len().max(1) as f64;
    for (server, load) in problem.network().server_ids().zip(&loads) {
        out.push_str(&format!(
            "  {:<8} {:>9.3} ms ({:+.3} vs avg)\n",
            problem.network().server(server).name,
            load.value() * 1e3,
            (load.value() - avg) * 1e3
        ));
    }
    out.push_str(&format!(
        "\ntime penalty {:.3} ms, expected bus traffic {:.4} Mbit\n",
        time_penalty_of_loads(&loads).value() * 1e3,
        network_traffic(&problem, &mapping).value().max(0.0)
    ));
    Ok(out)
}

/// `wsflow dynamic [--quick] …`: run the dynamic-environment policy
/// experiment (seeded fault injection × re-solve budget ×
/// re-deployment policies).
///
/// Accepts the experiment-harness flags; summary tables come back as
/// the command output while `dyn_policies.csv` (whose `budget` column
/// is the per-fault logical-step cap and `resolves_exhausted` counts
/// searches it cut short), per-table CSVs and the run manifest are
/// written to the output directory (default `results/`).
pub fn cmd_dynamic(args: &[String]) -> Result<String, CliError> {
    let opts = wsflow_harness::cli::parse(args.iter().cloned()).map_err(CliError::Usage)?;
    let (_, rendered) =
        wsflow_harness::cli::run_one_captured(&opts, wsflow_harness::dyn_policies::run);
    Ok(rendered)
}

/// `wsflow submit <file> --servers … [--algo …] [--addr …]`: send one
/// deployment request to a running `wsflowd` and stream the reply.
///
/// The workflow text itself travels in the request (an inline
/// `wsflow-proto/1` problem spec); incumbents print as they arrive,
/// followed by the final outcome and the op→server assignment.
pub fn cmd_submit(path: &str, flags: &[String]) -> Result<String, CliError> {
    let mut pool = PoolFlags::default();
    let mut algo = "portfolio".to_string();
    let mut budget: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut tenant = "cli".to_string();
    let mut addr: Option<String> = None;
    let mut i = 0;
    while i < flags.len() {
        if pool.take(&flags[i], flags.get(i + 1))? {
            i += 2;
            continue;
        }
        let value = |name: &str| {
            flags
                .get(i + 1)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flags[i].as_str() {
            "--algo" => {
                algo = value("--algo")?;
                i += 2;
            }
            "--budget" => {
                let v = value("--budget")?;
                budget = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --budget value {v:?}")))?,
                );
                i += 2;
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                deadline_ms = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --deadline-ms value {v:?}")))?,
                );
                i += 2;
            }
            "--tenant" => {
                tenant = value("--tenant")?;
                i += 2;
            }
            "--addr" => {
                addr = Some(value("--addr")?);
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let pool = pool.finish()?;
    let addr: std::net::SocketAddr = addr
        .unwrap_or_else(|| format!("127.0.0.1:{}", wsflow_svc::port_from_env()))
        .parse()
        .map_err(|e| CliError::Usage(format!("bad --addr: {e}")))?;
    // Build the pool locally: a bad pool is the same error here as in
    // `deploy`, not a round-trip to the daemon.
    pool.network()?;

    // Parse locally first: a syntax error should be a local diagnostic,
    // not a round-trip to the daemon; the parse also gives us the op
    // names to render the returned mapping with.
    let text = std::fs::read_to_string(path).map_err(CliError::Io)?;
    let workflow = dsl::parse(&text).map_err(CliError::Parse)?;
    let request = wsflow_svc::Request {
        tenant,
        algo,
        budget,
        deadline_ms,
        spec: wsflow_svc::ProblemSpec::Inline {
            workflow: text,
            server_ghz: pool.ghz.clone(),
            bus_mbps: pool.bus_mbps,
        },
    };

    let mut out = String::new();
    let outcome = wsflow_svc::submit(addr, &request, |seq, cost| {
        out.push_str(&format!("incumbent #{seq} {:.3} ms\n", cost * 1e3));
    })
    .map_err(|e| match e {
        wsflow_svc::ClientError::Rejected(_) | wsflow_svc::ClientError::Invalid(_) => {
            CliError::Invalid(e.to_string())
        }
        other => CliError::Input(format!("{addr}: {other}")),
    })?;
    out.push_str(&format!(
        "done in {} steps ({}), queue wait {} µs\ncombined cost {:.3} ms\n",
        outcome.steps,
        outcome.termination,
        outcome.queue_wait_us,
        outcome.cost * 1e3
    ));
    for server in 0..pool.ghz.len() {
        let names: Vec<&str> = workflow
            .op_ids()
            .filter(|o| outcome.mapping.get(o.index()) == Some(&(server as u32)))
            .map(|o| workflow.op(o).name.as_str())
            .collect();
        out.push_str(&format!("  s{server:<5} [{}]\n", names.join(", ")));
    }
    Ok(out)
}

/// `wsflow loadgen [--quick] …`: run the multi-tenant service load
/// generator (deterministic virtual-time mode of the scheduler behind
/// `wsflowd`).
///
/// Summary tables come back as the command output; `loadgen.csv`,
/// per-table CSVs, and the run manifest land in the output directory
/// (default `results/`).
pub fn cmd_loadgen(args: &[String]) -> Result<String, CliError> {
    let opts = wsflow_harness::cli::parse(args.iter().cloned()).map_err(CliError::Usage)?;
    let (_, rendered) = wsflow_harness::cli::run_one_captured(&opts, wsflow_harness::loadgen::run);
    Ok(rendered)
}

/// `wsflow report <manifest.json | results-dir>`: pretty-print run
/// manifests written by the experiment harness.
///
/// Given a directory, renders every `*_manifest.json` in name order, or
/// the plain `manifest.json` if no per-experiment copies exist.
///
/// Runs recorded with observability include the anytime solver core's
/// `solver.*` metrics; those render as a dedicated `solver:` section —
/// a termination breakdown (`converged` / `budget_exhausted` /
/// `cancelled` counters with their share of `solver.runs`) plus
/// steps-to-incumbent quantiles.
pub fn cmd_report(path: &str) -> Result<String, CliError> {
    let p = std::path::Path::new(path);
    let manifests: Vec<std::path::PathBuf> = if p.is_dir() {
        let mut per_experiment: Vec<std::path::PathBuf> = std::fs::read_dir(p)
            .map_err(|e| CliError::Input(format!("{path}: {e}")))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|f| {
                f.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with("_manifest.json"))
            })
            .collect();
        per_experiment.sort();
        if per_experiment.is_empty() {
            let plain = p.join("manifest.json");
            if !plain.is_file() {
                return Err(CliError::Input(format!(
                    "no manifest.json or *_manifest.json in {path}; run an \
                     experiment binary (e.g. `fig6 --obs`) first"
                )));
            }
            vec![plain]
        } else {
            per_experiment
        }
    } else {
        vec![p.to_path_buf()]
    };
    let mut out = String::new();
    for path in &manifests {
        let manifest = wsflow_obs::Manifest::load(path).map_err(CliError::Input)?;
        if let Err(e) = manifest.validate() {
            out.push_str(&format!("warning: {}: {e}\n", path.display()));
        }
        out.push_str(&manifest.render());
    }
    Ok(out)
}

/// `wsflow bench [--quick] [--out FILE] [--compare BASELINE]
/// [--tolerance T]`: run the pinned perf suite and optionally gate
/// against a committed baseline.
///
/// Prints one line per bench and writes the results only to the
/// `--out` file, so no run can overwrite the committed baseline by
/// default. With `--compare`, checks every baseline bench against the
/// fresh run: any bench slower than `baseline × (1 + tolerance)` — or
/// missing — fails the gate with a non-zero exit. Results are
/// wall-clock; nothing here feeds the deterministic experiment CSVs.
pub fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let mut quick = false;
    let mut out_file: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 1.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--out" => {
                out_file = Some(
                    args.get(i + 1)
                        .ok_or_else(|| CliError::Usage("--out needs a value".into()))?
                        .clone(),
                );
                i += 2;
            }
            "--compare" => {
                baseline_path = Some(
                    args.get(i + 1)
                        .ok_or_else(|| CliError::Usage("--compare needs a value".into()))?
                        .clone(),
                );
                i += 2;
            }
            "--tolerance" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--tolerance needs a value".into()))?;
                tolerance = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --tolerance value {v:?}")))?;
                if !tolerance.is_finite() || tolerance < 0.0 {
                    return Err(CliError::Usage(
                        "--tolerance needs a non-negative fraction".into(),
                    ));
                }
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }

    let doc = wsflow_harness::perf::run(quick);
    let mut out = String::new();
    for b in &doc.benches {
        out.push_str(&format!(
            "{:<16} {:>12.0} ns/op  ({}x{}, {} reps)\n",
            b.name, b.ns_per_op, b.ops, b.servers, b.reps
        ));
    }

    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("{path}: cannot read baseline ({e})")))?;
        let baseline = wsflow_harness::perf::BenchDoc::parse(&text)
            .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let failures = wsflow_harness::perf::compare(&doc, &baseline, tolerance);
        if !failures.is_empty() {
            return Err(CliError::Invalid(format!(
                "perf regression against {path} (tolerance {:.0}%):\n  {}",
                tolerance * 100.0,
                failures.join("\n  ")
            )));
        }
        out.push_str(&format!(
            "all {} benches within {:.0}% of {path}\n",
            baseline.benches.len(),
            tolerance * 100.0
        ));
    }
    if let Some(path) = out_file {
        std::fs::write(&path, doc.to_json())
            .map_err(|e| CliError::Invalid(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// `wsflow trace <spans.ndjson | results-dir> [--wall] [--out FILE]`:
/// convert a span export into a Chrome/Perfetto trace (`trace.json`,
/// loadable at `ui.perfetto.dev` or `chrome://tracing`).
///
/// By default the trace is *canonical*: laid out in virtual time from
/// the causal span tree alone, so the output is byte-identical for any
/// `WSFLOW_THREADS` setting and across repeated same-seed runs — two
/// traces differ exactly when the runs searched differently. `--wall`
/// instead keeps real timestamps and per-thread tracks (thread ordinals
/// densely renumbered by first appearance in canonical order), with
/// flow arrows linking cross-thread parent→child edges.
pub fn cmd_trace(path: &str, flags: &[String]) -> Result<String, CliError> {
    let mut wall = false;
    let mut out_file: Option<String> = None;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--wall" => {
                wall = true;
                i += 1;
            }
            "--out" => {
                out_file = Some(
                    flags
                        .get(i + 1)
                        .ok_or_else(|| CliError::Usage("--out needs a value".into()))?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }

    let p = std::path::Path::new(path);
    let spans_path = if p.is_dir() {
        p.join("spans.ndjson")
    } else {
        p.to_path_buf()
    };
    let text = std::fs::read_to_string(&spans_path).map_err(|e| {
        CliError::Input(format!(
            "{}: cannot read span export ({e}); run an experiment with --obs first",
            spans_path.display()
        ))
    })?;
    let spans = wsflow_obs::parse_spans_ndjson(&text)
        .map_err(|e| CliError::Input(format!("{}: {e}", spans_path.display())))?;
    if spans.is_empty() {
        return Err(CliError::Input(format!(
            "{}: no span records found",
            spans_path.display()
        )));
    }
    let export = if wall {
        wsflow_obs::chrome_trace_wall(&spans)
    } else {
        wsflow_obs::chrome_trace(&spans)
    };
    let (json, stats) = export.map_err(|e| {
        CliError::Input(format!(
            "{}: trace export failed: {e}",
            spans_path.display()
        ))
    })?;
    let out_path = match out_file {
        Some(f) => std::path::PathBuf::from(f),
        None => spans_path.with_file_name("trace.json"),
    };
    std::fs::write(&out_path, &json)
        .map_err(|e| CliError::Invalid(format!("cannot write {}: {e}", out_path.display())))?;
    let mut line = format!(
        "wrote {} — {} slices, {} instants",
        out_path.display(),
        stats.slices,
        stats.instants
    );
    if wall {
        line.push_str(&format!(", {} threads (wall time)", stats.threads));
    } else {
        line.push_str(" (canonical virtual time)");
    }
    if stats.orphans > 0 {
        line.push_str(&format!(", {} orphans re-rooted", stats.orphans));
    }
    line.push('\n');
    Ok(line)
}

/// Dispatch a full argument vector (without `argv[0]`).
///
/// A `--obs` flag anywhere in the arguments enables observability for
/// the command (equivalent to `WSFLOW_OBS=1`) and appends the collected
/// metric snapshot to the output as NDJSON.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let obs_requested = args.iter().any(|a| a == "--obs");
    if obs_requested {
        wsflow_obs::set_enabled(true);
        wsflow_obs::reset();
    }
    let args: Vec<String> = args.iter().filter(|a| *a != "--obs").cloned().collect();
    let mut result = dispatch_command(&args);
    if obs_requested {
        if let Ok(out) = &mut result {
            let snap = wsflow_obs::snapshot();
            if !snap.is_empty() {
                out.push_str("# metrics\n");
                out.push_str(&wsflow_obs::snapshot_ndjson(&snap).unwrap_or_default());
            }
        }
    }
    result
}

fn dispatch_command(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("no command given".into()))?;
    match cmd.as_str() {
        "validate" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("validate needs a workflow file".into()))?;
            cmd_validate(path)
        }
        "stats" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("stats needs a workflow file".into()))?;
            cmd_stats(path)
        }
        "dot" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("dot needs a workflow file".into()))?;
            cmd_dot(path)
        }
        "generate" => cmd_generate(rest),
        "deploy" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("deploy needs a workflow file".into()))?;
            cmd_deploy(path, &rest[1..])
        }
        "simulate" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("simulate needs a workflow file".into()))?;
            cmd_simulate(path, &rest[1..])
        }
        "explain" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("explain needs a workflow file".into()))?;
            cmd_explain(path, &rest[1..])
        }
        "dynamic" => cmd_dynamic(rest),
        "submit" => {
            let path = rest
                .first()
                .ok_or_else(|| CliError::Usage("submit needs a workflow file".into()))?;
            cmd_submit(path, &rest[1..])
        }
        "loadgen" => cmd_loadgen(rest),
        "report" => {
            let path = rest.first().ok_or_else(|| {
                CliError::Usage("report needs a manifest.json or results directory".into())
            })?;
            cmd_report(path)
        }
        "trace" => {
            let path = rest.first().ok_or_else(|| {
                CliError::Usage("trace needs a spans.ndjson or results directory".into())
            })?;
            cmd_trace(path, &rest[1..])
        }
        "bench" => cmd_bench(rest),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Write `content` to a fresh temp file. Every call gets its own
    /// name, so tests running in parallel never overwrite or delete each
    /// other's workflow.
    fn temp_workflow(content: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "wsflow-cli-test-{}-{}.wsf",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&path, content).expect("temp dir writable");
        path
    }

    const DEMO: &str = "workflow demo\nnode A op 50\nnode B op 10\nmsg A B 0.05\n";

    #[test]
    fn validate_ok_and_ill_formed() {
        let path = temp_workflow(DEMO);
        let out = cmd_validate(path.to_str().unwrap()).unwrap();
        assert!(out.contains("OK"));
        assert!(out.contains("2 ops"));
        // Two sources → ill-formed.
        let bad = temp_workflow("workflow bad\nnode A op 1\nnode B op 1\n");
        let err = cmd_validate(bad.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("ill-formed"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn stats_reports_shape() {
        let path = temp_workflow(DEMO);
        let out = cmd_stats(path.to_str().unwrap()).unwrap();
        assert!(out.contains("operations      2"));
        assert!(out.contains("linear          true"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dot_emits_digraph() {
        let path = temp_workflow(DEMO);
        let out = cmd_dot(path.to_str().unwrap()).unwrap();
        assert!(out.starts_with("digraph"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_round_trips_through_parse() {
        let out =
            cmd_generate(&strs(&["--ops", "12", "--shape", "hybrid", "--seed", "3"])).unwrap();
        let w = dsl::parse(&out).unwrap();
        assert_eq!(w.num_ops(), 12);
        assert!(wsflow_model::is_well_formed(&w));
    }

    #[test]
    fn generate_rejects_bad_shape() {
        let err = cmd_generate(&strs(&["--shape", "donut"])).unwrap_err();
        assert!(err.to_string().contains("unknown shape"));
    }

    #[test]
    fn deploy_single_and_all() {
        let path = temp_workflow(DEMO);
        let out = cmd_deploy(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--algo", "holm"]),
        )
        .unwrap();
        assert!(out.contains("HeavyOps-LargeMsgs"));
        assert!(out.contains("s0"));
        let out = cmd_deploy(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--algo", "all"]),
        )
        .unwrap();
        assert!(out.contains("FairLoad"));
        assert!(out.contains("FL-TieResolver2"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn deploy_requires_servers() {
        let path = temp_workflow(DEMO);
        let err = cmd_deploy(path.to_str().unwrap(), &[]).unwrap_err();
        assert!(err.to_string().contains("--servers is required"));
        std::fs::remove_file(path).ok();
    }

    /// Non-finite ratings used to slip through and deploy onto an
    /// infinitely fast server; the network constructor now rejects them.
    #[test]
    fn deploy_rejects_non_finite_pool() {
        let path = temp_workflow(DEMO);
        for flags in [
            &["--servers", "inf,1"][..],
            &["--servers", "NaN,1"],
            &["--servers", "0,1"],
            &["--servers", "-1,1"],
            &["--servers", "1,1", "--bus", "inf"],
        ] {
            let err = cmd_deploy(path.to_str().unwrap(), &strs(flags)).unwrap_err();
            assert!(
                matches!(err, CliError::Invalid(_))
                    && err.to_string().contains("invalid server pool"),
                "{flags:?}: {err}"
            );
        }
        // `submit` rejects the same pool before it connects: port 1 on
        // loopback has no daemon, so reaching it would be an I/O error.
        let err = cmd_submit(
            path.to_str().unwrap(),
            &strs(&["--servers", "inf,1", "--addr", "127.0.0.1:1"]),
        )
        .unwrap_err();
        assert!(
            matches!(err, CliError::Invalid(_)) && err.to_string().contains("invalid server pool"),
            "submit: {err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_reports_stats() {
        let path = temp_workflow(DEMO);
        let out = cmd_simulate(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,1.0", "--trials", "50"]),
        )
        .unwrap();
        assert!(out.contains("simulated mean"));
        assert!(out.contains("50 trials"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dispatch_covers_commands_and_errors() {
        assert!(dispatch(&strs(&["help"])).unwrap().contains("USAGE"));
        assert!(matches!(
            dispatch(&strs(&["frobnicate"])).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(dispatch(&[]).unwrap_err(), CliError::Usage(_)));
        assert!(matches!(
            dispatch(&strs(&["validate"])).unwrap_err(),
            CliError::Usage(_)
        ));
        // Missing file surfaces as Io.
        assert!(matches!(
            dispatch(&strs(&["validate", "/nonexistent/x.wsf"])).unwrap_err(),
            CliError::Io(_)
        ));
    }

    #[test]
    fn flag_parsing_errors() {
        assert!(parse_flags(&strs(&["--servers", "abc"])).is_err());
        assert!(parse_flags(&strs(&["--servers", "1.0", "--bus", "x"])).is_err());
        // Flag values only have to parse: 0 GHz is the pool validator's
        // to reject, as an invalid pool rather than a usage error.
        let (pool, ..) = parse_flags(&strs(&["--servers", "0.0"])).unwrap();
        assert!(matches!(pool.network(), Err(CliError::Invalid(_))));
        assert!(parse_flags(&strs(&["--wat"])).is_err());
        let (pool, algo, trials, contended, dot) = parse_flags(&strs(&[
            "--servers",
            "1.0,2.5",
            "--bus",
            "10",
            "--algo",
            "fltr",
            "--trials",
            "7",
            "--contended",
            "--dot",
        ]))
        .unwrap();
        assert_eq!(pool.ghz, vec![1.0, 2.5]);
        assert_eq!(pool.bus_mbps, 10.0);
        assert_eq!(algo, "fltr");
        assert_eq!(trials, 7);
        assert!(contended);
        assert!(dot);
    }

    #[test]
    fn deploy_dot_emits_clusters() {
        let path = temp_workflow(DEMO);
        let out = cmd_deploy(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--dot"]),
        )
        .unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("subgraph cluster_s0"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn explain_shows_critical_path_and_loads() {
        let path = temp_workflow(DEMO);
        let out = cmd_explain(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--bus", "1"]),
        )
        .unwrap();
        assert!(out.contains("critical path"));
        assert!(out.contains("per-server load"));
        assert!(out.contains("time penalty"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_renders_manifest_file_and_directory() {
        let dir = std::env::temp_dir().join(format!("wsflow-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = wsflow_obs::Manifest::collect("fig6", 42, 2, 1.5);
        manifest.write(&dir.join("manifest.json")).unwrap();
        // Plain manifest.json is picked up when no per-experiment copies
        // exist.
        let out = cmd_report(dir.to_str().unwrap()).unwrap();
        assert!(out.contains("fig6"));
        assert!(out.contains("seed 42"));
        // Per-experiment copies take precedence and render in name order.
        manifest.write(&dir.join("fig6_manifest.json")).unwrap();
        let out = cmd_report(dir.join("fig6_manifest.json").to_str().unwrap()).unwrap();
        assert!(out.contains("fig6"));
        let out = cmd_report(dir.to_str().unwrap()).unwrap();
        assert!(out.contains("fig6"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_errors_on_empty_directory_and_bad_file() {
        let dir = std::env::temp_dir().join(format!("wsflow-report-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            cmd_report(dir.to_str().unwrap()).unwrap_err(),
            CliError::Input(_)
        ));
        // Non-JSON, truncated JSON, and valid-but-not-a-manifest JSON
        // all produce a one-line Input diagnostic naming the path.
        for corrupt in [
            "not json",
            "{\"schema\": \"wsflow-manifest/1\"",
            "[1, 2, 3]",
        ] {
            let bad = dir.join("manifest.json");
            std::fs::write(&bad, corrupt).unwrap();
            let err = cmd_report(bad.to_str().unwrap()).unwrap_err();
            let CliError::Input(msg) = err else {
                panic!("expected Input for {corrupt:?}, got {err:?}");
            };
            assert!(
                msg.contains("manifest.json"),
                "diagnostic must name the path: {msg}"
            );
            assert!(!msg.contains('\n'), "one line only: {msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn demo_spans() -> Vec<wsflow_obs::SpanEvent> {
        let span = |name: &str, id: u64, parent: u64, start: u64, dur: u64| wsflow_obs::SpanEvent {
            name: name.into(),
            thread: 0,
            span_id: id,
            parent_id: parent,
            idx: 0,
            start_us: start,
            dur_us: dur,
            instant: false,
        };
        vec![
            span("phase.experiment", 1, 0, 0, 900),
            span("hier.solve", 2, 1, 10, 500),
            span("hier.stitch", 3, 2, 400, 80),
        ]
    }

    #[test]
    fn trace_exports_canonical_and_wall_variants() {
        let dir = std::env::temp_dir().join(format!("wsflow-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nd = wsflow_obs::spans_ndjson(&demo_spans()).unwrap();
        std::fs::write(dir.join("spans.ndjson"), nd).unwrap();

        // Directory form resolves spans.ndjson inside it.
        let out = cmd_trace(dir.to_str().unwrap(), &[]).unwrap();
        assert!(out.contains("3 slices"), "{out}");
        assert!(out.contains("canonical"), "{out}");
        let json = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"phase.experiment\""));

        // Wall mode with an explicit output path.
        let wall_out = dir.join("wall.json");
        let out = cmd_trace(
            dir.join("spans.ndjson").to_str().unwrap(),
            &strs(&["--wall", "--out", wall_out.to_str().unwrap()]),
        )
        .unwrap();
        assert!(out.contains("wall"), "{out}");
        let json = std::fs::read_to_string(&wall_out).unwrap();
        assert!(json.contains("thread_name"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_errors_name_the_path_and_are_input_class() {
        let dir = std::env::temp_dir().join(format!("wsflow-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Missing export.
        let err = cmd_trace(dir.to_str().unwrap(), &[]).unwrap_err();
        let CliError::Input(msg) = err else {
            panic!("missing spans must be Input");
        };
        assert!(msg.contains("spans.ndjson"), "{msg}");
        // Truncated / corrupt export.
        std::fs::write(
            dir.join("spans.ndjson"),
            "{\"kind\":\"span\",\"name\":\"a\",\"thr",
        )
        .unwrap();
        let err = cmd_trace(dir.to_str().unwrap(), &[]).unwrap_err();
        let CliError::Input(msg) = err else {
            panic!("corrupt spans must be Input");
        };
        assert!(
            msg.contains("spans.ndjson") && msg.contains("line 1"),
            "{msg}"
        );
        // Empty export.
        std::fs::write(dir.join("spans.ndjson"), "").unwrap();
        assert!(matches!(
            cmd_trace(dir.to_str().unwrap(), &[]).unwrap_err(),
            CliError::Input(_)
        ));
        // Unknown flag is still a usage error.
        assert!(matches!(
            cmd_trace(dir.to_str().unwrap(), &strs(&["--frob"])).unwrap_err(),
            CliError::Usage(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_writes_gates_and_trips_on_tightened_baseline() {
        let dir = std::env::temp_dir().join(format!("wsflow-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("BENCH_obs.json");
        let out = cmd_bench(&strs(&["--quick", "--out", base.to_str().unwrap()])).unwrap();
        assert!(out.contains("eval_flat_batch"), "{out}");
        assert!(out.contains("wrote"), "{out}");

        // Check the gate's plumbing against baselines no machine can
        // cross: every row of the written baseline ×1e6 must pass and
        // ÷1e6 must trip, at CI's tolerance. (The tolerance arithmetic
        // itself is covered by `perf`'s synthetic `compare_*` tests.)
        let text = std::fs::read_to_string(&base).unwrap();
        let doc = wsflow_harness::perf::BenchDoc::parse(&text).unwrap();
        let scaled = |name: &str, factor: f64| {
            let mut scaled = doc.clone();
            for b in &mut scaled.benches {
                b.ns_per_op *= factor;
            }
            let path = dir.join(name);
            std::fs::write(&path, scaled.to_json()).unwrap();
            path
        };
        let loose = scaled("loose.json", 1e6);
        let out = cmd_bench(&strs(&[
            "--quick",
            "--compare",
            loose.to_str().unwrap(),
            "--tolerance",
            "4.0",
        ]))
        .unwrap();
        assert!(out.contains("within"), "{out}");

        let tight = scaled("tight.json", 1e-6);
        let err = cmd_bench(&strs(&[
            "--quick",
            "--compare",
            tight.to_str().unwrap(),
            "--tolerance",
            "4.0",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("perf regression"),
            "expected the gate to trip: {err}"
        );

        // A corrupt baseline is an Input error naming the path.
        std::fs::write(&tight, "{\"schema\":").unwrap();
        assert!(matches!(
            cmd_bench(&strs(&["--quick", "--compare", tight.to_str().unwrap()])).unwrap_err(),
            CliError::Input(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Without `--out` nothing is written: a quick run from the repo
    /// root must leave the committed baseline's bytes alone.
    #[test]
    fn bench_without_out_writes_no_file() {
        // Cargo runs unit tests from the package root, where the
        // baseline lives and where a default write would land.
        let path = "BENCH_obs.json";
        let before = std::fs::read(path).unwrap();
        let out = cmd_bench(&strs(&["--quick"])).unwrap();
        let after = std::fs::read(path).unwrap();
        if after != before {
            std::fs::write(path, &before).unwrap();
        }
        assert!(after == before, "a run without --out rewrote {path}");
        assert!(!out.contains("wrote"), "{out}");
        assert!(out.contains("route_build"), "{out}");
    }

    #[test]
    fn obs_flag_appends_metrics_to_deploy_output() {
        let _guard = wsflow_obs::registry::test_lock();
        wsflow_obs::set_enabled(false);
        wsflow_obs::reset();
        let path = temp_workflow(DEMO);
        let out = dispatch(&strs(&[
            "deploy",
            path.to_str().unwrap(),
            "--servers",
            "1.0,2.0",
            "--algo",
            "exhaustive",
            "--obs",
        ]))
        .unwrap();
        wsflow_obs::set_enabled(false);
        wsflow_obs::reset();
        assert!(out.contains("# metrics"));
        assert!(out.contains("\"name\":\"exhaustive.nodes_expanded\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dynamic_runs_quick_and_writes_outputs() {
        let _guard = wsflow_obs::registry::test_lock();
        wsflow_obs::set_enabled(false);
        wsflow_obs::reset();
        let dir = std::env::temp_dir().join(format!("wsflow-dynamic-test-{}", std::process::id()));
        let out = cmd_dynamic(&strs(&[
            "--quick",
            "--seeds",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("Dynamic policies"));
        assert!(out.contains("incremental_repair"));
        let csv = std::fs::read_to_string(dir.join("dyn_policies.csv")).unwrap();
        assert!(csv.starts_with("scenario,seed,fault_rate,policy,budget"));
        assert!(dir.join("dyn_policies_manifest.json").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_renders_solver_section_from_obs_run() {
        let _guard = wsflow_obs::registry::test_lock();
        wsflow_obs::set_enabled(true);
        wsflow_obs::reset();
        // A solve flushes solver.* metrics into the registry…
        let w = dsl::parse(DEMO).unwrap();
        let pool = PoolSpec {
            ghz: vec![1.0, 2.0],
            bus_mbps: 100.0,
        };
        let p = Problem::new(w, pool.network().unwrap()).unwrap();
        let mut ctx = wsflow_core::SolveCtx::unlimited();
        Portfolio::new(0).solve(&p, &mut ctx).unwrap();
        let manifest = wsflow_obs::Manifest::collect("anytime", 7, 1, 0.5);
        wsflow_obs::set_enabled(false);
        wsflow_obs::reset();
        // …and the rendered report lists them under a solver: section.
        let dir = std::env::temp_dir().join(format!("wsflow-solver-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("anytime_manifest.json");
        manifest.write(&path).unwrap();
        let out = cmd_report(dir.to_str().unwrap()).unwrap();
        assert!(out.contains("\nsolver:\n"), "{out}");
        assert!(out.contains("  solver.runs "), "{out}");
        assert!(out.contains("  solver.termination.converged "), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_renders_geo_section_from_obs_run() {
        let _guard = wsflow_obs::registry::test_lock();
        wsflow_obs::set_enabled(true);
        wsflow_obs::reset();
        // The metrics the geo_sweep experiment emits under --obs…
        wsflow_obs::counter_add("geo.solves", 48);
        wsflow_obs::gauge_set("geo.region_share.r0", 0.625);
        wsflow_obs::gauge_set("geo.region_share.r1", 0.375);
        wsflow_obs::gauge_set("geo.front_size", 9.0);
        wsflow_obs::observe("geo.money_dollars", 0.42);
        let manifest = wsflow_obs::Manifest::collect("geo_sweep", 7, 1, 0.5);
        wsflow_obs::set_enabled(false);
        wsflow_obs::reset();
        // …render under a geo: section in the report.
        let dir = std::env::temp_dir().join(format!("wsflow-geo-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        manifest
            .write(&dir.join("geo_sweep_manifest.json"))
            .unwrap();
        let out = cmd_report(dir.to_str().unwrap()).unwrap();
        assert!(out.contains("\ngeo:\n"), "{out}");
        assert!(out.contains("  geo.solves "), "{out}");
        assert!(out.contains("  geo.region_share.r0 "), "{out}");
        assert!(out.contains(" 0.625\n"), "{out}");
        assert!(out.contains("  geo.front_size "), "{out}");
        assert!(out.contains(" 1 samples, p50 $0.42"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_streams_a_solve_through_a_live_daemon() {
        let daemon = wsflow_svc::daemon::spawn(wsflow_svc::DaemonConfig {
            svc: wsflow_svc::SvcConfig::default().with_workers(1),
            port: 0,
        })
        .expect("bind ephemeral port");
        let addr = daemon.addr().to_string();
        let path = temp_workflow(DEMO);
        let out = cmd_submit(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--addr", &addr]),
        )
        .unwrap();
        assert!(out.contains("incumbent #0"), "{out}");
        assert!(out.contains("(converged)"), "{out}");
        assert!(out.contains("combined cost"), "{out}");
        // Both ops land somewhere in the rendered assignment.
        assert!(out.contains('A') && out.contains('B'), "{out}");

        // A well-framed but unusable request comes back as Invalid.
        let err = cmd_submit(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--addr", &addr, "--algo", "magic"]),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err:?}");

        // No daemon at the address → a transport-class error.
        drop(daemon);
        let err = cmd_submit(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,2.0", "--addr", &addr]),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Input(_)), "{err:?}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn submit_flag_errors_are_usage_class() {
        let path = temp_workflow(DEMO);
        for flags in [
            vec!["--addr", "127.0.0.1:1"],              // missing --servers
            vec!["--servers", "1.0", "--addr", "nope"], // bad address
            vec!["--servers", "1.0", "--budget", "x"],  // bad number
            vec!["--servers", "1.0", "--frob"],         // unknown flag
        ] {
            let err = cmd_submit(path.to_str().unwrap(), &strs(&flags)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flags:?}: {err:?}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn loadgen_runs_quick_and_writes_outputs() {
        let _guard = wsflow_obs::registry::test_lock();
        wsflow_obs::set_enabled(false);
        wsflow_obs::reset();
        let dir = std::env::temp_dir().join(format!("wsflow-loadgen-test-{}", std::process::id()));
        let out = cmd_loadgen(&strs(&[
            "--quick",
            "--seeds",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("Service latency"), "{out}");
        assert!(out.contains("Admission control"), "{out}");
        let csv = std::fs::read_to_string(dir.join("loadgen.csv")).unwrap();
        assert!(csv.starts_with(wsflow_harness::loadgen::CSV_HEADER));
        assert!(dir.join("loadgen_manifest.json").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dynamic_rejects_unknown_flags() {
        assert!(matches!(
            cmd_dynamic(&strs(&["--bogus"])).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn unknown_algorithm_is_reported() {
        let path = temp_workflow(DEMO);
        let err = cmd_deploy(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,1.0", "--algo", "magic"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"));
        std::fs::remove_file(path).ok();
    }
}
