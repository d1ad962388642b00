//! Implementation of the `wsflow` command-line tool.
//!
//! Kept separate from the thin binary (`src/bin/wsflow.rs`) so every
//! command is directly unit-testable: each takes parsed options and
//! returns the output it would print.

use std::fmt;

use wsflow_core::registry::{self, paper_bus_algorithms};
use wsflow_core::DeploymentAlgorithm;
use wsflow_cost::load::time_penalty_of_loads;
use wsflow_cost::{deployment_dot, network_traffic, Evaluator, Mapping, Problem};
use wsflow_harness::cli::CliOptions;
use wsflow_harness::Params;
use wsflow_model::{dsl, workflow_dot, MbitsPerSec, Workflow, WorkflowStats};
use wsflow_net::topology;
use wsflow_sim::{monte_carlo, SimConfig};
use wsflow_workload::{random_graph_workflow, ExperimentClass, GraphClass};

use crate::flags::{self, Command, Parsed};

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
            CliError::Usage(msg) => write!(
                f,
                "usage error: {msg}\n\n{}`wsflow help` describes every flag.",
                flags::wsflow_synopses()
            ),
            CliError::Io(e) => write!(f, "cannot read workflow file: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
            CliError::Input(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A parsed server pool + bus speed.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Server powers in GHz.
    pub ghz: Vec<f64>,
    /// Bus speed in Mbps.
    pub bus_mbps: f64,
}

impl PoolSpec {
    /// The pool's network; [`Network::new`](wsflow_net::Network::new)
    /// is its one validator.
    fn network(&self) -> Result<wsflow_net::Network, CliError> {
        topology::ghz_bus("pool", &self.ghz, MbitsPerSec(self.bus_mbps))
            .map_err(|e| CliError::Invalid(format!("invalid server pool: {e}")))
    }
}

/// Why a required or defaulted flag always has a value.
const GIVEN: &str = "required or defaulted in its table";

/// Read `args` against `cmd`'s table.
fn parse(cmd: &Command, args: &[String]) -> Result<Parsed, CliError> {
    flags::parse(cmd, args).map_err(CliError::Usage)
}

/// Read a pool-taking command's flags: its `--servers` and `--bus`
/// pool, and the rest.
fn pool_flags(cmd: &Command, args: &[String]) -> Result<(PoolSpec, Parsed), CliError> {
    let f = parse(cmd, args)?;
    let pool = PoolSpec {
        ghz: f.nums("--servers").expect(GIVEN),
        bus_mbps: f.num("--bus").expect(GIVEN),
    };
    Ok((pool, f))
}

fn load_workflow(path: &str) -> Result<Workflow, CliError> {
    let text = std::fs::read_to_string(path).map_err(CliError::Io)?;
    dsl::parse(&text).map_err(CliError::Parse)
}

/// Load the workflow at `path`, read a pool-taking command's flags, and
/// assemble the problem they describe.
fn problem_for(cmd: &Command, path: &str, args: &[String]) -> Result<(Problem, Parsed), CliError> {
    let w = load_workflow(path)?;
    let (pool, f) = pool_flags(cmd, args)?;
    let problem = Problem::new(w, pool.network()?)
        .map_err(|e| CliError::Invalid(format!("cannot assemble problem: {e}")))?;
    Ok((problem, f))
}

/// Deploy `problem` with `algo`; a failure names the algorithm.
fn deploy_with(algo: &dyn DeploymentAlgorithm, problem: &Problem) -> Result<Mapping, CliError> {
    (algo.deploy(problem)).map_err(|e| CliError::Invalid(format!("{}: {e}", algo.name())))
}

/// The algorithm `--algo` names, with `all` meaning HOLM.
fn one_algorithm(f: &Parsed) -> Result<Box<dyn DeploymentAlgorithm>, CliError> {
    match f.text("--algo").expect(GIVEN) {
        "all" => algorithm_by_name("holm"),
        name => algorithm_by_name(name),
    }
}

fn algorithm_by_name(name: &str) -> Result<Box<dyn DeploymentAlgorithm>, CliError> {
    registry::by_name(name, 0)
        .map(|algo| algo as Box<dyn DeploymentAlgorithm>)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown algorithm {name:?}; try {}, all",
                registry::NAMES.join(", ")
            ))
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
    let f = parse(&flags::GENERATE, args)?;
    let ops = f.int("--ops").expect(GIVEN) as usize;
    let seed = f.int("--seed").expect(GIVEN);
    let class = ExperimentClass::class_c();
    let w = match f.text("--shape").expect(GIVEN) {
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
    let (problem, f) = problem_for(&flags::DEPLOY, path, flags)?;
    if f.on("--dot") {
        let algo = one_algorithm(&f)?;
        let mapping = deploy_with(algo.as_ref(), &problem)?;
        return Ok(deployment_dot(&problem, &mapping));
    }
    let algos: Vec<Box<dyn DeploymentAlgorithm>> = match f.text("--algo").expect(GIVEN) {
        "all" => paper_bus_algorithms(0),
        name => vec![algorithm_by_name(name)?],
    };
    let mut ev = Evaluator::new(&problem);
    let mut out = String::new();
    for algo in &algos {
        let mapping = deploy_with(algo.as_ref(), &problem)?;
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
    let (problem, f) = problem_for(&flags::SIMULATE, path, flags)?;
    let trials = f.int("--trials").expect(GIVEN) as usize;
    let contended = f.on("--contended");
    let algo = one_algorithm(&f)?;
    let mapping = deploy_with(algo.as_ref(), &problem)?;
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
    let (problem, f) = problem_for(&flags::EXPLAIN, path, flags)?;
    let algo = one_algorithm(&f)?;
    let mapping = deploy_with(algo.as_ref(), &problem)?;
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
        network_traffic(&problem, &mapping).value()
    ));
    Ok(out)
}

/// `wsflow submit <file> --servers … [--algo …] [--addr …]`: send one
/// deployment request to a running `wsflowd` and stream the reply.
///
/// The workflow text itself travels in the request (an inline
/// `wsflow-proto/1` problem spec); incumbents print as they arrive,
/// followed by the final outcome and the op→server assignment.
pub fn cmd_submit(path: &str, flags: &[String]) -> Result<String, CliError> {
    let (pool, f) = pool_flags(&flags::SUBMIT, flags)?;
    let addr: std::net::SocketAddr = match f.text("--addr") {
        Some(addr) => addr.to_string(),
        None => format!("127.0.0.1:{}", wsflow_svc::port_from_env()),
    }
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
        tenant: f.text("--tenant").expect(GIVEN).to_string(),
        algo: f.text("--algo").expect(GIVEN).to_string(),
        budget: f.int("--budget"),
        deadline_ms: f.int("--deadline-ms"),
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

/// `wsflow run <experiment> | all | --list [--quick] …`: run
/// experiments from [`wsflow_harness::EXPERIMENTS`].
///
/// Each run writes its CSVs and run manifest to the output directory
/// (default `results/`) and returns its summary tables as the command
/// output; `all` runs every entry in table order, naming each on stderr
/// as it starts. `--list` prints one `name  description` line per entry.
pub fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let names = || {
        wsflow_harness::EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let (target, flags) = args.split_first().ok_or_else(|| {
        CliError::Usage(format!(
            "run needs an experiment, all or --list; experiments: {}",
            names()
        ))
    })?;
    if target == "--list" {
        if let Some(flag) = flags.first() {
            return Err(CliError::Usage(format!(
                "run --list takes no flags, got {flag:?}"
            )));
        }
        return Ok(wsflow_harness::EXPERIMENTS
            .iter()
            .map(|e| format!("{:<18} {}\n", e.name, e.about))
            .collect());
    }
    let selected = if target == "all" {
        wsflow_harness::EXPERIMENTS
    } else {
        let experiment = wsflow_harness::EXPERIMENTS
            .iter()
            .find(|e| e.name == target.as_str())
            .ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown experiment {target:?}; try {}, all or --list",
                    names()
                ))
            })?;
        std::slice::from_ref(experiment)
    };
    let opts = run_options(flags)?;
    let mut out = String::new();
    for experiment in selected {
        if target == "all" {
            eprintln!("== {} ==", experiment.name);
        }
        out.push_str(&wsflow_harness::cli::run_one(&opts, experiment.run).render());
    }
    Ok(out)
}

/// `wsflow run`'s flags as the harness's options: `--seeds` and
/// `--ops` override the sizes `--quick` picks, wherever they come.
fn run_options(args: &[String]) -> Result<CliOptions, CliError> {
    let f = parse(&flags::RUN, args)?;
    let mut params = if f.on("--quick") {
        Params::quick()
    } else {
        Params::paper()
    };
    params.seeds = f.int("--seeds").map_or(params.seeds, |n| n as usize);
    params.ops = f.int("--ops").map_or(params.ops, |m| m as usize);
    let out_dir = f.text("--out").expect(GIVEN).to_string();
    Ok(CliOptions { params, out_dir })
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
                     experiment (e.g. `wsflow run fig6 --obs`) first"
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
    let f = parse(&flags::BENCH, args)?;
    let tolerance = f.num("--tolerance").expect(GIVEN);
    let doc = wsflow_harness::perf::run(f.on("--quick"));
    let mut out = String::new();
    for b in &doc.benches {
        out.push_str(&format!(
            "{:<16} {:>12.0} ns/op  ({}x{}, {} reps)\n",
            b.name, b.ns_per_op, b.ops, b.servers, b.reps
        ));
    }

    if let Some(path) = f.text("--compare") {
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
    if let Some(path) = f.text("--out") {
        std::fs::write(path, doc.to_json())
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
    let f = parse(&flags::TRACE, flags)?;
    let wall = f.on("--wall");
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
    let out_path = match f.text("--out") {
        Some(out) => std::path::PathBuf::from(out),
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
/// A `--obs` flag anywhere in the arguments, or `WSFLOW_OBS=1`, runs the
/// command under a [`wsflow_obs::Recorder`]. With `--obs`, the recorded
/// metric snapshot is appended to the output as NDJSON.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let obs_flag = args.iter().any(|a| a == "--obs");
    let recorder = (obs_flag || obs_from_env()).then(wsflow_obs::Recorder::new);
    let args: Vec<String> = args.iter().filter(|a| *a != "--obs").cloned().collect();
    let mut result = {
        let _obs = recorder.as_ref().map(wsflow_obs::Recorder::install);
        dispatch_command(&args)
    };
    if let (true, Some(rec), Ok(out)) = (obs_flag, &recorder, &mut result) {
        let snap = rec.snapshot();
        if !snap.is_empty() {
            out.push_str("# metrics\n");
            out.push_str(&wsflow_obs::snapshot_ndjson(&snap).unwrap_or_default());
        }
    }
    result
}

/// Whether `WSFLOW_OBS` asks for observability; an unparseable value
/// warns once and counts as off.
fn obs_from_env() -> bool {
    wsflow_obs::env_knob("WSFLOW_OBS", parse_obs).unwrap_or(false)
}

/// Interpret a `WSFLOW_OBS` value (case-insensitive): `1 / true / on /
/// yes` enable, `0 / false / off / no` and the empty string disable.
fn parse_obs(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" | "no" => Ok(false),
        "1" | "true" | "on" | "yes" => Ok(true),
        _ => Err("1/0/true/false/on/off".to_string()),
    }
}

fn dispatch_command(args: &[String]) -> Result<String, CliError> {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("no command given".into()))?;
    // A command with an operand takes it first, and its flags after it.
    let path = || {
        let cmd = flags::WSFLOW.iter().find(|c| c.name == name.as_str());
        let operands = cmd.map_or("an operand", |c| c.operands);
        (rest.first().map(String::as_str))
            .ok_or_else(|| CliError::Usage(format!("{name} needs {operands}")))
    };
    let tail = rest.get(1..).unwrap_or_default();
    match name.as_str() {
        "validate" => cmd_validate(path()?),
        "stats" => cmd_stats(path()?),
        "dot" => cmd_dot(path()?),
        "generate" => cmd_generate(rest),
        "deploy" => cmd_deploy(path()?, tail),
        "simulate" => cmd_simulate(path()?, tail),
        "explain" => cmd_explain(path()?, tail),
        "submit" => cmd_submit(path()?, tail),
        "run" => cmd_run(rest),
        "report" => cmd_report(path()?),
        "trace" => cmd_trace(path()?, tail),
        "bench" => cmd_bench(rest),
        "help" | "--help" | "-h" => Ok(format!("{}\n", flags::wsflow_usage())),
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
    fn generate_rejects_zero_ops() {
        for shape in ["line", "bushy"] {
            let err = cmd_generate(&strs(&["--ops", "0", "--shape", shape])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{shape}: {err}");
            assert!(err.to_string().contains("--ops"), "{shape}: {err}");
        }
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
        let deploy = |args: &[&str]| pool_flags(&flags::DEPLOY, &strs(args));
        assert!(deploy(&["--servers", "abc"]).is_err());
        assert!(deploy(&["--servers", "1.0", "--bus", "x"]).is_err());
        // Flag values only have to parse: 0 GHz is the pool validator's
        // to reject, as an invalid pool rather than a usage error.
        let (pool, _) = deploy(&["--servers", "0.0"]).unwrap();
        assert!(matches!(pool.network(), Err(CliError::Invalid(_))));
        assert!(deploy(&["--wat"]).is_err());
        // No one command takes all of these, so two read them.
        let args = [
            "--servers",
            "1.0,2.5",
            "--bus",
            "10",
            "--algo",
            "fltr",
            "--dot",
        ];
        let (pool, f) = deploy(&args).unwrap();
        assert_eq!(pool.ghz, vec![1.0, 2.5]);
        assert_eq!(pool.bus_mbps, 10.0);
        assert_eq!(f.text("--algo"), Some("fltr"));
        assert!(f.on("--dot"));
        let args = strs(&["--servers", "1", "--trials", "7", "--contended"]);
        let (_, f) = pool_flags(&flags::SIMULATE, &args).unwrap();
        assert_eq!(f.int("--trials"), Some(7));
        assert!(f.on("--contended"));
        // Zero trials is a usage error, not a panic in the simulator.
        let path = temp_workflow(DEMO);
        let err = cmd_simulate(
            path.to_str().unwrap(),
            &strs(&["--servers", "1.0,1.0", "--trials", "0"]),
        )
        .unwrap_err();
        assert!(
            matches!(err, CliError::Usage(_)) && err.to_string().contains("--trials"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn commands_refuse_flags_they_do_not_use() {
        let path = temp_workflow(DEMO);
        let path = path.to_str().unwrap();
        type Cmd = fn(&str, &[String]) -> Result<String, CliError>;
        let cases: [(&str, Cmd, &[&str]); 6] = [
            ("deploy", cmd_deploy, &["--trials", "7"]),
            ("deploy", cmd_deploy, &["--contended"]),
            ("simulate", cmd_simulate, &["--dot"]),
            ("explain", cmd_explain, &["--trials", "7"]),
            ("explain", cmd_explain, &["--contended"]),
            ("explain", cmd_explain, &["--dot"]),
        ];
        for (name, cmd, extra) in cases {
            let mut args = strs(&["--servers", "1,2"]);
            args.extend(strs(extra));
            let err = cmd(path, &args).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_))
                    && err
                        .to_string()
                        .contains(&format!("{name} does not take {}", extra[0])),
                "{name} {extra:?}: {err}"
            );
        }
        std::fs::remove_file(path).ok();
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
    fn parse_obs_accepts_documented_spellings() {
        for on in ["1", "true", "TRUE", "on", "yes", " 1 "] {
            assert_eq!(parse_obs(on), Ok(true), "{on:?}");
        }
        for off in ["", "0", "false", "off", "No"] {
            assert_eq!(parse_obs(off), Ok(false), "{off:?}");
        }
        assert!(parse_obs("2").is_err());
        assert!(parse_obs("maybe").is_err());
    }

    #[test]
    fn obs_flag_appends_metrics_to_deploy_output() {
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
        assert!(out.contains("# metrics"));
        assert!(out.contains("\"name\":\"exhaustive.nodes_expanded\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dynamic_runs_quick_and_writes_outputs() {
        let dir = std::env::temp_dir().join(format!("wsflow-dynamic-test-{}", std::process::id()));
        let out = cmd_run(&strs(&[
            "dyn_policies",
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
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        // A solve flushes solver.* metrics into the registry…
        let w = dsl::parse(DEMO).unwrap();
        let pool = PoolSpec {
            ghz: vec![1.0, 2.0],
            bus_mbps: 100.0,
        };
        let p = Problem::new(w, pool.network().unwrap()).unwrap();
        let mut ctx = wsflow_core::SolveCtx::unlimited();
        wsflow_core::Portfolio::new(0).solve(&p, &mut ctx).unwrap();
        let manifest = wsflow_obs::Manifest::collect("anytime", 7, 1, 0.5);
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
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        // The metrics the geo_sweep experiment emits under --obs…
        wsflow_obs::counter_add("geo.solves", 48);
        wsflow_obs::gauge_set("geo.region_share.r0", 0.625);
        wsflow_obs::gauge_set("geo.region_share.r1", 0.375);
        wsflow_obs::gauge_set("geo.front_size", 9.0);
        wsflow_obs::observe("geo.money_dollars", 0.42);
        let manifest = wsflow_obs::Manifest::collect("geo_sweep", 7, 1, 0.5);
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
        let dir = std::env::temp_dir().join(format!("wsflow-loadgen-test-{}", std::process::id()));
        let out = cmd_run(&strs(&[
            "loadgen",
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
    fn defaults() {
        let opts = run_options(&[]).unwrap();
        assert_eq!(opts.params, Params::paper());
        assert_eq!(opts.out_dir, "results");
    }

    #[test]
    fn quick_and_overrides() {
        // `--seeds` and `--ops` hold on whichever side of `--quick`
        // they come.
        let quick = Params::quick();
        for (args, ops) in [
            (
                &["--quick", "--seeds", "7", "--ops", "11", "--out", "tmp"][..],
                11,
            ),
            (&["--seeds", "7", "--quick"], quick.ops),
            (
                &["--ops", "11", "--quick", "--seeds", "7", "--out", "tmp"],
                11,
            ),
        ] {
            let opts = run_options(&strs(args)).unwrap();
            assert_eq!(opts.params.seeds, 7, "{args:?}");
            assert_eq!(opts.params.ops, ops, "{args:?}");
            assert_eq!(opts.params.server_counts, quick.server_counts, "{args:?}");
        }
        assert_eq!(
            run_options(&strs(&["--out", "tmp"])).unwrap().out_dir,
            "tmp"
        );
    }

    #[test]
    fn rejects_unknown_and_missing() {
        let parse_vec = |args: &[&str]| run_options(&strs(args));
        assert!(parse_vec(&["--bogus"]).is_err());
        // `WSFLOW_THREADS` is the one worker count.
        assert!(parse_vec(&["--workers", "3"]).is_err());
        assert!(parse_vec(&["--seeds"]).is_err());
        assert!(parse_vec(&["--seeds", "x"]).is_err());
        // Zero seeds would write header-only CSVs and exit 0.
        assert!(parse_vec(&["--seeds", "0"]).is_err());
        // A workflow needs at least one operation.
        assert!(parse_vec(&["--ops", "0"]).is_err());
        assert!(parse_vec(&["--quick", "--ops", "0"]).is_err());
        assert!(parse_vec(&["--help"]).is_err());
        // `wsflow --obs` turns observability on before these flags parse.
        assert!(parse_vec(&["--obs"]).is_err());
    }

    #[test]
    fn dynamic_rejects_unknown_flags() {
        assert!(matches!(
            cmd_run(&strs(&["dyn_policies", "--bogus"])).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn run_rejects_unknown_and_missing_experiments_listing_the_names() {
        for args in [&["fig9", "--quick"][..], &[], &["--quick"]] {
            let err = cmd_run(&strs(args)).unwrap_err();
            let CliError::Usage(msg) = &err else {
                panic!("{args:?}: expected Usage, got {err:?}");
            };
            for e in wsflow_harness::EXPERIMENTS {
                assert!(msg.contains(e.name), "{args:?}: {msg} omits {}", e.name);
            }
        }
        assert!(matches!(
            dispatch(&strs(&["run", "--list", "--quick"])).unwrap_err(),
            CliError::Usage(_)
        ));
        // The deleted per-experiment subcommands stay unknown commands.
        for cmd in ["dynamic", "loadgen"] {
            assert!(matches!(
                dispatch(&strs(&[cmd, "--quick"])).unwrap_err(),
                CliError::Usage(_)
            ));
        }
    }

    #[test]
    fn run_list_prints_every_experiment_once() {
        let out = dispatch(&strs(&["run", "--list"])).unwrap();
        let listed: Vec<&str> = out
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let names: Vec<&str> = wsflow_harness::EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(listed, names);
    }

    /// The CLI and `wsflowd` resolve algorithms through one registry:
    /// both accept exactly its names, in any case.
    #[test]
    fn cli_and_daemon_accept_exactly_the_registry_names() {
        assert_eq!(wsflow_svc::ALGORITHM_NAMES, registry::NAMES);
        for name in registry::NAMES {
            let upper = name.to_ascii_uppercase();
            for n in [*name, upper.as_str()] {
                let cli = algorithm_by_name(n).unwrap_or_else(|e| panic!("cli {n}: {e}"));
                let daemon =
                    wsflow_svc::resolve_algorithm(n, 0).unwrap_or_else(|| panic!("daemon {n}"));
                assert_eq!(cli.name(), daemon.name(), "{n}");
            }
        }
        for name in ["all", "magic", ""] {
            assert!(algorithm_by_name(name).is_err(), "cli {name:?}");
            assert!(
                wsflow_svc::resolve_algorithm(name, 0).is_none(),
                "daemon {name:?}"
            );
        }
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
