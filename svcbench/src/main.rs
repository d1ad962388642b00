//! `svcbench` — the end-to-end and per-layer benchmark of `wsflowd`.
//!
//! ```text
//! svcbench --workload <paper_small|anytime_mid|shared_pool|all> --seed N
//!          --seconds S --trace <0|1> --daemon PATH --out DIR
//! ```
//!
//! Starts the real daemon (`--workers 1`, `WSFLOW_THREADS=1`), drives it
//! with a two-tenant closed loop for one warm-up second plus `S`
//! measured seconds, checks every reply against an in-process replay,
//! and prints one JSON line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced replay with
//! `--trace 1`. See `README.md` in this directory.

mod daemon;
mod load;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use daemon::Daemon;
use load::Sample;
use replay::{Layers, PrefixFigures};
use stats::{median, percentile, result_line, Metric};
use workload::{Stream, Workload};
use wsflow_obs::SpanEvent;

/// Daemon launches per run; `setup_s` is their median and the last one
/// serves the load.
const SETUP_LAUNCHES: usize = 15;
/// Load before the measured window starts.
const WARMUP: Duration = Duration::from_secs(1);
/// The measured window is cut into equal sub-windows of at least this
/// many seconds (one when the window is shorter); timing metrics are the
/// median over sub-windows, which keeps a few seconds of interference
/// from a neighbour out of the result.
const SUBWINDOW_SECS: u64 = 4;
/// At most this many sub-windows.
const MAX_SUBWINDOWS: u64 = 5;
/// Threads of the output check (it runs after the load has stopped).
const VERIFY_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number =
        |name: &str, v: String| v.parse::<u64>().map_err(|e| format!("--{name} {v:?}: {e}"));
    let args = Args {
        workload: take("workload")?,
        seed: number("seed", take("seed")?)?,
        seconds: number("seconds", take("seconds")?)?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        daemon: PathBuf::from(take("daemon")?),
        out: PathBuf::from(take("out")?),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// The outcome of one workload.
struct Report {
    workload: Workload,
    /// Output-check or steadiness-guard failures.
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    text: String,
}

fn main() {
    // The in-process replay runs single-threaded like the daemon's
    // solver; set before any thread exists.
    std::env::set_var("WSFLOW_THREADS", "1");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::from_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("svcbench: unknown workload {:?}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let mut reports = Vec::new();
    for w in workloads {
        match run(w, &args) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("svcbench: {}: {e}", w.name());
                std::process::exit(1);
            }
        }
    }
    let prefixed = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in &reports {
        print!("{}", r.text);
        for p in &r.problems {
            eprintln!("svcbench: {}: {p}", r.workload.name());
        }
        for m in &r.metrics {
            let name = if prefixed {
                format!("{}.{}", r.workload.name(), m.name)
            } else {
                m.name.clone()
            };
            metrics.push(Metric::new(name, m.value, m.unit));
        }
    }
    let correct = reports.iter().all(|r| r.problems.is_empty());
    println!(
        "{}",
        result_line(
            correct,
            reports.iter().map(|r| r.attempted).sum(),
            reports.iter().map(|r| r.failed).sum(),
            &metrics,
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

/// What the closed loop measured.
struct LoadRun {
    samples: Vec<Sample>,
    setup_s: f64,
    /// Sub-window boundaries, as offsets from the start of the load.
    marks: Vec<Duration>,
    /// Daemon CPU time read at each mark.
    cpu_at_marks: Vec<Duration>,
    daemon_rss_mb: f64,
}

fn drive(stream: &Stream, args: &Args, dir: &Path) -> Result<LoadRun, String> {
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_LAUNCHES {
        drop(daemon.take());
        let (d, took) = Daemon::launch(&args.daemon, dir)?;
        setups.push(took.as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one launch");
    let window = Duration::from_secs(args.seconds);
    let parts = (args.seconds / SUBWINDOW_SECS).clamp(1, MAX_SUBWINDOWS) as u32;
    let marks: Vec<Duration> = (0..=parts).map(|k| WARMUP + window * k / parts).collect();
    let t0 = Instant::now();
    let (samples, cpu_at_marks) = std::thread::scope(|scope| {
        let load = scope.spawn(|| load::run(daemon.addr(), stream, t0, WARMUP + window));
        let cpu: Result<Vec<Duration>, String> = marks
            .iter()
            .map(|&m| {
                std::thread::sleep(m.saturating_sub(t0.elapsed()));
                daemon.cpu()
            })
            .collect();
        (load.join().expect("load thread panicked"), cpu)
    });
    Ok(LoadRun {
        samples,
        setup_s: median(&setups),
        marks,
        cpu_at_marks: cpu_at_marks?,
        daemon_rss_mb: daemon.peak_rss_mb()?,
    })
}

/// The closed loop's timing metrics: each is computed per sub-window
/// (requests grouped by the sub-window they completed in) and the
/// median over sub-windows is reported.
struct Timing {
    latency_p50: f64,
    latency_p90: f64,
    ttfi_p50: f64,
    throughput: f64,
    cpu_ms_per_req: f64,
    /// Completed requests over all sub-windows.
    completed: usize,
    queue_wait_p50_us: f64,
}

/// A metric of one sub-window, given its index and its requests.
type PerWindow<'a> = dyn Fn(usize, &[&Sample]) -> Result<f64, String> + 'a;

fn timing(run: &LoadRun) -> Result<Timing, String> {
    // Completed requests grouped by the sub-window they completed in.
    let groups: Vec<Vec<&Sample>> = run
        .marks
        .windows(2)
        .map(|m| {
            run.samples
                .iter()
                .filter(|s| s.outcome.is_ok() && s.end >= m[0] && s.end < m[1])
                .collect()
        })
        .collect();
    let median_of = |f: &PerWindow<'_>| {
        let values = groups
            .iter()
            .enumerate()
            .map(|(k, g)| f(k, g))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok::<f64, String>(median(&values))
    };
    let pct = |q: f64, of: fn(&Sample) -> f64| {
        move |_: usize, done: &[&Sample]| {
            let v: Vec<f64> = done.iter().map(|s| of(s)).collect();
            percentile(&v, q).ok_or_else(|| {
                format!(
                    "{} requests completed in a sub-window, too few for p{:.0}",
                    v.len(),
                    q * 100.0
                )
            })
        }
    };
    let queue_wait = |s: &Sample| {
        s.outcome
            .as_ref()
            .map_or(f64::NAN, |d| d.queue_wait_us as f64)
    };
    let secs = |k: usize| (run.marks[k + 1] - run.marks[k]).as_secs_f64();
    let cpu_ms = |k: usize| {
        (run.cpu_at_marks[k + 1].saturating_sub(run.cpu_at_marks[k])).as_secs_f64() * 1e3
    };
    Ok(Timing {
        latency_p50: median_of(&pct(0.5, Sample::latency_ms))?,
        latency_p90: median_of(&pct(0.9, Sample::latency_ms))?,
        ttfi_p50: median_of(&pct(0.5, Sample::ttfi_ms))?,
        queue_wait_p50_us: median_of(&pct(0.5, queue_wait))?,
        throughput: median_of(&|k, done| Ok(done.len() as f64 / secs(k)))?,
        cpu_ms_per_req: median_of(&|k, done| Ok(cpu_ms(k) / done.len() as f64))?,
        completed: groups.iter().map(Vec::len).sum(),
    })
}

fn run(w: Workload, args: &Args) -> Result<Report, String> {
    let dir = args.out.join(w.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stream = Stream::new(w, args.seed);
    let run = drive(&stream, args, &dir)?;
    let t = timing(&run)?;
    let failed = run.samples.iter().filter(|s| s.outcome.is_err()).count() as u64;
    if let Some(s) = run.samples.iter().find(|s| s.outcome.is_err()) {
        eprintln!(
            "svcbench: {}: request {}#{} failed: {}",
            w.name(),
            workload::TENANTS[s.tenant],
            s.index,
            s.outcome.as_ref().expect_err("a failed sample")
        );
    }

    let mut problems = Vec::new();
    let figures = match replay::verify(&stream, &run.samples, VERIFY_THREADS) {
        Ok(f) => Some(f),
        Err(e) => {
            problems.push(format!("output check failed: {e}"));
            None
        }
    };
    if let Some(f) = &figures {
        if let Err(e) = steadiness_guard(args, w, f) {
            problems.push(e);
        }
    }
    let mut e2e = vec![
        Metric::new("latency_p50_ms", t.latency_p50, "ms"),
        Metric::new("ttfi_p50_ms", t.ttfi_p50, "ms"),
        Metric::new("throughput_rps", t.throughput, "1/s"),
        Metric::new("cpu_ms_per_req", t.cpu_ms_per_req, "ms"),
        Metric::new("daemon_rss_mb", run.daemon_rss_mb, "MiB"),
        Metric::new("setup_s", run.setup_s, "s"),
    ];
    // Absent when the output check failed: there is no trusted cost.
    if let Some(f) = &figures {
        e2e.insert(
            5,
            Metric::new("cost_ratio_geomean", f.cost_ratio_geomean, "ratio"),
        );
    }
    let mut text = format!(
        "== {} (seed {}, {} s measured, {} requests in the window; attempted {}, failed {})\n",
        w.name(),
        args.seed,
        args.seconds,
        t.completed,
        run.samples.len(),
        failed
    );
    for m in &e2e {
        let _ = writeln!(text, "  {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        text,
        "  {:<22} {:>14.4} ms (reported with --trace 1; too unsteady here to gate)",
        "latency_p90_ms", t.latency_p90
    );

    let metrics = if args.trace && problems.is_empty() {
        let figures = figures.expect("no problems implies figures");
        let layers = replay::trace(&stream, &run.samples)?;
        let spans_path = dir.join("spans.ndjson");
        let ndjson = wsflow_obs::spans_ndjson(&layers.spans).map_err(|e| e.to_string())?;
        std::fs::write(&spans_path, ndjson)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        let per_layer = layer_metrics(&layers, &figures, &t);
        text.push_str(&layer_table(w, &per_layer, &layers, t.latency_p50));
        let _ = writeln!(text, "  spans: {}", spans_path.display());
        per_layer
    } else {
        e2e
    };
    Ok(Report {
        workload: w,
        problems,
        attempted: run.samples.len() as u64,
        failed,
        metrics,
        text,
    })
}

/// Fail when the deterministic figures differ from an earlier run of
/// this workload and seed in the same output directory.
fn steadiness_guard(args: &Args, w: Workload, f: &PrefixFigures) -> Result<(), String> {
    let dir = args.out.join("state");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.txt", w.name(), args.seed));
    let now = f.render();
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => Err(format!(
            "steadiness guard: deterministic figures differ from an earlier run with seed {} \
             (remove {} after an intended change):\nbefore:\n{before}now:\n{now}",
            args.seed,
            path.display()
        )),
        Err(_) => {
            std::fs::write(&path, now).map_err(|e| format!("writing {}: {e}", path.display()))
        }
    }
}

fn layer_metrics(layers: &Layers, f: &PrefixFigures, t: &Timing) -> Vec<Metric> {
    let us = |layer: &str| layers.p50_ns(layer) / 1e3;
    let pair_us = |a: &str, b: &str| {
        let sums: Vec<f64> = layers.samples[a]
            .iter()
            .zip(&layers.samples[b])
            .map(|(x, y)| x + y)
            .collect();
        percentile(&sums, 0.5).expect("the prefix has enough requests") / 1e3
    };
    let path_off_ms = percentile(&layers.path_off, 0.5).expect("prefix") / 1e6;
    let off: f64 = layers.path_off.iter().sum();
    let on: f64 = layers.path_on.iter().sum();
    vec![
        Metric::new("svc.overhead_p50_ms", t.latency_p50 - path_off_ms, "ms"),
        Metric::new("svc.queue_wait_p50_us", t.queue_wait_p50_us, "us"),
        Metric::new("latency_p90_ms", t.latency_p90, "ms"),
        Metric::new(
            "svc.request_codec_us",
            pair_us("svc.request_encode", "svc.request_decode"),
            "us",
        ),
        Metric::new(
            "svc.reply_codec_us",
            pair_us("svc.reply_encode", "svc.reply_decode"),
            "us",
        ),
        Metric::new("svc.fair_queue_ns", layers.fair_queue_ns, "ns"),
        Metric::new("svc.build_problem_us", us("svc.build_problem"), "us"),
        Metric::new("workload.generate_us", us("workload.generate"), "us"),
        Metric::new("model.dsl_parse_us", us("model.dsl_parse"), "us"),
        Metric::new("net.routing_us", us("net.routing"), "us"),
        Metric::new("cost.comm_matrix_us", us("cost.comm_matrix"), "us"),
        Metric::new("core.solve_us", us("core.solve"), "us"),
        Metric::new("core.bb.gen_us", us("core.bb.gen"), "us"),
        Metric::new(
            "cost.delta_probe_ns",
            layers.p50_ns("cost.delta_probe"),
            "ns",
        ),
        Metric::new("cost.evaluate_us", us("cost.evaluate"), "us"),
        Metric::new("core.solve_steps", f.solve_steps as f64, "count"),
        Metric::new("core.incumbents", f.incumbents as f64, "count"),
        Metric::new("core.bb.generations", f.generations as f64, "count"),
        Metric::new("core.bb.accept_share", f.accept_share, "ratio"),
        Metric::new("trace.overhead_pct", (on - off) / off * 100.0, "%"),
    ]
}

/// Which end-to-end metrics a layer metric should move, and on which
/// workload.
fn moves(metric: &str) -> &'static str {
    match metric {
        "svc.overhead_p50_ms" => "latency_p50_ms, ttfi_p50_ms, throughput_rps on paper_small",
        "svc.queue_wait_p50_us" => "latency_p90_ms on anytime_mid",
        "latency_p90_ms" => "end-to-end tail, ungated (18-29% run-to-run spread here)",
        "svc.request_codec_us" | "svc.reply_codec_us" | "svc.fair_queue_ns" => {
            "latency_p50_ms everywhere (small today)"
        }
        "svc.build_problem_us"
        | "workload.generate_us"
        | "model.dsl_parse_us"
        | "net.routing_us"
        | "cost.comm_matrix_us" => {
            "latency, throughput_rps, cpu_ms_per_req, daemon_rss_mb on shared_pool"
        }
        "core.solve_us" | "core.bb.gen_us" | "cost.delta_probe_ns" | "cost.evaluate_us" => {
            "latency, throughput_rps, cpu_ms_per_req on anytime_mid"
        }
        "trace.overhead_pct" => "none (cost of tracing)",
        _ => "cost_ratio_geomean (exact; must not change)",
    }
}

/// Span name behind each timed layer metric.
fn span_of(metric: &str) -> Option<&'static str> {
    Some(match metric {
        "svc.build_problem_us" => "svc.build_problem",
        "workload.generate_us" => "workload.generate",
        "model.dsl_parse_us" => "model.dsl_parse",
        "net.routing_us" => "net.routing",
        "cost.comm_matrix_us" => "cost.comm_matrix",
        "core.solve_us" => "core.solve",
        "cost.evaluate_us" => "cost.evaluate",
        "cost.delta_probe_ns" => "cost.delta_probe",
        _ => return None,
    })
}

fn layer_table(w: Workload, metrics: &[Metric], layers: &Layers, latency_p50_ms: f64) -> String {
    let self_us = self_times(&layers.spans);
    let mut t = String::from("  -- per layer (traced replay of the prefix requests)\n");
    let _ = writeln!(
        t,
        "  {:<22} {:>12} {:<6} {:>12}  should move",
        "layer", "value", "unit", "self p50 us"
    );
    for m in metrics {
        let self_col = span_of(&m.name)
            .and_then(|s| self_us.get(s))
            .and_then(|v| percentile(v, 0.5))
            .map_or(String::from("-"), |v| format!("{v:.1}"));
        let _ = writeln!(
            t,
            "  {:<22} {:>12.3} {:<6} {:>12}  {}",
            m.name,
            m.value,
            m.unit,
            self_col,
            moves(&m.name)
        );
    }
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("listed metric")
    };
    let (what, ms, floor) = match w {
        Workload::PaperSmall => ("svc.overhead_p50_ms", value("svc.overhead_p50_ms"), 0.8),
        Workload::AnytimeMid => ("core.solve_us", value("core.solve_us") / 1e3, 0.5),
        Workload::SharedPool => (
            "net.routing_us + cost.comm_matrix_us",
            (value("net.routing_us") + value("cost.comm_matrix_us")) / 1e3,
            0.7,
        ),
    };
    let share = ms / latency_p50_ms;
    let _ = writeln!(
        t,
        "  dominant layer: {what} = {:.1}% of latency_p50_ms (expected >= {:.0}%): {}",
        share * 100.0,
        floor * 100.0,
        if share >= floor {
            "confirmed"
        } else {
            "NOT confirmed"
        }
    );
    t
}

/// Self time of every span, by name, in microseconds: its duration
/// minus the part of it that its children cover.
fn self_times(spans: &[SpanEvent]) -> BTreeMap<String, Vec<f64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.instant) {
        children
            .entry(s.parent_id)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.instant) {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let mut kids = children.get(&s.span_id).cloned().unwrap_or_default();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, lo);
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(hi));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        out.entry(s.name.clone())
            .or_default()
            .push((s.dur_us - covered) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            thread: 0,
            span_id: id,
            parent_id: parent,
            idx: 0,
            start_us: start,
            dur_us: dur,
            instant: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 20, 30),
            span("c", 4, 1, 90, 20),
            span("leaf", 5, 2, 12, 5),
        ];
        let t = self_times(&spans);
        // Children cover 10..50 and 90..100 of the root.
        assert_eq!(t["root"], vec![50.0]);
        assert_eq!(t["a"], vec![25.0]);
        assert_eq!(t["leaf"], vec![5.0]);
    }

    #[test]
    fn every_listed_layer_has_a_known_target() {
        for m in [
            "svc.overhead_p50_ms",
            "core.solve_us",
            "net.routing_us",
            "trace.overhead_pct",
        ] {
            assert!(!moves(m).is_empty());
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let raw = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&raw(
            "--workload all --seed 3 --seconds 2 --trace 1 --daemon d --out o",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2, true));
        assert!(parse_args(&raw("--workload all --seed 3")).is_err());
        assert!(parse_args(&raw(
            "--workload all --seed 3 --seconds 2 --trace 2 --daemon d --out o"
        ))
        .is_err());
        assert!(parse_args(&raw(
            "--workload all --seed x --seconds 2 --trace 0 --daemon d --out o"
        ))
        .is_err());
    }
}
