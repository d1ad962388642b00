//! Observability is a strict side channel: with span trees, incumbent
//! instants, and trajectory recording all on, every deterministic CSV
//! and rendered table must stay *bit-identical* to an observability-off
//! run. The extra signal rides exclusively in the span buffer and in
//! `obs_csvs` (`trajectory.csv`), which is excluded from determinism
//! comparisons because it contains wall-clock values.
//!
//! The two runs of each comparison run at the same time, on two
//! threads of one process: recording is scoped to the thread that
//! installed a recorder, so the unrecorded run must record nothing and
//! the recorded one must hold its own run's metrics alone.

use wsflow::harness::{ExperimentOutput, Params};
use wsflow_obs::Recorder;

/// Run `experiment` twice concurrently, without and with a recorder;
/// return both outputs and the recorder.
fn off_and_on(
    experiment: fn(&Params) -> ExperimentOutput,
) -> (ExperimentOutput, ExperimentOutput, Recorder) {
    let params = Params::quick();
    let rec = Recorder::new();
    let start = std::sync::Barrier::new(2);
    let (off, on) = std::thread::scope(|scope| {
        let off = scope.spawn(|| {
            start.wait();
            let out = experiment(&params);
            assert!(!wsflow_obs::enabled());
            assert!(wsflow_obs::snapshot().is_empty(), "the off run recorded");
            out
        });
        let on = scope.spawn(|| {
            let _obs = rec.install();
            start.wait();
            experiment(&params)
        });
        (off.join().unwrap(), on.join().unwrap())
    });
    (off, on, rec)
}

#[test]
fn quality_vs_budget_csvs_are_identical_with_tracing_on() {
    let (off, on, rec) = off_and_on(wsflow::harness::quality_vs_budget::run);
    let spans = rec.spans();
    let snap = rec.snapshot();

    assert_eq!(
        off.extra_csvs, on.extra_csvs,
        "deterministic CSV bytes must not depend on tracing"
    );
    assert_eq!(off.render(), on.render());
    assert!(
        off.obs_csvs.is_empty(),
        "obs off: no trajectory side channel"
    );

    // The obs run carries the trajectory side channel…
    let (name, csv) = &on.obs_csvs[0];
    assert_eq!(name, "trajectory.csv");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], wsflow::harness::trajectory::CSV_HEADER);
    assert!(lines.len() > 1, "at least one incumbent row");

    // …a well-formed span tree with one qvb.solve span per solve, each
    // with a unique (name, idx)…
    wsflow_obs::validate_spans(&spans).expect("span tree must be well-formed");
    let mut solve_idxs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "qvb.solve")
        .map(|s| s.idx)
        .collect();
    let total = solve_idxs.len();
    assert!(total > 0, "per-solve spans must be recorded");
    solve_idxs.sort_unstable();
    solve_idxs.dedup();
    assert_eq!(solve_idxs.len(), total, "solve span idx must be unique");

    // …the solver metrics, and the anytime trajectory histograms.
    assert!(snap.counter("solver.runs").unwrap_or(0) > 0);
    assert!(snap.counter("trajectory.solves").unwrap_or(0) > 0);
    for h in [
        "trajectory.time_to_first_incumbent_secs",
        "trajectory.steps_to_first_incumbent",
        "trajectory.steps_to_p99_quality",
    ] {
        assert!(
            snap.histograms.iter().any(|s| s.name == h && s.count > 0),
            "missing trajectory histogram {h}"
        );
    }
}

#[test]
fn scale_sweep_csvs_are_identical_with_tracing_on() {
    let (off, on, _) = off_and_on(wsflow::harness::scale_sweep::run);

    assert_eq!(off.extra_csvs, on.extra_csvs);
    assert_eq!(off.render(), on.render());
    assert!(off.obs_csvs.is_empty());
    let (name, csv) = &on.obs_csvs[0];
    assert_eq!(name, "trajectory.csv");
    assert!(csv.lines().count() > 1);
}

#[test]
fn wsflow_obs_env_records_without_appending_metrics() {
    let dir = std::env::temp_dir().join(format!("wsflow-obs-env-{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wsflow"))
        .args(["run", "fig6", "--quick", "--out"])
        .arg(&dir)
        .env("WSFLOW_OBS", "1")
        .output()
        .expect("run the wsflow binary");
    assert!(out.status.success(), "{out:?}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("# metrics"));
    let manifest = wsflow_obs::Manifest::load(&dir.join("fig6_manifest.json")).unwrap();
    assert_eq!(
        manifest.metrics.counter("exhaustive.nodes_expanded"),
        Some(243)
    );
    assert!(dir.join("fig6_spans.ndjson").is_file());
    std::fs::remove_dir_all(&dir).ok();
}
