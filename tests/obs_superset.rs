//! Observability is a strict side channel: with span trees, incumbent
//! instants, and trajectory recording all on, `quality_vs_budget` must
//! write exactly the committed, unrecorded bytes under `tests/golden/`
//! (it writes no wall-clock column). The extra signal rides in the
//! recorder and in `obs_csvs` (`trajectory.csv`), which holds
//! wall-clock values and is never compared. `tests/golden.rs` checks
//! the same, `trajectory.csv` included, for every experiment at once;
//! the test here checks what a `quality_vs_budget` run records.
//!
//! `WSFLOW_OBS=1` records a `wsflow` command like `--obs` does, without
//! appending the metrics snapshot to its output.

use std::fs;
use std::path::Path;

use wsflow::harness::{ExperimentOutput, Params};
use wsflow_obs::Recorder;

/// Run `experiment` on four worker threads under a fresh recorder,
/// require each CSV it writes to equal its committed golden file, and
/// return the output and the recorder.
fn recorded_matches_golden(
    name: &str,
    experiment: fn(&Params) -> ExperimentOutput,
) -> (ExperimentOutput, Recorder) {
    let rec = Recorder::new();
    let out = wsflow_par::with_threads(4, || {
        let _obs = rec.install();
        experiment(&Params::quick())
    });
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("obs-superset-{name}-{}", std::process::id()));
    let written = out.write_csv(&dir).expect("write the CSVs");
    assert!(!written.is_empty(), "{name} writes no CSV");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for path in written {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let want = fs::read_to_string(golden.join(&file))
            .unwrap_or_else(|e| panic!("{file} has no golden file: {e}"));
        let got = fs::read_to_string(&path).expect("read a written CSV");
        assert!(
            want == got,
            "{file} differs from tests/golden/{file} with tracing on"
        );
    }
    fs::remove_dir_all(&dir).ok();

    // The recorded run carries the trajectory side channel.
    let (file, csv) = &out.obs_csvs[0];
    assert_eq!(file, "trajectory.csv");
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(wsflow::harness::trajectory::CSV_HEADER));
    assert!(lines.next().is_some(), "at least one incumbent row");
    wsflow_obs::validate_spans(&rec.spans()).expect("span tree must be well-formed");
    (out, rec)
}

#[test]
fn quality_vs_budget_csvs_are_identical_with_tracing_on() {
    let (_, rec) =
        recorded_matches_golden("quality_vs_budget", wsflow::harness::quality_vs_budget::run);

    // One qvb.solve span per solve, each with a unique idx…
    let mut solve_idxs: Vec<u64> = (rec.spans().iter())
        .filter(|s| s.name == "qvb.solve")
        .map(|s| s.idx)
        .collect();
    let total = solve_idxs.len();
    assert!(total > 0, "per-solve spans must be recorded");
    solve_idxs.sort_unstable();
    solve_idxs.dedup();
    assert_eq!(solve_idxs.len(), total, "solve span idx must be unique");

    // …the solver metrics, and the anytime trajectory histograms.
    let snap = rec.snapshot();
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
