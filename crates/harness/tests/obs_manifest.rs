//! End-to-end observability tests: `run_one` under a recorder (as
//! `wsflow --obs` installs one) must produce a valid, renderable
//! manifest carrying the acceptance metrics, an unrecorded run must
//! produce byte-identical CSVs, and the entries of a suite must keep
//! their own span exports and trajectories.

use wsflow_harness::cli::{run_one, CliOptions};
use wsflow_harness::Params;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wsflow-obs-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Read every CSV with wall-clock columns (`runtime…`) dropped: timings
/// vary run to run, the deployment/cost numbers must not.
fn read_csvs(dir: &std::path::Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            let mut lines = text.lines();
            let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
            let keep: Vec<usize> = (0..header.len())
                .filter(|&i| !header[i].starts_with("runtime"))
                .collect();
            let project = |line: &str| -> String {
                let cells: Vec<&str> = line.split(',').collect();
                keep.iter()
                    .filter_map(|&i| cells.get(i).copied())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let mut body: Vec<String> = vec![project(&header.join(","))];
            body.extend(lines.map(project));
            (
                p.file_name().unwrap().to_str().unwrap().to_string(),
                body.join("\n"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn obs_run_writes_valid_manifest_and_disabled_run_is_identical() {
    // Baseline: observability off.
    let off_dir = temp_dir("off");
    let off_opts = CliOptions {
        params: Params::quick(),
        out_dir: off_dir.to_str().unwrap().to_string(),
    };
    run_one(&off_opts, wsflow_harness::fig6::run);
    assert!(
        off_dir.join("manifest.json").is_file(),
        "manifests are written even without --obs (provenance)"
    );
    let off_manifest = wsflow_obs::Manifest::load(&off_dir.join("manifest.json")).unwrap();
    assert!(off_manifest.metrics.is_empty());

    // Instrumented run.
    let on_dir = temp_dir("on");
    let on_opts = CliOptions {
        params: Params::quick(),
        out_dir: on_dir.to_str().unwrap().to_string(),
    };
    let rec = wsflow_obs::Recorder::new();
    {
        let _obs = rec.install();
        run_one(&on_opts, wsflow_harness::fig6::run);
    }
    // The caller's recorder receives what the run recorded.
    assert_eq!(
        rec.snapshot().counter("exhaustive.nodes_expanded"),
        Some(243)
    );

    // Observability must not change the experiment's results.
    let off_csvs = read_csvs(&off_dir);
    let on_csvs = read_csvs(&on_dir);
    assert!(!off_csvs.is_empty());
    assert_eq!(off_csvs, on_csvs, "obs run must be bit-identical");

    // Both manifest copies exist, load, validate, and carry the
    // acceptance metrics.
    for name in ["manifest.json", "fig6_manifest.json"] {
        let manifest = wsflow_obs::Manifest::load(&on_dir.join(name)).unwrap();
        manifest.validate().unwrap();
        assert_eq!(manifest.experiment, "fig6");
        let snap = &manifest.metrics;
        assert_eq!(snap.counter("exhaustive.nodes_expanded"), Some(243));
        assert!(snap.counter("delta.probes").unwrap() > 0);
        let depth = snap.histogram("sim.queue_depth").unwrap();
        assert!(depth.count > 0 && !depth.buckets.is_empty());
        assert!(manifest.phases.iter().any(|p| p.name == "experiment"));
        // The report lists every metric as exactly one row.
        let rendered = manifest.render();
        let rows: Vec<&str> = rendered
            .lines()
            .filter(|l| l.starts_with("  "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let names = snap
            .counters
            .iter()
            .map(|c| &c.name)
            .chain(snap.gauges.iter().map(|g| &g.name))
            .chain(snap.histograms.iter().map(|h| &h.name));
        for name in names {
            let n = rows.iter().filter(|r| **r == name.as_str()).count();
            assert_eq!(n, 1, "{name} in {n} rows:\n{rendered}");
        }
    }

    std::fs::remove_dir_all(&off_dir).ok();
    std::fs::remove_dir_all(&on_dir).ok();
}

/// The `phase.experiment` spans of a span export.
fn experiment_roots(path: &std::path::Path) -> Vec<wsflow_obs::SpanEvent> {
    let text = std::fs::read_to_string(path).unwrap();
    let spans = wsflow_obs::parse_spans_ndjson(&text).unwrap();
    wsflow_obs::validate_spans(&spans).unwrap();
    spans
        .into_iter()
        .filter(|s| s.name == "phase.experiment")
        .collect()
}

#[test]
fn suite_entries_keep_their_own_span_exports() {
    let dir = temp_dir("suite");
    let opts = CliOptions {
        params: Params::quick(),
        out_dir: dir.to_str().unwrap().to_string(),
    };
    let rec = wsflow_obs::Recorder::new();
    {
        let _obs = rec.install();
        run_one(&opts, wsflow_harness::fig7::run);
        run_one(&opts, wsflow_harness::line_line_exp::run);
    }
    let fig7 = experiment_roots(&dir.join("fig7_spans.ndjson"));
    let line_line = experiment_roots(&dir.join("line_line_spans.ndjson"));
    assert_eq!(fig7.len(), 1, "{fig7:?}");
    assert_eq!(line_line.len(), 1, "{line_line:?}");
    assert_eq!(fig7[0].parent_id, 0);
    assert_ne!(fig7[0].span_id, line_line[0].span_id);
    // `spans.ndjson` is the last entry's export, for `wsflow trace`.
    assert_eq!(
        std::fs::read(dir.join("spans.ndjson")).unwrap(),
        std::fs::read(dir.join("line_line_spans.ndjson")).unwrap()
    );
    // Each manifest holds its own entry's metrics alone: the spot-check
    // runs once per entry.
    for name in ["fig7", "line_line"] {
        let manifest =
            wsflow_obs::Manifest::load(&dir.join(format!("{name}_manifest.json"))).unwrap();
        assert_eq!(manifest.experiment, name);
        assert_eq!(
            manifest.metrics.counter("exhaustive.nodes_expanded"),
            Some(243)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `scale_sweep`, the third entry with a trajectory, writes it the same
/// way and takes seconds in a debug build.
#[test]
fn suite_entries_keep_their_own_trajectories() {
    let dir = temp_dir("trajectories");
    let opts = CliOptions {
        params: Params::quick(),
        out_dir: dir.to_str().unwrap().to_string(),
    };
    let names = ["quality_vs_budget", "geo_sweep"];
    let rec = wsflow_obs::Recorder::new();
    {
        let _obs = rec.install();
        for name in names {
            let entry = wsflow_harness::EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .unwrap();
            run_one(&opts, entry.run);
        }
    }
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap();
    let [budget, geo] = names.map(|name| read(&format!("{name}_trajectory.csv")));
    for csv in [&budget, &geo] {
        assert!(csv.starts_with(wsflow_harness::trajectory::CSV_HEADER));
        assert!(csv.lines().count() > 1, "{csv}");
    }
    assert_ne!(budget, geo);
    // `trajectory.csv` is the last entry's.
    assert_eq!(read("trajectory.csv"), geo);
    std::fs::remove_dir_all(&dir).ok();
}
