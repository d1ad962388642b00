//! The quick suite's committed outputs: every `EXPERIMENTS` entry at
//! `Params::quick()` must write, through `ExperimentOutput::write_csv`,
//! exactly the bytes under `tests/golden/` once the wall-clock
//! `runtime_us` column is cut. A missing or extra file fails too.
//!
//! The suite runs twice at the same time, on two threads of one
//! process: run A on one worker thread with no recorder, run B on four
//! worker threads with a `Recorder` installed for each experiment. The
//! two must write the same bytes, so this one test checks thread-count
//! invariance, that observability is a side channel, and that
//! behaviour matches the committed baseline. Run B's recorders must
//! hold well-formed span trees.
//!
//! When a change means to alter behaviour, the failure names the first
//! differing file and row and prints the command that copies the
//! regenerated set over `tests/golden/`; the new bytes then show up in
//! review as a diff of the baseline.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use wsflow::harness::{trajectory, Experiment, ExperimentOutput, Params, EXPERIMENTS};
use wsflow_obs::Recorder;

/// File name → contents with `runtime_us` cut.
type Files = BTreeMap<String, String>;

/// The suite's one wall-clock column.
const WALL_CLOCK: &str = "runtime_us";

/// Run every experiment with `run`, write its CSVs into `dir`, and
/// return what was written, cut.
fn run_suite(dir: &Path, mut run: impl FnMut(&Experiment) -> ExperimentOutput) -> Files {
    let mut files = Files::new();
    for e in EXPERIMENTS {
        for path in run(e).write_csv(dir).expect("write the CSVs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let csv = fs::read_to_string(&path).expect("read a written CSV");
            let cut = cut_column(&csv, WALL_CLOCK);
            assert!(
                files.insert(name.clone(), cut).is_none(),
                "{name} is written by two experiments"
            );
        }
    }
    fs::remove_dir_all(dir).ok();
    files
}

/// `csv` without the column headed `column`. Cells split on commas
/// outside double quotes and are otherwise kept verbatim.
fn cut_column(csv: &str, column: &str) -> String {
    let rows = records(csv);
    let Some(col) = rows
        .first()
        .and_then(|header| header.iter().position(|c| *c == column))
    else {
        return csv.to_string();
    };
    let mut out = String::with_capacity(csv.len());
    for row in rows {
        let kept: Vec<&str> = (row.iter().enumerate())
            .filter(|&(i, _)| i != col)
            .map(|(_, cell)| *cell)
            .collect();
        out.push_str(&kept.join(","));
        out.push('\n');
    }
    out
}

/// Split `csv` into rows of raw cells; a comma or line break inside
/// double quotes belongs to its cell.
fn records(csv: &str) -> Vec<Vec<&str>> {
    let (mut rows, mut row) = (Vec::new(), Vec::new());
    let (mut start, mut quoted) = (0, false);
    for (i, b) in csv.bytes().enumerate() {
        match b {
            b'"' => quoted = !quoted,
            b',' | b'\n' if !quoted => {
                row.push(&csv[start..i]);
                start = i + 1;
                if b == b'\n' {
                    rows.push(std::mem::take(&mut row));
                }
            }
            _ => {}
        }
    }
    if start < csv.len() {
        row.push(&csv[start..]);
        rows.push(row);
    }
    rows
}

/// The first file, and within it the first line, where `actual` differs
/// from `expected`; `None` when they are equal.
fn first_difference(expected: &Files, actual: &Files) -> Option<String> {
    let names: BTreeSet<&String> = expected.keys().chain(actual.keys()).collect();
    names.into_iter().find_map(|name| {
        let (want, got) = match (expected.get(name), actual.get(name)) {
            (Some(want), Some(got)) if want != got => (want, got),
            (Some(_), None) => return Some(format!("{name} is expected but was not written")),
            (None, Some(_)) => return Some(format!("{name} was written but is not expected")),
            _ => return None,
        };
        let (mut want, mut got) = (want.lines(), got.lines());
        let mut line = 1;
        loop {
            match (want.next(), got.next()) {
                (w, g) if w != g => {
                    return Some(format!(
                        "{name} line {line}:\n  expected: {}\n  actual:   {}",
                        w.unwrap_or("<end of file>"),
                        g.unwrap_or("<end of file>")
                    ))
                }
                (None, None) => return Some(format!("{name}: line endings differ")),
                _ => line += 1,
            }
        }
    })
}

/// Run B's recorder for experiment `name` must hold a well-formed span
/// tree, and an experiment that writes side-channel CSVs must write a
/// `trajectory.csv` with its header and at least one incumbent row.
/// What `quality_vs_budget` records beyond that is checked by
/// `tests/obs_superset.rs`.
fn check_recorded(name: &str, rec: &Recorder, out: &ExperimentOutput) {
    wsflow_obs::validate_spans(&rec.spans()).unwrap_or_else(|e| panic!("{name}: span tree: {e}"));
    if out.obs_csvs.is_empty() {
        return;
    }
    let (_, csv) = (out.obs_csvs.iter())
        .find(|(file, _)| file == "trajectory.csv")
        .unwrap_or_else(|| panic!("{name}: side channel without trajectory.csv"));
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(trajectory::CSV_HEADER), "{name}");
    assert!(lines.next().is_some(), "{name}: no incumbent row");
}

#[test]
fn quick_suite_matches_the_committed_outputs() {
    let params = Params::quick();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let pid = std::process::id();
    let start = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            wsflow_par::with_threads(1, || {
                start.wait();
                let files = run_suite(&tmp.join(format!("golden-a-{pid}")), |e| {
                    let out = (e.run)(&params);
                    assert!(
                        out.obs_csvs.is_empty(),
                        "{}: unrecorded side channel",
                        e.name
                    );
                    out
                });
                assert!(!wsflow_obs::enabled());
                assert!(wsflow_obs::snapshot().is_empty(), "run A recorded");
                files
            })
        });
        let b = scope.spawn(|| {
            wsflow_par::with_threads(4, || {
                start.wait();
                run_suite(&tmp.join(format!("golden-b-{pid}")), |e| {
                    let rec = Recorder::new();
                    let out = {
                        let _obs = rec.install();
                        (e.run)(&params)
                    };
                    check_recorded(e.name, &rec, &out);
                    out
                })
            })
        });
        (a.join().unwrap(), b.join().unwrap())
    });

    if let Some(diff) = first_difference(&a, &b) {
        panic!("run B (4 threads, recorded) differs from run A (1 thread, unrecorded): {diff}");
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut expected = Files::new();
    for entry in fs::read_dir(&golden).into_iter().flatten() {
        let path = entry.expect("list tests/golden").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        expected.insert(name, fs::read_to_string(&path).expect("read a golden file"));
    }
    if let Some(diff) = first_difference(&expected, &a) {
        let fresh = tmp.join("golden");
        fs::remove_dir_all(&fresh).ok();
        fs::create_dir_all(&fresh).expect("create the regenerated set's directory");
        for (name, csv) in &a {
            fs::write(fresh.join(name), csv).expect("write the regenerated set");
        }
        panic!(
            "the quick suite's outputs differ from tests/golden/: {diff}\n\
             The regenerated set is in {fresh}. If the change is meant, accept it with\n  \
             rm -rf {golden} && cp -r {fresh} {golden}",
            fresh = fresh.display(),
            golden = golden.display(),
        );
    }
}
