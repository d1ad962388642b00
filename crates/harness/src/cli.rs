//! The run path `wsflow run` shares across experiments.
//!
//! [`CliOptions`] holds what `wsflow run`'s flags select; the `wsflow`
//! binary parses them, so this crate reads no command line. [`run_one`]
//! records an experiment when its caller has a [`wsflow_obs::Recorder`]
//! installed (`wsflow --obs` or `WSFLOW_OBS=1`), and writes a
//! `manifest.json` (and an `<experiment>_manifest.json` copy) next to
//! the CSVs recording git rev, seed, thread count
//! ([`wsflow_par::num_threads`]), wall time, per-phase timings, and —
//! when recorded — the full metric snapshot.

use std::path::Path;

use crate::output::ExperimentOutput;
use crate::params::Params;

/// The options of one `wsflow run`.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Experiment sizing.
    pub params: Params,
    /// CSV output directory.
    pub out_dir: String,
}

/// Run one experiment end to end: run the obs spot-check, time the run
/// with `phase.*` spans, write its CSVs and the run manifest (plus its
/// obs CSVs and span export when recorded), and return the output for
/// the caller to render.
///
/// When the caller has a recorder installed, the experiment records
/// into a fresh recorder of its own, so the manifests of a suite's
/// entries never mix; what it recorded is then added to the caller's
/// recorder.
pub fn run_one(opts: &CliOptions, f: impl FnOnce(&Params) -> ExperimentOutput) -> ExperimentOutput {
    let started = std::time::Instant::now();
    let recorder = wsflow_obs::enabled().then(wsflow_obs::Recorder::new);
    let output = {
        let _obs = recorder.as_ref().map(wsflow_obs::Recorder::install);
        crate::obs_diag::spot_check(&opts.params);
        let output = {
            wsflow_obs::span_scope!("phase.experiment");
            f(&opts.params)
        };
        {
            wsflow_obs::span_scope!("phase.emit");
            match output.write_csv(&opts.out_dir) {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("wrote {}", p.display());
                    }
                }
                Err(e) => eprintln!("warning: could not write CSVs: {e}"),
            }
            for (name, contents) in &output.obs_csvs {
                write_both(&opts.out_dir, &output.id, name, contents);
            }
        }
        if let Some(rec) = &recorder {
            // `spans.ndjson` is what `wsflow trace` turns into a Chrome
            // trace.
            match wsflow_obs::spans_ndjson(&rec.spans()) {
                Ok(nd) => write_both(&opts.out_dir, &output.id, "spans.ndjson", &nd),
                Err(e) => eprintln!("warning: could not serialise spans.ndjson: {e}"),
            }
        }
        write_manifest(&output.id, opts, started.elapsed().as_secs_f64());
        output
    };
    if let Some(rec) = &recorder {
        rec.merge_into_current();
    }
    output
}

/// Write `text` to `<out_dir>/<file>` and to an `<experiment>_<file>`
/// copy, so a suite run keeps every experiment's. Never fatal.
fn write_both(out_dir: &str, experiment: &str, file: &str, text: &str) {
    let dir = Path::new(out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    for path in [dir.join(file), dir.join(format!("{experiment}_{file}"))] {
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Write `manifest.json` (and its `<experiment>_manifest.json` copy)
/// into the output directory. Always written — provenance is worth
/// having even without metrics; never fatal.
fn write_manifest(experiment: &str, opts: &CliOptions, wall_secs: f64) {
    let manifest = wsflow_obs::Manifest::collect(
        experiment,
        opts.params.base_seed,
        wsflow_par::num_threads(),
        wall_secs,
    );
    if let Err(e) = manifest.validate() {
        eprintln!("warning: manifest failed validation, writing anyway: {e}");
    }
    match manifest.to_json() {
        Ok(json) => write_both(&opts.out_dir, experiment, "manifest.json", &(json + "\n")),
        Err(e) => eprintln!("warning: could not serialise manifest.json: {e}"),
    }
}
