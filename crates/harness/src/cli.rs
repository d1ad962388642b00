//! Options and the run path `wsflow run` shares across experiments.
//!
//! Every experiment accepts:
//!
//! * `--quick` — run the seconds-scale configuration instead of the
//!   paper's full sizes;
//! * `--seeds N` — override the number of scenarios per configuration;
//! * `--ops M` — override the workflow size;
//! * `--out DIR` — CSV output directory (default `results/`).
//!
//! `--seeds` and `--ops` apply on top of the chosen sizes, before or
//! after `--quick`. Observability is `wsflow`'s global `--obs` (or
//! `WSFLOW_OBS=1`): [`run_one`] records an experiment when its caller
//! has a [`wsflow_obs::Recorder`] installed. There is no worker-count
//! flag: every fan-out takes [`wsflow_par::num_threads`], which
//! `WSFLOW_THREADS` sets.
//!
//! [`run_one`] also writes a `manifest.json` (and an
//! `<experiment>_manifest.json` copy) next to the CSVs recording git
//! rev, seed, thread count ([`wsflow_par::num_threads`]), wall time,
//! per-phase timings, and — when recorded — the full metric snapshot.

use std::path::Path;

use crate::output::ExperimentOutput;
use crate::params::Params;

/// Parsed common options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Experiment sizing.
    pub params: Params,
    /// CSV output directory.
    pub out_dir: String,
}

/// Parse options from an argument iterator. Unknown flags produce an
/// error string; `--help` produces the usage line as an error.
pub fn parse(mut args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut quick = false;
    let mut seeds = None;
    let mut ops = None;
    let mut out_dir = "results".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                let n: std::num::NonZeroUsize = v
                    .parse()
                    .map_err(|_| format!("bad --seeds value {v:?} (need ≥ 1)"))?;
                seeds = Some(n.get());
            }
            "--ops" => {
                let v = args.next().ok_or("--ops needs a value")?;
                let m: std::num::NonZeroUsize = v
                    .parse()
                    .map_err(|_| format!("bad --ops value {v:?} (need ≥ 1)"))?;
                ops = Some(m.get());
            }
            "--out" => {
                out_dir = args.next().ok_or("--out needs a value")?;
            }
            "--help" | "-h" => {
                return Err("usage: [--quick] [--seeds N] [--ops M] [--out DIR]".into())
            }
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    let mut params = if quick {
        Params::quick()
    } else {
        Params::paper()
    };
    params.seeds = seeds.unwrap_or(params.seeds);
    params.ops = ops.unwrap_or(params.ops);
    Ok(CliOptions { params, out_dir })
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_vec(args: &[&str]) -> Result<CliOptions, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse_vec(&[]).unwrap();
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
            let opts = parse_vec(args).unwrap();
            assert_eq!(opts.params.seeds, 7, "{args:?}");
            assert_eq!(opts.params.ops, ops, "{args:?}");
            assert_eq!(opts.params.server_counts, quick.server_counts, "{args:?}");
        }
        assert_eq!(parse_vec(&["--out", "tmp"]).unwrap().out_dir, "tmp");
    }

    #[test]
    fn rejects_unknown_and_missing() {
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
}
