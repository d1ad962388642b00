//! Minimal command-line handling shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` — run the seconds-scale configuration instead of the
//!   paper's full sizes;
//! * `--seeds N` — override the number of scenarios per configuration;
//! * `--ops M` — override the workflow size;
//! * `--out DIR` — CSV output directory (default `results/`);
//! * `--obs` — enable observability (equivalent to `WSFLOW_OBS=1`):
//!   collect metrics and spans, and populate the run manifest.
//!
//! There is no worker-count flag: every fan-out takes
//! [`wsflow_par::num_threads`], which `WSFLOW_THREADS` sets.
//!
//! Every binary also writes a `manifest.json` (and an
//! `<experiment>_manifest.json` copy) next to its CSVs recording git
//! rev, seed, thread count ([`wsflow_par::num_threads`]), wall time,
//! per-phase timings, and — when observability is on — the full metric
//! snapshot.

use std::path::Path;

use crate::params::Params;

/// Parsed common options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Experiment sizing.
    pub params: Params,
    /// CSV output directory.
    pub out_dir: String,
    /// Observability requested via `--obs` (the `WSFLOW_OBS` env var is
    /// honoured independently by `wsflow_obs::enabled`).
    pub obs: bool,
}

/// Parse options from an argument iterator (excluding `argv[0]`).
/// Unknown flags produce an error string listing usage.
pub fn parse(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut params = Params::paper();
    let mut out_dir = "results".to_string();
    let mut obs = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => params = Params::quick(),
            "--obs" => obs = true,
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a value")?;
                params.seeds = v.parse().map_err(|_| format!("bad --seeds value {v:?}"))?;
            }
            "--ops" => {
                let v = args.next().ok_or("--ops needs a value")?;
                params.ops = v.parse().map_err(|_| format!("bad --ops value {v:?}"))?;
            }
            "--out" => {
                out_dir = args.next().ok_or("--out needs a value")?;
            }
            "--help" | "-h" => {
                return Err("usage: [--quick] [--seeds N] [--ops M] [--out DIR] [--obs]".into())
            }
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    Ok(CliOptions {
        params,
        out_dir,
        obs,
    })
}

/// Parse from the process arguments, exiting with a message on error.
pub fn parse_or_exit() -> CliOptions {
    match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Print an experiment's tables and write its CSVs.
pub fn emit(output: &crate::output::ExperimentOutput, opts: &CliOptions) {
    print!("{}", output.render());
    match output.write_csv(&opts.out_dir) {
        Ok(paths) => {
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("warning: could not write CSVs: {e}"),
    }
}

/// Run one experiment end to end: honour `--obs`, run the obs
/// spot-check, time the run with `phase.*` spans, emit tables/CSVs, and
/// write the run manifest next to them.
///
/// This is the standard body of every experiment binary's `main`.
pub fn run_one(
    opts: &CliOptions,
    f: impl FnOnce(&Params) -> crate::output::ExperimentOutput,
) -> crate::output::ExperimentOutput {
    run_one_inner(opts, f, true)
}

/// Like [`run_one`], but returns the rendered tables instead of
/// printing them — CSVs and the manifest are still written. For callers
/// that own stdout, such as the `wsflow dynamic` subcommand.
pub fn run_one_captured(
    opts: &CliOptions,
    f: impl FnOnce(&Params) -> crate::output::ExperimentOutput,
) -> (crate::output::ExperimentOutput, String) {
    let output = run_one_inner(opts, f, false);
    let rendered = output.render();
    (output, rendered)
}

fn run_one_inner(
    opts: &CliOptions,
    f: impl FnOnce(&Params) -> crate::output::ExperimentOutput,
    print_tables: bool,
) -> crate::output::ExperimentOutput {
    let started = std::time::Instant::now();
    if opts.obs {
        wsflow_obs::set_enabled(true);
    }
    if wsflow_obs::enabled() {
        wsflow_obs::reset();
        crate::obs_diag::spot_check(&opts.params);
    }
    let output = {
        wsflow_obs::span_scope!("phase.experiment");
        f(&opts.params)
    };
    {
        wsflow_obs::span_scope!("phase.emit");
        if print_tables {
            emit(&output, opts);
        } else {
            match output.write_csv(&opts.out_dir) {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("wrote {}", p.display());
                    }
                }
                Err(e) => eprintln!("warning: could not write CSVs: {e}"),
            }
        }
    }
    if wsflow_obs::enabled() {
        write_spans(&opts.out_dir);
    }
    write_manifest(&output.id, opts, started.elapsed().as_secs_f64());
    output
}

/// Write the recorded span buffer as `spans.ndjson` into the output
/// directory — the input `wsflow trace` turns into a Chrome trace.
/// Only called with observability on; never fatal.
fn write_spans(out_dir: &str) {
    let spans = wsflow_obs::registry::spans();
    let nd = match wsflow_obs::spans_ndjson(&spans) {
        Ok(nd) => nd,
        Err(e) => {
            eprintln!("warning: could not serialise spans: {e}");
            return;
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: could not create {out_dir}: {e}");
        return;
    }
    let path = Path::new(out_dir).join("spans.ndjson");
    match std::fs::write(&path, nd) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Write `manifest.json` (plus an `<experiment>_manifest.json` copy, so
/// suite runs keep every experiment's manifest) into the output
/// directory. Always written — provenance is worth having even without
/// metrics; never fatal.
pub fn write_manifest(experiment: &str, opts: &CliOptions, wall_secs: f64) {
    let manifest = wsflow_obs::Manifest::collect(
        experiment,
        opts.params.base_seed,
        wsflow_par::num_threads(),
        wall_secs,
    );
    if let Err(e) = manifest.validate() {
        eprintln!("warning: manifest failed validation, writing anyway: {e}");
    }
    let dir = Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    for path in [
        dir.join("manifest.json"),
        dir.join(format!("{experiment}_manifest.json")),
    ] {
        match manifest.write(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
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
        let opts = parse_vec(&["--quick", "--seeds", "7", "--ops", "11", "--out", "tmp"]).unwrap();
        assert_eq!(opts.params.seeds, 7);
        assert_eq!(opts.params.ops, 11);
        assert_eq!(opts.out_dir, "tmp");
    }

    #[test]
    fn obs_flag() {
        assert!(!parse_vec(&[]).unwrap().obs);
        assert!(parse_vec(&["--obs"]).unwrap().obs);
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(parse_vec(&["--bogus"]).is_err());
        // `WSFLOW_THREADS` is the one worker count.
        assert!(parse_vec(&["--workers", "3"]).is_err());
        assert!(parse_vec(&["--seeds"]).is_err());
        assert!(parse_vec(&["--seeds", "x"]).is_err());
        assert!(parse_vec(&["--help"]).is_err());
    }
}
