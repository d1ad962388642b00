//! # wsflow-obs — zero-overhead observability
//!
//! A dependency-free (vendored-shim-only) measurement substrate for the
//! whole workspace: atomic-flag-gated **metrics** (counters, gauges,
//! fixed-bucket histograms) behind a global registry, lightweight
//! **spans** with monotonic timing and an NDJSON exporter, and **run
//! manifests** (git rev, seed, thread count, wall time, per-phase
//! timings, metric snapshot) written next to experiment results.
//!
//! ## The overhead contract
//!
//! Observability is **off by default** and enabled only via the
//! `WSFLOW_OBS=1` environment variable or [`set_enabled`] (the harness's
//! `--obs` flag). Every recording entry point early-returns on a single
//! relaxed atomic load when disabled, so a disabled build does no
//! formatting, no locking, and no allocation — instrumented hot paths
//! additionally batch into plain local integers ([`LocalHistogram`],
//! algorithm-local counters) and flush **once** per run, so the
//! per-event cost with observability disabled is at most one integer
//! add. The flat evaluator is entirely uninstrumented, so the
//! `eval_flat_batch` row of `wsflow bench`, gated by CI's `bench-gate`
//! job, serves as the overhead smoke check.
//!
//! ## Naming convention
//!
//! Dotted lowercase paths, subsystem first: `exhaustive.nodes_expanded`,
//! `bnb.prunes`, `delta.probes`, `par.tasks`, `sim.queue_depth`,
//! `span.<name>.secs`. Phase spans use the `phase.` prefix and are
//! surfaced as the manifest's per-phase timing table.
//!
//! The name is all [`Manifest::render`] (the body of `wsflow report`)
//! reads, so a new metric needs no report code. Its contract:
//!
//! - **Prefix → section.** Every counter, gauge and histogram is printed
//!   exactly once, under a header named by its first dotted segment
//!   (`bb:`, `solver:`, `span:`, …). Sections come in name order; within
//!   one, counters, then gauges, then histograms.
//! - **Suffix → unit.** `_us` is microseconds, `_ns` nanoseconds,
//!   `_secs` or `.secs` seconds and `_dollars` dollars; any other name
//!   is a plain count or ratio. Values print to four significant digits,
//!   so a nonzero value never prints as zero.
//! - **Siblings → shares.** A counter of three or more segments also
//!   shows its share of the sum over its siblings, the counters that
//!   share its name up to the last segment: `solver.termination.<why>`
//!   as a share of all runs, `bb.accepts.<source>` of all accepts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

pub mod env;
pub mod manifest;
pub mod ndjson;
pub mod registry;
pub mod span;
pub mod trace;

pub use env::{env_knob, env_port, env_positive_usize, warn_once};
pub use manifest::{git_rev, Manifest, PhaseTiming};
pub use ndjson::{parse_spans_ndjson, snapshot_ndjson, spans_ndjson};
pub use registry::{
    counter_add, gauge_set, merge_histogram, observe, reset, snapshot, BucketSnap, CounterSnap,
    GaugeSnap, HistSnap, Histogram, LocalHistogram, Snapshot,
};
pub use span::{
    adopt_parent, current_parent, instant, span, span_with, ParentGuard, SpanEvent, SpanGuard,
};
pub use trace::{chrome_trace, chrome_trace_wall, validate_spans, TraceStats};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Interpret an observability/env boolean. `None` means "unset".
///
/// Accepted spellings (case-insensitive): `1 / true / on / yes` enable,
/// `0 / false / off / no` and the empty string disable. Anything else is
/// an error carrying the offending value, so callers can warn instead of
/// failing silently.
pub fn parse_bool_env(raw: Option<&str>) -> Result<Option<bool>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" | "no" => Ok(Some(false)),
        "1" | "true" | "on" | "yes" => Ok(Some(true)),
        _ => Err(raw.to_string()),
    }
}

fn init_from_env() {
    ENV_INIT.call_once(
        || match parse_bool_env(std::env::var("WSFLOW_OBS").ok().as_deref()) {
            Ok(Some(true)) => ENABLED.store(true, Ordering::Relaxed),
            Ok(_) => {}
            Err(bad) => eprintln!(
                "warning: ignoring unparseable WSFLOW_OBS={bad:?} \
                 (expected 1/0/true/false/on/off); observability stays disabled"
            ),
        },
    );
}

/// `true` if observability is on (env `WSFLOW_OBS` or [`set_enabled`]).
///
/// After the one-time environment read this is a single relaxed atomic
/// load — cheap enough to guard every recording call site.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically switch observability on or off (the `--obs` flag).
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Open a timed span for the enclosing scope:
/// `wsflow_obs::span_scope!("exhaustive.scan");` records
/// `span.exhaustive.scan.secs` when the scope ends. No-op when disabled.
#[macro_export]
macro_rules! span_scope {
    ($name:expr) => {
        let _wsflow_obs_span_guard = $crate::span($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bool_env_accepts_documented_spellings() {
        assert_eq!(parse_bool_env(None), Ok(None));
        for on in ["1", "true", "TRUE", "on", "yes", " 1 "] {
            assert_eq!(parse_bool_env(Some(on)), Ok(Some(true)), "{on:?}");
        }
        for off in ["", "0", "false", "off", "No"] {
            assert_eq!(parse_bool_env(Some(off)), Ok(Some(false)), "{off:?}");
        }
        assert_eq!(parse_bool_env(Some("2")), Err("2".to_string()));
        assert_eq!(parse_bool_env(Some("maybe")), Err("maybe".to_string()));
    }

    #[test]
    fn toggling_works() {
        let _guard = crate::registry::test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
