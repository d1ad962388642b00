//! # wsflow-obs — zero-overhead observability
//!
//! A dependency-free (vendored-shim-only) measurement substrate for the
//! whole workspace: **metrics** (counters, gauges, fixed-bucket
//! histograms) and lightweight **spans** with monotonic timing, recorded
//! into a run-scoped [`Recorder`], an NDJSON exporter, and **run
//! manifests** (git rev, seed, thread count, wall time, per-phase
//! timings, metric snapshot) written next to experiment results.
//!
//! ## Recorders
//!
//! Metrics belong to a run, not to the process. A [`Recorder`] owns one
//! registry; [`Recorder::install`] makes it current on the calling
//! thread for the life of the returned guard, and every free recording
//! function ([`counter_add`], [`observe`], [`span()`], …) writes to the
//! current recorder. [`capture`] and [`Context::adopt`] carry the
//! recorder, and the open span, into spawned threads. Whoever owns a
//! run decides whether it is recorded: the `wsflow` CLI installs one
//! recorder for a command given `--obs` (or `WSFLOW_OBS=1`), and the
//! harness gives every experiment it runs a recorder of its own. Library
//! code reads no environment variable for this, and runs with and
//! without a recorder can share a process.
//!
//! ## The overhead contract
//!
//! A thread records nothing until a recorder is installed on it. Every
//! recording entry point early-returns on a single thread-local load
//! when there is none ([`enabled`]), so an unrecorded run does no
//! formatting, no locking, and no allocation — instrumented hot paths
//! additionally batch into plain local integers ([`LocalHistogram`],
//! algorithm-local counters) and flush **once** per run, so the
//! per-event cost without a recorder is at most one integer add. The
//! flat evaluator is entirely uninstrumented, so the `eval_flat_batch`
//! row of `wsflow bench`, gated by CI's `bench-gate` job, serves as the
//! overhead smoke check.
//!
//! ## Naming convention
//!
//! Dotted lowercase paths, subsystem first: `exhaustive.nodes_expanded`,
//! `bnb.prunes`, `delta.probes`, `par.tasks`, `sim.queue_depth`,
//! `span.<name>.secs`. Phase spans use the `phase.` prefix and are
//! surfaced as the manifest's per-phase timing table. A name means the
//! same thing in every recorder, so a manifest's metrics are one run's
//! values under the names below.
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

pub mod env;
pub mod manifest;
pub mod ndjson;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod trace;

pub use env::{env_knob, env_port, env_positive_usize, warn_once};
pub use manifest::{git_rev, Manifest, PhaseTiming};
pub use ndjson::{parse_spans_ndjson, snapshot_ndjson, spans_ndjson};
pub use recorder::{capture, enabled, Context, ContextGuard, Recorder};
#[doc(hidden)]
pub use recorder::{reset, set_enabled};
pub use registry::{
    counter_add, gauge_set, merge_histogram, observe, snapshot, spans, BucketSnap, CounterSnap,
    GaugeSnap, HistSnap, Histogram, LocalHistogram, Snapshot,
};
pub use span::{instant, span, span_with, SpanEvent, SpanGuard};
pub use trace::{chrome_trace, chrome_trace_wall, validate_spans, TraceStats};

/// Open a timed span for the enclosing scope:
/// `wsflow_obs::span_scope!("exhaustive.scan");` records
/// `span.exhaustive.scan.secs` when the scope ends. No-op without a
/// recorder.
#[macro_export]
macro_rules! span_scope {
    ($name:expr) => {
        let _wsflow_obs_span_guard = $crate::span($name);
    };
}
