//! Run manifests: a `manifest.json` written next to every experiment's
//! results, recording provenance (git rev, seed, thread count) and —
//! when observability is enabled — per-phase timings and a full metric
//! snapshot.
//!
//! Schema `wsflow-manifest/1`:
//!
//! ```json
//! {
//!   "schema": "wsflow-manifest/1",
//!   "experiment": "fig6",
//!   "git_rev": "1a06cf9d2e4b",
//!   "seed": 2007,
//!   "threads": 8,
//!   "wall_secs": 1.25,
//!   "phases": [{"name": "search", "secs": 0.81}, ...],
//!   "metrics": {"counters": [...], "gauges": [...], "histograms": [...]}
//! }
//! ```
//!
//! Manifests are written unconditionally (provenance is always worth
//! having); `phases` and `metrics` are simply empty when observability
//! is disabled.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::registry::Snapshot;

/// Identifier of the manifest schema this crate writes.
pub const SCHEMA: &str = "wsflow-manifest/1";

/// Wall time attributed to one named phase (aggregated over all spans
/// named `phase.<name>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (the span name with its `phase.` prefix stripped).
    pub name: String,
    /// Total seconds spent in the phase.
    pub secs: f64,
}

/// A run manifest — see the module docs for the JSON schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema identifier, always [`SCHEMA`].
    pub schema: String,
    /// Experiment name (e.g. `fig6`).
    pub experiment: String,
    /// Short git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Worker thread count the run was configured with.
    pub threads: usize,
    /// Total wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Per-phase wall time, in first-appearance order.
    pub phases: Vec<PhaseTiming>,
    /// Metric snapshot (empty when observability is disabled).
    pub metrics: Snapshot,
}

/// Short git revision (`git rev-parse --short=12 HEAD`) of the current
/// working directory, or `"unknown"` when git is unavailable.
pub fn git_rev() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let rev = String::from_utf8_lossy(&o.stdout).trim().to_string();
            if rev.is_empty() {
                "unknown".to_string()
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Aggregate `phase.*` spans into per-phase totals, preserving
/// first-appearance order.
pub fn phases_from_spans(spans: &[crate::span::SpanEvent]) -> Vec<PhaseTiming> {
    let mut phases: Vec<PhaseTiming> = Vec::new();
    for s in spans {
        let Some(name) = s.name.strip_prefix("phase.") else {
            continue;
        };
        match phases.iter_mut().find(|p| p.name == name) {
            Some(p) => p.secs += s.secs(),
            None => phases.push(PhaseTiming {
                name: name.to_string(),
                secs: s.secs(),
            }),
        }
    }
    phases
}

impl Manifest {
    /// Build a manifest from the current registry state.
    pub fn collect(experiment: &str, seed: u64, threads: usize, wall_secs: f64) -> Self {
        Self {
            schema: SCHEMA.to_string(),
            experiment: experiment.to_string(),
            git_rev: git_rev(),
            seed,
            threads,
            wall_secs: if wall_secs.is_finite() {
                wall_secs
            } else {
                0.0
            },
            phases: phases_from_spans(&crate::registry::spans()),
            metrics: crate::registry::snapshot(),
        }
    }

    /// Structural validation (the check CI runs on emitted manifests).
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!(
                "unknown schema {:?} (expected {SCHEMA:?})",
                self.schema
            ));
        }
        if self.experiment.is_empty() {
            return Err("empty experiment name".to_string());
        }
        if self.git_rev.is_empty() {
            return Err("empty git_rev (use \"unknown\")".to_string());
        }
        if self.threads == 0 {
            return Err("threads must be >= 1".to_string());
        }
        if !self.wall_secs.is_finite() || self.wall_secs < 0.0 {
            return Err(format!(
                "wall_secs {} is not a finite, non-negative number",
                self.wall_secs
            ));
        }
        for p in &self.phases {
            if p.name.is_empty() {
                return Err("phase with empty name".to_string());
            }
            if !p.secs.is_finite() || p.secs < 0.0 {
                return Err(format!("phase {:?} has invalid secs {}", p.name, p.secs));
            }
        }
        for h in &self.metrics.histograms {
            let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
            if bucket_total != h.count {
                return Err(format!(
                    "histogram {:?}: bucket counts sum to {bucket_total} but count is {}",
                    h.name, h.count
                ));
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Write the manifest as pretty-printed JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json + "\n")
    }

    /// Load and parse a manifest from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Human-readable run summary (the body of `wsflow report`): the
    /// header, per-phase timings, then every metric exactly once, in one
    /// section per name prefix. The layout follows from metric names
    /// alone — see the crate docs' naming convention.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run {experiment}  (rev {rev}, seed {seed}, {threads} thread{s}, {wall:.3}s wall)",
            experiment = self.experiment,
            rev = self.git_rev,
            seed = self.seed,
            threads = self.threads,
            s = if self.threads == 1 { "" } else { "s" },
            wall = self.wall_secs,
        );
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphases:");
            for p in &self.phases {
                let share = if self.wall_secs > 0.0 {
                    100.0 * p.secs / self.wall_secs
                } else {
                    0.0
                };
                let _ = writeln!(out, "  {:<24} {:>10.4}s  {:>5.1}%", p.name, p.secs, share);
            }
        }
        let m = &self.metrics;
        let mut sibling_sums: HashMap<&str, u64> = HashMap::new();
        for c in &m.counters {
            if let Some(group) = sibling_group(&c.name) {
                *sibling_sums.entry(group).or_default() += c.value;
            }
        }
        let mut sections: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut row = |name: &str, cells: String| {
            let prefix = name.split_once('.').map_or(name, |(p, _)| p);
            sections
                .entry(prefix.to_string())
                .or_default()
                .push(format!("  {name:<40} {cells}"));
        };
        for c in &m.counters {
            let share = sibling_group(&c.name).map_or(String::new(), |g| {
                let total = sibling_sums[g];
                let pct = if total > 0 {
                    100.0 * c.value as f64 / total as f64
                } else {
                    0.0
                };
                format!("  {pct:>5.1}%")
            });
            row(&c.name, format!("{:>12}{share}", c.value));
        }
        for g in &m.gauges {
            row(&g.name, format!("{:>12}", with_unit(&g.name, g.value)));
        }
        for h in &m.histograms {
            let q = |v| with_unit(&h.name, v);
            row(
                &h.name,
                format!(
                    "{:>12} samples, p50 {}, p90 {}, p99 {}, max {}",
                    h.count,
                    q(h.p50),
                    q(h.p90),
                    q(h.p99),
                    q(h.max)
                ),
            );
        }
        for (prefix, rows) in &sections {
            let _ = writeln!(out, "\n{prefix}:");
            for r in rows {
                let _ = writeln!(out, "{r}");
            }
        }
        if self.phases.is_empty() && self.metrics.is_empty() {
            let _ = writeln!(
                out,
                "\n(no metrics recorded — run with --obs or WSFLOW_OBS=1 to populate)"
            );
        }
        out
    }
}

/// The sibling group of a counter of three or more segments: its name
/// up to the last segment.
fn sibling_group(name: &str) -> Option<&str> {
    name.rsplit_once('.')
        .map(|(group, _)| group)
        .filter(|group| group.contains('.'))
}

/// Unit suffixes of metric names, as `(suffix, before, after)`: the
/// rendered value is wrapped in `before` and `after`.
const UNITS: [(&str, &str, &str); 5] = [
    ("_us", "", "µs"),
    ("_ns", "", "ns"),
    ("_secs", "", "s"),
    (".secs", "", "s"),
    ("_dollars", "$", ""),
];

/// `v` in the unit `name`'s suffix declares (a plain number otherwise).
fn with_unit(name: &str, v: f64) -> String {
    let (before, after) = UNITS
        .iter()
        .find(|(suffix, ..)| name.ends_with(suffix))
        .map_or(("", ""), |&(_, b, a)| (b, a));
    format!("{before}{}{after}", significant(v))
}

/// `v` to four significant digits with trailing zeros trimmed, so a
/// nonzero value never prints as zero; integers print whole.
fn significant(v: f64) -> String {
    let magnitude = v.abs().log10().floor();
    if !magnitude.is_finite() || v.fract() == 0.0 {
        return format!("{v}");
    }
    if magnitude < -9.0 {
        return format!("{v:.3e}");
    }
    let decimals = (3.0 - magnitude).max(0.0) as usize;
    let s = format!("{v:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;

    fn sample() -> Manifest {
        Manifest {
            schema: SCHEMA.to_string(),
            experiment: "fig6".to_string(),
            git_rev: "abcdef123456".to_string(),
            seed: 2007,
            threads: 4,
            wall_secs: 1.5,
            phases: vec![PhaseTiming {
                name: "search".to_string(),
                secs: 1.0,
            }],
            metrics: Snapshot::default(),
        }
    }

    #[test]
    fn json_round_trip_preserves_manifest() {
        let m = sample();
        let json = m.to_json().unwrap();
        assert!(json.contains("\"schema\": \"wsflow-manifest/1\""));
        // Integral floats keep a trailing .0 in the manifest too.
        assert!(json.contains("\"secs\": 1.0"), "{json}");
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn validate_catches_structural_errors() {
        assert!(sample().validate().is_ok());
        let mut bad = sample();
        bad.schema = "wsflow-manifest/999".to_string();
        assert!(bad.validate().unwrap_err().contains("unknown schema"));
        let mut bad = sample();
        bad.threads = 0;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.wall_secs = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.metrics.histograms.push(crate::registry::HistSnap {
            name: "h".to_string(),
            count: 3,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            buckets: vec![crate::registry::BucketSnap { le: 1.0, count: 1 }],
        });
        assert!(bad.validate().unwrap_err().contains("bucket counts"));
    }

    #[test]
    fn phases_aggregate_in_first_appearance_order() {
        let span = |name: &str, thread: u64, span_id: u64, dur_us: u64| SpanEvent {
            name: name.to_string(),
            thread,
            span_id,
            parent_id: 0,
            idx: 0,
            start_us: 0,
            dur_us,
            instant: false,
        };
        let spans = vec![
            span("phase.search", 0, 1, 1_000_000),
            span("phase.sim", 0, 2, 500_000),
            span("not-a-phase", 0, 3, 9),
            span("phase.search", 1, 4, 250_000),
        ];
        let phases = phases_from_spans(&spans);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "search");
        assert!((phases[0].secs - 1.25).abs() < 1e-9);
        assert_eq!(phases[1].name, "sim");
    }

    fn hist(name: &str, p50: f64) -> crate::registry::HistSnap {
        crate::registry::HistSnap {
            name: name.to_string(),
            count: 5,
            sum: 5.0 * p50,
            min: p50,
            max: 2.0 * p50,
            p50,
            p90: p50,
            p99: 2.0 * p50,
            buckets: vec![crate::registry::BucketSnap {
                le: f64::INFINITY,
                count: 5,
            }],
        }
    }

    /// The section header a line of the report falls under.
    fn section_of<'a>(text: &'a str, line: &str) -> &'a str {
        let at = text.find(line).unwrap();
        text[..at]
            .lines()
            .rev()
            .find(|l| !l.starts_with(' ') && l.ends_with(':'))
            .unwrap()
    }

    #[test]
    fn render_prints_every_metric_once_under_its_prefix() {
        let counters = [
            ("bb.accepts.fairload", 3u64),
            ("bb.accepts.router", 1),
            ("bb.generations", 6),
            ("bb.proposals.fairload", 4),
            ("bnb.runs", 2),
            ("delta.resyncs", 1),
            ("dyn.migrations", 17),
            ("exhaustive.runs", 1),
            ("geo.solves", 48),
            ("par.jobs", 9),
            ("sim.runs", 3),
            ("solver.runs", 10),
            ("solver.termination.budget_exhausted", 3),
            ("solver.termination.converged", 7),
            ("svc.admitted", 225),
            ("trajectory.solves", 8),
        ];
        let gauges = [("dyn.availability", 0.93), ("geo.region_share.r0", 0.4125)];
        let hists = [
            ("geo.money_dollars", 0.35),
            ("solver.steps_to_incumbent", 60.0),
            ("span.bb.source.secs", 4e-6),
            ("svc.ttfi_us", 1_500.0),
        ];
        let mut m = sample();
        for (name, value) in counters {
            m.metrics.counters.push(crate::registry::CounterSnap {
                name: name.to_string(),
                value,
            });
        }
        for (name, value) in gauges {
            m.metrics.gauges.push(crate::registry::GaugeSnap {
                name: name.to_string(),
                value,
            });
        }
        for (name, p50) in hists {
            m.metrics.histograms.push(hist(name, p50));
        }
        let text = m.render();
        assert!(text.contains("phases:"), "{text}");
        let names = counters
            .iter()
            .map(|c| c.0)
            .chain(gauges.iter().map(|g| g.0))
            .chain(hists.iter().map(|h| h.0));
        for name in names {
            let line = format!("  {name} ");
            assert_eq!(text.matches(&line).count(), 1, "{name} once:\n{text}");
            let prefix = name.split('.').next().unwrap();
            assert_eq!(section_of(&text, &line), format!("{prefix}:"), "{text}");
        }
        let row = |name: &str| {
            let at = text.find(&format!("  {name} ")).unwrap();
            text[at..].lines().next().unwrap().to_string()
        };
        // Shares are of the sibling sum: 7 of 10 runs converged, and 3 of
        // the 4 accepted proposals are fairload's.
        assert!(row("solver.termination.converged").ends_with(" 70.0%"));
        assert!(row("bb.accepts.fairload").ends_with(" 75.0%"));
        assert!(row("bb.proposals.fairload").ends_with(" 100.0%"));
        assert!(!row("solver.runs").contains('%'));
        // Units follow the suffix, and small values keep their digits.
        assert!(row("span.bb.source.secs").contains("p50 0.000004s,"));
        assert!(row("svc.ttfi_us").contains("p50 1500µs,"));
        assert!(row("geo.money_dollars").contains("p50 $0.35,"));
        assert!(row("geo.region_share.r0").ends_with(" 0.4125"));
        assert!(row("solver.steps_to_incumbent").contains("5 samples, p50 60,"));

        let empty = Manifest {
            phases: Vec::new(),
            ..sample()
        }
        .render();
        assert!(empty.contains("no metrics recorded"), "{empty}");
        assert_eq!(empty.lines().filter(|l| l.ends_with(':')).count(), 0);
    }

    #[test]
    fn significant_never_rounds_a_nonzero_value_to_zero() {
        for (v, want) in [
            (0.0, "0"),
            (27.0, "27"),
            (1508.5714, "1509"),
            (5.29434, "5.294"),
            (0.0400, "0.04"),
            (4e-6, "0.000004"),
            (2.5e-12, "2.500e-12"),
            (-0.125, "-0.125"),
        ] {
            assert_eq!(significant(v), want);
        }
    }
}
