//! Incumbent trajectory recording.
//!
//! The anytime solver core (DESIGN.md §11) streams every incumbent
//! improvement through [`SolveCtx::offer`]; with observability on each
//! improvement is captured as a [`wsflow_core::TrajectoryPoint`]
//! `(logical_step, elapsed_us, cost)`. The [`TrajectoryRecorder`]
//! collects those per-solve curves into one `trajectory.csv` and
//! derives the headline anytime metrics as `wsflow-obs` histograms:
//!
//! * `trajectory.time_to_first_incumbent_secs` — wall time until the
//!   solver produced *any* feasible deployment;
//! * `trajectory.steps_to_first_incumbent` — the logical-step cost of
//!   that first incumbent;
//! * `trajectory.steps_to_p99_quality` — the first logical step at
//!   which the incumbent was already within 1% of the solve's final
//!   cost (how quickly the curve flattens).
//!
//! The CSV contains wall-clock microseconds, so it must flow through
//! [`ExperimentOutput::obs_csvs`](crate::output::ExperimentOutput) —
//! never `extra_csvs`, whose contents CI compares byte-for-byte across
//! thread counts and obs modes. Everything here is a no-op while
//! observability is disabled.

use wsflow_core::SolveCtx;

/// Header of `trajectory.csv`.
pub const CSV_HEADER: &str = "solve,logical_step,elapsed_us,cost";

/// Relative band around the final cost that counts as "p99 quality".
const QUALITY_BAND: f64 = 1.01;

/// Accumulates per-solve incumbent trajectories for one experiment.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryRecorder {
    rows: Vec<(String, u64, u64, f64)>,
    solves: usize,
}

impl TrajectoryRecorder {
    /// New, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the trajectory a finished solve left on `ctx`, labelled
    /// `label` (convention: `algo/budget/seed`). No-op when
    /// observability is off or the solve produced no incumbent.
    pub fn record(&mut self, label: &str, ctx: &SolveCtx<'_>) {
        if !wsflow_obs::enabled() {
            return;
        }
        let traj = ctx.trajectory();
        let Some((first, last)) = traj.first().zip(traj.last()) else {
            return;
        };
        self.solves += 1;
        wsflow_obs::counter_add("trajectory.solves", 1);
        wsflow_obs::observe(
            "trajectory.time_to_first_incumbent_secs",
            first.elapsed_us as f64 / 1e6,
        );
        wsflow_obs::observe("trajectory.steps_to_first_incumbent", first.step as f64);
        let target = last.cost * QUALITY_BAND;
        let steps_to_p99 = traj
            .iter()
            .find(|p| p.cost <= target)
            .map_or(last.step, |p| p.step);
        wsflow_obs::observe("trajectory.steps_to_p99_quality", steps_to_p99 as f64);

        let label = label.replace(',', ";");
        self.rows.extend(
            traj.iter()
                .map(|p| (label.clone(), p.step, p.elapsed_us, p.cost)),
        );
    }

    /// Whether any solve contributed a trajectory.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Solves that contributed at least one incumbent.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Render `trajectory.csv`.
    pub fn csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for (label, step, elapsed_us, cost) in &self.rows {
            out.push_str(&format!("{label},{step},{elapsed_us},{cost}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_core::{DeploymentAlgorithm, FairLoad, HillClimb};
    use wsflow_cost::Problem;
    use wsflow_model::MbitsPerSec;
    use wsflow_workload::{generate, Configuration, ExperimentClass};

    fn solve_once(seed: u64) -> (TrajectoryRecorder, usize) {
        let class = ExperimentClass::class_c();
        let sc = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            9,
            3,
            &class,
            seed,
        );
        let problem = Problem::new(sc.workflow, sc.network).unwrap();
        let mut ctx = SolveCtx::unlimited();
        HillClimb::new(FairLoad).solve(&problem, &mut ctx).unwrap();
        let points = ctx.trajectory().len();
        let mut rec = TrajectoryRecorder::new();
        rec.record("HillClimb/unlimited/2007", &ctx);
        (rec, points)
    }

    #[test]
    fn noop_while_obs_is_off() {
        let (rec, points) = solve_once(2007);
        assert_eq!(points, 0, "obs off: the ctx records no trajectory");
        assert!(rec.is_empty());
        assert_eq!(rec.solves(), 0);
        assert_eq!(rec.csv(), format!("{CSV_HEADER}\n"));
    }

    #[test]
    fn records_rows_and_anytime_metrics_when_obs_is_on() {
        let recorder = wsflow_obs::Recorder::new();
        let (rec, points) = {
            let _obs = recorder.install();
            solve_once(2007)
        };
        let snap = recorder.snapshot();

        assert!(points > 0, "a hill climb must improve at least once");
        assert_eq!(rec.solves(), 1);
        let csv = rec.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + points);
        // Rows are ordered by step, with non-increasing cost.
        let mut prev_step = 0u64;
        let mut prev_cost = f64::INFINITY;
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols[0], "HillClimb/unlimited/2007");
            let step: u64 = cols[1].parse().unwrap();
            let cost: f64 = cols[3].parse().unwrap();
            assert!(step >= prev_step);
            assert!(cost < prev_cost, "each incumbent must improve");
            prev_step = step;
            prev_cost = cost;
        }

        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
        };
        assert_eq!(hist("trajectory.time_to_first_incumbent_secs").count, 1);
        assert_eq!(hist("trajectory.steps_to_first_incumbent").count, 1);
        let p99 = hist("trajectory.steps_to_p99_quality");
        assert_eq!(p99.count, 1);
        // steps-to-p99 can never exceed the final improvement's step.
        assert!(p99.max <= prev_step as f64 + 1e-9);
        let solves = snap
            .counters
            .iter()
            .find(|c| c.name == "trajectory.solves")
            .expect("solves counter");
        assert_eq!(solves.value, 1);
    }

    #[test]
    fn labels_with_commas_stay_single_column() {
        let recorder = wsflow_obs::Recorder::new();
        let _obs = recorder.install();
        let class = ExperimentClass::class_c();
        let sc = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            9,
            3,
            &class,
            2007,
        );
        let problem = Problem::new(sc.workflow, sc.network).unwrap();
        let mut ctx = SolveCtx::unlimited();
        HillClimb::new(FairLoad).solve(&problem, &mut ctx).unwrap();
        let mut rec = TrajectoryRecorder::new();
        rec.record("algo,with,commas", &ctx);
        for line in rec.csv().lines().skip(1) {
            assert_eq!(line.split(',').count(), 4, "row grew columns: {line}");
            assert!(line.starts_with("algo;with;commas,"));
        }
    }
}
