//! Scalability sweep: instance size × algorithm × seed (`scale_sweep`).
//!
//! The paper's experiments stop at 19 operations × 5 servers. This
//! experiment pushes the solver stack to 10⁴ operations × 10³ servers
//! (star networks from [`wsflow_workload::scale_instance`]) and compares
//! the flat constructive baseline against the [`Hierarchical`] solver
//! under a fixed 10⁶ logical-step budget — the regime the hierarchical
//! partition-solve-stitch design targets.
//!
//! Budgets are logical, so `scale_sweep.csv` is byte-identical for any
//! `WSFLOW_THREADS` setting and with observability on or off —
//! `tests/golden.rs` checks exactly that. No wall-clock value appears in any column; the
//! evaluator timing on the largest rung is `wsflow bench`'s
//! `eval_scale` row ([`crate::perf`]).

use wsflow_core::{
    Blackboard, DeploymentAlgorithm, FairLoad, Hierarchical, HillClimb, SolveCtx, Termination,
};
use wsflow_cost::Problem;
use wsflow_workload::scale_instance;

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::table::{ms, Table};
use crate::trajectory::TrajectoryRecorder;

/// The fixed logical-step budget per solve (the issue's 10⁶ target).
pub const BUDGET: u64 = 1_000_000;

/// Header of `scale_sweep.csv`.
pub const CSV_HEADER: &str = "instance,ops,servers,algo,budget,seed,steps,cost,termination";

/// Instance sizes swept, `(ops, servers)`, smallest first. Paper-scale
/// parameters get the full ladder up to 10⁴ × 10³; `--quick` keeps the
/// two smallest rungs so the smoke run finishes in seconds.
pub fn sizes(params: &Params) -> Vec<(usize, usize)> {
    if params.ops >= Params::paper().ops {
        vec![(200, 20), (2_000, 200), (10_000, 1_000)]
    } else {
        vec![(60, 6), (200, 20)]
    }
}

/// Seeds per instance size (large instances are expensive; two seeds
/// bound the sweep without losing the trend).
pub fn seeds(params: &Params) -> usize {
    params.seeds.clamp(1, 2)
}

/// The solver suite: the flat constructive baseline, the hierarchical
/// wrapper around it, and the hierarchical wrapper around a budgeted
/// local search (which exercises the delta-probe path inside each
/// cluster as well as at the boundaries).
fn suite() -> Vec<Box<dyn DeploymentAlgorithm + Sync>> {
    vec![
        Box::new(FairLoad),
        Box::new(Hierarchical::new(FairLoad)),
        Box::new(Hierarchical::new(HillClimb::new(FairLoad))),
        Box::new(Blackboard::new(0)),
    ]
}

/// Display names for the suite (`Hierarchical` is generic, so the trait
/// name alone cannot distinguish its two instantiations).
fn suite_names() -> Vec<&'static str> {
    vec![
        "FairLoad",
        "Hier(FairLoad)",
        "Hier(HillClimb)",
        "Blackboard",
    ]
}

/// Run the scale sweep.
pub fn run(params: &Params) -> ExperimentOutput {
    let sizes = sizes(params);
    let seeds = seeds(params);
    let algos = suite();
    let names = suite_names();

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut recorder = TrajectoryRecorder::new();
    let mut table = Table::new(
        format!("Scale sweep — star networks, budget {BUDGET} steps, {seeds} seed(s) per size"),
        &[
            "instance",
            "algorithm",
            "mean_cost_ms",
            "mean_steps",
            "converged",
        ],
    );

    for &(m, n) in &sizes {
        let instance = format!("{m}x{n}");
        for (algo, name) in algos.iter().zip(&names) {
            let mut cost_sum = 0.0f64;
            let mut steps_sum = 0u64;
            let mut converged = 0usize;
            for i in 0..seeds as u64 {
                let seed = params.base_seed + i;
                let sc = scale_instance(m, n, seed);
                let problem =
                    Problem::new(sc.workflow, sc.network).expect("scale instances are valid");
                let mut ctx = SolveCtx::with_budget(BUDGET);
                let out = algo
                    .solve(&problem, &mut ctx)
                    .expect("the scale suite deploys on star networks");
                assert!(
                    out.cost.is_finite(),
                    "{name} produced a non-finite cost on {instance}"
                );
                csv.push_str(&format!(
                    "{instance},{m},{n},{name},{BUDGET},{seed},{},{},{}\n",
                    out.steps, out.cost, out.termination
                ));
                recorder.record(&format!("{instance}/{name}/{seed}"), &ctx);
                cost_sum += out.cost;
                steps_sum += out.steps;
                converged += usize::from(out.termination == Termination::Converged);
            }
            let runs = seeds.max(1) as f64;
            table.push_row(vec![
                instance.clone(),
                name.to_string(),
                ms(cost_sum / runs),
                format!("{:.0}", steps_sum as f64 / runs),
                format!("{converged}/{seeds}"),
            ]);
        }
    }

    let mut out = ExperimentOutput::new("scale_sweep");
    out.tables.push(table);
    out.extra_csvs.push(("scale_sweep.csv".to_string(), csv));
    if !recorder.is_empty() {
        out.obs_csvs
            .push(("trajectory.csv".to_string(), recorder.csv()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_is_complete_and_budgeted() {
        let params = Params::quick();
        let out = run(&params);
        let (name, csv) = &out.extra_csvs[0];
        assert_eq!(name, "scale_sweep.csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        let cells = sizes(&params).len() * suite().len() * seeds(&params);
        assert_eq!(lines.len(), 1 + cells);
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 9, "malformed row: {line}");
            let cost: f64 = cols[7].parse().unwrap();
            assert!(cost.is_finite() && cost > 0.0, "bad cost: {line}");
            let steps: u64 = cols[6].parse().unwrap();
            assert!(steps > 0, "a solve must consume steps: {line}");
            // Constructive blocks are atomic per sub-solve, so the
            // hierarchical solver may overshoot the budget by up to one
            // M×N construction per cluster — in aggregate one full M×N
            // pass plus the repair probes; never unboundedly.
            let (m, n): (u64, u64) = (cols[1].parse().unwrap(), cols[2].parse().unwrap());
            assert!(
                steps <= BUDGET + 2 * m * n,
                "steps {steps} far exceeded budget: {line}"
            );
        }
    }

    #[test]
    fn hierarchical_beats_or_matches_flat_under_budget_at_quick_scale() {
        // Not a strict dominance claim — just that the hierarchical rows
        // exist, solve the same instances, and produce sane costs of the
        // same magnitude as the flat baseline.
        let out = run(&Params::quick());
        let csv = &out.extra_csvs[0].1;
        let cost_of = |algo: &str, instance: &str| -> f64 {
            csv.lines()
                .skip(1)
                .filter(|l| {
                    let c: Vec<&str> = l.split(',').collect();
                    c[0] == instance && c[3] == algo
                })
                .map(|l| l.split(',').nth(7).unwrap().parse::<f64>().unwrap())
                .sum()
        };
        let flat = cost_of("FairLoad", "200x20");
        let hier = cost_of("Hier(FairLoad)", "200x20");
        assert!(flat > 0.0 && hier > 0.0);
        assert!(
            hier <= flat * 4.0 && flat <= hier * 4.0,
            "costs diverged wildly: flat {flat} vs hier {hier}"
        );
    }
}
