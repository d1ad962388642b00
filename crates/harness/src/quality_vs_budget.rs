//! Solution quality as a function of the logical-step budget
//! (`quality_vs_budget`).
//!
//! The anytime solver core (DESIGN.md §11) lets any search be cut off
//! after a fixed number of logical steps — evaluator probes, search
//! nodes, samples — and still return its best incumbent. This
//! experiment sweeps that budget over four search-style solvers on
//! class-C Line–Bus scenarios and reports the quality/effort frontier:
//! per (algorithm, budget, seed) the incumbent's combined cost, the
//! steps actually consumed, and how the solve terminated.
//!
//! Budgets are logical, so `quality_vs_budget.csv` is byte-identical
//! for any `WSFLOW_THREADS` setting and with observability on or off —
//! CI checks exactly that. No wall-clock value appears in any column.

use wsflow_core::{
    Blackboard, BlackboardStats, BranchAndBound, DeploymentAlgorithm, FairLoad, HillClimb,
    Portfolio, SimulatedAnnealing, SolveCtx, Termination,
};
use wsflow_cost::Problem;
use wsflow_workload::{generate, Configuration, ExperimentClass};

use crate::dyn_policies::budget_label;
use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::table::{ms, Table};
use crate::trajectory::TrajectoryRecorder;

/// Step budgets swept, smallest first (`None` = unlimited).
pub const BUDGETS: [Option<u64>; 4] = [Some(100), Some(1_000), Some(10_000), None];

/// Header of `quality_vs_budget.csv`.
pub const CSV_HEADER: &str = "algo,budget,seed,steps,cost,termination";

/// Cap on workflow size so the unlimited BranchAndBound point stays
/// tractable even under paper-scale parameters.
const MAX_OPS: usize = 12;

/// The solver suite under the budget sweep: the portfolio of
/// constructive greedies, the cooperative blackboard, two refiners,
/// and exact search. BnB and the blackboard fan out over
/// `WSFLOW_THREADS` workers, so the run also exercises the
/// deterministic budget split across subtrees and generations.
fn suite(seed: u64) -> Vec<Box<dyn DeploymentAlgorithm>> {
    vec![
        Box::new(Portfolio::new(seed)),
        Box::new(Blackboard::new(seed)),
        Box::new(HillClimb::new(FairLoad)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(BranchAndBound::new()),
    ]
}

/// Lowercase alphanumeric slug matching the `bb.*` metric suffixes.
fn slug(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Per-source tallies accumulated over every blackboard cell:
/// `(name, proposals, accepts, cancellations)` in canonical order.
type WinShares = Vec<(String, u64, u64, u64)>;

fn merge_stats(win: &mut WinShares, stats: &BlackboardStats) {
    if win.is_empty() {
        win.extend(
            stats
                .sources
                .iter()
                .map(|s| (s.name.clone(), 0u64, 0u64, 0u64)),
        );
    }
    for (w, s) in win.iter_mut().zip(&stats.sources) {
        debug_assert_eq!(w.0, s.name, "source order is canonical");
        w.1 += s.proposals;
        w.2 += s.accepts;
        w.3 += u64::from(s.cancelled);
    }
}

/// Run the quality-vs-budget sweep.
pub fn run(params: &Params) -> ExperimentOutput {
    let class = ExperimentClass::class_c();
    let bus = params.bus_speeds[0];
    let n = params.server_counts[0];
    let ops = params.ops.min(MAX_OPS);

    let names: Vec<String> = suite(0).iter().map(|a| a.name().to_string()).collect();
    // Per (algo, budget): cost sum, steps sum, converged count, runs.
    let mut agg = vec![(0.0f64, 0u64, 0usize, 0usize); names.len() * BUDGETS.len()];
    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut recorder = TrajectoryRecorder::new();
    let mut row = 0u64;
    let mut win: WinShares = WinShares::new();

    for i in 0..params.seeds as u64 {
        let seed = params.base_seed + i;
        let sc = generate(Configuration::LineBus(bus), ops, n, &class, seed);
        let problem = Problem::new(sc.workflow, sc.network).expect("generated scenarios are valid");
        for (ai, algo) in suite(seed).iter().enumerate() {
            for (bi, &budget) in BUDGETS.iter().enumerate() {
                // One span per solve; the row ordinal keeps (name, idx)
                // unique so incumbent instants parent unambiguously.
                let solve_span = wsflow_obs::span_with("qvb.solve", row);
                row += 1;
                let mut ctx = SolveCtx::with_budget_opt(budget);
                // The blackboard goes through `solve_stats` so its
                // per-source tallies feed the win-share table; the
                // outcome is identical to its plain `solve`.
                let out = if algo.name() == "Blackboard" {
                    let (out, stats) = Blackboard::new(seed)
                        .solve_stats(&problem, &mut ctx)
                        .expect("the suite deploys on Line–Bus");
                    merge_stats(&mut win, &stats);
                    out
                } else {
                    algo.solve(&problem, &mut ctx)
                        .expect("the suite deploys on Line–Bus")
                };
                drop(solve_span);
                recorder.record(
                    &format!("{}/{}/{}", algo.name(), budget_label(budget), seed),
                    &ctx,
                );
                csv.push_str(&format!(
                    "{},{},{},{},{},{}\n",
                    algo.name(),
                    budget_label(budget),
                    seed,
                    out.steps,
                    out.cost,
                    out.termination
                ));
                let cell = &mut agg[ai * BUDGETS.len() + bi];
                cell.0 += out.cost;
                cell.1 += out.steps;
                cell.2 += usize::from(out.termination == Termination::Converged);
                cell.3 += 1;
            }
        }
    }

    let mut table = Table::new(
        format!(
            "Quality vs budget — Line–Bus, M={ops}, N={n}, bus {} Mbps, {} runs per cell",
            bus.value(),
            params.seeds
        ),
        &[
            "algorithm",
            "budget",
            "mean_cost_ms",
            "mean_steps",
            "converged",
        ],
    );
    for (ai, name) in names.iter().enumerate() {
        for (bi, &budget) in BUDGETS.iter().enumerate() {
            let (cost_sum, steps_sum, converged, runs) = agg[ai * BUDGETS.len() + bi];
            let runs_f = runs.max(1) as f64;
            table.push_row(vec![
                name.clone(),
                budget_label(budget),
                ms(cost_sum / runs_f),
                format!("{:.0}", steps_sum as f64 / runs_f),
                format!("{converged}/{runs}"),
            ]);
        }
    }

    // Per-source win shares over every blackboard cell, appended to the
    // same CSV as pseudo-rows (`termination = win_share`; budget/seed
    // are `all`, steps carries the proposal count, cost the share).
    let total_accepts: u64 = win.iter().map(|w| w.2).sum();
    let mut share_table = Table::new(
        "Blackboard win shares — accepted proposals per knowledge source, all cells".to_string(),
        &[
            "source",
            "proposals",
            "accepts",
            "win_share",
            "cancellations",
        ],
    );
    for (name, proposals, accepts, cancellations) in &win {
        let share = if total_accepts == 0 {
            0.0
        } else {
            *accepts as f64 / total_accepts as f64
        };
        csv.push_str(&format!(
            "Blackboard:{},all,all,{},{:.4},win_share\n",
            slug(name),
            proposals,
            share
        ));
        share_table.push_row(vec![
            name.clone(),
            proposals.to_string(),
            accepts.to_string(),
            format!("{share:.4}"),
            cancellations.to_string(),
        ]);
    }

    let mut out = ExperimentOutput::new("quality_vs_budget");
    out.tables.push(table);
    out.tables.push(share_table);
    out.extra_csvs
        .push(("quality_vs_budget.csv".to_string(), csv));
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
    fn quick_grid_is_complete_and_budget_monotone() {
        let params = Params::quick();
        let out = run(&params);
        assert_eq!(out.extra_csvs.len(), 1);
        let (name, csv) = &out.extra_csvs[0];
        assert_eq!(name, "quality_vs_budget.csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        let cells = suite(0).len() * BUDGETS.len();
        // Grid rows plus one win-share pseudo-row per knowledge source.
        let data: Vec<&str> = lines[1..]
            .iter()
            .copied()
            .filter(|l| !l.ends_with("win_share"))
            .collect();
        let shares = lines.len() - 1 - data.len();
        assert_eq!(data.len(), params.seeds * cells);
        assert_eq!(shares, 10, "6 constructives + 4 improvers");

        // Rows come in BUDGETS-order blocks per (seed, algo): within each
        // block more budget must never yield a worse incumbent, and the
        // unlimited point must converge.
        for block in data.chunks(BUDGETS.len()) {
            let mut prev = f64::INFINITY;
            for (bi, line) in block.iter().enumerate() {
                let cols: Vec<&str> = line.split(',').collect();
                assert_eq!(
                    cols[1],
                    budget_label(BUDGETS[bi]),
                    "row order broke: {line}"
                );
                let cost: f64 = cols[4].parse().unwrap();
                assert!(
                    cost <= prev + 1e-12,
                    "budget {} worsened the incumbent: {line}",
                    cols[1]
                );
                prev = cost;
                if BUDGETS[bi].is_none() {
                    assert_eq!(cols[5], "converged", "unlimited must converge: {line}");
                }
                // Steps may overshoot a budget by at most one atomic
                // constructive block (members always run to completion),
                // never unboundedly.
                let steps: u64 = cols[3].parse().unwrap();
                assert!(steps > 0, "a solve must consume steps: {line}");
                if let Some(b) = BUDGETS[bi] {
                    let atomic = (MAX_OPS * 3) as u64;
                    assert!(
                        steps <= b + atomic,
                        "steps {steps} far exceeded budget {b}: {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn output_is_deterministic() {
        let params = Params::quick();
        let a = run(&params);
        let b = run(&params);
        assert_eq!(a.extra_csvs, b.extra_csvs);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn win_share_rows_are_well_formed_and_sum_to_one() {
        let params = Params::quick();
        let out = run(&params);
        let csv = &out.extra_csvs[0].1;
        let mut total = 0.0f64;
        let mut rows = 0;
        for line in csv.lines().filter(|l| l.ends_with("win_share")) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 6, "win-share rows match the header: {line}");
            assert!(cols[0].starts_with("Blackboard:"), "{line}");
            assert_eq!(cols[1], "all");
            assert_eq!(cols[2], "all");
            let share: f64 = cols[4].parse().unwrap();
            assert!((0.0..=1.0).contains(&share), "{line}");
            total += share;
            rows += 1;
        }
        assert_eq!(rows, 10);
        assert!(
            (total - 1.0).abs() < 0.01,
            "shares must sum to ~1 (got {total})"
        );
    }

    #[test]
    fn blackboard_beats_or_ties_the_portfolio_on_most_cells() {
        // The ROADMAP item-4 acceptance bar: at least half of the
        // (budget, seed) cells must have the blackboard's final cost at
        // or below the sequential portfolio's.
        let params = Params::quick();
        let out = run(&params);
        let csv = &out.extra_csvs[0].1;
        let mut cells: std::collections::BTreeMap<(String, String), [Option<f64>; 2]> =
            Default::default();
        for line in csv.lines().skip(1).filter(|l| !l.ends_with("win_share")) {
            let cols: Vec<&str> = line.split(',').collect();
            let slot = match cols[0] {
                "Portfolio" => 0,
                "Blackboard" => 1,
                _ => continue,
            };
            let key = (cols[1].to_string(), cols[2].to_string());
            cells.entry(key).or_insert([None, None])[slot] = Some(cols[4].parse().unwrap());
        }
        let mut wins = 0usize;
        let mut total = 0usize;
        for ((budget, seed), pair) in &cells {
            let (Some(portfolio), Some(blackboard)) = (pair[0], pair[1]) else {
                panic!("cell ({budget}, {seed}) is missing a solver");
            };
            total += 1;
            if blackboard <= portfolio + 1e-12 {
                wins += 1;
            }
        }
        assert!(total > 0);
        assert!(
            wins * 2 >= total,
            "blackboard won only {wins}/{total} cells against the portfolio"
        );
    }

    #[test]
    fn small_budgets_actually_bite() {
        let params = Params::quick();
        let out = run(&params);
        let exhausted = out.extra_csvs[0]
            .1
            .lines()
            .skip(1)
            .filter(|l| l.ends_with("budget_exhausted"))
            .count();
        assert!(
            exhausted > 0,
            "a 100-step budget should cut some search short"
        );
    }
}
