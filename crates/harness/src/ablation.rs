//! Ablation studies of the algorithms' design choices (DESIGN.md §5).
//!
//! * **FLMME large-message threshold** — the paper fixes "large" at the
//!   top decile of message sizes; sweep the fraction to see how the
//!   execution/fairness trade-off moves.
//! * **Tie-resolver seed sensitivity** — the Tie-Resolver algorithms
//!   start from a random mapping; measure how much their output quality
//!   depends on that seed (a stable algorithm should show a small
//!   spread).

use wsflow_core::{
    DeploymentAlgorithm, FairLoadMergeMessages, FairLoadTieResolver, FairLoadTieResolver2,
};
use wsflow_cost::{Evaluator, Problem};
use wsflow_workload::{generate_batch, Configuration, ExperimentClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::summary::{aggregate, aggregates_table};
use crate::table::{ms, Table};

/// The threshold fractions swept by the FLMME ablation.
pub const FLMME_FRACTIONS: [f64; 5] = [0.0, 0.05, 0.1, 0.25, 0.5];

/// FLMME threshold sweep over class-C Line–Bus scenarios.
pub fn flmme_threshold(params: &Params) -> ExperimentOutput {
    let class = ExperimentClass::class_c();
    let n = *params.server_counts.last().expect("at least one N");
    let bus = params.bus_speeds[0];
    let scenarios = generate_batch(
        Configuration::LineBus(bus),
        params.ops,
        n,
        &class,
        params.base_seed,
        params.seeds,
    );
    let mut records = Vec::new();
    for &fraction in &FLMME_FRACTIONS {
        records.extend(crate::runner::run_batch(&scenarios, || {
            let algo = FLMMEVariant {
                inner: FairLoadMergeMessages::with_fraction(params.base_seed, fraction),
                label: format!("FLMME@{fraction}"),
            };
            vec![Box::new(algo) as Box<dyn DeploymentAlgorithm>]
        }));
    }
    let aggs = aggregate(&records);
    let mut out = ExperimentOutput::new("ablation_flmme");
    out.tables.push(aggregates_table(
        format!(
            "Ablation — FLMME large-message fraction, Line–Bus, bus {} Mbps, {} runs each",
            bus.value(),
            params.seeds
        ),
        &aggs,
    ));
    out.records = records;
    out
}

/// A renamed FLMME so sweep points are distinguishable in tables.
struct FLMMEVariant {
    inner: FairLoadMergeMessages,
    label: String,
}

impl DeploymentAlgorithm for FLMMEVariant {
    fn name(&self) -> &str {
        &self.label
    }
    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut wsflow_core::SolveCtx<'_>,
    ) -> Result<wsflow_core::SolveOutcome, wsflow_core::DeployError> {
        self.inner.solve(problem, ctx)
    }
}

/// Seed-sensitivity rows: per algorithm, the spread of combined cost
/// across initial-mapping seeds, averaged over scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSensitivityRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Mean (over scenarios) of the combined cost averaged over seeds.
    pub mean_combined: f64,
    /// Mean (over scenarios) of the max-min combined spread over seeds.
    pub mean_spread: f64,
    /// The worst spread seen in any scenario.
    pub worst_spread: f64,
}

/// Measure seed sensitivity of the Tie-Resolver family.
pub fn seed_sensitivity(params: &Params, seeds_per_algo: u64) -> Vec<SeedSensitivityRow> {
    let class = ExperimentClass::class_c();
    let n = *params.server_counts.last().expect("at least one N");
    let scenarios = generate_batch(
        Configuration::LineBus(params.bus_speeds[0]),
        params.ops,
        n,
        &class,
        params.base_seed,
        params.seeds,
    );
    type Factory = Box<dyn Fn(u64) -> Box<dyn DeploymentAlgorithm>>;
    let make: Vec<(&str, Factory)> = vec![
        (
            "FL-TieResolver",
            Box::new(|s| Box::new(FairLoadTieResolver::new(s))),
        ),
        (
            "FL-TieResolver2",
            Box::new(|s| Box::new(FairLoadTieResolver2::new(s))),
        ),
        (
            "FL-MergeMsgEnds",
            Box::new(|s| Box::new(FairLoadMergeMessages::new(s))),
        ),
    ];
    make.into_iter()
        .map(|(name, factory)| {
            let mut sum_combined = 0.0;
            let mut sum_spread = 0.0;
            let mut worst_spread = 0.0f64;
            for s in &scenarios {
                let problem = Problem::new(s.workflow.clone(), s.network.clone())
                    .expect("generated scenarios are valid");
                let mut ev = Evaluator::new(&problem);
                let costs: Vec<f64> = (0..seeds_per_algo)
                    .map(|seed| {
                        let m = factory(seed).deploy(&problem).expect("deployable");
                        ev.combined(&m).value()
                    })
                    .collect();
                let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
                let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                sum_combined += costs.iter().sum::<f64>() / costs.len() as f64;
                sum_spread += max - min;
                worst_spread = worst_spread.max(max - min);
            }
            SeedSensitivityRow {
                algorithm: name.to_string(),
                mean_combined: sum_combined / scenarios.len() as f64,
                mean_spread: sum_spread / scenarios.len() as f64,
                worst_spread,
            }
        })
        .collect()
}

/// Run both ablations.
pub fn run(params: &Params) -> ExperimentOutput {
    let mut out = flmme_threshold(params);
    out.id = "ablation".into();
    let rows = seed_sensitivity(params, 8);
    let mut t = Table::new(
        format!(
            "Ablation — Tie-Resolver seed sensitivity (8 seeds, bus {} Mbps, {} scenarios)",
            params.bus_speeds[0].value(),
            params.seeds
        ),
        &[
            "algorithm",
            "mean_combined_ms",
            "mean_spread_ms",
            "worst_spread_ms",
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.algorithm.clone(),
            ms(r.mean_combined),
            ms(r.mean_spread),
            ms(r.worst_spread),
        ]);
    }
    out.tables.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flmme_sweep_has_all_fractions() {
        let params = Params::quick();
        let out = flmme_threshold(&params);
        let aggs = aggregate(&out.records);
        assert_eq!(aggs.len(), FLMME_FRACTIONS.len());
        for f in FLMME_FRACTIONS {
            assert!(
                aggs.iter().any(|a| a.algorithm == format!("FLMME@{f}")),
                "missing fraction {f}"
            );
        }
    }

    #[test]
    fn seed_sensitivity_rows_are_sane() {
        let mut params = Params::quick();
        params.seeds = 3;
        let rows = seed_sensitivity(&params, 4);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.mean_combined > 0.0);
            assert!(r.mean_spread >= 0.0);
            assert!(r.worst_spread >= r.mean_spread - 1e-12);
        }
    }

    #[test]
    fn combined_run_produces_two_tables() {
        let mut params = Params::quick();
        params.seeds = 2;
        let out = run(&params);
        assert_eq!(out.tables.len(), 2);
    }
}
