//! Cross-validation of the analytic cost model against the
//! discrete-event simulator (an extension beyond the paper).
//!
//! For each configuration we deploy with HeavyOps-LargeMsgs, then
//! compare the analytic `Texecute` with the Monte-Carlo mean under (a)
//! the analytic assumptions (no contention — should agree) and (b) full
//! contention (FIFO servers + serialised bus — quantifies what the
//! paper's model leaves out).

use wsflow_core::{DeploymentAlgorithm, HeavyOpsLargeMsgs};
use wsflow_cost::{Evaluator, Problem};
use wsflow_model::MbitsPerSec;
use wsflow_sim::{monte_carlo, SimConfig};
use wsflow_workload::{generate, Configuration, ExperimentClass, GraphClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::table::{ms, Table};

/// One validation row.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Scenario label.
    pub scenario: String,
    /// Analytic expected execution time (s).
    pub analytic: f64,
    /// Monte-Carlo mean under ideal (analytic) assumptions (s).
    pub ideal_mean: f64,
    /// 95 % CI half-width of the ideal mean.
    pub ideal_ci: f64,
    /// Monte-Carlo mean under full contention (s).
    pub contended_mean: f64,
}

/// Run the validation over a spread of configurations.
pub fn rows(params: &Params, trials: usize) -> Vec<ValidationRow> {
    let class = ExperimentClass::class_c();
    let n = *params.server_counts.last().expect("at least one N");
    let configs = [
        Configuration::LineBus(MbitsPerSec(10.0)),
        Configuration::LineBus(MbitsPerSec(100.0)),
        Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0)),
        Configuration::GraphBus(GraphClass::Lengthy, MbitsPerSec(100.0)),
        Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(10.0)),
    ];
    configs
        .iter()
        .map(|&config| {
            let s = generate(config, params.ops, n, &class, params.base_seed);
            let problem = Problem::new(s.workflow, s.network).expect("valid scenario");
            let mapping = HeavyOpsLargeMsgs
                .deploy(&problem)
                .expect("HOLM accepts any instance");
            let analytic = Evaluator::new(&problem).execution_time(&mapping).value();
            let ideal = monte_carlo(
                &problem,
                &mapping,
                SimConfig::ideal(),
                trials,
                params.base_seed,
            );
            let contended = monte_carlo(
                &problem,
                &mapping,
                SimConfig::contended(),
                trials,
                params.base_seed,
            );
            ValidationRow {
                scenario: s.name,
                analytic,
                ideal_mean: ideal.completion.mean.value(),
                ideal_ci: ideal.completion.ci95_half_width.value(),
                contended_mean: contended.completion.mean.value(),
            }
        })
        .collect()
}

/// Run and tabulate.
pub fn run(params: &Params, trials: usize) -> ExperimentOutput {
    let data = rows(params, trials);
    let mut t = Table::new(
        format!("Analytic model vs discrete-event simulator ({trials} trials)"),
        &[
            "scenario",
            "analytic_ms",
            "sim_ideal_ms",
            "ci95_ms",
            "sim_contended_ms",
            "contention_overhead",
        ],
    );
    for r in &data {
        t.push_row(vec![
            r.scenario.clone(),
            ms(r.analytic),
            ms(r.ideal_mean),
            ms(r.ideal_ci),
            ms(r.contended_mean),
            format!("{:+.1}%", (r.contended_mean / r.ideal_mean - 1.0) * 100.0),
        ]);
    }
    let mut out = ExperimentOutput::new("sim_validation");
    out.tables.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_ideal_simulation() {
        let params = Params::quick();
        for r in rows(&params, 400) {
            if r.scenario.starts_with("line-bus") {
                // Deterministic workflow: the ideal simulation must
                // reproduce the analytic value exactly.
                assert!(
                    (r.analytic - r.ideal_mean).abs() < 1e-9,
                    "{}: analytic {} vs ideal sim {}",
                    r.scenario,
                    r.analytic,
                    r.ideal_mean
                );
            } else {
                // Random graphs: XOR nested under AND/OR makes the
                // analytic value an approximation of the true mean
                // (E[max] ≠ max of E); EXPERIMENTS.md quantifies the
                // gap. Allow the CI plus a 20 % modelling margin.
                let margin = r.ideal_ci + 0.20 * r.ideal_mean.max(1e-9);
                assert!(
                    (r.analytic - r.ideal_mean).abs() <= margin,
                    "{}: analytic {} vs ideal sim {} ± {}",
                    r.scenario,
                    r.analytic,
                    r.ideal_mean,
                    margin
                );
            }
        }
    }

    #[test]
    fn contention_never_speeds_things_up() {
        let params = Params::quick();
        for r in rows(&params, 100) {
            // Same seed, but event ordering differs between configs, so
            // XOR draws can differ per trial — allow a small sampling
            // margin on the comparison of means.
            assert!(
                r.contended_mean >= r.ideal_mean * 0.95 - 1e-9,
                "{}: contended {} < ideal {}",
                r.scenario,
                r.contended_mean,
                r.ideal_mean
            );
        }
    }

    #[test]
    fn table_renders() {
        let params = Params::quick();
        let out = run(&params, 50);
        assert_eq!(out.tables[0].num_rows(), 5);
        assert!(out.render().contains("analytic_ms"));
    }
}
