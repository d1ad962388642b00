//! # wsflow-harness — experiment harness
//!
//! Regenerates every table and figure in the paper's evaluation (§4):
//!
//! | Paper artefact | Module | `wsflow run` |
//! |---|---|---|
//! | Table 6 (class-C configuration) | [`table6`] | `table6` |
//! | Fig. 6 (Line–Bus, 19 ops) | [`fig6`] | `fig6` |
//! | Fig. 7 (Graph–Bus overall) | [`fig7`] | `fig7` |
//! | Fig. 8 (Graph–Bus per structure) | [`fig8`] | `fig8` |
//! | §4.1 quality sampling | [`quality`] | `quality` |
//! | Class A/B sweeps (mentioned, unreported) | [`class_ab`] | `class_ab` |
//! | Line–Line experiments (§3.2) | [`line_line_exp`] | `line_line` |
//! | Analytic-vs-simulator validation (extension) | [`sim_validation`] | `sim_validation` |
//! | Dynamic environments & re-deployment (extension) | [`dyn_policies`] | `dyn_policies` |
//! | Anytime quality-vs-budget sweep (extension) | [`quality_vs_budget`] | `quality_vs_budget` |
//! | Multi-tenant service load generation (extension) | [`loadgen`] | `loadgen` |
//! | Geo-distributed regions & prices (extension) | [`geo_sweep`] | `geo_sweep` |
//!
//! [`EXPERIMENTS`] lists all 18 experiments; `wsflow run <name> | all |
//! --list` is the one way to run them. Each takes `--quick` for a
//! seconds-scale run and writes raw records + summary tables as CSV
//! under `results/` (see [`cli`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod class_ab;
pub mod cli;
pub mod dyn_policies;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod front;
pub mod geo_sweep;
pub mod line_line_exp;
pub mod loadgen;
pub mod multi_wf;
pub mod obs_diag;
pub mod output;
pub mod params;
pub mod pareto_report;
pub mod perf;
pub mod quality;
pub mod quality_vs_budget;
pub mod runner;
pub mod scale_sweep;
pub mod scale_up;
pub mod sim_validation;
pub mod summary;
pub mod table;
pub mod table6;
pub mod topologies;
pub mod trajectory;

pub use output::ExperimentOutput;
pub use params::Params;
pub use runner::{run_batch, run_on_problem, Record};
pub use summary::{aggregate, aggregates_table, Aggregate};
pub use table::Table;

/// One experiment of the evaluation: what `wsflow run <name>` runs.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `wsflow run` takes, and the stem of the experiment's
    /// output files (`<name>_manifest.json`, …).
    pub name: &'static str,
    /// One line on what it measures, for `wsflow run --list`.
    pub about: &'static str,
    /// Runs it at the given sizes.
    pub run: fn(&Params) -> ExperimentOutput,
}

/// Every experiment, in the order `wsflow run all` runs them.
///
/// Three entries derive extra sizes from `seeds`: at the paper's 50 (or
/// more) seeds `sim_validation` runs 2000 Monte-Carlo trials,
/// `scale_up` 400 instances and `front_coverage` 25 instances of 8 ops
/// on 3 servers (3⁸ = 6 561 mappings each); below that they run 400
/// trials, 60 instances and 4 instances of 6 ops on 2 servers.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table6",
        about: "Table 6: the class-C experimental configuration",
        run: |_| table6::run(),
    },
    Experiment {
        name: "line_line",
        about: "Line–Line algorithms (§3.2)",
        run: line_line_exp::run,
    },
    Experiment {
        name: "fig6",
        about: "Figure 6: Line–Bus algorithms, 19 operations",
        run: fig6::run,
    },
    Experiment {
        name: "fig7",
        about: "Figure 7: Graph–Bus algorithms, overall",
        run: fig7::run,
    },
    Experiment {
        name: "fig8",
        about: "Figure 8: Graph–Bus algorithms per graph structure",
        run: fig8::run,
    },
    Experiment {
        name: "quality",
        about: "§4.1 solution quality against sampled mappings",
        run: quality::run,
    },
    Experiment {
        name: "quality_vs_budget",
        about: "anytime solvers' quality per logical-step budget",
        run: quality_vs_budget::run,
    },
    Experiment {
        name: "class_ab",
        about: "class A (network varies) and class B (compute varies) sweeps",
        run: class_ab::run,
    },
    Experiment {
        name: "sim_validation",
        about: "analytic cost model against the discrete-event simulator",
        run: |p| sim_validation::run(p, if p.seeds >= 50 { 2000 } else { 400 }),
    },
    Experiment {
        name: "ablation",
        about: "FLMME threshold and Tie-Resolver seed ablations",
        run: ablation::run,
    },
    Experiment {
        name: "scale_up",
        about: "open-loop load scale-up, fair against stacked deployments",
        run: |p| scale_up::run(p, if p.seeds >= 50 { 400 } else { 60 }),
    },
    Experiment {
        name: "multi_workflow",
        about: "joint against per-workflow fairness budgeting of 4 workflows",
        run: |p| multi_wf::run(p, 4),
    },
    Experiment {
        name: "topologies",
        about: "the bus algorithms on star, ring and mesh networks",
        run: topologies::run,
    },
    Experiment {
        name: "front_coverage",
        about: "distance to the exact Pareto front on enumerable instances",
        run: |p| {
            let (ops, servers, instances) = if p.seeds >= 50 { (8, 3, 25) } else { (6, 2, 4) };
            front::run(p, ops, servers, instances)
        },
    },
    Experiment {
        name: "dyn_policies",
        about: "re-deployment policies under seeded fault timelines",
        run: dyn_policies::run,
    },
    Experiment {
        name: "geo_sweep",
        about: "geo-distributed deployment over priced regions",
        run: geo_sweep::run,
    },
    Experiment {
        name: "loadgen",
        about: "multi-tenant service latency under open-loop load",
        run: loadgen::run,
    },
    Experiment {
        name: "scale_sweep",
        about: "flat against hierarchical solvers up to 10^4 ops x 10^3 servers",
        run: scale_sweep::run,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        // `all` selects the whole table, so no entry may take the name.
        assert!(!names.contains(&"all"));
    }
}
