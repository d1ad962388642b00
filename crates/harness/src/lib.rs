//! # wsflow-harness — experiment harness
//!
//! Regenerates every table and figure in the paper's evaluation (§4):
//!
//! | Paper artefact | Module | Binary |
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
//! Every binary takes `--quick` for a seconds-scale run and writes raw
//! records + summary tables as CSV under `results/`.

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

/// Expands to the standard experiment-binary `main`: parse the common
/// CLI options and hand the run function to [`cli::run_one`].
///
/// Two forms:
///
/// ```ignore
/// // The run function only needs `&Params`:
/// wsflow_harness::harness_main!(wsflow_harness::fig6::run);
///
/// // The run closure is derived from the parsed options first:
/// wsflow_harness::harness_main!(setup |opts| {
///     let trials = if opts.params.seeds >= 50 { 2000 } else { 400 };
///     move |p| wsflow_harness::sim_validation::run(p, trials)
/// });
/// ```
#[macro_export]
macro_rules! harness_main {
    (setup |$opts:ident| $make:expr) => {
        fn main() {
            let $opts = $crate::cli::parse_or_exit();
            let run = $make;
            $crate::cli::run_one(&$opts, run);
        }
    };
    ($run:expr) => {
        fn main() {
            let opts = $crate::cli::parse_or_exit();
            $crate::cli::run_one(&opts, $run);
        }
    };
}
