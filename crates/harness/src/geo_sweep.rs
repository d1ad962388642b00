//! Geo-distributed deployment sweep: regions × prices × money weight
//! (`geo_sweep`).
//!
//! The paper's experiments deploy onto a flat, free cluster. This
//! experiment deploys onto geo-cloud instances
//! ([`wsflow_workload::geo_instance`]): servers clustered into priced
//! regions behind a WAN latency matrix, evaluated under the
//! tri-criteria objective (execution, penalty, dollars). The sweep
//! crosses instance size × money weight × algorithm × seed, where the
//! suite spans the fairness-first baseline, budgeted local search, and
//! the [`ElasticProvision`] lease-shrinking wrapper.
//!
//! Two deterministic CSVs come out:
//!
//! * `geo_sweep.csv` — one row per solve with the full cost breakdown
//!   (execution, penalty, money, combined) and the leased-server count.
//! * `geo_front.csv` — per instance, the tri-criteria Pareto front over
//!   every (algorithm, money weight) solve: the weight-independent view
//!   of the cost/latency/dollars trade.
//!
//! Budgets are logical, so both CSVs are byte-identical for any
//! `WSFLOW_THREADS` setting and with observability on or off —
//! `tests/golden.rs` checks exactly that. With observability on, the run additionally
//! feeds the `geo.` metrics behind the `geo:` section of
//! `wsflow report`: per-region placement shares, the dollar-bill
//! distribution, and the front size.

use wsflow_core::{DeploymentAlgorithm, ElasticProvision, FairLoad, HillClimb, SolveCtx};
use wsflow_cost::{pareto_front, CostWeights, Evaluator, ParetoPoint, Problem};
use wsflow_workload::geo_instance;

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::table::{ms, Table};
use crate::trajectory::TrajectoryRecorder;

/// The fixed logical-step budget per solve.
pub const BUDGET: u64 = 1_000_000;

/// Header of `geo_sweep.csv`.
pub const CSV_HEADER: &str =
    "instance,ops,servers,regions,money_weight,algo,seed,steps,execution,penalty,money,combined,occupied,termination";

/// Header of `geo_front.csv`.
pub const FRONT_HEADER: &str = "instance,seed,algo,money_weight,execution,penalty,money";

/// Money weights swept (the time weights stay at 1.0). The `0.0` column
/// pins the legacy bi-objective behaviour; the non-zero column makes
/// the bill bite.
pub const MONEY_WEIGHTS: [f64; 2] = [0.0, 0.5];

/// Instance sizes swept, `(ops, servers, regions)`, smallest first.
pub fn sizes(params: &Params) -> Vec<(usize, usize, usize)> {
    if params.ops >= Params::paper().ops {
        vec![(60, 12, 4), (120, 24, 6), (240, 48, 8)]
    } else {
        vec![(30, 9, 3), (60, 12, 4)]
    }
}

/// Seeds per instance size.
pub fn seeds(params: &Params) -> usize {
    params.seeds.clamp(1, 3)
}

/// The solver suite: the fairness-first constructive baseline, budgeted
/// local search on the scalarised objective, and the elastic
/// lease-shrinking wrapper around each.
fn suite() -> Vec<Box<dyn DeploymentAlgorithm + Sync>> {
    vec![
        Box::new(FairLoad),
        Box::new(HillClimb::new(FairLoad)),
        Box::new(ElasticProvision::new(FairLoad)),
        Box::new(ElasticProvision::new(HillClimb::new(FairLoad))),
    ]
}

/// Display names for the suite (the wrappers are generic, so the trait
/// name alone cannot distinguish their instantiations).
fn suite_names() -> Vec<&'static str> {
    vec![
        "FairLoad",
        "HillClimb",
        "Elastic(FairLoad)",
        "Elastic(HillClimb)",
    ]
}

/// Run the geo sweep.
pub fn run(params: &Params) -> ExperimentOutput {
    let sizes = sizes(params);
    let seeds = seeds(params);
    let algos = suite();
    let names = suite_names();

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    let mut front_csv = String::from(FRONT_HEADER);
    front_csv.push('\n');
    let mut recorder = TrajectoryRecorder::new();

    // Aggregates keyed by (size, weight, algo) for the summary table,
    // and the per-region placement tallies behind the report section.
    let cells = sizes.len() * MONEY_WEIGHTS.len() * algos.len();
    let mut sum_exec = vec![0.0f64; cells];
    let mut sum_money = vec![0.0f64; cells];
    let mut sum_occupied = vec![0usize; cells];
    let mut region_ops: Vec<u64> = Vec::new();
    let mut total_front = 0usize;
    let mut solves = 0u64;

    for (si, &(m, n, r)) in sizes.iter().enumerate() {
        let instance = format!("{m}x{n}x{r}");
        for i in 0..seeds as u64 {
            let seed = params.base_seed + i;
            let sc = geo_instance(m, n, r, seed);
            let mut points: Vec<ParetoPoint<(&str, f64)>> = Vec::new();
            for (wi, &weight) in MONEY_WEIGHTS.iter().enumerate() {
                let problem = Problem::with_weights(
                    sc.workflow.clone(),
                    sc.network.clone(),
                    CostWeights::tri(1.0, 1.0, weight),
                )
                .expect("geo instances are valid");
                let mut evaluator = Evaluator::new(&problem);
                for (ai, (algo, name)) in algos.iter().zip(&names).enumerate() {
                    let mut ctx = SolveCtx::with_budget(BUDGET);
                    let out = algo
                        .solve(&problem, &mut ctx)
                        .expect("the geo suite deploys on star networks");
                    let cost = evaluator.evaluate(&out.mapping);
                    assert!(
                        cost.combined.value().is_finite(),
                        "{name} produced a non-finite cost on {instance}"
                    );
                    let occupied = out.mapping.servers_used();
                    csv.push_str(&format!(
                        "{instance},{m},{n},{r},{weight},{name},{seed},{},{},{},{},{},{occupied},{}\n",
                        out.steps,
                        cost.execution.value(),
                        cost.penalty.value(),
                        cost.money.value(),
                        cost.combined.value(),
                        out.termination
                    ));
                    recorder.record(&format!("{instance}/w{weight}/{name}/{seed}"), &ctx);
                    points.push(ParetoPoint::from_cost3(&cost, (*name, weight)));

                    let cell = (si * MONEY_WEIGHTS.len() + wi) * algos.len() + ai;
                    sum_exec[cell] += cost.execution.value();
                    sum_money[cell] += cost.money.value();
                    sum_occupied[cell] += occupied;

                    if region_ops.len() < sc.network.num_regions() {
                        region_ops.resize(sc.network.num_regions(), 0);
                    }
                    for (_, server) in out.mapping.iter() {
                        region_ops[sc.network.server(server).region.0 as usize] += 1;
                    }
                    solves += 1;
                    wsflow_obs::observe("geo.money_dollars", cost.money.value());
                }
            }
            for p in pareto_front(points) {
                let (name, weight) = p.item;
                front_csv.push_str(&format!(
                    "{instance},{seed},{name},{weight},{},{},{}\n",
                    p.execution(),
                    p.penalty(),
                    p.money().expect("geo points carry a money axis")
                ));
                total_front += 1;
            }
        }
    }

    if wsflow_obs::enabled() {
        wsflow_obs::counter_add("geo.solves", solves);
        wsflow_obs::gauge_set("geo.front_size", total_front as f64);
        let placed: u64 = region_ops.iter().sum();
        if placed > 0 {
            for (r, &ops) in region_ops.iter().enumerate() {
                wsflow_obs::gauge_set(
                    &format!("geo.region_share.r{r}"),
                    ops as f64 / placed as f64,
                );
            }
        }
    }

    let mut table = Table::new(
        format!("Geo sweep — priced regions, budget {BUDGET} steps, {seeds} seed(s) per size"),
        &[
            "instance",
            "money_weight",
            "algorithm",
            "mean_exec_ms",
            "mean_money_usd",
            "mean_occupied",
        ],
    );
    let runs = seeds.max(1) as f64;
    for (si, &(m, n, r)) in sizes.iter().enumerate() {
        for (wi, &weight) in MONEY_WEIGHTS.iter().enumerate() {
            for (ai, name) in names.iter().enumerate() {
                let cell = (si * MONEY_WEIGHTS.len() + wi) * algos.len() + ai;
                table.push_row(vec![
                    format!("{m}x{n}x{r}"),
                    format!("{weight}"),
                    name.to_string(),
                    ms(sum_exec[cell] / runs),
                    format!("{:.4}", sum_money[cell] / runs),
                    format!("{:.1}", sum_occupied[cell] as f64 / runs),
                ]);
            }
        }
    }

    let mut out = ExperimentOutput::new("geo_sweep");
    out.tables.push(table);
    out.extra_csvs.push(("geo_sweep.csv".to_string(), csv));
    out.extra_csvs
        .push(("geo_front.csv".to_string(), front_csv));
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
    fn quick_grid_is_complete_and_well_formed() {
        let params = Params::quick();
        let out = run(&params);
        let (name, csv) = &out.extra_csvs[0];
        assert_eq!(name, "geo_sweep.csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        let cells = sizes(&params).len() * MONEY_WEIGHTS.len() * suite().len() * seeds(&params);
        assert_eq!(lines.len(), 1 + cells);
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 14, "malformed row: {line}");
            let exec: f64 = cols[8].parse().unwrap();
            let penalty: f64 = cols[9].parse().unwrap();
            let money: f64 = cols[10].parse().unwrap();
            let combined: f64 = cols[11].parse().unwrap();
            assert!(exec > 0.0 && penalty >= 0.0, "bad time axes: {line}");
            assert!(
                money > 0.0,
                "geo servers are priced, bills are real: {line}"
            );
            assert!(combined.is_finite(), "bad combined: {line}");
            let occupied: usize = cols[12].parse().unwrap();
            let servers: usize = cols[2].parse().unwrap();
            assert!(
                occupied >= 1 && occupied <= servers,
                "bad occupancy: {line}"
            );
        }
    }

    #[test]
    fn zero_money_weight_rows_scalarise_without_the_bill() {
        // f64 Display round-trips, so the parsed columns reproduce the
        // exact bits: with a zero money weight the scalar must equal
        // 1.0·execution + 1.0·penalty even though the money column still
        // reports the (unweighted) bill.
        let out = run(&Params::quick());
        let csv = &out.extra_csvs[0].1;
        let mut checked = 0;
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            if cols[4] != "0" {
                continue;
            }
            let exec: f64 = cols[8].parse().unwrap();
            let penalty: f64 = cols[9].parse().unwrap();
            let combined: f64 = cols[11].parse().unwrap();
            assert_eq!(
                combined.to_bits(),
                (exec + penalty).to_bits(),
                "money leaked into the scalar: {line}"
            );
            checked += 1;
        }
        assert!(checked > 0, "the sweep must include zero-weight rows");
    }

    #[test]
    fn front_spans_multiple_algorithms() {
        use std::collections::BTreeMap;
        let out = run(&Params::quick());
        let (name, front) = &out.extra_csvs[1];
        assert_eq!(name, "geo_front.csv");
        let lines: Vec<&str> = front.lines().collect();
        assert_eq!(lines[0], FRONT_HEADER);
        assert!(lines.len() > 1, "the front must be non-empty");
        let mut by_instance: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 7, "malformed front row: {line}");
            by_instance
                .entry((cols[0].to_string(), cols[1].to_string()))
                .or_default()
                .push(cols[2].to_string());
        }
        let params = Params::quick();
        assert_eq!(
            by_instance.len(),
            sizes(&params).len() * seeds(&params),
            "every instance must contribute a front"
        );
        // The headline claim of the study: the trade is real, so at
        // least one instance's front mixes distinct non-dominated
        // solvers rather than being owned by a single algorithm.
        let mixed = by_instance.values().any(|algos| {
            let mut distinct = algos.clone();
            distinct.sort();
            distinct.dedup();
            distinct.len() >= 2
        });
        assert!(mixed, "no instance front mixes algorithms: {front}");
    }
}
